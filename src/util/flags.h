// Minimal command-line flag parsing for the examples and bench harnesses.
// Supports "--name=value", "--name value" and boolean "--name". Note the
// space form is greedy: "--flag positional" binds "positional" to --flag;
// use "--flag=..." or put positional arguments before bare boolean flags.

#ifndef SOFA_UTIL_FLAGS_H_
#define SOFA_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sofa {

/// Parses argv once; typed getters fall back to defaults for absent flags.
class Flags {
 public:
  Flags(int argc, char** argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  /// Every flag name present on the command line, sorted.
  std::vector<std::string> names() const;

  std::int64_t GetInt(const std::string& name, std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Splits a comma-separated flag into items; default empty.
  std::vector<std::string> GetList(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace sofa

#endif  // SOFA_UTIL_FLAGS_H_
