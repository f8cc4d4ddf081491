#include "util/flags.h"

#include <cstdlib>

namespace sofa {
namespace {

bool IsFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!IsFlag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !IsFlag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> names;
  for (const auto& entry : values_) {
    names.push_back(entry.first);
  }
  return names;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  return std::strtod(it->second.c_str(), nullptr);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Flags::GetList(const std::string& name) const {
  std::vector<std::string> items;
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return items;
  }
  std::size_t start = 0;
  const std::string& s = it->second;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) {
        items.push_back(s.substr(start));
      }
      break;
    }
    if (comma > start) {
      items.push_back(s.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return items;
}

}  // namespace sofa
