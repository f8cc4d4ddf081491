// The benchmark's child processes: `sofa_cli build` and the
// `sofa_cli serve --listen` server under test. The runner reads a server
// only from outside — its port file, its log and /proc/<pid>.

#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One child process. Every child is killed and reaped when its handle is
/// destroyed, and gets SIGKILL if the runner itself dies.
class ChildProcess {
 public:
  /// Starts argv[0] with stdout and stderr appended to `log_path`.
  /// Returns null if the process cannot be started.
  static std::unique_ptr<ChildProcess> Start(
      const std::vector<std::string>& argv, const std::string& log_path);

  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Waits up to `timeout_s` for the child to exit. Returns true once it
  /// has exited; *exit_code is its exit status (128 + signal if killed).
  bool Wait(double timeout_s, int* exit_code);

  /// Non-blocking: true when the child has exited.
  bool Exited();

  /// SIGTERM, up to `grace_s` to exit, then SIGKILL. Always reaps.
  void Terminate(double grace_s);

  /// SIGKILL and reap.
  void Kill();

  /// utime + stime of the process so far, from /proc/<pid>/stat.
  double CpuSeconds() const;

  /// Peak resident set (VmHWM) in MiB, from /proc/<pid>/status.
  double PeakRssMib() const;

 private:
  explicit ChildProcess(pid_t pid) : pid_(pid) {}

  pid_t pid_;
  bool reaped_ = false;
  int exit_code_ = 0;
};

/// Runs argv to completion. Returns its exit code, or -1 if it could not
/// start or ran past `timeout_s` (it is then killed).
int RunCommand(const std::vector<std::string>& argv,
               const std::string& log_path, double timeout_s);

/// Polls for a server's --port-file. False when the child exits first or
/// `timeout_s` passes.
bool WaitForPortFile(const std::string& path, ChildProcess* child,
                     double timeout_s, std::uint16_t* port);

/// Whole text of a file ("" if unreadable).
std::string ReadFile(const std::string& path);

/// The machine-wide CPU counters of /proc/stat at one instant, in ticks:
/// `steal` is the time the hypervisor ran other guests while this guest's
/// vCPUs wanted to run; `total` is all of user..steal.
struct CpuSample {
  Clock::time_point at;
  double steal = 0.0;
  double total = 0.0;
};
CpuSample ReadCpuSample();

/// Share of the CPU time between `from` and `to` that was stolen, from
/// the samples bracketing that interval (0 if none do).
double StolenShare(const std::vector<CpuSample>& samples,
                   Clock::time_point from, Clock::time_point to);

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
