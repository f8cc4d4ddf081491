#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

int DecodeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return 128 + WTERMSIG(status);
  }
  return -1;
}

}  // namespace

std::unique_ptr<ChildProcess> ChildProcess::Start(
    const std::vector<std::string>& argv, const std::string& log_path) {
  if (argv.empty()) {
    return nullptr;
  }
  // Everything the child needs is prepared before fork(): after it only
  // async-signal-safe calls are allowed (the runner is multi-threaded).
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return nullptr;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return std::unique_ptr<ChildProcess>(new ChildProcess(pid));
}

ChildProcess::~ChildProcess() { Kill(); }

bool ChildProcess::Exited() {
  if (reaped_) {
    return true;
  }
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    reaped_ = true;
    exit_code_ = DecodeWaitStatus(status);
  }
  return reaped_;
}

bool ChildProcess::Wait(double timeout_s, int* exit_code) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(timeout_s * 1e6));
  while (!Exited()) {
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (exit_code != nullptr) {
    *exit_code = exit_code_;
  }
  return true;
}

void ChildProcess::Terminate(double grace_s) {
  if (Exited()) {
    return;
  }
  ::kill(pid_, SIGTERM);
  if (!Wait(grace_s, nullptr)) {
    Kill();
  }
}

void ChildProcess::Kill() {
  if (Exited()) {
    return;
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  exit_code_ = DecodeWaitStatus(status);
}

double ChildProcess::CpuSeconds() const {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesised command name start at field 3
  // (state); utime and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return 0.0;
  }
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ChildProcess::PeakRssMib() const {
  std::istringstream status(
      ReadFile("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

int RunCommand(const std::vector<std::string>& argv,
               const std::string& log_path, double timeout_s) {
  std::unique_ptr<ChildProcess> child = ChildProcess::Start(argv, log_path);
  if (child == nullptr) {
    return -1;
  }
  int exit_code = -1;
  if (!child->Wait(timeout_s, &exit_code)) {
    child->Kill();
    return -1;
  }
  return exit_code;
}

bool WaitForPortFile(const std::string& path, ChildProcess* child,
                     double timeout_s, std::uint16_t* port) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(timeout_s * 1e6));
  while (Clock::now() < deadline) {
    // The server writes the file atomically (tmp + rename).
    const std::string text = ReadFile(path);
    if (!text.empty()) {
      const long value = std::strtol(text.c_str(), nullptr, 10);
      if (value > 0 && value < 65536) {
        *port = static_cast<std::uint16_t>(value);
        return true;
      }
    }
    if (child->Exited()) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

CpuSample ReadCpuSample() {
  CpuSample sample;
  sample.at = Clock::now();
  std::istringstream stat(ReadFile("/proc/stat"));
  std::string label;
  stat >> label;  // "cpu": the sum over all vCPUs
  double ticks = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && (stat >> ticks); ++field) {
    sample.total += ticks;
    if (field == 7) {
      sample.steal = ticks;
    }
  }
  return sample;
}

double StolenShare(const std::vector<CpuSample>& samples,
                   Clock::time_point from, Clock::time_point to) {
  const CpuSample* first = nullptr;
  const CpuSample* last = nullptr;
  for (const CpuSample& sample : samples) {
    if (sample.at <= from) {
      first = &sample;
    }
    if (last == nullptr && sample.at >= to) {
      last = &sample;
    }
  }
  if (first == nullptr || last == nullptr || last->total <= first->total) {
    return 0.0;
  }
  return (last->steal - first->steal) / (last->total - first->total);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return "";
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace perfbench
