// Hardware-counter sampling for stage attribution: cycles, retired
// instructions, last-level-cache misses and backend-stalled cycles read
// through perf_event_open(2), scoped to the calling thread so a sample
// taken around one query task charges exactly that task's work.
//
// The paper's bottleneck story is memory traffic — the SFA summaries
// exist to keep scans out of DRAM — so "how many LLC misses did this
// shard scan take?" is the question this module answers, per span.
//
// Availability is never assumed: perf_event_open is routinely denied in
// containers and CI (perf_event_paranoid, seccomp, missing PMU). Every
// event is opened independently and a denied event is simply absent from
// the sample; when no event opens at all the sampler degrades to a raw
// rdtsc cycle count (x86) or a monotonic-clock tick count elsewhere,
// with `PerfSample::hardware == false` so consumers can tell. Opening,
// sampling and reading never fail a query — degradation is silent by
// design (ISSUE: "never a hard failure").
//
// Threading: a PerfCounters instance is bound to the thread that
// constructed it (perf events are opened with pid=0/cpu=-1, i.e. "this
// thread, any CPU"). Use ForCurrentThread() for the query hot path —
// one thread_local instance per worker, opened once, reused for every
// traced task.

#ifndef SOFA_OBS_PERF_COUNTERS_H_
#define SOFA_OBS_PERF_COUNTERS_H_

#include <cstdint>

#include "obs/trace.h"

namespace sofa {
namespace obs {

/// One measurement window. Identical layout to SpanPerf (trace.h) so a
/// sample can be stamped onto a span verbatim.
using PerfSample = SpanPerf;

class PerfCounters {
 public:
  /// Opens the event set for the calling thread (or arms the fallback —
  /// construction never fails).
  PerfCounters();
  ~PerfCounters();

  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when at least one real perf event opened; false on the
  /// rdtsc/clock fallback.
  bool hardware() const { return num_events_ > 0; }

  /// "perf_event" or "tsc" — for diagnostics and test assertions.
  const char* backend() const { return hardware() ? "perf_event" : "tsc"; }

  /// Resets and enables the counters. Cheap enough to call per task.
  void Start();

  /// Disables the counters and returns the deltas since Start().
  PerfSample Stop();

  /// The calling thread's lazily-constructed instance (events are opened
  /// on first use and live for the thread's lifetime).
  static PerfCounters& ForCurrentThread();

  /// Test/ops hook: force every *subsequently constructed* instance down
  /// the fallback path, exactly as if perf_event_open returned EACCES.
  /// Already-open instances are unaffected. Not for the hot path.
  static void ForceFallback(bool on);
  static bool fallback_forced();

 private:
  static constexpr int kMaxEvents = 4;

  // Parallel arrays: fds_[i] measures kind_[i] (index into PerfSample
  // fields). -1 entries are events that failed to open.
  int fds_[kMaxEvents];
  int kind_[kMaxEvents];
  int num_events_ = 0;
  std::uint64_t fallback_start_ = 0;
};

}  // namespace obs
}  // namespace sofa

#endif  // SOFA_OBS_PERF_COUNTERS_H_
