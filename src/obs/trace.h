// Per-query tracing: a lightweight span timeline answering "where did
// this query's latency go?" — admission wait, the search, the buffer
// scans inside it. Designed for ~zero cost when sampling is off: the
// service checks one atomic counter per query and allocates a QueryTrace
// only for sampled queries; untraced queries carry a null pointer
// through the whole pipeline.
//
// Threading model: one thread at a time records spans (a query is handed
// from the submitting thread to the pool worker that runs it, with the
// queue's lock ordering the two).

#ifndef SOFA_OBS_TRACE_H_
#define SOFA_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sofa {
namespace obs {

/// Hardware-counter sample attached to a span (obs::PerfCounters). All
/// zero when the span was not perf-sampled; `hardware` distinguishes a
/// real perf_event_open reading from the rdtsc/clock fallback (where
/// only `cycles` is meaningful).
struct SpanPerf {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_cycles = 0;
  bool hardware = false;

  bool Any() const {
    return cycles != 0 || instructions != 0 || llc_misses != 0 ||
           stalled_cycles != 0;
  }
};

/// One timed stage. `name` must point at a string literal or an interned
/// string (see trace_serde.h) — spans are recorded on the hot path; no
/// ownership, no copies. Times are milliseconds relative to the trace
/// origin.
struct TraceSpan {
  const char* name = "";
  int parent = -1;  // index of the enclosing span, -1 for top level
  double start_ms = 0.0;
  double end_ms = 0.0;
  SpanPerf perf;
};

/// A work counter attached to a finished trace (QueryProfile values).
struct TraceCounterSample {
  const char* name = "";
  std::uint64_t value = 0;
};

/// Immutable result of a finished trace — what the slow-query log stores
/// and the CLI prints.
struct TraceRecord {
  std::uint64_t query_id = 0;
  double total_ms = 0.0;
  bool deadline_expired = false;
  std::vector<TraceSpan> spans;  // allocation order
  std::vector<TraceCounterSample> counters;
};

/// Span collector for one query. Slots are preallocated at construction
/// so recording never allocates; spans beyond the capacity are dropped
/// (return -1), never reallocated under a worker's feet.
class QueryTrace {
 public:
  explicit QueryTrace(std::size_t max_spans = 64);

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Milliseconds elapsed since the trace was constructed.
  double NowMs() const;

  /// Opens a span starting now. Returns its index, or -1 if full.
  int BeginSpan(const char* name, int parent = -1);

  /// Closes a span opened by BeginSpan. Ignores -1.
  void EndSpan(int span);

  /// Attaches a hardware-counter sample to a span. Ignores -1.
  void StampSpanPerf(int span, const SpanPerf& perf);

  /// Attaches a named work counter (e.g. QueryProfile fields).
  void AddCounter(const char* name, std::uint64_t value);

  /// Seals the trace: returns the used spans and counters. The trace is
  /// spent afterwards.
  TraceRecord Finish(std::uint64_t query_id, double total_ms,
                     bool deadline_expired);

 private:
  // Claims the next slot (name + parent, zero times); -1 if full.
  int AllocateSpan(const char* name, int parent);

  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceSpan> spans_;  // fixed capacity, never reallocated
  std::atomic<std::size_t> used_{0};
  std::vector<TraceCounterSample> counters_;
};

/// Decides which queries get a trace: every Nth submission when
/// `sample_every` > 0, none when 0. Thread-safe; one relaxed fetch_add
/// per decision.
class TraceSampler {
 public:
  explicit TraceSampler(std::uint32_t sample_every)
      : every_(sample_every) {}

  bool ShouldSample() {
    if (every_ == 0) {
      return false;
    }
    return counter_.fetch_add(1, std::memory_order_relaxed) % every_ == 0;
  }

  std::uint32_t sample_every() const { return every_; }

 private:
  std::uint32_t every_;
  std::atomic<std::uint64_t> counter_{0};
};

/// Tracing knobs carried in ServiceConfig.
struct TraceConfig {
  /// Trace every Nth query (1 = all, 0 = tracing off).
  std::uint32_t sample_every = 0;

  /// Queries slower than this (or expiring their deadline) land in the
  /// slow-query log with their full trace. > 0 implies every query is
  /// traced — a slow query cannot be predicted in advance.
  double slow_query_ms = 0.0;

  /// Ring-buffer capacity of the slow-query log.
  std::size_t slow_log_capacity = 64;

  bool TracingEnabled() const {
    return sample_every > 0 || slow_query_ms > 0.0;
  }
};

/// Renders a finished trace as an indented timeline (for the slow-query
/// dump and the CLI).
std::string FormatTrace(const TraceRecord& record);

}  // namespace obs
}  // namespace sofa

#endif  // SOFA_OBS_TRACE_H_
