// Serving metrics: what a production deployment watches while the engine
// answers traffic — admission counts, a latency histogram (p50/p95/p99),
// QPS, hot-swap count, and the merged
// QueryProfile pruning counters of every completed query.
//
// Since the unified observability layer (src/obs/), the collector is a
// facade over registry instruments: every Record* call lands in a named
// obs::Counter / obs::Histogram, so the same numbers the Snapshot() API
// reports are exportable through obs::RenderPrometheus / RenderJson. By
// default each collector owns a private registry (test isolation); pass
// a shared registry through ServiceConfig to co-expose service, ingest,
// and persist metrics from one endpoint.

#ifndef SOFA_SERVICE_METRICS_H_
#define SOFA_SERVICE_METRICS_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "index/tree_index.h"
#include "obs/registry.h"
#include "service/request.h"
#include "util/timer.h"

namespace sofa {
namespace service {

/// Point-in-time copy of the collector, safe to read after the fact.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;   // admission attempts
  std::uint64_t completed = 0;   // answered queries
  std::uint64_t rejected = 0;    // bounced at admission (queue full/shutdown)
  std::uint64_t quota_rejected = 0;  // bounced at the per-tenant quota
  std::uint64_t expired = 0;     // dropped at start (deadline passed)
  std::uint64_t invalid = 0;     // malformed (query length mismatch)
  std::uint64_t swaps = 0;       // index generations published

  /// Completed queries per admission priority class (index = Priority).
  std::uint64_t completed_by_priority[kNumPriorities] = {0, 0, 0};

  double uptime_seconds = 0.0;
  double qps = 0.0;  // completed / uptime

  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  /// Merged pruning counters of every completed query.
  index::QueryProfile profile;
};

/// Thread-safe aggregation; Record* calls are cheap enough for the
/// query completion path (lock-free registry instruments; only the
/// profile merge takes a mutex).
class MetricsCollector {
 public:
  /// Registers the service instruments into `registry`; with nullptr the
  /// collector owns a private registry (per-instance semantics, as every
  /// existing test expects).
  explicit MetricsCollector(obs::Registry* registry = nullptr);
  ~MetricsCollector();

  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  void RecordSubmitted() { submitted_->Add(); }
  void RecordRejected() { rejected_->Add(); }
  void RecordQuotaRejected() { quota_rejected_->Add(); }
  void RecordExpired() { expired_->Add(); }
  void RecordInvalid() { invalid_->Add(); }
  void RecordSwap() { swaps_->Add(); }

  /// One answered query: end-to-end latency (overall + per its priority
  /// class) plus (optionally) its merged work counters.
  void RecordCompleted(double latency_ms,
                       const index::QueryProfile* profile = nullptr,
                       Priority priority = Priority::kInteractive);

  MetricsSnapshot Snapshot() const;

  /// The registry the instruments live in (owned or shared).
  obs::Registry* registry() const { return registry_; }

 private:
  void SyncDerived();  // collect hook: uptime/qps gauges, profile counters

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;

  WallTimer uptime_;
  obs::Counter* submitted_;
  obs::Counter* completed_;
  obs::Counter* rejected_;
  obs::Counter* quota_rejected_;
  obs::Counter* expired_;
  obs::Counter* invalid_;
  obs::Counter* swaps_;
  obs::Histogram* latency_ms_;  // 1 µs .. 100 s
  // Per admission priority class: completion count + latency histogram
  // (labeled {priority="interactive"|"batch"|"background"}).
  obs::Counter* completed_by_priority_[kNumPriorities];
  obs::Histogram* latency_by_priority_[kNumPriorities];
  obs::Gauge* uptime_gauge_;
  obs::Gauge* qps_gauge_;
  obs::Counter* profile_counters_[10];
  // Dedicated compressed-tier instruments (sofa_query_rowq_*): monotonic
  // across profiled completions, independent of the Set()-style sync of
  // the labeled profile counters above.
  obs::Counter* rowq_checked_total_;
  obs::Counter* rowq_pruned_total_;
  std::uint64_t hook_id_;

  mutable std::mutex profile_mutex_;
  index::QueryProfile profile_;
};

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_METRICS_H_
