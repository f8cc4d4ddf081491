#include "service/metrics.h"

namespace sofa {
namespace service {
namespace {

constexpr const char* kProfileCounterNames[8] = {
    "nodes_visited",     "nodes_pruned",      "leaves_collected",
    "leaves_abandoned",  "series_lbd_checked", "series_lbd_pruned",
    "series_ed_computed", "candidates_filtered"};

}  // namespace

MetricsCollector::MetricsCollector(obs::Registry* registry) {
  if (registry == nullptr) {
    owned_registry_.reset(new obs::Registry());
    registry = owned_registry_.get();
  }
  registry_ = registry;

  const char* kRequests = "sofa_service_requests_total";
  const char* kRequestsHelp = "Requests by admission/completion status";
  submitted_ =
      registry_->GetCounter(kRequests, {{"status", "submitted"}}, kRequestsHelp);
  completed_ =
      registry_->GetCounter(kRequests, {{"status", "completed"}}, kRequestsHelp);
  rejected_ =
      registry_->GetCounter(kRequests, {{"status", "rejected"}}, kRequestsHelp);
  quota_rejected_ = registry_->GetCounter(
      kRequests, {{"status", "quota_exceeded"}}, kRequestsHelp);
  expired_ =
      registry_->GetCounter(kRequests, {{"status", "expired"}}, kRequestsHelp);
  invalid_ =
      registry_->GetCounter(kRequests, {{"status", "invalid"}}, kRequestsHelp);
  swaps_ = registry_->GetCounter("sofa_service_index_swaps_total", {},
                                 "Index generations published");
  obs::HistogramOptions latency_options;
  latency_options.min_value = 1e-3;
  latency_options.max_value = 1e5;
  latency_ms_ = registry_->GetHistogram("sofa_service_latency_ms",
                                        latency_options, {},
                                        "End-to-end query latency (ms)");
  for (std::size_t i = 0; i < kNumPriorities; ++i) {
    const char* name = PriorityName(static_cast<Priority>(i));
    completed_by_priority_[i] = registry_->GetCounter(
        "sofa_service_priority_completed_total", {{"priority", name}},
        "Completed queries by admission priority class");
    latency_by_priority_[i] = registry_->GetHistogram(
        "sofa_service_priority_latency_ms", latency_options,
        {{"priority", name}},
        "End-to-end query latency by admission priority class (ms)");
  }
  uptime_gauge_ = registry_->GetGauge("sofa_service_uptime_seconds", {},
                                      "Seconds since the collector started");
  qps_gauge_ = registry_->GetGauge("sofa_service_qps", {},
                                   "Completed queries per uptime second");
  for (std::size_t i = 0; i < 8; ++i) {
    profile_counters_[i] = registry_->GetCounter(
        "sofa_service_profile_total", {{"counter", kProfileCounterNames[i]}},
        "Merged QueryProfile work counters of completed queries");
  }
  hook_id_ = registry_->AddCollectHook([this] { SyncDerived(); });
}

MetricsCollector::~MetricsCollector() {
  registry_->RemoveCollectHook(hook_id_);
  // Final sync: a Collect() on a shared registry after this service is
  // gone still sees the closing uptime/QPS/profile values.
  SyncDerived();
}

void MetricsCollector::SyncDerived() {
  const double uptime = uptime_.Seconds();
  uptime_gauge_->Set(uptime);
  const std::uint64_t completed = completed_->Value();
  qps_gauge_->Set(uptime > 0.0 ? static_cast<double>(completed) / uptime
                               : 0.0);
  index::QueryProfile profile;
  {
    std::lock_guard<std::mutex> lock(profile_mutex_);
    profile = profile_;
  }
  const std::uint64_t values[8] = {
      profile.nodes_visited,      profile.nodes_pruned,
      profile.leaves_collected,   profile.leaves_abandoned,
      profile.series_lbd_checked, profile.series_lbd_pruned,
      profile.series_ed_computed, profile.candidates_filtered};
  for (std::size_t i = 0; i < 8; ++i) {
    profile_counters_[i]->Set(values[i]);
  }
}

void MetricsCollector::RecordCompleted(double latency_ms,
                                       const index::QueryProfile* profile,
                                       Priority priority) {
  completed_->Add();
  latency_ms_->Record(latency_ms);
  const std::size_t cls = static_cast<std::size_t>(priority);
  if (cls < kNumPriorities) {
    completed_by_priority_[cls]->Add();
    latency_by_priority_[cls]->Record(latency_ms);
  }
  if (profile != nullptr) {
    std::lock_guard<std::mutex> lock(profile_mutex_);
    profile_.Merge(*profile);
  }
}

MetricsSnapshot MetricsCollector::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.submitted = submitted_->Value();
  snapshot.completed = completed_->Value();
  snapshot.rejected = rejected_->Value();
  snapshot.quota_rejected = quota_rejected_->Value();
  snapshot.expired = expired_->Value();
  snapshot.invalid = invalid_->Value();
  snapshot.swaps = swaps_->Value();
  for (std::size_t i = 0; i < kNumPriorities; ++i) {
    snapshot.completed_by_priority[i] = completed_by_priority_[i]->Value();
  }
  snapshot.uptime_seconds = uptime_.Seconds();
  snapshot.qps = snapshot.uptime_seconds > 0.0
                     ? static_cast<double>(snapshot.completed) /
                           snapshot.uptime_seconds
                     : 0.0;
  const LogHistogram& latency = latency_ms_->data();
  snapshot.latency_mean_ms = latency.Mean();
  snapshot.latency_p50_ms = latency.Percentile(50.0);
  snapshot.latency_p95_ms = latency.Percentile(95.0);
  snapshot.latency_p99_ms = latency.Percentile(99.0);
  snapshot.latency_max_ms = latency.MaxValue();
  {
    std::lock_guard<std::mutex> lock(profile_mutex_);
    snapshot.profile = profile_;
  }
  return snapshot;
}

}  // namespace service
}  // namespace sofa
