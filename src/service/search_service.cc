#include "service/search_service.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "index/query_engine.h"
#include "obs/perf_counters.h"
#include "util/check.h"

namespace sofa {
namespace service {
namespace {

// One consistent tombstone snapshot for a query: the live set can grow
// concurrently, and the tree and buffer scans must mask the same ids.
// Null when the generation is read-only or nothing is tombstoned — the
// fast path skips all masking.
std::shared_ptr<const std::unordered_set<std::uint32_t>> TombstoneViewOf(
    const IndexSnapshot& snapshot) {
  if (!snapshot.is_ingesting()) {
    return nullptr;
  }
  auto view = snapshot.buffers->tombstones->view();
  if (view->empty()) {
    return nullptr;
  }
  return view;
}

// Span names used by this TU and matched by pointer in StageHistogram —
// every span is begun with one of these arrays, so identity comparison
// is exact and free.
constexpr char kSpanAdmission[] = "admission";
constexpr char kSpanSearch[] = "search";
constexpr char kSpanBufferScan[] = "buffer_scan";

// Span slots preallocated per traced query: the three spans above, with
// room to spare.
constexpr std::size_t kQuerySpans = 8;

// One query over a whole generation: one engine search over its shard
// trees and, when the generation is ingesting, its live insert buffer
// scanned into the same result set. The query's tombstone view is masked
// inside both scans, so the engine's answer is final. The search runs on
// the calling worker; once it passes the engine's solo work budget, idle
// workers of `pool` join its leaf queue (at saturation none is idle and
// the query stays single-threaded).
std::vector<Neighbor> SearchGeneration(const IndexSnapshot& snapshot,
                                       const SearchRequest& request,
                                       ThreadPool* pool,
                                       index::QueryProfile* profile,
                                       obs::QueryTrace* trace,
                                       int search_span) {
  const auto tombstones = TombstoneViewOf(snapshot);
  index::FlatScan buffer_scan;
  if (snapshot.is_ingesting()) {
    buffer_scan = [&](index::ResultSet* results,
                      index::QueryProfile* scan_profile) {
      const int span = trace != nullptr
                           ? trace->BeginSpan(kSpanBufferScan, search_span)
                           : -1;
      const ShardBuffers& buffers = *snapshot.buffers;
      ingest::InsertBuffer::ScanStats stats;
      buffers.buffer->Scan(request.query.data(), buffers.start,
                           tombstones.get(), results, &stats);
      scan_profile->series_ed_computed += stats.ed_computed;
      scan_profile->rowq_checked += stats.rowq_checked;
      scan_profile->rowq_pruned += stats.rowq_pruned;
      scan_profile->candidates_filtered += stats.masked;
      if (trace != nullptr) {
        trace->EndSpan(span);
      }
    };
  }
  const index::QueryEngine engine(&snapshot.sharded->parts(), pool);
  return engine.Search(request.query.data(), request.k, request.epsilon,
                       profile, /*num_threads=*/0, tombstones.get(),
                       buffer_scan);
}

}  // namespace

SearchService::SearchService(std::shared_ptr<const IndexSnapshot> snapshot,
                             ThreadPool* pool, ServiceConfig config)
    : pool_(pool), config_(config), metrics_(config.registry),
      sampler_(config.trace.sample_every),
      slow_log_(config.trace.slow_log_capacity),
      snapshot_(std::move(snapshot)), paused_(config.start_paused) {
  SOFA_CHECK(pool_ != nullptr);
  SOFA_CHECK(snapshot_ != nullptr && snapshot_->sharded != nullptr);
  SOFA_CHECK(config_.max_pending > 0);
  max_running_ =
      config_.num_threads == 0 ? pool_->size() : config_.num_threads;
  obs::Registry* registry = metrics_.registry();
  traces_total_ = registry->GetCounter("sofa_query_traces_total", {},
                                       "Queries that carried a trace");
  slow_queries_total_ =
      registry->GetCounter("sofa_slow_queries_total", {},
                           "Queries recorded in the slow-query log");
  const char* kStage = "sofa_query_stage_ms";
  const char* kStageHelp = "Per-stage time of traced queries (ms)";
  const obs::HistogramOptions stage_options;  // 1 µs .. 100 s
  stage_admission_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", kSpanAdmission}}, kStageHelp);
  stage_search_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", kSpanSearch}}, kStageHelp);
  stage_buffer_scan_ = registry->GetHistogram(
      kStage, stage_options, {{"stage", kSpanBufferScan}}, kStageHelp);
  // Hardware-counter attribution of the search stage. Counts per search
  // range from a handful to billions of cycles, hence the wide geometry.
  obs::HistogramOptions perf_options;
  perf_options.min_value = 1.0;
  perf_options.max_value = 1e12;
  perf_options.buckets_per_decade = 5;
  const obs::Labels perf_labels = {{"stage", kSpanSearch}};
  perf_cycles_ = registry->GetHistogram(
      "sofa_query_stage_cycles", perf_options, perf_labels,
      "CPU cycles per traced stage execution (rdtsc fallback when "
      "perf_event_open is unavailable)");
  perf_instructions_ = registry->GetHistogram(
      "sofa_query_stage_instructions", perf_options, perf_labels,
      "Retired instructions per traced stage execution");
  perf_llc_misses_ = registry->GetHistogram(
      "sofa_query_stage_llc_misses", perf_options, perf_labels,
      "Last-level-cache misses per traced stage execution");
  perf_stalled_cycles_ = registry->GetHistogram(
      "sofa_query_stage_stalled_cycles", perf_options, perf_labels,
      "Backend-stalled cycles per traced stage execution");
}

SearchService::~SearchService() { Shutdown(); }

double SearchService::ElapsedMs(
    std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

std::future<SearchResponse> SearchService::Submit(SearchRequest request) {
  metrics_.RecordSubmitted();
  PendingRequest pending;
  pending.request = std::move(request);
  pending.submit_time = std::chrono::steady_clock::now();
  // Wire clients express deadlines as the relative deadline_ms field;
  // derive the absolute in-process deadline at admission when the caller
  // did not set one directly (the wire never carries a clock reading).
  if (pending.request.deadline_ms > 0.0 &&
      pending.request.deadline ==
          std::chrono::steady_clock::time_point::max()) {
    pending.request.deadline =
        pending.submit_time +
        std::chrono::microseconds(
            static_cast<std::int64_t>(pending.request.deadline_ms * 1e3));
  }
  // Tracing decision: explicit opt-in, trace-everything (slow-query log
  // armed), or every Nth by the sampler. When all three are off this is
  // one branch + one relaxed load — the zero-cost path.
  if (pending.request.collect_trace || config_.trace.slow_query_ms > 0.0 ||
      sampler_.ShouldSample()) {
    pending.trace.reset(new obs::QueryTrace(kQuerySpans));
    pending.query_id =
        next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    pending.admission_span = pending.trace->BeginSpan(kSpanAdmission);
  }
  std::future<SearchResponse> future = pending.promise.get_future();
  RequestStatus shed = RequestStatus::kOk;
  std::vector<std::shared_ptr<PendingRequest>> started;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      shed = RequestStatus::kShutdown;
    } else if (QueuedCountLocked() >= config_.max_pending) {
      shed = RequestStatus::kRejected;
    } else if (config_.tenant_max_in_flight > 0 &&
               [&] {
                 auto it = tenant_in_flight_.find(pending.request.tenant);
                 return it != tenant_in_flight_.end() &&
                        it->second >= config_.tenant_max_in_flight;
               }()) {
      shed = RequestStatus::kQuotaExceeded;
    } else {
      if (config_.tenant_max_in_flight > 0) {
        ++tenant_in_flight_[pending.request.tenant];
      }
      const std::size_t cls =
          std::min(static_cast<std::size_t>(pending.request.priority),
                   kNumPriorities - 1);
      queues_[cls].push_back(std::move(pending));
      StartQueriesLocked(&started);
    }
  }
  if (shed == RequestStatus::kOk) {
    Launch(std::move(started));
    return future;
  }
  // Shed without running: stopped, admission queue full, or the tenant's
  // in-flight quota is spent.
  SearchResponse response;
  response.status = shed;
  if (shed == RequestStatus::kQuotaExceeded) {
    metrics_.RecordQuotaRejected();
  } else {
    metrics_.RecordRejected();
  }
  pending.promise.set_value(std::move(response));
  return future;
}

SearchResponse SearchService::Search(SearchRequest request) {
  return Submit(std::move(request)).get();
}

std::uint64_t SearchService::Publish(
    std::shared_ptr<const IndexSnapshot> snapshot) {
  SOFA_CHECK(snapshot != nullptr && snapshot->sharded != nullptr);
  std::uint64_t version;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = std::move(snapshot);
    version = ++version_;
  }
  metrics_.RecordSwap();
  return version;
}

std::shared_ptr<const IndexSnapshot> SearchService::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

std::uint64_t SearchService::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

void SearchService::Pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void SearchService::Resume() {
  std::vector<std::shared_ptr<PendingRequest>> started;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    StartQueriesLocked(&started);
  }
  Launch(std::move(started));
}

void SearchService::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] {
    return running_ == 0 && (stopping_ || QueuedCountLocked() == 0);
  });
}

void SearchService::Shutdown() {
  std::deque<PendingRequest> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (std::size_t cls = 0; cls < kNumPriorities; ++cls) {
      for (PendingRequest& pending : queues_[cls]) {
        ReleaseTenantLocked(pending.request.tenant);
        drained.push_back(std::move(pending));
      }
      queues_[cls].clear();
    }
  }
  drain_cv_.notify_all();
  for (PendingRequest& pending : drained) {
    SearchResponse response;
    response.status = RequestStatus::kShutdown;
    response.latency_ms = ElapsedMs(pending.submit_time);
    metrics_.RecordRejected();
    pending.promise.set_value(std::move(response));
  }
  // Executing queries finish on the pool; they touch this object until
  // they release their slot, so wait for the last one.
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return running_ == 0; });
}

MetricsSnapshot SearchService::Metrics() const { return metrics_.Snapshot(); }

std::size_t SearchService::PendingCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return QueuedCountLocked();
}

std::size_t SearchService::QueuedCountLocked() const {
  std::size_t total = 0;
  for (std::size_t cls = 0; cls < kNumPriorities; ++cls) {
    total += queues_[cls].size();
  }
  return total;
}

void SearchService::ReleaseTenantLocked(const std::string& tenant) {
  if (config_.tenant_max_in_flight == 0) {
    return;
  }
  auto it = tenant_in_flight_.find(tenant);
  if (it != tenant_in_flight_.end() && --(it->second) == 0) {
    tenant_in_flight_.erase(it);
  }
}

// Strict priority order — except for a small reserve of every round of
// kRoundStarts starts, granted to waiting lower classes (batch before
// background), so a steady interactive flood cannot starve them forever.
// The reserved slots come last in a round.
SearchService::PendingRequest SearchService::PopNextLocked() {
  const auto pop = [this](std::size_t cls) {
    PendingRequest next = std::move(queues_[cls].front());
    queues_[cls].pop_front();
    --round_left_;
    return next;
  };
  while (true) {
    if (round_left_ == 0) {
      round_reserved_ =
          std::min(kRoundReserve, queues_[1].size() + queues_[2].size());
      round_left_ = kRoundStarts;
    }
    if (round_left_ > round_reserved_) {
      for (std::size_t cls = 0; cls < kNumPriorities; ++cls) {
        if (!queues_[cls].empty()) {
          return pop(cls);
        }
      }
    } else {
      for (std::size_t cls = 1; cls < kNumPriorities; ++cls) {
        if (!queues_[cls].empty()) {
          --round_reserved_;
          return pop(cls);
        }
      }
    }
    round_left_ = 0;  // only reserved slots left and no lower class waits
  }
}

void SearchService::StartQueriesLocked(
    std::vector<std::shared_ptr<PendingRequest>>* started) {
  if (paused_ || stopping_) {
    return;
  }
  while (running_ < max_running_ && QueuedCountLocked() > 0) {
    auto pending = std::make_shared<PendingRequest>(PopNextLocked());
    pending->snapshot = snapshot_;  // the generation this query runs on
    pending->version = version_;
    ++running_;
    started->push_back(std::move(pending));
  }
}

void SearchService::Launch(
    std::vector<std::shared_ptr<PendingRequest>> started) {
  for (std::shared_ptr<PendingRequest>& pending : started) {
    pool_->Submit([this, pending] { RunQuery(pending.get()); });
  }
}

void SearchService::RunQuery(PendingRequest* pending) {
  const SearchRequest& request = pending->request;
  obs::QueryTrace* trace = pending->trace.get();
  if (trace != nullptr) {
    trace->EndSpan(pending->admission_span);  // the wait ends here
  }
  SearchResponse response;
  response.index_version = pending->version;
  if (request.deadline < std::chrono::steady_clock::now()) {
    response.status = RequestStatus::kDeadlineExpired;
    metrics_.RecordExpired();
  } else if (request.query.size() != pending->snapshot->series_length()) {
    response.status = RequestStatus::kInvalidArgument;
    metrics_.RecordInvalid();
  } else if (trace == nullptr) {
    response.neighbors = SearchGeneration(*pending->snapshot, request, pool_,
                                          &response.profile, nullptr, -1);
  } else {
    // A traced query always collects work counters (the trace attaches
    // them) and runs under this worker's hardware counters (one
    // thread_local perf group per worker), so the search span carries
    // the cycle/instruction/LLC-miss attribution of this worker's share;
    // helpers that joined its leaf queue count on their own groups.
    obs::PerfCounters& perf = obs::PerfCounters::ForCurrentThread();
    const int search_span = trace->BeginSpan(kSpanSearch);
    perf.Start();
    response.neighbors = SearchGeneration(*pending->snapshot, request,
                                          pool_, &response.profile, trace,
                                          search_span);
    const obs::PerfSample sample = perf.Stop();
    trace->EndSpan(search_span);
    trace->StampSpanPerf(search_span, sample);
  }
  pending->snapshot.reset();  // let a retired generation go promptly

  response.latency_ms = ElapsedMs(pending->submit_time);
  if (response.status == RequestStatus::kOk) {
    // Every completed query's work counts in the metrics; the response
    // carries it only when asked (or traced).
    metrics_.RecordCompleted(response.latency_ms, &response.profile,
                             request.priority);
    if (!request.collect_profile && trace == nullptr) {
      response.profile = index::QueryProfile{};
    }
  }
  if (trace != nullptr) {
    FinishTrace(pending, &response);
  }
  if (config_.tenant_max_in_flight > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    ReleaseTenantLocked(request.tenant);
  }
  pending->promise.set_value(std::move(response));

  // Free the slot and start what waits. Until running_ drops, Shutdown()
  // keeps this object alive; queries started here hold slots of their
  // own.
  std::vector<std::shared_ptr<PendingRequest>> started;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_;
    StartQueriesLocked(&started);
    if (running_ == 0) {
      drain_cv_.notify_all();
    }
  }
  if (!started.empty()) {
    Launch(std::move(started));
  }
}

obs::Histogram* SearchService::StageHistogram(const char* span_name) {
  if (span_name == kSpanAdmission) return stage_admission_;
  if (span_name == kSpanSearch) return stage_search_;
  if (span_name == kSpanBufferScan) return stage_buffer_scan_;
  return nullptr;
}

void SearchService::FinishTrace(PendingRequest* pending,
                                SearchResponse* response) {
  obs::QueryTrace& trace = *pending->trace;
  const index::QueryProfile& profile = response->profile;
  trace.AddCounter("nodes_visited", profile.nodes_visited);
  trace.AddCounter("nodes_pruned", profile.nodes_pruned);
  trace.AddCounter("leaves_collected", profile.leaves_collected);
  trace.AddCounter("leaves_abandoned", profile.leaves_abandoned);
  trace.AddCounter("series_lbd_checked", profile.series_lbd_checked);
  trace.AddCounter("series_lbd_pruned", profile.series_lbd_pruned);
  trace.AddCounter("series_ed_computed", profile.series_ed_computed);
  trace.AddCounter("candidates_filtered", profile.candidates_filtered);
  trace.AddCounter("rowq_checked", profile.rowq_checked);
  trace.AddCounter("rowq_pruned", profile.rowq_pruned);
  const bool expired =
      response->status == RequestStatus::kDeadlineExpired;
  obs::TraceRecord record =
      trace.Finish(pending->query_id, response->latency_ms, expired);
  traces_total_->Add();
  for (const obs::TraceSpan& span : record.spans) {
    obs::Histogram* histogram = StageHistogram(span.name);
    if (histogram != nullptr) {
      histogram->Record(std::max(0.0, span.end_ms - span.start_ms));
    }
    if (span.name == kSpanSearch && span.perf.Any()) {
      // Fallback samples (hardware == false) carry a meaningful tsc
      // cycle delta but zeros elsewhere — the zeros stay out of the
      // instruction/cache histograms so they never skew percentiles.
      perf_cycles_->Record(static_cast<double>(span.perf.cycles));
      if (span.perf.hardware) {
        perf_instructions_->Record(
            static_cast<double>(span.perf.instructions));
        perf_llc_misses_->Record(static_cast<double>(span.perf.llc_misses));
        perf_stalled_cycles_->Record(
            static_cast<double>(span.perf.stalled_cycles));
      }
    }
  }
  if (config_.trace.slow_query_ms > 0.0 &&
      (expired || response->latency_ms >= config_.trace.slow_query_ms)) {
    slow_queries_total_->Add();
    slow_log_.Push(record);  // copy — the caller may want the record too
  }
  if (pending->request.collect_trace) {
    response->trace =
        std::make_shared<const obs::TraceRecord>(std::move(record));
  }
}

}  // namespace service
}  // namespace sofa
