// SearchService — the concurrent query-serving layer over the exact
// engine (ROADMAP: "serves heavy traffic from millions of users").
//
// Clients Submit() k-NN requests from any number of threads; a bounded
// admission queue sheds load beyond its capacity (kRejected). Every
// admitted query runs as one task on the service's pool: at most
// ServiceConfig::num_threads queries execute at once, and the moment one
// finishes the next admitted query starts — no dispatcher thread, no
// batches, no worker idling behind a batch's slowest query. Each query
// is one index::QueryEngine search over its whole generation, and a pool
// worker with no query of its own joins a running query's leaf queue
// until the next query is queued: a lone query spreads over the idle
// cores, and at saturation every query runs on one worker.
//
// Answers are exact and deterministic: identical to a sequential
// QueryEngine::Search, ascending by (distance, id). The service owns the
// live index generation behind a std::shared_ptr<const IndexSnapshot>;
// Publish() swaps it without stopping traffic (a query runs on the
// generation that was live when it started). Serving metrics (QPS,
// latency percentiles, admission counts, merged pruning profiles)
// accumulate in a MetricsCollector.
//
// Every generation is a shard::ShardedIndex (one shard for a single
// tree): a query searches all its shard trees at once — one result set,
// one pruning bound — plus, for an ingesting generation, the live insert
// buffer into the same result set with tombstoned ids masked inside
// every scan, so answers are identical to one tree's over the same
// collection whatever the shard count. Publishing a derived generation
// with a single shard rebuilt/replaced is the per-shard republish path.
//
// Admission understands per-request priority classes (interactive >
// batch > background): each class has its own FIFO inside the shared
// admission bound, and queries start strictly by class, except that in
// every round of kRoundStarts starts a small reserve of slots goes to
// waiting lower classes (no total starvation). Requests are
// tenant-tagged; with ServiceConfig::tenant_max_in_flight set, each
// tenant is capped to that many requests in flight (queued + executing)
// and excess is shed as kQuotaExceeded without touching the queue.
//
// The request/response structs themselves live in service/request.h —
// they are the transport-neutral API shared bit-for-bit with the network
// front end (src/net/).
//
// Threading contract: Submit() is thread-safe; the blocking helpers
// (Search, Drain, Shutdown, destructor) must be called from threads that
// are NOT workers of the service's thread pool — they wait on work the
// pool must execute.

#ifndef SOFA_SERVICE_SEARCH_SERVICE_H_
#define SOFA_SERVICE_SEARCH_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/neighbor.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/metrics.h"
#include "service/request.h"
#include "service/snapshot.h"
#include "util/thread_pool.h"

namespace sofa {
namespace service {

/// Query starts per scheduling round, and the last slots of each round
/// guaranteed to waiting non-interactive requests (filled
/// batch-before-background) while interactive traffic floods the queue —
/// the anti-starvation bound. Priority order is otherwise strict.
inline constexpr std::size_t kRoundStarts = 64;
inline constexpr std::size_t kRoundReserve = 8;

/// Service tuning knobs.
struct ServiceConfig {
  /// Admission bound: requests beyond this many pending are kRejected.
  std::size_t max_pending = 1024;

  /// Queries executing at once, each owned by one pool worker (0 = pool
  /// size); idle workers join running queries.
  std::size_t num_threads = 0;

  /// Start paused (requests queue up until Resume()).
  bool start_paused = false;

  /// Per-tenant cap on requests in flight (queued + executing); requests
  /// over the cap are shed as kQuotaExceeded at Submit(). 0 = no quotas
  /// (tenants untracked, no per-tenant accounting cost).
  std::size_t tenant_max_in_flight = 0;

  /// Metrics registry the service registers its instruments into; null =
  /// a private registry owned by the collector (per-instance semantics).
  /// Pass one shared registry to co-expose service + ingest + persist
  /// metrics from a single endpoint.
  obs::Registry* registry = nullptr;

  /// Per-query tracing & slow-query log (off by default; see TraceConfig).
  obs::TraceConfig trace;
};

class SearchService {
 public:
  /// Starts serving `snapshot` (version 1) on `pool`. The pool must
  /// outlive the service and should not be shared with blocking callers
  /// (see the threading contract above).
  SearchService(std::shared_ptr<const IndexSnapshot> snapshot,
                ThreadPool* pool, ServiceConfig config = ServiceConfig{});

  /// Shutdown(): queued requests are answered kShutdown, running ones
  /// finish first.
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Enqueues a request; the future resolves when it completes (any
  /// status). Never blocks on query execution.
  std::future<SearchResponse> Submit(SearchRequest request);

  /// Synchronous convenience: Submit + wait.
  SearchResponse Search(SearchRequest request);

  /// Publishes a new index generation; queries started from now on run
  /// against it, in-flight queries finish on theirs. Returns the new
  /// generation's version number.
  std::uint64_t Publish(std::shared_ptr<const IndexSnapshot> snapshot);

  /// The currently live generation (and its version, if wanted).
  std::shared_ptr<const IndexSnapshot> snapshot() const;
  std::uint64_t version() const;

  /// Pauses/resumes query starts (admission stays open and running
  /// queries finish — useful to stage a backlog or quiesce execution
  /// around maintenance).
  void Pause();
  void Resume();

  /// Blocks until the queue is empty and no query is executing. While
  /// paused with work queued this can only return after a Resume() from
  /// another thread — call Resume() first when staging a backlog
  /// from a single thread.
  void Drain();

  /// Stops accepting work, fails everything still queued with kShutdown
  /// and waits for the executing queries to finish; idempotent.
  void Shutdown();

  /// Point-in-time serving metrics.
  MetricsSnapshot Metrics() const;

  /// The registry the service's instruments live in (owned or the one
  /// passed through ServiceConfig).
  obs::Registry* registry() const { return metrics_.registry(); }

  /// Traces of queries that exceeded the slow threshold (or expired
  /// their deadline) — dump on demand and at shutdown.
  const obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

  /// Current queue depth (pending, not yet started).
  std::size_t PendingCount() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct PendingRequest {
    SearchRequest request;
    std::promise<SearchResponse> promise;
    std::chrono::steady_clock::time_point submit_time;

    // Tracing state of a sampled/opted-in query (null otherwise).
    std::unique_ptr<obs::QueryTrace> trace;
    int admission_span = -1;
    std::uint64_t query_id = 0;

    // Set when the query starts: the generation it runs against.
    std::shared_ptr<const IndexSnapshot> snapshot;
    std::uint64_t version = 0;
  };

  /// Pops the next request to start: strict priority order, except for
  /// the per-round reserve of lower-class slots. Caller holds mutex_ and
  /// has checked that something is queued.
  PendingRequest PopNextLocked();
  std::size_t QueuedCountLocked() const;
  /// Pops as many queued requests as free execution slots allow (none
  /// while paused or stopping) into `started`, counting them running.
  /// Caller holds mutex_ and hands `started` to Launch() after unlocking.
  void StartQueriesLocked(std::vector<std::shared_ptr<PendingRequest>>* started);
  /// Submits one pool task per started request.
  void Launch(std::vector<std::shared_ptr<PendingRequest>> started);
  /// One query task: runs the search, resolves the promise, then frees
  /// its slot and starts whatever is queued next.
  void RunQuery(PendingRequest* pending);
  /// Drops one in-flight slot of `tenant` (no-op with quotas off). Caller
  /// holds mutex_.
  void ReleaseTenantLocked(const std::string& tenant);
  /// Seals a traced request: attaches profile counters, feeds the stage
  /// histograms, pushes to the slow log, hands the record to the caller
  /// when requested. Must run before the response promise resolves.
  void FinishTrace(PendingRequest* pending, SearchResponse* response);
  obs::Histogram* StageHistogram(const char* span_name);

  static double ElapsedMs(std::chrono::steady_clock::time_point since);

  ThreadPool* pool_;
  ServiceConfig config_;
  MetricsCollector metrics_;
  obs::TraceSampler sampler_;
  obs::SlowQueryLog slow_log_;
  std::atomic<std::uint64_t> next_query_id_{0};
  obs::Counter* traces_total_ = nullptr;
  obs::Counter* slow_queries_total_ = nullptr;
  obs::Histogram* stage_admission_ = nullptr;
  obs::Histogram* stage_buffer_scan_ = nullptr;
  obs::Histogram* stage_search_ = nullptr;
  // Hardware-counter attribution of the search span, which the worker
  // brackets with obs::PerfCounters
  // (sofa_query_stage_{cycles,instructions,llc_misses,stalled_cycles}).
  obs::Histogram* perf_cycles_ = nullptr;
  obs::Histogram* perf_instructions_ = nullptr;
  obs::Histogram* perf_llc_misses_ = nullptr;
  obs::Histogram* perf_stalled_cycles_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable drain_cv_;  // Drain()/Shutdown() waiters
  std::shared_ptr<const IndexSnapshot> snapshot_;
  std::uint64_t version_ = 1;
  // One FIFO per priority class inside the shared admission bound.
  std::deque<PendingRequest> queues_[kNumPriorities];
  // In-flight (queued + executing) request count per tenant; populated
  // only when tenant quotas are on.
  std::unordered_map<std::string, std::size_t> tenant_in_flight_;
  bool paused_ = false;
  bool stopping_ = false;
  std::size_t max_running_;   // resolved num_threads
  std::size_t running_ = 0;   // started, not yet answered
  // Scheduling round: starts left in it, and how many of those are held
  // for waiting lower classes.
  std::size_t round_left_ = 0;
  std::size_t round_reserved_ = 0;
};

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_SEARCH_SERVICE_H_
