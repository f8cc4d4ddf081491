// Tests for the concurrent query-serving subsystem, serving a one-shard
// generation (how a single index is served): exactness under concurrency
// (service answers == sequential engine answers), backlogs run one pool
// task per query, Drain/Shutdown waiting for in-flight queries,
// admission control (saturation + rejection), deadline expiry, index
// hot-swap during in-flight traffic, the serialization → hot-swap path,
// and serving-metrics accounting.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/query_engine.h"
#include "index/tree_index.h"
#include "sax/sax_scheme.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "sfa/mcb.h"
#include "shard/sharded_index.h"
#include "test_data.h"
#include "util/thread_pool.h"

namespace sofa {
namespace service {
namespace {

using testing_data::BruteForceKnn;
using testing_data::Noise;
using testing_data::SameDistances;
using testing_data::Walk;

std::vector<float> QueryVector(const Dataset& queries, std::size_t q) {
  return std::vector<float>(queries.row(q), queries.row(q) + queries.length());
}

// A one-shard generation over a random-walk collection, and the
// snapshot that serves it.
struct Engine {
  ThreadPool pool;
  Dataset data;
  std::shared_ptr<const shard::ShardedIndex> sharded;

  Engine(std::size_t count, std::size_t length, std::uint64_t seed,
         std::size_t threads = 4, bool sax = false)
      : pool(threads), data(Walk(count, length, seed)) {
    std::shared_ptr<const quant::SummaryScheme> scheme;
    if (sax) {
      scheme = std::make_shared<sax::SaxScheme>(length, 16, 256);
    } else {
      sfa::SfaConfig config;
      config.word_length = 16;
      config.alphabet = 256;
      config.sampling_ratio = 0.2;
      scheme = sfa::TrainSfa(data, config, &pool);
    }
    shard::ShardingConfig config;
    config.num_shards = 1;
    config.index.leaf_capacity = 100;
    sharded = shard::ShardedIndex::Build(data, config, scheme, &pool);
  }

  const index::TreeIndex* tree() const { return sharded->shard(0).tree.get(); }
  std::shared_ptr<const IndexSnapshot> snapshot() const {
    return WrapShardedIndex(sharded);
  }
};

// ------------------------------------------------------------- exactness

TEST(SearchServiceTest, SingleQueriesMatchSequentialSearch) {
  Engine engine(2000, 96, 41);
  SearchService service(engine.snapshot(), &engine.pool);
  const Dataset queries = Walk(15, 96, 42);
  const index::QueryEngine sequential(engine.tree());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 10;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    const auto expected = sequential.Search(queries.row(q), 10);
    EXPECT_TRUE(SameDistances(response.neighbors, expected)) << "query " << q;
    EXPECT_GT(response.latency_ms, 0.0);
    EXPECT_EQ(response.index_version, 1u);
  }
}

TEST(SearchServiceTest, ConcurrentClientsStayExact) {
  Engine engine(2000, 96, 43);
  SearchService service(engine.snapshot(), &engine.pool);
  const Dataset queries = Walk(24, 96, 44);

  constexpr std::size_t kClients = 3;
  std::vector<std::thread> clients;
  std::atomic<std::size_t> failures(0);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = c; q < queries.size(); q += kClients) {
        SearchRequest request;
        request.query = QueryVector(queries, q);
        request.k = 5;
        const SearchResponse response = service.Search(std::move(request));
        const auto expected = BruteForceKnn(engine.data, queries.row(q), 5);
        if (response.status != RequestStatus::kOk ||
            !SameDistances(response.neighbors, expected)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.completed, queries.size());
}

TEST(SearchServiceTest, BackloggedQueriesMatchSequential) {
  Engine engine(2000, 96, 45);
  ServiceConfig config;
  config.start_paused = true;  // stage a backlog, then run it concurrently
  SearchService service(engine.snapshot(), &engine.pool, config);
  const Dataset queries = Walk(20, 96, 46);

  std::vector<std::future<SearchResponse>> futures;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 10;
    futures.push_back(service.Submit(std::move(request)));
  }
  EXPECT_EQ(service.PendingCount(), queries.size());
  service.Resume();
  const index::QueryEngine sequential(engine.tree());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const SearchResponse response = futures[q].get();
    ASSERT_EQ(response.status, RequestStatus::kOk);
    const auto expected = sequential.Search(queries.row(q), 10);
    EXPECT_TRUE(SameDistances(response.neighbors, expected)) << "query " << q;
  }
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.completed, queries.size());
  EXPECT_EQ(service.PendingCount(), 0u);
}

// Drain() returns only once every admitted query is answered, and
// Shutdown() answers the queue kShutdown but waits for the queries
// already running — no future is left unresolved either way.
TEST(SearchServiceTest, DrainAndShutdownWaitForInFlightQueries) {
  Engine engine(2000, 96, 47);
  const Dataset queries = Walk(24, 96, 48);
  const auto submit_all = [&](SearchService* service) {
    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      SearchRequest request;
      request.query = QueryVector(queries, q);
      request.k = 5;
      futures.push_back(service->Submit(std::move(request)));
    }
    return futures;
  };
  const auto ready = [](const std::future<SearchResponse>& future) {
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };
  ServiceConfig config;
  config.num_threads = 2;
  {
    SearchService service(engine.snapshot(), &engine.pool, config);
    auto futures = submit_all(&service);
    service.Drain();
    for (auto& future : futures) {
      ASSERT_TRUE(ready(future));
      EXPECT_EQ(future.get().status, RequestStatus::kOk);
    }
  }
  SearchService service(engine.snapshot(), &engine.pool, config);
  auto futures = submit_all(&service);
  service.Shutdown();
  std::size_t answered = 0, shut_down = 0;
  for (auto& future : futures) {
    ASSERT_TRUE(ready(future));
    const RequestStatus status = future.get().status;
    answered += status == RequestStatus::kOk ? 1 : 0;
    shut_down += status == RequestStatus::kShutdown ? 1 : 0;
  }
  EXPECT_EQ(answered + shut_down, queries.size());
  EXPECT_EQ(service.Metrics().completed, answered);
}

TEST(SearchServiceTest, EpsilonApproximateWithinBound) {
  Engine engine(2000, 96, 49);
  SearchService service(engine.snapshot(), &engine.pool);
  const Dataset queries = Walk(8, 96, 50);
  const double epsilon = 0.1;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 5;
    request.epsilon = epsilon;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    const auto exact = BruteForceKnn(engine.data, queries.row(q), 5);
    ASSERT_EQ(response.neighbors.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_LE(response.neighbors[i].distance,
                exact[i].distance * (1.0 + epsilon) + 1e-4);
    }
  }
}

// ------------------------------------------- admission control, deadlines

TEST(SearchServiceTest, QueueSaturationRejects) {
  Engine engine(1000, 64, 51, /*threads=*/2);
  ServiceConfig config;
  config.max_pending = 2;
  config.start_paused = true;
  SearchService service(engine.snapshot(), &engine.pool, config);
  const Dataset queries = Noise(3, 64, 52);

  std::vector<std::future<SearchResponse>> futures;
  for (std::size_t q = 0; q < 3; ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    futures.push_back(service.Submit(std::move(request)));
  }
  // Third submit overflowed the bounded queue and was shed immediately.
  const SearchResponse rejected = futures[2].get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_TRUE(rejected.neighbors.empty());

  service.Resume();
  EXPECT_EQ(futures[0].get().status, RequestStatus::kOk);
  EXPECT_EQ(futures[1].get().status, RequestStatus::kOk);
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.rejected, 1u);
}

TEST(SearchServiceTest, ExpiredDeadlineIsDroppedWithoutRunning) {
  Engine engine(1000, 64, 53, /*threads=*/2);
  SearchService service(engine.snapshot(), &engine.pool);
  const Dataset queries = Noise(2, 64, 54);

  SearchRequest expired;
  expired.query = QueryVector(queries, 0);
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(10);
  const SearchResponse dropped = service.Search(std::move(expired));
  EXPECT_EQ(dropped.status, RequestStatus::kDeadlineExpired);
  EXPECT_TRUE(dropped.neighbors.empty());

  SearchRequest fresh;
  fresh.query = QueryVector(queries, 1);
  fresh.SetDeadlineMs(60000.0);
  EXPECT_EQ(service.Search(std::move(fresh)).status, RequestStatus::kOk);
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.expired, 1u);
  EXPECT_EQ(metrics.completed, 1u);
}

TEST(SearchServiceTest, InvalidQueryLengthIsRefused) {
  Engine engine(1000, 64, 55, /*threads=*/2);
  SearchService service(engine.snapshot(), &engine.pool);
  SearchRequest request;
  request.query.assign(32, 0.0f);  // wrong length
  EXPECT_EQ(service.Search(std::move(request)).status,
            RequestStatus::kInvalidArgument);
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.invalid, 1u);
  EXPECT_EQ(metrics.rejected, 0u);  // not an admission-control event
}

TEST(SearchServiceTest, ShutdownFailsQueuedRequests) {
  Engine engine(1000, 64, 56, /*threads=*/2);
  ServiceConfig config;
  config.start_paused = true;
  SearchService service(engine.snapshot(), &engine.pool, config);
  const Dataset queries = Noise(2, 64, 57);
  std::vector<std::future<SearchResponse>> futures;
  for (std::size_t q = 0; q < 2; ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    futures.push_back(service.Submit(std::move(request)));
  }
  service.Shutdown();
  EXPECT_EQ(futures[0].get().status, RequestStatus::kShutdown);
  EXPECT_EQ(futures[1].get().status, RequestStatus::kShutdown);
  // Submitting after shutdown is shed as well.
  SearchRequest late;
  late.query = QueryVector(queries, 0);
  EXPECT_EQ(service.Search(std::move(late)).status, RequestStatus::kShutdown);
}

// ------------------------------------------------------------- hot swap

TEST(SearchServiceTest, HotSwapDuringInFlightTrafficStaysExact) {
  // Two generations over the *same* collection (SFA and SAX summarization):
  // whichever generation answers, the exact k-NN is the same, so a swap
  // mid-traffic must never change any answer.
  Engine sofa_engine(2000, 96, 58);
  Engine sax_engine(2000, 96, 58, /*threads=*/2, /*sax=*/true);  // same rows

  SearchService service(sofa_engine.snapshot(), &sofa_engine.pool);
  const Dataset queries = Walk(30, 96, 59);

  std::atomic<bool> stop_swapping(false);
  std::thread swapper([&] {
    bool use_sax = true;
    std::size_t swaps = 0;
    while (!stop_swapping.load() || swaps < 4) {
      service.Publish(use_sax ? sax_engine.snapshot()
                              : sofa_engine.snapshot());
      use_sax = !use_sax;
      ++swaps;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<std::size_t> failures(0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = c; q < queries.size(); q += 2) {
        SearchRequest request;
        request.query = QueryVector(queries, q);
        request.k = 5;
        const SearchResponse response = service.Search(std::move(request));
        const auto expected =
            BruteForceKnn(sofa_engine.data, queries.row(q), 5);
        if (response.status != RequestStatus::kOk ||
            !SameDistances(response.neighbors, expected)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  stop_swapping.store(true);
  swapper.join();
  EXPECT_EQ(failures.load(), 0u);
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_GE(metrics.swaps, 4u);
  EXPECT_EQ(service.version(), 1 + metrics.swaps);
}

TEST(SearchServiceTest, PublishedGenerationAnswersSubsequentQueries) {
  // Swap to an index over a *different* collection and verify follow-up
  // answers come from the new generation.
  Engine first(1500, 64, 60, /*threads=*/2);
  Engine second(1500, 64, 61, /*threads=*/2);
  SearchService service(first.snapshot(), &first.pool);
  const Dataset queries = Walk(5, 64, 62);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 3;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.index_version, 1u);
    EXPECT_TRUE(SameDistances(response.neighbors,
                              BruteForceKnn(first.data, queries.row(q), 3)));
  }

  const std::uint64_t version = service.Publish(second.snapshot());
  EXPECT_EQ(version, 2u);
  service.Drain();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 3;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.index_version, 2u);
    EXPECT_TRUE(SameDistances(response.neighbors,
                              BruteForceKnn(second.data, queries.row(q), 3)));
  }
}

// -------------------------------------------- serialization → hot swap

TEST(SearchServiceTest, SerializedReloadPublishesBitIdenticalAnswers) {
  Engine engine(2000, 96, 63);
  SearchService service(engine.snapshot(), &engine.pool);
  const Dataset queries = Walk(10, 96, 64);

  // Answers of the original generation.
  std::vector<std::vector<Neighbor>> original;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 8;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    original.push_back(response.neighbors);
  }

  // Save → load → publish the loaded generation into the running service.
  const std::string path = ::testing::TempDir() + "/service_swap.sofa";
  ASSERT_TRUE(shard::SaveShardedIndex(*engine.sharded, path));
  const auto loaded = shard::LoadShardedIndex(
      path, engine.data, engine.sharded->config(), &engine.pool);
  ASSERT_NE(loaded, nullptr);
  service.Publish(WrapShardedIndex(loaded));
  service.Drain();

  // The reloaded index is the same tree over the same data: every answer
  // must be bit-identical (same ids, same float distances).
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 8;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.index_version, 2u);
    ASSERT_EQ(response.neighbors.size(), original[q].size());
    for (std::size_t i = 0; i < original[q].size(); ++i) {
      EXPECT_EQ(response.neighbors[i].id, original[q][i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(response.neighbors[i].distance, original[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

// --------------------------------------------------------------- metrics

TEST(SearchServiceTest, MetricsAccountingAndProfiles) {
  Engine engine(2000, 96, 65);
  SearchService service(engine.snapshot(), &engine.pool);
  const Dataset queries = Walk(10, 96, 66);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 5;
    request.collect_profile = true;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_GT(response.profile.nodes_visited, 0u);
    EXPECT_GT(response.profile.series_ed_computed, 0u);
  }
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.submitted, queries.size());
  EXPECT_EQ(metrics.completed, queries.size());
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.expired, 0u);
  EXPECT_GT(metrics.qps, 0.0);
  EXPECT_GT(metrics.latency_p50_ms, 0.0);
  EXPECT_GE(metrics.latency_p95_ms, metrics.latency_p50_ms);
  EXPECT_GE(metrics.latency_p99_ms, metrics.latency_p95_ms);
  EXPECT_GE(metrics.latency_max_ms, metrics.latency_p99_ms);
  EXPECT_GT(metrics.profile.nodes_visited, 0u);
  EXPECT_GT(metrics.profile.series_lbd_checked, 0u);
}

// The metrics count every query's work, not only that of queries that ask
// for their profile (the TCP load generators never do); the response
// still carries counters only on request.
TEST(SearchServiceTest, MetricsCountUnprofiledQueries) {
  Engine engine(2000, 96, 67);
  SearchService service(engine.snapshot(), &engine.pool);
  const Dataset queries = Walk(10, 96, 68);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchRequest request;
    request.query = QueryVector(queries, q);
    request.k = 5;
    const SearchResponse response = service.Search(std::move(request));
    ASSERT_EQ(response.status, RequestStatus::kOk);
    EXPECT_EQ(response.profile.nodes_visited, 0u);
    EXPECT_EQ(response.profile.series_lbd_checked, 0u);
    EXPECT_EQ(response.profile.series_ed_computed, 0u);
  }
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.completed, queries.size());
  EXPECT_GT(metrics.profile.nodes_visited, 0u);
  EXPECT_GT(metrics.profile.series_lbd_checked, 0u);
  EXPECT_GT(metrics.profile.series_ed_computed, 0u);
}

}  // namespace
}  // namespace service
}  // namespace sofa
