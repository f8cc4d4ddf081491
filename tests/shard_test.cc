// Tests for the sharding layer: the partition covers the collection
// exactly once, sharded answers are bit-identical to the single-index
// engine (ids and float distances) — standalone, under concurrent service
// traffic, for a staged backlog, and across a mid-traffic single-shard
// hot-swap — a one-shard generation served through the service does
// exactly the one-tree engine's work, one search over all shards does
// less work than per-shard searches and repeats its counters exactly at
// one thread, saved generations reload through LoadShardedIndex and
// compact with the tree config they were built with, and the per-shard
// republish shares untouched shards instead of copying them.

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/query_engine.h"
#include "index/serialization.h"
#include "index/tree_index.h"
#include "ingest/compactor.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "sfa/mcb.h"
#include "shard/sharded_index.h"
#include "test_data.h"
#include "util/thread_pool.h"

namespace sofa {
namespace shard {
namespace {

using testing_data::BruteForceKnn;
using testing_data::Walk;

// One collection, its single-index engine, and the shared scheme sharded
// builds reuse (trained once over the full collection, as Build expects).
struct Fixture {
  ThreadPool pool;
  Dataset data;
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::unique_ptr<index::TreeIndex> single;

  explicit Fixture(std::size_t count = 2000, std::size_t length = 96,
                   std::uint64_t seed = 71, std::size_t threads = 4)
      : pool(threads), data(Walk(count, length, seed)) {
    sfa::SfaConfig config;
    config.word_length = 16;
    config.alphabet = 256;
    config.sampling_ratio = 0.2;
    scheme = sfa::TrainSfa(data, config, &pool);
    index::IndexConfig index_config;
    index_config.leaf_capacity = 100;
    single = std::make_unique<index::TreeIndex>(&data, scheme.get(),
                                                index_config, &pool);
  }

  std::shared_ptr<const ShardedIndex> MakeSharded(std::size_t num_shards) {
    ShardingConfig config;
    config.num_shards = num_shards;
    config.index.leaf_capacity = 100;
    return ShardedIndex::Build(data, config, scheme, &pool);
  }
};

// Shard `s` of `sharded` with a fresh tree over its own slice (same
// scheme and tree config) — a deterministic rebuild, so a generation
// that swaps it in through WithShardReplaced answers bit-identically.
Shard RebuiltShard(const ShardedIndex& sharded, std::size_t s) {
  Shard rebuilt = sharded.shard(s);
  rebuilt.tree = std::make_shared<index::TreeIndex>(
      rebuilt.data.get(), rebuilt.scheme.get(), sharded.config().index,
      sharded.pool());
  return rebuilt;
}

// Bit-exact comparison: same ids AND same float distances at every rank.
::testing::AssertionResult BitIdentical(const std::vector<Neighbor>& actual,
                                        const std::vector<Neighbor>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << actual.size() << " vs " << expected.size();
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].id != expected[i].id ||
        actual[i].distance != expected[i].distance) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": " << actual[i].id << "(" << actual[i].distance
             << ") vs expected " << expected[i].id << "("
             << expected[i].distance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------------ partition

TEST(ShardPartitionTest, CoversEveryIdExactlyOnce) {
  const Dataset data = Walk(533, 32, 11);
  for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
    const ShardPartition partition =
        ShardedIndex::Partition(data, shards, ShardAssignment::kContiguous);
    ASSERT_EQ(partition.data.size(), shards);
    ASSERT_EQ(partition.global_ids.size(), shards);
    std::vector<int> seen(data.size(), 0);
    for (std::size_t s = 0; s < shards; ++s) {
      ASSERT_EQ(partition.data[s]->size(), partition.global_ids[s]->size());
      for (std::size_t r = 0; r < partition.global_ids[s]->size(); ++r) {
        const std::uint32_t id = (*partition.global_ids[s])[r];
        ASSERT_LT(id, data.size());
        ++seen[id];
        // The shard row is a verbatim copy of the global row.
        for (std::size_t d = 0; d < data.length(); ++d) {
          ASSERT_EQ(partition.data[s]->row(r)[d], data.row(id)[d]);
        }
      }
    }
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "id " << i;
    }
  }
}

TEST(ShardPartitionTest, AssignShardClampsIdsBeyondBuildTimeTotal) {
  // Regression: contiguous assignment of an id at or beyond the
  // build-time total used to compute a shard index >= num_shards (the
  // ingest path routes freshly inserted ids through this). The tail range
  // belongs to the last shard.
  for (const std::size_t total : {0u, 1u, 7u, 100u, 101u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
      for (const std::uint32_t id :
           {static_cast<std::uint32_t>(total),
            static_cast<std::uint32_t>(total + 1),
            static_cast<std::uint32_t>(total + 1000), 0xffffffffu}) {
        EXPECT_EQ(ShardedIndex::AssignShard(id, total, shards), shards - 1)
            << "total=" << total << " shards=" << shards << " id=" << id;
      }
      // In-range ids are untouched: the partition still covers exactly.
      for (std::uint32_t id = 0; id < total; ++id) {
        EXPECT_LT(ShardedIndex::AssignShard(id, total, shards), shards);
      }
    }
  }
}

TEST(ShardPartitionTest, ContiguousSplitIsBalanced) {
  const Dataset data = Walk(100, 32, 12);
  const ShardPartition partition =
      ShardedIndex::Partition(data, 3, ShardAssignment::kContiguous);
  std::size_t min_size = data.size(), max_size = 0;
  for (const auto& slice : partition.data) {
    min_size = std::min(min_size, slice->size());
    max_size = std::max(max_size, slice->size());
  }
  EXPECT_LE(max_size - min_size, 1u);
  // Contiguous: global ids of shard s all precede those of shard s+1.
  EXPECT_LT(partition.global_ids[0]->back(), partition.global_ids[1]->front());
  EXPECT_LT(partition.global_ids[1]->back(), partition.global_ids[2]->front());
}

// ------------------------------------------------ sharded exactness

TEST(ShardedIndexTest, MatchesSingleIndexBitExact) {
  Fixture fx;
  const Dataset queries = Walk(15, 96, 72);
  for (const std::size_t shards : {1u, 2u, 3u, 5u}) {
    const auto sharded = fx.MakeSharded(shards);
    EXPECT_EQ(sharded->size(), fx.data.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto expected = fx.single->SearchKnn(queries.row(q), 10);
      const auto actual = sharded->SearchKnn(queries.row(q), 10);
      EXPECT_TRUE(BitIdentical(actual, expected))
          << "shards=" << shards << " query " << q;
    }
  }
}

TEST(ShardedIndexTest, KLargerThanAnyShardStaysExact) {
  Fixture fx(600, 64, 73);
  const auto sharded = fx.MakeSharded(4);
  const Dataset queries = Walk(5, 64, 74);
  // k = 200 exceeds every ~150-series shard; the search must still produce
  // the global top-k, and clamp at the collection size for k > N.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(BitIdentical(sharded->SearchKnn(queries.row(q), 200),
                             fx.single->SearchKnn(queries.row(q), 200)));
    EXPECT_EQ(sharded->SearchKnn(queries.row(q), 10000).size(), fx.data.size());
  }
}

TEST(ShardedIndexTest, EmptyShardsAreHarmless) {
  // More shards than series: the surplus shards are empty and contribute
  // nothing to the search.
  Fixture fx(40, 64, 75, /*threads=*/2);
  const auto sharded = fx.MakeSharded(48);
  const Dataset queries = Walk(4, 64, 76);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(BitIdentical(sharded->SearchKnn(queries.row(q), 5),
                             fx.single->SearchKnn(queries.row(q), 5)));
  }
}

// One search over all shards shares one pruning bound: at one thread it
// repeats its work counters exactly, and it computes fewer exact
// distances than independent per-shard searches summed (each of which
// prunes only against its own shard's best-so-far).
TEST(ShardedIndexTest, OneSearchAcrossShardsRepeatsAndSavesWork) {
  Fixture fx;
  const auto sharded = fx.MakeSharded(4);
  const Dataset queries = Walk(10, 96, 77);
  std::uint64_t shared_ed = 0, summed_ed = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    index::QueryProfile first, second;
    const auto answer =
        sharded->SearchKnn(queries.row(q), 5, 0.0, &first, /*num_workers=*/1);
    EXPECT_TRUE(BitIdentical(
        sharded->SearchKnn(queries.row(q), 5, 0.0, &second, 1), answer));
    EXPECT_TRUE(BitIdentical(answer, fx.single->SearchKnn(queries.row(q), 5)));
    EXPECT_EQ(first.nodes_visited, second.nodes_visited);
    EXPECT_EQ(first.nodes_pruned, second.nodes_pruned);
    EXPECT_EQ(first.leaves_collected, second.leaves_collected);
    EXPECT_EQ(first.leaves_abandoned, second.leaves_abandoned);
    EXPECT_EQ(first.series_lbd_checked, second.series_lbd_checked);
    EXPECT_EQ(first.series_lbd_pruned, second.series_lbd_pruned);
    EXPECT_EQ(first.series_ed_computed, second.series_ed_computed);
    EXPECT_GT(first.series_ed_computed, 0u);
    index::QueryProfile summed;
    for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
      const index::QueryEngine engine(sharded->shard(s).tree.get());
      (void)engine.Search(queries.row(q), 5, 0.0, &summed, /*num_threads=*/1);
    }
    shared_ed += first.series_ed_computed;
    summed_ed += summed.series_ed_computed;
  }
  EXPECT_LT(shared_ed, summed_ed);
}

TEST(ShardedIndexTest, EpsilonApproximateWithinBound) {
  Fixture fx;
  const auto sharded = fx.MakeSharded(3);
  const Dataset queries = Walk(6, 96, 78);
  const double epsilon = 0.1;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto exact = BruteForceKnn(fx.data, queries.row(q), 5);
    const auto approx = sharded->SearchKnn(queries.row(q), 5, epsilon);
    ASSERT_EQ(approx.size(), exact.size());
    // One result set over all shards: the single-tree (1+ε) guarantee
    // covers the whole collection.
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_LE(approx[i].distance, exact[i].distance * (1.0 + epsilon) + 1e-4);
    }
  }
}

// ----------------------------------------------- persistence round trip

// More shards than rows leaves the surplus shards empty.
// SaveShardedIndex → LoadShardedIndex (the `sofa_cli build/serve
// --shards` path) must round-trip cleanly — empty shards build, save as
// loadable files, reload, and contribute nothing to the search.
TEST(ShardPersistenceTest, TinyCollectionRoundTripsThroughEmptyShards) {
  ThreadPool pool(2);
  const Dataset data = Walk(5, 64, 86);
  sfa::SfaConfig sfa_config;
  sfa_config.word_length = 16;
  sfa_config.alphabet = 256;
  sfa_config.sampling_ratio = 1.0;
  const std::shared_ptr<const quant::SummaryScheme> scheme =
      sfa::TrainSfa(data, sfa_config, &pool);
  ShardingConfig config;
  config.num_shards = 8;  // 5 series in 8 shards: 3 empty
  config.index.leaf_capacity = 100;
  const auto built = ShardedIndex::Build(data, config, scheme, &pool);
  std::size_t empty_shards = 0;
  for (std::size_t s = 0; s < built->num_shards(); ++s) {
    empty_shards += built->shard(s).data->empty() ? 1 : 0;
  }
  ASSERT_GE(empty_shards, 3u);

  // Save every shard — including the empty ones — and reload against the
  // deterministic re-partition, exactly as the CLI does.
  const std::string path = ::testing::TempDir() + "/tiny_sharded";
  ASSERT_TRUE(SaveShardedIndex(*built, path));
  const auto round_tripped = LoadShardedIndex(path, data, config, &pool);
  ASSERT_NE(round_tripped, nullptr);
  ASSERT_EQ(round_tripped->size(), data.size());

  // Answers bit-identical to the single-index engine over the same rows.
  index::IndexConfig single_config;
  single_config.leaf_capacity = 100;
  const index::TreeIndex single(&data, scheme.get(), single_config, &pool);
  const Dataset queries = Walk(4, 64, 87);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(BitIdentical(round_tripped->SearchKnn(queries.row(q), 3),
                             single.SearchKnn(queries.row(q), 3)))
        << "query " << q;
    EXPECT_EQ(round_tripped->SearchKnn(queries.row(q), 100).size(),
              data.size());
  }
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    std::remove(ShardPath(path, s, config.num_shards).c_str());
  }
}

// A generation reloaded from build files rebuilds with the build's tree
// config, not the loader's: the saved shards are at leaf capacity 100,
// the caller's ShardingConfig sets only the shard count, and the last
// shard compacted by the ingest path must come back at leaf capacity 100
// (not IndexConfig's default).
TEST(ShardPersistenceTest, ReloadedShardsCompactWithTheirBuildConfig) {
  Fixture fx(600, 64, 89, /*threads=*/2);
  const auto built = fx.MakeSharded(2);
  const std::string path = ::testing::TempDir() + "/leaf100_sharded";
  ASSERT_TRUE(SaveShardedIndex(*built, path));
  ShardingConfig config;
  config.num_shards = 2;
  const auto loaded = LoadShardedIndex(path, fx.data, config, &fx.pool);
  ASSERT_NE(loaded, nullptr);

  service::SearchService svc(service::WrapShardedIndex(loaded), &fx.pool);
  ingest::IngestConfig ingest_config;
  ingest_config.compact_threshold = 50;
  ingest::Compactor compactor(&svc, loaded, ingest_config);
  const Dataset rows = Walk(ingest_config.compact_threshold, 64, 90);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(compactor.Insert(rows.row(i), rows.length()), StatusCode::kOk);
  }
  compactor.Flush();
  const auto compacted = compactor.current();
  ASSERT_GE(compacted->shard(1).generation, 2u);  // the rebuilt last shard
  EXPECT_EQ(compacted->shard(1).tree->config().leaf_capacity, 100u);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    std::remove(ShardPath(path, s, config.num_shards).c_str());
  }
}

// Every shard file of a build carries the build's scheme, so the loader
// hands all shards shard 0's object (a query then projects once for the
// generation); a file whose scheme differs keeps its own.
TEST(ShardPersistenceTest, ReloadedShardsShareOneScheme) {
  Fixture fx(800, 64, 91, /*threads=*/2);
  const auto built = fx.MakeSharded(4);
  const std::string path = ::testing::TempDir() + "/one_scheme_sharded";
  ASSERT_TRUE(SaveShardedIndex(*built, path));
  ShardingConfig config;
  config.num_shards = 4;
  const auto loaded = LoadShardedIndex(path, fx.data, config, &fx.pool);
  ASSERT_NE(loaded, nullptr);
  for (std::size_t s = 1; s < config.num_shards; ++s) {
    EXPECT_EQ(&loaded->shard(s).tree->scheme(),
              &loaded->shard(0).tree->scheme())
        << "shard " << s;
    EXPECT_EQ(loaded->shard(s).scheme, loaded->shard(0).scheme);
  }
  const Dataset queries = Walk(4, 64, 92);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(BitIdentical(loaded->SearchKnn(queries.row(q), 5),
                             built->SearchKnn(queries.row(q), 5)))
        << "query " << q;
  }

  for (std::size_t s = 0; s < config.num_shards; ++s) {
    std::remove(ShardPath(path, s, config.num_shards).c_str());
  }

  // LoadIndex reuses only an equal scheme.
  const std::string single_path = ::testing::TempDir() + "/one_scheme_single";
  ASSERT_TRUE(index::SaveIndex(*fx.single, single_path));
  const auto same =
      index::LoadIndex(single_path, &fx.data, &fx.pool, fx.scheme);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->scheme, fx.scheme);
  sfa::SfaConfig other_config;
  other_config.word_length = 8;
  const std::shared_ptr<const quant::SummaryScheme> other =
      sfa::TrainSfa(fx.data, other_config, &fx.pool);
  const auto own = index::LoadIndex(single_path, &fx.data, &fx.pool, other);
  ASSERT_TRUE(own.has_value());
  EXPECT_NE(own->scheme, other);
  EXPECT_EQ(&own->tree->scheme(), own->scheme.get());
  EXPECT_EQ(own->scheme->word_length(), 16u);
  std::remove(single_path.c_str());
}

// ------------------------------------------------- per-shard republish

TEST(ShardedIndexTest, RebuiltShardSharesUntouchedShards) {
  Fixture fx;
  const auto original = fx.MakeSharded(3);
  const auto rebuilt =
      original->WithShardReplaced(1, RebuiltShard(*original, 1));
  EXPECT_EQ(rebuilt->num_shards(), 3u);
  EXPECT_EQ(rebuilt->size(), original->size());
  // Untouched shards alias the originals; shard 1 is a new generation.
  EXPECT_EQ(rebuilt->shard(0).tree.get(), original->shard(0).tree.get());
  EXPECT_EQ(rebuilt->shard(2).tree.get(), original->shard(2).tree.get());
  EXPECT_NE(rebuilt->shard(1).tree.get(), original->shard(1).tree.get());
  EXPECT_EQ(rebuilt->shard(1).data.get(), original->shard(1).data.get());
  EXPECT_EQ(rebuilt->shard(0).generation, 1u);
  EXPECT_EQ(rebuilt->shard(1).generation, 2u);
  // The deterministic rebuild answers bit-identically.
  const Dataset queries = Walk(8, 96, 79);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(BitIdentical(rebuilt->SearchKnn(queries.row(q), 7),
                             original->SearchKnn(queries.row(q), 7)));
  }
}

// -------------------------------------------------- service integration

TEST(ShardedServiceTest, ServiceBitExact) {
  Fixture fx;
  const auto sharded = fx.MakeSharded(3);
  service::SearchService svc(service::WrapShardedIndex(sharded), &fx.pool);
  const Dataset queries = Walk(10, 96, 80);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    service::SearchRequest request;
    request.query.assign(queries.row(q), queries.row(q) + 96);
    request.k = 10;
    request.collect_profile = true;
    const service::SearchResponse response = svc.Search(std::move(request));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(
        BitIdentical(response.neighbors, fx.single->SearchKnn(queries.row(q), 10)));
    EXPECT_GT(response.profile.series_ed_computed, 0u);
  }
  const service::MetricsSnapshot metrics = svc.Metrics();
  EXPECT_EQ(metrics.completed, queries.size());
  EXPECT_GT(metrics.profile.series_ed_computed, 0u);
}

// A single index is served as a one-shard generation: through the
// service its answers are bit-identical to the paper's engine over one
// tree at one thread, and so is every work counter — the shard wrapper
// adds no work and changes no pruning decision. One pool worker: a
// multi-worker build scatters rows into subtrees in schedule order, which
// moves the work counters (never the answers) between two builds of the
// same rows.
TEST(ShardedServiceTest, OneShardGenerationMatchesOneTreeEngine) {
  Fixture fx(2000, 96, 71, /*threads=*/1);
  const auto sharded = fx.MakeSharded(1);
  service::SearchService svc(service::WrapShardedIndex(sharded), &fx.pool);
  const index::QueryEngine engine(fx.single.get());
  const Dataset queries = Walk(50, 96, 88);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    service::SearchRequest request;
    request.query.assign(queries.row(q), queries.row(q) + 96);
    request.k = 10;
    request.collect_profile = true;
    const service::SearchResponse response = svc.Search(std::move(request));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    index::QueryProfile expected;
    EXPECT_TRUE(BitIdentical(
        response.neighbors,
        engine.Search(queries.row(q), 10, 0.0, &expected, /*num_threads=*/1)))
        << "query " << q;
    const index::QueryProfile& actual = response.profile;
    EXPECT_EQ(actual.nodes_visited, expected.nodes_visited) << "query " << q;
    EXPECT_EQ(actual.nodes_pruned, expected.nodes_pruned) << "query " << q;
    EXPECT_EQ(actual.leaves_collected, expected.leaves_collected);
    EXPECT_EQ(actual.leaves_abandoned, expected.leaves_abandoned);
    EXPECT_EQ(actual.series_lbd_checked, expected.series_lbd_checked);
    EXPECT_EQ(actual.series_lbd_pruned, expected.series_lbd_pruned);
    EXPECT_EQ(actual.series_ed_computed, expected.series_ed_computed);
    EXPECT_EQ(actual.candidates_filtered, expected.candidates_filtered);
    EXPECT_EQ(actual.rowq_checked, expected.rowq_checked);
    EXPECT_EQ(actual.rowq_pruned, expected.rowq_pruned);
  }
}

TEST(ShardedServiceTest, BackloggedServiceBitExact) {
  Fixture fx;
  const auto sharded = fx.MakeSharded(4);
  service::ServiceConfig config;
  config.start_paused = true;  // stage a backlog, then run it concurrently
  service::SearchService svc(service::WrapShardedIndex(sharded), &fx.pool,
                             config);
  const Dataset queries = Walk(20, 96, 81);
  std::vector<std::future<service::SearchResponse>> futures;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    service::SearchRequest request;
    request.query.assign(queries.row(q), queries.row(q) + 96);
    request.k = 10;
    futures.push_back(svc.Submit(std::move(request)));
  }
  svc.Resume();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response = futures[q].get();
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             fx.single->SearchKnn(queries.row(q), 10)))
        << "query " << q;
  }
  EXPECT_EQ(svc.Metrics().completed, queries.size());
}

TEST(ShardedServiceTest, ConcurrentClientsStayBitExact) {
  Fixture fx;
  const auto sharded = fx.MakeSharded(3);
  service::SearchService svc(service::WrapShardedIndex(sharded), &fx.pool);
  const Dataset queries = Walk(24, 96, 82);
  // Precompute expected answers so client threads only compare.
  std::vector<std::vector<Neighbor>> expected;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(fx.single->SearchKnn(queries.row(q), 5));
  }
  constexpr std::size_t kClients = 3;
  std::atomic<std::size_t> failures(0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = c; q < queries.size(); q += kClients) {
        service::SearchRequest request;
        request.query.assign(queries.row(q), queries.row(q) + 96);
        request.k = 5;
        const service::SearchResponse response = svc.Search(std::move(request));
        if (response.status != service::RequestStatus::kOk ||
            !BitIdentical(response.neighbors, expected[q])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(svc.Metrics().completed, queries.size());
}

TEST(ShardedServiceTest, SingleShardHotSwapMidTrafficStaysBitExact) {
  Fixture fx;
  auto sharded = fx.MakeSharded(3);
  service::SearchService svc(service::WrapShardedIndex(sharded), &fx.pool);
  const Dataset queries = Walk(30, 96, 83);
  std::vector<std::vector<Neighbor>> expected;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(fx.single->SearchKnn(queries.row(q), 5));
  }

  // Republish one rebuilt shard at a time (round-robin) under live
  // traffic: every published generation shares two shards with its
  // predecessor and answers identically, so no client may ever observe a
  // different result.
  std::atomic<bool> stop_swapping(false);
  std::thread swapper([&] {
    std::size_t swaps = 0;
    while (!stop_swapping.load() || swaps < 6) {
      const std::size_t s = swaps % sharded->num_shards();
      sharded = sharded->WithShardReplaced(s, RebuiltShard(*sharded, s));
      svc.Publish(service::WrapShardedIndex(sharded));
      ++swaps;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<std::size_t> failures(0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = c; q < queries.size(); q += 2) {
        service::SearchRequest request;
        request.query.assign(queries.row(q), queries.row(q) + 96);
        request.k = 5;
        const service::SearchResponse response = svc.Search(std::move(request));
        if (response.status != service::RequestStatus::kOk ||
            !BitIdentical(response.neighbors, expected[q])) {
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
  const service::MetricsSnapshot metrics = svc.Metrics();
  EXPECT_GE(metrics.swaps, 6u);
  // The last published generation carries per-shard generation counters.
  std::uint64_t max_generation = 0;
  for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
    max_generation = std::max(max_generation, sharded->shard(s).generation);
  }
  EXPECT_GE(max_generation, 2u);
}

TEST(ShardedServiceTest, DeadlinePressureDropsExpiredOnly) {
  Fixture fx(1000, 64, 84, /*threads=*/2);
  const auto sharded = fx.MakeSharded(2);
  service::SearchService svc(service::WrapShardedIndex(sharded), &fx.pool);
  const Dataset queries = Walk(2, 64, 85);

  service::SearchRequest expired;
  expired.query.assign(queries.row(0), queries.row(0) + 64);
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(10);
  const service::SearchResponse dropped = svc.Search(std::move(expired));
  EXPECT_EQ(dropped.status, service::RequestStatus::kDeadlineExpired);
  EXPECT_TRUE(dropped.neighbors.empty());

  service::SearchRequest fresh;
  fresh.query.assign(queries.row(1), queries.row(1) + 64);
  fresh.SetDeadlineMs(60000.0);
  fresh.k = 5;
  const service::SearchResponse answered = svc.Search(std::move(fresh));
  ASSERT_EQ(answered.status, service::RequestStatus::kOk);
  EXPECT_TRUE(
      BitIdentical(answered.neighbors, fx.single->SearchKnn(queries.row(1), 5)));
  const service::MetricsSnapshot metrics = svc.Metrics();
  EXPECT_EQ(metrics.expired, 1u);
  EXPECT_EQ(metrics.completed, 1u);

  // Wrong-length queries are refused by the sharded generation too.
  service::SearchRequest invalid;
  invalid.query.assign(32, 0.0f);
  EXPECT_EQ(svc.Search(std::move(invalid)).status,
            service::RequestStatus::kInvalidArgument);
}

}  // namespace
}  // namespace shard
}  // namespace sofa
