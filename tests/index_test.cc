// Tests for the tree index: structural build invariants, and above all the
// exactness property — the index answer equals brute force for every
// scheme, dataset profile, thread count and k.

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "index/query_engine.h"
#include "index/tree_index.h"
#include "sax/isax.h"
#include "sax/sax_scheme.h"
#include "sfa/mcb.h"
#include "test_data.h"
#include "util/thread_pool.h"

namespace sofa {
namespace index {
namespace {

using testing_data::BruteForceKnn;
using testing_data::Duplicates;
using testing_data::Noise;
using testing_data::SameDistances;
using testing_data::Walk;

std::unique_ptr<quant::SummaryScheme> MakeSfaScheme(const Dataset& data,
                                                    ThreadPool* pool) {
  sfa::SfaConfig config;
  config.word_length = 16;
  config.alphabet = 256;
  config.sampling_ratio = 0.2;
  return sfa::TrainSfa(data, config, pool);
}

std::unique_ptr<quant::SummaryScheme> MakeSaxScheme(const Dataset& data) {
  return std::make_unique<sax::SaxScheme>(data.length(), 16, 256);
}

// ------------------------------------------------------- build invariants

class BuildInvariantsTest : public ::testing::Test {
 protected:
  void CheckInvariants(const TreeIndex& index) {
    const Dataset& data = index.data();
    const auto& scheme = index.scheme();
    const std::size_t l = scheme.word_length();
    const std::uint32_t bits = scheme.bits();

    // Every series in exactly one leaf; leaf words match node prefixes.
    std::set<std::uint32_t> seen;
    std::size_t total = 0;
    std::vector<const Node*> stack;
    for (const auto& [key, node] : index.subtrees()) {
      stack.push_back(node);
    }
    while (!stack.empty()) {
      const Node* node = stack.back();
      stack.pop_back();
      if (!node->is_leaf()) {
        ASSERT_NE(node->left, nullptr);
        ASSERT_NE(node->right, nullptr);
        ASSERT_LT(node->split_dim, l);
        // Children extend the parent prefix on the split dimension.
        const std::size_t d = node->split_dim;
        ASSERT_EQ(node->left->cards[d], node->cards[d] + 1);
        ASSERT_EQ(node->right->cards[d], node->cards[d] + 1);
        ASSERT_EQ(node->left->prefixes[d] >> 1, node->prefixes[d]);
        ASSERT_EQ(node->right->prefixes[d] >> 1, node->prefixes[d]);
        ASSERT_EQ(node->left->prefixes[d] & 1, 0);
        ASSERT_EQ(node->right->prefixes[d] & 1, 1);
        stack.push_back(node->left.get());
        stack.push_back(node->right.get());
        continue;
      }
      ASSERT_GT(node->leaf_size(), 0u) << "empty leaf";
      total += node->leaf_size();
      for (std::size_t i = 0; i < node->leaf_size(); ++i) {
        const std::uint32_t id = node->series_ids[i];
        ASSERT_TRUE(seen.insert(id).second) << "series " << id << " twice";
        // Stored word matches the dataset series.
        std::vector<std::uint8_t> expected(l);
        scheme.Symbolize(data.row(id), expected.data());
        for (std::size_t dim = 0; dim < l; ++dim) {
          ASSERT_EQ(node->words[i * l + dim], expected[dim]);
        }
        // And falls under the node's variable-cardinality summary.
        ASSERT_TRUE(sax::WordMatchesPrefix(node->words.data() + i * l,
                                           node->prefixes.data(),
                                           node->cards.data(), l, bits));
      }
    }
    ASSERT_EQ(total, data.size());
    ASSERT_EQ(seen.size(), data.size());
  }
};

TEST_F(BuildInvariantsTest, SfaIndexOnNoise) {
  ThreadPool pool(4);
  const Dataset data = Noise(3000, 128, 1);
  const auto scheme = MakeSfaScheme(data, &pool);
  IndexConfig config;
  config.leaf_capacity = 100;
  TreeIndex index(&data, scheme.get(), config, &pool);
  CheckInvariants(index);
}

TEST_F(BuildInvariantsTest, SaxIndexOnWalk) {
  ThreadPool pool(4);
  const Dataset data = Walk(3000, 128, 2);
  const auto scheme = MakeSaxScheme(data);
  IndexConfig config;
  config.leaf_capacity = 100;
  TreeIndex index(&data, scheme.get(), config, &pool);
  CheckInvariants(index);
}

TEST_F(BuildInvariantsTest, RoundRobinPolicy) {
  ThreadPool pool(2);
  const Dataset data = Noise(2000, 96, 3);
  const auto scheme = MakeSfaScheme(data, &pool);
  IndexConfig config;
  config.leaf_capacity = 64;
  config.split_policy = SplitPolicy::kRoundRobin;
  TreeIndex index(&data, scheme.get(), config, &pool);
  CheckInvariants(index);
}

TEST_F(BuildInvariantsTest, LeafCapacityRespectedWhenSplittable) {
  ThreadPool pool(4);
  const Dataset data = Noise(5000, 128, 4);
  const auto scheme = MakeSfaScheme(data, &pool);
  IndexConfig config;
  config.leaf_capacity = 200;
  TreeIndex index(&data, scheme.get(), config, &pool);
  std::vector<const Node*> stack;
  for (const auto& [key, node] : index.subtrees()) {
    stack.push_back(node);
  }
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      // Distinct noise words are splittable down to capacity.
      EXPECT_LE(node->leaf_size(), config.leaf_capacity);
    } else {
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
}

TEST_F(BuildInvariantsTest, DuplicateHeavyDataBuildsOversizedLeaves) {
  ThreadPool pool(2);
  // 2000 copies drawn from only 5 distinct series: unsplittable beyond 5
  // groups, leaves must legally exceed capacity.
  const Dataset data = Duplicates(2000, 64, 5, 5);
  const auto scheme = MakeSaxScheme(data);
  IndexConfig config;
  config.leaf_capacity = 10;
  TreeIndex index(&data, scheme.get(), config, &pool);
  CheckInvariants(index);
  // Search still exact.
  const auto expected = BruteForceKnn(data, data.row(0), 3);
  const auto actual = index.SearchKnn(data.row(0), 3);
  EXPECT_TRUE(SameDistances(actual, expected));
}

TEST_F(BuildInvariantsTest, StatsAreConsistent) {
  ThreadPool pool(4);
  const Dataset data = Noise(4000, 128, 6);
  const auto scheme = MakeSfaScheme(data, &pool);
  IndexConfig config;
  config.leaf_capacity = 128;
  TreeIndex index(&data, scheme.get(), config, &pool);
  const TreeStats stats = index.ComputeStats();
  EXPECT_EQ(stats.total_series, data.size());
  EXPECT_EQ(stats.num_subtrees, index.subtrees().size());
  EXPECT_GT(stats.num_leaves, 0u);
  EXPECT_GE(stats.avg_leaf_size, 1.0);
  EXPECT_LE(stats.avg_depth, static_cast<double>(stats.max_depth));
  // Binary tree: inner = leaves - subtrees (every subtree is a binary tree).
  EXPECT_EQ(stats.num_inner + stats.num_subtrees, stats.num_leaves);
  const BuildStats& bs = index.build_stats();
  EXPECT_GE(bs.symbolize_seconds, 0.0);
  EXPECT_GE(bs.partition_seconds, 0.0);
  EXPECT_GE(bs.tree_seconds, 0.0);
  EXPECT_GE(bs.total_seconds, 0.0);
}

TEST_F(BuildInvariantsTest, EmptyDatasetBuildsAndAnswersEmpty) {
  ThreadPool pool(2);
  Dataset data(128);
  sax::SaxScheme scheme(128, 16, 256);
  TreeIndex index(&data, &scheme, IndexConfig{}, &pool);
  EXPECT_TRUE(index.subtrees().empty());
  std::vector<float> query(128, 0.0f);
  EXPECT_TRUE(index.SearchKnn(query.data(), 5).empty());
}

// Regression: root_child(key) used to index the dense fan-out array with
// no bounds check — an out-of-range key (externally derived, e.g. from a
// stale word length) was undefined behavior. It must answer "no child".
TEST_F(BuildInvariantsTest, RootChildOutOfRangeKeyIsNull) {
  ThreadPool pool(2);
  const Dataset data = Noise(500, 64, 21);
  sax::SaxScheme scheme(64, 16, 256);
  TreeIndex index(&data, &scheme, IndexConfig{}, &pool);
  const std::size_t fan_out = std::size_t{1} << index.root_bits();
  // Every in-range key answers (possibly null for empty children)...
  std::size_t non_null = 0;
  for (std::size_t key = 0; key < fan_out; ++key) {
    non_null +=
        index.root_child(static_cast<std::uint32_t>(key)) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(non_null, index.subtrees().size());
  // ...and out-of-range keys answer null instead of reading out of bounds.
  EXPECT_EQ(index.root_child(static_cast<std::uint32_t>(fan_out)), nullptr);
  EXPECT_EQ(index.root_child(0xffffffffu), nullptr);
}

// ------------------------------------------------------------- exactness

enum class SchemeKind { kSfaEwVar, kSfaEd, kSax };
enum class DataKind { kNoise, kWalk };

struct ExactnessCase {
  SchemeKind scheme;
  DataKind data;
  std::size_t threads;
  std::size_t leaf_capacity;
};

class ExactnessTest : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(ExactnessTest, IndexMatchesBruteForce) {
  const ExactnessCase c = GetParam();
  ThreadPool pool(c.threads);
  const std::size_t n = 128;
  const Dataset data = c.data == DataKind::kNoise ? Noise(4000, n, 7)
                                                  : Walk(4000, n, 8);
  std::unique_ptr<quant::SummaryScheme> scheme;
  switch (c.scheme) {
    case SchemeKind::kSfaEwVar:
      scheme = MakeSfaScheme(data, &pool);
      break;
    case SchemeKind::kSfaEd: {
      sfa::SfaConfig config;
      config.word_length = 16;
      config.alphabet = 256;
      config.binning = quant::BinningMethod::kEquiDepth;
      config.sampling_ratio = 0.2;
      scheme = sfa::TrainSfa(data, config, &pool);
      break;
    }
    case SchemeKind::kSax:
      scheme = MakeSaxScheme(data);
      break;
  }
  IndexConfig config;
  config.leaf_capacity = c.leaf_capacity;
  config.num_threads = c.threads;
  TreeIndex index(&data, scheme.get(), config, &pool);

  const Dataset queries = c.data == DataKind::kNoise ? Noise(20, n, 9)
                                                     : Walk(20, n, 10);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected1 = BruteForceKnn(data, queries.row(q), 1);
    const Neighbor actual1 = index.Search1Nn(queries.row(q));
    ASSERT_TRUE(SameDistances({actual1}, expected1)) << "query " << q;

    const auto expected10 = BruteForceKnn(data, queries.row(q), 10);
    const auto actual10 = index.SearchKnn(queries.row(q), 10);
    ASSERT_TRUE(SameDistances(actual10, expected10)) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactnessTest,
    ::testing::Values(
        ExactnessCase{SchemeKind::kSfaEwVar, DataKind::kNoise, 4, 200},
        ExactnessCase{SchemeKind::kSfaEwVar, DataKind::kWalk, 4, 200},
        ExactnessCase{SchemeKind::kSfaEwVar, DataKind::kNoise, 1, 200},
        ExactnessCase{SchemeKind::kSfaEwVar, DataKind::kNoise, 4, 50},
        ExactnessCase{SchemeKind::kSfaEd, DataKind::kNoise, 4, 200},
        ExactnessCase{SchemeKind::kSfaEd, DataKind::kWalk, 2, 100},
        ExactnessCase{SchemeKind::kSax, DataKind::kNoise, 4, 200},
        ExactnessCase{SchemeKind::kSax, DataKind::kWalk, 4, 200},
        ExactnessCase{SchemeKind::kSax, DataKind::kWalk, 1, 50}));

TEST(IndexSearchTest, MemberQueryFindsItself) {
  ThreadPool pool(4);
  const Dataset data = Noise(2000, 96, 11);
  const auto scheme = MakeSfaScheme(data, &pool);
  IndexConfig config;
  config.leaf_capacity = 100;
  TreeIndex index(&data, scheme.get(), config, &pool);
  for (const std::size_t id : {0u, 500u, 1999u}) {
    const Neighbor nn = index.Search1Nn(data.row(id));
    EXPECT_NEAR(nn.distance, 0.0f, 1e-3f);
  }
}

TEST(IndexSearchTest, KnnIsSortedAscending) {
  ThreadPool pool(4);
  const Dataset data = Noise(3000, 128, 12);
  const auto scheme = MakeSfaScheme(data, &pool);
  TreeIndex index(&data, scheme.get(), IndexConfig{}, &pool);
  const Dataset queries = Noise(5, 128, 13);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto result = index.SearchKnn(queries.row(q), 25);
    ASSERT_EQ(result.size(), 25u);
    for (std::size_t i = 1; i < result.size(); ++i) {
      ASSERT_GE(result[i].distance, result[i - 1].distance);
    }
    // No duplicate ids.
    std::set<std::uint32_t> ids;
    for (const Neighbor& nb : result) {
      ASSERT_TRUE(ids.insert(nb.id).second) << "duplicate id " << nb.id;
    }
  }
}

TEST(IndexSearchTest, KLargerThanCollectionClamps) {
  ThreadPool pool(2);
  const Dataset data = Noise(50, 64, 14);
  const auto scheme = MakeSaxScheme(data);
  TreeIndex index(&data, scheme.get(), IndexConfig{}, &pool);
  const auto result = index.SearchKnn(data.row(0), 500);
  EXPECT_EQ(result.size(), 50u);
  const auto expected = BruteForceKnn(data, data.row(0), 50);
  EXPECT_TRUE(SameDistances(result, expected));
}

TEST(IndexSearchTest, RepeatedQueriesAreDeterministic) {
  ThreadPool pool(4);
  const Dataset data = Noise(3000, 128, 15);
  const auto scheme = MakeSfaScheme(data, &pool);
  TreeIndex index(&data, scheme.get(), IndexConfig{}, &pool);
  const Dataset queries = Noise(3, 128, 16);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto first = index.SearchKnn(queries.row(q), 10);
    const auto second = index.SearchKnn(queries.row(q), 10);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(first[i].distance, second[i].distance);
    }
  }
}

TEST(IndexSearchTest, ThreadCountsAgree) {
  // The answer must be identical (in distances) regardless of parallelism.
  const Dataset data = Noise(4000, 128, 17);
  const Dataset queries = Noise(10, 128, 18);
  std::vector<std::vector<float>> distances_by_threads;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const auto scheme = MakeSfaScheme(data, &pool);
    IndexConfig config;
    config.num_threads = threads;
    TreeIndex index(&data, scheme.get(), config, &pool);
    std::vector<float> distances;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const Neighbor& nb : index.SearchKnn(queries.row(q), 5)) {
        distances.push_back(nb.distance);
      }
    }
    distances_by_threads.push_back(std::move(distances));
  }
  for (std::size_t v = 1; v < distances_by_threads.size(); ++v) {
    ASSERT_EQ(distances_by_threads[v].size(), distances_by_threads[0].size());
    for (std::size_t i = 0; i < distances_by_threads[v].size(); ++i) {
      ASSERT_NEAR(distances_by_threads[v][i], distances_by_threads[0][i],
                  2e-3f);
    }
  }
}

// Walks two trees side by side and expects the same shape and the same
// rows, in the same order, in every leaf.
void ExpectSameTree(const Node& a, const Node& b) {
  ASSERT_EQ(a.is_leaf(), b.is_leaf());
  if (a.is_leaf()) {
    ASSERT_EQ(a.leaf_size(), b.leaf_size());
    for (std::size_t i = 0; i < a.leaf_size(); ++i) {
      ASSERT_EQ(a.series_ids[i], b.series_ids[i]) << "row " << i;
    }
    return;
  }
  ASSERT_EQ(a.split_dim, b.split_dim);
  ExpectSameTree(*a.left, *b.left);
  ExpectSameTree(*a.right, *b.right);
}

// Every work counter of two searches' profiles is equal.
void ExpectSameCounters(const QueryProfile& a, const QueryProfile& b,
                        std::size_t q) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << "query " << q;
  EXPECT_EQ(a.nodes_pruned, b.nodes_pruned) << "query " << q;
  EXPECT_EQ(a.leaves_collected, b.leaves_collected) << "query " << q;
  EXPECT_EQ(a.leaves_abandoned, b.leaves_abandoned) << "query " << q;
  EXPECT_EQ(a.series_lbd_checked, b.series_lbd_checked) << "query " << q;
  EXPECT_EQ(a.series_lbd_pruned, b.series_lbd_pruned) << "query " << q;
  EXPECT_EQ(a.series_ed_computed, b.series_ed_computed) << "query " << q;
}

// The root scatter keeps rows in id order inside every root child at any
// worker count, so a tree built on four workers equals the one-worker
// tree down to the row order inside each leaf, and one-thread searches
// over the two pop the same leaves in the same order: identical answers
// and identical work counters.
TEST(IndexSearchTest, BuildDoesNotDependOnWorkerCount) {
  ThreadPool one_worker(1);
  ThreadPool four_workers(4);
  const Dataset data = Walk(6000, 96, 19);
  const auto scheme = MakeSfaScheme(data, &one_worker);
  IndexConfig config;
  config.leaf_capacity = 100;
  const TreeIndex serial(&data, scheme.get(), config, &one_worker);
  const TreeIndex parallel(&data, scheme.get(), config, &four_workers);
  ASSERT_EQ(serial.subtrees().size(), parallel.subtrees().size());
  for (std::size_t s = 0; s < serial.subtrees().size(); ++s) {
    ASSERT_EQ(serial.subtrees()[s].first, parallel.subtrees()[s].first);
    ExpectSameTree(*serial.subtrees()[s].second,
                   *parallel.subtrees()[s].second);
  }
  const Dataset queries = Walk(50, 96, 20);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryProfile a, b;
    const auto answer_a =
        QueryEngine(&serial).Search(queries.row(q), 10, 0.0, &a, 1);
    const auto answer_b =
        QueryEngine(&parallel).Search(queries.row(q), 10, 0.0, &b, 1);
    ASSERT_EQ(answer_a.size(), answer_b.size());
    for (std::size_t i = 0; i < answer_a.size(); ++i) {
      EXPECT_EQ(answer_a[i].id, answer_b[i].id);
      EXPECT_EQ(answer_a[i].distance, answer_b[i].distance);
    }
    ExpectSameCounters(a, b, q);
  }
}

// A multi-threaded search run as a task on a one-worker pool: the worker
// owns the search and no helper can join, so it must drain the queue
// alone and return the one-thread answer bit for bit, never wait for
// helpers that cannot start. On timeout the pool and everything the stuck
// task references are leaked, so the test fails instead of hanging.
TEST(IndexSearchTest, MultiThreadedSearchFromAPoolWorkerCompletes) {
  struct State {
    ThreadPool pool{1};
    Dataset data = Walk(3000, 96, 23);
    std::unique_ptr<quant::SummaryScheme> scheme;
    std::unique_ptr<TreeIndex> index;
    Dataset queries = Walk(8, 96, 24);
  };
  auto state = std::make_unique<State>();
  state->scheme = MakeSfaScheme(state->data, &state->pool);
  IndexConfig config;
  config.leaf_capacity = 100;
  state->index = std::make_unique<TreeIndex>(&state->data,
                                             state->scheme.get(), config,
                                             &state->pool);
  using Answers = std::vector<std::vector<Neighbor>>;
  Answers expected;
  for (std::size_t q = 0; q < state->queries.size(); ++q) {
    expected.push_back(QueryEngine(state->index.get())
                           .Search(state->queries.row(q), 10, 0.0, nullptr,
                                   1));
  }
  const auto done = std::make_shared<std::promise<Answers>>();
  std::future<Answers> answers = done->get_future();
  State* shared = state.get();
  state->pool.Submit([shared, done] {
    Answers result;
    for (std::size_t q = 0; q < shared->queries.size(); ++q) {
      result.push_back(QueryEngine(shared->index.get())
                           .Search(shared->queries.row(q), 10, 0.0, nullptr,
                                   4));
    }
    done->set_value(std::move(result));
  });
  if (answers.wait_for(std::chrono::seconds(20)) !=
      std::future_status::ready) {
    (void)state.release();  // the only worker is stuck inside the search
    FAIL() << "a search with num_threads = 4 on a pool worker never returned";
  }
  const Answers got = answers.get();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].size(), expected[q].size());
    for (std::size_t i = 0; i < got[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, expected[q][i].id) << "query " << q;
      EXPECT_EQ(got[q][i].distance, expected[q][i].distance) << "query " << q;
    }
  }
}

// The engine's solo work budget (query_engine.cc): the owner of a search
// offers its leaf queue to idle workers only after this much phase-3 work,
// counting a series-LBD check as 1 and an exact distance as 24.
constexpr std::uint64_t kSoloWorkBudget = 200000;

std::uint64_t WorkUnits(const QueryProfile& profile) {
  return profile.series_lbd_checked + 24 * profile.series_ed_computed;
}

// A query whose whole work fits in the solo budget never offers its queue,
// so a four-worker search over idle workers pops the same leaves in the
// same order as a one-thread search and reports its counters exactly.
TEST(IndexSearchTest, SearchUnderTheSoloBudgetRepeatsOneThreadCounters) {
  ThreadPool pool(4);
  const Dataset data = Walk(3000, 96, 25);
  const auto scheme = MakeSfaScheme(data, &pool);
  IndexConfig config;
  config.leaf_capacity = 100;
  config.num_threads = 4;
  const TreeIndex index(&data, scheme.get(), config, &pool);
  const QueryEngine engine(&index);
  const Dataset queries = Walk(20, 96, 26);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryProfile one, four;
    const auto expected = engine.Search(queries.row(q), 10, 0.0, &one, 1);
    const auto got = engine.Search(queries.row(q), 10, 0.0, &four, 4);
    ASSERT_LT(WorkUnits(one), kSoloWorkBudget) << "query " << q;
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "query " << q;
      EXPECT_EQ(got[i].distance, expected[i].distance) << "query " << q;
    }
    ExpectSameCounters(one, four, q);
  }
}

// White noise defeats the summary bounds, so each query LBD-checks and
// measures nearly every row: far past the solo budget, and the rest of
// its queue goes to idle workers (the concurrency sweeps run this under
// TSan). The answers stay bit-identical to the one-thread search and to
// brute force.
TEST(IndexSearchTest, SearchPastTheSoloBudgetSplitsAndStaysExact) {
  ThreadPool pool(4);
  const Dataset data = Noise(12000, 64, 27);
  const auto scheme = MakeSfaScheme(data, &pool);
  IndexConfig config;
  config.leaf_capacity = 200;
  config.num_threads = 4;
  const TreeIndex index(&data, scheme.get(), config, &pool);
  const QueryEngine engine(&index);
  const Dataset queries = Noise(6, 64, 28);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryProfile one, four;
    const auto expected = engine.Search(queries.row(q), 10, 0.0, &one, 1);
    const auto got = engine.Search(queries.row(q), 10, 0.0, &four, 4);
    ASSERT_GT(WorkUnits(one), kSoloWorkBudget + 20000) << "query " << q;
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "query " << q;
      EXPECT_EQ(got[i].distance, expected[i].distance) << "query " << q;
    }
    EXPECT_TRUE(SameDistances(got, BruteForceKnn(data, queries.row(q), 10)))
        << "query " << q;
  }
}

TEST(IndexSearchTest, SingleSeriesCollection) {
  ThreadPool pool(2);
  const Dataset data = Noise(1, 64, 19);
  const auto scheme = MakeSaxScheme(data);
  TreeIndex index(&data, scheme.get(), IndexConfig{}, &pool);
  const Dataset queries = Noise(1, 64, 20);
  const Neighbor nn = index.Search1Nn(queries.row(0));
  EXPECT_EQ(nn.id, 0u);
  const auto expected = BruteForceKnn(data, queries.row(0), 1);
  EXPECT_NEAR(nn.distance, expected[0].distance, 1e-4f);
}

TEST(IndexSearchTest, NonPowerOfTwoSeriesLength) {
  ThreadPool pool(4);
  const Dataset data = Noise(2000, 100, 21);
  sfa::SfaConfig config;
  config.word_length = 16;
  config.alphabet = 256;
  config.sampling_ratio = 0.5;
  const auto scheme = sfa::TrainSfa(data, config, &pool);
  TreeIndex index(&data, scheme.get(), IndexConfig{}, &pool);
  const Dataset queries = Noise(10, 100, 22);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = BruteForceKnn(data, queries.row(q), 5);
    const auto actual = index.SearchKnn(queries.row(q), 5);
    ASSERT_TRUE(SameDistances(actual, expected)) << "query " << q;
  }
}

TEST(IndexSearchTest, RootBitsClampToWordLength) {
  ThreadPool pool(2);
  const Dataset data = Noise(1000, 64, 23);
  sax::SaxScheme scheme(64, 8, 256);  // 8 dims -> at most 256 root children
  IndexConfig config;
  config.root_bits = 16;  // requested above the word length
  TreeIndex index(&data, &scheme, config, &pool);
  EXPECT_EQ(index.root_bits(), 8u);
  const auto expected = BruteForceKnn(data, data.row(7), 3);
  const auto actual = index.SearchKnn(data.row(7), 3);
  EXPECT_TRUE(SameDistances(actual, expected));
}

TEST(IndexSearchTest, AutoRootBitsAdaptToCollectionSize) {
  ThreadPool pool(2);
  const Dataset small = Noise(100, 64, 24);
  sax::SaxScheme scheme(64, 16, 256);
  IndexConfig config;
  config.leaf_capacity = 100;
  TreeIndex small_index(&small, &scheme, config, &pool);
  EXPECT_EQ(small_index.root_bits(), 1u);
  const Dataset larger = Noise(4000, 64, 25);
  TreeIndex larger_index(&larger, &scheme, config, &pool);
  // 2^bits * 100 >= 4000 -> bits >= 6.
  EXPECT_GE(larger_index.root_bits(), 6u);
  // Both remain exact.
  const auto expected = BruteForceKnn(larger, larger.row(3), 5);
  EXPECT_TRUE(SameDistances(larger_index.SearchKnn(larger.row(3), 5),
                            expected));
}

}  // namespace
}  // namespace index
}  // namespace sofa
