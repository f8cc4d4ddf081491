// Shared exactness harness — the brute-force oracle and bit-identity
// assertions previously duplicated across ingest_test, persist_test and
// net_test. Every end-to-end suite proves the same invariant (engine
// answers == from-scratch oracle, bit for bit), so the oracle lives in
// one place: a fix to the comparison or to the oracle's tie-breaking
// applies to every suite at once.

#ifndef SOFA_TESTS_HARNESS_ORACLE_H_
#define SOFA_TESTS_HARNESS_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "index/tree_index.h"
#include "quant/summary_scheme.h"
#include "service/request.h"
#include "shard/sharded_index.h"

namespace sofa {

class ThreadPool;

namespace testing_harness {

/// Bit-exact comparison: same ids AND same float distances at every
/// rank. This is the exactness yardstick of the whole engine — ties must
/// resolve to the lowest global id, and no tier (LBD, sharding, the
/// wire) may perturb a single bit of the answer.
::testing::AssertionResult BitIdentical(const std::vector<Neighbor>& actual,
                                        const std::vector<Neighbor>& expected);

/// The standard test summary scheme every end-to-end suite builds on:
/// SFA, word length 16, alphabet 256, 20% sampling.
std::shared_ptr<const quant::SummaryScheme> TrainTestScheme(
    const Dataset& data, ThreadPool* pool);

/// A sharded generation over `data` with the standard test tree config
/// (leaf capacity 100).
std::shared_ptr<const shard::ShardedIndex> BuildTestSharded(
    const Dataset& data, std::size_t num_shards,
    const std::shared_ptr<const quant::SummaryScheme>& scheme,
    ThreadPool* pool);

/// From-scratch single-tree oracle over `combined` minus the `deleted`
/// global ids, with answers remapped back to the original global ids —
/// what any serving configuration must match bit for bit.
class ExactOracle {
 public:
  ExactOracle(const Dataset& combined,
              const std::vector<std::uint32_t>& deleted,
              const std::shared_ptr<const quant::SummaryScheme>& scheme,
              ThreadPool* pool, std::size_t leaf_capacity = 100);

  std::vector<Neighbor> SearchKnn(const float* query, std::size_t k) const;

 private:
  Dataset data_;
  std::vector<std::uint32_t> kept_;
  std::shared_ptr<const quant::SummaryScheme> scheme_;
  std::unique_ptr<index::TreeIndex> tree_;
};

/// One search request over queries.row(q).
service::SearchRequest MakeSearchRequest(const Dataset& queries,
                                         std::size_t q, std::size_t k,
                                         bool profile = false);

}  // namespace testing_harness
}  // namespace sofa

#endif  // SOFA_TESTS_HARNESS_ORACLE_H_
