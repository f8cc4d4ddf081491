// Exact GEMINI query answering over a TreeIndex (paper Section IV-C) —
// or over every tree of a sharded generation at once.
//
// Per query, once per scheme object its trees hold: project the query,
// quantize its word, and build its LBD lookup table (weight·mindist² of
// every symbol of every dimension, quant::LbdTable). Then:
//   1. Approximate search: descend one tree along the query's own word to
//      one leaf and scan it like any other leaf (below) — the initial
//      best-so-far (BSF). With several trees, the first tree that has such
//      a leaf seeds; the other trees' own leaves are pruned like any other
//      leaf.
//   2. Collect: the calling thread alone walks all subtrees of all trees,
//      prunes nodes whose summary LBD exceeds the BSF, and queues the
//      surviving leaves in one queue ordered by leaf LBD.
//   3. Process: the caller repeatedly pops the minimum-LBD leaf. If its
//      LBD exceeds the BSF the whole queue is abandoned (everything behind
//      it is farther). Otherwise the leaf is scanned: the series LBDs are
//      looked up in the table a block of words at a time, each is tested
//      against the BSF live at its turn, and a series still promising gets
//      the early-abandoning real distance; improvements update the shared
//      result set. The caller drains alone until it has spent a solo work
//      budget (200 000 series-LBD checks, an exact distance counting 24).
//      Only a query past it offers the rest of its queue to the pool
//      (ThreadPool::Offer): idle workers join the drain and leave it
//      between two leaves as soon as a task is queued, so a long query
//      spreads over cores only while they would otherwise sit idle, and a
//      short one leaves them to the requests behind it. The caller never
//      waits for a helper that has not started, so a search is safe from
//      a pool worker.
//
// One ResultSet keyed by global id serves all trees and any flat scans
// offered alongside (the insert buffer of an ingesting generation), so
// a sharded query prunes against one bound and nothing is merged
// afterwards. Deleted ids are masked inside the scans.

#ifndef SOFA_INDEX_QUERY_ENGINE_H_
#define SOFA_INDEX_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "index/result_set.h"
#include "index/tree_index.h"
#include "util/thread_pool.h"

namespace sofa {
namespace index {

/// One tree of a generation: its local row i answers as global id
/// (*global_ids)[i]; null global_ids = identity (an unsharded tree).
struct TreePart {
  const TreeIndex* tree = nullptr;
  const std::vector<std::uint32_t>* global_ids = nullptr;
};

/// A scan that offers rows (under global ids) to a search's result set
/// besides the trees, counting its work into `profile` — e.g. the flat
/// scan of an ingesting generation's insert buffer.
using FlatScan = std::function<void(ResultSet* results, QueryProfile* profile)>;

/// Stateless facade; one Search call = one exact (or ε-approximate) query,
/// run by the caller and joined by idle workers of the pool.
class QueryEngine {
 public:
  explicit QueryEngine(const TreeIndex* index)
      : single_{index, nullptr}, pool_(index->pool()) {}

  /// Searches every tree of `parts` as one collection. `parts` (non-empty,
  /// trees of one series length) must outlive the engine; idle workers of
  /// `pool` join searches (null = the first tree's pool).
  explicit QueryEngine(const std::vector<TreePart>* parts,
                       ThreadPool* pool = nullptr);

  /// k-NN ascending by (distance, id) (Euclidean, not squared). With
  /// epsilon > 0 every answer is within (1+epsilon) of the exact distance;
  /// 0 = exact. `profile` (optional) receives merged work counters.
  /// `num_threads` caps the participants: the caller plus up to
  /// `num_threads` − 1 idle pool workers (0 = the index configuration's
  /// num_threads, itself 0 = the pool size). Answers are bit-identical at
  /// any count. Helpers join only a search past the solo work budget, and
  /// its phase-3 work counters then depend on how many joined; a search
  /// under the budget, or with num_threads = 1, repeats its counters
  /// exactly.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               double epsilon = 0.0,
                               QueryProfile* profile = nullptr,
                               std::size_t num_threads = 0) const;

  /// Search with the ingest path's extras: ids in `exclude` (may be null)
  /// are masked inside every scan and counted in
  /// profile->candidates_filtered; `flat_scan` (may be empty) runs once,
  /// right after the approximate phase, against the same result set.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               double epsilon, QueryProfile* profile,
                               std::size_t num_threads,
                               const std::unordered_set<std::uint32_t>* exclude,
                               const FlatScan& flat_scan) const;

  /// Phase-1-only approximate answer (the query's own leaf of the first
  /// tree).
  std::vector<Neighbor> SearchLeafOnly(const float* query,
                                       std::size_t k) const;

 private:
  const TreePart* parts() const { return parts_ != nullptr ? parts_ : &single_; }

  TreePart single_;
  const TreePart* parts_ = nullptr;  // null = the one tree in single_
  std::size_t num_parts_ = 1;
  ThreadPool* pool_;
};

}  // namespace index
}  // namespace sofa

#endif  // SOFA_INDEX_QUERY_ENGINE_H_
