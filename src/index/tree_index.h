// The tree index of SOFA/MESSI (paper Section IV).
//
// A TreeIndex is the MESSI tree structure made generic over the
// summarization: constructed with an SfaScheme it is the SOFA index, with a
// SaxScheme it is the MESSI baseline. Construction bulk-builds in parallel
// (symbolize → root partition → per-subtree splits); querying answers exact
// 1-NN/k-NN under Euclidean distance via the GEMINI protocol (approximate
// search for an initial best-so-far, then a pruned traversal of one leaf
// queue ordered by lower bound that idle workers join, with SIMD lower
// bounds and early-abandoning real distances).

#ifndef SOFA_INDEX_TREE_INDEX_H_
#define SOFA_INDEX_TREE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "index/node.h"
#include "quant/summary_scheme.h"
#include "util/thread_pool.h"

namespace sofa {
namespace index {

/// How a full leaf chooses the dimension whose cardinality to increase.
enum class SplitPolicy {
  kBestBalance,  // dimension whose next bit splits the leaf most evenly
                 // (iSAX2.0-style balanced splitting; the default)
  kRoundRobin,   // cycle through dimensions
};

/// Index construction/query parameters; defaults follow the paper scaled to
/// test-sized datasets (the paper uses leaf_capacity 20000 at 10⁸ series).
struct IndexConfig {
  std::size_t leaf_capacity = 2000;
  std::size_t num_threads = 0;  // a search's participant cap by default
                                // (the caller + idle workers); 0 = pool size
  SplitPolicy split_policy = SplitPolicy::kBestBalance;

  /// Root fan-out bits. MESSI fixes this to the word length (2^16 children
  /// at word length 16), which suits 10⁸-series collections; 0 (default)
  /// adapts to the collection size — ceil(log2(size / leaf_capacity)),
  /// clamped to [1, min(word_length, 16)] — so small collections keep
  /// usefully filled subtrees.
  std::size_t root_bits = 0;
};

/// Wall-clock breakdown of index construction (Fig. 7 phases).
struct BuildStats {
  double symbolize_seconds = 0.0;  // summarization of all series
  double partition_seconds = 0.0;  // root-key histogram + scatter
  double tree_seconds = 0.0;       // per-subtree splitting
  double total_seconds = 0.0;
};

/// Work counters of one query — the observable behind the paper's
/// pruning-power discussion (Section V-E).
struct QueryProfile {
  std::uint64_t nodes_visited = 0;      // node LBD evaluations
  std::uint64_t nodes_pruned = 0;       // subtrees cut at node level
  std::uint64_t leaves_collected = 0;   // queued for processing
  std::uint64_t leaves_abandoned = 0;   // dropped via queue abandonment
  std::uint64_t series_lbd_checked = 0; // per-series LBD evaluations
  std::uint64_t series_lbd_pruned = 0;  // series cut without touching data
  std::uint64_t series_ed_computed = 0; // real-distance evaluations
  std::uint64_t candidates_filtered = 0; // tombstoned rows masked inside
                                         // the scans (deleted rows still
                                         // present in a tree or buffer; a
                                         // tree row counts once it passes
                                         // the series LBD)
  // Always 0. They counted a deleted compressed pruning tier; they stay
  // because protocol v2 still carries two slots for them and
  // perfbench/src/layers.cc reads them.
  std::uint64_t rowq_checked = 0;
  std::uint64_t rowq_pruned = 0;

  /// Fraction of LBD-checked series pruned before any raw-data access.
  double SeriesPruningRatio() const {
    return series_lbd_checked == 0
               ? 0.0
               : static_cast<double>(series_lbd_pruned) /
                     static_cast<double>(series_lbd_checked);
  }

  /// Merges counters of another (per-worker) profile.
  void Merge(const QueryProfile& other);
};

/// The index. Immutable and thread-safe after construction; the dataset and
/// scheme must outlive it. Any number of threads may search at once; each
/// search is joined by the pool's idle workers (index::QueryEngine).
class TreeIndex {
 public:
  /// Builds the index over z-normalized `data` with `scheme` on `pool`
  /// (called from a thread that is not one of its workers); searches
  /// offer their leaf queue to the same pool's idle workers.
  TreeIndex(const Dataset* data, const quant::SummaryScheme* scheme,
            const IndexConfig& config, ThreadPool* pool);

  ~TreeIndex();
  TreeIndex(const TreeIndex&) = delete;
  TreeIndex& operator=(const TreeIndex&) = delete;

  /// Exact nearest neighbor of `query` (length() floats, z-normalized).
  Neighbor Search1Nn(const float* query) const;

  /// Exact k nearest neighbors, ascending by distance. k is clamped to the
  /// collection size. `profile`, if given, receives the work counters.
  std::vector<Neighbor> SearchKnn(const float* query, std::size_t k,
                                  QueryProfile* profile = nullptr) const;

  /// ε-approximate k-NN: every reported neighbor is within (1+epsilon) of
  /// the corresponding exact distance (GEMINI pruning with the lower bound
  /// inflated by (1+epsilon) — the paper's future-work direction).
  /// epsilon = 0 is the exact search.
  std::vector<Neighbor> SearchKnnApproximate(
      const float* query, std::size_t k, double epsilon,
      QueryProfile* profile = nullptr) const;

  /// The paper's "Approximate Search" phase alone: descend to the query's
  /// own leaf and return its best candidates — no guarantee, but typically
  /// close, and the seed of every exact search.
  std::vector<Neighbor> SearchKnnLeafOnly(const float* query,
                                          std::size_t k) const;

  /// Structural statistics (Fig. 8).
  TreeStats ComputeStats() const;

  /// Construction timing breakdown (Fig. 7).
  const BuildStats& build_stats() const { return build_stats_; }

  const Dataset& data() const { return *data_; }
  const quant::SummaryScheme& scheme() const { return *scheme_; }
  const IndexConfig& config() const { return config_; }
  ThreadPool* pool() const { return pool_; }

  /// Number of bits of the root fan-out (min(word_length, 16)).
  std::size_t root_bits() const { return root_bits_; }

  /// Non-empty root children, as (root key, subtree) pairs.
  const std::vector<std::pair<std::uint32_t, Node*>>& subtrees() const {
    return subtrees_;
  }

  /// Root child for a key, or nullptr — also for keys outside the root
  /// fan-out [0, 2^root_bits): an out-of-range key has no child, it is
  /// not undefined behavior (callers feed externally derived keys here).
  const Node* root_child(std::uint32_t key) const {
    return key < root_children_.size() ? root_children_[key].get() : nullptr;
  }

  /// Reassembles an index from deserialized parts (LoadIndex's back door);
  /// `data` must be the collection the index was originally built over and
  /// `root_children` must be sized 2^root_bits.
  static std::unique_ptr<TreeIndex> FromParts(
      const Dataset* data, const quant::SummaryScheme* scheme,
      const IndexConfig& config, ThreadPool* pool,
      std::vector<std::unique_ptr<Node>> root_children,
      std::size_t root_bits);

 private:
  struct FromPartsTag {};
  TreeIndex(FromPartsTag, const Dataset* data,
            const quant::SummaryScheme* scheme, const IndexConfig& config,
            ThreadPool* pool,
            std::vector<std::unique_ptr<Node>> root_children,
            std::size_t root_bits);

  friend class QueryEngine;

  const Dataset* data_;
  const quant::SummaryScheme* scheme_;
  IndexConfig config_;
  ThreadPool* pool_;
  std::size_t root_bits_;
  BuildStats build_stats_;

  // Dense root fan-out (size 2^root_bits_) plus the compact non-empty list.
  std::vector<std::unique_ptr<Node>> root_children_;
  std::vector<std::pair<std::uint32_t, Node*>> subtrees_;
};

}  // namespace index
}  // namespace sofa

#endif  // SOFA_INDEX_TREE_INDEX_H_
