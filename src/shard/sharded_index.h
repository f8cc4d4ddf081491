// Sharding over the exact tree index: one logical collection split
// across N TreeIndex shards, each holding one contiguous range of global
// series ids (the last shard's range is open-ended: every inserted id
// belongs to it). A query searches every shard tree at once through one
// index::QueryEngine — one approximate leaf, one set of leaf queues
// ordered by LBD across all shards, one result set keyed by global id —
// so the shards prune against one bound (the paper's shared
// best-so-far, widened from one tree to a generation) and nothing is
// merged afterwards. Answers are ascending by (distance, global id) and
// bit-identical to the single-index engine over the same collection,
// ties at the k boundary included (lowest global id first).
//
// A ShardedIndex is immutable (it is published behind the same
// shared_ptr snapshot that SearchService hot-swaps); "updating" one
// shard means deriving a new generation that shares the N-1 untouched
// shards and replaces one — WithShardReplaced — and publishing the
// derived index (the ingest path's compaction does exactly that).
//
// A single tree is served as a one-shard generation, so this is the only
// index type the serving layer knows. On disk a generation is one index
// file per shard (ShardPath); LoadShardedIndex reassembles it.

#ifndef SOFA_SHARD_SHARDED_INDEX_H_
#define SOFA_SHARD_SHARDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"
#include "index/query_engine.h"
#include "index/tree_index.h"
#include "quant/summary_scheme.h"
#include "util/thread_pool.h"

namespace sofa {
namespace shard {

/// How global series ids map to shards: contiguous ranges are the only
/// assignment. The enum and Partition()'s parameter of this type remain
/// only because perfbench/src/main.cc calls
/// Partition(…, ShardAssignment::kContiguous).
enum class ShardAssignment {
  kContiguous,  // shard s holds one contiguous global-id range
};

/// Sharded-build parameters. `index` configures every per-shard tree.
struct ShardingConfig {
  std::size_t num_shards = 2;
  index::IndexConfig index;
};

/// One shard: its slice of the collection, the tree over that slice, and
/// the mapping from shard-local row ids back to global collection ids.
/// All handles are shared so a derived generation (one shard replaced)
/// aliases the untouched shards instead of copying them.
struct Shard {
  std::shared_ptr<const Dataset> data;
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::shared_ptr<const index::TreeIndex> tree;
  std::shared_ptr<const std::vector<std::uint32_t>> global_ids;
  std::uint64_t generation = 1;  // bumped by WithShardReplaced
};

/// The row slices and id mappings of one deterministic partition —
/// exposed so index persistence can re-create the identical split when
/// reloading per-shard index files against the full collection.
struct ShardPartition {
  std::vector<std::shared_ptr<const Dataset>> data;
  std::vector<std::shared_ptr<const std::vector<std::uint32_t>>> global_ids;
};

class ShardedIndex {
 public:
  /// Shard of global id `id` in a `num_shards`-way split of `total`
  /// build-time rows (deterministic; the contract Partition() and any
  /// loader must agree on): the first total % num_shards shards hold one
  /// extra row. Ids at or beyond `total` — inserted after the build-time
  /// partition — map to the last shard, which owns the open-ended tail
  /// range.
  static std::size_t AssignShard(std::uint32_t id, std::size_t total,
                                 std::size_t num_shards);

  /// Splits `data` into per-shard datasets + id maps: shard s is one
  /// presized copy of the rows AssignShard gives it. Every shard is
  /// non-empty when num_shards <= data.size(); with more shards than
  /// rows the surplus shards are empty (still valid).
  static ShardPartition Partition(const Dataset& data, std::size_t num_shards,
                                  ShardAssignment assignment);

  /// Partitions `data` and builds one tree per shard, all with the same
  /// summarization scheme (trained once over the full collection) and the
  /// same per-shard index config. `pool` is used for the builds and for
  /// multi-threaded searches; it must outlive the index.
  static std::shared_ptr<const ShardedIndex> Build(
      const Dataset& data, const ShardingConfig& config,
      std::shared_ptr<const quant::SummaryScheme> scheme, ThreadPool* pool);

  /// Assembles an index from already-built shards (the persistence path:
  /// Partition() the collection, LoadIndex each shard file, wrap here).
  /// All shards must share the series length.
  static std::shared_ptr<const ShardedIndex> FromShards(
      std::vector<Shard> shards, const ShardingConfig& config,
      std::size_t length, ThreadPool* pool);

  /// Exact global k-NN over every shard as one search by the caller plus
  /// up to `num_workers` − 1 idle workers (0 = pool size) of `pool` (null
  /// = the pool the index was built with); safe from any thread, a worker
  /// of that pool included. `profile`, if given, receives the work
  /// counters. With epsilon > 0 every answer is within (1+ε) of the exact
  /// distance over the whole collection.
  std::vector<Neighbor> SearchKnn(const float* query, std::size_t k,
                                  double epsilon = 0.0,
                                  index::QueryProfile* profile = nullptr,
                                  std::size_t num_workers = 0,
                                  ThreadPool* pool = nullptr) const;

  /// A new generation with shard `shard_id` replaced wholesale (a
  /// compacted rebuild, or a shard reloaded from disk); the other shards
  /// are shared, not copied, and the replacement's generation counter is
  /// bumped past the current one. Series length must match.
  std::shared_ptr<const ShardedIndex> WithShardReplaced(std::size_t shard_id,
                                                        Shard shard) const;

  std::size_t num_shards() const { return shards_.size(); }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  std::size_t size() const { return total_size_; }    // total series
  std::size_t length() const { return length_; }      // series length
  ThreadPool* pool() const { return pool_; }
  const ShardingConfig& config() const { return config_; }

  /// The shard trees with their id maps, in shard order — what an
  /// index::QueryEngine over this generation searches.
  const std::vector<index::TreePart>& parts() const { return parts_; }

 private:
  ShardedIndex(std::vector<Shard> shards, const ShardingConfig& config,
               std::size_t length, ThreadPool* pool);

  std::vector<Shard> shards_;
  std::vector<index::TreePart> parts_;  // one per shard, aliasing shards_
  ShardingConfig config_;
  std::size_t length_;
  std::size_t total_size_ = 0;
  ThreadPool* pool_;
};

/// Index file of shard `shard` of a `num_shards`-shard generation saved
/// under `index_path`: `index_path` itself for one shard (a plain
/// single-tree file), `index_path.shard<s>` otherwise.
std::string ShardPath(const std::string& index_path, std::size_t shard,
                      std::size_t num_shards);

/// Saves every shard tree of `index` to its ShardPath; false on the first
/// failed write.
bool SaveShardedIndex(const ShardedIndex& index, const std::string& index_path);

/// Reloads a generation SaveShardedIndex wrote over `data`: re-creates the
/// build-time partition under config.num_shards and loads each shard's
/// file against its slice. config.index is not read: the loaded trees keep
/// the configuration saved in their files, and later rebuilds (compaction)
/// use shard 0's. Null when a file is missing or does not match its slice
/// (wrong dataset or shard count).
std::shared_ptr<const ShardedIndex> LoadShardedIndex(
    const std::string& index_path, const Dataset& data,
    const ShardingConfig& config, ThreadPool* pool);

}  // namespace shard
}  // namespace sofa

#endif  // SOFA_SHARD_SHARDED_INDEX_H_
