#include "shard/sharded_index.h"

#include <utility>

#include "index/query_engine.h"
#include "index/serialization.h"
#include "util/check.h"

namespace sofa {
namespace shard {
namespace {

// splitmix64 finalizer: a full-avalanche mix so consecutive ids spread
// uniformly (plain `id % N` would stripe, defeating the point of a hash
// assignment under sequential inserts).
std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::size_t ShardedIndex::AssignShard(ShardAssignment assignment,
                                      std::uint32_t id, std::size_t total,
                                      std::size_t num_shards) {
  SOFA_DCHECK(num_shards > 0);
  if (assignment == ShardAssignment::kHash) {
    return static_cast<std::size_t>(Mix64(id) % num_shards);
  }
  // Contiguous: the first (total % num_shards) shards hold one extra row,
  // so shard sizes differ by at most one. Ids beyond the build-time total
  // (the ingest path's inserts) extend the last shard's range — without
  // this the arithmetic below would yield a shard index >= num_shards.
  if (id >= total) {
    return num_shards - 1;
  }
  const std::size_t base = total / num_shards;
  const std::size_t extra = total % num_shards;
  const std::size_t boundary = extra * (base + 1);
  if (id < boundary) {
    return id / (base + 1);
  }
  return base == 0 ? num_shards - 1 : extra + (id - boundary) / base;
}

ShardPartition ShardedIndex::Partition(const Dataset& data,
                                       std::size_t num_shards,
                                       ShardAssignment assignment) {
  SOFA_CHECK(num_shards > 0);
  std::vector<std::shared_ptr<Dataset>> slices;
  std::vector<std::shared_ptr<std::vector<std::uint32_t>>> ids;
  slices.reserve(num_shards);
  ids.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    slices.push_back(std::make_shared<Dataset>(data.length()));
    ids.push_back(std::make_shared<std::vector<std::uint32_t>>());
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(i);
    const std::size_t s = AssignShard(assignment, id, data.size(), num_shards);
    slices[s]->Append(data.row(i));
    ids[s]->push_back(id);
  }
  ShardPartition partition;
  partition.data.assign(slices.begin(), slices.end());
  partition.global_ids.assign(ids.begin(), ids.end());
  return partition;
}

ShardedIndex::ShardedIndex(std::vector<Shard> shards,
                           const ShardingConfig& config, std::size_t length,
                           ThreadPool* pool)
    : shards_(std::move(shards)), config_(config), length_(length),
      pool_(pool) {
  SOFA_CHECK(pool_ != nullptr);
  SOFA_CHECK(!shards_.empty());
  for (const Shard& shard : shards_) {
    SOFA_CHECK(shard.data != nullptr && shard.tree != nullptr &&
               shard.global_ids != nullptr);
    SOFA_CHECK(shard.data->length() == length_);
    SOFA_CHECK(shard.global_ids->size() == shard.data->size());
    total_size_ += shard.data->size();
    parts_.push_back(index::TreePart{shard.tree.get(), shard.global_ids.get()});
  }
}

std::shared_ptr<const ShardedIndex> ShardedIndex::Build(
    const Dataset& data, const ShardingConfig& config,
    std::shared_ptr<const quant::SummaryScheme> scheme, ThreadPool* pool) {
  SOFA_CHECK(scheme != nullptr);
  ShardPartition partition =
      Partition(data, config.num_shards, config.assignment);
  std::vector<Shard> shards(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    shards[s].data = partition.data[s];
    shards[s].scheme = scheme;
    shards[s].global_ids = partition.global_ids[s];
    auto tree = std::make_shared<index::TreeIndex>(
        shards[s].data.get(), scheme.get(), config.index, pool);
    if (config.enable_rowq) {
      tree->AttachRowQuant(quant::RowQuant::Build(*shards[s].data));
    }
    shards[s].tree = std::move(tree);
  }
  return std::shared_ptr<const ShardedIndex>(
      new ShardedIndex(std::move(shards), config, data.length(), pool));
}

std::shared_ptr<const ShardedIndex> ShardedIndex::FromShards(
    std::vector<Shard> shards, const ShardingConfig& config,
    std::size_t length, ThreadPool* pool) {
  return std::shared_ptr<const ShardedIndex>(
      new ShardedIndex(std::move(shards), config, length, pool));
}

std::shared_ptr<const ShardedIndex> ShardedIndex::WithShardRebuilt(
    std::size_t shard_id) const {
  SOFA_CHECK(shard_id < shards_.size());
  Shard rebuilt = shards_[shard_id];
  auto tree = std::make_shared<index::TreeIndex>(
      rebuilt.data.get(), rebuilt.scheme.get(), config_.index, pool_);
  if (config_.enable_rowq) {
    tree->AttachRowQuant(quant::RowQuant::Build(*rebuilt.data));
  }
  rebuilt.tree = std::move(tree);
  return WithShardReplaced(shard_id, std::move(rebuilt));
}

std::shared_ptr<const ShardedIndex> ShardedIndex::WithShardReplaced(
    std::size_t shard_id, Shard shard) const {
  SOFA_CHECK(shard_id < shards_.size());
  SOFA_CHECK(shard.data != nullptr && shard.data->length() == length_);
  shard.generation = shards_[shard_id].generation + 1;
  std::vector<Shard> shards = shards_;  // aliases: every handle is shared
  shards[shard_id] = std::move(shard);
  return std::shared_ptr<const ShardedIndex>(
      new ShardedIndex(std::move(shards), config_, length_, pool_));
}

std::vector<Neighbor> ShardedIndex::SearchKnn(const float* query,
                                              std::size_t k, double epsilon,
                                              index::QueryProfile* profile,
                                              std::size_t num_workers,
                                              ThreadPool* pool) const {
  if (pool == nullptr) {
    pool = pool_;
  }
  const index::QueryEngine engine(&parts_, pool);
  return engine.Search(query, k, epsilon, profile,
                       num_workers == 0 ? pool->size() : num_workers);
}

std::string ShardPath(const std::string& index_path, std::size_t shard,
                      std::size_t num_shards) {
  return num_shards == 1 ? index_path
                         : index_path + ".shard" + std::to_string(shard);
}

bool SaveShardedIndex(const ShardedIndex& index,
                      const std::string& index_path) {
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    if (!index::SaveIndex(*index.shard(s).tree,
                          ShardPath(index_path, s, index.num_shards()))) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const ShardedIndex> LoadShardedIndex(
    const std::string& index_path, const Dataset& data,
    const ShardingConfig& config, ThreadPool* pool) {
  const ShardPartition partition =
      ShardedIndex::Partition(data, config.num_shards, config.assignment);
  std::vector<Shard> shards(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    auto loaded =
        index::LoadIndex(ShardPath(index_path, s, config.num_shards),
                         partition.data[s].get(), pool);
    if (!loaded.has_value()) {
      return nullptr;
    }
    if (config.enable_rowq) {
      loaded->tree->AttachRowQuant(quant::RowQuant::Build(*partition.data[s]));
    }
    shards[s].data = partition.data[s];
    shards[s].scheme = std::move(loaded->scheme);
    shards[s].tree = std::move(loaded->tree);
    shards[s].global_ids = partition.global_ids[s];
  }
  return ShardedIndex::FromShards(std::move(shards), config, data.length(),
                                  pool);
}

}  // namespace shard
}  // namespace sofa
