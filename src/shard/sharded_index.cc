#include "shard/sharded_index.h"

#include <cstring>
#include <numeric>
#include <utility>

#include "index/query_engine.h"
#include "index/serialization.h"
#include "util/check.h"

namespace sofa {
namespace shard {

std::size_t ShardedIndex::AssignShard(std::uint32_t id, std::size_t total,
                                      std::size_t num_shards) {
  SOFA_DCHECK(num_shards > 0);
  // The first (total % num_shards) shards hold one extra row, so shard
  // sizes differ by at most one. Ids beyond the build-time total (the
  // ingest path's inserts) extend the last shard's range — without this
  // the arithmetic below would yield a shard index >= num_shards.
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
                                       ShardAssignment /*assignment*/) {
  SOFA_CHECK(num_shards > 0);
  const std::size_t length = data.length();
  ShardPartition partition;
  partition.data.reserve(num_shards);
  partition.global_ids.reserve(num_shards);
  // Shard s holds rows [begin, begin + count) — AssignShard's ranges — so
  // each slice is one copy into storage sized up front.
  std::size_t begin = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t count =
        data.size() / num_shards + (s < data.size() % num_shards ? 1 : 0);
    auto slice = std::make_shared<Dataset>(count, length);
    if (count > 0) {
      std::memcpy(slice->mutable_data(), data.row(begin),
                  count * length * sizeof(float));
    }
    auto ids = std::make_shared<std::vector<std::uint32_t>>(count);
    std::iota(ids->begin(), ids->end(), static_cast<std::uint32_t>(begin));
    partition.data.push_back(std::move(slice));
    partition.global_ids.push_back(std::move(ids));
    begin += count;
  }
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
      Partition(data, config.num_shards, ShardAssignment::kContiguous);
  std::vector<Shard> shards(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    shards[s].data = partition.data[s];
    shards[s].scheme = scheme;
    shards[s].global_ids = partition.global_ids[s];
    shards[s].tree = std::make_shared<index::TreeIndex>(
        shards[s].data.get(), scheme.get(), config.index, pool);
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
  const ShardPartition partition = ShardedIndex::Partition(
      data, config.num_shards, ShardAssignment::kContiguous);
  std::vector<Shard> shards(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    // Every shard file carries the build's one scheme: shards 1… reuse
    // shard 0's object when theirs decodes to the same bytes.
    auto loaded =
        index::LoadIndex(ShardPath(index_path, s, config.num_shards),
                         partition.data[s].get(), pool,
                         s == 0 ? nullptr : shards[0].scheme);
    if (!loaded.has_value()) {
      return nullptr;
    }
    shards[s].data = partition.data[s];
    shards[s].scheme = std::move(loaded->scheme);
    shards[s].tree = std::move(loaded->tree);
    shards[s].global_ids = partition.global_ids[s];
  }
  // Rebuilds (compaction) keep the build's tree configuration, as
  // persist::GenerationStore::LoadGeneration does.
  ShardingConfig loaded_config = config;
  loaded_config.index = shards[0].tree->config();
  return ShardedIndex::FromShards(std::move(shards), loaded_config,
                                  data.length(), pool);
}

}  // namespace shard
}  // namespace sofa
