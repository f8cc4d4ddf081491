#include "harness/oracle.h"

#include <unordered_set>

#include "sfa/mcb.h"
#include "util/thread_pool.h"

namespace sofa {
namespace testing_harness {

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
             << "rank " << i << ": " << actual[i].id << "("
             << actual[i].distance << ") vs expected " << expected[i].id
             << "(" << expected[i].distance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::shared_ptr<const quant::SummaryScheme> TrainTestScheme(
    const Dataset& data, ThreadPool* pool) {
  sfa::SfaConfig config;
  config.word_length = 16;
  config.alphabet = 256;
  config.sampling_ratio = 0.2;
  return sfa::TrainSfa(data, config, pool);
}

std::shared_ptr<const shard::ShardedIndex> BuildTestSharded(
    const Dataset& data, std::size_t num_shards,
    const std::shared_ptr<const quant::SummaryScheme>& scheme,
    ThreadPool* pool, bool enable_rowq) {
  shard::ShardingConfig config;
  config.num_shards = num_shards;
  config.index.leaf_capacity = 100;
  config.enable_rowq = enable_rowq;
  return shard::ShardedIndex::Build(data, config, scheme, pool);
}

ExactOracle::ExactOracle(
    const Dataset& combined, const std::vector<std::uint32_t>& deleted,
    const std::shared_ptr<const quant::SummaryScheme>& scheme,
    ThreadPool* pool, std::size_t leaf_capacity)
    : data_(combined.length()), scheme_(scheme) {
  const std::unordered_set<std::uint32_t> dead(deleted.begin(),
                                               deleted.end());
  for (std::size_t i = 0; i < combined.size(); ++i) {
    if (dead.count(static_cast<std::uint32_t>(i)) == 0) {
      data_.Append(combined.row(i));
      kept_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  index::IndexConfig config;
  config.leaf_capacity = leaf_capacity;
  tree_ = std::make_unique<index::TreeIndex>(&data_, scheme_.get(), config,
                                             pool);
}

std::vector<Neighbor> ExactOracle::SearchKnn(const float* query,
                                             std::size_t k) const {
  std::vector<Neighbor> result = tree_->SearchKnn(query, k);
  for (Neighbor& nb : result) {
    nb.id = kept_[nb.id];
  }
  return result;
}

service::SearchRequest MakeSearchRequest(const Dataset& queries,
                                         std::size_t q, std::size_t k,
                                         bool profile) {
  service::SearchRequest request;
  request.query.assign(queries.row(q), queries.row(q) + queries.length());
  request.k = k;
  request.collect_profile = profile;
  return request;
}

}  // namespace testing_harness
}  // namespace sofa
