#include "index/tree_index.h"

#include <algorithm>

#include "index/index_builder.h"
#include "index/query_engine.h"
#include "util/check.h"

namespace sofa {
namespace index {

TreeIndex::TreeIndex(const Dataset* data, const quant::SummaryScheme* scheme,
                     const IndexConfig& config, ThreadPool* pool)
    : data_(data), scheme_(scheme), config_(config), pool_(pool) {
  SOFA_CHECK(data_ != nullptr);
  SOFA_CHECK(scheme_ != nullptr);
  SOFA_CHECK(pool_ != nullptr);
  SOFA_CHECK_EQ(data_->length(), scheme_->series_length());
  SOFA_CHECK(config_.leaf_capacity > 0);
  if (config_.num_threads == 0) {
    config_.num_threads = pool_->size();
  }
  const std::size_t max_root_bits =
      std::min<std::size_t>(scheme_->word_length(), 16);
  if (config_.root_bits != 0) {
    root_bits_ = std::min(config_.root_bits, max_root_bits);
  } else {
    // Aim for root children holding about one leaf's worth of series.
    std::size_t bits = 1;
    while ((std::size_t{1} << bits) * config_.leaf_capacity < data_->size() &&
           bits < max_root_bits) {
      ++bits;
    }
    root_bits_ = bits;
  }

  BuildResult result =
      BuildTree(*data_, *scheme_, config_, root_bits_, pool_);
  root_children_ = std::move(result.root_children);
  subtrees_ = std::move(result.subtrees);
  build_stats_ = result.stats;
}

TreeIndex::TreeIndex(FromPartsTag, const Dataset* data,
                     const quant::SummaryScheme* scheme,
                     const IndexConfig& config, ThreadPool* pool,
                     std::vector<std::unique_ptr<Node>> root_children,
                     std::size_t root_bits)
    : data_(data),
      scheme_(scheme),
      config_(config),
      pool_(pool),
      root_bits_(root_bits),
      root_children_(std::move(root_children)) {
  SOFA_CHECK(data_ != nullptr);
  SOFA_CHECK(scheme_ != nullptr);
  SOFA_CHECK(pool_ != nullptr);
  SOFA_CHECK_EQ(root_children_.size(), std::size_t{1} << root_bits_);
  if (config_.num_threads == 0) {
    config_.num_threads = pool_->size();
  }
  for (std::size_t key = 0; key < root_children_.size(); ++key) {
    if (root_children_[key] != nullptr) {
      subtrees_.emplace_back(static_cast<std::uint32_t>(key),
                             root_children_[key].get());
    }
  }
}

std::unique_ptr<TreeIndex> TreeIndex::FromParts(
    const Dataset* data, const quant::SummaryScheme* scheme,
    const IndexConfig& config, ThreadPool* pool,
    std::vector<std::unique_ptr<Node>> root_children,
    std::size_t root_bits) {
  return std::unique_ptr<TreeIndex>(
      new TreeIndex(FromPartsTag{}, data, scheme, config, pool,
                    std::move(root_children), root_bits));
}

TreeIndex::~TreeIndex() = default;

void QueryProfile::Merge(const QueryProfile& other) {
  nodes_visited += other.nodes_visited;
  nodes_pruned += other.nodes_pruned;
  leaves_collected += other.leaves_collected;
  leaves_abandoned += other.leaves_abandoned;
  series_lbd_checked += other.series_lbd_checked;
  series_lbd_pruned += other.series_lbd_pruned;
  series_ed_computed += other.series_ed_computed;
  candidates_filtered += other.candidates_filtered;
  rowq_checked += other.rowq_checked;
  rowq_pruned += other.rowq_pruned;
}

Neighbor TreeIndex::Search1Nn(const float* query) const {
  const std::vector<Neighbor> result = SearchKnn(query, 1);
  SOFA_CHECK(!result.empty()) << "1-NN query on an empty index";
  return result[0];
}

std::vector<Neighbor> TreeIndex::SearchKnn(const float* query, std::size_t k,
                                           QueryProfile* profile) const {
  return QueryEngine(this).Search(query, k, /*epsilon=*/0.0, profile);
}

std::vector<Neighbor> TreeIndex::SearchKnnApproximate(
    const float* query, std::size_t k, double epsilon,
    QueryProfile* profile) const {
  return QueryEngine(this).Search(query, k, epsilon, profile);
}

std::vector<Neighbor> TreeIndex::SearchKnnLeafOnly(const float* query,
                                                   std::size_t k) const {
  return QueryEngine(this).SearchLeafOnly(query, k);
}

TreeStats TreeIndex::ComputeStats() const {
  TreeStats stats;
  stats.num_subtrees = subtrees_.size();
  std::size_t depth_sum = 0;
  for (const auto& [key, node] : subtrees_) {
    AccumulateStats(*node, 0, &stats, &depth_sum);
  }
  if (stats.num_leaves > 0) {
    stats.avg_depth = static_cast<double>(depth_sum) /
                      static_cast<double>(stats.num_leaves);
    stats.avg_leaf_size = static_cast<double>(stats.total_series) /
                          static_cast<double>(stats.num_leaves);
  }
  return stats;
}

}  // namespace index
}  // namespace sofa
