#include "flat/index_flat_l2.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "core/distance.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sofa {
namespace flat {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

struct HeapEntry {
  float dist_sq;
  std::uint32_t id;
  bool operator<(const HeapEntry& other) const {
    return dist_sq < other.dist_sq;
  }
};

}  // namespace

IndexFlatL2::IndexFlatL2(const Dataset* data, ThreadPool* pool)
    : data_(data), pool_(pool) {
  SOFA_CHECK(data_ != nullptr);
  SOFA_CHECK(pool_ != nullptr);
  WallTimer timer;
  norms_sq_.resize(data_->size());
  ParallelFor(pool_, data_->size(),
              [&](std::size_t begin, std::size_t end, std::size_t) {
                for (std::size_t i = begin; i < end; ++i) {
                  norms_sq_[i] = SquaredNorm(data_->row(i), data_->length());
                }
              });
  build_seconds_ = timer.Seconds();
}

std::vector<Neighbor> IndexFlatL2::SearchKnn(const float* query,
                                             std::size_t k) const {
  if (data_->empty() || k == 0) {
    return {};
  }
  k = std::min(k, data_->size());
  const std::size_t n = data_->length();
  const float query_norm_sq = SquaredNorm(query, n);
  std::priority_queue<HeapEntry> heap;
  for (std::size_t i = 0; i < data_->size(); ++i) {
    // d² = ‖q‖² + ‖y‖² − 2·q·y; clamp tiny negative rounding to 0.
    const float d = std::max(
        0.0f, query_norm_sq + norms_sq_[i] -
                  2.0f * DotProduct(query, data_->row(i), n));
    if (heap.size() < k) {
      heap.push(HeapEntry{d, static_cast<std::uint32_t>(i)});
    } else if (d < heap.top().dist_sq) {
      heap.pop();
      heap.push(HeapEntry{d, static_cast<std::uint32_t>(i)});
    }
  }
  std::vector<Neighbor> result;
  result.reserve(heap.size());
  while (!heap.empty()) {
    result.push_back(Neighbor{heap.top().id, std::sqrt(heap.top().dist_sq)});
    heap.pop();
  }
  std::reverse(result.begin(), result.end());
  return result;
}

Neighbor IndexFlatL2::Search1Nn(const float* query) const {
  SOFA_CHECK(!data_->empty()) << "1-NN query on an empty collection";
  // Fast path without a heap.
  const std::size_t n = data_->length();
  const float query_norm_sq = SquaredNorm(query, n);
  float best = kInf;
  std::uint32_t best_id = 0;
  for (std::size_t i = 0; i < data_->size(); ++i) {
    const float d = query_norm_sq + norms_sq_[i] -
                    2.0f * DotProduct(query, data_->row(i), n);
    if (d < best) {
      best = d;
      best_id = static_cast<std::uint32_t>(i);
    }
  }
  return Neighbor{best_id, std::sqrt(std::max(0.0f, best))};
}

std::vector<std::vector<Neighbor>> IndexFlatL2::SearchBatch(
    const Dataset& queries, std::size_t k) const {
  SOFA_CHECK_EQ(queries.length(), data_->length());
  std::vector<std::vector<Neighbor>> results(queries.size());
  // Embarrassingly parallel across queries (the paper's FAISS usage:
  // mini-batches equal to the core count).
  DynamicParallelFor(pool_, queries.size(), 1,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t q = begin; q < end; ++q) {
                         results[q] = SearchKnn(queries.row(q), k);
                       }
                     });
  return results;
}

}  // namespace flat
}  // namespace sofa
