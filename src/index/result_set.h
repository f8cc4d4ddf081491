// The k-NN result set of one query, shared by every scan that answers it:
// the tree phases of QueryEngine (all trees of a generation at once) and
// any flat scans offered alongside (the ingest path's insert buffer).
//
// Candidates are ordered by (squared distance, global id), so the set is
// the k lexicographically smallest pairs offered, whatever the order of
// the offers. The published pruning bound sits one float above the k-th
// distance: every pruning test (node LBD, series LBD, rowq, queue
// abandonment, the early-abandoning kernel) drops a candidate only when
// its bound is >= bound_sq(), i.e. strictly farther than the k-th. A row
// tied with the k-th is therefore always examined and the id decides, so
// ties at the k boundary resolve to the lowest global id at any thread
// count and in any schedule.

#ifndef SOFA_INDEX_RESULT_SET_H_
#define SOFA_INDEX_RESULT_SET_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <queue>
#include <vector>

#include "core/neighbor.h"

namespace sofa {
namespace index {

class ResultSet {
 public:
  /// A set of the k best candidates (k > 0).
  explicit ResultSet(std::size_t k) : k_(k) {
    bound_sq_.store(std::numeric_limits<float>::infinity());
  }

  ResultSet(const ResultSet&) = delete;
  ResultSet& operator=(const ResultSet&) = delete;

  /// Pruning bound (squared distance): a candidate whose distance or
  /// lower bound is >= this cannot enter. +inf until k results exist.
  float bound_sq() const { return bound_sq_.load(std::memory_order_relaxed); }

  /// Offers `id` at `dist_sq`; kept when it sorts below the current k-th
  /// by (distance, id). Thread-safe.
  void Offer(std::uint32_t id, float dist_sq) {
    if (!(dist_sq < bound_sq())) {
      return;
    }
    const Entry entry{dist_sq, id};
    std::lock_guard<std::mutex> lock(mutex_);
    if (heap_.size() < k_) {
      heap_.push(entry);
    } else if (entry < heap_.top()) {
      heap_.pop();
      heap_.push(entry);
    } else {
      return;
    }
    if (heap_.size() == k_) {
      bound_sq_.store(std::nextafter(heap_.top().dist_sq,
                                     std::numeric_limits<float>::infinity()),
                      std::memory_order_relaxed);
    }
  }

  /// Drains into a list ascending by (distance, id). Not thread-safe:
  /// call once every scan has finished.
  std::vector<Neighbor> Finish() {
    std::vector<Neighbor> result(heap_.size());
    for (std::size_t i = result.size(); i-- > 0;) {
      result[i] = Neighbor{heap_.top().id, std::sqrt(heap_.top().dist_sq)};
      heap_.pop();
    }
    return result;
  }

 private:
  struct Entry {
    float dist_sq;
    std::uint32_t id;
    bool operator<(const Entry& other) const {  // max-heap: worst on top
      return dist_sq != other.dist_sq ? dist_sq < other.dist_sq
                                      : id < other.id;
    }
  };

  const std::size_t k_;
  std::priority_queue<Entry> heap_;
  std::atomic<float> bound_sq_;
  std::mutex mutex_;
};

}  // namespace index
}  // namespace sofa

#endif  // SOFA_INDEX_RESULT_SET_H_
