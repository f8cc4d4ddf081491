#include "ingest/tombstone_set.h"

#include <algorithm>

namespace sofa {
namespace ingest {

bool TombstoneSet::Add(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ids_.insert(id).second) {
    return false;
  }
  cache_.reset();
  return true;
}

bool TombstoneSet::Contains(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ids_.count(id) != 0;
}

void TombstoneSet::Erase(const std::vector<std::uint32_t>& ids) {
  if (ids.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  bool changed = false;
  for (const std::uint32_t id : ids) {
    changed = (ids_.erase(id) != 0) || changed;
  }
  if (changed) {
    cache_.reset();
  }
}

std::size_t TombstoneSet::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ids_.size();
}

std::vector<std::uint32_t> TombstoneSet::SortedIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint32_t> sorted(ids_.begin(), ids_.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::shared_ptr<const std::unordered_set<std::uint32_t>> TombstoneSet::view()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cache_ == nullptr) {
    cache_ = std::make_shared<const std::unordered_set<std::uint32_t>>(ids_);
  }
  return cache_;
}

}  // namespace ingest
}  // namespace sofa
