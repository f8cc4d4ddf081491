#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace sofa {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  SOFA_DCHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::Offer(std::shared_ptr<Joinable> item,
                       std::size_t max_helpers) {
  SOFA_DCHECK(item != nullptr);
  if (max_helpers == 0) {
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    offers_.push_back(OfferSlot{std::move(item), max_helpers, 0});
  }
  for (std::size_t i = 0; i < std::min(max_helpers, size()); ++i) {
    work_available_.notify_one();
  }
}

void ThreadPool::Withdraw(const Joinable* item) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto it = offers_.begin(); it != offers_.end(); ++it) {
    if (it->item.get() == item) {
      offers_.erase(it);
      return;
    }
  }
}

std::size_t ThreadPool::OpenOfferLocked() const {
  for (std::size_t i = 0; i < offers_.size(); ++i) {
    const std::size_t at = (next_offer_ + i) % offers_.size();
    if (offers_[at].helpers < offers_[at].max_helpers) {
      return at;
    }
  }
  return offers_.size();
}

// Runs one Join() of the next open offer, outside the lock. The slot is
// looked up again afterwards: the offer may have been withdrawn (or other
// offers added or removed) meanwhile.
void ThreadPool::JoinOfferLocked(std::unique_lock<std::mutex>* lock) {
  const std::size_t at = OpenOfferLocked();
  std::shared_ptr<Joinable> item = offers_[at].item;
  ++offers_[at].helpers;
  next_offer_ = at + 1;
  lock->unlock();
  const bool exhausted = item->Join(*this);
  lock->lock();
  for (auto it = offers_.begin(); it != offers_.end(); ++it) {
    if (it->item == item) {
      --it->helpers;
      if (exhausted) {
        offers_.erase(it);
      }
      break;
    }
  }
  lock->unlock();
  item.reset();  // the last reference may go here: not under the lock
  lock->lock();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock, [this] {
      return shutting_down_ || !queue_.empty() ||
             OpenOfferLocked() < offers_.size();
    });
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
      ++in_flight_;
      lock.unlock();
      task();
      task = nullptr;
      lock.lock();
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        idle_.notify_all();
      }
    } else if (shutting_down_) {
      return;  // drained
    } else {
      JoinOfferLocked(&lock);
    }
  }
}

std::size_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ParallelRun(ThreadPool* pool, std::size_t num_workers,
                 const std::function<void(std::size_t)>& fn) {
  SOFA_CHECK(pool != nullptr);
  SOFA_CHECK(num_workers > 0);
  if (num_workers == 1) {
    fn(0);  // inline fast path: no wakeup latency for serial execution
    return;
  }
  // The count drops under the mutex: the caller can only see it reach
  // zero once the last worker has let go of the mutex, so returning (and
  // destroying these locals) never races a worker still touching them.
  std::size_t remaining = num_workers;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  for (std::size_t w = 0; w < num_workers; ++w) {
    pool->Submit([&, w] {
      fn(w);
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) {
        done_cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)>& fn) {
  SOFA_CHECK(pool != nullptr);
  if (count == 0) {
    return;
  }
  const std::size_t workers = pool->size();
  const std::size_t chunk = (count + workers - 1) / workers;
  ParallelRun(pool, workers, [&](std::size_t w) {
    const std::size_t begin = std::min(count, w * chunk);
    const std::size_t end = std::min(count, begin + chunk);
    if (begin < end) {
      fn(begin, end, w);
    }
  });
}

void DynamicParallelFor(ThreadPool* pool, std::size_t count, std::size_t grain,
                        const std::function<void(std::size_t, std::size_t,
                                                 std::size_t)>& fn) {
  SOFA_CHECK(pool != nullptr);
  SOFA_CHECK(grain > 0);
  if (count == 0) {
    return;
  }
  std::atomic<std::size_t> next(0);
  ParallelRun(pool, pool->size(), [&](std::size_t w) {
    while (true) {
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= count) {
        return;
      }
      fn(begin, std::min(count, begin + grain), w);
    }
  });
}

}  // namespace sofa
