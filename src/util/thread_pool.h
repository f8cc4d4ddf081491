// A fixed-size worker pool plus the parallel-for helpers used by the index
// builder and the scan baselines.
//
// Two styles of parallelism:
//   * "split this range across workers" (ParallelFor / DynamicParallelFor,
//     both built on ParallelRun) — e.g. bulk summarization of N series.
//     The caller blocks until every chunk ran, so call them from a thread
//     that is not a worker of the pool.
//   * "let idle workers join what is running" (Offer / Withdraw) — a task
//     offers a Joinable, every worker that finds no queued task joins it
//     instead of sleeping, and a helper goes back to the queue between two
//     units of work as soon as a task waits there (HasQueuedTask). The
//     query engine's leaf queue is one: at saturation no worker is idle
//     and each query runs on its own worker alone.

#ifndef SOFA_UTIL_THREAD_POOL_H_
#define SOFA_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sofa {

class ThreadPool;

/// Work a running task offers to idle pool workers (ThreadPool::Offer).
class Joinable {
 public:
  Joinable() = default;
  virtual ~Joinable() = default;
  Joinable(const Joinable&) = delete;
  Joinable& operator=(const Joinable&) = delete;

  /// Runs a share of the work on a pool worker that joined the offer. Must
  /// return between two units of work as soon as pool.HasQueuedTask(),
  /// and once no work is left. Returns true when nothing is left to hand
  /// out: the pool then drops the offer.
  virtual bool Join(const ThreadPool& pool) = 0;
};

/// Fixed-size thread pool with a FIFO task queue and a list of offered
/// Joinables that idle workers join.
///
/// Thread-safe. Tasks may submit further tasks. Wait() blocks until the
/// queue is drained and all running tasks finished.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return threads_.size(); }

  /// Enqueues a task. Queued tasks go before offers: a worker joins an
  /// offer only while the queue is empty.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// Offers `item` to idle workers, at most `max_helpers` inside its
  /// Join() at a time (0 = none). Concurrent offers get helpers in
  /// rotation. The offer stays open until Withdraw() or until a Join()
  /// reports that nothing is left.
  void Offer(std::shared_ptr<Joinable> item, std::size_t max_helpers);

  /// Closes the offer of `item`: no worker joins it after this returns.
  /// Does not wait for helpers already inside Join().
  void Withdraw(const Joinable* item);

  /// True while a submitted task waits for a worker.
  bool HasQueuedTask() const {
    return queued_.load(std::memory_order_relaxed) > 0;
  }

 private:
  struct OfferSlot {
    std::shared_ptr<Joinable> item;
    std::size_t max_helpers = 0;
    std::size_t helpers = 0;  // workers inside item->Join()
  };

  void WorkerLoop();
  // Index of the next offer, in rotation, with room for a helper;
  // offers_.size() when there is none.
  std::size_t OpenOfferLocked() const;
  void JoinOfferLocked(std::unique_lock<std::mutex>* lock);

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::atomic<std::size_t> queued_{0};  // queue_.size(), read unlocked
  std::vector<OfferSlot> offers_;
  std::size_t next_offer_ = 0;  // rotation cursor into offers_
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Number of hardware threads (at least 1).
std::size_t HardwareThreads();

/// Runs `fn(worker_id)` once on each of `num_workers` pool workers and waits
/// for all of them.
void ParallelRun(ThreadPool* pool, std::size_t num_workers,
                 const std::function<void(std::size_t worker)>& fn);

/// Statically splits [0, count) into one contiguous chunk per worker and
/// runs `fn(begin, end, worker)` in parallel. Chunks may be empty; chunk w
/// is [w * ceil(count / size), …), so `worker` is the chunk index and two
/// calls over the same count on the same pool split it identically.
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t begin, std::size_t end,
                                          std::size_t worker)>& fn);

/// Dynamically hands out chunks of `grain` indices from [0, count) to
/// workers; good for skewed per-item costs (e.g. per-subtree build).
void DynamicParallelFor(
    ThreadPool* pool, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t begin, std::size_t end,
                             std::size_t worker)>& fn);

}  // namespace sofa

#endif  // SOFA_UTIL_THREAD_POOL_H_
