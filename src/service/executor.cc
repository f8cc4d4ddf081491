#include "service/executor.h"

#include <algorithm>
#include <atomic>

#include "index/query_engine.h"
#include "util/check.h"

namespace sofa {
namespace service {

void RunThroughputBatch(const index::TreeIndex& index,
                        std::vector<QueryTask>* tasks, ThreadPool* pool,
                        std::size_t num_workers) {
  SOFA_CHECK(tasks != nullptr);
  SOFA_CHECK(pool != nullptr);
  if (tasks->empty()) {
    return;
  }
  if (num_workers == 0) {
    num_workers = pool->size();
  }
  num_workers = std::min(num_workers, tasks->size());
  const index::QueryEngine engine(&index);
  // Grain 1: per-query costs are skewed (pruning power varies wildly
  // between queries), so workers pull one query at a time.
  std::atomic<std::size_t> next(0);
  ParallelRun(pool, num_workers, [&](std::size_t) {
    while (true) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks->size()) {
        return;
      }
      QueryTask& task = (*tasks)[t];
      SOFA_DCHECK(task.result != nullptr);
      if (task.deadline != std::chrono::steady_clock::time_point::max() &&
          task.deadline < std::chrono::steady_clock::now()) {
        task.expired = true;
        continue;
      }
      *task.result = engine.Search(task.query, task.k, task.epsilon,
                                   task.profile, /*num_threads=*/1);
    }
  });
}

}  // namespace service
}  // namespace sofa
