// Cross-query batch execution over one tree.
//
// The paper's protocol parallelizes *inside* one query; a caller holding
// a whole batch of queries up front can instead run many queries at
// once, each single-threaded (FAISS-style batched execution, FLASH's
// inter-query parallelism on CPUs). TreeIndex::SearchKnnBatch delegates
// here. The serving layer does not batch: SearchService runs every
// admitted query as its own pool task as soon as a worker is free.

#ifndef SOFA_SERVICE_EXECUTOR_H_
#define SOFA_SERVICE_EXECUTOR_H_

#include <chrono>
#include <cstddef>
#include <vector>

#include "core/neighbor.h"
#include "index/tree_index.h"
#include "util/thread_pool.h"

namespace sofa {
namespace service {

/// One query unit of a cross-query batch. `result` is required; `profile`
/// is optional (merged work counters for this query alone).
struct QueryTask {
  const float* query = nullptr;
  std::size_t k = 1;
  double epsilon = 0.0;
  index::QueryProfile* profile = nullptr;
  std::vector<Neighbor>* result = nullptr;

  /// Drop-dead time, re-checked when a worker picks the task up (a task
  /// can expire while earlier tasks of the same batch run). Expired
  /// tasks are skipped and flagged instead of executed.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  bool expired = false;  // output: set by the executor
};

/// Answers all tasks against `index`, parallel across queries:
/// `num_workers` pool workers (0 = pool size) dynamically pull tasks and
/// run each query single-threaded, so per-query work never nests parallel
/// sections. Safe to call from a non-pool thread only (it blocks on the
/// pool).
void RunThroughputBatch(const index::TreeIndex& index,
                        std::vector<QueryTask>* tasks, ThreadPool* pool,
                        std::size_t num_workers = 0);

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_EXECUTOR_H_
