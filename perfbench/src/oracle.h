// The exactness oracle: brute-force reference answers and the checker
// every SEARCH answer of a run goes through.
//
// The reference path shares nothing with the tree engine under test: the
// flat index (flat::IndexFlatL2) ranks the base collection and the
// candidates' distances are recomputed directly from the rows.
//
// Answers given while mutations are in flight are checked against every
// state the server may legally have answered from. With one writer that
// waits for each acknowledgement, mutations are totally ordered, so a
// query sent at t_send and answered at t_recv may reflect any prefix of
// the mutation log between "acknowledged before t_send" and "sent before
// t_recv". The answer is correct iff
//   * it is ascending, holds no duplicate, and has k entries (fewer only
//     if fewer rows can be live);
//   * every returned id can be live in some such state, and its reported
//     distance equals the true distance of that row;
//   * no row that is live in every such state, and is not returned, lies
//     closer than the k-th returned distance (ties are accepted).

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/dataset.h"
#include "core/neighbor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace perfbench {

/// For each query, its `depth` nearest base rows, ascending by exact
/// distance. Computed once per seed and cached on disk under `cache_path`
/// (outside every timed phase).
std::vector<std::vector<sofa::Neighbor>> BaseGroundTruth(
    const sofa::Dataset& base, const sofa::Dataset& queries,
    std::size_t depth, const std::string& cache_path, sofa::ThreadPool* pool);

/// One INSERT or DELETE as the writer sent it.
struct WriteOp {
  bool insert = true;
  std::uint32_t id = 0;      // insert: assigned id (when ok); delete: target
  std::size_t pool_row = 0;  // insert: row of the insert pool
  Clock::time_point scheduled;
  Clock::time_point sent;
  Clock::time_point acked;
  bool ok = false;              // acknowledged kOk
  bool transport_error = false;  // outcome unknown
  sofa::StatusCode status = sofa::StatusCode::kOk;
};

/// The mutation history of one writer, in send order.
class WriteLog {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void Add(const WriteOp& op);
  const std::vector<WriteOp>& ops() const { return ops_; }

  /// Length of the prefix acknowledged before `t`.
  std::size_t AckedBefore(Clock::time_point t) const;
  /// Length of the prefix sent before `t`.
  std::size_t SentBefore(Clock::time_point t) const;

  /// Index of the acknowledged insert that created `id`, or kNone.
  std::size_t InsertOf(std::uint32_t id) const;
  /// Index of the first delete that targeted `id`, or kNone.
  std::size_t DeleteOf(std::uint32_t id) const;
  /// Index of the insert that sent pool row `row`, or kNone.
  std::size_t OpOfPoolRow(std::size_t row) const;

 private:
  std::vector<WriteOp> ops_;
  std::unordered_map<std::uint32_t, std::size_t> insert_of_;
  std::unordered_map<std::uint32_t, std::size_t> delete_of_;
  std::unordered_map<std::size_t, std::size_t> op_of_row_;
};

class AnswerChecker {
 public:
  /// `base_truth[q]` is BaseGroundTruth for `queries.row(q)`; `pool` holds
  /// the rows the writer may insert. All arguments must outlive the
  /// checker.
  AnswerChecker(const sofa::Dataset& base, const sofa::Dataset& pool,
                const sofa::Dataset& queries,
                const std::vector<std::vector<sofa::Neighbor>>& base_truth,
                std::size_t k, sofa::ThreadPool* thread_pool);

  /// "" when `answer` is a correct exact k-NN answer for query `q` under
  /// some state between the first `acked` and the first `sent` entries of
  /// `log`; otherwise what is wrong with it.
  std::string Check(std::size_t q, const std::vector<sofa::Neighbor>& answer,
                    const WriteLog& log, std::size_t acked,
                    std::size_t sent) const;

 private:
  float TrueDistance(std::size_t q, const float* row) const;

  const sofa::Dataset& base_;
  const sofa::Dataset& pool_;
  const sofa::Dataset& queries_;
  const std::vector<std::vector<sofa::Neighbor>>& base_truth_;
  std::size_t k_;
  /// Per query: (distance, pool row) over the whole insert pool, ascending.
  std::vector<std::vector<std::pair<float, std::uint32_t>>> pool_order_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
