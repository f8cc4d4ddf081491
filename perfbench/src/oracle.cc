#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "core/distance.h"
#include "flat/index_flat_l2.h"

namespace perfbench {
namespace {

using sofa::Dataset;
using sofa::Neighbor;

constexpr char kCacheMagic[8] = {'P', 'B', 'G', 'T', '0', '0', '0', '1'};

// Server and oracle sum the same squares in different orders.
float Tolerance(float distance) {
  return 1e-4f * std::max(1.0f, distance);
}

bool LoadTruth(const std::string& path, std::size_t num_queries,
               std::size_t depth, std::size_t base_size,
               std::vector<std::vector<Neighbor>>* out) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  char magic[8];
  std::uint64_t header[3];
  bool ok = std::fread(magic, 1, 8, in) == 8 &&
            std::memcmp(magic, kCacheMagic, 8) == 0 &&
            std::fread(header, sizeof(header), 1, in) == 1 &&
            header[0] == num_queries && header[1] == depth &&
            header[2] == base_size;
  if (ok) {
    out->assign(num_queries, std::vector<Neighbor>(depth));
    for (std::size_t q = 0; q < num_queries && ok; ++q) {
      ok = std::fread((*out)[q].data(), sizeof(Neighbor), depth, in) == depth;
    }
  }
  std::fclose(in);
  return ok;
}

void SaveTruth(const std::string& path, std::size_t base_size,
               const std::vector<std::vector<Neighbor>>& truth) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return;
  }
  const std::uint64_t header[3] = {truth.size(),
                                   truth.empty() ? 0 : truth[0].size(),
                                   base_size};
  bool ok = std::fwrite(kCacheMagic, 1, 8, out) == 8 &&
            std::fwrite(header, sizeof(header), 1, out) == 1;
  for (const std::vector<Neighbor>& list : truth) {
    ok = ok && std::fwrite(list.data(), sizeof(Neighbor), list.size(), out) ==
                   list.size();
  }
  ok = std::fclose(out) == 0 && ok;
  if (ok) {
    std::rename(tmp.c_str(), path.c_str());
  } else {
    std::remove(tmp.c_str());
  }
}

}  // namespace

std::vector<std::vector<Neighbor>> BaseGroundTruth(
    const Dataset& base, const Dataset& queries, std::size_t depth,
    const std::string& cache_path, sofa::ThreadPool* pool) {
  std::vector<std::vector<Neighbor>> truth;
  if (LoadTruth(cache_path, queries.size(), depth, base.size(), &truth)) {
    return truth;
  }
  const sofa::flat::IndexFlatL2 flat(&base, pool);
  truth = flat.SearchBatch(queries, depth);
  // The flat index ranks by ‖x‖²+‖y‖²−2x·y; recompute each candidate's
  // distance from the rows (as the tree engine does) and re-sort.
  for (std::size_t q = 0; q < truth.size(); ++q) {
    for (Neighbor& nb : truth[q]) {
      nb.distance = std::sqrt(sofa::SquaredEuclidean(
          queries.row(q), base.row(nb.id), base.length()));
    }
    std::sort(truth[q].begin(), truth[q].end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance ||
                       (a.distance == b.distance && a.id < b.id);
              });
  }
  SaveTruth(cache_path, base.size(), truth);
  return truth;
}

void WriteLog::Add(const WriteOp& op) {
  const std::size_t index = ops_.size();
  ops_.push_back(op);
  if (op.insert) {
    op_of_row_.emplace(op.pool_row, index);
    if (op.ok) {
      insert_of_.emplace(op.id, index);
    }
  } else {
    delete_of_.emplace(op.id, index);
  }
}

std::size_t WriteLog::AckedBefore(Clock::time_point t) const {
  // Acks are monotone in send order (one synchronous writer).
  return static_cast<std::size_t>(
      std::partition_point(ops_.begin(), ops_.end(),
                           [t](const WriteOp& op) { return op.acked < t; }) -
      ops_.begin());
}

std::size_t WriteLog::SentBefore(Clock::time_point t) const {
  return static_cast<std::size_t>(
      std::partition_point(ops_.begin(), ops_.end(),
                           [t](const WriteOp& op) { return op.sent < t; }) -
      ops_.begin());
}

std::size_t WriteLog::InsertOf(std::uint32_t id) const {
  const auto it = insert_of_.find(id);
  return it == insert_of_.end() ? kNone : it->second;
}

std::size_t WriteLog::DeleteOf(std::uint32_t id) const {
  const auto it = delete_of_.find(id);
  return it == delete_of_.end() ? kNone : it->second;
}

std::size_t WriteLog::OpOfPoolRow(std::size_t row) const {
  const auto it = op_of_row_.find(row);
  return it == op_of_row_.end() ? kNone : it->second;
}

AnswerChecker::AnswerChecker(
    const Dataset& base, const Dataset& pool, const Dataset& queries,
    const std::vector<std::vector<Neighbor>>& base_truth, std::size_t k,
    sofa::ThreadPool* thread_pool)
    : base_(base),
      pool_(pool),
      queries_(queries),
      base_truth_(base_truth),
      k_(k),
      pool_order_(queries.size()) {
  sofa::ParallelFor(
      thread_pool, queries.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t q = begin; q < end; ++q) {
          std::vector<std::pair<float, std::uint32_t>>& order = pool_order_[q];
          order.reserve(pool.size());
          for (std::size_t r = 0; r < pool.size(); ++r) {
            order.emplace_back(TrueDistance(q, pool.row(r)),
                               static_cast<std::uint32_t>(r));
          }
          std::sort(order.begin(), order.end());
        }
      });
}

float AnswerChecker::TrueDistance(std::size_t q, const float* row) const {
  return std::sqrt(
      sofa::SquaredEuclidean(queries_.row(q), row, queries_.length()));
}

std::string AnswerChecker::Check(std::size_t q,
                                 const std::vector<Neighbor>& answer,
                                 const WriteLog& log, std::size_t acked,
                                 std::size_t sent) const {
  const std::vector<WriteOp>& ops = log.ops();
  // A delete acknowledged before the query was sent must be visible; one
  // sent before the answer arrived may be.
  const auto deleted_surely = [&](std::uint32_t id) {
    const std::size_t d = log.DeleteOf(id);
    return d != WriteLog::kNone && d < acked && ops[d].ok;
  };
  const auto deleted_maybe = [&](std::uint32_t id) {
    const std::size_t d = log.DeleteOf(id);
    return d != WriteLog::kNone && d < sent;
  };

  if (answer.size() > k_) {
    return "more than k neighbors";
  }
  std::unordered_set<std::uint32_t> returned;
  for (std::size_t i = 0; i < answer.size(); ++i) {
    const Neighbor& nb = answer[i];
    if (i > 0 && nb.distance < answer[i - 1].distance) {
      return "not ascending";
    }
    if (!returned.insert(nb.id).second) {
      return "duplicate id " + std::to_string(nb.id);
    }
    const float* row = nullptr;
    if (nb.id < base_.size()) {
      row = base_.row(nb.id);
    } else {
      const std::size_t w = log.InsertOf(nb.id);
      if (w == WriteLog::kNone || w >= sent) {
        return "id " + std::to_string(nb.id) + " was never inserted";
      }
      row = pool_.row(ops[w].pool_row);
    }
    if (deleted_surely(nb.id)) {
      return "deleted id " + std::to_string(nb.id) + " returned";
    }
    const float truth = TrueDistance(q, row);
    if (std::fabs(truth - nb.distance) > Tolerance(truth)) {
      return "id " + std::to_string(nb.id) + " reported at distance " +
             std::to_string(nb.distance) + ", true " + std::to_string(truth);
    }
  }

  // Completeness: the nearest row live in every admissible state and not
  // returned must not beat the k-th answer.
  const float kth = answer.size() == k_
                        ? answer.back().distance
                        : std::numeric_limits<float>::infinity();
  const auto must_live_missed = [&](std::uint32_t id, float distance) {
    return returned.count(id) == 0 && !deleted_maybe(id) &&
           distance < kth - Tolerance(distance);
  };
  bool base_settled = false;
  for (const Neighbor& nb : base_truth_[q]) {
    if (returned.count(nb.id) != 0 || deleted_maybe(nb.id)) {
      continue;
    }
    if (must_live_missed(nb.id, nb.distance)) {
      return "missed base id " + std::to_string(nb.id) + " at distance " +
             std::to_string(nb.distance);
    }
    base_settled = true;
    break;
  }
  if (!base_settled) {
    // Every cached candidate was returned or deleted: scan the rest.
    for (std::uint32_t id = 0; id < base_.size(); ++id) {
      if (must_live_missed(id, TrueDistance(q, base_.row(id)))) {
        return "missed base id " + std::to_string(id);
      }
    }
  }
  for (const auto& [distance, row] : pool_order_[q]) {
    const std::size_t w = log.OpOfPoolRow(row);
    if (w == WriteLog::kNone || w >= acked || !ops[w].ok) {
      continue;  // not surely inserted when the query was sent
    }
    const std::uint32_t id = ops[w].id;
    if (returned.count(id) != 0 || deleted_maybe(id)) {
      continue;
    }
    if (must_live_missed(id, distance)) {
      return "missed inserted id " + std::to_string(id) + " at distance " +
             std::to_string(distance);
    }
    break;
  }
  return "";
}

}  // namespace perfbench
