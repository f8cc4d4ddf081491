// Shared randomized-workload harness — the deterministic seeded mutation
// stream (and crash-simulation file helpers) previously duplicated
// across the restart/recovery suites. One workload definition means the
// crash-loop child, the recovering parent, and the from-scratch oracle
// all agree on exactly which mutations exist at every prefix, with no
// per-test drift.

#ifndef SOFA_TESTS_HARNESS_WORKLOAD_H_
#define SOFA_TESTS_HARNESS_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "harness/oracle.h"
#include "ingest/compactor.h"
#include "shard/sharded_index.h"

namespace sofa {

class ThreadPool;

namespace testing_harness {

/// The deterministic workload shared by every restart test (and by both
/// sides of the fork in the crash loop): a base collection, one mutation
/// stream (4 inserts then 1 delete, repeating; delete targets are
/// distinct base ids so a replayed prefix never re-deletes), and the
/// from-scratch oracle over any durable prefix of that stream.
struct MutationWorkload {
  static constexpr std::size_t kBase = 400;
  static constexpr std::size_t kLength = 32;
  static constexpr std::size_t kShards = 2;
  static constexpr std::size_t kSteps = 900;

  Dataset base;
  Dataset inserts;  // row i carries global id kBase + i

  explicit MutationWorkload(std::uint64_t seed = 1234);

  static bool IsDelete(std::size_t step) { return step % 5 == 4; }

  /// Number of inserts among steps [0, p).
  static std::size_t InsertsBefore(std::size_t p) { return p - p / 5; }

  /// The d-th delete target: a permutation of base ids, so every target
  /// is valid from step 0 and no id is ever deleted twice.
  static std::uint32_t DeleteTarget(std::size_t d) {
    return static_cast<std::uint32_t>((d * 197 + 13) % kBase);
  }

  /// Applies steps [from, to) through the compactor. Inserts must resume
  /// exactly at the recovered id watermark; deletes are idempotent
  /// (kAlreadyDeleted after a crash-resume replays past them).
  void Apply(ingest::Compactor* compactor, std::size_t from,
             std::size_t to) const;

  /// From-scratch oracle over the durable prefix [0, position) of the
  /// mutation stream.
  struct Oracle {
    Oracle(const MutationWorkload& w, std::size_t position,
           ThreadPool* pool);

    std::vector<Neighbor> SearchKnn(const float* query,
                                    std::size_t k) const {
      return oracle_->SearchKnn(query, k);
    }

   private:
    Dataset combined_;
    std::unique_ptr<ExactOracle> oracle_;
  };

  /// Builds the base sharded generation (round-1 bootstrap; later rounds
  /// reload it from the store instead).
  std::shared_ptr<const shard::ShardedIndex> BuildSharded(
      ThreadPool* pool) const;
};

/// Whole-file byte copy — used to resurrect truncated segments, corrupt
/// specific bytes, and otherwise simulate crashes and bit rot.
std::vector<unsigned char> ReadFileBytes(const std::string& path);
void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes);

}  // namespace testing_harness
}  // namespace sofa

#endif  // SOFA_TESTS_HARNESS_WORKLOAD_H_
