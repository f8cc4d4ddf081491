// The delete half of the incremental ingest path: the set of global ids
// that have been deleted but whose rows still exist somewhere a query
// can reach them — a base or compacted shard tree, or an insert-buffer
// range. Queries filter these ids out of every answer (the merge layer
// consults the set for tree candidates, the InsertBuffer scan masks
// deleted rows directly), so a delete is visible to every query
// submitted after Compactor::Delete returns, without a republish —
// exactly mirroring how inserts become visible through the live buffers.
//
// The set only ever *grows* between compactions, which is what makes one
// live set shared by every published generation sound: filtering an id
// whose row a given generation no longer holds is a no-op (ids are never
// reused), whereas failing to filter an id whose row an *older*
// generation still holds would resurrect it. For the same reason a
// tombstone may only be purged once no live generation can still surface
// its row — the Compactor defers each compaction's purge until every
// generation published before that compaction has retired (the same
// weak-reference tracking that bounds buffer-chunk reclamation).
//
// Thread-safety: all methods are safe to call concurrently. Readers take
// a copy-on-write snapshot via view() — one mutex acquisition, then
// lock-free membership tests for the rest of the query. The snapshot is
// rebuilt lazily after a mutation, so the per-query cost is a pointer
// copy in the steady state and one O(|set|) copy after each mutation
// burst; compaction keeps |set| small (tombstones are purged once their
// rows are compacted away), so this stays cheap even under delete-heavy
// workloads.

#ifndef SOFA_INGEST_TOMBSTONE_SET_H_
#define SOFA_INGEST_TOMBSTONE_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace sofa {
namespace ingest {

class TombstoneSet {
 public:
  TombstoneSet() = default;
  TombstoneSet(const TombstoneSet&) = delete;
  TombstoneSet& operator=(const TombstoneSet&) = delete;

  /// Marks `id` deleted. Returns false (and changes nothing) if it
  /// already was.
  bool Add(std::uint32_t id);

  /// True while `id` is tombstoned (deleted and not yet purged).
  bool Contains(std::uint32_t id) const;

  /// Purges `ids` — a compaction has removed their rows from every index
  /// structure any live generation can still scan. Ids not present are
  /// ignored.
  void Erase(const std::vector<std::uint32_t>& ids);

  /// Current number of tombstoned ids.
  std::size_t size() const;

  /// The tombstoned ids, ascending (the persisted manifest's set).
  std::vector<std::uint32_t> SortedIds() const;

  /// An immutable point-in-time snapshot of the set; never null. The
  /// caller keeps it for the duration of one query and probes it without
  /// further synchronization. Mutations after the call do not alter the
  /// returned snapshot.
  std::shared_ptr<const std::unordered_set<std::uint32_t>> view() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_set<std::uint32_t> ids_;
  // Lazily rebuilt copy handed to readers; reset to null by mutations.
  mutable std::shared_ptr<const std::unordered_set<std::uint32_t>> cache_;
};

}  // namespace ingest
}  // namespace sofa

#endif  // SOFA_INGEST_TOMBSTONE_SET_H_
