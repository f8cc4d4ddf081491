// Durable generation store — the crash-consistent persistence layer that
// turns the ingest path's in-memory generations into an operable,
// restartable deployment — and the only thing that truncates the WAL:
// a segment is removed only once a committed generation covers it.
//
// A *generation* on disk is one directory holding everything needed to
// restart a serving process into the exact answer set it was publishing:
//
//   <root>/gen-<seq>/
//     MANIFEST           versioned, CRC-framed commit record (written last)
//     shard-<s>.idx      shard s's tree + scheme (index::SaveIndex format)
//     shard-<s>.rows     shard s's tree-covered slice: rows + global ids
//     shard-<s>.tail     rows buffered past the tree cut: only the last
//                        shard's holds rows (it owns the one insert
//                        buffer); every other shard's is an empty slice
//     shard-<s>.rq       shard s's quantized pruning sidecar (only when
//                        the compressed tier was on at persist time)
//
// The manifest records the generation's publish sequence number, the id
// watermark (`next_id`), the build-time partition total that contiguous
// global-id routing depends on, the live tombstone snapshot, the WAL fold point
// (last folded record seqno + first tail segment), and a byte size +
// CRC32 for every shard file — so a load can prove each slice intact and
// a restart can replay exactly the WAL records the directory does not
// already cover. FAISS-style serving stacks treat such versioned index
// artifacts as the unit of deployment and recovery (Johnson et al.,
// billion-scale similarity search); this store is that unit for the
// sharded ingest path.
//
// Commit protocol (write-temp + fsync + rename): Persist() stages the
// whole directory as <root>/gen-<seq>.tmp, fsyncs every file and the
// staged directory, renames it to its final name, and fsyncs <root>. The
// rename is the commit point — a crash at any earlier moment leaves only
// a .tmp husk that loaders ignore and the next GC sweeps; a crash after
// it leaves a fully valid generation. Readers (LoadLatest) walk
// committed directories newest-first and fall back across any that fail
// validation (torn manifest, missing or corrupt shard file), so the
// newest *provably intact* generation wins. Unchanged shard files are
// hardlinked from the previous committed generation when possible
// (compaction replaces one shard per publish; the other N-1 slices are
// bit-identical), so the steady-state persist cost is O(changed shard +
// buffered tail), not O(collection).
//
// Garbage collection: RemoveGenerationsBelow(seq) deletes committed
// directories (and stale .tmp husks) below `seq`. The Compactor gates
// its calls on the publish-seq retirement logic that already bounds
// buffer-chunk reclamation AND on the newest commit having succeeded, so
// the directory a fallback recovery would need is never deleted while a
// newer commit could still be torn. The store is single-writer:
// exactly one process persists and GCs a given root at a time (the
// serving process owning the WAL); concurrent *loads* are safe — a
// directory GC'd mid-load just fails validation and falls back.

#ifndef SOFA_PERSIST_GENERATION_STORE_H_
#define SOFA_PERSIST_GENERATION_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "obs/registry.h"
#include "shard/sharded_index.h"
#include "util/thread_pool.h"

namespace sofa {
namespace persist {

/// Per-shard file accounting inside a manifest: byte size + CRC32 of
/// each shard file, plus the shard's lineage counter
/// (shard::Shard::generation) that hardlink reuse keys on. rq_bytes == 0
/// means the shard has no quantized sidecar (tier off at persist time) —
/// loaders asked for the tier rebuild the sidecar from the slice instead.
struct ManifestShard {
  std::uint64_t shard_generation = 0;
  std::uint64_t index_bytes = 0;
  std::uint32_t index_crc = 0;
  std::uint64_t slice_bytes = 0;
  std::uint32_t slice_crc = 0;
  std::uint64_t tail_bytes = 0;
  std::uint32_t tail_crc = 0;
  std::uint64_t rq_bytes = 0;  // 0 = no sidecar persisted
  std::uint32_t rq_crc = 0;
};

/// The decoded commit record of one generation directory.
struct GenerationManifest {
  std::uint64_t generation_seq = 0;  // publish sequence number
  std::uint64_t next_id = 0;         // first unallocated global id
  std::uint64_t route_total = 0;     // build-time partition total (routing)
  std::uint64_t series_length = 0;
  std::uint64_t wal_last_seqno = 0;  // WAL records ≤ this are folded in
  std::uint64_t wal_segment_seq = 0; // first segment of the WAL tail
  std::vector<std::uint32_t> tombstones;  // live (un-purged), sorted
  std::vector<ManifestShard> shards;
};

/// Everything Persist() snapshots of one published generation. All
/// handles must stay valid for the duration of the call; `sharded` is
/// immutable and `buffer_rows`/`buffer_ids` are the caller's copy of the
/// insert buffer's rows past the last shard's tree cut (ascending global
/// ids; null rows = an empty tail).
struct PersistRequest {
  std::uint64_t generation_seq = 0;
  std::uint64_t next_id = 0;
  std::uint64_t route_total = 0;
  std::uint64_t wal_last_seqno = 0;
  std::uint64_t wal_segment_seq = 0;
  std::shared_ptr<const shard::ShardedIndex> sharded;
  std::shared_ptr<const Dataset> buffer_rows;
  std::vector<std::uint32_t> buffer_ids;
  std::vector<std::uint32_t> tombstones;  // sorted
};

/// A generation reloaded from disk: the reassembled sharded index plus
/// the buffered tail (the last shard's) and bookkeeping a Compactor needs
/// to resume exactly where the manifest's fold point left off (see
/// ingest::RecoveredBase).
struct LoadedGeneration {
  GenerationManifest manifest;
  std::shared_ptr<const shard::ShardedIndex> sharded;
  std::shared_ptr<const Dataset> buffer_rows;
  std::vector<std::uint32_t> buffer_ids;
};

class GenerationStore {
 public:
  /// Opens (creating if missing) the store rooted at `root`. Returns
  /// nullptr when the directory cannot be created. With `registry` set
  /// the store publishes sofa_persist_* instruments there (commit
  /// duration, fsync count, GC-reclaimed bytes); the registry must
  /// outlive the store.
  static std::unique_ptr<GenerationStore> Open(
      const std::string& root, obs::Registry* registry = nullptr);

  /// Committed generation sequence numbers, ascending. (.tmp husks and
  /// foreign files are ignored.)
  std::vector<std::uint64_t> ListGenerations() const;

  /// Atomically persists one generation (see the commit protocol above).
  /// Returns false on any I/O failure, in which case no committed
  /// directory was created or modified — at most a .tmp husk remains for
  /// the next GC. Thread-compatible: one Persist/GC caller at a time.
  bool Persist(const PersistRequest& request);

  /// Loads the newest committed generation that validates end to end
  /// (manifest CRC, assignment byte 0, per-file sizes and CRCs, index
  /// deserialization, rows in no tail but the last shard's), falling back
  /// across torn or corrupt ones; nullopt when none loads. `pool` backs
  /// the reassembled index's rebuilds and multi-threaded searches and
  /// must outlive it. With `enable_rowq` the reassembled shards carry the
  /// compressed pruning tier: persisted shard-<s>.rq sidecars are
  /// validated and attached, and shards without one (tier off at persist
  /// time) get a sidecar rebuilt on-the-fly from the slice; the loaded
  /// ShardingConfig then has enable_rowq set so post-restart compactions
  /// keep the tier.
  std::optional<LoadedGeneration> LoadLatest(ThreadPool* pool,
                                             bool enable_rowq = false) const;

  /// Loads one specific committed generation (test/tooling entry point);
  /// nullopt when it does not validate. Same `enable_rowq` contract as
  /// LoadLatest.
  std::optional<LoadedGeneration> LoadGeneration(
      std::uint64_t seq, ThreadPool* pool, bool enable_rowq = false) const;

  /// Deletes every committed generation directory with sequence number
  /// below `keep_seq`, plus any staging husk below it. See the GC
  /// contract above.
  void RemoveGenerationsBelow(std::uint64_t keep_seq);

  const std::string& root() const { return root_; }

 private:
  GenerationStore(std::string root, obs::Registry* registry);

  std::string GenerationDir(std::uint64_t seq) const;
  bool PersistImpl(const PersistRequest& request, std::uint64_t* fsyncs);

  const std::string root_;

  // sofa_persist_* instruments (null without a registry).
  obs::Histogram* commit_ms_ = nullptr;
  obs::Counter* fsync_total_ = nullptr;
  obs::Counter* gc_reclaimed_bytes_ = nullptr;

  // Hardlink-reuse memo: the last manifest this *process* committed and
  // its directory. Empty after open — the first persist of a process
  // writes every file fresh.
  std::optional<GenerationManifest> last_manifest_;
  std::string last_dir_;
};

}  // namespace persist
}  // namespace sofa

#endif  // SOFA_PERSIST_GENERATION_STORE_H_
