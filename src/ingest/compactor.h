// The mutation front end of the incremental ingest path: inserts and
// deletes → one insert buffer + tombstones → background rebuild →
// WithShardReplaced republish, all under live traffic, with an optional
// write-ahead log making every accepted mutation survive a restart and
// an optional generation store making the *compacted* state itself
// durable — so restart cost is the WAL tail since the last compaction,
// not the full mutation history.
//
// A Compactor attaches to a SearchService serving a sharded generation
// and becomes its sole publisher. It owns one InsertBuffer — the last
// shard's, since every inserted id extends that shard's contiguous range
// — a TombstoneSet of deleted ids, and (when IngestConfig::wal_dir is
// set) a WriteAheadLog. Insert() assigns the next global collection id,
// logs the row, appends it to the buffer and publishes it to queries
// immediately through the live buffer — no snapshot republish per
// insert. Delete() logs and tombstones the id; queries mask tombstoned
// ids inside their tree and buffer scans immediately, whether the row
// lives in a tree or the buffer. Once a shard's pending work (the last
// shard's buffered rows, any shard's resident tombstones) reaches
// `compact_threshold`, a dedicated background thread rebuilds that
// shard's TreeIndex over (slice ∪ buffered rows) \ tombstones and
// republishes through ShardedIndex::WithShardReplaced +
// SearchService::Publish.
//
// Exactness invariant, held at every instant including mid-compaction:
// each generation's last-shard tree covers the buffer's rows below a cut
// offset and its buffer view starts exactly at the cut, so every live
// row is answered by exactly one of tree or buffer, and every deleted
// row by neither (masked by the tombstone set until a compaction
// physically removes it). A compaction samples the buffer size as the
// new cut and the tombstone set as the delete view, rebuilds over the
// live rows of [0, cut), and publishes with the view advanced to cut —
// queries in flight on the old generation keep the old cut (old tree +
// wider buffer range) and still filter the excluded ids, because their
// tombstones are only purged once every generation published before the
// compaction has retired (the same weak-reference tracking that bounds
// buffer-chunk reclamation). Rows deleted *during* a rebuild may land in
// the new tree; they stay masked and are removed by that shard's next
// compaction.
//
// The write path: every Insert/Delete stages into one commit queue under
// the mutation lock, and one caller — the leader — applies every queued
// mutation to the buffer + tombstones in staged (id) order; followers just
// wait for their record's fate. That queue is the only way a mutation
// becomes visible, with or without a log.
//
// Durability (IngestConfig::wal_dir): the leader first writes the queued
// records to the WAL as a single frame batch with one fflush and at most
// one fsync, so every mutation is logged *before* it becomes visible
// (see wal.h for framing and the crash-safety contract) and concurrent
// mutations group-commit. A failed batch rolls the log back to the last
// durable boundary, refuses every staged-but-unwritten mutation behind
// it and releases their ids for reuse, so a refused record can never
// replay.
//
// Persistence (IngestConfig::store): after each compaction publish the
// Compactor snapshots the full collection state — the published sharded
// generation, the buffered tail, the live tombstones, the id watermark —
// at a WAL fold point (the commit queue drained, the log rotated),
// persists it as an atomic generation directory, and only after that
// commit truncates the WAL below the rotation. Recovery
// (persist::GenerationStore::LoadLatest → MakeRecoveredBase → this
// constructor → Recover()) reassembles the generation and replays ONLY
// records past the manifest's fold point; a torn commit falls back to
// the previous generation, whose longer WAL tail is still intact
// because truncation never precedes the commit. Superseded generation
// directories are garbage-collected gated on the same publish-seq
// retirement logic that bounds buffer-chunk reclamation, and never past
// the newest committed generation.
//
// Still out of scope (ROADMAP follow-ons): summary-scheme retraining
// when the delta distribution drifts (rebuilt shards reuse the
// build-time scheme; exactness never depends on it, only pruning power
// does).

#ifndef SOFA_INGEST_COMPACTOR_H_
#define SOFA_INGEST_COMPACTOR_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "ingest/insert_buffer.h"
#include "ingest/tombstone_set.h"
#include "ingest/wal.h"
#include "obs/registry.h"
#include "persist/generation_store.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "shard/sharded_index.h"
#include "util/status.h"

namespace sofa {
namespace ingest {

// Mutation outcomes use the library-wide StatusCode taxonomy
// (util/status.h) — the same vocabulary the query path and the wire
// protocol report. For Insert: kOk (logged + buffered; visible to every
// query submitted after), kRejected (admission bound hit — compaction is
// behind, retry later), kInvalidArgument (refused permanently: wrong row
// length, or the 32-bit global-id space is exhausted), kShutdown,
// kIoError (WAL append failed — the row is NOT logged and NOT visible;
// the caller may retry). For Delete: kOk, kNotFound (no row with this id
// was ever inserted), kAlreadyDeleted (nothing to do, nothing logged),
// kShutdown, kIoError.

struct IngestConfig {
  /// Pending work per shard that triggers a background rebuild of that
  /// shard: buffered (uncompacted) rows plus tombstoned rows not yet
  /// physically removed — so sustained deletes compact (and purge their
  /// tombstones) even with no inserts flowing.
  std::size_t compact_threshold = 1024;

  /// Admission bound: inserts are rejected while the buffered rows not
  /// yet in a tree (staged-for-commit ones included) are at or beyond
  /// this (backpressure when compaction cannot keep up). Every such row
  /// sits in the one insert buffer each query scans, so the default does
  /// not grow with the shard count. 0 = 8 × compact_threshold.
  std::size_t max_pending = 0;

  /// When false, no threshold-triggered compactions run — only Flush()
  /// compacts (deterministic stepping for tests and benches).
  bool auto_compact = true;

  /// When non-empty, open (or create) a write-ahead log in this
  /// directory; every accepted Insert/Delete is appended there before it
  /// becomes visible, and Recover() replays any records already present.
  /// Empty (default): mutations are in-memory only.
  std::string wal_dir;

  /// WAL tuning (fsync batching, segment rotation); used only when
  /// wal_dir is set.
  WalConfig wal;

  /// When non-null, every compaction publish is persisted to this
  /// generation store and the WAL is truncated to the post-fold tail
  /// (see the class comment). The store must outlive the Compactor and
  /// have this Compactor as its only writer. Without a WAL the store
  /// still persists generations, but mutations between publishes do not
  /// survive a crash.
  persist::GenerationStore* store = nullptr;

  /// Metrics registry the compactor mirrors its counters into (as
  /// sofa_ingest_* instruments, refreshed on every Collect). Also passed
  /// through to the WAL (WalConfig::registry) unless that is set
  /// explicitly. Null (default): Metrics() is the only readout.
  obs::Registry* registry = nullptr;
};

/// Point-in-time ingest counters.
struct IngestMetrics {
  std::uint64_t inserted = 0;     // rows accepted
  std::uint64_t rejected = 0;     // rows bounced at admission
  std::uint64_t invalid = 0;      // rows refused (length mismatch)
  std::uint64_t deleted = 0;      // deletes accepted (incl. recovered)
  std::uint64_t io_errors = 0;    // mutations refused on WAL failure
  std::uint64_t compactions = 0;  // shard rebuilds published
  std::uint64_t persisted = 0;          // generation directories committed
  std::uint64_t persist_failures = 0;   // failed Persist() attempts
  std::size_t pending = 0;        // rows currently buffered, not yet in trees
  std::size_t tombstones = 0;     // deleted ids not yet purged by compaction
  std::size_t total_rows = 0;     // ids allocated: base + accepted inserts
                                  // (deleted rows included — the id space
                                  // never shrinks)
};

/// What Recover() replayed. `ok == false` means the log does not fit the
/// supplied base generation — a gap in the id sequence, a broken record
/// seqno chain (interior segment loss, or a log whose first record comes
/// after seqno 1 / the manifest's fold point + 1), or a delete of an
/// unknown id; everything applied up to the first inconsistency stays
/// applied, records after it are never applied, and the embedder must
/// refuse to serve.
struct RecoverStats {
  bool ok = true;
  std::uint64_t inserts_applied = 0;  // rows appended to the buffer
  std::uint64_t inserts_skipped = 0;  // ids the base already covers
  std::uint64_t deletes_applied = 0;  // tombstones restored
  std::uint64_t records_skipped = 0;  // records at or below the recovered
                                      // fold point (already in the base)
  std::uint64_t last_seqno = 0;       // seqno of the last record replayed
  bool tail_truncated = false;        // replay stopped at a torn/corrupt
                                      // record (see WalReplayStats)
  bool sequence_gap = false;          // interior records are gone (ok is
                                      // forced false)
};

/// The bootstrap state of a Compactor resuming from a persisted
/// generation (persist::GenerationStore::LoadLatest): everything the
/// manifest recorded beyond the reassembled index itself. Build with
/// MakeRecoveredBase and pass alongside the loaded generation's sharded
/// index; then call Recover() to replay the WAL tail.
struct RecoveredBase {
  std::uint64_t generation_seq = 0;  // publish seqs resume after this
  std::size_t route_total = 0;       // build-time partition total (routing)
  std::uint32_t next_id = 0;         // first unallocated global id
  std::uint64_t wal_last_seqno = 0;  // WAL records ≤ this are folded in
  std::vector<std::uint32_t> tombstones;
  // Rows already durable in the generation directory but not in its
  // trees — seeded into the insert buffer before tail replay (null rows =
  // an empty tail).
  std::shared_ptr<const Dataset> buffer_rows;
  std::vector<std::uint32_t> buffer_ids;
};

/// The manifest-side half of resuming from disk.
RecoveredBase MakeRecoveredBase(const persist::LoadedGeneration& loaded);

class Compactor {
 public:
  /// Attaches to `service`, which must currently serve (or be about to
  /// serve) `base`; the constructor publishes the initial ingesting
  /// generation (base trees + buffer + tombstones — empty on a fresh
  /// start, seeded from `recovered` when resuming from a persisted
  /// generation). While a Compactor is attached it must be the service's
  /// only publisher. Tree rebuilds run on `base`'s thread pool,
  /// competing with query tasks — compaction under live traffic by
  /// design. With config.wal_dir set the constructor opens the log
  /// (aborting via SOFA_CHECK when the directory cannot be created) but
  /// does not replay it — call Recover() before serving traffic if
  /// records may be present. `recovered`, when given, must describe the
  /// exact generation `base` was loaded from (MakeRecoveredBase).
  Compactor(service::SearchService* service,
            std::shared_ptr<const shard::ShardedIndex> base,
            IngestConfig config = IngestConfig{},
            const RecoveredBase* recovered = nullptr);

  /// Stops the compaction thread and syncs/closes the WAL. The service
  /// keeps serving the last published generation — already-buffered rows
  /// stay visible, they are just never compacted further.
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Inserts one row (`length` floats, z-normalized like the base
  /// collection). On kOk the row is logged (if a WAL is attached) and
  /// visible to every query submitted after this returns. Thread-safe;
  /// concurrent mutations group-commit through a shared WAL batch (one
  /// frame write + fsync for the whole batch). With fsync batching a
  /// power failure may lose up to WalConfig::sync_every acknowledged
  /// rows — a process crash loses nothing. On success the value is the
  /// assigned global collection id (usable in a later Delete()).
  StatusOr<std::uint32_t> Insert(const float* row, std::size_t length);

  /// Deletes the row with global id `id` (a base row or an inserted
  /// one). On kOk the id is logged and masked from every query submitted
  /// after this returns; the row is physically removed by its shard's
  /// next compaction, which also purges the tombstone once no in-flight
  /// generation can still surface it. Re-deleting an id returns
  /// kAlreadyDeleted whether its tombstone is still live or long purged.
  /// Thread-safe.
  Status Delete(std::uint32_t id);

  /// Replays the WAL into the buffer + tombstones. Must be called before
  /// the first Insert/Delete (SOFA_CHECK-enforced) and, for coherent
  /// answers, before queries are admitted. `base` must be exactly the
  /// generation the log was written against. Only a persist truncates
  /// the log, so its retained records must start no later than seqno 1
  /// — or, when the Compactor was constructed with a RecoveredBase, the
  /// manifest's fold point + 1, with records at or below the fold point
  /// skipped. A later start (a lost segment) flips `sequence_gap` and
  /// fails the recovery. No-op (ok, zero counts) without a WAL. Replayed
  /// records are NOT re-appended — the segments that hold them are
  /// retained until a persist truncates them.
  RecoverStats Recover();

  /// Persists the current collection state to IngestConfig::store right
  /// now (same fold-point protocol as the per-compaction persist) and
  /// truncates the WAL to the new tail. The bootstrap call of a fresh
  /// deployment — persist the base generation once so restarts need only
  /// the store + WAL. Returns kUnavailable without a store, kShutdown
  /// while stopping, kIoError on I/O failure (the WAL is then left
  /// untruncated; nothing is lost).
  Status PersistNow();

  /// Blocks until every mutation pending at call time is folded into the
  /// trees and published: buffered rows compacted in, tombstoned rows
  /// compacted out (their purge may still wait on in-flight generations
  /// retiring — see Metrics().tombstones).
  void Flush();

  IngestMetrics Metrics() const;

  /// The latest generation this compactor derived (base trees + all
  /// published compactions).
  std::shared_ptr<const shard::ShardedIndex> current() const;

  /// Shard that global id `id` routes to: the build-time AssignShard
  /// partition, with inserted ids (>= the build-time collection total)
  /// extending the last shard.
  std::size_t RouteShard(std::uint32_t id) const;

 private:
  // One mutation staged for group commit: its record and the caller's
  // result slot (the commit leader resolves `done`/`ok` for every record
  // of its batch).
  struct StagedMutation {
    bool is_insert = true;
    std::uint32_t id = 0;
    // Inserts only: the caller's row, which stays valid because the
    // caller waits until its mutation is resolved.
    const float* row = nullptr;
    bool done = false;
    bool ok = false;
  };

  void CompactorLoop();
  void CompactShard(std::size_t s);
  std::size_t ShardWorkLocked(std::size_t s) const;
  bool CompactionDueLocked() const;
  bool HasMutationWorkLocked() const;
  std::shared_ptr<const service::ShardBuffers> MakeBuffers(
      std::size_t start) const;
  void PublishLocked(std::shared_ptr<const shard::ShardedIndex> sharded,
                     std::unique_lock<std::mutex>* lock,
                     std::vector<std::uint32_t> purgeable = {});
  void TrimRetiredLocked();
  std::uint64_t MinLiveSeqLocked() const;
  // Group commit (see the class comment). CommitStaged blocks until
  // `entry` is resolved, becoming the batch leader when none is active;
  // LeaderCommitLocked writes and applies (or fails) one whole batch;
  // DrainCommitQueueLocked retires every staged mutation (the persist
  // path's barrier step).
  bool CommitStaged(std::unique_lock<std::mutex>* lock,
                    const std::shared_ptr<StagedMutation>& entry);
  void LeaderCommitLocked(std::unique_lock<std::mutex>* lock);
  // Tombstones `id`; false when it already was (a duplicate delete).
  bool ApplyDeleteLocked(std::uint32_t id);
  void DrainCommitQueueLocked(std::unique_lock<std::mutex>* lock);
  bool PersistLocked(std::unique_lock<std::mutex>* lock);
  // Mirrors the locked counters into the registry instruments; runs as a
  // registry collect hook (outside the registry mutex — see Registry).
  void SyncRegistry();

  service::SearchService* service_;
  IngestConfig config_;
  const std::size_t base_total_;  // collection size the partition was built at
  const std::size_t length_;
  const std::size_t num_shards_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // compaction thread wakeups
  std::condition_variable flush_cv_;  // Flush() waiters
  std::condition_variable commit_cv_;  // group-commit followers + barrier
  std::shared_ptr<const shard::ShardedIndex> sharded_;  // latest generation
  std::shared_ptr<InsertBuffer> buffer_;  // the last shard's delta set
  std::shared_ptr<TombstoneSet> tombstones_;  // live, shared with snapshots
  // Every id ever deleted, purged or not — Delete() statuses must tell
  // "already deleted" from "never existed" even after the tombstone was
  // purged. Never shrinks; a resumed Compactor rebuilds it from the
  // manifest (its tombstones plus every id it no longer holds).
  std::unordered_set<std::uint32_t> deleted_ever_;
  std::unique_ptr<WriteAheadLog> wal_;        // null without wal_dir
  std::size_t tree_covered_ = 0;  // buffer rows in the last shard's tree
  // Per shard: tombstoned ids not yet physically removed from that
  // shard's structures. Counts toward the compaction trigger, so a
  // delete-only workload still compacts, purges its tombstones, and
  // keeps the tombstone set every query masks against bounded.
  std::vector<std::size_t> shard_tombstoned_;
  // Group-commit state: staged mutations awaiting a leader, whether a
  // leader is mid-write, staged-insert count (admission accounting), and
  // the persist barrier that pauses staging while a fold point is taken.
  std::deque<std::shared_ptr<StagedMutation>> commit_queue_;
  bool commit_leader_active_ = false;
  std::size_t staged_inserts_ = 0;
  bool persist_barrier_ = false;
  // One persist at a time: PersistLocked releases the lock for the heavy
  // store I/O, and a concurrent PersistNow() (or the compaction thread)
  // must not start a second fold/commit meanwhile.
  bool persist_in_flight_ = false;
  // The fold point last committed: a PersistNow() with nothing new since
  // (same publish, same WAL position) is a no-op, not a directory churn.
  std::uint64_t persisted_seq_ = 0;
  std::uint64_t persisted_wal_seqno_ = 0;
  std::uint32_t next_id_;
  std::uint32_t id_base_;          // initial next_id (metrics)
  std::uint64_t wal_skip_seqno_ = 0;  // Recover() skips records ≤ this
  std::size_t pending_ = 0;
  std::uint64_t inserted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t invalid_ = 0;
  std::uint64_t deleted_ = 0;
  std::uint64_t io_errors_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t persisted_ = 0;
  std::uint64_t persist_failures_ = 0;
  std::uint64_t publish_seq_ = 0;  // generations published, monotonic
  bool recovered_ = false;         // Recover() may run at most once
  bool flush_requested_ = false;
  bool stopping_ = false;

  // Published generations still possibly in flight (weak: expired entries
  // are pruned); per entry, the buffer start it scans from and its
  // publish sequence number. The minimum start across live entries
  // bounds what TrimBelow may drop; the minimum sequence bounds which
  // queued tombstone purges may apply — and which persisted generation
  // directories GC may remove.
  struct LiveGeneration {
    std::weak_ptr<const service::IndexSnapshot> snapshot;
    std::size_t start = 0;
    std::uint64_t seq = 0;
  };
  std::vector<LiveGeneration> live_;

  // Tombstones a compaction excluded from a rebuilt shard, purgeable
  // once every generation published before `seq` has retired.
  // `pending_purge_ids_` mirrors the queued ids as a set so CompactShard
  // can tell an already-queued tombstone from a phantom one.
  struct PendingPurge {
    std::uint64_t seq = 0;
    std::vector<std::uint32_t> ids;
  };
  std::vector<PendingPurge> pending_purges_;
  std::unordered_set<std::uint32_t> pending_purge_ids_;

  // sofa_ingest_* instruments (null without IngestConfig::registry).
  // Counters are Set(), not Add()ed, from the locked counters above:
  // those are the one source of truth (seeded from the manifest when
  // resuming), mirrored on each Collect so mutations never touch the
  // registry.
  obs::Counter* ing_counters_[8] = {nullptr, nullptr, nullptr, nullptr,
                                    nullptr, nullptr, nullptr, nullptr};
  obs::Gauge* ing_pending_ = nullptr;
  obs::Gauge* ing_tombstones_ = nullptr;
  obs::Gauge* ing_total_rows_ = nullptr;
  std::uint64_t collect_hook_id_ = 0;
  bool collect_hook_registered_ = false;

  std::thread compaction_thread_;
};

}  // namespace ingest
}  // namespace sofa

#endif  // SOFA_INGEST_COMPACTOR_H_
