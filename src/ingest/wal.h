// Write-ahead log for the ingest path: the durability half of "durable
// mutability" (ROADMAP: "a write-ahead log so inserts survive restarts").
//
// Every accepted mutation — insert(id, row) or delete(id) — is appended
// to an on-disk record stream *before* it becomes visible to queries.
// After a crash, Compactor::Recover replays the stream on top of the
// reloaded base generation and reconstructs exactly the insert buffer
// and tombstones the process held when it died, so answers after recovery
// are bit-identical to the uninterrupted run.
//
// On-disk layout (full byte-level spec in docs/FILE_FORMATS.md): the log
// is a directory of numbered segment files, each a fixed header followed
// by CRC32-framed records:
//
//   segment  := header record*
//   header   := magic "SOFAWAL2" | u64 segment_seq | u64 series_length
//             | u64 first_seqno
//   record   := u32 payload_size | u32 crc32(seqno | payload)
//             | u64 seqno | payload
//   payload  := u8 type | body          (insert / delete)
//
// Every record carries a global sequence number, contiguous from 1
// across segments and record types. The CRC framing makes a torn tail
// detectable (replay stops cleanly at the first incomplete or
// mismatching frame); the seqno chain makes *interior* loss detectable:
// replay tracks the expected next seqno across segment boundaries, and a
// retained segment whose first record does not continue the chain means
// a whole segment (or its trusted prefix) went missing — flagged as
// `sequence_gap`, where replay stops and which consumers must treat as
// refuse-to-serve, unlike the benign `tail_truncated` crash pattern. A
// writer never appends to an existing segment (the tail may be torn) —
// Open always starts a fresh segment after the highest retained one,
// continuing the seqno chain from the last valid record on disk.
//
// Truncation — the persist::GenerationStore fold point is the only way
// segments are removed: the Compactor captures the full collection state
// at sequence number L, rotates so that records ≤ L live strictly below
// the returned segment, persists the generation directory, and only
// after that commit truncates the segments below the rotation point
// (Rotate + TruncateBelow). The manifest records L; recovery replays
// only records with seqno > L — the "WAL tail". A crash between commit
// and truncation merely leaves stale segments whose records are skipped
// as already folded in. So a log's first retained record is seqno 1, or
// at most one past its manifest's fold point; a later start is a gap.
//
// Fsync policy: appends are buffered and fflush()ed per batch (visible
// to a reader immediately), but fsync()ed only every `sync_every`
// records — classic group-commit batching, one fsync covering a whole
// concurrent batch (see Compactor's staged commit queue). A power
// failure can lose at most the records since the last sync; Sync(),
// Rotate and the destructor always force one.
//
// Thread-safety: the writer methods are NOT internally synchronized —
// the Compactor guarantees one writer at a time (the group-commit
// leader, or the persist path holding the mutation lock with the commit
// queue drained). TruncateBelow only unlinks closed files below the
// writer's current segment and may run concurrently with appends.
// Replay (static) touches only closed files.

#ifndef SOFA_INGEST_WAL_H_
#define SOFA_INGEST_WAL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace sofa {
namespace ingest {

/// Writer tuning knobs.
struct WalConfig {
  /// Rotate to a new segment once the current one reaches this size.
  std::size_t segment_bytes = 64ull << 20;

  /// fsync after this many appended records (1 = every record — maximal
  /// durability, minimal throughput; 0 = only on Sync()/rotation/
  /// close). The unsynced window is what a power failure can lose.
  std::size_t sync_every = 64;

  /// When non-null the writer registers its instruments here (fsync
  /// count/latency, appended records, group-commit batch sizes, segments
  /// opened) — see docs/OBSERVABILITY.md. The registry must outlive the
  /// log.
  obs::Registry* registry = nullptr;
};

/// Record kinds in the stream (the on-disk u8 tag). Tag 3 stays
/// unassigned: older logs may hold it, and replay must keep stopping at
/// it like at any unknown tag (docs/FILE_FORMATS.md).
enum class WalRecordType : std::uint8_t {
  kInsert = 1,  // id + row payload
  kDelete = 2,  // id
};

/// One decoded record, as handed to the replay callback.
struct WalRecord {
  WalRecordType type = WalRecordType::kInsert;
  std::uint64_t seqno = 0;  // global, contiguous from 1
  std::uint32_t id = 0;
  std::vector<float> row;   // kInsert only
};

/// One staged record of a group-commit batch (see AppendBatch). `row`
/// must stay valid until the call returns and hold the series length
/// passed to Open; it is read only for kInsert.
struct WalAppend {
  WalRecordType type = WalRecordType::kInsert;
  std::uint32_t id = 0;
  const float* row = nullptr;  // kInsert only
};

/// What a replay pass saw.
struct WalReplayStats {
  std::uint64_t segments = 0;     // segment files visited
  std::uint64_t inserts = 0;      // insert records delivered
  std::uint64_t deletes = 0;      // delete records delivered
  std::uint64_t first_seqno = 0;  // seqno of the first delivered record
  std::uint64_t last_seqno = 0;   // seqno of the last delivered record
  /// True when replay stopped at a torn or corrupt record instead of a
  /// clean end-of-stream; everything delivered before it is trustworthy.
  bool tail_truncated = false;
  /// True when the seqno chain broke: a retained segment's first record
  /// does not continue where the previous segment's trusted prefix
  /// ended (or where `expected_first_seqno` said the stream must
  /// start). Unlike tail_truncated this means interior records are
  /// GONE — acknowledged mutations may be lost — so replay delivers no
  /// record past the break, and consumers must refuse to serve from this
  /// log (Compactor::Recover does).
  bool sequence_gap = false;
};

class WriteAheadLog {
 public:
  /// Opens `dir` (created if missing) for rows of `length` floats and
  /// starts a fresh segment after the highest existing one, continuing
  /// the record sequence from the last valid record on disk. Existing
  /// segments are left untouched — replay them first (Replay /
  /// Compactor::Recover) if their records matter. Returns nullptr when
  /// the directory or first segment cannot be created.
  static std::unique_ptr<WriteAheadLog> Open(const std::string& dir,
                                             std::size_t length,
                                             WalConfig config = WalConfig{});

  /// Replays every retained record in segment order, invoking `apply`
  /// per record. A torn, corrupt or unknown-type record stops the
  /// current *segment* cleanly (flagged via
  /// WalReplayStats::tail_truncated) and replay continues with the next
  /// segment — the crash-then-reopen pattern. The per-record seqno chain
  /// is validated across segments: a discontinuity, at a segment header
  /// or at a record, flips `sequence_gap` (interior loss — refuse) and
  /// ends the replay, instead of being mistaken for the benign torn
  /// tail; records skipped behind an unknown-type record show up that
  /// way too, as the next segment's header lies past them.
  /// `expected_first_seqno`, when nonzero, additionally requires the
  /// first delivered record's seqno to be at most that value —
  /// Compactor::Recover passes (manifest last_seqno + 1), or 1 for a log
  /// without a manifest, so a WAL whose retained records start *after*
  /// that point (a deleted or lost segment) is refused rather than
  /// silently replayed with a hole. A missing or empty directory replays
  /// nothing; segments whose header does not match `length` are skipped
  /// as foreign and flagged tail_truncated.
  static WalReplayStats Replay(
      const std::string& dir, std::size_t length,
      const std::function<void(const WalRecord&)>& apply,
      std::uint64_t expected_first_seqno = 0);

  /// Segment files currently in `dir`, sorted by sequence number —
  /// exposed for tests and operational tooling.
  static std::vector<std::string> ListSegments(const std::string& dir);

  /// Syncs and closes the current segment.
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record; returns false on I/O failure, in which case the
  /// record must be treated as not logged (the Compactor then refuses
  /// the mutation and a later accepted record may reuse the id and
  /// seqno): the frame is rolled back to the previous record boundary so
  /// a refused record cannot replay. A failure never bricks the log —
  /// the next append retries, rotating to a fresh segment if the current
  /// one was abandoned. Residual double-fault window: when both the
  /// fsync of a fully written frame AND the rollback ftruncate fail, the
  /// refused frame stays on disk and would replay under the reused id.
  /// `row` must have the series length passed to Open.
  bool AppendInsert(std::uint32_t id, const float* row);
  bool AppendDelete(std::uint32_t id);

  /// Appends a whole batch of insert/delete records as consecutive
  /// frames with ONE buffered write, one fflush and (per sync policy)
  /// one fsync — the group-commit fast path: N concurrent mutations pay
  /// one I/O round instead of N. All-or-nothing: on failure the segment
  /// rolls back to the batch's start boundary, no record of the batch
  /// replays, and every staged id/seqno may be reused.
  bool AppendBatch(const std::vector<WalAppend>& batch);

  /// Syncs and closes the current segment and opens a fresh one, whose
  /// sequence number is returned in `new_segment_seq`. Every record
  /// appended before the call lives in segments strictly below it — the
  /// persist path's fold point: capture state, Rotate, persist, then
  /// TruncateBelow(new_segment_seq) once the generation commit is
  /// durable. On failure the log stays reopenable by the next append
  /// and `new_segment_seq` is untouched.
  bool Rotate(std::uint64_t* new_segment_seq);

  /// Unlinks every segment whose sequence number is below
  /// `keep_segment_seq` (clamped to the segment currently being
  /// written). Only sound after the records in those segments are
  /// durable elsewhere — i.e. after the generation directory recording
  /// the fold point has committed. Safe to call while appends run: it
  /// touches only closed files below the writer's segment.
  void TruncateBelow(std::uint64_t keep_segment_seq);

  /// Forces buffered records to stable storage (fsync).
  bool Sync();

  const std::string& dir() const { return dir_; }

  /// Sequence number of the segment currently being written.
  std::uint64_t segment_seq() const { return seq_; }

  /// Sequence number of the last successfully appended record (0 when
  /// nothing was ever appended to this log directory).
  std::uint64_t last_seqno() const { return next_seqno_ - 1; }

  /// Records appended since the last fsync (0 right after a sync).
  std::size_t unsynced_records() const { return unsynced_; }

 private:
  WriteAheadLog(std::string dir, std::size_t length, WalConfig config);

  bool OpenSegment(std::uint64_t seq);
  bool CloseSegment(bool sync);
  bool AppendFrames(const std::vector<std::vector<unsigned char>>& payloads);
  bool FsyncTimed();  // fsync(file_) + fsync count/latency instruments

  const std::string dir_;
  const std::size_t length_;
  const WalConfig config_;
  std::FILE* file_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint64_t next_seqno_ = 1;  // seqno the next record will carry
  std::size_t segment_size_ = 0;
  std::size_t unsynced_ = 0;

  // Registry instruments; null when WalConfig::registry is unset.
  obs::Counter* fsync_total_ = nullptr;
  obs::Histogram* fsync_ms_ = nullptr;
  obs::Counter* records_total_ = nullptr;
  obs::Counter* segments_total_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
};

}  // namespace ingest
}  // namespace sofa

#endif  // SOFA_INGEST_WAL_H_
