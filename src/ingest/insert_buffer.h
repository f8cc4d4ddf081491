// The mutable half of the incremental ingest path (insert buffer →
// rebuild of the last shard → WithShardReplaced republish).
//
// An InsertBuffer is the append-only delta set of an ingesting
// generation: rows inserted since the last shard's tree was last rebuilt
// (every inserted id extends that shard's contiguous range), each
// carrying its global collection id. Queries answer exactly over
// (trees ∪ buffer) \ tombstones, FAISS-style (Johnson et al.,
// billion-scale similarity search: a pruned index over the bulk plus a
// brute-force flat scan over a small delta): the last shard's TreeIndex
// covers the compacted prefix and the buffer is scanned flat into the
// query's one result set (Scan), with deleted ids masked inline.
// The scan uses the same early-abandoning SIMD distance kernel as the tree
// engine (not the flat index's ‖x‖²+‖y‖²−2x·y trick, whose rounding
// differs), so a row reports the *bit-identical* distance whether it is
// answered from the buffer or — after compaction — from the tree.
//
// Storage is chunked: rows live in fixed-capacity 64-byte-aligned chunks
// that never move or reallocate, so readers scan without copying while a
// writer appends. All methods are thread-safe; appends serialize on an
// internal mutex, scans briefly take the same mutex to snapshot the chunk
// list and published row count, then run lock-free. Rows already handed
// to a rebuilt tree are reclaimed chunk-wise via TrimBelow once no live
// generation can still scan them (the Compactor tracks that).

#ifndef SOFA_INGEST_INSERT_BUFFER_H_
#define SOFA_INGEST_INSERT_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "core/dataset.h"
#include "index/result_set.h"
#include "quant/rowq.h"
#include "util/aligned.h"

namespace sofa {
namespace ingest {

class InsertBuffer {
 public:
  /// Work counters of buffer scans (Scan accumulates into them) — the
  /// per-buffer slice of QueryProfile accounting.
  struct ScanStats {
    std::size_t scanned = 0;       // non-masked rows considered
    std::size_t masked = 0;        // tombstoned rows skipped unscanned
    std::size_t ed_computed = 0;   // early-abandoning distance evaluations
    std::size_t rowq_checked = 0;  // quantized lower bounds evaluated
    std::size_t rowq_pruned = 0;   // rows cut before any float row access
  };

  /// Buffer for rows of `length` floats, stored in chunks of
  /// `chunk_capacity` rows. With `quantizer` set (the compressed pruning
  /// tier of the owning shard), every appended row also gets a quantized
  /// code, and scans prune on the quantized lower bound before touching
  /// float rows — answers stay bit-identical to the unquantized buffer.
  explicit InsertBuffer(
      std::size_t length, std::size_t chunk_capacity = 1024,
      std::shared_ptr<const quant::RowQuantizer> quantizer = nullptr);

  InsertBuffer(const InsertBuffer&) = delete;
  InsertBuffer& operator=(const InsertBuffer&) = delete;

  /// Appends one row (length() floats, z-normalized like the base
  /// collection) carrying `global_id`, and returns the buffer size after
  /// the append. Callers must append global ids in ascending order — the
  /// ascending-global-ids invariant of compacted shards relies on it.
  std::size_t Append(const float* row, std::uint32_t global_id);

  /// Rows ever appended (monotonic; trims do not shrink it).
  std::size_t size() const;

  /// First row offset still retained (everything below was trimmed).
  std::size_t first_retained() const;

  std::size_t length() const { return length_; }

  /// The flat scan: offers rows [begin, size()-at-call) under their
  /// global ids to a result set that other scans of the same query share
  /// (the tree phases of an ingesting generation's search), so every row
  /// is pruned against, and may tighten, the one shared bound; ties
  /// resolve to the lowest global id inside the set. Rows whose global id
  /// is in `exclude` (the live tombstone view of the generation being
  /// queried) are masked: skipped without a distance evaluation, exactly
  /// as if the row had never been inserted. `stats` (required)
  /// accumulates. `begin` must be >= first_retained(). Thread-safe
  /// against concurrent appends and trims; the scan sees every row
  /// published before the call.
  void Scan(const float* query, std::size_t begin,
            const std::unordered_set<std::uint32_t>* exclude,
            index::ResultSet* results, ScanStats* stats) const;

  /// Copies rows [begin, end) into `rows` from row `at` on, and appends
  /// their global ids to `ids` — the compaction handoff into the rebuilt
  /// shard slice, whose storage the caller sizes once (`rows` must hold
  /// at + end − begin rows). Rows whose global id is in `exclude` are
  /// dropped instead (the delete-before-compaction case: a tombstoned
  /// buffered row must not enter the rebuilt tree) and their ids are
  /// appended to `excluded` when non-null, so the compaction can queue
  /// the tombstones for purging once no live generation still scans this
  /// range.
  void CopyRange(std::size_t begin, std::size_t end, Dataset* rows,
                 std::size_t at, std::vector<std::uint32_t>* ids,
                 const std::unordered_set<std::uint32_t>* exclude = nullptr,
                 std::vector<std::uint32_t>* excluded = nullptr) const;

  /// Releases whole chunks lying entirely below row offset `offset`.
  /// Only safe once no live generation scans from below `offset`; scans
  /// already in flight keep their chunks alive via shared ownership.
  void TrimBelow(std::size_t offset);

 private:
  // One fixed-capacity chunk; `rows` is pre-sized so row storage never
  // moves after construction. With a quantizer, `codes`/`prunable` hold
  // the quantized sidecar (row at slot `at` starts at at*padded codes).
  struct Chunk {
    Chunk(std::size_t length, std::size_t capacity, std::size_t padded)
        : rows(capacity, length), ids(capacity, 0), codes(capacity * padded),
          prunable(capacity, 0) {}
    Dataset rows;
    std::vector<std::uint32_t> ids;
    AlignedVector<std::uint8_t> codes;  // empty when unquantized
    std::vector<std::uint8_t> prunable;
  };

  // Snapshot of the readable state: chunks (shared — survive a concurrent
  // trim), the offset of chunks[0], and the published row count.
  struct View {
    std::vector<std::shared_ptr<const Chunk>> chunks;
    std::size_t base = 0;
    std::size_t count = 0;
  };
  View Snapshot() const;

  const std::size_t length_;
  const std::size_t chunk_capacity_;
  const std::shared_ptr<const quant::RowQuantizer> quantizer_;  // may be null

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Chunk>> chunks_;  // chunk c starts at row
                                                // base_ + c * chunk_capacity_
  std::size_t base_ = 0;   // offset of chunks_[0] (chunk-aligned)
  std::size_t count_ = 0;  // rows ever appended
};

}  // namespace ingest
}  // namespace sofa

#endif  // SOFA_INGEST_INSERT_BUFFER_H_
