// The unit of index hot-swapping: an immutable bundle of everything one
// published index generation needs to stay alive while queries run
// against it.
//
// SearchService publishes snapshots behind a std::shared_ptr; every query
// acquires the pointer when it starts and holds it until it is answered,
// so a Publish() of a rebuilt or freshly loaded generation
// (shard::LoadShardedIndex) never invalidates an in-flight query — the
// old generation is destroyed when its last running query drops the
// reference.
//
// A generation is always a shard::ShardedIndex — one shard for a single
// tree, N for a partitioned collection — so a query is one
// index::QueryEngine search over all shard trees, and a derived
// generation (one shard rebuilt or replaced) republishes through the
// same path.
//
// An *ingesting* generation additionally carries ShardBuffers: the live
// insert buffer, which the last shard owns (every inserted id extends its
// contiguous range), plus the first buffer row the last shard's tree does
// NOT cover, plus the live tombstone set of deleted ids. The query's
// search then also scans the buffer rows [start, live size) into the
// same result set as the trees, masking tombstoned rows inside every
// scan — so rows inserted after the generation was published are visible
// immediately and rows deleted after it vanish immediately, with no
// republish per mutation — and every live row is answered exactly once
// (tree below the cut, buffer at or above it). Compacting the last shard
// publishes a derived generation whose rebuilt tree covers the live rows
// up to a new cut, with start advanced to match; the tombstones a
// compaction folded away are purged once every older generation retires.

#ifndef SOFA_SERVICE_SNAPSHOT_H_
#define SOFA_SERVICE_SNAPSHOT_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "ingest/insert_buffer.h"
#include "ingest/tombstone_set.h"
#include "shard/sharded_index.h"

namespace sofa {
namespace service {

/// The mutable delta set of an ingesting generation. `start` is the
/// first row of `buffer` the generation's last-shard tree does not
/// already cover. `tombstones` is the generation's view of deleted global
/// ids: a query takes one immutable snapshot of it (TombstoneSet::view)
/// and masks those ids inside the tree and buffer scans. The struct
/// itself is immutable per generation (compaction republishes with an
/// advanced start); the buffer and tombstone set it points at are live
/// and internally synchronized, which is what makes mutations visible
/// between publishes.
struct ShardBuffers {
  std::shared_ptr<const ingest::InsertBuffer> buffer;
  std::size_t start = 0;
  std::shared_ptr<const ingest::TombstoneSet> tombstones;
};

/// One published index generation: the shard trees, plus the live
/// buffer and tombstones when the generation is ingesting. The
/// ShardedIndex shares ownership of its shards, so the snapshot keeps the
/// whole generation alive.
struct IndexSnapshot {
  std::shared_ptr<const shard::ShardedIndex> sharded;

  /// Set only on an ingesting generation (see header comment).
  std::shared_ptr<const ShardBuffers> buffers;

  bool is_ingesting() const { return buffers != nullptr; }

  /// Series length queries against this generation must have.
  std::size_t series_length() const { return sharded->length(); }
};

/// Wraps a read-only generation.
inline std::shared_ptr<const IndexSnapshot> WrapShardedIndex(
    std::shared_ptr<const shard::ShardedIndex> sharded) {
  auto snapshot = std::make_shared<IndexSnapshot>();
  snapshot->sharded = std::move(sharded);
  return snapshot;
}

/// Wraps an ingesting generation: the trees of `sharded` plus the
/// live insert buffer and tombstone set (the ingest::Compactor's publish
/// path).
inline std::shared_ptr<const IndexSnapshot> WrapIngestingIndex(
    std::shared_ptr<const shard::ShardedIndex> sharded,
    std::shared_ptr<const ShardBuffers> buffers) {
  auto snapshot = std::make_shared<IndexSnapshot>();
  snapshot->sharded = std::move(sharded);
  snapshot->buffers = std::move(buffers);
  return snapshot;
}

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_SNAPSHOT_H_
