#include "ingest/compactor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "util/check.h"

namespace sofa {
namespace ingest {
namespace {

// Rows per insert-buffer chunk (storage granularity; chunks never move).
constexpr std::size_t kChunkRows = 1024;

}  // namespace

RecoveredBase MakeRecoveredBase(const persist::LoadedGeneration& loaded) {
  RecoveredBase base;
  base.generation_seq = loaded.manifest.generation_seq;
  base.route_total =
      static_cast<std::size_t>(loaded.manifest.route_total);
  base.next_id = static_cast<std::uint32_t>(loaded.manifest.next_id);
  base.wal_last_seqno = loaded.manifest.wal_last_seqno;
  base.tombstones = loaded.manifest.tombstones;
  base.buffer_rows = loaded.buffer_rows;
  base.buffer_ids = loaded.buffer_ids;
  return base;
}

Compactor::Compactor(service::SearchService* service,
                     std::shared_ptr<const shard::ShardedIndex> base,
                     IngestConfig config, const RecoveredBase* recovered)
    : service_(service),
      config_(config),
      base_total_(base == nullptr
                      ? 0
                      : (recovered != nullptr ? recovered->route_total
                                              : base->size())),
      length_(base == nullptr ? 0 : base->length()),
      num_shards_(base == nullptr ? 0 : base->num_shards()) {
  SOFA_CHECK(service_ != nullptr);
  SOFA_CHECK(base != nullptr);
  SOFA_CHECK(base_total_ < std::numeric_limits<std::uint32_t>::max());
  for (std::size_t s = 0; s < num_shards_; ++s) {
    SOFA_CHECK(base->shard(s).scheme != nullptr)
        << "compaction rebuilds need per-shard scheme handles";
  }
  if (config_.compact_threshold == 0) {
    config_.compact_threshold = 1;
  }
  if (config_.max_pending == 0) {
    config_.max_pending = 8 * config_.compact_threshold;
  }
  sharded_ = std::move(base);
  // With the rowq tier enabled, buffered rows share the last shard tree's
  // quantization grid so a row prunes on the same bound whether it is
  // answered from the buffer or, post-compaction, from the tree.
  const index::TreeIndex& last_tree = *sharded_->shard(num_shards_ - 1).tree;
  std::shared_ptr<const quant::RowQuantizer> quantizer;
  if (sharded_->config().enable_rowq && last_tree.rowq() != nullptr) {
    quantizer = last_tree.rowq()->quantizer_ptr();
  }
  buffer_ = std::make_shared<InsertBuffer>(length_, kChunkRows,
                                           std::move(quantizer));
  tombstones_ = std::make_shared<TombstoneSet>();
  if (!config_.wal_dir.empty()) {
    if (config_.wal.registry == nullptr) {
      config_.wal.registry = config_.registry;
    }
    wal_ = WriteAheadLog::Open(config_.wal_dir, length_, config_.wal);
    SOFA_CHECK(wal_ != nullptr)
        << "cannot open write-ahead log in " << config_.wal_dir;
  }
  shard_tombstoned_.assign(num_shards_, 0);
  if (recovered != nullptr) {
    // Resume from a persisted generation: the manifest's bookkeeping and
    // buffered tail become the pre-replay state, already durable — they
    // are NOT re-logged. Recover() then applies only the WAL tail past
    // the manifest's fold point.
    SOFA_CHECK(recovered->next_id >= base_total_);
    next_id_ = recovered->next_id;
    id_base_ = recovered->next_id;
    publish_seq_ = recovered->generation_seq;
    wal_skip_seqno_ = recovered->wal_last_seqno;
    const Dataset* tail = recovered->buffer_rows.get();
    const std::vector<std::uint32_t>& tail_ids = recovered->buffer_ids;
    if (tail == nullptr) {
      SOFA_CHECK(tail_ids.empty());
    } else {
      SOFA_CHECK(tail->length() == length_ && tail_ids.size() == tail->size());
      for (std::size_t r = 0; r < tail->size(); ++r) {
        buffer_->Append(tail->row(r), tail_ids[r]);
      }
      pending_ = tail->size();
    }
    for (const std::uint32_t id : recovered->tombstones) {
      ApplyDeleteLocked(id);
    }
    // At a fold point every id below next_id is live (in a shard slice or
    // a buffered tail), tombstoned, or purged: the commit queue is drained
    // and a refused batch rolls next_id back, so no id is merely unused.
    // A purged id is in none of the manifest's structures — remember it,
    // so deleting it again still answers kAlreadyDeleted.
    std::vector<bool> present(next_id_, false);
    const auto mark = [&present](const std::vector<std::uint32_t>& ids) {
      for (const std::uint32_t id : ids) {
        if (id < present.size()) {
          present[id] = true;
        }
      }
    };
    for (std::size_t s = 0; s < num_shards_; ++s) {
      mark(*sharded_->shard(s).global_ids);
    }
    mark(tail_ids);
    for (std::uint32_t id = 0; id < next_id_; ++id) {
      if (!present[id]) {
        deleted_ever_.insert(id);
      }
    }
  } else {
    next_id_ = static_cast<std::uint32_t>(base_total_);
    id_base_ = next_id_;
  }
  {
    // Publish the initial ingesting generation: base trees, the buffer
    // view (seeded when resuming), tombstones. From here on every query
    // sees (tree ∪ buffer) \ tombstones.
    std::unique_lock<std::mutex> lock(mutex_);
    PublishLocked(sharded_, &lock);
  }
  if (config_.registry != nullptr) {
    obs::Registry* reg = config_.registry;
    static const char* kNames[8] = {
        "sofa_ingest_inserted_total",        "sofa_ingest_rejected_total",
        "sofa_ingest_invalid_total",         "sofa_ingest_deleted_total",
        "sofa_ingest_io_errors_total",       "sofa_ingest_compactions_total",
        "sofa_ingest_persisted_total",       "sofa_ingest_persist_failures_total"};
    static const char* kHelp[8] = {
        "Rows accepted by Insert()",
        "Rows bounced at the ingest admission bound",
        "Rows refused permanently (length mismatch, id exhaustion)",
        "Deletes accepted (recovered ones included)",
        "Mutations refused on WAL I/O failure",
        "Shard rebuilds published",
        "Generation directories committed to the store",
        "Failed generation persist attempts"};
    for (std::size_t i = 0; i < 8; ++i) {
      ing_counters_[i] = reg->GetCounter(kNames[i], {}, kHelp[i]);
    }
    ing_pending_ = reg->GetGauge("sofa_ingest_pending_rows", {},
                                 "Rows buffered, not yet folded into trees");
    ing_tombstones_ =
        reg->GetGauge("sofa_ingest_tombstones", {},
                      "Deleted ids not yet purged by compaction");
    ing_total_rows_ =
        reg->GetGauge("sofa_ingest_total_rows", {},
                      "Ids allocated: base + accepted inserts");
    SyncRegistry();
    collect_hook_id_ = reg->AddCollectHook([this] { SyncRegistry(); });
    collect_hook_registered_ = true;
  }
  compaction_thread_ = std::thread([this] { CompactorLoop(); });
}

void Compactor::SyncRegistry() {
  const IngestMetrics m = Metrics();
  ing_counters_[0]->Set(m.inserted);
  ing_counters_[1]->Set(m.rejected);
  ing_counters_[2]->Set(m.invalid);
  ing_counters_[3]->Set(m.deleted);
  ing_counters_[4]->Set(m.io_errors);
  ing_counters_[5]->Set(m.compactions);
  ing_counters_[6]->Set(m.persisted);
  ing_counters_[7]->Set(m.persist_failures);
  ing_pending_->Set(static_cast<double>(m.pending));
  ing_tombstones_->Set(static_cast<double>(m.tombstones));
  ing_total_rows_->Set(static_cast<double>(m.total_rows));
}

Compactor::~Compactor() {
  if (collect_hook_registered_) {
    // Before anything else: a Collect() racing the teardown must not call
    // back into a half-destroyed compactor. One last sync so the final
    // values outlive the hook.
    config_.registry->RemoveCollectHook(collect_hook_id_);
    collect_hook_registered_ = false;
    SyncRegistry();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  flush_cv_.notify_all();
  commit_cv_.notify_all();
  if (compaction_thread_.joinable()) {
    compaction_thread_.join();
  }
  // wal_'s destructor syncs the tail, so every acknowledged mutation is
  // on stable storage before the process can exit cleanly.
}

std::size_t Compactor::RouteShard(std::uint32_t id) const {
  return shard::ShardedIndex::AssignShard(id, base_total_, num_shards_);
}

bool Compactor::CommitStaged(std::unique_lock<std::mutex>* lock,
                             const std::shared_ptr<StagedMutation>& entry) {
  while (!entry->done) {
    if (commit_leader_active_) {
      // A leader is writing; it (or a successor) will take this entry in
      // its next batch — group commit's whole point.
      commit_cv_.wait(*lock);
      continue;
    }
    LeaderCommitLocked(lock);
  }
  return entry->ok;
}

void Compactor::LeaderCommitLocked(std::unique_lock<std::mutex>* lock) {
  SOFA_DCHECK(!commit_leader_active_);
  commit_leader_active_ = true;
  std::vector<std::shared_ptr<StagedMutation>> batch(commit_queue_.begin(),
                                                     commit_queue_.end());
  commit_queue_.clear();
  bool ok = true;
  if (wal_ != nullptr) {
    std::vector<WalAppend> appends;
    appends.reserve(batch.size());
    for (const std::shared_ptr<StagedMutation>& staged : batch) {
      WalAppend record;
      record.type = staged->is_insert ? WalRecordType::kInsert
                                      : WalRecordType::kDelete;
      record.id = staged->id;
      record.row = staged->row;
      appends.push_back(record);
    }
    // The one unlocked window of a mutation: the leader writes the whole
    // batch as consecutive frames (one fwrite + fflush, at most one
    // fsync). Mutations arriving meanwhile stage behind the queue and are
    // picked up by the next leader.
    lock->unlock();
    ok = wal_->AppendBatch(appends);
    lock->lock();
  }
  if (ok) {
    // Visibility, in staged (= id = log) order, exactly as if each
    // mutation had applied under the lock it was staged under.
    for (const std::shared_ptr<StagedMutation>& staged : batch) {
      if (staged->is_insert) {
        buffer_->Append(staged->row, staged->id);
        --staged_inserts_;
        ++pending_;
        ++inserted_;
      } else {
        ApplyDeleteLocked(staged->id);
      }
      staged->done = true;
      staged->ok = true;
    }
    if (config_.auto_compact && CompactionDueLocked()) {
      work_cv_.notify_one();
    }
  } else {
    // The batch never reached the log (AppendBatch rolled the segment
    // back). Fail it — and everything staged behind it while we wrote:
    // those ids are higher than the failed ones, and committing them
    // would leave an id gap no recovery could replay across. Rolling
    // next_id_ back to the smallest refused insert id keeps the id
    // sequence dense for the next accepted insert.
    batch.insert(batch.end(), commit_queue_.begin(), commit_queue_.end());
    commit_queue_.clear();
    std::uint32_t min_failed = std::numeric_limits<std::uint32_t>::max();
    for (const std::shared_ptr<StagedMutation>& staged : batch) {
      if (staged->is_insert) {
        min_failed = std::min(min_failed, staged->id);
        --staged_inserts_;
      }
      ++io_errors_;
      staged->done = true;
      staged->ok = false;
    }
    if (min_failed != std::numeric_limits<std::uint32_t>::max()) {
      next_id_ = min_failed;
    }
  }
  commit_leader_active_ = false;
  commit_cv_.notify_all();
  if (flush_requested_) {
    work_cv_.notify_all();
  }
}

bool Compactor::ApplyDeleteLocked(std::uint32_t id) {
  // A duplicate (two deletes of one id raced through staging) is a no-op,
  // on replay too.
  if (!tombstones_->Add(id)) {
    return false;
  }
  deleted_ever_.insert(id);
  ++deleted_;
  ++shard_tombstoned_[RouteShard(id)];
  return true;
}

void Compactor::DrainCommitQueueLocked(std::unique_lock<std::mutex>* lock) {
  // Retires every staged mutation. Callers set persist_barrier_ first
  // when they need the queue to STAY empty afterwards (staging waits on
  // the barrier, so this terminates even under mutation pressure).
  while (commit_leader_active_ || !commit_queue_.empty()) {
    if (commit_leader_active_) {
      commit_cv_.wait(*lock);
    } else {
      LeaderCommitLocked(lock);
    }
  }
}

StatusOr<std::uint32_t> Compactor::Insert(const float* row,
                                          std::size_t length) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (length != length_) {
    ++invalid_;
    return InvalidArgumentError("row length mismatch");
  }
  while (persist_barrier_ && !stopping_) {
    commit_cv_.wait(lock);  // a persist fold point is being taken
  }
  if (stopping_) {
    return ShutdownError();
  }
  if (pending_ + staged_inserts_ >= config_.max_pending) {
    ++rejected_;
    return RejectedError("ingest admission bound hit");
  }
  if (next_id_ == std::numeric_limits<std::uint32_t>::max()) {
    // Global-id space exhausted: the row can never be accepted (kRejected
    // would invite a futile retry loop), and a wrapped id would collide
    // with an existing row and break the ascending-id invariant.
    ++invalid_;
    return InvalidArgumentError("global id space exhausted");
  }
  // Group commit: the id is consumed at stage time (the staged order IS
  // the id and log order), the row becomes visible only when its batch is
  // applied, and a refused batch returns the ids.
  auto staged = std::make_shared<StagedMutation>();
  staged->is_insert = true;
  staged->id = next_id_++;
  staged->row = row;
  commit_queue_.push_back(staged);
  ++staged_inserts_;
  if (!CommitStaged(&lock, staged)) {
    return IoError("WAL append failed");
  }
  return staged->id;
}

Status Compactor::Delete(std::uint32_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (persist_barrier_ && !stopping_) {
    commit_cv_.wait(lock);
  }
  if (stopping_) {
    return ShutdownError();
  }
  if (id >= next_id_) {
    return NotFoundError("id was never inserted");
  }
  // deleted_ever_, not the tombstone set: a tombstone is purged once the
  // row is compacted away, but the id stays deleted forever. (A delete
  // staged but not yet committed is NOT in deleted_ever_ yet; a racing
  // second delete of the same id just stages a duplicate record, which
  // both apply and replay treat as a no-op.)
  if (deleted_ever_.count(id) != 0) {
    return AlreadyDeletedError();
  }
  auto staged = std::make_shared<StagedMutation>();
  staged->is_insert = false;
  staged->id = id;
  commit_queue_.push_back(staged);
  return CommitStaged(&lock, staged) ? OkStatus()
                                     : IoError("WAL append failed");
}

RecoverStats Compactor::Recover() {
  std::unique_lock<std::mutex> lock(mutex_);
  SOFA_CHECK(!recovered_ && inserted_ == 0)
      << "Recover() must run once, before any mutation";
  recovered_ = true;
  RecoverStats stats;
  if (wal_ == nullptr) {
    return stats;
  }
  // Replay in log order under the mutation lock. Application is
  // idempotent against the base: records at or below the recovered fold
  // point are skipped outright (the generation directory already holds
  // them — the crash-between-commit-and-truncate case) and ids the base
  // already covers are skipped; a genuine gap or contradiction flips ok
  // and ignores the rest (the log belongs to a different base, or
  // acknowledged records are gone). Only a persist truncates the log, so
  // it must start no later than the fold point + 1 — seqno 1 when there
  // is no manifest.
  const std::uint64_t expected_first = wal_skip_seqno_ + 1;
  const WalReplayStats replayed = WriteAheadLog::Replay(
      config_.wal_dir, length_,
      [&](const WalRecord& record) {
        if (!stats.ok) {
          return;
        }
        if (record.seqno <= wal_skip_seqno_) {
          ++stats.records_skipped;
          return;
        }
        switch (record.type) {
          case WalRecordType::kInsert: {
            if (record.id < next_id_) {
              ++stats.inserts_skipped;
              return;
            }
            if (record.id != next_id_) {
              stats.ok = false;  // gap: records before this one are gone
              return;
            }
            buffer_->Append(record.row.data(), record.id);
            ++next_id_;
            ++pending_;
            ++inserted_;
            ++stats.inserts_applied;
            return;
          }
          case WalRecordType::kDelete: {
            if (record.id >= next_id_) {
              stats.ok = false;  // delete of a row this log never created
              return;
            }
            // A duplicate record (raced deletes) changes nothing.
            if (ApplyDeleteLocked(record.id)) {
              ++stats.deletes_applied;
            }
            return;
          }
        }
      },
      expected_first);
  stats.tail_truncated = replayed.tail_truncated;
  stats.sequence_gap = replayed.sequence_gap;
  stats.last_seqno = replayed.last_seqno;
  if (replayed.sequence_gap) {
    // The seqno chain broke: acknowledged records are missing from the
    // retained log (an interior segment was lost or the tail starts past
    // the manifest's fold point). Deletes can vanish this way without
    // any id-sequence evidence — refuse instead of serving resurrected
    // rows.
    stats.ok = false;
  }
  if (config_.auto_compact) {
    work_cv_.notify_one();  // replayed rows may already cross thresholds
  }
  return stats;
}

Status Compactor::PersistNow() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (config_.store == nullptr) {
    return UnavailableError("no generation store attached");
  }
  if (stopping_) {
    return ShutdownError();
  }
  return PersistLocked(&lock) ? OkStatus() : IoError("persist failed");
}

bool Compactor::PersistLocked(std::unique_lock<std::mutex>* lock) {
  SOFA_CHECK(config_.store != nullptr);
  // One persist at a time: the heavy I/O below runs unlocked, and two
  // interleaved fold points would race on the store's staging directory.
  while (persist_in_flight_ && !stopping_) {
    commit_cv_.wait(*lock);
  }
  if (stopping_) {
    return false;
  }
  // Nothing new since the last commit (same publish, same WAL position):
  // re-persisting would only churn the committed directory.
  if (persisted_seq_ == publish_seq_ && commit_queue_.empty() &&
      !commit_leader_active_ &&
      (wal_ == nullptr || wal_->last_seqno() == persisted_wal_seqno_)) {
    return true;
  }
  persist_in_flight_ = true;
  // Fold point: pause staging, retire every in-flight mutation, then
  // capture state + rotate the log under the lock. After the rotation,
  // every record ≤ the captured seqno sits in segments below the new
  // one, and every later mutation lands above it — the manifest's
  // "replay only the tail" contract.
  persist_barrier_ = true;
  DrainCommitQueueLocked(lock);
  persist::PersistRequest request;
  request.generation_seq = publish_seq_;
  request.next_id = next_id_;
  request.route_total = base_total_;
  request.sharded = sharded_;
  request.tombstones = tombstones_->SortedIds();
  const std::size_t buffered = buffer_->size();
  auto tail = std::make_shared<Dataset>(buffered - tree_covered_, length_);
  buffer_->CopyRange(tree_covered_, buffered, tail.get(), 0,
                     &request.buffer_ids);
  request.buffer_rows = std::move(tail);
  std::uint64_t tail_segment = 0;
  if (wal_ != nullptr) {
    request.wal_last_seqno = wal_->last_seqno();
    if (!wal_->Rotate(&tail_segment)) {
      // No fold point, no persist: the untruncated log still covers
      // every mutation, so nothing is lost — only restart cost.
      persist_barrier_ = false;
      persist_in_flight_ = false;
      commit_cv_.notify_all();
      ++persist_failures_;
      return false;
    }
    request.wal_segment_seq = tail_segment;
  }
  persist_barrier_ = false;
  commit_cv_.notify_all();
  const std::uint64_t min_live = MinLiveSeqLocked();

  // The heavy I/O runs unlocked: the captured request is immutable (the
  // sharded generation by construction, the tail and tombstones by
  // copy). Mutations and queries flow meanwhile.
  lock->unlock();
  const bool ok = config_.store->Persist(request);
  if (ok) {
    if (wal_ != nullptr) {
      // Only after the generation commit is durable may the pre-fold
      // segments go — they held the only other copy of those mutations.
      wal_->TruncateBelow(tail_segment);
    }
    // GC of superseded generation directories, gated on the publish-seq
    // retirement logic: never past the generation just committed, and
    // never past a generation some in-flight query batch still pins.
    config_.store->RemoveGenerationsBelow(
        std::min(request.generation_seq, min_live));
  }
  lock->lock();
  if (ok) {
    ++persisted_;
    persisted_seq_ = request.generation_seq;
    persisted_wal_seqno_ = request.wal_last_seqno;
  } else {
    ++persist_failures_;
  }
  persist_in_flight_ = false;
  commit_cv_.notify_all();
  return ok;
}

std::uint64_t Compactor::MinLiveSeqLocked() const {
  std::uint64_t min_seq = publish_seq_;
  for (const LiveGeneration& live : live_) {
    if (!live.snapshot.expired()) {
      min_seq = std::min(min_seq, live.seq);
    }
  }
  return min_seq;
}

std::size_t Compactor::ShardWorkLocked(std::size_t s) const {
  // The compaction trigger's unit of work: buffered rows not yet in the
  // tree (the last shard owns the buffer) plus tombstoned rows not yet
  // removed from the shard.
  return (s + 1 == num_shards_ ? pending_ : 0) + shard_tombstoned_[s];
}

bool Compactor::CompactionDueLocked() const {
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (ShardWorkLocked(s) >= config_.compact_threshold) {
      return true;
    }
  }
  return false;
}

bool Compactor::HasMutationWorkLocked() const {
  if (pending_ > 0) {
    return true;
  }
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (shard_tombstoned_[s] > 0) {
      return true;
    }
  }
  return false;
}

void Compactor::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_ &&
         (HasMutationWorkLocked() || !commit_queue_.empty() ||
          commit_leader_active_)) {
    flush_requested_ = true;
    work_cv_.notify_all();
    flush_cv_.wait(lock);
  }
}

IngestMetrics Compactor::Metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  IngestMetrics metrics;
  metrics.inserted = inserted_;
  metrics.rejected = rejected_;
  metrics.invalid = invalid_;
  metrics.deleted = deleted_;
  metrics.io_errors = io_errors_;
  metrics.compactions = compactions_;
  metrics.persisted = persisted_;
  metrics.persist_failures = persist_failures_;
  metrics.pending = pending_;
  metrics.tombstones = tombstones_->size();
  metrics.total_rows = id_base_ + inserted_;
  return metrics;
}

std::shared_ptr<const shard::ShardedIndex> Compactor::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sharded_;
}

std::shared_ptr<const service::ShardBuffers> Compactor::MakeBuffers(
    std::size_t start) const {
  auto buffers = std::make_shared<service::ShardBuffers>();
  buffers->buffer = buffer_;
  buffers->start = start;
  buffers->tombstones = tombstones_;
  return buffers;
}

void Compactor::PublishLocked(
    std::shared_ptr<const shard::ShardedIndex> sharded,
    std::unique_lock<std::mutex>* lock,
    std::vector<std::uint32_t> purgeable) {
  SOFA_CHECK(lock != nullptr && lock->owns_lock());
  std::shared_ptr<const service::IndexSnapshot> snapshot =
      service::WrapIngestingIndex(std::move(sharded),
                                  MakeBuffers(tree_covered_));
  const std::uint64_t seq = ++publish_seq_;
  if (!purgeable.empty()) {
    // These ids left every structure of the generation published right
    // here; the purge waits until all earlier generations retire.
    pending_purge_ids_.insert(purgeable.begin(), purgeable.end());
    pending_purges_.push_back(PendingPurge{seq, std::move(purgeable)});
  }
  live_.push_back(LiveGeneration{snapshot, tree_covered_, seq});
  service_->Publish(std::move(snapshot));
  TrimRetiredLocked();
}

void Compactor::TrimRetiredLocked() {
  // The smallest buffer start any still-live generation scans from bounds
  // what may be reclaimed, and the smallest live publish sequence bounds
  // which queued tombstone purges may apply; generations retire when
  // their last in-flight query batch drops the snapshot reference.
  std::size_t min_start = tree_covered_;
  std::uint64_t min_seq = publish_seq_;
  for (auto it = live_.begin(); it != live_.end();) {
    if (it->snapshot.expired()) {
      it = live_.erase(it);
      continue;
    }
    min_start = std::min(min_start, it->start);
    min_seq = std::min(min_seq, it->seq);
    ++it;
  }
  buffer_->TrimBelow(min_start);
  std::vector<std::uint32_t> purgeable;
  for (auto it = pending_purges_.begin(); it != pending_purges_.end();) {
    if (it->seq <= min_seq) {
      purgeable.insert(purgeable.end(), it->ids.begin(), it->ids.end());
      it = pending_purges_.erase(it);
      continue;
    }
    ++it;
  }
  for (const std::uint32_t id : purgeable) {
    pending_purge_ids_.erase(id);
  }
  tombstones_->Erase(purgeable);
}

void Compactor::CompactorLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] {
      if (stopping_) {
        return true;
      }
      if (flush_requested_) {
        if (HasMutationWorkLocked()) {
          return true;  // compactable work exists
        }
        // The flush can complete once no mutation is still staged.
        return commit_queue_.empty() && !commit_leader_active_;
      }
      return config_.auto_compact && CompactionDueLocked();
    });
    if (stopping_) {
      return;
    }
    while (!stopping_) {
      // Most-work shard first (buffered rows + resident tombstones):
      // under sustained ingest this keeps the flat-scanned delta set as
      // small as possible, and under sustained deletes it keeps the
      // tombstone set every query masks against bounded.
      std::size_t best = num_shards_;
      std::size_t best_work = 0;
      for (std::size_t s = 0; s < num_shards_; ++s) {
        const std::size_t shard_work = ShardWorkLocked(s);
        if (shard_work > best_work) {
          best = s;
          best_work = shard_work;
        }
      }
      const bool flushing = flush_requested_;
      if (best_work == 0 ||
          (!flushing && (!config_.auto_compact ||
                         best_work < config_.compact_threshold))) {
        break;
      }
      lock.unlock();
      CompactShard(best);
      lock.lock();
    }
    if (flush_requested_ && !HasMutationWorkLocked() &&
        commit_queue_.empty() && !commit_leader_active_) {
      flush_requested_ = false;
      flush_cv_.notify_all();
    }
  }
}

void Compactor::CompactShard(std::size_t s) {
  std::shared_ptr<const shard::ShardedIndex> base;
  std::size_t start;
  std::size_t tomb_resident;
  std::shared_ptr<const std::unordered_set<std::uint32_t>> tomb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    base = sharded_;
    start = tree_covered_;
    tomb_resident = shard_tombstoned_[s];
    // The delete view of this rebuild. Rows deleted after this point may
    // land in the new tree; they stay masked by their live tombstones
    // and fall out at the shard's next compaction.
    tomb = tombstones_->view();
  }
  // The cut: live buffer rows below it move into the rebuilt last-shard
  // tree; rows appended during the rebuild stay above it and remain
  // buffer-visible. Any other shard takes no buffer rows (its cut stays
  // at the start). A shard with no new rows but resident tombstones
  // still rebuilds — that is how a delete-only workload sheds deleted
  // rows and purges.
  const std::size_t cut = s + 1 == num_shards_ ? buffer_->size() : start;
  if (cut == start && tomb_resident == 0) {
    return;
  }
  const shard::Shard& old_shard = base->shard(s);
  const std::unordered_set<std::uint32_t>* exclude =
      tomb->empty() ? nullptr : tomb.get();
  // Storage for every candidate row, sized once; each kept row is
  // copied once and the excluded ones trim the end.
  auto data = std::make_shared<Dataset>(
      old_shard.data->size() + (cut - start), length_);
  auto ids = std::make_shared<std::vector<std::uint32_t>>();
  ids->reserve(data->size());
  // Ids excluded here leave every structure of the generation published
  // below — the slice loses them now, the buffer view starts past them —
  // so their tombstones become purgeable once older generations retire.
  std::vector<std::uint32_t> purgeable;
  const std::vector<std::uint32_t>& old_ids = *old_shard.global_ids;
  for (std::size_t i = 0; i < old_shard.data->size(); ++i) {
    if (exclude != nullptr && exclude->count(old_ids[i]) != 0) {
      purgeable.push_back(old_ids[i]);
      continue;
    }
    std::memcpy(data->mutable_row(ids->size()), old_shard.data->row(i),
                length_ * sizeof(float));
    ids->push_back(old_ids[i]);
  }
  buffer_->CopyRange(start, cut, data.get(), ids->size(), ids.get(), exclude,
                     &purgeable);
  data->Resize(ids->size());

  // Deterministic rebuild over (slice ∪ buffered rows) \ tombstones with
  // the build-time scheme and per-shard index config; runs on the serving
  // pool, under whatever traffic is live.
  shard::Shard rebuilt;
  rebuilt.data = data;
  rebuilt.scheme = old_shard.scheme;
  rebuilt.global_ids = ids;
  auto rebuilt_tree = std::make_shared<index::TreeIndex>(
      data.get(), old_shard.scheme.get(), base->config().index, base->pool());
  if (base->config().enable_rowq) {
    rebuilt_tree->AttachRowQuant(quant::RowQuant::Build(*data));
  }
  rebuilt.tree = std::move(rebuilt_tree);
  std::shared_ptr<const shard::ShardedIndex> derived =
      base->WithShardReplaced(s, std::move(rebuilt));

  std::unique_lock<std::mutex> lock(mutex_);
  if (exclude != nullptr) {
    // Phantom tombstones: sampled ids routed to this shard whose row
    // exists in none of its structures and that no earlier compaction
    // already queued — e.g. a tombstone a recovered manifest carried for
    // a row its generation had already compacted out (the purge was
    // still waiting on in-flight generations at persist). Nothing will
    // ever exclude them again, so queue them for purge alongside the
    // rows removed here; every sampled tombstone of this shard is
    // provably either in the slice, in buffer [start, cut), already
    // queued, or phantom.
    const std::unordered_set<std::uint32_t> removed(purgeable.begin(),
                                                    purgeable.end());
    for (const std::uint32_t id : *tomb) {
      if (RouteShard(id) == s && removed.count(id) == 0 &&
          pending_purge_ids_.count(id) == 0) {
        purgeable.push_back(id);
      }
    }
  }
  // Every purgeable id was counted as resident work for this shard
  // (excluded rows existed here; phantoms were never queued before), so
  // the counter drops by exactly that many — tombstones added during
  // the rebuild stay counted for the next round.
  shard_tombstoned_[s] -= purgeable.size();
  sharded_ = derived;
  tree_covered_ = cut;
  pending_ -= cut - start;
  ++compactions_;
  PublishLocked(std::move(derived), &lock, std::move(purgeable));
  if (config_.store != nullptr) {
    // Persist the generation just published, then truncate the WAL to
    // the tail — the step that finally bounds restart cost to "replay
    // mutations since the last compaction" in the default deployment. A
    // failure keeps serving from memory with the full log retained.
    PersistLocked(&lock);
  }
}

}  // namespace ingest
}  // namespace sofa
