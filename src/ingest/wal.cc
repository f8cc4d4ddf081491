#include "ingest/wal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/check.h"
#include "util/crc32.h"
#include "util/fsutil.h"

namespace sofa {
namespace ingest {
namespace {

constexpr char kMagic[8] = {'S', 'O', 'F', 'A', 'W', 'A', 'L', '2'};
constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";
// Frame header + payload; the cap rejects absurd sizes from a corrupted
// length field before any allocation happens.
constexpr std::size_t kMaxPayload = 256ull << 20;
// magic + segment_seq + series_length + first_seqno.
constexpr std::size_t kSegmentHeaderBytes = sizeof(kMagic) + 3 * sizeof(std::uint64_t);
// payload_size + crc + seqno.
constexpr std::size_t kFrameHeaderBytes =
    2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

std::string SegmentName(std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%010llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return name;
}

std::string SegmentPath(const std::string& dir, std::uint64_t seq) {
  return dir + "/" + SegmentName(seq);
}

// Sequence number of a segment file name, or false for foreign files.
bool ParseSegmentSeq(const std::string& name, std::uint64_t* seq) {
  const std::size_t prefix = sizeof(kSegmentPrefix) - 1;
  const std::size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix ||
      name.compare(0, prefix, kSegmentPrefix) != 0 ||
      name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

void PutU32(std::vector<unsigned char>* out, std::uint32_t v) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutU64(std::vector<unsigned char>* out, std::uint64_t v) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

struct SegmentEntry {
  std::uint64_t seq;
  std::string path;
};

std::vector<SegmentEntry> ListSegmentEntries(const std::string& dir) {
  std::vector<SegmentEntry> entries;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return entries;
  }
  while (const dirent* entry = ::readdir(handle)) {
    std::uint64_t seq = 0;
    if (ParseSegmentSeq(entry->d_name, &seq)) {
      entries.push_back(SegmentEntry{seq, dir + "/" + entry->d_name});
    }
  }
  ::closedir(handle);
  std::sort(entries.begin(), entries.end(),
            [](const SegmentEntry& a, const SegmentEntry& b) {
              return a.seq < b.seq;
            });
  return entries;
}

// Reads a segment header; returns false on short read / wrong magic /
// wrong series length.
bool ReadSegmentHeader(std::FILE* file, std::size_t length,
                       std::uint64_t* first_seqno) {
  char magic[8];
  std::uint64_t seq = 0;
  std::uint64_t file_length = 0;
  std::uint64_t first = 0;
  if (std::fread(magic, 1, sizeof(magic), file) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      std::fread(&seq, 1, sizeof(seq), file) != sizeof(seq) ||
      std::fread(&file_length, 1, sizeof(file_length), file) !=
          sizeof(file_length) ||
      std::fread(&first, 1, sizeof(first), file) != sizeof(first) ||
      file_length != length) {
    return false;
  }
  *first_seqno = first;
  return true;
}

// Reads one frame; returns the payload (empty on a torn/corrupt frame,
// with *end set), validating the CRC over seqno‖payload.
bool ReadFrame(std::FILE* file, std::vector<unsigned char>* payload,
               std::uint64_t* seqno, bool* clean_end) {
  *clean_end = false;
  std::uint32_t size = 0;
  std::uint32_t crc = 0;
  std::uint64_t sq = 0;
  const std::size_t header_read = std::fread(&size, 1, sizeof(size), file);
  if (header_read == 0) {
    *clean_end = true;  // clean end of segment
    return false;
  }
  if (header_read != sizeof(size) ||
      std::fread(&crc, 1, sizeof(crc), file) != sizeof(crc) ||
      std::fread(&sq, 1, sizeof(sq), file) != sizeof(sq) || size == 0 ||
      size > kMaxPayload) {
    return false;  // torn frame header
  }
  payload->resize(size);
  if (std::fread(payload->data(), 1, size, file) != size) {
    return false;  // torn payload
  }
  if (Crc32(payload->data(), size, Crc32(&sq, sizeof(sq))) != crc) {
    return false;  // corrupt seqno or payload
  }
  *seqno = sq;
  return true;
}

// The sequence number the next record appended to `dir` must carry:
// one past the last valid record of the newest readable segment (the
// torn tail of a crashed writer is skipped — its records were never
// acknowledged as a whole frame), or that segment's header first_seqno
// when it holds no records, or 1 for a fresh directory.
std::uint64_t ScanNextSeqno(const std::string& dir, std::size_t length) {
  const std::vector<SegmentEntry> entries = ListSegmentEntries(dir);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    std::FILE* file = std::fopen(it->path.c_str(), "rb");
    if (file == nullptr) {
      continue;
    }
    std::uint64_t first_seqno = 0;
    if (!ReadSegmentHeader(file, length, &first_seqno)) {
      std::fclose(file);
      continue;  // foreign or truncated header: try an older segment
    }
    std::uint64_t next = first_seqno;
    std::vector<unsigned char> payload;
    std::uint64_t seqno = 0;
    bool clean_end = false;
    while (ReadFrame(file, &payload, &seqno, &clean_end)) {
      next = seqno + 1;
    }
    std::fclose(file);
    return next == 0 ? 1 : next;
  }
  return 1;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string dir, std::size_t length,
                             WalConfig config)
    : dir_(std::move(dir)), length_(length), config_(config) {
  if (config_.registry != nullptr) {
    obs::Registry* registry = config_.registry;
    fsync_total_ = registry->GetCounter("sofa_wal_fsync_total", {},
                                        "WAL fsync calls");
    obs::HistogramOptions fsync_options;
    fsync_options.min_value = 1e-3;
    fsync_options.max_value = 1e4;
    fsync_ms_ = registry->GetHistogram("sofa_wal_fsync_ms", fsync_options,
                                       {}, "WAL fsync latency (ms)");
    records_total_ = registry->GetCounter("sofa_wal_appended_records_total",
                                          {}, "Records appended to the WAL");
    segments_total_ = registry->GetCounter("sofa_wal_segments_opened_total",
                                           {}, "WAL segment files opened");
    obs::HistogramOptions batch_options;
    batch_options.min_value = 1.0;
    batch_options.max_value = 1e5;
    batch_options.buckets_per_decade = 10;
    batch_size_ = registry->GetHistogram(
        "sofa_wal_commit_batch_size", batch_options, {},
        "Records per group-commit batch (AppendBatch)");
  }
}

bool WriteAheadLog::FsyncTimed() {
  const auto start = std::chrono::steady_clock::now();
  const bool ok = ::fsync(::fileno(file_)) == 0;
  if (fsync_total_ != nullptr) {
    fsync_total_->Add();
    fsync_ms_->Record(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return ok;
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::Open(const std::string& dir,
                                                   std::size_t length,
                                                   WalConfig config) {
  SOFA_CHECK(length > 0);
  if (!MakeDirs(dir)) {
    return nullptr;
  }
  if (config.segment_bytes == 0) {
    config.segment_bytes = 64ull << 20;
  }
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(dir, length, config));
  // Never append to an existing segment — its tail may be torn; a fresh
  // segment keeps "torn implies last record of a retired writer" true.
  // The record sequence continues where the retained log ends, so the
  // chain stays contiguous across process restarts and a re-used torn
  // tail's seqnos are re-issued to the records that replace them.
  const std::vector<SegmentEntry> existing = ListSegmentEntries(dir);
  const std::uint64_t seq = existing.empty() ? 0 : existing.back().seq + 1;
  wal->next_seqno_ = ScanNextSeqno(dir, length);
  if (!wal->OpenSegment(seq)) {
    return nullptr;
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() { CloseSegment(/*sync=*/true); }

bool WriteAheadLog::OpenSegment(std::uint64_t seq) {
  const std::string path = SegmentPath(dir_, seq);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  file_ = file;
  seq_ = seq;
  segment_size_ = 0;
  const std::uint64_t seq64 = seq;
  const std::uint64_t len64 = length_;
  const std::uint64_t first = next_seqno_;
  if (std::fwrite(kMagic, 1, sizeof(kMagic), file_) != sizeof(kMagic) ||
      std::fwrite(&seq64, 1, sizeof(seq64), file_) != sizeof(seq64) ||
      std::fwrite(&len64, 1, sizeof(len64), file_) != sizeof(len64) ||
      std::fwrite(&first, 1, sizeof(first), file_) != sizeof(first) ||
      std::fflush(file_) != 0) {
    // Remove the header-less husk so replay never has to skip it; a
    // retry uses the next sequence number (gaps are fine).
    CloseSegment(/*sync=*/false);
    ::unlink(path.c_str());
    return false;
  }
  segment_size_ = kSegmentHeaderBytes;
  if (segments_total_ != nullptr) {
    segments_total_->Add();
  }
  return true;
}

bool WriteAheadLog::CloseSegment(bool sync) {
  if (file_ == nullptr) {
    return true;
  }
  bool ok = std::fflush(file_) == 0;
  if (sync && ok) {
    ok = FsyncTimed();
    if (ok) {
      unsynced_ = 0;
    }
  }
  ok = (std::fclose(file_) == 0) && ok;
  file_ = nullptr;
  return ok;
}

bool WriteAheadLog::Sync() {
  if (file_ == nullptr) {
    return false;
  }
  if (std::fflush(file_) != 0 || !FsyncTimed()) {
    return false;
  }
  unsynced_ = 0;
  return true;
}

bool WriteAheadLog::AppendFrames(
    const std::vector<std::vector<unsigned char>>& payloads) {
  if (payloads.empty()) {
    return true;
  }
  if (file_ != nullptr && segment_size_ >= config_.segment_bytes) {
    // Rotation syncs the full segment before retiring it, so its records
    // are durable regardless of the batching window. A close/sync
    // failure here widens the power-loss window for that segment's tail
    // (the records were fflushed, so a mere process crash still loses
    // nothing) but must not poison the log.
    CloseSegment(/*sync=*/true);
  }
  if (file_ == nullptr && !OpenSegment(seq_ + 1)) {
    // No live segment (a previous rotation or open failed): the append
    // fails, but the next one retries a fresh segment — a transient
    // disk error must not leave the log permanently read-only.
    return false;
  }
  // One contiguous buffer for the whole batch: the group-commit leader
  // pays a single fwrite + fflush (+ at most one fsync) for every record
  // staged behind it.
  std::vector<unsigned char> frames;
  std::size_t total = 0;
  for (const std::vector<unsigned char>& payload : payloads) {
    total += kFrameHeaderBytes + payload.size();
  }
  frames.reserve(total);
  std::uint64_t seqno = next_seqno_;
  for (const std::vector<unsigned char>& payload : payloads) {
    const std::uint32_t crc =
        Crc32(payload.data(), payload.size(), Crc32(&seqno, sizeof(seqno)));
    PutU32(&frames, static_cast<std::uint32_t>(payload.size()));
    PutU32(&frames, crc);
    PutU64(&frames, seqno);
    frames.insert(frames.end(), payload.begin(), payload.end());
    ++seqno;
  }
  if (batch_size_ != nullptr) {
    batch_size_->Record(static_cast<double>(payloads.size()));
  }
  bool ok = std::fwrite(frames.data(), 1, frames.size(), file_) ==
                frames.size() &&
            std::fflush(file_) == 0;
  if (ok && config_.sync_every > 0 &&
      unsynced_ + payloads.size() >= config_.sync_every) {
    ok = FsyncTimed();
    if (ok) {
      unsynced_ = 0;
      segment_size_ += frames.size();
      next_seqno_ = seqno;
      if (records_total_ != nullptr) {
        records_total_->Add(payloads.size());
      }
      return true;
    }
  } else if (ok) {
    segment_size_ += frames.size();
    unsynced_ += payloads.size();
    next_seqno_ = seqno;
    if (records_total_ != nullptr) {
      records_total_->Add(payloads.size());
    }
    return true;
  }
  // Refused batch: roll the segment back to the batch's start boundary
  // so no partially — or, on an fsync failure, fully — written frame of
  // it can ever replay (the callers were told "not logged"; later
  // accepted records will reuse these ids and seqnos). If the rollback
  // itself fails, abandon the segment: the torn frames stay at its tail
  // where replay stops cleanly, and the next append rotates to a fresh
  // segment.
  std::fflush(file_);
  if (::ftruncate(::fileno(file_), static_cast<off_t>(segment_size_)) != 0 ||
      std::fseek(file_, static_cast<long>(segment_size_), SEEK_SET) != 0) {
    CloseSegment(/*sync=*/true);
  }
  return false;
}

bool WriteAheadLog::AppendBatch(const std::vector<WalAppend>& batch) {
  std::vector<std::vector<unsigned char>> payloads;
  payloads.reserve(batch.size());
  for (const WalAppend& record : batch) {
    std::vector<unsigned char> payload;
    switch (record.type) {
      case WalRecordType::kInsert: {
        SOFA_DCHECK(record.row != nullptr);
        payload.reserve(1 + sizeof(record.id) + length_ * sizeof(float));
        payload.push_back(
            static_cast<unsigned char>(WalRecordType::kInsert));
        PutU32(&payload, record.id);
        const std::size_t at = payload.size();
        payload.resize(at + length_ * sizeof(float));
        std::memcpy(payload.data() + at, record.row,
                    length_ * sizeof(float));
        break;
      }
      case WalRecordType::kDelete: {
        payload.reserve(1 + sizeof(record.id));
        payload.push_back(
            static_cast<unsigned char>(WalRecordType::kDelete));
        PutU32(&payload, record.id);
        break;
      }
    }
    payloads.push_back(std::move(payload));
  }
  return AppendFrames(payloads);
}

bool WriteAheadLog::AppendInsert(std::uint32_t id, const float* row) {
  return AppendBatch({WalAppend{WalRecordType::kInsert, id, row}});
}

bool WriteAheadLog::AppendDelete(std::uint32_t id) {
  return AppendBatch({WalAppend{WalRecordType::kDelete, id, nullptr}});
}

bool WriteAheadLog::Rotate(std::uint64_t* new_segment_seq) {
  SOFA_CHECK(new_segment_seq != nullptr);
  // The close must sync: the fold point promises every record below the
  // new segment is durable, batching window included.
  if (file_ != nullptr && !CloseSegment(/*sync=*/true)) {
    return false;
  }
  if (!OpenSegment(seq_ + 1)) {
    return false;
  }
  *new_segment_seq = seq_;
  return true;
}

void WriteAheadLog::TruncateBelow(std::uint64_t keep_segment_seq) {
  const std::uint64_t keep = std::min(keep_segment_seq, seq_);
  for (const SegmentEntry& entry : ListSegmentEntries(dir_)) {
    if (entry.seq < keep) {
      ::unlink(entry.path.c_str());
    }
  }
}

std::vector<std::string> WriteAheadLog::ListSegments(const std::string& dir) {
  std::vector<std::string> paths;
  for (const SegmentEntry& entry : ListSegmentEntries(dir)) {
    paths.push_back(entry.path);
  }
  return paths;
}

WalReplayStats WriteAheadLog::Replay(
    const std::string& dir, std::size_t length,
    const std::function<void(const WalRecord&)>& apply,
    std::uint64_t expected_first_seqno) {
  WalReplayStats stats;
  // Highest stream position the retained log provably reached: record
  // seqnos + segment-header first_seqnos. A log that never reaches the
  // caller's expected fold point was recreated or lost wholesale — a
  // hole with zero surviving records, flagged at the end.
  std::uint64_t max_position = 0;
  for (const SegmentEntry& entry : ListSegmentEntries(dir)) {
    std::FILE* file = std::fopen(entry.path.c_str(), "rb");
    if (file == nullptr) {
      // Skip, like a bad header: later segments still replay, and the
      // seqno chain then shows the hole this segment's records leave
      // (sequence_gap) instead of the loss passing as a torn tail.
      stats.tail_truncated = true;
      continue;
    }
    ++stats.segments;
    std::uint64_t header_first_seqno = 0;
    if (!ReadSegmentHeader(file, length, &header_first_seqno)) {
      // Unreadable or foreign header: skip the whole segment. If it held
      // records of this log, the chain check below flags the gap.
      std::fclose(file);
      stats.tail_truncated = true;
      continue;
    }
    // Header-level chain check: the writer stamps each segment with the
    // seqno its first record will carry, so even an EMPTY retained
    // segment proves where the stream had advanced to. A header past
    // the expected chain position means the records in between are gone
    // (e.g. a generation directory was lost after its commit truncated
    // the log) — detectable even when no record survives at all.
    const std::uint64_t chain_next =
        stats.last_seqno != 0 ? stats.last_seqno + 1 : expected_first_seqno;
    if (chain_next != 0 && header_first_seqno > chain_next) {
      stats.sequence_gap = true;
      std::fclose(file);
      break;  // nothing past a break in the chain is delivered
    }
    max_position = std::max(max_position, header_first_seqno);
    while (true) {
      std::vector<unsigned char> payload;
      std::uint64_t seqno = 0;
      bool clean_end = false;
      if (!ReadFrame(file, &payload, &seqno, &clean_end)) {
        if (!clean_end) {
          stats.tail_truncated = true;  // torn or corrupt frame
        }
        break;
      }
      // The chain check: records must be delivered with contiguous
      // seqnos. The first delivered record anchors the chain (and must
      // not start past the caller's expected fold point); after that,
      // any jump or repeat means interior records are gone or the log
      // was tampered with — either way, not a state to serve from, so
      // replay ends here without delivering the record.
      const bool breaks_chain =
          stats.last_seqno == 0
              ? expected_first_seqno != 0 && seqno > expected_first_seqno
              : seqno != stats.last_seqno + 1;
      if (breaks_chain) {
        stats.sequence_gap = true;
        break;
      }
      if (stats.last_seqno == 0) {
        stats.first_seqno = seqno;
      }
      stats.last_seqno = seqno;
      WalRecord record;
      record.seqno = seqno;
      const unsigned char* body = payload.data() + 1;
      const std::size_t body_size = payload.size() - 1;
      bool valid = true;
      switch (static_cast<WalRecordType>(payload[0])) {
        case WalRecordType::kInsert: {
          record.type = WalRecordType::kInsert;
          if (body_size != sizeof(record.id) + length * sizeof(float)) {
            valid = false;
            break;
          }
          std::memcpy(&record.id, body, sizeof(record.id));
          record.row.resize(length);
          std::memcpy(record.row.data(), body + sizeof(record.id),
                      length * sizeof(float));
          ++stats.inserts;
          break;
        }
        case WalRecordType::kDelete: {
          record.type = WalRecordType::kDelete;
          if (body_size != sizeof(record.id)) {
            valid = false;
            break;
          }
          std::memcpy(&record.id, body, sizeof(record.id));
          ++stats.deletes;
          break;
        }
        default:
          valid = false;
      }
      if (!valid) {
        stats.tail_truncated = true;  // unknown type or malformed body
        break;
      }
      max_position = std::max(max_position, seqno + 1);
      apply(record);
    }
    std::fclose(file);
    if (stats.sequence_gap) {
      break;
    }
  }
  if (expected_first_seqno != 0 && max_position < expected_first_seqno) {
    // The retained log never even reached the fold point the caller
    // recovered to — it was deleted and recreated (seqnos restarted) or
    // its entire tail is gone. Nothing here is trustworthy relative to
    // that manifest.
    stats.sequence_gap = true;
  }
  return stats;
}

}  // namespace ingest
}  // namespace sofa
