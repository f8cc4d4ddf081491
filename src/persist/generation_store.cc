#include "persist/generation_store.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "index/serialization.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fsutil.h"

namespace sofa {
namespace persist {
namespace {

constexpr char kManifestMagic[8] = {'S', 'O', 'F', 'A', 'M', 'A', 'N', '1'};
constexpr char kSliceMagic[8] = {'S', 'O', 'F', 'A', 'S', 'L', 'C', '1'};
// v2: per-shard rq_bytes and rq_crc after the tail fields. They accounted
// for the shard-<s>.rq sidecar of a deleted pruning tier: written as 0 and
// ignored on read (as is any .rq file an old generation holds), so data
// directories written with the tier on still load. v1 is no longer read.
constexpr std::uint32_t kManifestVersion = 2;
constexpr char kGenPrefix[] = "gen-";
constexpr char kTmpSuffix[] = ".tmp";
constexpr char kManifestName[] = "MANIFEST";
// A corrupted manifest length field must not drive allocations.
constexpr std::size_t kMaxManifestBytes = 1ull << 30;
constexpr std::size_t kMaxShards = 1u << 16;

std::string GenName(std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%010llu", kGenPrefix,
                static_cast<unsigned long long>(seq));
  return name;
}

std::string ShardFile(const std::string& dir, std::size_t s,
                      const char* suffix) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04zu.%s", s, suffix);
  return dir + "/" + name;
}

// Parses "gen-NNNNNNNNNN" (committed) or "gen-NNNNNNNNNN.<anything>"
// (staging/replacement husks — ".tmp", ".old.tmp"); foreign names
// return false.
bool ParseGenName(const std::string& name, std::uint64_t* seq, bool* tmp) {
  const std::size_t prefix = sizeof(kGenPrefix) - 1;
  if (name.size() <= prefix || name.compare(0, prefix, kGenPrefix) != 0) {
    return false;
  }
  std::size_t i = prefix;
  std::uint64_t value = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
    ++i;
  }
  if (i == prefix) {
    return false;  // no digits
  }
  *tmp = i < name.size();  // any dotted suffix marks a non-committed husk
  if (*tmp && name[i] != '.') {
    return false;
  }
  *seq = value;
  return true;
}

// rm -rf for one generation directory (flat: no nested directories).
// Returns the bytes reclaimed (regular-file sizes; hardlinked files
// count at every unlink — the accounting is per directory, not per
// inode).
std::uint64_t RemoveDirRecursive(const std::string& dir) {
  std::uint64_t reclaimed = 0;
  DIR* handle = ::opendir(dir.c_str());
  if (handle != nullptr) {
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") {
        continue;
      }
      const std::string path = dir + "/" + name;
      struct stat st;
      if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
        reclaimed += static_cast<std::uint64_t>(st.st_size);
      }
      ::unlink(path.c_str());
    }
    ::closedir(handle);
  }
  ::rmdir(dir.c_str());
  return reclaimed;
}

// FsyncPath with call accounting (persist observability: how many fsync
// barriers one commit costs).
bool CountedFsync(const std::string& path, bool directory,
                  std::uint64_t* fsyncs) {
  ++*fsyncs;
  return FsyncPath(path, directory);
}

// Atomically swaps two paths (renameat2 + RENAME_EXCHANGE); false when
// the kernel or filesystem does not support the exchange.
bool ExchangePaths(const std::string& a, const std::string& b) {
#if defined(SYS_renameat2)
#ifndef RENAME_EXCHANGE
#define RENAME_EXCHANGE (1 << 1)
#endif
  return ::syscall(SYS_renameat2, AT_FDCWD, a.c_str(), AT_FDCWD, b.c_str(),
                   RENAME_EXCHANGE) == 0;
#else
  (void)a;
  (void)b;
  return false;
#endif
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

// Sequential decoder over a byte buffer; `ok` goes false on overrun and
// stays false (every Get after that returns zero).
class Decoder {
 public:
  Decoder(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - at_; }

  bool Bytes(void* out, std::size_t n) {
    if (!ok_ || size_ - at_ < n) {
      ok_ = false;
      return false;
    }
    if (n > 0) {  // empty reads may pass a null destination
      std::memcpy(out, data_ + at_, n);
      at_ += n;
    }
    return true;
  }

  std::uint64_t U64() {
    std::uint64_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  std::uint8_t U8() {
    std::uint8_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

// Streams bytes to a file while accumulating size + CRC32 — the shard
// files are whole-file checksummed in the manifest.
class CrcFileWriter {
 public:
  explicit CrcFileWriter(const std::string& path,
                         std::uint64_t* fsyncs = nullptr)
      : file_(std::fopen(path.c_str(), "wb")), fsyncs_(fsyncs) {}
  ~CrcFileWriter() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }

  bool ok() const { return file_ != nullptr && ok_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint32_t crc() const { return crc_; }

  void Write(const void* data, std::size_t size) {
    if (!ok() || size == 0) {  // empty slices pass a null data pointer
      return;
    }
    if (std::fwrite(data, 1, size, file_) != size) {
      ok_ = false;
      return;
    }
    crc_ = Crc32(data, size, crc_);
    bytes_ += size;
  }

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(&value, sizeof(T));
  }

  // Flush + fsync + close; true when every byte is on stable storage.
  bool Commit() {
    if (!ok()) {
      return false;
    }
    bool committed = std::fflush(file_) == 0;
    if (committed) {
      if (fsyncs_ != nullptr) {
        ++*fsyncs_;
      }
      committed = ::fsync(::fileno(file_)) == 0;
    }
    committed = (std::fclose(file_) == 0) && committed;
    file_ = nullptr;
    return committed;
  }

 private:
  std::FILE* file_;
  std::uint64_t* fsyncs_;
  bool ok_ = true;
  std::uint64_t bytes_ = 0;
  std::uint32_t crc_ = 0;
};

// Whole-file read with size + CRC accounting. `out == nullptr` streams
// the file without retaining content — how multi-GB shard index files
// are checksummed on both the write and the read side without a
// file-sized allocation (SaveIndex/LoadIndex do their own passes over
// them).
bool ReadFileBytes(const std::string& path, std::vector<unsigned char>* out,
                   std::uint64_t* bytes, std::uint32_t* crc) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  if (out != nullptr) {
    out->clear();
  }
  unsigned char chunk[1 << 16];
  std::uint64_t total = 0;
  std::uint32_t sum = 0;
  while (true) {
    const std::size_t n = std::fread(chunk, 1, sizeof(chunk), file);
    if (n == 0) {
      break;
    }
    if (out != nullptr) {
      out->insert(out->end(), chunk, chunk + n);
    }
    sum = Crc32(chunk, n, sum);
    total += n;
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) {
    return false;
  }
  *bytes = total;
  *crc = sum;
  return true;
}

// Writes one slice file (rows + global ids) and reports its size + CRC.
bool WriteSliceFile(const std::string& path, const Dataset& rows,
                    const std::uint32_t* ids, std::uint64_t* bytes,
                    std::uint32_t* crc, std::uint64_t* fsyncs = nullptr) {
  CrcFileWriter w(path, fsyncs);
  w.Write(kSliceMagic, sizeof(kSliceMagic));
  w.Pod(static_cast<std::uint64_t>(rows.size()));
  w.Pod(static_cast<std::uint64_t>(rows.length()));
  w.Write(rows.data(), rows.size() * rows.length() * sizeof(float));
  w.Write(ids, rows.size() * sizeof(std::uint32_t));
  *bytes = w.bytes();
  *crc = w.crc();
  return w.Commit();
}

// Parses a slice file already validated against its manifest size + CRC.
bool ParseSliceFile(const std::vector<unsigned char>& bytes,
                    std::size_t expected_length,
                    std::shared_ptr<Dataset>* rows,
                    std::vector<std::uint32_t>* ids) {
  Decoder d(bytes.data(), bytes.size());
  char magic[8];
  if (!d.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kSliceMagic, sizeof(kSliceMagic)) != 0) {
    return false;
  }
  const std::uint64_t count = d.U64();
  const std::uint64_t length = d.U64();
  const std::uint64_t per_row = length * sizeof(float) + sizeof(std::uint32_t);
  if (!d.ok() || length != expected_length ||
      count > d.remaining() / per_row || d.remaining() != count * per_row) {
    return false;
  }
  auto data = std::make_shared<Dataset>(static_cast<std::size_t>(count),
                                        static_cast<std::size_t>(length));
  d.Bytes(data->mutable_data(), count * length * sizeof(float));
  ids->resize(count);
  d.Bytes(ids->data(), count * sizeof(std::uint32_t));
  if (!d.ok()) {
    return false;
  }
  *rows = std::move(data);
  return true;
}

std::vector<unsigned char> EncodeManifest(const GenerationManifest& m) {
  std::vector<unsigned char> payload;
  PutU64(&payload, m.generation_seq);
  PutU64(&payload, m.next_id);
  PutU64(&payload, m.route_total);
  PutU64(&payload, m.series_length);
  payload.push_back(0);  // shard assignment: 0 = contiguous, the only one
  PutU64(&payload, m.wal_last_seqno);
  PutU64(&payload, m.wal_segment_seq);
  PutU64(&payload, m.shards.size());
  for (const ManifestShard& s : m.shards) {
    PutU64(&payload, s.shard_generation);
    PutU64(&payload, s.index_bytes);
    PutU32(&payload, s.index_crc);
    PutU64(&payload, s.slice_bytes);
    PutU32(&payload, s.slice_crc);
    PutU64(&payload, s.tail_bytes);
    PutU32(&payload, s.tail_crc);
    PutU64(&payload, 0);  // rq_bytes
    PutU32(&payload, 0);  // rq_crc
  }
  PutU64(&payload, m.tombstones.size());
  for (const std::uint32_t id : m.tombstones) {
    PutU32(&payload, id);
  }
  return payload;
}

bool DecodeManifest(const std::vector<unsigned char>& bytes,
                    GenerationManifest* out) {
  Decoder header(bytes.data(), bytes.size());
  char magic[8];
  if (!header.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return false;
  }
  const std::uint32_t version = header.U32();
  const std::uint32_t payload_size = header.U32();
  const std::uint32_t crc = header.U32();
  if (!header.ok() || version != kManifestVersion ||
      payload_size != header.remaining() ||
      Crc32(bytes.data() + (bytes.size() - payload_size), payload_size) !=
          crc) {
    return false;
  }
  Decoder d(bytes.data() + (bytes.size() - payload_size), payload_size);
  out->generation_seq = d.U64();
  out->next_id = d.U64();
  out->route_total = d.U64();
  out->series_length = d.U64();
  const std::uint8_t assignment = d.U8();
  out->wal_last_seqno = d.U64();
  out->wal_segment_seq = d.U64();
  const std::uint64_t num_shards = d.U64();
  // Contiguous ranges (0) are the only shard assignment a generation can
  // be reassembled under.
  if (!d.ok() || assignment != 0 || num_shards == 0 ||
      num_shards > kMaxShards) {
    return false;
  }
  out->shards.resize(num_shards);
  for (ManifestShard& s : out->shards) {
    s.shard_generation = d.U64();
    s.index_bytes = d.U64();
    s.index_crc = d.U32();
    s.slice_bytes = d.U64();
    s.slice_crc = d.U32();
    s.tail_bytes = d.U64();
    s.tail_crc = d.U32();
    d.U64();  // rq_bytes, ignored
    d.U32();  // rq_crc, ignored
  }
  // The count is checked before it is multiplied: a corrupt one must not
  // wrap the product into a match and then drive the allocation.
  const std::uint64_t num_tombstones = d.U64();
  if (!d.ok() || num_tombstones > d.remaining() / sizeof(std::uint32_t) ||
      d.remaining() != num_tombstones * sizeof(std::uint32_t)) {
    return false;
  }
  out->tombstones.resize(num_tombstones);
  d.Bytes(out->tombstones.data(), num_tombstones * sizeof(std::uint32_t));
  return d.ok() && out->series_length > 0;
}

// Validates a shard file against its manifest accounting; `out` may be
// null to validate without retaining the content (index files — their
// loader reads them itself).
bool ReadValidatedFile(const std::string& path, std::uint64_t want_bytes,
                       std::uint32_t want_crc,
                       std::vector<unsigned char>* out) {
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  if (!ReadFileBytes(path, out, &bytes, &crc)) {
    return false;
  }
  return bytes == want_bytes && crc == want_crc;
}

// Hardlink `from` as `to`, falling back to a byte copy (cross-device
// stores, filesystems without hardlinks). Returns the linked/copied
// file's existence.
bool LinkOrCopy(const std::string& from, const std::string& to,
                std::uint64_t* fsyncs = nullptr) {
  if (::link(from.c_str(), to.c_str()) == 0) {
    return true;
  }
  std::FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return false;
  }
  unsigned char chunk[1 << 16];
  bool ok = true;
  while (ok) {
    const std::size_t n = std::fread(chunk, 1, sizeof(chunk), in);
    if (n == 0) {
      ok = std::ferror(in) == 0;
      break;
    }
    ok = std::fwrite(chunk, 1, n, out) == n;
  }
  if (ok && fsyncs != nullptr) {
    ++*fsyncs;
  }
  ok = ok && std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
  std::fclose(in);
  ok = (std::fclose(out) == 0) && ok;
  return ok;
}

}  // namespace

GenerationStore::GenerationStore(std::string root, obs::Registry* registry)
    : root_(std::move(root)) {
  if (registry != nullptr) {
    obs::HistogramOptions commit_opts;
    commit_opts.min_value = 1e-2;   // 10 µs
    commit_opts.max_value = 1e6;    // 1000 s — big collections fsync slowly
    commit_ms_ = registry->GetHistogram(
        "sofa_persist_commit_ms", commit_opts, {},
        "Wall time of one generation Persist() (staging through commit)");
    fsync_total_ = registry->GetCounter(
        "sofa_persist_fsync_total", {},
        "fsync barriers issued by generation persists");
    gc_reclaimed_bytes_ = registry->GetCounter(
        "sofa_persist_gc_reclaimed_bytes_total", {},
        "Bytes reclaimed by generation garbage collection");
  }
}

std::unique_ptr<GenerationStore> GenerationStore::Open(
    const std::string& root, obs::Registry* registry) {
  if (!MakeDirs(root)) {
    return nullptr;
  }
  return std::unique_ptr<GenerationStore>(
      new GenerationStore(root, registry));
}

std::string GenerationStore::GenerationDir(std::uint64_t seq) const {
  return root_ + "/" + GenName(seq);
}

std::vector<std::uint64_t> GenerationStore::ListGenerations() const {
  std::vector<std::uint64_t> seqs;
  DIR* handle = ::opendir(root_.c_str());
  if (handle == nullptr) {
    return seqs;
  }
  while (const dirent* entry = ::readdir(handle)) {
    std::uint64_t seq = 0;
    bool tmp = false;
    if (ParseGenName(entry->d_name, &seq, &tmp) && !tmp) {
      seqs.push_back(seq);
    }
  }
  ::closedir(handle);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

bool GenerationStore::Persist(const PersistRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t fsyncs = 0;
  const bool ok = PersistImpl(request, &fsyncs);
  if (fsync_total_ != nullptr) {
    fsync_total_->Add(fsyncs);
  }
  if (commit_ms_ != nullptr) {
    // Failed attempts are recorded too — a persist that spends seconds
    // before failing is exactly what the histogram should surface.
    commit_ms_->Record(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return ok;
}

bool GenerationStore::PersistImpl(const PersistRequest& request,
                                  std::uint64_t* fsyncs) {
  SOFA_CHECK(request.sharded != nullptr);
  const shard::ShardedIndex& sharded = *request.sharded;
  const std::size_t num_shards = sharded.num_shards();
  // The insert buffer's tail belongs to the last shard; every other
  // shard's .tail is an empty slice.
  const Dataset empty_tail(sharded.length());
  const Dataset& tail =
      request.buffer_rows != nullptr ? *request.buffer_rows : empty_tail;
  SOFA_CHECK(tail.length() == sharded.length() &&
             tail.size() == request.buffer_ids.size());

  const std::string final_dir = GenerationDir(request.generation_seq);
  const std::string tmp_dir = final_dir + kTmpSuffix;
  RemoveDirRecursive(tmp_dir);  // stale husk from a previous failure
  if (!MakeDirs(tmp_dir)) {
    return false;
  }

  GenerationManifest manifest;
  manifest.generation_seq = request.generation_seq;
  manifest.next_id = request.next_id;
  manifest.route_total = request.route_total;
  manifest.series_length = sharded.length();
  manifest.wal_last_seqno = request.wal_last_seqno;
  manifest.wal_segment_seq = request.wal_segment_seq;
  manifest.tombstones = request.tombstones;
  manifest.shards.resize(num_shards);

  const bool can_reuse = last_manifest_.has_value() &&
                         last_manifest_->shards.size() == num_shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const shard::Shard& shard = sharded.shard(s);
    ManifestShard& entry = manifest.shards[s];
    entry.shard_generation = shard.generation;
    const std::string idx = ShardFile(tmp_dir, s, "idx");
    const std::string rows = ShardFile(tmp_dir, s, "rows");
    // Compaction replaces one shard per publish; every other shard's
    // tree and slice are bit-identical to the previous commit, so a
    // hardlink (copy on filesystems without them) makes the steady-state
    // persist O(changed shard), not O(collection).
    const bool reused =
        can_reuse &&
        last_manifest_->shards[s].shard_generation == shard.generation &&
        LinkOrCopy(ShardFile(last_dir_, s, "idx"), idx, fsyncs) &&
        LinkOrCopy(ShardFile(last_dir_, s, "rows"), rows, fsyncs);
    if (reused) {
      entry.index_bytes = last_manifest_->shards[s].index_bytes;
      entry.index_crc = last_manifest_->shards[s].index_crc;
      entry.slice_bytes = last_manifest_->shards[s].slice_bytes;
      entry.slice_crc = last_manifest_->shards[s].slice_crc;
    } else {
      if (!index::SaveIndex(*shard.tree, idx)) {
        return false;
      }
      if (!ReadFileBytes(idx, /*out=*/nullptr, &entry.index_bytes,
                         &entry.index_crc) ||
          !CountedFsync(idx, /*directory=*/false, fsyncs)) {
        return false;
      }
      if (!WriteSliceFile(rows, *shard.data, shard.global_ids->data(),
                          &entry.slice_bytes, &entry.slice_crc, fsyncs)) {
        return false;
      }
    }
    const bool last = s + 1 == num_shards;
    if (!WriteSliceFile(ShardFile(tmp_dir, s, "tail"),
                        last ? tail : empty_tail,
                        last ? request.buffer_ids.data() : nullptr,
                        &entry.tail_bytes, &entry.tail_crc, fsyncs)) {
      return false;
    }
  }

  // The manifest is written last: a directory without a valid one never
  // commits, whatever else it holds.
  {
    const std::vector<unsigned char> payload = EncodeManifest(manifest);
    CrcFileWriter w(tmp_dir + "/" + kManifestName, fsyncs);
    w.Write(kManifestMagic, sizeof(kManifestMagic));
    w.Pod(kManifestVersion);
    w.Pod(static_cast<std::uint32_t>(payload.size()));
    w.Pod(Crc32(payload.data(), payload.size()));
    w.Write(payload.data(), payload.size());
    if (!w.Commit()) {
      return false;
    }
  }

  // Commit: fsync the staged directory (its entries are durable), rename
  // into the final name — THE atomic commit point — then fsync the root
  // so the rename itself is durable. Re-persisting an already-committed
  // sequence number (an embedder snapshotting between publishes) swaps
  // the directories atomically where the kernel supports it, so there is
  // never an instant with no committed generation; the fallback shrinks
  // the window to two back-to-back renames (old aside — as an ignored
  // .tmp name — then commit).
  if (!CountedFsync(tmp_dir, /*directory=*/true, fsyncs)) {
    return false;
  }
  struct stat existing;
  if (::stat(final_dir.c_str(), &existing) == 0) {
    if (ExchangePaths(tmp_dir, final_dir)) {
      RemoveDirRecursive(tmp_dir);  // the swapped-out old generation
    } else {
      const std::string old_aside = final_dir + ".old" + kTmpSuffix;
      RemoveDirRecursive(old_aside);
      if (::rename(final_dir.c_str(), old_aside.c_str()) != 0 ||
          ::rename(tmp_dir.c_str(), final_dir.c_str()) != 0) {
        return false;
      }
      RemoveDirRecursive(old_aside);
    }
  } else if (::rename(tmp_dir.c_str(), final_dir.c_str()) != 0) {
    return false;
  }
  if (!CountedFsync(root_, /*directory=*/true, fsyncs)) {
    return false;
  }
  last_manifest_ = std::move(manifest);
  last_dir_ = final_dir;
  return true;
}

std::optional<LoadedGeneration> GenerationStore::LoadGeneration(
    std::uint64_t seq, ThreadPool* pool) const {
  SOFA_CHECK(pool != nullptr);
  const std::string dir = GenerationDir(seq);
  LoadedGeneration loaded;
  {
    std::vector<unsigned char> bytes;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    if (!ReadFileBytes(dir + "/" + kManifestName, &bytes, &size, &crc) ||
        size > kMaxManifestBytes ||
        !DecodeManifest(bytes, &loaded.manifest)) {
      return std::nullopt;
    }
  }
  const GenerationManifest& manifest = loaded.manifest;
  if (manifest.generation_seq != seq) {
    return std::nullopt;
  }
  const std::size_t num_shards = manifest.shards.size();
  std::vector<shard::Shard> shards(num_shards);
  shard::ShardingConfig config;
  config.num_shards = num_shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ManifestShard& entry = manifest.shards[s];
    std::vector<unsigned char> bytes;
    if (!ReadValidatedFile(ShardFile(dir, s, "rows"), entry.slice_bytes,
                           entry.slice_crc, &bytes)) {
      return std::nullopt;
    }
    std::shared_ptr<Dataset> rows;
    std::vector<std::uint32_t> ids;
    if (!ParseSliceFile(bytes, manifest.series_length, &rows, &ids)) {
      return std::nullopt;
    }
    const std::string idx = ShardFile(dir, s, "idx");
    if (!ReadValidatedFile(idx, entry.index_bytes, entry.index_crc,
                           /*out=*/nullptr)) {
      return std::nullopt;
    }
    // Shards 1… reuse shard 0's scheme object when theirs decodes to the
    // same bytes, so a query projects once for the whole generation.
    auto tree = index::LoadIndex(idx, rows.get(), pool,
                                 s == 0 ? nullptr : shards[0].scheme);
    if (!tree.has_value()) {
      return std::nullopt;
    }
    shards[s].data = rows;
    shards[s].scheme = std::move(tree->scheme);
    shards[s].tree = std::shared_ptr<const index::TreeIndex>(
        std::move(tree->tree));
    shards[s].global_ids =
        std::make_shared<const std::vector<std::uint32_t>>(std::move(ids));
    shards[s].generation = entry.shard_generation;
    if (!ReadValidatedFile(ShardFile(dir, s, "tail"), entry.tail_bytes,
                           entry.tail_crc, &bytes)) {
      return std::nullopt;
    }
    std::shared_ptr<Dataset> tail_rows;
    std::vector<std::uint32_t> tail_ids;
    if (!ParseSliceFile(bytes, manifest.series_length, &tail_rows,
                        &tail_ids)) {
      return std::nullopt;
    }
    // Only the last shard owns the insert buffer, so only its tail may
    // hold rows.
    if (s + 1 == num_shards) {
      loaded.buffer_rows = std::move(tail_rows);
      loaded.buffer_ids = std::move(tail_ids);
    } else if (!tail_ids.empty()) {
      return std::nullopt;
    }
  }
  // Rebuilt shards keep the build-time per-tree configuration; recover
  // it from the deserialized trees so post-restart compactions derive
  // identically configured trees.
  config.index = shards[0].tree->config();
  loaded.sharded = shard::ShardedIndex::FromShards(
      std::move(shards), config, manifest.series_length, pool);
  return loaded;
}

std::optional<LoadedGeneration> GenerationStore::LoadLatest(
    ThreadPool* pool) const {
  std::vector<std::uint64_t> seqs = ListGenerations();
  // Newest first; fall back across generations that fail any validation
  // step — a torn commit never has a valid manifest, and bit rot or a
  // racing GC shows up as a size/CRC/parse failure.
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    std::optional<LoadedGeneration> loaded = LoadGeneration(*it, pool);
    if (loaded.has_value()) {
      return loaded;
    }
  }
  return std::nullopt;
}

void GenerationStore::RemoveGenerationsBelow(std::uint64_t keep_seq) {
  DIR* handle = ::opendir(root_.c_str());
  if (handle == nullptr) {
    return;
  }
  std::vector<std::string> doomed;
  while (const dirent* entry = ::readdir(handle)) {
    std::uint64_t seq = 0;
    bool tmp = false;
    if (ParseGenName(entry->d_name, &seq, &tmp) && seq < keep_seq) {
      doomed.push_back(root_ + "/" + entry->d_name);
    }
  }
  ::closedir(handle);
  std::uint64_t reclaimed = 0;
  for (const std::string& dir : doomed) {
    reclaimed += RemoveDirRecursive(dir);
  }
  if (gc_reclaimed_bytes_ != nullptr && reclaimed > 0) {
    gc_reclaimed_bytes_->Add(reclaimed);
  }
}

}  // namespace persist
}  // namespace sofa
