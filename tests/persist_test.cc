// Tests for the durable generation store (src/persist/) and its wiring
// through the ingest path: atomic persist-at-publish (write-temp + fsync
// + rename), newest-valid-manifest recovery with fallback across torn
// commits, bounded WAL-tail replay (restart cost = mutations since the
// last compaction, not all mutations ever), hardlink slice reuse, GC
// gating, refusal of a manifest naming the retired hash assignment,
// holding tail rows outside the last shard or a tombstone count whose
// byte size wraps, loads that ignore a legacy .rq sidecar, the WAL v2
// record-seqno chain (interior loss detected as sequence_gap, torn tails
// stay benign), group-commit correctness under concurrent mutators, and the
// end-to-end restart proof: a serving process killed at a random point
// recovers from (latest manifest + WAL tail) to answers bit-identical to
// a from-scratch build over base ∪ inserts \ deletes — with the on-disk
// WAL provably truncated.

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "harness/workload.h"
#include "ingest/compactor.h"
#include "ingest/wal.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "persist/generation_store.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "shard/sharded_index.h"
#include "test_data.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace sofa {
namespace persist {
namespace {

using testing_data::Walk;
using testing_harness::BitIdentical;
using testing_harness::MakeSearchRequest;
using testing_harness::ReadFileBytes;
using testing_harness::WriteFileBytes;

// The deterministic mutation stream + from-scratch oracle shared with
// the other restart/exactness suites.
using Workload = testing_harness::MutationWorkload;

std::string TestDir(const std::string& name) {
  return "/tmp/sofa_persist_" + name + "_" + std::to_string(::getpid());
}

// rm -rf (two levels: store roots hold generation directories).
void RemoveTree(const std::string& path) {
  DIR* handle = ::opendir(path.c_str());
  if (handle != nullptr) {
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") {
        continue;
      }
      const std::string child = path + "/" + name;
      struct stat info;
      if (::lstat(child.c_str(), &info) == 0 && S_ISDIR(info.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(handle);
  }
  ::rmdir(path.c_str());
}

// Flat-directory copy (generation directories have no subdirectories) —
// used to stash a generation GC would otherwise remove.
void CopyTree(const std::string& from, const std::string& to) {
  ::mkdir(to.c_str(), 0755);
  DIR* handle = ::opendir(from.c_str());
  ASSERT_NE(handle, nullptr);
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") {
      continue;
    }
    std::FILE* in = std::fopen((from + "/" + name).c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::FILE* out = std::fopen((to + "/" + name).c_str(), "wb");
    ASSERT_NE(out, nullptr);
    unsigned char chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
      ASSERT_EQ(std::fwrite(chunk, 1, got, out), got);
    }
    std::fclose(in);
    std::fclose(out);
  }
  ::closedir(handle);
}

std::string GenDirName(std::uint64_t seq) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%010llu",
                static_cast<unsigned long long>(seq));
  return "gen-" + std::string(buf);
}

ingest::IngestConfig DurableConfig(const std::string& root,
                                   GenerationStore* store,
                                   std::size_t threshold = 60,
                                   bool auto_compact = true) {
  ingest::IngestConfig config;
  config.wal_dir = root + "/wal";
  config.wal.sync_every = 4;
  config.compact_threshold = threshold;
  config.auto_compact = auto_compact;
  config.store = store;
  return config;
}

// ---------------------------------------------------- store primitives

TEST(GenerationStoreTest, PersistLoadRoundTripAndGc) {
  const std::string root = TestDir("roundtrip");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  const auto sharded = w.BuildSharded(&pool);
  {
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), /*threshold=*/60,
                      /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    // Mutations → Flush: every pending row/tombstone folds into trees,
    // each compaction publish persists a generation.
    w.Apply(&compactor, 0, 300);
    compactor.Flush();
    const ingest::IngestMetrics metrics = compactor.Metrics();
    EXPECT_GT(metrics.compactions, 0u);
    EXPECT_GT(metrics.persisted, 0u);
    EXPECT_EQ(metrics.persist_failures, 0u);
  }
  // GC retains the newest committed generation (older ones go once no
  // publish can still reference them — by destruction, all retired).
  const std::vector<std::uint64_t> seqs = store->ListGenerations();
  ASSERT_FALSE(seqs.empty());
  const std::optional<LoadedGeneration> loaded =
      store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->manifest.generation_seq, seqs.back());
  EXPECT_EQ(loaded->manifest.route_total, Workload::kBase);
  EXPECT_EQ(loaded->sharded->num_shards(), Workload::kShards);
  // Every shard file holds the same scheme, so one object serves them all
  // and a query projects once for the generation.
  for (std::size_t s = 1; s < loaded->sharded->num_shards(); ++s) {
    EXPECT_EQ(&loaded->sharded->shard(s).tree->scheme(),
              &loaded->sharded->shard(0).tree->scheme())
        << "shard " << s;
  }
  EXPECT_EQ(loaded->manifest.next_id,
            Workload::kBase + Workload::InsertsBefore(300));
  // After Flush every mutation is in the trees: no buffered tail, and
  // the WAL on disk holds no tail records past the fold point.
  EXPECT_TRUE(loaded->buffer_ids.empty());
  EXPECT_EQ(loaded->sharded->size(),
            Workload::kBase + Workload::InsertsBefore(300) - 300 / 5);
  RemoveTree(root);
}

TEST(GenerationStoreTest, RestartReplaysOnlyTheWalTail) {
  const std::string root = TestDir("tail");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  const Dataset queries = Walk(6, Workload::kLength, 77);
  std::vector<std::vector<Neighbor>> pre_crash;
  {
    const auto sharded = w.BuildSharded(&pool);
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), /*threshold=*/60,
                      /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    w.Apply(&compactor, 0, 500);
    compactor.Flush();  // compacts + persists everything so far
    ASSERT_GT(compactor.Metrics().persisted, 0u);
    // The tail: mutations after the last persist stay WAL-only.
    w.Apply(&compactor, 500, 620);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const service::SearchResponse response =
          svc.Search(MakeSearchRequest(queries, q, 10));
      ASSERT_EQ(response.status, service::RequestStatus::kOk);
      pre_crash.push_back(response.neighbors);
    }
  }  // crash: everything in memory gone

  // The WAL on disk was truncated at the last fold point: every retained
  // segment is at or past the manifest's tail segment — replay work is
  // bounded by mutations since the last compaction, asserted below.
  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_GT(loaded->manifest.wal_segment_seq, 0u);
  {
    std::uint64_t tail_records = 0;
    const ingest::WalReplayStats replayed = ingest::WriteAheadLog::Replay(
        root + "/wal", Workload::kLength,
        [&](const ingest::WalRecord&) { ++tail_records; });
    EXPECT_FALSE(replayed.sequence_gap);
    // 120 tail mutations (steps 500..620), not the 620 of the full
    // history: the pre-fold segments are gone from disk.
    EXPECT_EQ(tail_records, 120u);
  }

  const ingest::RecoveredBase recovered_base =
      ingest::MakeRecoveredBase(*loaded);
  service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                             &pool);
  ingest::Compactor compactor(
      &svc, loaded->sharded,
      DurableConfig(root, store.get(), /*threshold=*/60,
                    /*auto_compact=*/false),
      &recovered_base);
  const ingest::RecoverStats stats = compactor.Recover();
  EXPECT_TRUE(stats.ok);
  EXPECT_FALSE(stats.sequence_gap);
  // Bounded replay, the acceptance criterion: only the 120 tail steps
  // are applied (96 inserts, 24 deletes), nothing is re-read from the
  // persisted prefix.
  EXPECT_EQ(stats.inserts_applied, Workload::InsertsBefore(620) -
                                       Workload::InsertsBefore(500));
  EXPECT_EQ(stats.deletes_applied, 620 / 5 - 500 / 5);
  EXPECT_EQ(stats.records_skipped, 0u);

  // Bit-identity with the pre-crash process AND the from-scratch oracle.
  const Workload::Oracle oracle(w, 620, &pool);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors, pre_crash[q]));
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             oracle.SearchKnn(queries.row(q), 10)));
  }
  RemoveTree(root);
}

// A purged tombstone leaves no trace in the manifest, yet its id stays
// deleted: a resumed Compactor must still answer kAlreadyDeleted, not
// log a new delete and keep a phantom tombstone.
TEST(GenerationStoreTest, PurgedIdStaysDeletedAcrossARestart) {
  const std::string root = TestDir("purged");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  {
    const auto sharded = w.BuildSharded(&pool);
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), /*threshold=*/60,
                      /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    ASSERT_EQ(compactor.Delete(7), StatusCode::kOk);
    compactor.Flush();  // compacts row 7 out; its tombstone is purged
    ASSERT_EQ(compactor.Delete(8), StatusCode::kOk);
    compactor.Flush();  // persists a generation that no longer holds 7
    EXPECT_EQ(compactor.Delete(7).ToString(), AlreadyDeletedError().ToString());
  }
  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  const ingest::RecoveredBase recovered_base =
      ingest::MakeRecoveredBase(*loaded);
  service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                             &pool);
  ingest::Compactor compactor(
      &svc, loaded->sharded,
      DurableConfig(root, store.get(), /*threshold=*/60,
                    /*auto_compact=*/false),
      &recovered_base);
  ASSERT_TRUE(compactor.Recover().ok);
  EXPECT_EQ(compactor.Delete(7).ToString(), AlreadyDeletedError().ToString());
  EXPECT_EQ(compactor.Metrics().tombstones, 0u);
  RemoveTree(root);
}

// ------------------------------------------------- recovery edge cases

TEST(GenerationStoreTest, TornCommitFallsBackToPreviousGeneration) {
  const std::string root = TestDir("torn");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  {
    const auto sharded = w.BuildSharded(&pool);
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), 60, /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    w.Apply(&compactor, 0, 300);
    compactor.Flush();
    w.Apply(&compactor, 300, 380);  // tail
  }
  const std::vector<std::uint64_t> seqs = store->ListGenerations();
  ASSERT_FALSE(seqs.empty());
  const std::uint64_t good = seqs.back();

  // A torn commit: a newer generation whose manifest never finished. A
  // real crash leaves this as a .tmp staging dir (ignored outright) or a
  // directory whose manifest fails its CRC — both must fall back.
  const std::string good_dir = root + "/generations/" + GenDirName(good);
  const std::string torn_dir = root + "/generations/gen-9999999999";
  ASSERT_EQ(::mkdir(torn_dir.c_str(), 0755), 0);
  std::vector<unsigned char> manifest =
      ReadFileBytes(good_dir + "/MANIFEST");
  ASSERT_FALSE(manifest.empty());
  manifest.resize(manifest.size() / 2);  // torn mid-write
  WriteFileBytes(torn_dir + "/MANIFEST", manifest);
  ::mkdir((root + "/generations/gen-9999999998.tmp").c_str(), 0755);

  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->manifest.generation_seq, good);

  // And the fallback generation still recovers the full state: its WAL
  // tail was never truncated past its own fold point.
  const ingest::RecoveredBase recovered_base =
      ingest::MakeRecoveredBase(*loaded);
  service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                             &pool);
  ingest::Compactor compactor(
      &svc, loaded->sharded,
      DurableConfig(root, store.get(), 60, /*auto_compact=*/false),
      &recovered_base);
  const ingest::RecoverStats stats = compactor.Recover();
  EXPECT_TRUE(stats.ok);
  const Workload::Oracle oracle(w, 380, &pool);
  const Dataset queries = Walk(4, Workload::kLength, 78);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             oracle.SearchKnn(queries.row(q), 10)));
  }
  RemoveTree(root);
}

TEST(GenerationStoreTest, MissingOrCorruptShardFileFailsValidation) {
  const std::string root = TestDir("slice");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  {
    const auto sharded = w.BuildSharded(&pool);
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), 60, /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    w.Apply(&compactor, 0, 200);
    compactor.Flush();
  }
  const std::vector<std::uint64_t> seqs = store->ListGenerations();
  ASSERT_FALSE(seqs.empty());
  const std::string dir = root + "/generations/" + GenDirName(seqs.back());

  // Bit rot: flip one byte inside a slice — the manifest CRC check
  // refuses the generation instead of serving silently wrong rows.
  const std::string rows = dir + "/shard-0000.rows";
  std::vector<unsigned char> bytes = ReadFileBytes(rows);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFileBytes(rows, bytes);
  EXPECT_FALSE(store->LoadGeneration(seqs.back(), &pool).has_value());

  // Missing file entirely: same refusal.
  ASSERT_EQ(::unlink(rows.c_str()), 0);
  EXPECT_FALSE(store->LoadGeneration(seqs.back(), &pool).has_value());
  EXPECT_FALSE(store->LoadLatest(&pool).has_value());  // only generation
  RemoveTree(root);
}

// Re-seals a MANIFEST after an edit of its payload: recomputes the CRC
// over the payload so the edit reaches the decoder's field checks
// instead of failing the frame check. Layout: magic (8), version (4),
// payload size (4), payload CRC (4), payload.
constexpr std::size_t kManifestHeaderBytes = 20;

void ResealManifest(std::vector<unsigned char>* bytes) {
  ASSERT_GT(bytes->size(), kManifestHeaderBytes);
  const std::uint32_t crc = Crc32(bytes->data() + kManifestHeaderBytes,
                                  bytes->size() - kManifestHeaderBytes);
  std::memcpy(bytes->data() + 16, &crc, sizeof(crc));
}

// Contiguous ranges are the only assignment a generation can be
// reassembled under: a manifest whose assignment byte (payload offset
// 32) reads 1 — the retired hash assignment — is refused, not loaded as
// contiguous shards.
TEST(GenerationStoreTest, HashAssignmentManifestIsRefused) {
  const std::string root = TestDir("assign");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  PersistRequest request;
  request.generation_seq = 1;
  request.route_total = Workload::kBase;
  request.next_id = Workload::kBase;
  request.sharded = w.BuildSharded(&pool);
  ASSERT_TRUE(store->Persist(request));
  ASSERT_TRUE(store->LoadGeneration(1, &pool).has_value());

  const std::string manifest =
      root + "/generations/" + GenDirName(1) + "/MANIFEST";
  std::vector<unsigned char> bytes = ReadFileBytes(manifest);
  constexpr std::size_t kAssignmentByte = kManifestHeaderBytes + 32;
  ASSERT_GT(bytes.size(), kAssignmentByte);
  ASSERT_EQ(bytes[kAssignmentByte], 0u);
  bytes[kAssignmentByte] = 1;
  ResealManifest(&bytes);
  WriteFileBytes(manifest, bytes);
  EXPECT_FALSE(store->LoadGeneration(1, &pool).has_value());
  EXPECT_FALSE(store->LoadLatest(&pool).has_value());

  // The same bytes with the assignment restored load again: the refusal
  // is the assignment's, not a broken frame's.
  bytes[kAssignmentByte] = 0;
  ResealManifest(&bytes);
  WriteFileBytes(manifest, bytes);
  EXPECT_TRUE(store->LoadGeneration(1, &pool).has_value());
  RemoveTree(root);
}

// Only the last shard owns the insert buffer, so only its .tail may hold
// rows: a generation whose first shard's tail holds the buffered rows
// (file and manifest accounting both consistent) is refused.
TEST(GenerationStoreTest, TailRowsOutsideTheLastShardAreRefused) {
  const std::string root = TestDir("tail");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  constexpr std::size_t kTail = 3;
  auto tail = std::make_shared<Dataset>(Workload::kLength);
  PersistRequest request;
  for (std::size_t i = 0; i < kTail; ++i) {
    tail->Append(w.inserts.row(i));
    request.buffer_ids.push_back(
        static_cast<std::uint32_t>(Workload::kBase + i));
  }
  request.generation_seq = 1;
  request.route_total = Workload::kBase;
  request.next_id = Workload::kBase + kTail;
  request.sharded = w.BuildSharded(&pool);
  request.buffer_rows = tail;
  ASSERT_TRUE(store->Persist(request));
  const std::optional<LoadedGeneration> loaded =
      store->LoadGeneration(1, &pool);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->buffer_ids, request.buffer_ids);

  // Move the tail to shard 0: its file, and its size + CRC in the
  // manifest (payload: 57 bytes of header fields, then 56 bytes per
  // shard with tail_bytes + tail_crc at offset 32 of each entry).
  const std::string dir = root + "/generations/" + GenDirName(1);
  char last_tail[32];
  std::snprintf(last_tail, sizeof(last_tail), "/shard-%04zu.tail",
                Workload::kShards - 1);
  WriteFileBytes(dir + "/shard-0000.tail", ReadFileBytes(dir + last_tail));
  std::vector<unsigned char> bytes = ReadFileBytes(dir + "/MANIFEST");
  const auto tail_fields = [](std::size_t s) {
    return kManifestHeaderBytes + 57 + 56 * s + 32;
  };
  ASSERT_GE(bytes.size(), tail_fields(Workload::kShards - 1) + 12);
  std::memcpy(bytes.data() + tail_fields(0),
              bytes.data() + tail_fields(Workload::kShards - 1), 12);
  ResealManifest(&bytes);
  WriteFileBytes(dir + "/MANIFEST", bytes);
  EXPECT_FALSE(store->LoadGeneration(1, &pool).has_value());
  RemoveTree(root);
}

TEST(GenerationStoreTest, ManifestWalMismatchIsRefused) {
  const std::string root = TestDir("mismatch");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  std::uint64_t first_gen = 0;
  const std::string stash = root + "/stash";
  {
    const auto sharded = w.BuildSharded(&pool);
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), 60, /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    w.Apply(&compactor, 0, 200);
    compactor.Flush();  // generation A; WAL truncated to A's fold point
    first_gen = store->ListGenerations().back();
    // Stash A before generation B's commit garbage-collects it.
    CopyTree(root + "/generations/" + GenDirName(first_gen), stash);
    w.Apply(&compactor, 200, 400);
    compactor.Flush();  // generation B; WAL truncated PAST A's tail
    ASSERT_GT(store->ListGenerations().back(), first_gen);
  }
  // Losing generation B (operator error, disk loss) forces fallback to
  // A — but A's WAL tail is gone (B's commit truncated it). The record
  // seqno chain proves the hole: recovery must refuse, not resurrect.
  for (const std::uint64_t seq : store->ListGenerations()) {
    if (seq > first_gen) {
      RemoveTree(root + "/generations/" + GenDirName(seq));
    }
  }
  CopyTree(stash, root + "/generations/" + GenDirName(first_gen));
  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->manifest.generation_seq, first_gen);
  const ingest::RecoveredBase recovered_base =
      ingest::MakeRecoveredBase(*loaded);
  service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                             &pool);
  ingest::Compactor compactor(
      &svc, loaded->sharded,
      DurableConfig(root, store.get(), 60, /*auto_compact=*/false),
      &recovered_base);
  const ingest::RecoverStats stats = compactor.Recover();
  EXPECT_FALSE(stats.ok);
  EXPECT_TRUE(stats.sequence_gap);
  RemoveTree(root);
}

TEST(GenerationStoreTest, LostWalDirectoryIsRefused) {
  const std::string root = TestDir("lostwal");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  {
    const auto sharded = w.BuildSharded(&pool);
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), 60, /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    w.Apply(&compactor, 0, 200);
    compactor.Flush();
  }
  // The whole WAL directory vanishes (fs loss, operator rm). A fresh
  // writer would restart seqnos at 1 — below the manifest's fold point —
  // so recovery must refuse even though zero records remain to replay.
  RemoveTree(root + "/wal");
  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_GT(loaded->manifest.wal_last_seqno, 0u);
  const ingest::RecoveredBase recovered_base =
      ingest::MakeRecoveredBase(*loaded);
  service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                             &pool);
  ingest::Compactor compactor(
      &svc, loaded->sharded,
      DurableConfig(root, store.get(), 60, /*auto_compact=*/false),
      &recovered_base);
  const ingest::RecoverStats stats = compactor.Recover();
  EXPECT_FALSE(stats.ok);
  EXPECT_TRUE(stats.sequence_gap);
  RemoveTree(root);
}

// Wired like `serve --data-dir` (WAL + generation store, the base
// persisted at bootstrap), every insert the server acknowledged over TCP
// survives a restart, even after a client sent the retired ADMIN op 1
// (once a WAL truncation no generation covered): the op is refused and
// leaves the log alone.
TEST(GenerationStoreTest, AcknowledgedNetworkInsertsSurviveRetiredAdminOp) {
  const std::string root = TestDir("admin_op1");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  constexpr std::size_t kInserts = 50;
  {
    const auto sharded = w.BuildSharded(&pool);
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), 60, /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    ASSERT_TRUE(compactor.PersistNow().ok());  // the bootstrap persist
    net::SofaServer server(&svc, compactor);
    ASSERT_TRUE(server.Start().ok());
    net::SofaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    for (std::size_t i = 0; i < kInserts; ++i) {
      const StatusOr<std::uint32_t> id = client.Insert(std::vector<float>(
          w.inserts.row(i), w.inserts.row(i) + Workload::kLength));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(id.value(), Workload::kBase + i);
    }
    EXPECT_EQ(client.Admin(static_cast<net::AdminOp>(1)).code(),
              StatusCode::kProtocolError);
    client.Close();
    server.Shutdown();
  }  // the server process goes away

  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  const ingest::RecoveredBase recovered_base =
      ingest::MakeRecoveredBase(*loaded);
  service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                             &pool);
  ingest::Compactor compactor(
      &svc, loaded->sharded,
      DurableConfig(root, store.get(), 60, /*auto_compact=*/false),
      &recovered_base);
  const ingest::RecoverStats stats = compactor.Recover();
  EXPECT_TRUE(stats.ok);
  EXPECT_FALSE(stats.sequence_gap);
  EXPECT_EQ(stats.inserts_applied, kInserts);

  Dataset combined(Workload::kLength);
  for (std::size_t i = 0; i < Workload::kBase; ++i) {
    combined.Append(w.base.row(i));
  }
  for (std::size_t i = 0; i < kInserts; ++i) {
    combined.Append(w.inserts.row(i));
  }
  const testing_harness::ExactOracle oracle(
      combined, {}, testing_harness::TrainTestScheme(w.base, &pool), &pool);
  const Dataset queries = Walk(6, Workload::kLength, 79);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             oracle.SearchKnn(queries.row(q), 10)))
        << "query " << q;
  }
  RemoveTree(root);
}

TEST(GenerationStoreTest, GcRacesInFlightRecovery) {
  const std::string root = TestDir("gcrace");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  {
    // This test drives Persist/GC by hand to stage multiple retained
    // generations of one base index.
    const auto sharded = w.BuildSharded(&pool);
    PersistRequest request;
    request.route_total = Workload::kBase;
    request.next_id = Workload::kBase;
    request.sharded = sharded;
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      request.generation_seq = seq;
      ASSERT_TRUE(store->Persist(request));
    }
  }
  // Loader vs collector: GC may sweep anything below the newest while
  // LoadLatest walks the directory — the newest always survives, a
  // half-deleted older generation just fails validation and is skipped.
  std::atomic<bool> stop(false);
  std::atomic<std::uint64_t> loads(0);
  std::thread loader([&] {
    ThreadPool loader_pool(2);
    while (!stop.load()) {
      const std::optional<LoadedGeneration> loaded =
          store->LoadLatest(&loader_pool);
      ASSERT_TRUE(loaded.has_value());
      EXPECT_EQ(loaded->manifest.generation_seq, 6u);
      ++loads;
    }
  });
  for (std::uint64_t keep = 2; keep <= 6; ++keep) {
    store->RemoveGenerationsBelow(keep);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  loader.join();
  EXPECT_GT(loads.load(), 0u);
  EXPECT_EQ(store->ListGenerations(), std::vector<std::uint64_t>{6});
  RemoveTree(root);
}

// ------------------------------------------------ legacy .rq sidecars

// A generation written while the (since deleted) compressed pruning tier
// was on holds a shard-<s>.rq file per shard, with its size and CRC in
// the MANIFEST (payload: 57 bytes of header fields, then 56 bytes per
// shard with rq_bytes + rq_crc at offset 44 of each entry). Such a data
// directory still restarts: the load ignores both, and its answers are
// the oracle's. The next commit accounts for no sidecar.
TEST(GenerationStoreTest, LegacyRowqSidecarIsIgnored) {
  const std::string root = TestDir("legacy_rq");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  const auto sharded = w.BuildSharded(&pool);
  {
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
    ingest::Compactor compactor(
        &svc, sharded,
        DurableConfig(root, store.get(), /*threshold=*/60,
                      /*auto_compact=*/false));
    ASSERT_TRUE(compactor.Recover().ok);
    w.Apply(&compactor, 0, 300);
    compactor.Flush();
    EXPECT_EQ(compactor.Metrics().persist_failures, 0u);
  }
  const std::vector<std::uint64_t> seqs = store->ListGenerations();
  ASSERT_FALSE(seqs.empty());
  const std::string dir = root + "/generations/" + GenDirName(seqs.back());

  const std::vector<unsigned char> sidecar = {'S', 'O', 'F', 'A', 'R', 'Q',
                                              '0', '1', 1,   2,   3,   4};
  WriteFileBytes(dir + "/shard-0000.rq", sidecar);
  const std::uint64_t rq_bytes = sidecar.size();
  const std::uint32_t rq_crc = Crc32(sidecar.data(), sidecar.size());
  std::vector<unsigned char> bytes = ReadFileBytes(dir + "/MANIFEST");
  const std::size_t rq_fields = kManifestHeaderBytes + 57 + 44;
  ASSERT_GE(bytes.size(), rq_fields + 12);
  std::memcpy(bytes.data() + rq_fields, &rq_bytes, sizeof(rq_bytes));
  std::memcpy(bytes.data() + rq_fields + 8, &rq_crc, sizeof(rq_crc));
  ResealManifest(&bytes);
  WriteFileBytes(dir + "/MANIFEST", bytes);

  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->manifest.generation_seq, seqs.back());
  const Workload::Oracle oracle(w, 300, &pool);
  const Dataset queries = Walk(12, Workload::kLength, 4242);
  service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                             &pool);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(
        BitIdentical(response.neighbors, oracle.SearchKnn(queries.row(q), 10)))
        << "query " << q;
  }

  PersistRequest next;
  next.generation_seq = seqs.back() + 1;
  next.next_id = loaded->manifest.next_id;
  next.route_total = loaded->manifest.route_total;
  next.sharded = loaded->sharded;
  next.buffer_rows = loaded->buffer_rows;
  next.buffer_ids = loaded->buffer_ids;
  next.tombstones = loaded->manifest.tombstones;
  ASSERT_TRUE(store->Persist(next));
  const std::string next_dir =
      root + "/generations/" + GenDirName(next.generation_seq);
  EXPECT_TRUE(ReadFileBytes(next_dir + "/shard-0000.rq").empty());
  const std::vector<unsigned char> next_manifest =
      ReadFileBytes(next_dir + "/MANIFEST");
  ASSERT_GE(next_manifest.size(), rq_fields + 12);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(next_manifest[rq_fields + i], 0u) << "byte " << i;
  }
  EXPECT_TRUE(store->LoadGeneration(next.generation_seq, &pool).has_value());
  RemoveTree(root);
}

// The tombstone count is checked before it is multiplied: 2^62 tombstones
// times 4 bytes wraps to 0, which would match a manifest with no
// tombstone bytes and then drive a 2^62-element allocation.
TEST(GenerationStoreTest, TombstoneCountThatWrapsIsRefused) {
  const std::string root = TestDir("tomb_wrap");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  ASSERT_NE(store, nullptr);
  PersistRequest request;
  request.generation_seq = 1;
  request.route_total = Workload::kBase;
  request.next_id = Workload::kBase;
  request.sharded = w.BuildSharded(&pool);
  ASSERT_TRUE(store->Persist(request));

  const std::string manifest =
      root + "/generations/" + GenDirName(1) + "/MANIFEST";
  std::vector<unsigned char> bytes = ReadFileBytes(manifest);
  // The count is the payload's last field when no tombstone follows it.
  ASSERT_EQ(bytes.size(),
            kManifestHeaderBytes + 57 + 56 * Workload::kShards + 8);
  const std::size_t count_at = bytes.size() - 8;
  const std::uint64_t wrapping = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + count_at, &wrapping, sizeof(wrapping));
  ResealManifest(&bytes);
  WriteFileBytes(manifest, bytes);
  EXPECT_FALSE(store->LoadGeneration(1, &pool).has_value());
  EXPECT_FALSE(store->LoadLatest(&pool).has_value());

  // The same bytes with a count of 0 load again: the refusal is the
  // count's, not a broken frame's.
  const std::uint64_t none = 0;
  std::memcpy(bytes.data() + count_at, &none, sizeof(none));
  ResealManifest(&bytes);
  WriteFileBytes(manifest, bytes);
  EXPECT_TRUE(store->LoadGeneration(1, &pool).has_value());
  RemoveTree(root);
}

// ------------------------------------------------------- group commit

TEST(GroupCommitTest, ConcurrentMutatorsAllDurableAndOrdered) {
  const std::string root = TestDir("group");
  RemoveTree(root);
  Workload w;
  ThreadPool pool(4);
  const auto sharded = w.BuildSharded(&pool);
  service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 120;
  {
    ingest::IngestConfig config;
    config.wal_dir = root + "/wal";
    config.wal.sync_every = 16;
    config.compact_threshold = 100;
    ingest::Compactor compactor(&svc, sharded, config);
    ASSERT_TRUE(compactor.Recover().ok);
    // kThreads concurrent inserters (disjoint row ranges of the insert
    // set) race one deleter; every mutation must group-commit durably.
    std::vector<std::thread> mutators;
    for (std::size_t t = 0; t < kThreads; ++t) {
      mutators.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          StatusCode status;
          do {
            status = compactor
                         .Insert(w.inserts.row(t * kPerThread + i),
                                 Workload::kLength)
                         .code();
            std::this_thread::yield();
          } while (status == StatusCode::kRejected);
          ASSERT_EQ(status, StatusCode::kOk);
        }
      });
    }
    std::thread deleter([&] {
      for (std::uint32_t d = 0; d < 50; ++d) {
        const Status status =
            compactor.Delete(Workload::DeleteTarget(d));
        ASSERT_EQ(status, StatusCode::kOk);
        std::this_thread::yield();
      }
    });
    for (std::thread& m : mutators) {
      m.join();
    }
    deleter.join();
    const ingest::IngestMetrics metrics = compactor.Metrics();
    EXPECT_EQ(metrics.inserted, kThreads * kPerThread);
    EXPECT_EQ(metrics.deleted, 50u);
    EXPECT_EQ(metrics.io_errors, 0u);
  }
  // The log's record-seqno chain is contiguous across the whole run and
  // replays exactly the accepted mutations with dense ascending ids.
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint32_t expected_id = Workload::kBase;
  const ingest::WalReplayStats replayed = ingest::WriteAheadLog::Replay(
      root + "/wal", Workload::kLength, [&](const ingest::WalRecord& r) {
        if (r.type == ingest::WalRecordType::kInsert) {
          EXPECT_EQ(r.id, expected_id++);  // dense id sequence
          ++inserts;
        } else if (r.type == ingest::WalRecordType::kDelete) {
          ++deletes;
        }
      });
  EXPECT_FALSE(replayed.tail_truncated);
  EXPECT_FALSE(replayed.sequence_gap);
  EXPECT_EQ(inserts, kThreads * kPerThread);
  EXPECT_EQ(deletes, 50u);
  EXPECT_EQ(replayed.last_seqno, inserts + deletes);
  RemoveTree(root);
}

// ------------------------------------------------------ WAL v2 seqnos

TEST(WalSeqnoTest, ReopenContinuesTheChain) {
  const std::string dir = TestDir("waL_reopen");
  RemoveTree(dir);
  const std::size_t length = 8;
  const Dataset rows = Walk(5, length, 501);
  {
    auto wal = ingest::WriteAheadLog::Open(dir, length);
    ASSERT_NE(wal, nullptr);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal->AppendInsert(static_cast<std::uint32_t>(i),
                                    rows.row(i)));
    }
    EXPECT_EQ(wal->last_seqno(), 3u);
  }
  {
    auto wal = ingest::WriteAheadLog::Open(dir, length);
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(wal->last_seqno(), 3u);  // scanned from the retained log
    ASSERT_TRUE(wal->AppendInsert(3, rows.row(3)));
    ASSERT_TRUE(wal->AppendInsert(4, rows.row(4)));
  }
  std::vector<std::uint64_t> seqnos;
  const ingest::WalReplayStats stats = ingest::WriteAheadLog::Replay(
      dir, length,
      [&](const ingest::WalRecord& r) { seqnos.push_back(r.seqno); });
  EXPECT_FALSE(stats.sequence_gap);
  EXPECT_FALSE(stats.tail_truncated);
  ASSERT_EQ(seqnos.size(), 5u);
  for (std::size_t i = 0; i < seqnos.size(); ++i) {
    EXPECT_EQ(seqnos[i], i + 1);
  }
  RemoveTree(dir);
}

TEST(WalSeqnoTest, LostInteriorSegmentIsASequenceGapNotATornTail) {
  const std::string dir = TestDir("wal_gap");
  RemoveTree(dir);
  const std::size_t length = 8;
  const Dataset rows = Walk(12, length, 503);
  {
    ingest::WalConfig config;
    config.segment_bytes = 100;  // a couple of records per segment
    auto wal = ingest::WriteAheadLog::Open(dir, length, config);
    ASSERT_NE(wal, nullptr);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(wal->AppendInsert(static_cast<std::uint32_t>(i),
                                    rows.row(i)));
    }
  }
  std::vector<std::string> segments =
      ingest::WriteAheadLog::ListSegments(dir);
  ASSERT_GE(segments.size(), 3u);
  // The ids the middle segment holds, read from a copy of it alone.
  const std::string lost = segments[segments.size() / 2];
  const std::string lost_dir = TestDir("wal_gap_lost");
  RemoveTree(lost_dir);
  ASSERT_EQ(::mkdir(lost_dir.c_str(), 0755), 0);
  WriteFileBytes(lost_dir + lost.substr(lost.rfind('/')),
                 ReadFileBytes(lost));
  std::vector<std::uint32_t> lost_ids;
  ingest::WriteAheadLog::Replay(
      lost_dir, length,
      [&](const ingest::WalRecord& r) { lost_ids.push_back(r.id); });
  RemoveTree(lost_dir);
  ASSERT_FALSE(lost_ids.empty());
  // Interior loss: a middle segment vanishes (bit rot, operator error).
  ASSERT_EQ(::unlink(lost.c_str()), 0);
  std::vector<std::uint32_t> seen;
  const ingest::WalReplayStats stats = ingest::WriteAheadLog::Replay(
      dir, length,
      [&](const ingest::WalRecord& r) { seen.push_back(r.id); });
  EXPECT_TRUE(stats.sequence_gap);  // acknowledged records are GONE
  // Replay ends at the gap: every record before the lost segment is
  // delivered, none behind it.
  ASSERT_EQ(seen.size(), lost_ids.front());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i);
  }

  // Contrast: a torn final record is the benign crash pattern — flagged
  // tail_truncated, chain intact.
  RemoveTree(dir);
  {
    auto wal = ingest::WriteAheadLog::Open(dir, length);
    ASSERT_NE(wal, nullptr);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(wal->AppendInsert(static_cast<std::uint32_t>(i),
                                    rows.row(i)));
    }
  }
  segments = ingest::WriteAheadLog::ListSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<unsigned char> bytes = ReadFileBytes(segments[0]);
  bytes.resize(bytes.size() - 7);
  WriteFileBytes(segments[0], bytes);
  const ingest::WalReplayStats torn = ingest::WriteAheadLog::Replay(
      dir, length, [](const ingest::WalRecord&) {});
  EXPECT_TRUE(torn.tail_truncated);
  EXPECT_FALSE(torn.sequence_gap);
  RemoveTree(dir);
}

// ------------------------------------------- end-to-end crash loop

// TSan and fork-then-thread do not mix reliably; every other persist
// test still runs under TSan via the concurrency label.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SOFA_SKIP_FORK_TESTS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define SOFA_SKIP_FORK_TESTS 1
#endif

#ifndef SOFA_SKIP_FORK_TESTS
// The serving child: bootstraps (round 1) or resumes (later rounds) the
// durable deployment, touches `marker` once at least one compaction has
// persisted and progress passed `marker_step`, then keeps mutating —
// slowly — until the parent kills it (or the stream ends: Flush + clean
// exit). Runs in a forked process: SOFA_CHECK aborts, no gtest.
void CrashVictim(const std::string& root, const std::string& marker) {
  Workload w;
  ThreadPool pool(2);
  auto store = GenerationStore::Open(root + "/generations");
  SOFA_CHECK(store != nullptr);
  const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
  std::shared_ptr<const shard::ShardedIndex> sharded;
  std::optional<ingest::RecoveredBase> recovered;
  if (loaded.has_value()) {
    sharded = loaded->sharded;
    recovered = ingest::MakeRecoveredBase(*loaded);
  } else {
    sharded = w.BuildSharded(&pool);
  }
  service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
  ingest::Compactor compactor(
      &svc, sharded,
      DurableConfig(root, store.get(), /*threshold=*/60),
      recovered.has_value() ? &recovered.value() : nullptr);
  const ingest::RecoverStats stats = compactor.Recover();
  SOFA_CHECK(stats.ok);
  // Resume position: the smallest stream position consistent with the
  // recovered id watermark (a re-run delete is idempotent).
  const std::size_t applied_inserts =
      compactor.Metrics().total_rows - Workload::kBase;
  std::size_t from = 0;
  while (Workload::InsertsBefore(from) < applied_inserts) {
    ++from;
  }
  bool marked = false;
  for (std::size_t step = from; step < Workload::kSteps; ++step) {
    if (Workload::IsDelete(step)) {
      const Status status =
          compactor.Delete(Workload::DeleteTarget(step / 5));
      SOFA_CHECK(status == StatusCode::kOk ||
                 status == StatusCode::kAlreadyDeleted);
    } else {
      StatusCode status;
      do {
        status = compactor
                     .Insert(w.inserts.row(Workload::InsertsBefore(step)),
                             Workload::kLength)
                     .code();
      } while (status == StatusCode::kRejected);
      SOFA_CHECK(status == StatusCode::kOk);
    }
    if (!marked && compactor.Metrics().persisted > 0 && step > from + 100) {
      std::FILE* f = std::fopen(marker.c_str(), "wb");
      SOFA_CHECK(f != nullptr);
      std::fclose(f);
      marked = true;
    }
    if (marked) {
      // Slow down so the parent's kill lands mid-stream, possibly
      // mid-compaction or mid-persist.
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
  compactor.Flush();
}

// The acceptance-criterion test: a serving process is killed at a random
// point after ≥1 compaction persisted, and recovery from (latest intact
// manifest + WAL tail) must answer bit-identically to a from-scratch
// build over base ∪ applied-inserts \ applied-deletes — across several
// kill-resume rounds, with a clean final round proving the on-disk WAL
// was truncated to the post-fold tail.
TEST(CrashRecoveryTest, KillAtRandomPointRecoversBitIdentical) {
  const std::string root = TestDir("crash");
  RemoveTree(root);
  ASSERT_EQ(::mkdir(root.c_str(), 0755), 0);
  Workload w;
  ThreadPool pool(2);
  const Dataset queries = Walk(5, Workload::kLength, 91);
  unsigned delay_seed = 0xc0ffee;

  for (int round = 0; round < 3; ++round) {
    const bool final_round = round == 2;
    const std::string marker =
        root + "/marker_" + std::to_string(round);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Forked serving process: no gtest, no parent state.
      CrashVictim(root, marker);
      ::_exit(0);
    }
    if (final_round) {
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "final round victim did not exit cleanly";
    } else {
      // Kill only after ≥1 compaction has persisted (the marker), at a
      // pseudo-random delay past it. A victim fast enough to finish the
      // whole stream first just exits cleanly — recovery is verified
      // either way.
      bool exited = false;
      while (::access(marker.c_str(), F_OK) != 0) {
        int status = 0;
        const pid_t done = ::waitpid(child, &status, WNOHANG);
        if (done == child) {
          ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
          exited = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!exited) {
        const int delay_ms = static_cast<int>(rand_r(&delay_seed) % 40);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status) ||
                    (WIFEXITED(status) && WEXITSTATUS(status) == 0));
      }
    }

    // Recover in-process and prove bit-identity against the oracle over
    // the durable prefix.
    auto store = GenerationStore::Open(root + "/generations");
    ASSERT_NE(store, nullptr);
    const std::optional<LoadedGeneration> loaded = store->LoadLatest(&pool);
    ASSERT_TRUE(loaded.has_value())
        << "round " << round << ": no intact generation";
    const ingest::RecoveredBase recovered_base =
        ingest::MakeRecoveredBase(*loaded);
    service::SearchService svc(service::WrapShardedIndex(loaded->sharded),
                               &pool);
    ingest::Compactor compactor(
        &svc, loaded->sharded,
        DurableConfig(root, store.get(), /*threshold=*/60,
                      /*auto_compact=*/false),
        &recovered_base);
    const ingest::RecoverStats stats = compactor.Recover();
    ASSERT_TRUE(stats.ok) << "round " << round;
    ASSERT_FALSE(stats.sequence_gap);

    // The durable prefix length, derived from the recovered state alone:
    // the id watermark gives the applied inserts; the live answerable
    // row count (slices + seeded tails + replayed tail inserts − live
    // tombstones) gives the applied deletes, purged or not. The WAL is
    // written and fflushed in mutation order, so the durable set is
    // always a prefix of the stream.
    const ingest::IngestMetrics metrics = compactor.Metrics();
    const std::size_t applied_inserts =
        metrics.total_rows - Workload::kBase;
    std::size_t live_rows = loaded->sharded->size() +
                            loaded->buffer_ids.size() +
                            static_cast<std::size_t>(stats.inserts_applied);
    ASSERT_GE(live_rows, metrics.tombstones);
    live_rows -= metrics.tombstones;
    ASSERT_GE(Workload::kBase + applied_inserts, live_rows);
    const std::size_t applied_deletes =
        Workload::kBase + applied_inserts - live_rows;
    // Map (inserts, deletes) back to the unique stream position.
    std::size_t position = 0;
    while (Workload::InsertsBefore(position) < applied_inserts) {
      ++position;
    }
    while (position < Workload::kSteps && Workload::IsDelete(position) &&
           position / 5 < applied_deletes) {
      ++position;
    }
    ASSERT_EQ(position / 5, applied_deletes)
        << "round " << round << ": recovered deletes (" << applied_deletes
        << ") do not match any prefix of the mutation stream at insert "
           "count "
        << applied_inserts;
    if (final_round) {
      // Clean shutdown after Flush: everything was compacted and
      // persisted, so the WAL tail replays nothing...
      EXPECT_EQ(stats.inserts_applied, 0u) << "unbounded replay";
      EXPECT_EQ(applied_inserts, Workload::InsertsBefore(Workload::kSteps));
      // ...and the pre-fold segments are physically gone: every
      // retained segment is at or past the manifest's tail segment.
      EXPECT_GT(loaded->manifest.wal_segment_seq, 0u);
      std::uint64_t tail_records = 0;
      ingest::WriteAheadLog::Replay(
          root + "/wal", Workload::kLength,
          [&](const ingest::WalRecord&) { ++tail_records; });
      EXPECT_EQ(tail_records, 0u)
          << "WAL not truncated to the post-fold tail";
    }

    const Workload::Oracle oracle(w, position, &pool);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const service::SearchResponse response =
          svc.Search(MakeSearchRequest(queries, q, 10));
      ASSERT_EQ(response.status, service::RequestStatus::kOk);
      EXPECT_TRUE(BitIdentical(response.neighbors,
                               oracle.SearchKnn(queries.row(q), 10)))
          << "round " << round << ", query " << q << " (position "
          << position << ")";
    }
  }
  RemoveTree(root);
}
#endif  // SOFA_SKIP_FORK_TESTS

}  // namespace
}  // namespace persist
}  // namespace sofa
