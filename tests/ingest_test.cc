// Tests for the incremental ingest path (insert buffer + tombstones →
// shard compaction → republish, with a write-ahead log underneath): the
// InsertBuffer's exact deterministic flat scan and tombstone masking,
// the lowest-global-id rule on distance ties across shard trees and
// the insert buffer, the QueryProfile accounting of a sharded ingesting
// query (one search over trees + buffer, masked rows counted, merged
// into the service metrics exactly once), the WAL's framing/corruption/
// rotation edge cases (a log missing its first segment is refused), and
// the headline exactness invariants — after N inserts and D deletes,
// with compactions racing live query traffic, SearchService answers are
// bit-identical to a from-scratch single-index build over
// base ∪ inserts \ deletes; and after a simulated crash, WAL replay
// (Compactor::Recover) restores bit-identical answers.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "harness/workload.h"
#include "index/query_engine.h"
#include "index/tree_index.h"
#include "ingest/compactor.h"
#include "ingest/insert_buffer.h"
#include "ingest/tombstone_set.h"
#include "ingest/wal.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "shard/sharded_index.h"
#include "test_data.h"
#include "util/thread_pool.h"

namespace sofa {
namespace ingest {
namespace {

using testing_data::BruteForceKnn;
using testing_data::Walk;
using testing_harness::BitIdentical;
using testing_harness::ExactOracle;
using testing_harness::MakeSearchRequest;
using testing_harness::ReadFileBytes;
using testing_harness::WriteFileBytes;

// A base collection, a sharded generation over it, the service serving
// it, and a from-scratch oracle over base ∪ inserts. With `enable_rowq`
// the serving side carries the compressed pruning tier; the oracle never
// does — so every BitIdentical assertion below doubles as the tier's
// exactness proof.
struct IngestFixture {
  ThreadPool pool;
  Dataset base;
  Dataset inserts;
  Dataset combined;  // base rows then insert rows, in insertion order
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::shared_ptr<const shard::ShardedIndex> sharded;
  std::unique_ptr<ExactOracle> oracle;  // over `combined`

  IngestFixture(std::size_t base_count, std::size_t insert_count,
                std::size_t length, std::size_t num_shards, std::uint64_t seed,
                std::size_t threads = 4, bool enable_rowq = false)
      : pool(threads),
        base(Walk(base_count, length, seed)),
        inserts(Walk(insert_count, length, seed + 1)),
        combined(length) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      combined.Append(base.row(i));
    }
    for (std::size_t i = 0; i < inserts.size(); ++i) {
      combined.Append(inserts.row(i));
    }
    scheme = testing_harness::TrainTestScheme(base, &pool);
    sharded = testing_harness::BuildTestSharded(base, num_shards, scheme,
                                                &pool, enable_rowq);
    oracle = std::make_unique<ExactOracle>(combined, std::vector<std::uint32_t>{},
                                           scheme, &pool);
  }
};

// Per-test scratch WAL directory under /tmp; removed before and after so
// reruns never replay a previous run's segments.
std::string WalTestDir(const std::string& name) {
  return "/tmp/sofa_wal_" + name + "_" + std::to_string(::getpid());
}

void RemoveWalDir(const std::string& dir) {
  for (const std::string& path : WriteAheadLog::ListSegments(dir)) {
    ::unlink(path.c_str());
  }
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------- InsertBuffer

// A buffer scan from `begin` collected alone, as the query path collects
// it: Scan into one ResultSet of size k.
struct BufferScan {
  std::vector<Neighbor> found;  // ascending by (distance, id)
  std::size_t scanned = 0;      // non-masked rows considered
};

BufferScan ScanBuffer(
    const InsertBuffer& buffer, const float* query, std::size_t k,
    std::size_t begin,
    const std::unordered_set<std::uint32_t>* exclude = nullptr) {
  index::ResultSet results(k);
  InsertBuffer::ScanStats stats;
  buffer.Scan(query, begin, exclude, &results, &stats);
  return BufferScan{results.Finish(), stats.scanned};
}

TEST(InsertBufferTest, ScanMatchesBruteForceAcrossChunks) {
  const std::size_t length = 48;
  const Dataset rows = Walk(37, length, 91);
  InsertBuffer buffer(length, /*chunk_capacity=*/8);  // forces many chunks
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(buffer.Append(rows.row(i), 100 + static_cast<std::uint32_t>(i)),
              i + 1);
  }
  const Dataset queries = Walk(6, length, 92);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto [found, scanned] = ScanBuffer(buffer, queries.row(q), 5, 0);
    EXPECT_EQ(scanned, rows.size());
    const auto expected = BruteForceKnn(rows, queries.row(q), 5);
    ASSERT_EQ(found.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(found[i].id, expected[i].id + 100) << "rank " << i;
      EXPECT_FLOAT_EQ(found[i].distance, expected[i].distance) << "rank " << i;
    }
  }
}

TEST(InsertBufferTest, ScanFromOffsetSeesOnlyNewerRows) {
  const std::size_t length = 32;
  const Dataset rows = Walk(20, length, 93);
  InsertBuffer buffer(length, 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    buffer.Append(rows.row(i), static_cast<std::uint32_t>(i));
  }
  const auto [found, scanned] =
      ScanBuffer(buffer, rows.row(0), rows.size(), 12);
  EXPECT_EQ(scanned, rows.size() - 12);
  ASSERT_EQ(found.size(), rows.size() - 12);
  for (const Neighbor& nb : found) {
    EXPECT_GE(nb.id, 12u);  // rows below the offset belong to the tree
  }
}

TEST(InsertBufferTest, TiesKeepLowestGlobalIdDeterministically) {
  const std::size_t length = 24;
  const Dataset distinct = Walk(3, length, 94);
  InsertBuffer buffer(length, 4);
  // Ids 10,11,12 then duplicates 13,14,15 of the same three rows.
  for (std::uint32_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      buffer.Append(distinct.row(i),
                    10 + round * 3 + static_cast<std::uint32_t>(i));
    }
  }
  // k = 1: both copies of row 0 are at distance 0; the lower id must win.
  std::vector<Neighbor> found = ScanBuffer(buffer, distinct.row(0), 1, 0).found;
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, 10u);
  EXPECT_EQ(found[0].distance, 0.0f);
  // k = 4: ascending (distance, id) throughout the tie runs.
  found = ScanBuffer(buffer, distinct.row(0), 4, 0).found;
  ASSERT_EQ(found.size(), 4u);
  EXPECT_EQ(found[0].id, 10u);
  EXPECT_EQ(found[1].id, 13u);
  for (std::size_t i = 1; i < found.size(); ++i) {
    EXPECT_TRUE(found[i - 1].distance < found[i].distance ||
                (found[i - 1].distance == found[i].distance &&
                 found[i - 1].id < found[i].id));
  }
}

TEST(InsertBufferTest, TrimBelowReclaimsOnlyWholeChunks) {
  const std::size_t length = 16;
  const Dataset rows = Walk(20, length, 95);
  InsertBuffer buffer(length, 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    buffer.Append(rows.row(i), static_cast<std::uint32_t>(i));
  }
  buffer.TrimBelow(10);  // chunks [0,4) and [4,8) go; [8,12) stays (row 10,11)
  EXPECT_EQ(buffer.first_retained(), 8u);
  EXPECT_EQ(buffer.size(), rows.size());
  const std::vector<Neighbor> found =
      ScanBuffer(buffer, rows.row(12), rows.size(), 10).found;
  EXPECT_EQ(found.size(), rows.size() - 10);
  // Appends continue seamlessly after a trim.
  buffer.Append(rows.row(0), 99);
  EXPECT_EQ(buffer.size(), rows.size() + 1);
}

// ------------------------------------------------- tie determinism

// Cross-shard / cross-structure distance ties straddling the k boundary:
// the documented lowest-global-id-first rule must hold with the duplicate
// in the insert buffer AND after a compaction moves it into the tree.
TEST(IngestTieTest, DuplicateStraddlingKBoundaryStaysDeterministic) {
  IngestFixture fx(40, 0, 64, 2, 97, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;  // compaction only when the test says so
  Compactor compactor(&svc, fx.sharded, config);

  // Duplicate base row 5 (shard 0's tree) twice: ids 40 and 41 route to
  // the last shard's buffer.
  ASSERT_EQ(compactor.Insert(fx.base.row(5), fx.base.length()),
            StatusCode::kOk);
  ASSERT_EQ(compactor.Insert(fx.base.row(5), fx.base.length()),
            StatusCode::kOk);
  ASSERT_EQ(compactor.RouteShard(40), 1u);
  ASSERT_EQ(compactor.RouteShard(41), 1u);

  const auto query_topk = [&](std::size_t k) {
    service::SearchResponse response =
        svc.Search(MakeSearchRequest(fx.base, 5, k));
    EXPECT_EQ(response.status, service::RequestStatus::kOk);
    return response.neighbors;
  };

  // Three copies tie at distance 0; every k boundary keeps the lowest ids.
  auto top = query_topk(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 5u);
  EXPECT_EQ(top[0].distance, 0.0f);
  top = query_topk(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 5u);
  EXPECT_EQ(top[1].id, 40u);
  EXPECT_EQ(top[1].distance, 0.0f);

  // Compact: the duplicates move from buffer to shard 1's rebuilt tree.
  compactor.Flush();
  EXPECT_EQ(compactor.Metrics().pending, 0u);
  EXPECT_GE(compactor.Metrics().compactions, 1u);
  top = query_topk(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 5u);
  top = query_topk(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 5u);
  EXPECT_EQ(top[1].id, 40u);
  EXPECT_EQ(top[1].distance, 0.0f);
}

// Copies of one row in two shards' trees and in an insert buffer tie at
// distance 0. Every k boundary inside the tie run keeps the lowest global
// ids — from ShardedIndex::SearchKnn at one and at four threads, however
// the workers race, and from the service over trees + buffer.
TEST(IngestTieTest, CopiesInTwoTreesAndABufferKeepLowestIds) {
  ThreadPool pool(4);
  Dataset base = Walk(600, 64, 341);
  // Row 100 lives in shard 0 of 3 (contiguous); its copy at 450 in shard 2.
  std::copy(base.row(100), base.row(100) + base.length(),
            base.mutable_row(450));
  const auto scheme = testing_harness::TrainTestScheme(base, &pool);
  const auto sharded =
      testing_harness::BuildTestSharded(base, 3, scheme, &pool);
  ASSERT_EQ(shard::ShardedIndex::AssignShard(100, 600, 3), 0u);
  ASSERT_EQ(shard::ShardedIndex::AssignShard(450, 600, 3), 2u);

  // Ascending (distance, id), with the first `ties` ranks exactly the
  // lowest ids of the tie run at distance 0.
  const auto expect_lowest_ids = [](const std::vector<Neighbor>& top,
                                    std::size_t k,
                                    const std::vector<std::uint32_t>& ties) {
    ASSERT_EQ(top.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      if (i < ties.size()) {
        EXPECT_EQ(top[i].id, ties[i]) << "rank " << i << " of k=" << k;
        EXPECT_EQ(top[i].distance, 0.0f);
      } else {
        EXPECT_GT(top[i].distance, 0.0f);
      }
      if (i > 0) {
        EXPECT_TRUE(top[i - 1].distance < top[i].distance ||
                    (top[i - 1].distance == top[i].distance &&
                     top[i - 1].id < top[i].id));
      }
    }
  };
  for (std::size_t k = 1; k <= 4; ++k) {
    for (const std::size_t threads : {1u, 4u}) {
      for (int repeat = 0; repeat < 20; ++repeat) {
        expect_lowest_ids(sharded->SearchKnn(base.row(100), k, 0.0, nullptr,
                                             threads, &pool),
                          k, {100, 450});
      }
    }
  }

  service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
  IngestConfig config;
  config.auto_compact = false;
  Compactor compactor(&svc, sharded, config);
  for (int copy = 0; copy < 2; ++copy) {  // ids 600, 601 in shard 2's buffer
    ASSERT_EQ(compactor.Insert(base.row(100), base.length()), StatusCode::kOk);
  }
  const Dataset probe = [&] {
    Dataset rows(base.length());
    rows.Append(base.row(100));
    return rows;
  }();
  for (std::size_t k = 1; k <= 4; ++k) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(probe, 0, k));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    expect_lowest_ids(response.neighbors, k, {100, 450, 600, 601});
  }
}

// ------------------------------------------------- profile accounting

// One single-threaded search over a published ingesting generation,
// composed from the public pieces: the engine over every shard tree plus
// the live insert buffer scanned into the same result set, `dead`
// masked inside both — the oracle of the service's work counters.
std::vector<Neighbor> OneSearch(const service::IndexSnapshot& snapshot,
                                const float* query, std::size_t k,
                                const std::unordered_set<std::uint32_t>* dead,
                                index::QueryProfile* profile) {
  const service::ShardBuffers& buffers = *snapshot.buffers;
  const index::FlatScan scan = [&](index::ResultSet* results,
                                   index::QueryProfile* scan_profile) {
    InsertBuffer::ScanStats stats;
    buffers.buffer->Scan(query, buffers.start, dead, results, &stats);
    scan_profile->series_ed_computed += stats.ed_computed;
    scan_profile->candidates_filtered += stats.masked;
  };
  const index::QueryEngine engine(&snapshot.sharded->parts());
  return engine.Search(query, k, 0.0, profile, /*num_threads=*/1, dead,
                       scan);
}

// A backlog of profiled queries runs through the service; each response's
// counters equal one single-threaded search over the trees and buffer (so
// the buffer rows are counted once, inside the same search), and the
// service metrics merge each response exactly once. One worker: no idle
// worker can join a query's leaf queue, whose counters would then depend
// on the schedule.
TEST(IngestProfileTest, BackloggedShardedProfileMatchesOneSearch) {
  IngestFixture fx(1200, 60, 96, 3, 98, /*threads=*/1);
  service::ServiceConfig config;
  config.start_paused = true;  // stage a backlog, then run it
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool,
                             config);
  IngestConfig ingest_config;
  ingest_config.auto_compact = false;  // keep all inserts buffered
  Compactor compactor(&svc, fx.sharded, ingest_config);
  for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
    ASSERT_EQ(compactor.Insert(fx.inserts.row(i), fx.inserts.length()),
              StatusCode::kOk);
  }

  const Dataset queries = Walk(8, 96, 99);
  const std::size_t k = 7;
  std::vector<std::future<service::SearchResponse>> futures;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    futures.push_back(svc.Submit(MakeSearchRequest(queries, q, k, true)));
  }
  svc.Resume();

  const auto snapshot = svc.snapshot();
  index::QueryProfile responses_total;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response = futures[q].get();
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    index::QueryProfile expected;
    EXPECT_TRUE(BitIdentical(
        response.neighbors,
        OneSearch(*snapshot, queries.row(q), k, nullptr, &expected)));
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             fx.oracle->SearchKnn(queries.row(q), k)));
    EXPECT_EQ(response.profile.series_ed_computed,
              expected.series_ed_computed)
        << "query " << q;
    EXPECT_EQ(response.profile.series_lbd_checked,
              expected.series_lbd_checked);
    EXPECT_EQ(response.profile.nodes_visited, expected.nodes_visited);
    EXPECT_EQ(response.profile.leaves_collected, expected.leaves_collected);
    // Every buffered row costs one distance evaluation (no LBD there).
    EXPECT_GE(response.profile.series_ed_computed, fx.inserts.size());
    responses_total.Merge(response.profile);
  }
  // Metrics merge each profiled response exactly once — no double-merge.
  const service::MetricsSnapshot metrics = svc.Metrics();
  EXPECT_EQ(metrics.profile.series_ed_computed,
            responses_total.series_ed_computed);
  EXPECT_EQ(metrics.profile.nodes_visited, responses_total.nodes_visited);
  EXPECT_EQ(metrics.profile.series_lbd_checked,
            responses_total.series_lbd_checked);
}

// Same invariant one query at a time (one worker, as above).
TEST(IngestProfileTest, SequentialShardedProfileMatchesOneSearch) {
  IngestFixture fx(900, 40, 64, 2, 101, /*threads=*/1);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig ingest_config;
  ingest_config.auto_compact = false;
  Compactor compactor(&svc, fx.sharded, ingest_config);
  for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
    ASSERT_EQ(compactor.Insert(fx.inserts.row(i), fx.inserts.length()),
              StatusCode::kOk);
  }
  const auto snapshot = svc.snapshot();
  const Dataset queries = Walk(5, 64, 102);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 5, true));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    index::QueryProfile expected;
    (void)OneSearch(*snapshot, queries.row(q), 5, nullptr, &expected);
    EXPECT_EQ(response.profile.series_ed_computed,
              expected.series_ed_computed)
        << "query " << q;
    EXPECT_EQ(response.profile.nodes_visited, expected.nodes_visited);
  }
}

// ------------------------------------------------- exactness invariant

// Buffered-only (no compaction yet): inserts are immediately searchable
// and answers equal the from-scratch oracle bit for bit.
TEST(IngestExactnessTest, BufferedInsertsAnswerBitExact) {
  IngestFixture fx(800, 150, 64, 3, 103, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;
  Compactor compactor(&svc, fx.sharded, config);
  for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
    ASSERT_EQ(compactor.Insert(fx.inserts.row(i), fx.inserts.length()),
              StatusCode::kOk);
  }
  EXPECT_EQ(compactor.Metrics().pending, fx.inserts.size());
  const Dataset queries = Walk(10, 64, 104);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             fx.oracle->SearchKnn(queries.row(q), 10)))
        << "query " << q;
  }
  // After Flush every row lives in a tree; still bit-exact.
  compactor.Flush();
  EXPECT_EQ(compactor.Metrics().pending, 0u);
  EXPECT_EQ(compactor.current()->size(),
            fx.base.size() + fx.inserts.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             fx.oracle->SearchKnn(queries.row(q), 10)));
  }
}

// Inserts are rejected (not dropped, not blocking) once the admission
// bound fills, and invalid-length rows are refused.
TEST(IngestExactnessTest, AdmissionBoundsAndInvalidRows) {
  IngestFixture fx(200, 0, 32, 2, 105, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;
  config.compact_threshold = 4;
  config.max_pending = 6;
  Compactor compactor(&svc, fx.sharded, config);
  const Dataset rows = Walk(10, 32, 106);
  std::size_t ok = 0, rejected = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const StatusOr<std::uint32_t> status =
        compactor.Insert(rows.row(i), rows.length());
    if (status == StatusCode::kOk) {
      ++ok;
    } else if (status == StatusCode::kRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 6u);
  EXPECT_EQ(rejected, 4u);
  std::vector<float> short_row(16, 0.0f);
  EXPECT_EQ(compactor.Insert(short_row.data(), short_row.size()),
            StatusCode::kInvalidArgument);
  const IngestMetrics metrics = compactor.Metrics();
  EXPECT_EQ(metrics.inserted, 6u);
  EXPECT_EQ(metrics.rejected, 4u);
  EXPECT_EQ(metrics.invalid, 1u);
  // A Flush drains the backlog and reopens admission.
  compactor.Flush();
  EXPECT_EQ(compactor.Insert(rows.row(0), rows.length()), StatusCode::kOk);
}

// The default admission bound follows the one insert buffer every query
// scans, not the shard count: 8 × compact_threshold rows, whatever
// num_shards is.
TEST(IngestExactnessTest, DefaultAdmissionBoundIgnoresShardCount) {
  IngestFixture fx(200, 0, 32, 2, 107, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;
  config.compact_threshold = 4;  // max_pending stays 0: the default
  Compactor compactor(&svc, fx.sharded, config);
  const Dataset rows = Walk(33, 32, 108);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    ASSERT_EQ(compactor.Insert(rows.row(i), rows.length()), StatusCode::kOk)
        << "insert " << i;
  }
  EXPECT_EQ(compactor.Insert(rows.row(32), rows.length()),
            StatusCode::kRejected);
  EXPECT_EQ(compactor.Metrics().inserted, 32u);
}

// The acceptance soak: inserts stream in while client threads query and
// the compactor rebuilds/republishes shards under the traffic. Once the
// last insert lands, every answer — including those racing the remaining
// compactions and the final flush — must be bit-identical to the
// from-scratch single-index oracle over the full collection. With
// `enable_rowq` the serving side runs the compressed pruning tier
// (quantized sidecars on the shard trees AND on the racing insert
// buffer) while the oracle never does — the same race doubles as the
// tier's concurrency exactness proof, and runs under TSan via the
// concurrency label.
void RunConcurrentTrafficSoak(bool enable_rowq) {
  IngestFixture fx(1200, 600, 64, 3, 107, /*threads=*/4, enable_rowq);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.compact_threshold = 64;
  // A tight admission bound throttles the inserter behind the compactor
  // (the retry loop below backs off on kRejected), guaranteeing several
  // compaction rounds race the query traffic instead of one big one.
  config.max_pending = 128;
  Compactor compactor(&svc, fx.sharded, config);

  const Dataset queries = Walk(16, 64, 108);
  std::vector<std::vector<Neighbor>> expected;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(fx.oracle->SearchKnn(queries.row(q), 10));
  }

  std::atomic<bool> all_inserted(false);
  std::atomic<std::size_t> failures(0);
  std::thread inserter([&] {
    for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
      while (compactor.Insert(fx.inserts.row(i), fx.inserts.length()) ==
             StatusCode::kRejected) {
        std::this_thread::yield();
      }
    }
    all_inserted.store(true);
  });

  constexpr std::size_t kClients = 2;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::size_t q = c;
      // Phase 1: while inserts stream in, answers are exact over a prefix
      // of the inserts — assert they complete OK.
      while (!all_inserted.load()) {
        const service::SearchResponse response =
            svc.Search(MakeSearchRequest(queries, q % queries.size(), 10));
        if (response.status != service::RequestStatus::kOk) {
          failures.fetch_add(1);
        }
        q += kClients;
      }
      // Phase 2: every insert is visible; compactions may still be
      // racing — answers must already be bit-identical to the oracle.
      for (std::size_t round = 0; round < 30; ++round) {
        const std::size_t idx = (q + round * kClients) % queries.size();
        const service::SearchResponse response =
            svc.Search(MakeSearchRequest(queries, idx, 10));
        if (response.status != service::RequestStatus::kOk ||
            !BitIdentical(response.neighbors, expected[idx])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  inserter.join();
  // Flush concurrently with the phase-2 clients: compaction-under-traffic.
  compactor.Flush();
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(compactor.Metrics().pending, 0u);
  EXPECT_EQ(compactor.Metrics().inserted, fx.inserts.size());
  EXPECT_GE(compactor.Metrics().compactions, 3u);
  EXPECT_EQ(compactor.current()->size(), fx.combined.size());

  // Steady state after the flush: still bit-identical — and with the
  // tier enabled, the compacted generation demonstrably runs it.
  std::uint64_t rowq_checked = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10, /*profile=*/true));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors, expected[q])) << "query "
                                                               << q;
    rowq_checked += response.profile.rowq_checked;
  }
  if (enable_rowq) {
    EXPECT_GT(rowq_checked, 0u);
  } else {
    EXPECT_EQ(rowq_checked, 0u);
  }
  const service::MetricsSnapshot metrics = svc.Metrics();
  EXPECT_GE(metrics.swaps, compactor.Metrics().compactions);
}

TEST(IngestExactnessTest, ExactUnderConcurrentTrafficAndCompaction) {
  RunConcurrentTrafficSoak(/*enable_rowq=*/false);
}

TEST(IngestExactnessTest, RowqTierExactUnderConcurrentTrafficAndCompaction) {
  RunConcurrentTrafficSoak(/*enable_rowq=*/true);
}

// Every insert extends the last shard, so each compaction round cuts
// the one buffer into that shard's tree again; answers stay exact
// through every cut and the other shards are never rebuilt.
TEST(IngestExactnessTest, MultiRoundCompactionCutsTheLastShard) {
  IngestFixture fx(600, 300, 64, 4, 109, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;  // step compactions manually via Flush
  Compactor compactor(&svc, fx.sharded, config);
  const Dataset queries = Walk(6, 64, 110);
  // Three rounds: insert a third, flush, verify against a fresh oracle of
  // the prefix each time.
  const std::size_t third = fx.inserts.size() / 3;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = round * third; i < (round + 1) * third; ++i) {
      ASSERT_EQ(compactor.Insert(fx.inserts.row(i), fx.inserts.length()),
                StatusCode::kOk);
    }
    compactor.Flush();
    const auto current = compactor.current();
    EXPECT_EQ(current->shard(3).generation, round + 2);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(current->shard(s).generation, 1u) << "shard " << s;
    }
    Dataset prefix(fx.combined.length());
    for (std::size_t i = 0; i < fx.base.size() + (round + 1) * third; ++i) {
      prefix.Append(fx.combined.row(i));
    }
    index::IndexConfig oracle_config;
    oracle_config.leaf_capacity = 100;
    const index::TreeIndex oracle(&prefix, fx.scheme.get(), oracle_config,
                                  &fx.pool);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const service::SearchResponse response =
          svc.Search(MakeSearchRequest(queries, q, 8));
      ASSERT_EQ(response.status, service::RequestStatus::kOk);
      EXPECT_TRUE(BitIdentical(response.neighbors,
                               oracle.SearchKnn(queries.row(q), 8)))
          << "round " << round << " query " << q;
    }
  }
  EXPECT_GE(compactor.Metrics().compactions, 3u);
}

// ------------------------------------------------------- tombstone set

TEST(TombstoneSetTest, ViewsAreImmutableSnapshots) {
  TombstoneSet set;
  EXPECT_TRUE(set.Add(7));
  EXPECT_FALSE(set.Add(7));  // second delete of the same id is a no-op
  const auto before = set.view();
  EXPECT_EQ(before->count(7u), 1u);
  EXPECT_TRUE(set.Add(9));
  set.Erase({7});
  // The earlier snapshot is frozen; a fresh one sees the mutations.
  EXPECT_EQ(before->count(7u), 1u);
  EXPECT_EQ(before->count(9u), 0u);
  const auto after = set.view();
  EXPECT_EQ(after->count(7u), 0u);
  EXPECT_EQ(after->count(9u), 1u);
  EXPECT_EQ(set.size(), 1u);
}

TEST(InsertBufferTest, SearchAndCopyRangeMaskExcludedIds) {
  const std::size_t length = 32;
  const Dataset rows = Walk(12, length, 301);
  InsertBuffer buffer(length, 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    buffer.Append(rows.row(i), static_cast<std::uint32_t>(i));
  }
  const std::unordered_set<std::uint32_t> dead = {3, 7};
  // Query = row 3 exactly: without masking it wins at distance 0; with
  // masking it must vanish and the scan count must drop by |dead|.
  const auto [found, scanned] =
      ScanBuffer(buffer, rows.row(3), rows.size(), 0, &dead);
  EXPECT_EQ(scanned, rows.size() - dead.size());
  for (const Neighbor& nb : found) {
    EXPECT_NE(nb.id, 3u);
    EXPECT_NE(nb.id, 7u);
  }
  // CopyRange drops the same ids and reports them; the kept rows fill
  // the caller's storage from row `at` on, in buffer order.
  const std::size_t at = 2;
  Dataset copied(at + rows.size(), length);
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> excluded;
  buffer.CopyRange(0, rows.size(), &copied, at, &ids, &dead, &excluded);
  EXPECT_EQ(ids.size(), rows.size() - dead.size());
  ASSERT_EQ(excluded.size(), dead.size());
  EXPECT_EQ(excluded[0], 3u);
  EXPECT_EQ(excluded[1], 7u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(dead.count(ids[i]), 0u);
    EXPECT_EQ(std::memcmp(copied.row(at + i), rows.row(ids[i]),
                          length * sizeof(float)),
              0)
        << "row " << i;
  }
  EXPECT_EQ(copied.row(0)[0], 0.0f);  // rows below `at` are untouched
}

// ------------------------------------------------------------- deletes

TEST(IngestDeleteTest, StatusTransitions) {
  IngestFixture fx(100, 0, 32, 2, 303, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;
  Compactor compactor(&svc, fx.sharded, config);
  EXPECT_EQ(compactor.Delete(100), StatusCode::kNotFound);  // never existed
  EXPECT_EQ(compactor.Delete(42), StatusCode::kOk);
  EXPECT_EQ(compactor.Delete(42), StatusCode::kAlreadyDeleted);
  const IngestMetrics metrics = compactor.Metrics();
  EXPECT_EQ(metrics.deleted, 1u);
  EXPECT_EQ(metrics.tombstones, 1u);
}

// Deletes of tree rows (base) and of still-buffered rows both vanish
// from answers immediately, in both scheduling modes, and answers stay
// bit-identical to the from-scratch filtered oracle before and after the
// compactions that physically remove the rows.
TEST(IngestDeleteTest, DeletesAnswerBitExactAgainstFilteredOracle) {
  IngestFixture fx(700, 120, 64, 3, 307, /*threads=*/2);
  // Delete a spread of base rows (tree-resident) and inserted rows
  // (buffer-resident at delete time).
  std::vector<std::uint32_t> deleted;
  for (std::uint32_t id = 0; id < 700; id += 53) {
    deleted.push_back(id);
  }
  for (std::uint32_t i = 0; i < 120; i += 11) {
    deleted.push_back(700 + i);
  }
  ExactOracle oracle(fx.combined, deleted, fx.scheme, &fx.pool);

  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;
  Compactor compactor(&svc, fx.sharded, config);
  for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
    ASSERT_EQ(compactor.Insert(fx.inserts.row(i), fx.inserts.length()),
              StatusCode::kOk);
  }
  for (const std::uint32_t id : deleted) {
    ASSERT_EQ(compactor.Delete(id), StatusCode::kOk);
  }
  EXPECT_EQ(compactor.Metrics().deleted, deleted.size());

  const Dataset queries = Walk(8, 64, 308);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             oracle.SearchKnn(queries.row(q), 10)))
        << "pre-compaction, query " << q;
  }
  // A deleted row queried by its own values must not come back even at
  // rank 1 (its distance would be 0 — the hardest resurrection case).
  const service::SearchResponse self =
      svc.Search(MakeSearchRequest(fx.base, deleted[0], 1));
  ASSERT_EQ(self.status, service::RequestStatus::kOk);
  ASSERT_EQ(self.neighbors.size(), 1u);
  EXPECT_NE(self.neighbors[0].id, deleted[0]);

  // Compact everything; deleted rows are physically gone, answers
  // unchanged.
  compactor.Flush();
  EXPECT_EQ(compactor.Metrics().pending, 0u);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             oracle.SearchKnn(queries.row(q), 10)))
        << "post-compaction, query " << q;
  }
}

// Regression (delete-then-compact ordering): a row that only ever lived
// in an un-compacted InsertBuffer and was deleted there must not
// resurrect when its shard compacts — the rebuild excludes it, and its
// tombstone is purged once the pre-compaction generations retire,
// without ever letting the row back in.
TEST(IngestDeleteTest, BufferedDeleteDoesNotResurrectAfterCompaction) {
  IngestFixture fx(80, 6, 32, 2, 311, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.auto_compact = false;
  Compactor compactor(&svc, fx.sharded, config);
  for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
    ASSERT_EQ(compactor.Insert(fx.inserts.row(i), fx.inserts.length()),
              StatusCode::kOk);
  }
  // Row 82 exists only in the buffer; delete it, then fold the buffer.
  const std::uint32_t victim = 82;
  ASSERT_EQ(compactor.Delete(victim), StatusCode::kOk);
  EXPECT_EQ(compactor.Metrics().tombstones, 1u);
  compactor.Flush();

  // Query the victim's own values with k covering the whole collection:
  // it must be absent outright, not merely out-ranked.
  const std::size_t victim_row = victim - fx.base.size();
  service::SearchResponse response = svc.Search(
      MakeSearchRequest(fx.inserts, victim_row, fx.base.size() + fx.inserts.size()));
  ASSERT_EQ(response.status, service::RequestStatus::kOk);
  EXPECT_EQ(response.neighbors.size(),
            fx.base.size() + fx.inserts.size() - 1);
  for (const Neighbor& nb : response.neighbors) {
    EXPECT_NE(nb.id, victim);
  }

  // Another mutation round forces a publish whose retirement sweep can
  // purge the folded tombstone (no old generation is in flight here) —
  // and the row must stay gone afterwards.
  ASSERT_EQ(compactor.Insert(fx.inserts.row(0), fx.inserts.length()),
            StatusCode::kOk);
  compactor.Flush();
  EXPECT_EQ(compactor.Metrics().tombstones, 0u);
  response = svc.Search(MakeSearchRequest(fx.inserts, victim_row, 5));
  ASSERT_EQ(response.status, service::RequestStatus::kOk);
  for (const Neighbor& nb : response.neighbors) {
    EXPECT_NE(nb.id, victim);
  }

  // Re-deleting an id whose tombstone was already purged must still
  // report kAlreadyDeleted (not kOk), and must not install a fresh
  // never-purgeable tombstone.
  EXPECT_EQ(compactor.Delete(victim), StatusCode::kAlreadyDeleted);
  EXPECT_EQ(compactor.Metrics().tombstones, 0u);
  EXPECT_EQ(compactor.Metrics().deleted, 1u);
}

// A delete-only workload (no inserts at all) must still trigger
// compactions: the rebuilt shard sheds the deleted rows, the tombstones
// are purged, and the merge's k-widening returns to zero — instead of
// the tombstone set (and every query's per-shard k) growing without
// bound.
TEST(IngestDeleteTest, DeleteOnlyWorkloadCompactsAndPurges) {
  IngestFixture fx(300, 0, 32, 2, 331, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.compact_threshold = 32;  // auto compaction, delete-driven
  Compactor compactor(&svc, fx.sharded, config);
  std::vector<std::uint32_t> deleted;
  for (std::uint32_t id = 0; id < 40; ++id) {  // all route to shard 0
    deleted.push_back(id);
    ASSERT_EQ(compactor.Delete(id), StatusCode::kOk);
  }
  // Flush drains tombstone work too; with no queries in flight the
  // retirement sweep at the final publish purges everything folded.
  compactor.Flush();
  const IngestMetrics metrics = compactor.Metrics();
  EXPECT_GE(metrics.compactions, 1u);
  EXPECT_EQ(metrics.tombstones, 0u);
  EXPECT_EQ(metrics.deleted, 40u);
  // Physically gone, not merely masked — and answers match the oracle.
  EXPECT_EQ(compactor.current()->size(), 300u - 40u);
  ExactOracle oracle(fx.combined, deleted, fx.scheme, &fx.pool);
  const Dataset queries = Walk(5, 32, 332);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 8));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             oracle.SearchKnn(queries.row(q), 8)));
  }
}

// Filtered-candidate accounting: tombstoned rows are masked inside the
// scans — the buffer scan masks every deleted buffered row, the tree scan
// the deleted rows it reaches past the series LBD — and
// candidates_filtered counts exactly those, as one single-threaded
// search over the same generation does. Masked rows cost no distance.
// One worker, so no helper joins and the counters repeat exactly.
TEST(IngestDeleteTest, ProfileAccountsFilteredCandidates) {
  IngestFixture fx(900, 50, 96, 3, 313, /*threads=*/1);
  service::ServiceConfig service_config;
  service_config.start_paused = true;
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool,
                             service_config);
  IngestConfig config;
  config.auto_compact = false;
  Compactor compactor(&svc, fx.sharded, config);
  for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
    ASSERT_EQ(compactor.Insert(fx.inserts.row(i), fx.inserts.length()),
              StatusCode::kOk);
  }
  std::vector<std::uint32_t> deleted;
  for (std::uint32_t id = 0; id < 900; id += 97) {
    deleted.push_back(id);  // tree-resident
  }
  deleted.push_back(905);  // buffer-resident
  deleted.push_back(931);
  for (const std::uint32_t id : deleted) {
    ASSERT_EQ(compactor.Delete(id), StatusCode::kOk);
  }
  ASSERT_EQ(compactor.Metrics().tombstones, deleted.size());
  const std::unordered_set<std::uint32_t> dead(deleted.begin(),
                                               deleted.end());
  const ExactOracle oracle(fx.combined, deleted, fx.scheme, &fx.pool);

  const Dataset queries = Walk(6, 96, 314);
  const std::size_t k = 7;
  std::vector<std::future<service::SearchResponse>> futures;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    futures.push_back(svc.Submit(MakeSearchRequest(queries, q, k, true)));
  }
  svc.Resume();
  const auto snapshot = svc.snapshot();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response = futures[q].get();
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors,
                             oracle.SearchKnn(queries.row(q), k)));
    index::QueryProfile expected;
    (void)OneSearch(*snapshot, queries.row(q), k, &dead, &expected);
    EXPECT_EQ(response.profile.series_ed_computed,
              expected.series_ed_computed)
        << "query " << q;
    EXPECT_EQ(response.profile.nodes_visited, expected.nodes_visited);
    EXPECT_EQ(response.profile.series_lbd_checked,
              expected.series_lbd_checked);
    EXPECT_EQ(response.profile.candidates_filtered,
              expected.candidates_filtered)
        << "query " << q;
    // Both buffered deletes are always masked; tree rows only if reached.
    EXPECT_GE(response.profile.candidates_filtered, 2u);
    EXPECT_LE(response.profile.candidates_filtered, deleted.size());
  }
}

// Deleting all k nearest rows of a query where they sit in one shard's
// tree: the next k live rows must come back, bit-identical to the oracle
// — the masked rows never occupy result slots, so no per-shard
// over-fetch is needed.
TEST(IngestDeleteTest, DeletedTopKInOneShardYieldsTheNextLiveRows) {
  constexpr std::size_t kLength = 64;
  constexpr std::size_t kK = 5;
  ThreadPool pool(2);
  Dataset base = Walk(900, kLength, 331);
  const Dataset probe = Walk(1, kLength, 332);
  // Rows 300..309 (shard 1 of 3, contiguous) become near-copies of the
  // probe, so its 2k nearest rows all sit in shard 1's tree.
  for (std::size_t i = 0; i < 2 * kK; ++i) {
    float* row = base.mutable_row(300 + i);
    std::copy(probe.row(0), probe.row(0) + kLength, row);
    row[i] += 0.01f * static_cast<float>(i + 1);
  }
  const auto scheme = testing_harness::TrainTestScheme(base, &pool);
  const auto sharded =
      testing_harness::BuildTestSharded(base, 3, scheme, &pool);
  service::SearchService svc(service::WrapShardedIndex(sharded), &pool);
  IngestConfig config;
  config.auto_compact = false;
  Compactor compactor(&svc, sharded, config);

  const service::SearchResponse before =
      svc.Search(MakeSearchRequest(probe, 0, kK));
  ASSERT_EQ(before.status, service::RequestStatus::kOk);
  ASSERT_EQ(before.neighbors.size(), kK);
  std::vector<std::uint32_t> deleted;
  for (const Neighbor& nb : before.neighbors) {
    ASSERT_GE(nb.id, 300u);
    ASSERT_LT(nb.id, 310u);
    ASSERT_EQ(compactor.RouteShard(nb.id), 1u);
    deleted.push_back(nb.id);
    ASSERT_EQ(compactor.Delete(nb.id), StatusCode::kOk);
  }
  const ExactOracle oracle(base, deleted, scheme, &pool);
  const service::SearchResponse after =
      svc.Search(MakeSearchRequest(probe, 0, kK, true));
  ASSERT_EQ(after.status, service::RequestStatus::kOk);
  EXPECT_TRUE(BitIdentical(after.neighbors, oracle.SearchKnn(probe.row(0), kK)));
  const std::unordered_set<std::uint32_t> dead(deleted.begin(), deleted.end());
  for (const Neighbor& nb : after.neighbors) {
    EXPECT_EQ(dead.count(nb.id), 0u);
    EXPECT_GE(nb.id, 300u);  // the remaining near-copies come next
    EXPECT_LT(nb.id, 310u);
  }
  EXPECT_EQ(after.profile.candidates_filtered, kK);
}

// The deletes acceptance soak: inserts and deletes stream in while client
// threads query and the compactor rebuilds/republishes under the
// traffic. Once the last mutation lands, every answer — including those
// racing the remaining compactions and the final flush — must be
// bit-identical to the from-scratch oracle over base ∪ inserts \ deletes.
// The rowq variant races the compressed pruning tier through the same
// mutation storm.
void RunTrafficDeletesSoak(bool enable_rowq) {
  IngestFixture fx(1000, 400, 64, 3, 317, /*threads=*/4, enable_rowq);
  std::vector<std::uint32_t> delete_base;
  for (std::uint32_t id = 0; id < 1000; id += 23) {
    delete_base.push_back(id);
  }
  std::vector<std::uint32_t> delete_inserted;
  for (std::uint32_t i = 0; i < 400; i += 9) {
    delete_inserted.push_back(1000 + i);
  }
  std::vector<std::uint32_t> deleted = delete_base;
  deleted.insert(deleted.end(), delete_inserted.begin(),
                 delete_inserted.end());
  ExactOracle oracle(fx.combined, deleted, fx.scheme, &fx.pool);

  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.compact_threshold = 64;
  config.max_pending = 128;  // throttle the mutator behind the compactor
  Compactor compactor(&svc, fx.sharded, config);

  const Dataset queries = Walk(16, 64, 318);
  std::vector<std::vector<Neighbor>> expected;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(oracle.SearchKnn(queries.row(q), 10));
  }

  std::atomic<bool> all_mutated(false);
  std::atomic<std::size_t> failures(0);
  std::thread mutator([&] {
    // Base-row deletes interleave with the insert stream (deleting rows
    // that sit in trees while those trees are being rebuilt); deletes of
    // inserted rows run after their inserts.
    std::size_t base_next = 0;
    for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
      while (compactor.Insert(fx.inserts.row(i), fx.inserts.length()) ==
             StatusCode::kRejected) {
        std::this_thread::yield();
      }
      if (i % 3 == 0 && base_next < delete_base.size()) {
        if (compactor.Delete(delete_base[base_next++]) != StatusCode::kOk) {
          failures.fetch_add(1);
        }
      }
    }
    while (base_next < delete_base.size()) {
      if (compactor.Delete(delete_base[base_next++]) != StatusCode::kOk) {
        failures.fetch_add(1);
      }
    }
    for (const std::uint32_t id : delete_inserted) {
      if (compactor.Delete(id) != StatusCode::kOk) {
        failures.fetch_add(1);
      }
    }
    all_mutated.store(true);
  });

  constexpr std::size_t kClients = 2;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::size_t q = c;
      // Phase 1: mutations still streaming — answers are exact over a
      // prefix of them; assert they complete OK.
      while (!all_mutated.load()) {
        const service::SearchResponse response =
            svc.Search(MakeSearchRequest(queries, q % queries.size(), 10));
        if (response.status != service::RequestStatus::kOk) {
          failures.fetch_add(1);
        }
        q += kClients;
      }
      // Phase 2: every mutation visible; compactions may still race —
      // answers must already match the filtered oracle bit for bit.
      for (std::size_t round = 0; round < 30; ++round) {
        const std::size_t idx = (q + round * kClients) % queries.size();
        const service::SearchResponse response =
            svc.Search(MakeSearchRequest(queries, idx, 10));
        if (response.status != service::RequestStatus::kOk ||
            !BitIdentical(response.neighbors, expected[idx])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  mutator.join();
  compactor.Flush();  // compaction-under-traffic with the phase-2 clients
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(compactor.Metrics().pending, 0u);
  EXPECT_EQ(compactor.Metrics().inserted, fx.inserts.size());
  EXPECT_EQ(compactor.Metrics().deleted, deleted.size());
  EXPECT_GE(compactor.Metrics().compactions, 3u);

  // Steady state after the flush: still bit-identical.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const service::SearchResponse response =
        svc.Search(MakeSearchRequest(queries, q, 10));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(BitIdentical(response.neighbors, expected[q]))
        << "query " << q;
  }
}

TEST(IngestExactnessTest, ExactUnderTrafficCompactionAndDeletes) {
  RunTrafficDeletesSoak(/*enable_rowq=*/false);
}

TEST(IngestExactnessTest, RowqTierExactUnderTrafficCompactionAndDeletes) {
  RunTrafficDeletesSoak(/*enable_rowq=*/true);
}

// ------------------------------------------------------ write-ahead log

TEST(WalTest, RoundTripAcrossRotation) {
  const std::string dir = WalTestDir("roundtrip");
  RemoveWalDir(dir);
  const std::size_t length = 8;
  const Dataset rows = Walk(10, length, 401);
  {
    WalConfig config;
    config.segment_bytes = 128;  // a few records per segment
    config.sync_every = 3;
    auto wal = WriteAheadLog::Open(dir, length, config);
    ASSERT_NE(wal, nullptr);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(wal->AppendInsert(static_cast<std::uint32_t>(100 + i),
                                    rows.row(i)));
    }
    ASSERT_TRUE(wal->AppendDelete(103));
    ASSERT_TRUE(wal->Sync());
    EXPECT_EQ(wal->unsynced_records(), 0u);
    EXPECT_GT(wal->segment_seq(), 0u);  // rotation happened
  }
  std::vector<WalRecord> records;
  const WalReplayStats stats = WriteAheadLog::Replay(
      dir, length, [&](const WalRecord& r) { records.push_back(r); });
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(stats.inserts, rows.size());
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_GT(stats.segments, 1u);
  ASSERT_EQ(records.size(), rows.size() + 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(records[i].type, WalRecordType::kInsert);
    EXPECT_EQ(records[i].id, 100 + i);
    ASSERT_EQ(records[i].row.size(), length);
    EXPECT_EQ(std::memcmp(records[i].row.data(), rows.row(i),
                          length * sizeof(float)),
              0);  // payload survives byte-exact
  }
  EXPECT_EQ(records.back().type, WalRecordType::kDelete);
  EXPECT_EQ(records.back().id, 103u);
  RemoveWalDir(dir);
}

TEST(WalTest, TornFinalRecordStopsCleanly) {
  const std::string dir = WalTestDir("torn");
  RemoveWalDir(dir);
  const std::size_t length = 16;
  const Dataset rows = Walk(4, length, 403);
  {
    auto wal = WriteAheadLog::Open(dir, length);
    ASSERT_NE(wal, nullptr);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(wal->AppendInsert(static_cast<std::uint32_t>(i),
                                    rows.row(i)));
    }
  }
  // Cut the last record mid-frame: a crash between the frame header and
  // the payload hitting disk.
  const std::vector<std::string> segments = WriteAheadLog::ListSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<unsigned char> bytes = ReadFileBytes(segments[0]);
  bytes.resize(bytes.size() - length * sizeof(float) / 2);
  WriteFileBytes(segments[0], bytes);

  std::vector<WalRecord> records;
  const WalReplayStats stats = WriteAheadLog::Replay(
      dir, length, [&](const WalRecord& r) { records.push_back(r); });
  EXPECT_TRUE(stats.tail_truncated);
  ASSERT_EQ(records.size(), rows.size() - 1);  // last valid record kept
  EXPECT_EQ(records.back().id, rows.size() - 2);
  RemoveWalDir(dir);
}

TEST(WalTest, CrcCorruptionDetected) {
  const std::string dir = WalTestDir("crc");
  RemoveWalDir(dir);
  const std::size_t length = 12;
  const Dataset rows = Walk(3, length, 405);
  {
    auto wal = WriteAheadLog::Open(dir, length);
    ASSERT_NE(wal, nullptr);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(wal->AppendInsert(static_cast<std::uint32_t>(i),
                                    rows.row(i)));
    }
  }
  const std::vector<std::string> segments = WriteAheadLog::ListSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<unsigned char> bytes = ReadFileBytes(segments[0]);
  bytes[bytes.size() - 1] ^= 0xFF;  // flip a bit inside the last payload
  WriteFileBytes(segments[0], bytes);

  std::vector<WalRecord> records;
  const WalReplayStats stats = WriteAheadLog::Replay(
      dir, length, [&](const WalRecord& r) { records.push_back(r); });
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(records.size(), rows.size() - 1);  // corrupt record dropped
  RemoveWalDir(dir);
}

TEST(WalTest, EmptySegmentsReplayClean) {
  const std::string dir = WalTestDir("empty");
  RemoveWalDir(dir);
  const std::size_t length = 8;
  // Two opens, zero records: recovery over header-only segments.
  { ASSERT_NE(WriteAheadLog::Open(dir, length), nullptr); }
  { ASSERT_NE(WriteAheadLog::Open(dir, length), nullptr); }
  EXPECT_EQ(WriteAheadLog::ListSegments(dir).size(), 2u);
  std::size_t records = 0;
  const WalReplayStats stats = WriteAheadLog::Replay(
      dir, length, [&](const WalRecord&) { ++records; });
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(records, 0u);
  RemoveWalDir(dir);
}

// ------------------------------------------------------------- recovery

// The durability acceptance test: a mid-stream "crash" (Compactor and
// service destroyed with rows still buffered and tombstones live, trees
// lost) followed by reopen + Recover() yields answers bit-identical to
// both the uninterrupted run and the from-scratch filtered oracle —
// with query traffic racing the replay (TSan-covered via the
// concurrency label).
TEST(IngestRecoveryTest, CrashReplayBitIdentical) {
  const std::string dir = WalTestDir("recover");
  RemoveWalDir(dir);
  IngestFixture fx(600, 200, 64, 2, 411, /*threads=*/2);
  std::vector<std::uint32_t> deleted;
  for (std::uint32_t id = 5; id < 600; id += 61) {
    deleted.push_back(id);  // base rows
  }
  for (std::uint32_t i = 0; i < 200; i += 17) {
    deleted.push_back(600 + i);  // inserted rows
  }
  ExactOracle oracle(fx.combined, deleted, fx.scheme, &fx.pool);
  const Dataset queries = Walk(8, 64, 412);

  IngestConfig config;
  config.wal_dir = dir;
  config.wal.sync_every = 16;      // batched fsync on the hot path
  config.compact_threshold = 64;   // some rows compact, some stay buffered
  std::vector<std::vector<Neighbor>> pre_crash;
  {
    service::SearchService svc(service::WrapShardedIndex(fx.sharded),
                               &fx.pool);
    Compactor compactor(&svc, fx.sharded, config);
    const RecoverStats fresh = compactor.Recover();  // empty log: no-op
    EXPECT_TRUE(fresh.ok);
    EXPECT_EQ(fresh.inserts_applied, 0u);
    for (std::size_t i = 0; i < fx.inserts.size(); ++i) {
      while (compactor.Insert(fx.inserts.row(i), fx.inserts.length()) ==
             StatusCode::kRejected) {
        std::this_thread::yield();
      }
    }
    for (const std::uint32_t id : deleted) {
      ASSERT_EQ(compactor.Delete(id), StatusCode::kOk);
    }
    // Deliberately no Flush: the crash point leaves a mix of compacted
    // shards, buffered rows and un-purged tombstones.
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const service::SearchResponse response =
          svc.Search(MakeSearchRequest(queries, q, 10));
      ASSERT_EQ(response.status, service::RequestStatus::kOk);
      pre_crash.push_back(response.neighbors);
      EXPECT_TRUE(BitIdentical(pre_crash[q],
                               oracle.SearchKnn(queries.row(q), 10)));
    }
  }  // "crash": trees and buffers gone; the WAL is all that survives

  {
    service::SearchService svc(service::WrapShardedIndex(fx.sharded),
                               &fx.pool);
    Compactor compactor(&svc, fx.sharded, config);
    // Traffic racing the replay: answers during recovery are exact over
    // the prefix of mutations applied so far and must complete OK.
    std::atomic<bool> recovering(true);
    std::thread client([&] {
      std::size_t q = 0;
      while (recovering.load()) {
        const service::SearchResponse response =
            svc.Search(MakeSearchRequest(queries, q++ % queries.size(), 10));
        EXPECT_EQ(response.status, service::RequestStatus::kOk);
      }
    });
    const RecoverStats stats = compactor.Recover();
    recovering.store(false);
    client.join();
    EXPECT_TRUE(stats.ok);
    EXPECT_FALSE(stats.tail_truncated);
    EXPECT_EQ(stats.inserts_applied, fx.inserts.size());
    EXPECT_EQ(stats.deletes_applied, deleted.size());
    EXPECT_EQ(compactor.Metrics().inserted, fx.inserts.size());
    EXPECT_EQ(compactor.Metrics().deleted, deleted.size());

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const service::SearchResponse response =
          svc.Search(MakeSearchRequest(queries, q, 10));
      ASSERT_EQ(response.status, service::RequestStatus::kOk);
      EXPECT_TRUE(BitIdentical(response.neighbors, pre_crash[q]))
          << "recovered answer differs from pre-crash, query " << q;
    }
    // Compactions after recovery keep the invariant.
    compactor.Flush();
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const service::SearchResponse response =
          svc.Search(MakeSearchRequest(queries, q, 10));
      ASSERT_EQ(response.status, service::RequestStatus::kOk);
      EXPECT_TRUE(BitIdentical(response.neighbors,
                               oracle.SearchKnn(queries.row(q), 10)));
    }
  }
  RemoveWalDir(dir);
}

// Only a persist truncates the log, so a log without a manifest must
// start at seqno 1. Here the first segment of a WAL-only deployment is
// lost: the deletes it held would come back to life if the rest replayed,
// so recovery refuses with a sequence gap instead — and applies none of
// the records behind the gap, which queries racing the recovery would
// otherwise already see.
TEST(IngestRecoveryTest, LostFirstSegmentIsRefused) {
  const std::string dir = WalTestDir("lost_first");
  RemoveWalDir(dir);
  IngestFixture fx(300, 0, 32, 2, 417, /*threads=*/2);
  IngestConfig config;
  config.wal_dir = dir;
  config.auto_compact = false;
  for (std::uint32_t round = 0; round < 2; ++round) {
    // Each run opens a fresh segment: round 0's deletes land in the
    // first one, round 1's in the second.
    service::SearchService svc(service::WrapShardedIndex(fx.sharded),
                               &fx.pool);
    Compactor compactor(&svc, fx.sharded, config);
    const RecoverStats stats = compactor.Recover();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.deletes_applied, 5u * round);
    for (std::uint32_t i = 0; i < 5; ++i) {
      ASSERT_EQ(compactor.Delete(10 * (5 * round + i)), StatusCode::kOk);
    }
  }
  const std::vector<std::string> segments = WriteAheadLog::ListSegments(dir);
  ASSERT_EQ(segments.size(), 2u);
  ASSERT_EQ(::unlink(segments[0].c_str()), 0);

  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  Compactor compactor(&svc, fx.sharded, config);
  const RecoverStats stats = compactor.Recover();
  EXPECT_FALSE(stats.ok);
  EXPECT_TRUE(stats.sequence_gap);
  EXPECT_EQ(stats.deletes_applied, 0u);
  EXPECT_EQ(compactor.Metrics().tombstones, 0u);
  RemoveWalDir(dir);
}

// A log that does not belong to the supplied base (its first insert id
// leaves a gap) is refused instead of silently corrupting the state.
TEST(IngestRecoveryTest, RecoverRejectsForeignLog) {
  const std::string dir = WalTestDir("foreign");
  RemoveWalDir(dir);
  const std::size_t length = 32;
  const Dataset rows = Walk(2, length, 421);
  {
    auto wal = WriteAheadLog::Open(dir, length);
    ASSERT_NE(wal, nullptr);
    // Base below has 120 rows; id 500 leaves a gap of missing records.
    ASSERT_TRUE(wal->AppendInsert(500, rows.row(0)));
  }
  IngestFixture fx(120, 0, length, 2, 422, /*threads=*/2);
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool);
  IngestConfig config;
  config.wal_dir = dir;
  config.auto_compact = false;
  Compactor compactor(&svc, fx.sharded, config);
  const RecoverStats stats = compactor.Recover();
  EXPECT_FALSE(stats.ok);
  EXPECT_EQ(stats.inserts_applied, 0u);
  EXPECT_EQ(compactor.Metrics().inserted, 0u);
  RemoveWalDir(dir);
}

}  // namespace
}  // namespace ingest
}  // namespace sofa
