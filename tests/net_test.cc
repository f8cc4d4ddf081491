// Tests for the network serving tier (src/net): byte-level goldens for
// the wire protocol (framing, CRC, payload codecs) and refusal of
// truncated/corrupt frames; and live loopback-server behavior — answers
// over TCP bit-identical to in-process submission with INSERT/DELETE
// arriving over the wire, strict-priority scheduling with the
// anti-starvation reserve observable end to end, per-tenant quota
// shedding, the admin + stats surface, graceful drain completing
// in-flight requests, and a mid-query client disconnect leaving the
// server serving.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "ingest/compactor.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/registry.h"
#include "obs/trace_serde.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "shard/sharded_index.h"
#include "test_data.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace sofa {
namespace net {
namespace {

using testing_data::BruteForceKnn;
using testing_data::SameDistances;
using testing_data::Walk;
using testing_harness::BitIdentical;
using testing_harness::MakeSearchRequest;

// ------------------------------------------------------ protocol goldens

TEST(WireProtocolTest, Crc32MatchesTheIeeeCheckValue) {
  // The standard CRC-32 check vector; pinning it pins the polynomial,
  // reflection and init/final xor the frame CRC field depends on.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(WireProtocolTest, FrameLayoutGolden) {
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB, 0xCC};
  const std::vector<std::uint8_t> frame =
      EncodeFrame(static_cast<std::uint8_t>(MessageType::kSearch),
                  0x1122334455667788ull, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + payload.size());
  const std::uint8_t expected_head[20] = {
      0x53, 0x4F, 0x46, 0x41,  // magic "SOFA"
      0x02,                    // protocol version
      0x01,                    // type = SEARCH request
      0x00, 0x00,              // flags (reserved)
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // request_id, LE
      0x03, 0x00, 0x00, 0x00,  // payload_size = 3
  };
  EXPECT_EQ(0, std::memcmp(frame.data(), expected_head, sizeof(expected_head)));
  const std::uint32_t wire_crc =
      static_cast<std::uint32_t>(frame[20]) |
      (static_cast<std::uint32_t>(frame[21]) << 8) |
      (static_cast<std::uint32_t>(frame[22]) << 16) |
      (static_cast<std::uint32_t>(frame[23]) << 24);
  EXPECT_EQ(wire_crc, Crc32(payload.data(), payload.size()));

  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), frame.size(), &header).ok());
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, static_cast<std::uint8_t>(MessageType::kSearch));
  EXPECT_EQ(header.request_id, 0x1122334455667788ull);
  EXPECT_EQ(header.payload_size, 3u);
  EXPECT_TRUE(VerifyPayload(header, frame.data() + kHeaderSize, 3).ok());
}

TEST(WireProtocolTest, Version1FramesStillDecode) {
  // Compatibility floor: a v1 peer's frames must keep decoding, with the
  // actual version reported so the responder can answer in kind.
  const std::vector<std::uint8_t> payload = {0x01, 0x02};
  const std::vector<std::uint8_t> frame =
      EncodeFrame(static_cast<std::uint8_t>(MessageType::kSearch), 7, payload,
                  /*version=*/1);
  EXPECT_EQ(frame[4], 0x01);
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), frame.size(), &header).ok());
  EXPECT_EQ(header.version, 1);
  EXPECT_TRUE(VerifyPayload(header, frame.data() + kHeaderSize, 2).ok());
}

TEST(WireProtocolTest, SearchRequestPayloadGolden) {
  service::SearchRequest request;
  request.k = 3;
  request.epsilon = 0.5;
  request.priority = service::Priority::kBatch;
  request.collect_profile = true;
  request.collect_trace = false;
  request.deadline_ms = 250.0;
  request.tenant = "t0";
  request.query = {1.0f, -2.0f};
  const std::vector<std::uint8_t> payload = EncodeSearchRequest(request);
  const std::uint8_t expected[] = {
      0x03, 0x00, 0x00, 0x00,                          // k = 3 (u32)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // epsilon 0.5 (f64)
      0x01,                                            // priority = batch
      0x01,                                            // bit 0: profile
      0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x6F, 0x40,  // 250.0 ms (f64)
      0x02, 0x00, 0x74, 0x30,                          // tenant "t0"
      0x02, 0x00, 0x00, 0x00,                          // 2 query points
      0x00, 0x00, 0x80, 0x3F,                          // 1.0f
      0x00, 0x00, 0x00, 0xC0,                          // -2.0f
  };
  ASSERT_EQ(payload.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(payload.data(), expected, sizeof(expected)));

  service::SearchRequest decoded;
  ASSERT_TRUE(
      DecodeSearchRequest(payload.data(), payload.size(), &decoded).ok());
  EXPECT_EQ(decoded.k, 3u);
  EXPECT_EQ(decoded.epsilon, 0.5);
  EXPECT_EQ(decoded.priority, service::Priority::kBatch);
  EXPECT_TRUE(decoded.collect_profile);
  EXPECT_FALSE(decoded.collect_trace);
  EXPECT_EQ(decoded.deadline_ms, 250.0);
  EXPECT_EQ(decoded.tenant, "t0");
  EXPECT_EQ(decoded.query, request.query);
}

TEST(WireProtocolTest, SearchResponseRoundTripsEveryWireField) {
  service::SearchResponse response;
  response.status = StatusCode::kOk;
  response.neighbors = {{7, 0.25f}, {19, 1.5f}};
  response.latency_ms = 3.75;
  response.index_version = 42;
  response.profile.nodes_visited = 11;
  response.profile.series_ed_computed = 101;
  response.profile.rowq_checked = 55;
  response.profile.rowq_pruned = 44;
  const std::vector<std::uint8_t> payload =
      EncodeSearchResponse(response, OkStatus(), "trace text", "blob!");

  service::SearchResponse decoded;
  std::string message, trace, blob;
  ASSERT_TRUE(DecodeSearchResponse(payload.data(), payload.size(), &decoded,
                                   &message, &trace, &blob)
                  .ok());
  EXPECT_EQ(decoded.status, StatusCode::kOk);
  EXPECT_TRUE(BitIdentical(decoded.neighbors, response.neighbors));
  EXPECT_EQ(decoded.latency_ms, 3.75);
  EXPECT_EQ(decoded.index_version, 42u);
  EXPECT_EQ(decoded.profile.nodes_visited, 11u);
  EXPECT_EQ(decoded.profile.series_ed_computed, 101u);
  EXPECT_EQ(decoded.profile.rowq_checked, 55u);
  EXPECT_EQ(decoded.profile.rowq_pruned, 44u);
  EXPECT_EQ(trace, "trace text");
  EXPECT_EQ(blob, "blob!");
  EXPECT_TRUE(message.empty());
}

TEST(WireProtocolTest, SearchResponseVersion1KeepsTheFrozenLayout) {
  // A v1 peer gets exactly the original bytes: 8-counter profile, trace
  // text, no structured trace section — and its decoder leaves the rowq
  // counters zero.
  service::SearchResponse response;
  response.status = StatusCode::kOk;
  response.neighbors = {{3, 0.5f}};
  response.profile.candidates_filtered = 9;
  response.profile.rowq_checked = 123;  // must NOT reach a v1 peer
  const std::vector<std::uint8_t> v1 = EncodeSearchResponse(
      response, OkStatus(), "text", "should never appear", /*version=*/1);
  const std::vector<std::uint8_t> v2 =
      EncodeSearchResponse(response, OkStatus(), "text", "");
  // v2 adds exactly the two rowq u64s plus the (empty) blob's u32 length.
  EXPECT_EQ(v2.size(), v1.size() + 2 * 8 + 4);

  service::SearchResponse decoded;
  std::string message, trace, blob = "sentinel";
  ASSERT_TRUE(DecodeSearchResponse(v1.data(), v1.size(), &decoded, &message,
                                   &trace, &blob, /*version=*/1)
                  .ok());
  EXPECT_EQ(decoded.profile.candidates_filtered, 9u);
  EXPECT_EQ(decoded.profile.rowq_checked, 0u);
  EXPECT_EQ(trace, "text");
  EXPECT_TRUE(blob.empty());  // cleared, not left stale
  // A v1 payload does not parse as v2 (the v2 decoder wants more bytes).
  EXPECT_FALSE(DecodeSearchResponse(v1.data(), v1.size(), &decoded, &message,
                                    &trace, &blob)
                   .ok());
}

TEST(WireProtocolTest, SideChannelCodecsRoundTrip) {
  // INSERT
  const std::vector<float> row = {0.5f, -1.0f, 2.0f};
  std::vector<float> row_out;
  std::vector<std::uint8_t> bytes = EncodeInsertRequest(row);
  ASSERT_TRUE(DecodeInsertRequest(bytes.data(), bytes.size(), &row_out).ok());
  EXPECT_EQ(row_out, row);
  Status status;
  std::uint32_t id = 0;
  bytes = EncodeInsertResponse(RejectedError("backpressure"), 9);
  ASSERT_TRUE(
      DecodeInsertResponse(bytes.data(), bytes.size(), &status, &id).ok());
  EXPECT_EQ(status.code(), StatusCode::kRejected);
  EXPECT_EQ(status.message(), "backpressure");

  // DELETE
  std::uint32_t delete_id = 0;
  bytes = EncodeDeleteRequest(1234567);
  ASSERT_TRUE(
      DecodeDeleteRequest(bytes.data(), bytes.size(), &delete_id).ok());
  EXPECT_EQ(delete_id, 1234567u);
  bytes = EncodeDeleteResponse(AlreadyDeletedError());
  ASSERT_TRUE(DecodeDeleteResponse(bytes.data(), bytes.size(), &status).ok());
  EXPECT_EQ(status.code(), StatusCode::kAlreadyDeleted);

  // STATS
  StatsFormat format = StatsFormat::kJson;
  bytes = EncodeStatsRequest(StatsFormat::kPrometheus);
  ASSERT_TRUE(DecodeStatsRequest(bytes.data(), bytes.size(), &format).ok());
  EXPECT_EQ(format, StatsFormat::kPrometheus);
  std::string text;
  bytes = EncodeStatsResponse(OkStatus(), "{\"x\": 1}");
  ASSERT_TRUE(
      DecodeStatsResponse(bytes.data(), bytes.size(), &status, &text).ok());
  EXPECT_EQ(text, "{\"x\": 1}");

  // ADMIN
  AdminOp op = AdminOp::kPersist;
  bytes = EncodeAdminRequest(AdminOp::kSwap);
  ASSERT_TRUE(DecodeAdminRequest(bytes.data(), bytes.size(), &op).ok());
  EXPECT_EQ(op, AdminOp::kSwap);
  // Ops outside 2–4 are unknown, the retired op 1 included.
  for (const int raw : {0, 1, 5}) {
    const std::uint8_t unknown = static_cast<std::uint8_t>(raw);
    EXPECT_EQ(DecodeAdminRequest(&unknown, 1, &op).code(),
              StatusCode::kProtocolError)
        << "op " << raw;
  }
  std::uint64_t version = 0;
  bytes = EncodeAdminResponse(UnavailableError("no WAL attached"), 5);
  ASSERT_TRUE(
      DecodeAdminResponse(bytes.data(), bytes.size(), &status, &version)
          .ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "no WAL attached");
  EXPECT_EQ(version, 5u);
}

TEST(WireProtocolTest, RefusesTruncatedAndCorruptFrames) {
  service::SearchRequest request;
  request.k = 5;
  request.query = {1.0f, 2.0f, 3.0f};
  const std::vector<std::uint8_t> payload = EncodeSearchRequest(request);
  std::vector<std::uint8_t> frame =
      EncodeFrame(static_cast<std::uint8_t>(MessageType::kSearch), 1, payload);

  // Intact frame passes.
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), frame.size(), &header).ok());
  ASSERT_TRUE(VerifyPayload(header, frame.data() + kHeaderSize,
                            header.payload_size)
                  .ok());

  // Bad magic.
  {
    std::vector<std::uint8_t> bad = frame;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(DecodeHeader(bad.data(), bad.size(), &header).ok());
  }
  // Unsupported versions: above the ceiling and below the floor.
  {
    std::vector<std::uint8_t> bad = frame;
    bad[4] = kProtocolVersion + 1;
    EXPECT_FALSE(DecodeHeader(bad.data(), bad.size(), &header).ok());
    bad[4] = 0;
    EXPECT_FALSE(DecodeHeader(bad.data(), bad.size(), &header).ok());
  }
  // Absurd payload_size.
  {
    std::vector<std::uint8_t> bad = frame;
    bad[16] = 0xFF;
    bad[17] = 0xFF;
    bad[18] = 0xFF;
    bad[19] = 0xFF;
    EXPECT_FALSE(DecodeHeader(bad.data(), bad.size(), &header).ok());
  }
  // Any flipped payload byte fails the CRC.
  {
    std::vector<std::uint8_t> bad = frame;
    bad[kHeaderSize + 2] ^= 0x01;
    ASSERT_TRUE(DecodeHeader(bad.data(), bad.size(), &header).ok());
    EXPECT_FALSE(VerifyPayload(header, bad.data() + kHeaderSize,
                               header.payload_size)
                     .ok());
  }
  // Truncated payload fails the decoder, not the process.
  {
    service::SearchRequest out;
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(DecodeSearchRequest(payload.data(), cut, &out).ok())
          << "decoded from a " << cut << "-byte prefix";
    }
  }
  // Trailing garbage is refused too (AtEnd rule).
  {
    std::vector<std::uint8_t> padded = payload;
    padded.push_back(0x00);
    service::SearchRequest out;
    EXPECT_FALSE(
        DecodeSearchRequest(padded.data(), padded.size(), &out).ok());
  }
  // A response whose neighbor count lies about the remaining bytes.
  {
    service::SearchResponse response;
    response.status = StatusCode::kOk;
    response.neighbors = {{1, 1.0f}, {2, 2.0f}};
    std::vector<std::uint8_t> bytes =
        EncodeSearchResponse(response, OkStatus(), "");
    // status u16 + empty message u16 + index_version u64 + latency f64
    // puts the neighbor count at offset 20.
    bytes[20] = 0xE8;
    bytes[21] = 0x03;  // claims 1000 neighbors
    service::SearchResponse out;
    std::string message, trace;
    EXPECT_FALSE(DecodeSearchResponse(bytes.data(), bytes.size(), &out,
                                      &message, &trace)
                     .ok());
  }
}

// ---------------------------------------------------- live server tests

// A sharded generation with the service + ingest path + server over it,
// everything wired to one registry — the full network serving stack on a
// loopback ephemeral port.
struct ServerFixture {
  ThreadPool pool;
  Dataset base;
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::shared_ptr<const shard::ShardedIndex> sharded;
  obs::Registry registry;
  std::unique_ptr<service::SearchService> service;
  std::optional<ingest::Compactor> compactor;
  std::unique_ptr<SofaServer> server;

  explicit ServerFixture(service::ServiceConfig config = {},
                         ServerConfig server_config = {},
                         std::size_t base_count = 1200,
                         std::size_t length = 64, std::uint64_t seed = 97,
                         bool enable_rowq = false, std::size_t threads = 4)
      : pool(threads), base(Walk(base_count, length, seed)) {
    scheme = testing_harness::TrainTestScheme(base, &pool);
    sharded = testing_harness::BuildTestSharded(base, /*num_shards=*/2, scheme,
                                                &pool, enable_rowq);
    config.registry = &registry;
    service = std::make_unique<service::SearchService>(
        service::WrapShardedIndex(sharded), &pool, config);
    ingest::IngestConfig ingest_config;
    ingest_config.compact_threshold = 64;
    ingest_config.registry = &registry;
    compactor.emplace(service.get(), sharded, ingest_config);
    server = std::make_unique<SofaServer>(service.get(), *compactor,
                                          server_config);
  }

  std::uint16_t Start() {
    const Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
    return server->port();
  }

  // Spin until the server has framed at least `n` requests — the gap
  // between a client's send() returning and the reader thread parsing.
  bool WaitForFrames(std::uint64_t n) {
    for (int spin = 0; spin < 2000; ++spin) {
      if (server->Stats().frames_received >= n) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  // Spin until at least `n` searches wait in the (paused) service's
  // admission queue — framed AND submitted, so their submit times are
  // fixed before the caller sends more.
  bool WaitForQueued(std::size_t n) {
    for (int spin = 0; spin < 2000; ++spin) {
      if (service->PendingCount() >= n) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }
};

TEST(NetServerTest, NetworkAnswersAreBitIdenticalUnderWireMutations) {
  ServerFixture fx;
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  // Mutations arrive over the wire: 80 inserts, then deletes of base and
  // freshly inserted rows.
  const Dataset inserts = Walk(80, 64, 98);
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    const StatusOr<std::uint32_t> id = client.Insert(std::vector<float>(
        inserts.row(i), inserts.row(i) + inserts.length()));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.value(), fx.base.size() + i);
  }
  const std::vector<std::uint32_t> deleted = {3, 17, 256,
                                              static_cast<std::uint32_t>(
                                                  fx.base.size() + 5)};
  for (const std::uint32_t id : deleted) {
    ASSERT_EQ(client.Delete(id).code(), StatusCode::kOk);
  }
  // The status vocabulary survives the wire unchanged.
  EXPECT_EQ(client.Delete(3).code(), StatusCode::kAlreadyDeleted);
  EXPECT_EQ(client.Delete(10000000).code(), StatusCode::kNotFound);
  // A wrong-length insert is an application error, not a dead socket.
  const StatusOr<std::uint32_t> bad_insert =
      client.Insert(std::vector<float>(3, 0.0f));
  EXPECT_EQ(bad_insert.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.connected());

  // Quiesce the background compaction the inserts triggered: without
  // this, its publish can land between the over-wire search and the
  // in-process search below and the index_version comparison races.
  fx.compactor->Flush();

  // Oracle: base ∪ inserts \ deletes, in global-id order.
  Dataset combined(fx.base.length());
  for (std::size_t i = 0; i < fx.base.size(); ++i) {
    combined.Append(fx.base.row(i));
  }
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    combined.Append(inserts.row(i));
  }
  const std::unordered_set<std::uint32_t> tombstones(deleted.begin(),
                                                     deleted.end());

  const Dataset queries = Walk(12, 64, 99);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    service::SearchResponse over_wire;
    ASSERT_TRUE(client.Search(MakeSearchRequest(queries, q, 5), &over_wire).ok());
    ASSERT_EQ(over_wire.status, StatusCode::kOk);

    const service::SearchResponse in_process =
        fx.service->Search(MakeSearchRequest(queries, q, 5));
    ASSERT_EQ(in_process.status, StatusCode::kOk);
    EXPECT_TRUE(BitIdentical(over_wire.neighbors, in_process.neighbors))
        << "query " << q << ": network != in-process";
    EXPECT_EQ(over_wire.index_version, in_process.index_version);

    std::vector<Neighbor> expected =
        BruteForceKnn(combined, queries.row(q), 5 + deleted.size());
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [&](const Neighbor& neighbor) {
                                    return tombstones.count(neighbor.id) > 0;
                                  }),
                   expected.end());
    expected.resize(5);
    EXPECT_TRUE(SameDistances(over_wire.neighbors, expected))
        << "query " << q << ": network != brute force";
  }
  client.Close();
  fx.server->Shutdown();
}

// The compressed pruning tier must be invisible over the wire: a server
// whose shards carry the rowq tier, fed mutations through TCP, answers
// bit-identical to a rowq-off in-process service fed the same mutations
// directly. Profile counters prove the tier engaged on the server side
// and never on the baseline.
TEST(NetServerTest, RowqTierAnswersBitIdenticalOverTheWire) {
  // One worker: no idle worker joins a query's leaf queue, so the profiled
  // search repeats its rowq counters exactly over the wire and in process.
  ServerFixture with_rowq({}, {}, /*base_count=*/1200, /*length=*/64,
                          /*seed=*/97, /*enable_rowq=*/true, /*threads=*/1);
  ServerFixture baseline({}, {}, /*base_count=*/1200, /*length=*/64,
                         /*seed=*/97, /*enable_rowq=*/false);
  const std::uint16_t port = with_rowq.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  // Same mutation stream on both sides — over the wire for the rowq
  // server, straight into the compactor for the baseline.
  const Dataset inserts = Walk(90, 64, 206);
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    const StatusOr<std::uint32_t> id = client.Insert(std::vector<float>(
        inserts.row(i), inserts.row(i) + inserts.length()));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    while (baseline.compactor->Insert(inserts.row(i), inserts.length()) ==
           StatusCode::kRejected) {
      std::this_thread::yield();
    }
  }
  const std::vector<std::uint32_t> deleted = {7, 42, 1100,
                                              static_cast<std::uint32_t>(
                                                  1200 + 11)};
  for (const std::uint32_t id : deleted) {
    ASSERT_EQ(client.Delete(id).code(), StatusCode::kOk);
    ASSERT_EQ(baseline.compactor->Delete(id), StatusCode::kOk);
  }
  with_rowq.compactor->Flush();
  baseline.compactor->Flush();

  const Dataset queries = Walk(15, 64, 207);
  std::uint64_t rowq_checked = 0;
  std::uint64_t baseline_checked = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const std::size_t k : {1u, 10u}) {
      service::SearchResponse over_wire;
      ASSERT_TRUE(
          client.Search(MakeSearchRequest(queries, q, k), &over_wire).ok());
      ASSERT_EQ(over_wire.status, StatusCode::kOk);
      const service::SearchResponse expected =
          baseline.service->Search(MakeSearchRequest(queries, q, k));
      ASSERT_EQ(expected.status, StatusCode::kOk);
      EXPECT_TRUE(BitIdentical(over_wire.neighbors, expected.neighbors))
          << "query " << q << " k=" << k
          << ": rowq-on over-wire != rowq-off in-process";
    }
    // Engagement proof travels over the wire: protocol v2 carries the
    // rowq counters, so the client sees the server's index consult the
    // tier — and the baseline's never does. The wire copy must match the
    // in-process profile of the same deterministic search exactly.
    service::SearchResponse profiled;
    ASSERT_TRUE(client
                    .Search(MakeSearchRequest(queries, q, 10, /*profile=*/true),
                            &profiled)
                    .ok());
    const service::SearchResponse in_process = with_rowq.service->Search(
        MakeSearchRequest(queries, q, 10, /*profile=*/true));
    EXPECT_EQ(profiled.profile.rowq_checked, in_process.profile.rowq_checked);
    EXPECT_EQ(profiled.profile.rowq_pruned, in_process.profile.rowq_pruned);
    rowq_checked += profiled.profile.rowq_checked;
    const service::SearchResponse off_profiled = baseline.service->Search(
        MakeSearchRequest(queries, q, 10, /*profile=*/true));
    baseline_checked += off_profiled.profile.rowq_checked;
  }
  EXPECT_GT(rowq_checked, 0u);
  EXPECT_EQ(baseline_checked, 0u);
  client.Close();
  with_rowq.server->Shutdown();
}

// ------------------------------------------------ wire-trace propagation

// Span-for-span equality of two trace records: every name (by content —
// the decoded copy's names live at interned addresses), parent link,
// exact timestamp double, perf counter and work counter must match.
void ExpectSameTraceRecord(const obs::TraceRecord& actual,
                           const obs::TraceRecord& expected) {
  EXPECT_EQ(actual.query_id, expected.query_id);
  EXPECT_EQ(actual.total_ms, expected.total_ms);
  EXPECT_EQ(actual.deadline_expired, expected.deadline_expired);
  ASSERT_EQ(actual.spans.size(), expected.spans.size());
  for (std::size_t i = 0; i < expected.spans.size(); ++i) {
    const obs::TraceSpan& a = actual.spans[i];
    const obs::TraceSpan& e = expected.spans[i];
    EXPECT_STREQ(a.name, e.name) << "span " << i;
    EXPECT_EQ(a.parent, e.parent) << "span " << i;
    EXPECT_EQ(a.start_ms, e.start_ms) << "span " << i;
    EXPECT_EQ(a.end_ms, e.end_ms) << "span " << i;
    EXPECT_EQ(a.perf.cycles, e.perf.cycles) << "span " << i;
    EXPECT_EQ(a.perf.instructions, e.perf.instructions) << "span " << i;
    EXPECT_EQ(a.perf.llc_misses, e.perf.llc_misses) << "span " << i;
    EXPECT_EQ(a.perf.stalled_cycles, e.perf.stalled_cycles) << "span " << i;
    EXPECT_EQ(a.perf.hardware, e.perf.hardware) << "span " << i;
  }
  ASSERT_EQ(actual.counters.size(), expected.counters.size());
  for (std::size_t i = 0; i < expected.counters.size(); ++i) {
    EXPECT_STREQ(actual.counters[i].name, expected.counters[i].name)
        << "counter " << i;
    EXPECT_EQ(actual.counters[i].value, expected.counters[i].value)
        << "counter " << i;
  }
}

// The slow-log record with `query_id` — the in-process ground truth a
// wire copy is judged against (the fixtures below set slow_query_ms so
// low that every traced query lands there).
const obs::TraceRecord* FindRecord(const std::vector<obs::TraceRecord>& dump,
                                   std::uint64_t query_id) {
  for (const obs::TraceRecord& record : dump) {
    if (record.query_id == query_id) {
      return &record;
    }
  }
  return nullptr;
}

TEST(NetServerTest, TracedSearchCarriesTheServersExactTraceOverTheWire) {
  service::ServiceConfig config;
  config.trace.slow_query_ms = 1e-9;  // every traced query → slow log
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  const Dataset queries = Walk(4, 64, 301);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    service::SearchRequest request = MakeSearchRequest(queries, q, 5);
    request.collect_trace = true;
    request.collect_profile = true;
    service::SearchResponse response;
    std::string trace_text, message;
    WireTrace wire;
    ASSERT_TRUE(
        client.Search(request, &response, &trace_text, &message, &wire).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);

    // The structured trace decoded, and the response handle points at it.
    ASSERT_TRUE(wire.has_server_trace);
    ASSERT_NE(response.trace, nullptr);
    ExpectSameTraceRecord(*response.trace, wire.server);

    // The decoded record IS the server's record: the slow-query log kept
    // the in-process original under the same query_id.
    const std::vector<obs::TraceRecord> dump =
        fx.service->slow_query_log().Dump();
    const obs::TraceRecord* original = FindRecord(dump, wire.server.query_id);
    ASSERT_NE(original, nullptr) << "query_id " << wire.server.query_id;
    ExpectSameTraceRecord(wire.server, *original);

    // The scan spans were executed under hardware counters (or the tsc
    // fallback): at least one span carries a nonzero perf sample.
    bool any_perf = false;
    for (const obs::TraceSpan& span : wire.server.spans) {
      any_perf = any_perf || span.perf.Any();
    }
    EXPECT_TRUE(any_perf) << "no span carried a perf sample";

    // The rendered text the server sent is exactly what the decoded
    // record renders to — blob and text describe the same trace.
    EXPECT_EQ(trace_text, obs::FormatTrace(wire.server));

    // The joined timeline wraps the server record in the seven client
    // spans: client, serialize, send, server_queue, server, receive,
    // decode — with the server spans re-based, structure intact.
    ASSERT_EQ(wire.joined.spans.size(), wire.server.spans.size() + 7);
    EXPECT_STREQ(wire.joined.spans[0].name, "client");
    EXPECT_STREQ(wire.joined.spans[1].name, "serialize");
    EXPECT_STREQ(wire.joined.spans[2].name, "send");
    EXPECT_STREQ(wire.joined.spans[3].name, "server_queue");
    EXPECT_STREQ(wire.joined.spans[4].name, "server");
    EXPECT_STREQ(wire.joined.spans[wire.joined.spans.size() - 2].name,
                 "receive");
    EXPECT_STREQ(wire.joined.spans.back().name, "decode");
    const double base = wire.joined.spans[4].start_ms;
    EXPECT_GE(base, wire.joined.spans[2].end_ms);  // after send_end
    for (std::size_t i = 0; i < wire.server.spans.size(); ++i) {
      const obs::TraceSpan& rebased = wire.joined.spans[5 + i];
      const obs::TraceSpan& span = wire.server.spans[i];
      EXPECT_STREQ(rebased.name, span.name);
      EXPECT_EQ(rebased.start_ms, span.start_ms + base);
      EXPECT_EQ(rebased.end_ms, span.end_ms + base);
      EXPECT_EQ(rebased.parent, span.parent < 0 ? 4 : span.parent + 5);
    }
    // Spans the client timed itself cover the whole round trip in order.
    EXPECT_LE(wire.joined.spans[1].end_ms, wire.joined.spans[2].start_ms +
                                               1e-9);
    EXPECT_LE(wire.joined.spans[2].end_ms, wire.joined.spans[3].start_ms +
                                               1e-9);
    EXPECT_LE(wire.joined.spans[wire.joined.spans.size() - 2].end_ms,
              wire.joined.spans.back().start_ms + 1e-9);
    EXPECT_EQ(wire.joined.total_ms, wire.joined.spans[0].end_ms);
  }
  client.Close();
  fx.server->Shutdown();
}

TEST(NetServerTest, PipelinedTracedSearchesKeepTheirOwnTraces) {
  service::ServiceConfig config;
  config.trace.slow_query_ms = 1e-9;
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  // Eight traced requests in flight at once, each with a distinct k so a
  // response is attributable to its request by answer size alone.
  const Dataset queries = Walk(8, 64, 302);
  constexpr std::size_t kInFlight = 8;
  std::unordered_map<std::uint64_t, std::size_t> expected_k;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    service::SearchRequest request = MakeSearchRequest(queries, i, i + 1);
    request.collect_trace = true;
    std::uint64_t request_id = 0;
    ASSERT_TRUE(client.SendSearch(request, &request_id).ok());
    expected_k[request_id] = i + 1;
  }

  std::unordered_set<std::uint64_t> seen_query_ids;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    service::SearchResponse response;
    std::string trace_text, message;
    WireTrace wire;
    std::uint64_t request_id = 0;
    ASSERT_TRUE(client
                    .ReceiveSearchResponse(&request_id, &response, &trace_text,
                                           &message, &wire)
                    .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    ASSERT_EQ(expected_k.count(request_id), 1u);
    // The response matched its request...
    EXPECT_EQ(response.neighbors.size(), expected_k[request_id]);
    // ...and carries that request's own server trace, not a neighbor's:
    // each decoded record matches the slow-log original with its
    // query_id, and no two responses share one.
    ASSERT_TRUE(wire.has_server_trace);
    EXPECT_TRUE(seen_query_ids.insert(wire.server.query_id).second)
        << "two responses decoded the same trace";
    const std::vector<obs::TraceRecord> dump =
        fx.service->slow_query_log().Dump();
    const obs::TraceRecord* original = FindRecord(dump, wire.server.query_id);
    ASSERT_NE(original, nullptr);
    ExpectSameTraceRecord(wire.server, *original);
    EXPECT_EQ(trace_text, obs::FormatTrace(wire.server));
    // Send-side timing was kept per request_id, so the joined timeline
    // is well-formed even with eight sends before the first receive.
    ASSERT_EQ(wire.joined.spans.size(), wire.server.spans.size() + 7);
    EXPECT_GT(wire.joined.spans[2].end_ms, 0.0);  // a real send window
    expected_k.erase(request_id);
  }
  EXPECT_TRUE(expected_k.empty());
  client.Close();
  fx.server->Shutdown();
}

TEST(NetServerTest, UntracedSearchCarriesNoTraceOverTheWire) {
  // collect_trace off: no blob, no server record, and the joined
  // timeline degrades to the client-only spans.
  service::ServiceConfig config;
  config.trace.slow_query_ms = 1e-9;  // server traces internally...
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  const Dataset queries = Walk(1, 64, 303);
  service::SearchResponse response;
  std::string trace_text, message;
  WireTrace wire;
  ASSERT_TRUE(client
                  .Search(MakeSearchRequest(queries, 0, 3), &response,
                          &trace_text, &message, &wire)
                  .ok());
  ASSERT_EQ(response.status, StatusCode::kOk);
  // ...but the response carries none of it: the client never opted in.
  EXPECT_FALSE(wire.has_server_trace);
  EXPECT_EQ(response.trace, nullptr);
  EXPECT_TRUE(trace_text.empty());
  EXPECT_EQ(wire.joined.spans.size(), 5u);  // client/serialize/send/recv/decode
  client.Close();
  fx.server->Shutdown();
}

TEST(NetServerTest, PrioritySchedulingIsVisibleOverTheWire) {
  // Stage everything while the service is paused, each class fully
  // queued before the next is sent, so scheduling order (not arrival
  // timing across the two connections) decides completion order — and
  // run one query at a time, so a worker the OS preempts mid-query cannot
  // let later-started queries overtake it. Every query is traced into
  // the slow-query log, which then lists them in start order.
  service::ServiceConfig config;
  config.start_paused = true;
  config.num_threads = 1;
  config.trace.slow_query_ms = 1e-9;
  config.trace.slow_log_capacity = 256;
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();

  // Part 1 — strict priority: a backlog of background queries must not
  // delay interactive ones that arrive after them.
  SofaClient background_client, interactive_client;
  ASSERT_TRUE(background_client.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(interactive_client.Connect("127.0.0.1", port).ok());
  const Dataset queries = Walk(8, 64, 111);
  constexpr std::size_t kBackground = 60;
  std::uint64_t request_id = 0;
  for (std::size_t i = 0; i < kBackground; ++i) {
    service::SearchRequest request = MakeSearchRequest(queries, i % 8, 3);
    request.priority = service::Priority::kBackground;
    ASSERT_TRUE(background_client.SendSearch(request, &request_id).ok());
  }
  ASSERT_TRUE(fx.WaitForQueued(kBackground));
  constexpr std::size_t kInteractive = 2;
  for (std::size_t i = 0; i < kInteractive; ++i) {
    service::SearchRequest request = MakeSearchRequest(queries, i, 3);
    request.priority = service::Priority::kInteractive;
    ASSERT_TRUE(interactive_client.SendSearch(request, &request_id).ok());
  }
  ASSERT_TRUE(fx.WaitForQueued(kBackground + kInteractive));
  fx.service->Resume();

  double max_interactive = 0.0, max_background = 0.0;
  for (std::size_t i = 0; i < kInteractive; ++i) {
    service::SearchResponse response;
    ASSERT_TRUE(
        interactive_client.ReceiveSearchResponse(&request_id, &response)
            .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    max_interactive = std::max(max_interactive, response.latency_ms);
  }
  for (std::size_t i = 0; i < kBackground; ++i) {
    service::SearchResponse response;
    ASSERT_TRUE(
        background_client.ReceiveSearchResponse(&request_id, &response)
            .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    max_background = std::max(max_background, response.latency_ms);
  }
  // The interactive pair started first; the background tail started
  // only as workers freed up behind it.
  EXPECT_LT(max_interactive, max_background);

  const service::MetricsSnapshot metrics = fx.service->Metrics();
  EXPECT_EQ(metrics.completed_by_priority[0], kInteractive);
  EXPECT_EQ(metrics.completed_by_priority[2], kBackground);

  // Part 2 — anti-starvation: under an interactive flood longer than one
  // round of starts, the reserved slots keep background queries flowing
  // instead of starving them.
  fx.service->Pause();
  constexpr std::size_t kFlood = 2 * service::kRoundStarts;
  for (std::size_t i = 0; i < kFlood; ++i) {
    service::SearchRequest request = MakeSearchRequest(queries, i % 8, 3);
    request.priority = service::Priority::kInteractive;
    ASSERT_TRUE(interactive_client.SendSearch(request, &request_id).ok());
  }
  ASSERT_TRUE(fx.WaitForQueued(kFlood));
  constexpr std::size_t kStarved = 4;
  for (std::size_t i = 0; i < kStarved; ++i) {
    service::SearchRequest request = MakeSearchRequest(queries, i, 3);
    request.priority = service::Priority::kBackground;
    ASSERT_TRUE(background_client.SendSearch(request, &request_id).ok());
  }
  ASSERT_TRUE(fx.WaitForQueued(kFlood + kStarved));
  fx.service->Resume();
  double starved_max = 0.0, flood_max = 0.0;
  for (std::size_t i = 0; i < kStarved; ++i) {
    service::SearchResponse response;
    ASSERT_TRUE(
        background_client.ReceiveSearchResponse(&request_id, &response)
            .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    starved_max = std::max(starved_max, response.latency_ms);
  }
  for (std::size_t i = 0; i < kFlood; ++i) {
    service::SearchResponse response;
    ASSERT_TRUE(
        interactive_client.ReceiveSearchResponse(&request_id, &response)
            .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    flood_max = std::max(flood_max, response.latency_ms);
  }
  // The last kRoundReserve slots of a round of kRoundStarts starts go to
  // waiting lower classes, so all 4 background queries start by the end
  // of the flood's first round, while the flood needs two.
  EXPECT_LT(starved_max, flood_max);
  // Latencies alone cannot show the reserve: the starved queries were
  // sent after the flood was queued, so even starting last they finish
  // sooner after their own submission than the flood's slowest. Start
  // order can: query ids follow submission, so the starved queries hold
  // the highest ids, and a whole round of the flood still waits when the
  // last of them starts.
  const std::vector<obs::TraceRecord> started =
      fx.service->slow_query_log().Dump();
  ASSERT_EQ(started.size(), kBackground + kInteractive + kFlood + kStarved);
  const std::uint64_t first_starved_id = started.size() - kStarved + 1;
  std::size_t flood_after_starved = 0;
  for (const obs::TraceRecord& record : started) {
    if (record.query_id >= first_starved_id) {
      flood_after_starved = 0;
    } else {
      ++flood_after_starved;
    }
  }
  EXPECT_GE(flood_after_starved, kFlood - service::kRoundStarts);
  fx.server->Shutdown();
}

TEST(NetServerTest, TenantQuotaShedsOverTheWire) {
  service::ServiceConfig config;
  config.start_paused = true;
  config.tenant_max_in_flight = 1;
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  const Dataset queries = Walk(3, 64, 5);
  std::uint64_t request_id = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    service::SearchRequest request = MakeSearchRequest(queries, i, 3);
    request.tenant = "acme";
    ASSERT_TRUE(client.SendSearch(request, &request_id).ok());
  }
  ASSERT_TRUE(fx.WaitForFrames(3));
  fx.service->Resume();

  // Request 1 held the only "acme" slot while paused, so 2 and 3 shed
  // with kQuotaExceeded — visible in the response payloads, in order.
  StatusCode statuses[3];
  for (auto& status : statuses) {
    service::SearchResponse response;
    ASSERT_TRUE(client.ReceiveSearchResponse(&request_id, &response).ok());
    status = response.status;
  }
  EXPECT_EQ(statuses[0], StatusCode::kOk);
  EXPECT_EQ(statuses[1], StatusCode::kQuotaExceeded);
  EXPECT_EQ(statuses[2], StatusCode::kQuotaExceeded);
  EXPECT_EQ(fx.service->Metrics().quota_rejected, 2u);
  fx.server->Shutdown();
}

TEST(NetServerTest, AdminAndStatsSurface) {
  ServerFixture fx;
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  const Dataset queries = Walk(1, 64, 7);

  service::SearchResponse before;
  ASSERT_TRUE(client.Search(MakeSearchRequest(queries, 0, 3), &before).ok());
  ASSERT_EQ(before.status, StatusCode::kOk);

  // kSwap republishes the current generation: the version bump must be
  // visible to the very next search on the same connection.
  const StatusOr<std::uint64_t> swapped = client.Admin(AdminOp::kSwap);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), before.index_version + 1);
  service::SearchResponse after;
  ASSERT_TRUE(client.Search(MakeSearchRequest(queries, 0, 3), &after).ok());
  EXPECT_EQ(after.index_version, before.index_version + 1);
  EXPECT_TRUE(BitIdentical(after.neighbors, before.neighbors));

  // Op 1 is retired: a typed PROTOCOL_ERROR on a connection that stays
  // open, so the next request on it succeeds.
  EXPECT_EQ(client.Admin(static_cast<AdminOp>(1)).code(),
            StatusCode::kProtocolError);
  // kCompact folds pending mutations (a no-op backlog here).
  EXPECT_TRUE(client.Admin(AdminOp::kCompact).ok());
  // Persist needs a generation store this fixture does not attach; the
  // taxonomy crosses the wire intact.
  EXPECT_EQ(client.Admin(AdminOp::kPersist).code(), StatusCode::kUnavailable);

  // STATS: the JSON dump parses and carries the serving-tier instruments.
  const StatusOr<std::string> stats = client.Stats(StatsFormat::kJson);
  ASSERT_TRUE(stats.ok());
  std::vector<obs::InstrumentSnapshot> snapshot;
  std::string parse_error;
  ASSERT_TRUE(obs::ParseStatsJson(stats.value(), &snapshot, &parse_error))
      << parse_error;
  const bool has_net_instruments =
      std::any_of(snapshot.begin(), snapshot.end(),
                  [](const obs::InstrumentSnapshot& instrument) {
                    return instrument.name.rfind("sofa_net_", 0) == 0;
                  });
  EXPECT_TRUE(has_net_instruments);
  EXPECT_FALSE(client.Stats(StatsFormat::kPrometheus).value().empty());
  EXPECT_FALSE(client.Stats(StatsFormat::kPretty).value().empty());
  fx.server->Shutdown();
}

TEST(NetServerTest, GracefulDrainCompletesInFlightRequests) {
  service::ServiceConfig config;
  config.start_paused = true;  // holds the request in flight past drain
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  const Dataset queries = Walk(1, 64, 13);
  std::uint64_t request_id = 0;
  ASSERT_TRUE(client.SendSearch(MakeSearchRequest(queries, 0, 5), &request_id).ok());
  ASSERT_TRUE(fx.WaitForFrames(1));

  // Drain starts with the query still queued; it must complete and its
  // response flush before the connection closes.
  fx.server->RequestDrain();
  fx.service->Resume();
  service::SearchResponse response;
  ASSERT_TRUE(client.ReceiveSearchResponse(&request_id, &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_TRUE(SameDistances(response.neighbors,
                            BruteForceKnn(fx.base, queries.row(0), 5)));

  // The drained connection then closes from the server side.
  service::SearchResponse eof_probe;
  EXPECT_FALSE(client.ReceiveSearchResponse(&request_id, &eof_probe).ok());
  for (int spin = 0; spin < 2000 && !fx.server->Drained(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fx.server->Drained());
  fx.server->Shutdown();
  EXPECT_EQ(fx.server->Stats().active_connections, 0u);
}

TEST(NetServerTest, ClientDisconnectMidQueryLeavesTheServerServing) {
  service::ServiceConfig config;
  config.start_paused = true;
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();

  const Dataset queries = Walk(2, 64, 17);
  {
    SofaClient doomed;
    ASSERT_TRUE(doomed.Connect("127.0.0.1", port).ok());
    std::uint64_t request_id = 0;
    ASSERT_TRUE(
        doomed.SendSearch(MakeSearchRequest(queries, 0, 5), &request_id).ok());
    ASSERT_TRUE(fx.WaitForFrames(1));
    doomed.Close();  // vanish with the query still in flight
  }
  fx.service->Resume();

  // The server must absorb the dead connection and keep serving.
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  service::SearchResponse response;
  ASSERT_TRUE(client.Search(MakeSearchRequest(queries, 1, 5), &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_TRUE(SameDistances(response.neighbors,
                            BruteForceKnn(fx.base, queries.row(1), 5)));
  fx.server->Shutdown();
}

// Raw-socket helpers for byte-level misbehavior a well-formed client
// cannot produce.
int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool RawSend(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads until EOF (or error); returns the number of bytes seen.
std::size_t RawDrain(int fd) {
  std::uint8_t buffer[4096];
  std::size_t total = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      return total;
    }
    total += static_cast<std::size_t>(n);
  }
}

bool RawRecvAll(int fd, std::uint8_t* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, out + got, size - got, 0);
    if (n <= 0) {
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads one whole response frame: its header and payload.
bool RawReadFrame(int fd, FrameHeader* header,
                  std::vector<std::uint8_t>* payload) {
  std::uint8_t header_bytes[kHeaderSize];
  if (!RawRecvAll(fd, header_bytes, kHeaderSize) ||
      !DecodeHeader(header_bytes, kHeaderSize, header).ok()) {
    return false;
  }
  payload->resize(header->payload_size);
  return RawRecvAll(fd, payload->data(), payload->size());
}

TEST(NetServerTest, FramingErrorsCloseTheConnectionTypedErrorsDoNot) {
  ServerFixture fx;
  const std::uint16_t port = fx.Start();

  // Garbage header → the server closes the byte stream without replying.
  {
    const int fd = RawConnect(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(RawSend(fd, std::vector<std::uint8_t>(kHeaderSize, 0x5A)));
    EXPECT_EQ(RawDrain(fd), 0u);
    ::close(fd);
  }
  // Valid framing, corrupt CRC → same refusal.
  {
    const int fd = RawConnect(port);
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> frame = EncodeFrame(
        static_cast<std::uint8_t>(MessageType::kDelete), 9,
        EncodeDeleteRequest(1));
    frame.back() ^= 0x01;  // payload no longer matches the header CRC
    ASSERT_TRUE(RawSend(fd, frame));
    EXPECT_EQ(RawDrain(fd), 0u);
    ::close(fd);
  }
  // Well-framed but malformed payload → a typed kProtocolError response
  // on a connection that stays open; an unknown type answers the same
  // way. Prove liveness by following up with a valid DELETE.
  {
    SofaClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    EXPECT_GE(fx.server->Stats().protocol_errors, 2u);
    service::SearchResponse response;
    std::uint64_t request_id = 0;
    // A SEARCH whose payload is one stray byte: SofaClient cannot send
    // that, so splice it through a raw socket instead.
    const int fd = RawConnect(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(RawSend(fd, EncodeFrame(
        static_cast<std::uint8_t>(MessageType::kSearch), 77, {0x01})));
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    EXPECT_EQ(header.type, static_cast<std::uint8_t>(MessageType::kSearch) |
                               kResponseBit);
    EXPECT_EQ(header.request_id, 77u);
    std::string message, trace;
    ASSERT_TRUE(DecodeSearchResponse(payload.data(), payload.size(),
                                     &response, &message, &trace)
                    .ok());
    EXPECT_EQ(response.status, StatusCode::kProtocolError);
    ::close(fd);

    // The well-behaved connection was never affected.
    EXPECT_EQ(client.Delete(1).code(), StatusCode::kOk);
    (void)request_id;
  }
  fx.server->Shutdown();
}

// A traced SEARCH carries its trace once: a v2 response holds the
// structured blob and an empty text field (the client renders the text),
// while a v1 peer, which has no blob, still gets the rendered text.
TEST(NetServerTest, TracedV2ResponseCarriesTheTraceOnce) {
  ServerFixture fx;
  const std::uint16_t port = fx.Start();
  const int fd = RawConnect(port);
  ASSERT_GE(fd, 0);
  const Dataset queries = Walk(1, 64, 304);
  service::SearchRequest request = MakeSearchRequest(queries, 0, 3);
  request.collect_trace = true;
  for (const std::uint8_t version : {kProtocolVersion, std::uint8_t{1}}) {
    ASSERT_TRUE(RawSend(
        fd, EncodeFrame(static_cast<std::uint8_t>(MessageType::kSearch), 5,
                        EncodeSearchRequest(request), version)));
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(RawReadFrame(fd, &header, &payload));
    ASSERT_EQ(header.version, version);
    service::SearchResponse response;
    std::string message, trace_text, trace_blob;
    ASSERT_TRUE(DecodeSearchResponse(payload.data(), payload.size(),
                                     &response, &message, &trace_text,
                                     &trace_blob, version)
                    .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    if (version >= 2) {
      EXPECT_TRUE(trace_text.empty()) << "v2 sent the trace twice";
      obs::TraceRecord record;
      ASSERT_TRUE(obs::DeserializeTraceRecord(trace_blob, &record));
      EXPECT_FALSE(record.spans.empty());
    } else {
      EXPECT_FALSE(trace_text.empty());
      EXPECT_TRUE(trace_blob.empty());
    }
  }
  ::close(fd);
  fx.server->Shutdown();
}

// Resident set size of this process, in KiB (from /proc/self/status).
std::size_t VmRssKib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib;
}

// A header may claim a payload of up to kMaxPayloadSize, but the server
// must hold memory only for the bytes that actually arrive: eight
// connections each claiming 64 MiB and sending 16 bytes leave the
// process well under 64 MiB larger, and the server keeps serving.
TEST(NetServerTest, ClaimedPayloadSizeDoesNotReserveMemory) {
  ServerFixture fx;
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  const Dataset queries = Walk(2, 64, 331);
  service::SearchResponse response;
  ASSERT_TRUE(client.Search(MakeSearchRequest(queries, 0, 5), &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);

  const std::size_t rss_before = VmRssKib();
  ASSERT_GT(rss_before, 0u);
  FrameHeader header;
  header.type = static_cast<std::uint8_t>(MessageType::kSearch);
  header.request_id = 1;
  header.payload_size = kMaxPayloadSize;
  std::vector<std::uint8_t> bytes(kHeaderSize + 16, 0x11);
  EncodeHeader(header, bytes.data());
  std::vector<int> fds;
  for (int c = 0; c < 8; ++c) {
    const int fd = RawConnect(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(RawSend(fd, bytes));
    fds.push_back(fd);
  }
  // Give every reader time to parse its header and take in the bytes.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t rss_after = VmRssKib();
  EXPECT_LT(rss_after, rss_before + 64 * 1024)
      << "VmRSS grew from " << rss_before << " to " << rss_after << " KiB";

  ASSERT_TRUE(client.Search(MakeSearchRequest(queries, 1, 5), &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_TRUE(SameDistances(response.neighbors,
                            BruteForceKnn(fx.base, queries.row(1), 5)));
  for (const int fd : fds) {
    ::close(fd);
  }
  client.Close();
  fx.server->Shutdown();
}

TEST(NetServerTest, DeadlinesExpireOverTheWire) {
  service::ServiceConfig config;
  config.start_paused = true;
  ServerFixture fx(config);
  const std::uint16_t port = fx.Start();
  SofaClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  const Dataset queries = Walk(1, 64, 23);
  service::SearchRequest request = MakeSearchRequest(queries, 0, 3);
  request.deadline_ms = 0.01;  // expires while the service is paused
  std::uint64_t request_id = 0;
  ASSERT_TRUE(client.SendSearch(request, &request_id).ok());
  ASSERT_TRUE(fx.WaitForFrames(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fx.service->Resume();
  service::SearchResponse response;
  ASSERT_TRUE(client.ReceiveSearchResponse(&request_id, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kDeadlineExpired);
  fx.server->Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace sofa
