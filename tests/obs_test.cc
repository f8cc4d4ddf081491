// Tests for the unified observability layer (src/obs/): registry
// registration semantics (stable instrument pointers, label ordering,
// collect hooks), the exposition renderers pinned by golden strings
// (Prometheus text format and the JSON stats schema, including the
// ParseStatsJson round trip `sofa_cli stats` relies on), QueryTrace span
// nesting/ordering/overflow, sampler cadence, slow-query-log ring
// eviction, a multi-threaded registration+increment stress (runs under
// TSan via the concurrency label), and the end-to-end acceptance trace:
// a traced query against a 4-shard ingesting generation with live
// inserts and deletes must cover admission → one search over all shards,
// with the buffer scan nested inside the search window and the
// sequential stage durations summing to no more than the query's total
// latency.

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/compactor.h"
#include "obs/exposition.h"
#include "obs/perf_counters.h"
#include "obs/registry.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_serde.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "sfa/mcb.h"
#include "shard/sharded_index.h"
#include "test_data.h"
#include "util/thread_pool.h"

namespace sofa {
namespace obs {
namespace {

using testing_data::Walk;

// Finds the snapshot of `name` (with `label_value` under `label_key`,
// when given) in a Collect() result; nullptr when absent.
const InstrumentSnapshot* Find(const std::vector<InstrumentSnapshot>& snapshot,
                               const std::string& name,
                               const std::string& label_key = "",
                               const std::string& label_value = "") {
  for (const InstrumentSnapshot& snap : snapshot) {
    if (snap.name != name) {
      continue;
    }
    if (label_key.empty()) {
      return &snap;
    }
    for (const auto& label : snap.labels) {
      if (label.first == label_key && label.second == label_value) {
        return &snap;
      }
    }
  }
  return nullptr;
}

// ----------------------------------------------------------- registry

TEST(RegistryTest, ReRegistrationReturnsTheSameInstrument) {
  Registry registry;
  Counter* a = registry.GetCounter("reg_total", {{"x", "1"}, {"y", "2"}});
  // Same name, same labels in a different order: labels are normalized
  // (sorted by key), so this must resolve to the same instrument.
  Counter* b = registry.GetCounter("reg_total", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->Value(), 5u);

  // Different labels are a different time series.
  Counter* c = registry.GetCounter("reg_total", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(c->Value(), 0u);
}

TEST(RegistryTest, CollectSnapshotsEveryKind) {
  Registry registry;
  registry.GetCounter("t_counter", {}, "a counter")->Add(7);
  registry.GetGauge("t_gauge", {}, "a gauge")->Set(2.5);
  Histogram* histogram =
      registry.GetHistogram("t_histogram", HistogramOptions{}, {}, "a histo");
  histogram->Record(1.0);
  histogram->Record(4.0);

  const std::vector<InstrumentSnapshot> snapshot = registry.Collect();
  ASSERT_EQ(snapshot.size(), 3u);

  const InstrumentSnapshot* counter = Find(snapshot, "t_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->kind, InstrumentKind::kCounter);
  EXPECT_EQ(counter->counter, 7u);
  EXPECT_EQ(counter->help, "a counter");

  const InstrumentSnapshot* gauge = Find(snapshot, "t_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, InstrumentKind::kGauge);
  EXPECT_DOUBLE_EQ(gauge->gauge, 2.5);

  const InstrumentSnapshot* histo = Find(snapshot, "t_histogram");
  ASSERT_NE(histo, nullptr);
  EXPECT_EQ(histo->kind, InstrumentKind::kHistogram);
  EXPECT_EQ(histo->count, 2u);
  EXPECT_DOUBLE_EQ(histo->sum, 5.0);
  EXPECT_DOUBLE_EQ(histo->max, 4.0);
  ASSERT_FALSE(histo->buckets.empty());
  // Buckets are cumulative, ending in the overflow bucket at count.
  std::uint64_t previous = 0;
  for (const HistogramBucket& bucket : histo->buckets) {
    EXPECT_GE(bucket.cumulative, previous);
    previous = bucket.cumulative;
  }
  EXPECT_TRUE(histo->buckets.back().overflow);
  EXPECT_EQ(histo->buckets.back().cumulative, histo->count);
}

TEST(RegistryTest, CollectHooksRunAndCanBeRemoved) {
  Registry registry;
  Gauge* mirrored = registry.GetGauge("hooked_gauge");
  int source = 1;
  const std::uint64_t hook = registry.AddCollectHook(
      [&] { mirrored->Set(static_cast<double>(source)); });

  registry.Collect();
  EXPECT_DOUBLE_EQ(mirrored->Value(), 1.0);

  source = 42;
  registry.Collect();
  EXPECT_DOUBLE_EQ(mirrored->Value(), 42.0);

  registry.RemoveCollectHook(hook);
  source = 99;
  registry.Collect();
  EXPECT_DOUBLE_EQ(mirrored->Value(), 42.0);  // hook no longer runs
}

// Many threads race registration of the same and different label sets
// while a collector thread snapshots — the lock-free Add path and the
// registration path must agree on totals. Runs under TSan in CI.
TEST(RegistryTest, ConcurrentRegistrationAndIncrement) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.Collect();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      const std::string shard = std::to_string(t % 4);
      for (int i = 0; i < kIterations; ++i) {
        registry.GetCounter("stress_total", {{"shard", shard}})->Add();
        registry.GetHistogram("stress_ms")->Record(0.5 + t);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  stop.store(true, std::memory_order_relaxed);
  collector.join();

  const std::vector<InstrumentSnapshot> snapshot = registry.Collect();
  std::uint64_t total = 0;
  for (const InstrumentSnapshot& snap : snapshot) {
    if (snap.name == "stress_total") {
      total += snap.counter;
    }
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIterations);
  const InstrumentSnapshot* histogram = Find(snapshot, "stress_ms");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, static_cast<std::uint64_t>(kThreads) * kIterations);
}

// --------------------------------------------------------- exposition

TEST(ExpositionTest, PrometheusGolden) {
  Registry registry;
  const char* kHelp = "Requests served";
  registry.GetCounter("test_requests_total", {{"status", "ok"}}, kHelp)
      ->Add(3);
  registry.GetCounter("test_requests_total", {{"status", "rejected"}}, kHelp)
      ->Add(1);
  registry.GetGauge("test_uptime_seconds", {}, "Uptime")->Set(5.0);

  const std::string expected =
      "# HELP test_requests_total Requests served\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total{status=\"ok\"} 3\n"
      "test_requests_total{status=\"rejected\"} 1\n"
      "# HELP test_uptime_seconds Uptime\n"
      "# TYPE test_uptime_seconds gauge\n"
      "test_uptime_seconds 5\n";
  EXPECT_EQ(RenderPrometheus(registry.Collect()), expected);
}

TEST(ExpositionTest, PrometheusHistogramExpansion) {
  Registry registry;
  Histogram* histogram =
      registry.GetHistogram("t_ms", HistogramOptions{}, {{"op", "x"}});
  histogram->Record(1.0);
  histogram->Record(2.0);

  const std::string text = RenderPrometheus(registry.Collect());
  EXPECT_NE(text.find("# TYPE t_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("t_ms_bucket{op=\"x\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_ms_sum{op=\"x\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_ms_count{op=\"x\"} 2\n"), std::string::npos);
}

TEST(ExpositionTest, JsonGolden) {
  Registry registry;
  const char* kHelp = "Requests served";
  registry.GetCounter("test_requests_total", {{"status", "ok"}}, kHelp)
      ->Add(3);
  registry.GetGauge("test_uptime_seconds", {}, "Uptime")->Set(5.0);

  const std::string expected =
      "{\n"
      "  \"metrics\": [\n"
      "    {\"name\": \"test_requests_total\", \"type\": \"counter\", "
      "\"labels\": {\"status\": \"ok\"}, \"help\": \"Requests served\", "
      "\"value\": 3},\n"
      "    {\"name\": \"test_uptime_seconds\", \"type\": \"gauge\", "
      "\"help\": \"Uptime\", \"value\": 5}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(RenderJson(registry.Collect()), expected);
}

TEST(ExpositionTest, JsonRoundTripsThroughParseStatsJson) {
  Registry registry;
  registry.GetCounter("rt_total", {{"a", "1"}}, "counter help")->Add(11);
  registry.GetGauge("rt_gauge", {}, "gauge help")->Set(-2.25);
  Histogram* histogram =
      registry.GetHistogram("rt_ms", HistogramOptions{}, {}, "histo help");
  histogram->Record(0.5);
  histogram->Record(7.0);
  histogram->Record(7.0);

  const std::vector<InstrumentSnapshot> original = registry.Collect();
  std::vector<InstrumentSnapshot> parsed;
  std::string error;
  ASSERT_TRUE(ParseStatsJson(RenderJson(original), &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].name, original[i].name);
    EXPECT_EQ(parsed[i].kind, original[i].kind);
    EXPECT_EQ(parsed[i].labels, original[i].labels);
    EXPECT_EQ(parsed[i].help, original[i].help);
    EXPECT_EQ(parsed[i].counter, original[i].counter);
    EXPECT_DOUBLE_EQ(parsed[i].gauge, original[i].gauge);
    EXPECT_EQ(parsed[i].count, original[i].count);
    EXPECT_DOUBLE_EQ(parsed[i].sum, original[i].sum);
    EXPECT_DOUBLE_EQ(parsed[i].max, original[i].max);
    ASSERT_EQ(parsed[i].buckets.size(), original[i].buckets.size());
    for (std::size_t j = 0; j < original[i].buckets.size(); ++j) {
      EXPECT_EQ(parsed[i].buckets[j].cumulative,
                original[i].buckets[j].cumulative);
      EXPECT_EQ(parsed[i].buckets[j].overflow,
                original[i].buckets[j].overflow);
    }
  }
}

TEST(ExpositionTest, ParseStatsJsonRejectsMalformedInput) {
  std::vector<InstrumentSnapshot> parsed;
  std::string error;
  EXPECT_FALSE(ParseStatsJson("{\"metrics\": [", &parsed, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseStatsJson("[]", &parsed, &error));
  EXPECT_FALSE(
      ParseStatsJson("{\"metrics\": [{\"name\": \"x\", \"type\": \"bogus\"}]}",
                     &parsed, &error));
}

TEST(ExpositionTest, PrettyRendering) {
  EXPECT_EQ(RenderPretty({}), "(no metrics)\n");

  Registry registry;
  registry.GetCounter("p_total", {{"s", "a"}})->Add(4);
  registry.GetGauge("p_gauge")->Set(1.5);
  registry.GetHistogram("p_ms")->Record(2.0);
  const std::string text = RenderPretty(registry.Collect());
  EXPECT_NE(text.find("counters:\n"), std::string::npos);
  EXPECT_NE(text.find("p_total{s=a}"), std::string::npos);
  EXPECT_NE(text.find("gauges:\n"), std::string::npos);
  EXPECT_NE(text.find("histograms:\n"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

// -------------------------------------------------------------- traces

TEST(TraceTest, SpanNestingAndOrdering) {
  QueryTrace trace;
  const int outer = trace.BeginSpan("outer");
  ASSERT_EQ(outer, 0);
  const int inner = trace.BeginSpan("inner", outer);
  ASSERT_EQ(inner, 1);
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  trace.AddCounter("work", 17);

  const TraceRecord record = trace.Finish(9, 3.5, false);
  EXPECT_EQ(record.query_id, 9u);
  EXPECT_DOUBLE_EQ(record.total_ms, 3.5);
  EXPECT_FALSE(record.deadline_expired);
  ASSERT_EQ(record.spans.size(), 2u);
  // Allocation order is preserved; parents link the nesting.
  EXPECT_STREQ(record.spans[0].name, "outer");
  EXPECT_EQ(record.spans[0].parent, -1);
  EXPECT_STREQ(record.spans[1].name, "inner");
  EXPECT_EQ(record.spans[1].parent, outer);
  // Timed spans are well-formed and the inner span nests in the outer.
  EXPECT_LE(record.spans[0].start_ms, record.spans[1].start_ms);
  EXPECT_LE(record.spans[1].start_ms, record.spans[1].end_ms);
  EXPECT_LE(record.spans[1].end_ms, record.spans[0].end_ms);
  ASSERT_EQ(record.counters.size(), 1u);
  EXPECT_STREQ(record.counters[0].name, "work");
  EXPECT_EQ(record.counters[0].value, 17u);
}

TEST(TraceTest, SpanOverflowDropsExtraSpans) {
  QueryTrace trace(2);
  EXPECT_EQ(trace.BeginSpan("a"), 0);
  EXPECT_EQ(trace.BeginSpan("b"), 1);
  EXPECT_EQ(trace.BeginSpan("c"), -1);  // full — dropped, not resized
  trace.EndSpan(-1);  // must be tolerated
  const TraceRecord record = trace.Finish(1, 0.1, true);
  EXPECT_TRUE(record.deadline_expired);
  EXPECT_EQ(record.spans.size(), 2u);
}

TEST(TraceTest, SamplerCadence) {
  TraceSampler off(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(off.ShouldSample());
  }
  TraceSampler all(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(all.ShouldSample());
  }
  TraceSampler third(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    const bool hit = third.ShouldSample();
    EXPECT_EQ(hit, i % 3 == 0);
    sampled += hit ? 1 : 0;
  }
  EXPECT_EQ(sampled, 3);
}

TEST(TraceTest, FormatTraceRendersTimelineAndCounters) {
  QueryTrace trace;
  const int outer = trace.BeginSpan("outer");
  const int inner = trace.BeginSpan("inner", outer);
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  trace.AddCounter("nodes_visited", 12);
  const std::string text = FormatTrace(trace.Finish(3, 1.25, false));
  EXPECT_NE(text.find("query 3: 1.250 ms"), std::string::npos);
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("inner"), std::string::npos);
  EXPECT_NE(text.find("counters: nodes_visited=12"), std::string::npos);
}

// ------------------------------------------------------ slow-query log

TEST(SlowQueryLogTest, RingEvictsOldestFirst) {
  SlowQueryLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    TraceRecord record;
    record.query_id = id;
    log.Push(std::move(record));
  }
  EXPECT_EQ(log.Size(), 3u);
  EXPECT_EQ(log.TotalPushed(), 5u);
  EXPECT_EQ(log.TotalEvicted(), 2u);
  const std::vector<TraceRecord> dump = log.Dump();
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump[0].query_id, 3u);  // oldest retained first
  EXPECT_EQ(dump[1].query_id, 4u);
  EXPECT_EQ(dump[2].query_id, 5u);

  log.Clear();
  EXPECT_EQ(log.Size(), 0u);
  EXPECT_EQ(log.TotalPushed(), 5u);  // lifetime totals survive a Clear
}

// ------------------------------------------- end-to-end service traces

// A 4-shard generation under live ingest: base rows in the shard trees,
// inserts in the last shard's buffer, a couple of tombstoned rows that
// the scans mask.
struct TracedServiceFixture {
  ThreadPool pool;
  Dataset base;
  Dataset inserts;
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::shared_ptr<const shard::ShardedIndex> sharded;

  explicit TracedServiceFixture(std::uint64_t seed)
      : pool(4),
        base(Walk(600, 64, seed)),
        inserts(Walk(48, 64, seed + 1)) {
    sfa::SfaConfig sfa_config;
    sfa_config.word_length = 16;
    sfa_config.alphabet = 256;
    sfa_config.sampling_ratio = 0.2;
    scheme = sfa::TrainSfa(base, sfa_config, &pool);
    shard::ShardingConfig config;
    config.num_shards = 4;
    config.index.leaf_capacity = 100;
    sharded = shard::ShardedIndex::Build(base, config, scheme, &pool);
  }

  void FeedIngest(ingest::Compactor* compactor) const {
    for (std::size_t i = 0; i < inserts.size(); ++i) {
      ASSERT_EQ(compactor->Insert(inserts.row(i), inserts.length()),
                StatusCode::kOk);
    }
    ASSERT_EQ(compactor->Delete(3), StatusCode::kOk);
    ASSERT_EQ(compactor->Delete(10), StatusCode::kOk);
  }

  service::SearchRequest MakeRequest(std::size_t k) const {
    service::SearchRequest request;
    request.query.assign(base.row(0), base.row(0) + base.length());
    request.k = k;
    return request;
  }
};

// One traced query against a 4-shard ingesting generation covers the
// whole pipeline: the admission wait, then one search span (over all
// shard trees at once) with the insert-buffer scan nested inside it, and
// the sequential stage durations sum to no more than the total latency.
TEST(ServiceTraceTest, ShardedIngestingQueryTraceCoversPipeline) {
  TracedServiceFixture fx(211);
  service::ServiceConfig config;
  config.trace.sample_every = 1;
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool,
                             config);
  ingest::IngestConfig ingest_config;
  ingest_config.auto_compact = false;  // keep inserts in the buffer
  ingest::Compactor compactor(&svc, fx.sharded, ingest_config);
  fx.FeedIngest(&compactor);

  service::SearchRequest request = fx.MakeRequest(5);
  request.collect_trace = true;
  service::SearchResponse response = svc.Search(std::move(request));
  ASSERT_EQ(response.status, service::RequestStatus::kOk);
  ASSERT_NE(response.trace, nullptr);
  const TraceRecord& trace = *response.trace;
  EXPECT_GT(trace.total_ms, 0.0);
  EXPECT_FALSE(trace.deadline_expired);

  int admission = -1, search = -1;
  std::size_t searches = 0, buffer_scans = 0;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpan& span = trace.spans[i];
    if (std::strcmp(span.name, "admission") == 0) {
      admission = static_cast<int>(i);
    } else if (std::strcmp(span.name, "search") == 0) {
      search = static_cast<int>(i);
      ++searches;
    } else if (std::strcmp(span.name, "buffer_scan") == 0) {
      ++buffer_scans;
    }
  }
  ASSERT_GE(admission, 0);
  ASSERT_GE(search, 0);
  EXPECT_EQ(searches, 1u);      // one search over all four shards
  EXPECT_EQ(buffer_scans, 1u);  // the live insert buffer was scanned

  // The buffer scan is a child of the search span and lies inside it.
  const TraceSpan& search_span = trace.spans[static_cast<std::size_t>(search)];
  for (const TraceSpan& span : trace.spans) {
    if (std::strcmp(span.name, "buffer_scan") != 0) {
      continue;
    }
    EXPECT_EQ(span.parent, search);
    EXPECT_GE(span.start_ms, search_span.start_ms);
    EXPECT_LE(span.end_ms, search_span.end_ms);
    EXPECT_LE(span.start_ms, span.end_ms);
  }

  // The sequential top-level stages are disjoint, so their durations sum
  // to at most the end-to-end latency.
  const auto duration = [&](int index) {
    const TraceSpan& span = trace.spans[static_cast<std::size_t>(index)];
    return span.end_ms - span.start_ms;
  };
  EXPECT_LE(duration(admission) + duration(search), trace.total_ms + 1e-6);

  // The trace carries the full work-counter profile.
  ASSERT_EQ(trace.counters.size(), 10u);
  bool saw_ed = false, saw_filtered = false, saw_rowq = false;
  for (const TraceCounterSample& counter : trace.counters) {
    saw_ed = saw_ed || std::strcmp(counter.name, "series_ed_computed") == 0;
    saw_filtered =
        saw_filtered || std::strcmp(counter.name, "candidates_filtered") == 0;
    saw_rowq = saw_rowq || std::strcmp(counter.name, "rowq_checked") == 0;
  }
  EXPECT_TRUE(saw_ed);
  EXPECT_TRUE(saw_filtered);
  EXPECT_TRUE(saw_rowq);

  // The registry side saw the trace too: the trace counter ticked and
  // the per-stage histograms absorbed the span durations.
  const std::vector<InstrumentSnapshot> snapshot = svc.registry()->Collect();
  const InstrumentSnapshot* traces = Find(snapshot, "sofa_query_traces_total");
  ASSERT_NE(traces, nullptr);
  EXPECT_GE(traces->counter, 1u);
  const InstrumentSnapshot* stage =
      Find(snapshot, "sofa_query_stage_ms", "stage", "search");
  ASSERT_NE(stage, nullptr);
  EXPECT_GE(stage->count, 1u);
  const InstrumentSnapshot* buffer_stage =
      Find(snapshot, "sofa_query_stage_ms", "stage", "buffer_scan");
  ASSERT_NE(buffer_stage, nullptr);
  EXPECT_GE(buffer_stage->count, 1u);
}

// slow_query_ms > 0 arms trace-everything mode: every completed query is
// measured and (with a sub-microsecond threshold) lands in the ring,
// which evicts oldest-first once capacity is reached.
TEST(ServiceTraceTest, SlowQueryLogCapturesQueriesOverThreshold) {
  TracedServiceFixture fx(223);
  service::ServiceConfig config;
  config.trace.slow_query_ms = 1e-6;  // everything counts as slow
  config.trace.slow_log_capacity = 4;
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool,
                             config);

  constexpr std::size_t kQueries = 6;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const service::SearchResponse response = svc.Search(fx.MakeRequest(3));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_EQ(response.trace, nullptr);  // collect_trace was not requested
  }
  svc.Drain();

  const SlowQueryLog& log = svc.slow_query_log();
  EXPECT_EQ(log.TotalPushed(), kQueries);
  EXPECT_EQ(log.Size(), 4u);
  EXPECT_EQ(log.TotalEvicted(), kQueries - 4);
  const std::vector<TraceRecord> dump = log.Dump();
  ASSERT_EQ(dump.size(), 4u);
  for (std::size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LT(dump[i - 1].query_id, dump[i].query_id);  // oldest first
  }
  // Slow records carry the full span timeline for the shutdown dump.
  EXPECT_FALSE(dump[0].spans.empty());
  const std::vector<InstrumentSnapshot> snapshot = svc.registry()->Collect();
  const InstrumentSnapshot* slow = Find(snapshot, "sofa_slow_queries_total");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->counter, kQueries);
}

// Every-Nth sampling traces exactly the expected share of sequential
// submissions; with tracing fully off no trace state is created at all.
TEST(ServiceTraceTest, SamplingCadenceAndDisabledPath) {
  TracedServiceFixture fx(227);
  {
    service::ServiceConfig config;
    config.trace.sample_every = 3;
    service::SearchService svc(service::WrapShardedIndex(fx.sharded),
                               &fx.pool, config);
    for (std::size_t q = 0; q < 9; ++q) {
      ASSERT_EQ(svc.Search(fx.MakeRequest(3)).status,
                service::RequestStatus::kOk);
    }
    const std::vector<InstrumentSnapshot> snapshot =
        svc.registry()->Collect();
    const InstrumentSnapshot* traces =
        Find(snapshot, "sofa_query_traces_total");
    ASSERT_NE(traces, nullptr);
    EXPECT_EQ(traces->counter, 3u);  // submissions 0, 3 and 6
  }
  {
    service::SearchService svc(service::WrapShardedIndex(fx.sharded),
                               &fx.pool);  // defaults: tracing off
    const service::SearchResponse response = svc.Search(fx.MakeRequest(3));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_EQ(response.trace, nullptr);
    EXPECT_EQ(svc.slow_query_log().TotalPushed(), 0u);
    const std::vector<InstrumentSnapshot> snapshot =
        svc.registry()->Collect();
    const InstrumentSnapshot* traces =
        Find(snapshot, "sofa_query_traces_total");
    ASSERT_NE(traces, nullptr);
    EXPECT_EQ(traces->counter, 0u);
  }
}

// A shared registry co-exposes service and ingest instruments from one
// Collect() — the single-endpoint contract of ISSUE 6.
TEST(ServiceTraceTest, SharedRegistryCoversServiceAndIngest) {
  TracedServiceFixture fx(229);
  Registry registry;
  service::ServiceConfig config;
  config.registry = &registry;
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool,
                             config);
  ingest::IngestConfig ingest_config;
  ingest_config.auto_compact = false;
  ingest_config.registry = &registry;
  ingest::Compactor compactor(&svc, fx.sharded, ingest_config);
  fx.FeedIngest(&compactor);
  ASSERT_EQ(svc.Search(fx.MakeRequest(3)).status,
            service::RequestStatus::kOk);

  const std::vector<InstrumentSnapshot> snapshot = registry.Collect();
  const InstrumentSnapshot* completed =
      Find(snapshot, "sofa_service_requests_total", "status", "completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_GE(completed->counter, 1u);
  const InstrumentSnapshot* inserted =
      Find(snapshot, "sofa_ingest_inserted_total");
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(inserted->counter, fx.inserts.size());
  const InstrumentSnapshot* tombstones =
      Find(snapshot, "sofa_ingest_tombstones");
  ASSERT_NE(tombstones, nullptr);
  EXPECT_DOUBLE_EQ(tombstones->gauge, 2.0);
  // The whole document renders as parseable stats JSON — what `sofa_cli
  // serve --stats-file` writes and `sofa_cli stats` reads back.
  std::vector<InstrumentSnapshot> parsed;
  std::string error;
  ASSERT_TRUE(ParseStatsJson(RenderJson(snapshot), &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), snapshot.size());
}

// ---------------------------------------------------------- trace serde

// Exact equality of two records, perf samples included (names compared
// by content — the decoded side's pointers are interned copies).
void ExpectRecordsEqual(const TraceRecord& actual,
                        const TraceRecord& expected) {
  EXPECT_EQ(actual.query_id, expected.query_id);
  EXPECT_EQ(actual.total_ms, expected.total_ms);
  EXPECT_EQ(actual.deadline_expired, expected.deadline_expired);
  ASSERT_EQ(actual.spans.size(), expected.spans.size());
  for (std::size_t i = 0; i < expected.spans.size(); ++i) {
    const TraceSpan& a = actual.spans[i];
    const TraceSpan& e = expected.spans[i];
    EXPECT_STREQ(a.name, e.name);
    EXPECT_EQ(a.parent, e.parent);
    EXPECT_EQ(a.start_ms, e.start_ms);
    EXPECT_EQ(a.end_ms, e.end_ms);
    EXPECT_EQ(a.perf.cycles, e.perf.cycles);
    EXPECT_EQ(a.perf.instructions, e.perf.instructions);
    EXPECT_EQ(a.perf.llc_misses, e.perf.llc_misses);
    EXPECT_EQ(a.perf.stalled_cycles, e.perf.stalled_cycles);
    EXPECT_EQ(a.perf.hardware, e.perf.hardware);
  }
  ASSERT_EQ(actual.counters.size(), expected.counters.size());
  for (std::size_t i = 0; i < expected.counters.size(); ++i) {
    EXPECT_STREQ(actual.counters[i].name, expected.counters[i].name);
    EXPECT_EQ(actual.counters[i].value, expected.counters[i].value);
  }
}

TraceRecord MakeSampleRecord() {
  TraceRecord record;
  record.query_id = 0xDEADBEEFCAFEull;
  record.total_ms = 12.34375;  // exactly representable
  record.deadline_expired = true;
  TraceSpan root;
  root.name = "admission";
  root.parent = -1;
  root.start_ms = 0.0;
  root.end_ms = 1.5;
  TraceSpan child;
  child.name = "shard_scan";
  child.parent = 0;
  child.start_ms = 0.25;
  child.end_ms = 1.25;
  child.perf.cycles = 123456789;
  child.perf.instructions = 987654321;
  child.perf.llc_misses = 4242;
  child.perf.stalled_cycles = 1111;
  child.perf.hardware = true;
  TraceSpan fallback;
  fallback.name = "buffer_scan";
  fallback.parent = 0;
  fallback.start_ms = 1.25;
  fallback.end_ms = 1.5;
  fallback.perf.cycles = 5555;  // tsc fallback: cycles only
  fallback.perf.hardware = false;
  record.spans = {root, child, fallback};
  record.counters = {{"series_ed_computed", 321}, {"rowq_pruned", 77}};
  return record;
}

TEST(TraceSerdeTest, RoundTripPreservesEverySpanAndCounter) {
  const TraceRecord record = MakeSampleRecord();
  const std::string blob = SerializeTraceRecord(record);
  ASSERT_FALSE(blob.empty());
  TraceRecord decoded;
  ASSERT_TRUE(DeserializeTraceRecord(blob, &decoded));
  ExpectRecordsEqual(decoded, record);

  // Decoding is deterministic and names intern to stable pointers: a
  // second decode yields pointer-identical names.
  TraceRecord again;
  ASSERT_TRUE(DeserializeTraceRecord(blob, &again));
  for (std::size_t i = 0; i < decoded.spans.size(); ++i) {
    EXPECT_EQ(decoded.spans[i].name, again.spans[i].name);  // same pointer
  }

  // An empty record survives too (a trace with no spans is legal).
  const TraceRecord empty;
  TraceRecord empty_decoded;
  ASSERT_TRUE(
      DeserializeTraceRecord(SerializeTraceRecord(empty), &empty_decoded));
  ExpectRecordsEqual(empty_decoded, empty);
}

TEST(TraceSerdeTest, RejectsUnknownVersionsAndMalformedBlobs) {
  const std::string blob = SerializeTraceRecord(MakeSampleRecord());

  // A future format version is "no trace", not a crash: false, with the
  // output untouched.
  std::string future = blob;
  future[0] = static_cast<char>(kTraceEncodingVersion + 1);
  TraceRecord out;
  out.query_id = 42;
  EXPECT_FALSE(DeserializeTraceRecord(future, &out));
  EXPECT_EQ(out.query_id, 42u);

  // Every truncated prefix fails cleanly.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    TraceRecord ignored;
    EXPECT_FALSE(DeserializeTraceRecord(blob.substr(0, cut), &ignored))
        << "decoded from a " << cut << "-byte prefix";
  }
  // Trailing garbage is refused (AtEnd rule, as in net/protocol).
  TraceRecord ignored;
  EXPECT_FALSE(DeserializeTraceRecord(blob + std::string(1, '\0'), &ignored));

  // A forward parent reference (child before parent) is structurally
  // invalid and must be refused, not trusted.
  TraceRecord bad = MakeSampleRecord();
  bad.spans[0].parent = 2;  // points at a later span
  EXPECT_FALSE(DeserializeTraceRecord(SerializeTraceRecord(bad), &ignored));
}

TEST(TraceSerdeTest, InternedNamesAreStablePointers) {
  const char* a = InternTraceName("some_stage_name");
  const char* b = InternTraceName(std::string("some_stage_") + "name");
  EXPECT_EQ(a, b);  // same content → same pointer, across calls
  EXPECT_STREQ(a, "some_stage_name");
  const char* c = InternTraceName("another_stage");
  EXPECT_NE(a, c);
  EXPECT_STREQ(c, "another_stage");
}

// -------------------------------------------------------- perf counters

TEST(PerfCountersTest, ForcedFallbackNeverFailsAndSaysSo) {
  // The ISSUE acceptance criterion: where perf_event_open is denied
  // (containers, CI), attribution degrades to the timestamp-counter
  // fallback — a working sample with hardware=false, never an error.
  PerfCounters::ForceFallback(true);
  {
    PerfCounters counters;
    EXPECT_FALSE(counters.hardware());
    EXPECT_STREQ(counters.backend(), "tsc");
    counters.Start();
    // Burn a little time so the tick delta is visible.
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
      sink += static_cast<double>(i) * 0.5;
    }
    const PerfSample sample = counters.Stop();
    EXPECT_FALSE(sample.hardware);
    EXPECT_GT(sample.cycles, 0u);        // ticks elapsed
    EXPECT_EQ(sample.instructions, 0u);  // fallback counts cycles only
    EXPECT_EQ(sample.llc_misses, 0u);
    EXPECT_EQ(sample.stalled_cycles, 0u);
  }
  PerfCounters::ForceFallback(false);
}

TEST(PerfCountersTest, StartStopAlwaysYieldsAMonotoneSample) {
  // Whatever the environment grants — real PMU counters or the fallback
  // — Start/Stop must produce a usable sample without ever failing.
  PerfCounters counters;
  counters.Start();
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 200000; ++i) {
    sink += static_cast<std::uint64_t>(i) * 3u;
  }
  const PerfSample sample = counters.Stop();
  EXPECT_EQ(sample.hardware, counters.hardware());
  if (sample.hardware) {
    EXPECT_STREQ(counters.backend(), "perf_event");
    // ~200k loop iterations execute well over 100k instructions.
    EXPECT_GT(sample.instructions, 100000u);
    EXPECT_GT(sample.cycles, 0u);
  } else {
    EXPECT_STREQ(counters.backend(), "tsc");
    EXPECT_GT(sample.cycles, 0u);
  }
  // Restarting reuses the same fds/fallback cleanly.
  counters.Start();
  const PerfSample second = counters.Stop();
  EXPECT_EQ(second.hardware, sample.hardware);
}

// A traced query's search span carries perf attribution, and the
// per-stage hardware histograms in the registry absorb it.
TEST(ServiceTraceTest, SearchSpanCarriesPerfAttribution) {
  TracedServiceFixture fx(233);
  service::ServiceConfig config;
  config.trace.sample_every = 1;
  service::SearchService svc(service::WrapShardedIndex(fx.sharded), &fx.pool,
                             config);
  service::SearchRequest request = fx.MakeRequest(5);
  request.collect_trace = true;
  const service::SearchResponse response = svc.Search(std::move(request));
  ASSERT_EQ(response.status, service::RequestStatus::kOk);
  ASSERT_NE(response.trace, nullptr);

  std::size_t sampled = 0;
  for (const TraceSpan& span : response.trace->spans) {
    if (std::strcmp(span.name, "search") != 0) {
      continue;
    }
    // Both backends count something for a real search; only the
    // perf_event backend reports instructions.
    EXPECT_GT(span.perf.cycles, 0u);
    if (!span.perf.hardware) {
      EXPECT_EQ(span.perf.instructions, 0u);
    }
    ++sampled;
  }
  EXPECT_EQ(sampled, 1u);  // one search over all shards

  const std::vector<InstrumentSnapshot> snapshot = svc.registry()->Collect();
  const InstrumentSnapshot* cycles =
      Find(snapshot, "sofa_query_stage_cycles", "stage", "search");
  ASSERT_NE(cycles, nullptr);
  EXPECT_GE(cycles->count, 1u);
  EXPECT_GT(cycles->sum, 0.0);
  // The instruction/cache/stall histograms exist; they fill only when
  // the hardware backend is live (fallback zeros must stay out of the
  // percentiles).
  const InstrumentSnapshot* instructions =
      Find(snapshot, "sofa_query_stage_instructions", "stage", "search");
  ASSERT_NE(instructions, nullptr);
  if (PerfCounters().hardware()) {
    EXPECT_GE(instructions->count, 1u);
  } else {
    EXPECT_EQ(instructions->count, 0u);
  }
}

// Forced-fallback end to end: a traced query in a perf-denied
// environment still gets spans, cycles ticks, and a response — proof the
// degradation path is a skip, not a failure.
TEST(ServiceTraceTest, PerfFallbackDegradesGracefullyEndToEnd) {
  PerfCounters::ForceFallback(true);
  {
    // Fresh pool: ForceFallback only affects counters constructed after
    // it, and worker threads lazily construct theirs on first use.
    ThreadPool pool(2);
    TracedServiceFixture fx(239);
    service::ServiceConfig config;
    config.trace.sample_every = 1;
    service::SearchService svc(service::WrapShardedIndex(fx.sharded), &pool,
                               config);
    service::SearchRequest request = fx.MakeRequest(3);
    request.collect_trace = true;
    const service::SearchResponse response = svc.Search(std::move(request));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    ASSERT_NE(response.trace, nullptr);
    std::size_t searches = 0;
    for (const TraceSpan& span : response.trace->spans) {
      if (std::strcmp(span.name, "search") != 0) {
        continue;
      }
      ++searches;
      EXPECT_FALSE(span.perf.hardware);
      EXPECT_GT(span.perf.cycles, 0u);  // fallback ticks, not zero
      EXPECT_EQ(span.perf.instructions, 0u);
    }
    EXPECT_EQ(searches, 1u);
    // Cycles histogram fills from the fallback too; the hardware-only
    // histograms stay empty.
    const std::vector<InstrumentSnapshot> snapshot =
        svc.registry()->Collect();
    const InstrumentSnapshot* cycles =
        Find(snapshot, "sofa_query_stage_cycles", "stage", "search");
    ASSERT_NE(cycles, nullptr);
    EXPECT_GE(cycles->count, 1u);
    const InstrumentSnapshot* llc =
        Find(snapshot, "sofa_query_stage_llc_misses", "stage", "search");
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->count, 0u);
  }
  PerfCounters::ForceFallback(false);
}

}  // namespace
}  // namespace obs
}  // namespace sofa
