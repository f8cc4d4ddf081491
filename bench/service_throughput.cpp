// Serving-layer throughput: QPS of the SearchService versus the paper's
// sequential one-query-at-a-time protocol, at matched total thread
// counts, on a synthetic random-walk (RW) collection.
//
// Per thread count T:
//   sequential  — the paper's protocol: one query at a time, each with
//                 T-way intra-query parallelism (QueryEngine::Search over
//                 one tree: the caller plus up to T − 1 pool workers);
//   shardS      — the end-to-end SearchService (admission queue + one
//                 pool task per query, at most T running, joined by
//                 idle workers, + metrics) over a shard::ShardedIndex of
//                 S shards, swept over --shards; shard1 serves one tree,
//                 as every single-index server does.
//
// Expected shape: under cross-query parallelism QPS scales with T while
// per-query sync overhead (queue locks, worker handoffs) is amortized
// away, so the service clears the sequential baseline — the FAISS/FLASH
// batching result. A query over S > 1 shards walks S smaller trees under
// one pruning bound, so it costs a little more than one tree (one root
// fan-out per shard); its payoff is per-shard rebuild/republish and
// collections too large for one index. The final verdict line compares
// the best service QPS against the sequential baseline at the same T.
//
// Flags: --n_series=50000 --n_queries=400 --length=256 --k=10
//        --threads=1,2,4 --shards=1,2,4 --leaf_size=1000 --seed=7
//        --stats-json=FILE
//
// The run ends with a JSON dump of the shared metrics registry (all
// service instances aggregate into it); --stats-json also writes it to a
// file for machine consumption.

#include <algorithm>
#include <cstdio>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dataset.h"
#include "core/znorm.h"
#include "index/query_engine.h"
#include "index/tree_index.h"
#include "obs/exposition.h"
#include "obs/registry.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "sfa/mcb.h"
#include "shard/sharded_index.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace sofa;

// Z-normalized random-walk collection (the "RW" synthetic of the
// iSAX/MESSI literature: energy concentrated in low frequencies).
Dataset RandomWalk(std::size_t count, std::size_t length,
                   std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(length);
  std::vector<float> row(length);
  for (std::size_t i = 0; i < count; ++i) {
    double level = 0.0;
    for (auto& x : row) {
      level += rng.Gaussian();
      x = static_cast<float>(level);
    }
    ZNormalize(row.data(), length);
    ds.Append(row.data());
  }
  return ds;
}

std::vector<std::size_t> ParseSizeList(const Flags& flags,
                                       const std::string& name,
                                       std::vector<std::size_t> fallback) {
  std::vector<std::size_t> values;
  for (const std::string& item : flags.GetList(name)) {
    values.push_back(static_cast<std::size_t>(std::stoull(item)));
  }
  return values.empty() ? fallback : values;
}

// End-of-run registry dump: printed to stdout and, with --stats-json,
// written to a file (what the bench-smoke CI step validates). The
// metadata block identifies the run — git sha, ISA dispatch tier,
// dataset parameters.
void DumpRegistry(obs::Registry* registry, const Flags& flags,
                  const std::string& metadata) {
  const std::string rendered = bench::WithBenchMetadata(
      obs::RenderJson(registry->Collect()), metadata);
  std::printf("\nregistry snapshot (JSON):\n%s", rendered.c_str());
  const std::string path = flags.GetString("stats-json", "");
  if (path.empty()) {
    return;
  }
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr ||
      std::fwrite(rendered.data(), 1, rendered.size(), out) !=
          rendered.size() ||
      std::fclose(out) != 0) {
    std::fprintf(stderr, "failed to write --stats-json %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote registry snapshot to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::size_t n_series =
      static_cast<std::size_t>(flags.GetInt("n_series", 50000));
  const std::size_t n_queries =
      static_cast<std::size_t>(flags.GetInt("n_queries", 400));
  const std::size_t length =
      static_cast<std::size_t>(flags.GetInt("length", 256));
  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 10));
  const std::size_t leaf_size =
      static_cast<std::size_t>(flags.GetInt("leaf_size", 1000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 7));
  const std::vector<std::size_t> thread_counts =
      ParseSizeList(flags, "threads", {1, 2, 4, 8});
  const std::vector<std::size_t> shard_counts =
      ParseSizeList(flags, "shards", {1, 2, 4});

  std::printf("service_throughput — RW collection, %zu series x %zu, "
              "%zu queries, k=%zu (%zu hardware threads)\n\n",
              n_series, length, n_queries, k, HardwareThreads());

  const Dataset data = RandomWalk(n_series, length, seed);
  const Dataset queries = RandomWalk(n_queries, length, seed + 1);

  std::size_t max_threads = 1;
  for (const std::size_t t : thread_counts) {
    max_threads = std::max(max_threads, t);
  }
  ThreadPool pool(max_threads);
  // One registry shared by every service instance in the sweep: the same
  // instrument names resolve to the same counters, so the final snapshot
  // aggregates the whole run.
  obs::Registry registry;

  sfa::SfaConfig sfa_config;
  sfa_config.word_length = 16;
  sfa_config.alphabet = 256;
  const std::shared_ptr<const quant::SummaryScheme> scheme =
      sfa::TrainSfa(data, sfa_config, &pool);
  index::IndexConfig index_config;
  index_config.leaf_capacity = leaf_size;
  WallTimer build_timer;
  const index::TreeIndex tree(&data, scheme.get(), index_config, &pool);
  std::printf("index built in %.2f s\n\n", build_timer.Seconds());

  TablePrinter table({"Threads", "Mode", "QPS", "p50 (ms)", "p99 (ms)",
                      "vs sequential"});
  std::vector<double> seq_qps_at(thread_counts.size(), 0.0);

  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const std::size_t threads = thread_counts[ti];
    // --- sequential baseline: the paper's protocol at T threads.
    const index::QueryEngine engine(&tree);
    std::vector<double> latencies;
    latencies.reserve(n_queries);
    WallTimer timer;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      WallTimer per_query;
      (void)engine.Search(queries.row(q), k, /*epsilon=*/0.0,
                          /*profile=*/nullptr, threads);
      latencies.push_back(per_query.Millis());
    }
    const double seq_seconds = timer.Seconds();
    const double seq_qps = static_cast<double>(n_queries) / seq_seconds;
    seq_qps_at[ti] = seq_qps;
    table.AddRow({std::to_string(threads), "sequential",
                  FormatDouble(seq_qps, 1),
                  FormatDouble(stats::Percentile(latencies, 50.0), 3),
                  FormatDouble(stats::Percentile(latencies, 99.0), 3),
                  "1.00x"});
  }

  // --- the service: one search over all S shard trees per query.
  double best_speedup = 0.0;
  std::size_t best_shards = 0, best_threads = 0;
  for (const std::size_t shards : shard_counts) {
    shard::ShardingConfig shard_config;
    shard_config.num_shards = shards;
    shard_config.index.leaf_capacity = leaf_size;
    WallTimer shard_build_timer;
    const auto sharded =
        shard::ShardedIndex::Build(data, shard_config, scheme, &pool);
    std::printf("sharded index (S=%zu) built in %.2f s\n", shards,
                shard_build_timer.Seconds());
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      const std::size_t threads = thread_counts[ti];
      service::ServiceConfig config;
      config.max_pending = queries.size();
      config.num_threads = threads;
      config.start_paused = true;
      config.registry = &registry;
      service::SearchService svc(service::WrapShardedIndex(sharded), &pool,
                                 config);
      std::vector<std::future<service::SearchResponse>> futures;
      futures.reserve(queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        service::SearchRequest request;
        request.query.assign(queries.row(q), queries.row(q) + length);
        request.k = k;
        futures.push_back(svc.Submit(std::move(request)));
      }
      WallTimer timer;
      svc.Resume();
      for (auto& future : futures) {
        (void)future.get();
      }
      const double qps = static_cast<double>(n_queries) / timer.Seconds();
      const double speedup = qps / seq_qps_at[ti];
      const service::MetricsSnapshot metrics = svc.Metrics();
      table.AddRow({std::to_string(threads), "shard" + std::to_string(shards),
                    FormatDouble(qps, 1),
                    FormatDouble(metrics.latency_p50_ms, 3),
                    FormatDouble(metrics.latency_p99_ms, 3),
                    FormatDouble(speedup, 2) + "x"});
      if (speedup > best_speedup) {
        best_speedup = speedup;
        best_shards = shards;
        best_threads = threads;
      }
    }
  }
  std::printf("\n");

  table.Print(std::cout);
  std::printf("\nbest service speedup vs sequential at matched thread "
              "count: %.2fx (S=%zu, T=%zu) — target >= 2x\n",
              best_speedup, best_shards, best_threads);
  std::size_t max_threads_requested = 0;
  for (const std::size_t t : thread_counts) {
    max_threads_requested = std::max(max_threads_requested, t);
  }
  if (max_threads_requested > HardwareThreads()) {
    std::printf("note: sweep oversubscribes this machine (%zu hardware "
                "threads); cross-query scaling is capacity-bound here and "
                "the measured gap reflects only the per-query "
                "coordination overhead that cross-query execution "
                "removes.\n",
                HardwareThreads());
  }
  DumpRegistry(&registry, flags,
               bench::BenchMetadataJson(
                   "service_throughput",
                   {{"n_series", std::to_string(n_series)},
                    {"n_queries", std::to_string(n_queries)},
                    {"length", std::to_string(length)},
                    {"k", std::to_string(k)},
                    {"leaf_size", std::to_string(leaf_size)},
                    {"seed", std::to_string(seed)},
                    {"max_threads",
                     std::to_string(max_threads_requested)}}));
  return 0;
}
