// Ingest-vs-query throughput: what live mutation costs the serving
// layer, swept over the compaction threshold, the delete ratio, and the
// WAL fsync interval.
//
// One SearchService serves a sharded RW collection while a Compactor
// streams --n_insert fresh rows through the incremental ingest path
// (insert buffer → per-shard rebuild → republish), deleting a random
// already-live row after a --delete_ratio fraction of inserts
// (tombstone → masked from answers → physically removed at that shard's
// next compaction). Query clients hammer the service for the whole run.
// Per configuration the table reports the mutation rates, the query QPS
// and tail latency sustained *during* ingest, and the compaction count —
// against a query-only baseline row (no ingest attached) at the same
// thread count.
//
// With --wal-dir set, every run also sweeps --fsyncs: each accepted
// mutation is appended to a write-ahead log in a per-run subdirectory,
// fsynced every N records (1 = per record — the durability-latency
// worst case; 0 = only at rotation/close — the throughput best case).
// The delta against the "-" (no WAL) rows is the price of durability.
//
// Expected shape: small thresholds compact often (more rebuild work,
// query time lost to republish churn, but a tiny flat-scanned delta
// set); large thresholds amortize rebuilds but leave queries scanning a
// larger buffer. Deletes grow the tombstone set between compactions,
// which every tree and buffer scan masks inline. Every answer is exact
// at every setting — the knobs trade throughput against itself, never
// against correctness.
//
// With --persist-dir additionally set (WAL runs only), every compaction
// also persists the published generation to a GenerationStore and
// truncates the WAL to the tail — the fully durable deployment. The
// delta against the WAL-only rows is the price of crash-consistent
// persistence (slice writing is O(changed shard) via hardlink reuse).
//
// Flags: --n_series=40000 --n_insert=8000 --n_queries=200 --length=256
//        --k=10 --threads=4 --shards=2 --leaf_size=1000
//        --thresholds=500,2000,8000 --clients=2 --seed=7
//        --delete_ratio=0.1 --wal-dir= --fsyncs=1,64,0 --persist-dir=
//        --stats-json=FILE
//
// The run ends with a JSON dump of the shared metrics registry (service,
// ingest, WAL and persist instruments aggregated over the whole sweep);
// --stats-json also writes it to a file for machine consumption.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/dataset.h"
#include "core/znorm.h"
#include "ingest/compactor.h"
#include "ingest/wal.h"
#include "obs/exposition.h"
#include "obs/registry.h"
#include "persist/generation_store.h"
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
// written to a file (what the bench-smoke CI step validates and the
// perf-baseline harness diffs; the metadata block identifies the run).
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

struct RunResult {
  double insert_per_sec = 0.0;  // 0 on the query-only baseline
  double delete_per_sec = 0.0;
  std::uint64_t inserts = 0;  // rows actually accepted
  std::uint64_t deletes = 0;
  std::uint64_t dropped = 0;  // mutations lost to kIoError/kInvalid
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t compactions = 0;
  std::uint64_t answered = 0;
};

// Serves query traffic from `clients` threads until `stop`; when
// `compactor` is given, a mutator thread concurrently streams every row
// of `inserts` through it (retrying on admission backpressure),
// interleaving one delete of a random already-live id per 1/delete_ratio
// inserts.
RunResult Run(service::SearchService* svc, ingest::Compactor* compactor,
              const Dataset& queries, const Dataset* inserts,
              std::size_t base_rows, double delete_ratio, std::size_t k,
              std::size_t clients, std::uint64_t seed) {
  RunResult result;
  std::atomic<bool> stop(false);
  std::atomic<std::uint64_t> answered(0);
  std::vector<std::thread> client_threads;
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      std::size_t q = c;
      while (!stop.load(std::memory_order_relaxed)) {
        service::SearchRequest request;
        const float* row = queries.row(q % queries.size());
        request.query.assign(row, row + queries.length());
        request.k = k;
        if (svc->Search(std::move(request)).status ==
            service::RequestStatus::kOk) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        q += clients;
      }
    });
  }

  WallTimer timer;
  if (compactor != nullptr) {
    Rng rng(seed);
    std::uint64_t inserts_done = 0;
    std::uint64_t deletes_done = 0;
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < inserts->size(); ++i) {
      StatusCode status;
      while ((status = compactor->Insert(inserts->row(i),
                                         inserts->length())
                           .code()) == StatusCode::kRejected) {
        std::this_thread::yield();
      }
      if (status == StatusCode::kOk) {
        ++inserts_done;
      } else {
        ++dropped;  // kIoError/kInvalidArgument: count it, keep it honest
      }
      const std::uint64_t deletes_due = static_cast<std::uint64_t>(
          static_cast<double>(i + 1) * delete_ratio);
      std::size_t attempts = 0;
      while (deletes_done < deletes_due && attempts++ < 64) {
        // A random already-live id; skip the (rare) ids already deleted
        // or never allocated (dropped inserts shrink the id space).
        const std::uint32_t victim =
            static_cast<std::uint32_t>(rng.Below(base_rows + i + 1));
        const Status status_d = compactor->Delete(victim);
        if (status_d == StatusCode::kOk) {
          ++deletes_done;
        } else if (status_d != StatusCode::kAlreadyDeleted &&
                   status_d != StatusCode::kNotFound) {
          ++dropped;  // shutdown / I/O failure: stop this round
          break;
        }
      }
    }
    compactor->Flush();
    const double seconds = timer.Seconds();
    // Rates over mutations that actually happened — a failing WAL disk
    // must show up as a collapsed rate, not a fictional one.
    result.insert_per_sec = static_cast<double>(inserts_done) / seconds;
    result.delete_per_sec = static_cast<double>(deletes_done) / seconds;
    result.inserts = inserts_done;
    result.deletes = deletes_done;
    result.dropped = dropped;
  } else {
    // Query-only baseline: match a typical ingest-run duration.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
  const double seconds = timer.Seconds();
  stop.store(true);
  for (std::thread& t : client_threads) {
    t.join();
  }
  const service::MetricsSnapshot metrics = svc->Metrics();
  result.answered = answered.load();
  result.qps = static_cast<double>(result.answered) / seconds;
  result.p50_ms = metrics.latency_p50_ms;
  result.p99_ms = metrics.latency_p99_ms;
  if (compactor != nullptr) {
    result.compactions = compactor->Metrics().compactions;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::size_t n_series =
      static_cast<std::size_t>(flags.GetInt("n_series", 40000));
  const std::size_t n_insert =
      static_cast<std::size_t>(flags.GetInt("n_insert", 8000));
  const std::size_t n_queries =
      static_cast<std::size_t>(flags.GetInt("n_queries", 200));
  const std::size_t length =
      static_cast<std::size_t>(flags.GetInt("length", 256));
  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 10));
  const std::size_t threads =
      static_cast<std::size_t>(flags.GetInt("threads", 4));
  const std::size_t shards =
      static_cast<std::size_t>(flags.GetInt("shards", 2));
  const std::size_t leaf_size =
      static_cast<std::size_t>(flags.GetInt("leaf_size", 1000));
  const std::size_t clients =
      static_cast<std::size_t>(flags.GetInt("clients", 2));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 7));
  const std::vector<std::size_t> thresholds =
      ParseSizeList(flags, "thresholds", {500, 2000, 8000});
  const double delete_ratio = flags.GetDouble("delete_ratio", 0.1);
  const std::string wal_dir = flags.GetString("wal-dir", "");
  // fsync intervals swept when --wal-dir is set; "off" (no WAL) always
  // runs as the baseline mutation row.
  const std::vector<std::size_t> fsyncs =
      ParseSizeList(flags, "fsyncs", {1, 64, 0});

  std::printf("ingest_throughput — RW collection, %zu series x %zu + %zu "
              "inserts (delete ratio %.2f), %zu shards, k=%zu, T=%zu, "
              "%zu query clients%s\n\n",
              n_series, length, n_insert, delete_ratio, shards, k, threads,
              clients,
              wal_dir.empty() ? "" : ", WAL fsync sweep");

  const Dataset base = RandomWalk(n_series, length, seed);
  const Dataset inserts = RandomWalk(n_insert, length, seed + 1);
  const Dataset queries = RandomWalk(n_queries, length, seed + 2);
  ThreadPool pool(threads);
  // One registry across every configuration: service + ingest + WAL +
  // persist instruments aggregate over the whole sweep.
  obs::Registry registry;

  sfa::SfaConfig sfa_config;
  sfa_config.word_length = 16;
  sfa_config.alphabet = 256;
  const std::shared_ptr<const quant::SummaryScheme> scheme =
      sfa::TrainSfa(base, sfa_config, &pool);
  shard::ShardingConfig shard_config;
  shard_config.num_shards = shards;
  shard_config.index.leaf_capacity = leaf_size;
  WallTimer build_timer;
  const auto sharded =
      shard::ShardedIndex::Build(base, shard_config, scheme, &pool);
  std::printf("base sharded index built in %.2f s\n\n",
              build_timer.Seconds());

  TablePrinter table({"Threshold", "WAL fsync", "Persist", "Inserts/s",
                      "Deletes/s", "QPS", "p50 (ms)", "p99 (ms)",
                      "Compactions", "Id space"});

  {
    service::ServiceConfig service_config;
    service_config.registry = &registry;
    service::SearchService svc(service::WrapShardedIndex(sharded), &pool,
                               service_config);
    const RunResult r = Run(&svc, nullptr, queries, nullptr, n_series, 0.0,
                            k, clients, seed + 3);
    table.AddRow({"query-only", "-", "-", "-", "-", FormatDouble(r.qps, 1),
                  FormatDouble(r.p50_ms, 3), FormatDouble(r.p99_ms, 3), "-",
                  std::to_string(n_series)});
  }

  // Per threshold: a no-WAL mutation row, plus one row per fsync
  // interval when --wal-dir is given. Each configuration logs into its
  // own subdirectory, cleared first — the bench never recovers, and
  // stale segments from earlier runs would otherwise pile up
  // indefinitely (a WAL-only run never truncates).
  const std::string persist_dir = flags.GetString("persist-dir", "");
  for (const std::size_t threshold : thresholds) {
    // Variants: no-WAL baseline, then per fsync interval a WAL-only run
    // and (with --persist-dir) a WAL+generation-store run.
    struct Variant {
      std::string fsync_label;
      int sync;
      bool persist;
    };
    std::vector<Variant> variants = {{"-", -1, false}};
    if (!wal_dir.empty()) {
      for (const std::size_t sync : fsyncs) {
        variants.push_back({std::to_string(sync), static_cast<int>(sync),
                            false});
        if (!persist_dir.empty()) {
          variants.push_back({std::to_string(sync), static_cast<int>(sync),
                              true});
        }
      }
    }
    for (const auto& [label, sync, persist] : variants) {
      service::ServiceConfig service_config;
      service_config.registry = &registry;
      service::SearchService svc(service::WrapShardedIndex(sharded), &pool,
                                 service_config);
      ingest::IngestConfig ingest_config;
      ingest_config.compact_threshold = threshold;
      ingest_config.registry = &registry;
      const std::string run_tag =
          "/t" + std::to_string(threshold) + "_s" + label +
          (persist ? "_p" : "");
      if (sync >= 0) {
        ingest_config.wal_dir = wal_dir + run_tag;
        for (const std::string& segment :
             ingest::WriteAheadLog::ListSegments(ingest_config.wal_dir)) {
          std::remove(segment.c_str());
        }
        ingest_config.wal.sync_every = static_cast<std::size_t>(sync);
      }
      std::unique_ptr<persist::GenerationStore> store;
      if (persist) {
        store = persist::GenerationStore::Open(persist_dir + run_tag,
                                               &registry);
        if (store == nullptr) {
          std::fprintf(stderr, "cannot open persist dir %s%s\n",
                       persist_dir.c_str(), run_tag.c_str());
          return 1;
        }
        // The bench never recovers: clear generations left by earlier
        // runs so they cannot pile up.
        store->RemoveGenerationsBelow(
            std::numeric_limits<std::uint64_t>::max());
        ingest_config.store = store.get();
      }
      ingest::Compactor compactor(&svc, sharded, ingest_config);
      const RunResult r = Run(&svc, &compactor, queries, &inserts, n_series,
                              delete_ratio, k, clients, seed + 4);
      if (r.dropped > 0) {
        std::fprintf(stderr,
                     "WARNING: threshold=%zu fsync=%s dropped %llu "
                     "mutations (WAL I/O errors?) — rates cover only what "
                     "was accepted\n",
                     threshold, label.c_str(),
                     static_cast<unsigned long long>(r.dropped));
      }
      const ingest::IngestMetrics metrics = compactor.Metrics();
      table.AddRow({std::to_string(threshold), label,
                    persist ? std::to_string(metrics.persisted) : "-",
                    FormatDouble(r.insert_per_sec, 1),
                    FormatDouble(r.delete_per_sec, 1),
                    FormatDouble(r.qps, 1), FormatDouble(r.p50_ms, 3),
                    FormatDouble(r.p99_ms, 3), std::to_string(r.compactions),
                    std::to_string(metrics.total_rows)});
    }
  }

  table.Print(std::cout);
  std::printf("\nall rows exact at every setting: compaction trades rebuild "
              "churn against buffer-scan width, deletes trade tombstone "
              "filtering against rebuild timing, and the WAL trades fsync "
              "latency against the durability window — never "
              "correctness.\n");
  DumpRegistry(&registry, flags,
               bench::BenchMetadataJson(
                   "ingest_throughput",
                   {{"n_series", std::to_string(n_series)},
                    {"n_insert", std::to_string(n_insert)},
                    {"n_queries", std::to_string(n_queries)},
                    {"length", std::to_string(length)},
                    {"k", std::to_string(k)},
                    {"threads", std::to_string(threads)},
                    {"shards", std::to_string(shards)},
                    {"leaf_size", std::to_string(leaf_size)},
                    {"clients", std::to_string(clients)},
                    {"seed", std::to_string(seed)}}));
  return 0;
}
