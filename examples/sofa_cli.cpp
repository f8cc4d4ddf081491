// sofa_cli — the command-line front end of the serving stack.
//
//   sofa_cli generate --dataset=SCEDC --n_series=20000 --out=data.fvecs
//   sofa_cli build    --data=data.fvecs --index=index.sofa [--scheme=sfa|sax]
//                     [--word=16] [--alphabet=256] [--sampling=0.01]
//                     [--leaf_size=2000] [--length=N] [--shards=N]
//                     (N > 1 partitions the collection into contiguous id
//                      ranges and writes one index file per shard:
//                      index.sofa.shard0 … shardN-1; build refuses any
//                      flag it does not read)
//   sofa_cli query    --data=data.fvecs --index=index.sofa
//                     --queries=queries.fvecs [--k=1] [--epsilon=0]
//                     [--length=N]
//   sofa_cli info     --data=data.fvecs --index=index.sofa [--length=N]
//                     (query and info, like build, refuse any flag they
//                      do not read)
//   sofa_cli serve    --listen=HOST:PORT --data=data.fvecs --index=index.sofa
//                     [--shards=N] [--data-dir=DIR]
//                     [--port-file=PATH] [--max-connections=64]
//                     [--max-pending=4096] [--tenant-quota=N]
//                     [--compact-threshold=1024] [--wal-sync=64]
//                     [--stats-file=PATH] [--stats-interval=SECONDS]
//                     [--stats-format=json|prometheus]
//                     [--trace-sample=N] [--slow-query-ms=MS]
//                     [--slow-log=64]
//                     (a long-running TCP server speaking the binary wire
//                      protocol of docs/PROTOCOL.md: SEARCH, INSERT,
//                      DELETE, STATS and ADMIN, with graceful drain on
//                      SIGTERM/SIGINT; `sofa_cli serve --help` documents
//                      every flag, and serve refuses any flag it does not
//                      list. --shards reloads the per-shard files written
//                      by `build --shards`. --data-dir=DIR is the durable
//                      deployment: a WAL in DIR/wal plus a generation
//                      store in DIR/generations. The first run needs
//                      --data/--index to bootstrap; every later run
//                      restarts from the store alone, replaying only the
//                      mutations since the last compaction.)
//   sofa_cli stats    --stats-file=PATH [--format=pretty|prometheus|json]
//                     (pretty-prints a JSON stats dump written by serve)
//
// Data files may be .fvecs, .bvecs, or raw float32 (pass --length). The
// paper's DTW, subsequence and TLB commands live in paper_cli, so this
// binary links none of those modules.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/io.h"
#include "datagen/datasets.h"
#include "index/serialization.h"
#include "index/tree_index.h"
#include "ingest/compactor.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "persist/generation_store.h"
#include "sax/sax_scheme.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "sfa/mcb.h"
#include "shard/sharded_index.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace sofa;

std::optional<Dataset> LoadDataFile(const std::string& path,
                                    std::size_t raw_length,
                                    const char* flag) {
  if (path.empty()) {
    std::fprintf(stderr, "missing --%s\n", flag);
    return std::nullopt;
  }
  std::optional<Dataset> data = io::ReadDataFile(path, raw_length);
  if (!data.has_value()) {
    std::fprintf(stderr, "failed to read %s (raw files need --length)\n",
                 path.c_str());
  }
  return data;
}

std::optional<Dataset> LoadData(const Flags& flags, const std::string& flag) {
  return LoadDataFile(flags.GetString(flag, ""),
                      static_cast<std::size_t>(flags.GetInt("length", 0)),
                      flag.c_str());
}

// The first flag on the command line that `known` does not name (main's
// `threads` is known to every command), or "" when there is none. A
// command refuses such a flag instead of ignoring it: a misspelt or
// retired flag would otherwise run with its default without a word.
std::string FirstUnknownFlag(const Flags& flags,
                             std::initializer_list<std::string_view> known) {
  for (const std::string& name : flags.names()) {
    if (name != "threads" &&
        std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return "";
}

int Generate(const Flags& flags, ThreadPool* pool) {
  datagen::GenerateOptions options;
  options.count = static_cast<std::size_t>(flags.GetInt("n_series", 20000));
  options.num_queries =
      static_cast<std::size_t>(flags.GetInt("n_queries", 100));
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 0xda7a));
  const std::string name = flags.GetString("dataset", "SCEDC");
  const std::string out = flags.GetString("out", name + ".fvecs");
  const std::string queries_out =
      flags.GetString("queries_out", name + "_queries.fvecs");
  if (datagen::FindDatasetSpec(name) == nullptr) {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    return 1;
  }
  const LabeledDataset ds = datagen::MakeDatasetByName(name, options, pool);
  if (!io::WriteFvecs(ds.data, out) ||
      !io::WriteFvecs(ds.queries, queries_out)) {
    std::fprintf(stderr, "write failed\n");
    return 1;
  }
  std::printf("wrote %zu series to %s, %zu queries to %s\n", ds.data.size(),
              out.c_str(), ds.queries.size(), queries_out.c_str());
  return 0;
}

int Build(const Flags& flags, ThreadPool* pool) {
  const std::string unknown =
      FirstUnknownFlag(flags, {"data", "length", "index", "scheme", "word",
                               "alphabet", "sampling", "leaf_size", "shards"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "build: unknown flag --%s\n", unknown.c_str());
    return 1;
  }
  const auto data = LoadData(flags, "data");
  if (!data.has_value()) {
    return 1;
  }
  const std::string index_path = flags.GetString("index", "index.sofa");
  const std::string scheme_kind = flags.GetString("scheme", "sfa");

  std::unique_ptr<quant::SummaryScheme> scheme;
  WallTimer timer;
  if (scheme_kind == "sax") {
    scheme = std::make_unique<sax::SaxScheme>(
        data->length(), static_cast<std::size_t>(flags.GetInt("word", 16)),
        static_cast<std::size_t>(flags.GetInt("alphabet", 256)));
  } else {
    sfa::SfaConfig config;
    config.word_length = static_cast<std::size_t>(flags.GetInt("word", 16));
    config.alphabet =
        static_cast<std::size_t>(flags.GetInt("alphabet", 256));
    config.sampling_ratio = flags.GetDouble("sampling", 0.01);
    scheme = sfa::TrainSfa(*data, config, pool);
  }
  index::IndexConfig config;
  config.leaf_capacity =
      static_cast<std::size_t>(flags.GetInt("leaf_size", 2000));

  shard::ShardingConfig shard_config;
  shard_config.num_shards =
      static_cast<std::size_t>(flags.GetInt("shards", 1));
  shard_config.index = config;
  const std::shared_ptr<const quant::SummaryScheme> shared_scheme =
      std::move(scheme);
  const auto sharded =
      shard::ShardedIndex::Build(*data, shard_config, shared_scheme, pool);
  if (!shard::SaveShardedIndex(*sharded, index_path)) {
    std::fprintf(stderr, "failed to save index\n");
    return 1;
  }
  const std::size_t num_shards = shard_config.num_shards;
  std::printf("built %s index over %zu series in %.2f s, %zu shard%s "
              "-> %s%s\n",
              shared_scheme->name().c_str(), data->size(), timer.Seconds(),
              num_shards, num_shards == 1 ? "" : "s", index_path.c_str(),
              num_shards == 1
                  ? ""
                  : (".shard0.." + std::to_string(num_shards - 1)).c_str());
  return 0;
}

int Query(const Flags& flags, ThreadPool* pool) {
  const std::string unknown = FirstUnknownFlag(
      flags, {"data", "length", "queries", "index", "k", "epsilon"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "query: unknown flag --%s\n", unknown.c_str());
    return 1;
  }
  const auto data = LoadData(flags, "data");
  if (!data.has_value()) {
    return 1;
  }
  const auto queries = LoadData(flags, "queries");
  if (!queries.has_value()) {
    return 1;
  }
  auto loaded =
      index::LoadIndex(flags.GetString("index", "index.sofa"), &*data, pool);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "failed to load index (wrong dataset?)\n");
    return 1;
  }
  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 1));
  const double epsilon = flags.GetDouble("epsilon", 0.0);
  for (std::size_t q = 0; q < queries->size(); ++q) {
    WallTimer timer;
    const auto result =
        loaded->tree->SearchKnnApproximate(queries->row(q), k, epsilon);
    std::printf("query %zu (%.2f ms):", q, timer.Millis());
    for (const Neighbor& nb : result) {
      std::printf(" %u(%.4f)", nb.id, nb.distance);
    }
    std::printf("\n");
  }
  return 0;
}

int Info(const Flags& flags, ThreadPool* pool) {
  const std::string unknown =
      FirstUnknownFlag(flags, {"data", "length", "index"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "info: unknown flag --%s\n", unknown.c_str());
    return 1;
  }
  const auto data = LoadData(flags, "data");
  if (!data.has_value()) {
    return 1;
  }
  const auto loaded =
      index::LoadIndex(flags.GetString("index", "index.sofa"), &*data, pool);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "failed to load index\n");
    return 1;
  }
  const auto stats = loaded->tree->ComputeStats();
  std::printf("scheme: %s (l=%zu, alphabet=%zu)\n",
              loaded->scheme->name().c_str(), loaded->scheme->word_length(),
              loaded->scheme->alphabet());
  std::printf("collection: %zu series x %zu\n", data->size(),
              data->length());
  std::printf("tree: %zu subtrees, %zu leaves, %zu inner nodes\n",
              stats.num_subtrees, stats.num_leaves, stats.num_inner);
  std::printf("avg depth %.2f, max depth %zu, avg leaf size %.0f\n",
              stats.avg_depth, stats.max_depth, stats.avg_leaf_size);
  return 0;
}

// Collects the registry and writes it to `path` atomically (tmp +
// rename), in the chosen exposition format. The periodic dump thread and
// the final dump share this.
bool WriteStatsFile(obs::Registry* registry, const std::string& path,
                    const std::string& format) {
  const std::vector<obs::InstrumentSnapshot> snapshot = registry->Collect();
  const std::string body = format == "prometheus"
                               ? obs::RenderPrometheus(snapshot)
                               : obs::RenderJson(snapshot);
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return false;
  }
  bool ok = body.empty() ||
            std::fwrite(body.data(), 1, body.size(), out) == body.size();
  ok = (std::fclose(out) == 0) && ok;
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

// Loads and parses a stats JSON dump; returns false with a message on
// stderr if the file is unreadable or not a dump.
bool LoadStatsDump(const std::string& path,
                   std::vector<obs::InstrumentSnapshot>* snapshot) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!obs::ParseStatsJson(buffer.str(), snapshot, &error)) {
    std::fprintf(stderr, "%s: not a stats JSON dump (%s)\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

// `sofa_cli stats` — pretty-prints (or re-renders) a JSON stats dump
// written by `serve --stats-file`.
int StatsCommand(const Flags& flags) {
  const std::string path = flags.GetString("stats-file", "");
  if (path.empty()) {
    std::fprintf(stderr, "missing --stats-file\n");
    return 1;
  }
  std::vector<obs::InstrumentSnapshot> snapshot;
  if (!LoadStatsDump(path, &snapshot)) {
    return 1;
  }
  const std::string format = flags.GetString("format", "pretty");
  std::string rendered;
  if (format == "prometheus") {
    rendered = obs::RenderPrometheus(snapshot);
  } else if (format == "json") {
    rendered = obs::RenderJson(snapshot);
  } else {
    rendered = obs::RenderPretty(snapshot);
  }
  std::fputs(rendered.c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// `serve` options.
//
// The X-macro below is the single source of truth for every serve flag:
// it declares the ServeOptions fields, drives the one parse pass (which
// refuses any flag it does not name), and generates `sofa_cli serve
// --help` — a flag cannot exist without documentation, and nothing
// outside ParseServeOptions reads raw flags.
//   X(field, "flag-name", Type, default, "help")
#define SOFA_SERVE_FLAG_LIST(X)                                               \
  X(data, "data", String, "",                                                 \
    "base collection (.fvecs/.bvecs, or raw float32 with --length)")          \
  X(index, "index", String, "index.sofa",                                     \
    "index file (per-shard suffixes with --shards)")                          \
  X(length, "length", Int, 0, "series length for raw float32 files")          \
  X(shards, "shards", Int, 1, "shard count (must match `build --shards`)")    \
  X(max_pending, "max-pending", Int, 4096,                                    \
    "admission queue bound (beyond it, shed kRejected)")                      \
  X(tenant_quota, "tenant-quota", Int, 0,                                     \
    "per-tenant in-flight cap (0 = unlimited)")                               \
  X(compact_threshold, "compact-threshold", Int, 1024,                        \
    "buffered rows per shard before compaction")                              \
  X(wal_sync, "wal-sync", Int, 64, "fsync the WAL every N records")           \
  X(data_dir, "data-dir", String, "",                                         \
    "durable root: DIR/wal + DIR/generations")                                \
  X(stats_file, "stats-file", String, "",                                     \
    "dump the metrics registry here at exit")                                 \
  X(stats_interval, "stats-interval", Double, 0.0,                            \
    "re-dump --stats-file every N seconds while serving")                     \
  X(stats_format, "stats-format", String, "json",                             \
    "stats dump format: json|prometheus")                                     \
  X(trace_sample, "trace-sample", Int, 0, "trace every Nth query (0 = off)")  \
  X(slow_query_ms, "slow-query-ms", Double, 0.0,                              \
    "retain traces of queries slower than this (0 = off)")                    \
  X(slow_log, "slow-log", Int, 64, "slow-query ring capacity")                \
  X(listen, "listen", String, "",                                             \
    "required: bind HOST:PORT and serve the SOFA wire protocol "              \
    "(docs/PROTOCOL.md) until SIGTERM/SIGINT; port 0 = ephemeral")            \
  X(max_connections, "max-connections", Int, 64,                              \
    "concurrent connection cap")                                              \
  X(port_file, "port-file", String, "",                                       \
    "write the bound port here once listening")

using ServeString = std::string;
using ServeInt = std::int64_t;
using ServeDouble = double;

struct ServeOptions {
#define SOFA_SERVE_DECLARE(field, flag, type, default_value, help) \
  Serve##type field = default_value;
  SOFA_SERVE_FLAG_LIST(SOFA_SERVE_DECLARE)
#undef SOFA_SERVE_DECLARE

  // Derived from --listen during validation.
  std::string listen_host;
  std::uint16_t listen_port = 0;
};

void PrintServeHelp() {
  std::printf(
      "usage: sofa_cli serve --listen=HOST:PORT [flags]\n"
      "\n"
      "Binds HOST:PORT and serves the SOFA binary wire protocol\n"
      "(docs/PROTOCOL.md): SEARCH, INSERT, DELETE, STATS and ADMIN. On\n"
      "SIGTERM/SIGINT it drains gracefully: refuses new connections,\n"
      "finishes in-flight requests, then prints its metrics and dumps\n"
      "the final stats and slow log.\n"
      "\n"
      "Every admitted query is one search over all shards (and the insert\n"
      "buffer) at once, joined by otherwise idle workers; one query per\n"
      "worker runs at a time, and the next starts as soon as a worker\n"
      "frees up (strict priority classes, with the last 8 of every 64\n"
      "starts kept for waiting batch/background queries).\n"
      "\n"
      "flags (default in brackets):\n");
#define SOFA_SERVE_HELP(field, flag, type, default_value, help) \
  std::printf("  --%-18s %s [%s]\n", flag, help, #default_value);
  SOFA_SERVE_FLAG_LIST(SOFA_SERVE_HELP)
#undef SOFA_SERVE_HELP
  std::printf("  --%-18s %s\n", "help", "print this help");
}

bool ParseListenAddress(const std::string& listen, std::string* host,
                        std::uint16_t* port, std::string* error) {
  const std::size_t colon = listen.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == listen.size()) {
    *error = "--listen needs HOST:PORT, got '" + listen + "'";
    return false;
  }
  *host = listen.substr(0, colon);
  errno = 0;
  char* end = nullptr;
  const unsigned long value =
      std::strtoul(listen.c_str() + colon + 1, &end, 10);
  if (end == listen.c_str() + colon + 1 || *end != '\0' || errno != 0 ||
      value > 65535) {
    *error = "--listen port must be 0..65535, got '" +
             listen.substr(colon + 1) + "'";
    return false;
  }
  *port = static_cast<std::uint16_t>(value);
  return true;
}

bool ParseServeOptions(const Flags& flags, ServeOptions* opts,
                       std::string* error) {
#define SOFA_SERVE_NAME(field, flag, type, default_value, help) flag,
  const std::string unknown =
      FirstUnknownFlag(flags, {SOFA_SERVE_FLAG_LIST(SOFA_SERVE_NAME) "help"});
#undef SOFA_SERVE_NAME
  if (!unknown.empty()) {
    *error = "unknown flag --" + unknown;
    return false;
  }
#define SOFA_SERVE_PARSE(field, flag, type, default_value, help) \
  opts->field = flags.Get##type(flag, opts->field);
  SOFA_SERVE_FLAG_LIST(SOFA_SERVE_PARSE)
#undef SOFA_SERVE_PARSE

  if (opts->listen.empty()) {
    *error = "missing --listen";
    return false;
  }
  const auto at_least = [error](const char* flag, std::int64_t value,
                                std::int64_t min) {
    if (value < min) {
      *error = std::string("--") + flag + " must be >= " +
               std::to_string(min) + ", got " + std::to_string(value);
      return false;
    }
    return true;
  };
  const auto non_negative = [error](const char* flag, double value) {
    if (value < 0.0) {
      *error = std::string("--") + flag + " must not be negative";
      return false;
    }
    return true;
  };
  if (!at_least("shards", opts->shards, 1) ||
      !at_least("compact-threshold", opts->compact_threshold, 1) ||
      !at_least("wal-sync", opts->wal_sync, 1) ||
      !at_least("slow-log", opts->slow_log, 1) ||
      !at_least("max-pending", opts->max_pending, 1) ||
      !at_least("max-connections", opts->max_connections, 1) ||
      !at_least("length", opts->length, 0) ||
      !at_least("trace-sample", opts->trace_sample, 0) ||
      !at_least("tenant-quota", opts->tenant_quota, 0)) {
    return false;
  }
  if (!non_negative("stats-interval", opts->stats_interval) ||
      !non_negative("slow-query-ms", opts->slow_query_ms)) {
    return false;
  }
  if (opts->stats_format != "json" && opts->stats_format != "prometheus") {
    *error = "--stats-format must be json|prometheus, got '" +
             opts->stats_format + "'";
    return false;
  }
  if (opts->stats_interval > 0.0 && opts->stats_file.empty()) {
    *error = "--stats-interval needs --stats-file";
    return false;
  }
  return ParseListenAddress(opts->listen, &opts->listen_host,
                            &opts->listen_port, error);
}

// SIGTERM/SIGINT → graceful drain. The handler only pokes a self-pipe
// (async-signal-safe); the serving thread blocks on the read end.
std::atomic<int> g_shutdown_signal{0};
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int sig) {
  g_shutdown_signal.store(sig);
  const char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

// Atomic tmp + rename, so a smoke harness polling for the file never
// reads a torn port number.
bool WritePortFile(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return false;
  }
  bool ok = std::fprintf(out, "%u\n", port) > 0;
  ok = (std::fclose(out) == 0) && ok;
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

// Serves the binary wire protocol on a TCP socket until SIGTERM/SIGINT,
// then drains and reports serving metrics.
int Serve(const Flags& flags, ThreadPool* pool) {
  if (flags.GetBool("help", false)) {
    PrintServeHelp();
    return 0;
  }
  ServeOptions opts;
  std::string parse_error;
  if (!ParseServeOptions(flags, &opts, &parse_error)) {
    std::fprintf(stderr,
                 "serve: %s\n(`sofa_cli serve --help` lists every flag)\n",
                 parse_error.c_str());
    return 1;
  }
  // One registry for every layer: the service, the ingest path, the WAL
  // and the generation store all register their instruments here, so one
  // Collect() (stats dump, `sofa_cli stats`) covers the whole process.
  obs::Registry registry;
  // --data-dir: the durable deployment root. A generation already in its
  // store supersedes --data/--index — the serving state restarts from
  // (newest intact generation + WAL tail) alone.
  const std::string& data_dir = opts.data_dir;
  const std::string wal_dir = data_dir.empty() ? "" : data_dir + "/wal";
  std::unique_ptr<persist::GenerationStore> store;
  std::optional<persist::LoadedGeneration> restored;
  if (!data_dir.empty()) {
    store = persist::GenerationStore::Open(data_dir + "/generations",
                                           &registry);
    if (store == nullptr) {
      std::fprintf(stderr, "cannot open --data-dir %s\n", data_dir.c_str());
      return 1;
    }
    restored = store->LoadLatest(pool);
  }
  // Every generation served is sharded — one shard for a single index
  // file — so every request runs the same query path.
  std::shared_ptr<const shard::ShardedIndex> sharded;
  if (restored.has_value()) {
    sharded = restored->sharded;
    std::printf("restored generation %llu from %s: %zu series x %zu, "
                "%zu shards, %zu tombstones\n",
                static_cast<unsigned long long>(
                    restored->manifest.generation_seq),
                data_dir.c_str(), sharded->size(), sharded->length(),
                sharded->num_shards(), restored->manifest.tombstones.size());
  } else {
    const std::optional<Dataset> data = LoadDataFile(
        opts.data, static_cast<std::size_t>(opts.length), "data");
    if (!data.has_value()) {
      return 1;
    }
    shard::ShardingConfig shard_config;
    shard_config.num_shards = static_cast<std::size_t>(opts.shards);
    sharded = shard::LoadShardedIndex(opts.index, *data, shard_config, pool);
    if (sharded == nullptr) {
      std::fprintf(stderr, "failed to load %s (wrong dataset or --shards?)\n",
                   opts.index.c_str());
      return 1;
    }
  }
  const std::size_t num_shards = sharded->num_shards();

  service::ServiceConfig config;
  config.max_pending = static_cast<std::size_t>(opts.max_pending);
  config.tenant_max_in_flight = static_cast<std::size_t>(opts.tenant_quota);
  config.registry = &registry;
  config.trace.sample_every = static_cast<std::uint32_t>(opts.trace_sample);
  config.trace.slow_query_ms = opts.slow_query_ms;
  config.trace.slow_log_capacity = static_cast<std::size_t>(opts.slow_log);
  service::SearchService svc(service::WrapShardedIndex(sharded), pool,
                             config);

  // INSERT/DELETE arrive over the wire into the ingest path: rows are
  // exactly searchable the moment Insert() accepts them, deletes vanish
  // the moment Delete() returns, and the last shard compacts and
  // republishes under the traffic. With --data-dir every mutation is
  // logged before it becomes visible, and the log's tail past the
  // restored generation is replayed first — recover-on-start.
  ingest::IngestConfig ingest_config;
  ingest_config.compact_threshold =
      static_cast<std::size_t>(opts.compact_threshold);
  ingest_config.wal_dir = wal_dir;
  ingest_config.wal.sync_every = static_cast<std::size_t>(opts.wal_sync);
  ingest_config.store = store.get();
  ingest_config.registry = &registry;
  std::optional<ingest::RecoveredBase> recovered_base;
  if (restored.has_value()) {
    recovered_base = ingest::MakeRecoveredBase(*restored);
  }
  ingest::Compactor compactor(
      &svc, sharded, ingest_config,
      recovered_base.has_value() ? &*recovered_base : nullptr);
  if (store != nullptr) {
    const ingest::RecoverStats recovered = compactor.Recover();
    if (!recovered.ok) {
      std::fprintf(stderr,
                   recovered.sequence_gap
                       ? "WAL in %s has lost interior records "
                         "(sequence gap) — refusing to serve "
                         "(replayed what fit: %llu inserts, %llu "
                         "deletes)\n"
                       : "WAL in %s does not match the base collection "
                         "(replayed what fit: %llu inserts, %llu "
                         "deletes)\n",
                   wal_dir.c_str(),
                   static_cast<unsigned long long>(recovered.inserts_applied),
                   static_cast<unsigned long long>(
                       recovered.deletes_applied));
      return 1;
    }
    std::printf("recovered from WAL %s: %llu inserts, %llu deletes "
                "replayed (%llu already in base)\n",
                wal_dir.c_str(),
                static_cast<unsigned long long>(recovered.inserts_applied),
                static_cast<unsigned long long>(recovered.deletes_applied),
                static_cast<unsigned long long>(
                    recovered.inserts_skipped + recovered.records_skipped));
    if (recovered.tail_truncated) {
      std::fprintf(stderr,
                   "WARNING: WAL replay hit a torn/corrupt record at a "
                   "segment tail — the crashed-writer pattern (the "
                   "record seqno chain is intact, so no interior loss; "
                   "see docs/FILE_FORMATS.md, replay semantics).\n");
    }
    if (!restored.has_value()) {
      // Bootstrap: make the base generation itself durable so the next
      // run restarts from the store alone.
      if (compactor.PersistNow().ok()) {
        std::printf("persisted base generation to %s/generations\n",
                    data_dir.c_str());
      } else {
        std::fprintf(stderr,
                     "WARNING: could not persist the base generation "
                     "(serving continues; restart cost stays O(WAL))\n");
      }
    }
  }

  // Periodic stats dump: a background thread re-renders the registry to
  // --stats-file every --stats-interval seconds (atomic tmp + rename, so
  // a reader never sees a torn file); the final state is dumped at exit
  // regardless of the interval.
  const std::string stats_file = opts.stats_file;
  const double stats_interval = opts.stats_interval;
  const std::string stats_format = opts.stats_format;
  std::mutex stats_mutex;
  std::condition_variable stats_cv;
  bool stats_stop = false;
  std::thread stats_thread;
  if (!stats_file.empty() && stats_interval > 0.0) {
    stats_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(stats_mutex);
      while (!stats_cv.wait_for(
          lock, std::chrono::duration<double>(stats_interval),
          [&] { return stats_stop; })) {
        lock.unlock();
        WriteStatsFile(&registry, stats_file, stats_format);
        lock.lock();
      }
    });
  }

  // Serve the wire protocol until SIGTERM/SIGINT, then drain — refuse
  // new connections, let in-flight requests finish and their responses
  // flush — and report.
  WallTimer timer;
  net::ServerConfig server_config;
  server_config.host = opts.listen_host;
  server_config.port = opts.listen_port;
  server_config.max_connections =
      static_cast<std::size_t>(opts.max_connections);
  net::SofaServer server(&svc, compactor, server_config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", opts.listen.c_str(),
                 started.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u (shards=%zu, max_pending=%zu)\n",
              opts.listen_host.c_str(), server.port(), num_shards,
              config.max_pending);
  std::fflush(stdout);
  if (!opts.port_file.empty() &&
      !WritePortFile(opts.port_file, server.port())) {
    std::fprintf(stderr, "failed to write --port-file %s\n",
                 opts.port_file.c_str());
    return 1;
  }
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnShutdownSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  const int signal_number = g_shutdown_signal.load();
  std::printf("received %s — draining: new connections refused, "
              "in-flight requests finish\n",
              signal_number == SIGINT ? "SIGINT" : "SIGTERM");
  server.Shutdown();  // drain + flush responses + join every connection
  std::printf("drain complete\n");
  const net::ServerStats net_stats = server.Stats();
  action.sa_handler = SIG_DFL;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
  const double wall_seconds = timer.Seconds();

  const service::MetricsSnapshot metrics = svc.Metrics();
  std::printf("served %llu requests over %.2f s (shards=%zu)\n",
              static_cast<unsigned long long>(
                  metrics.completed + metrics.rejected + metrics.expired +
                  metrics.invalid + metrics.quota_rejected),
              wall_seconds, num_shards);
  std::printf("  net: %llu connections accepted (%llu rejected), "
              "%llu frames in, %llu out, %llu protocol errors\n",
              static_cast<unsigned long long>(net_stats.connections_accepted),
              static_cast<unsigned long long>(net_stats.connections_rejected),
              static_cast<unsigned long long>(net_stats.frames_received),
              static_cast<unsigned long long>(net_stats.frames_sent),
              static_cast<unsigned long long>(net_stats.protocol_errors));
  std::printf("  ok %llu  rejected %llu  expired %llu  invalid %llu  "
              "quota-shed %llu\n",
              static_cast<unsigned long long>(metrics.completed),
              static_cast<unsigned long long>(metrics.rejected),
              static_cast<unsigned long long>(metrics.expired),
              static_cast<unsigned long long>(metrics.invalid),
              static_cast<unsigned long long>(metrics.quota_rejected));
  std::printf("  by priority: interactive %llu  batch %llu  "
              "background %llu\n",
              static_cast<unsigned long long>(
                  metrics.completed_by_priority[0]),
              static_cast<unsigned long long>(
                  metrics.completed_by_priority[1]),
              static_cast<unsigned long long>(
                  metrics.completed_by_priority[2]));
  std::printf("  QPS %.1f\n",
              static_cast<double>(metrics.completed) / wall_seconds);
  std::printf("  latency ms: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  "
              "max %.3f\n",
              metrics.latency_mean_ms, metrics.latency_p50_ms,
              metrics.latency_p95_ms, metrics.latency_p99_ms,
              metrics.latency_max_ms);
  std::printf("  pruning: %.1f%% of series cut by LBD before raw data "
              "(%llu LBD checks, %llu real distances, %llu deleted rows "
              "masked)\n",
              100.0 * metrics.profile.SeriesPruningRatio(),
              static_cast<unsigned long long>(
                  metrics.profile.series_lbd_checked),
              static_cast<unsigned long long>(
                  metrics.profile.series_ed_computed),
              static_cast<unsigned long long>(
                  metrics.profile.candidates_filtered));
  const ingest::IngestMetrics ingest_metrics = compactor.Metrics();
  std::printf("  ingest: %llu inserted (%llu rejected), %llu deleted, "
              "%llu compactions, %zu still buffered, %zu tombstones "
              "pending purge, id space now %zu series\n",
              static_cast<unsigned long long>(ingest_metrics.inserted),
              static_cast<unsigned long long>(ingest_metrics.rejected),
              static_cast<unsigned long long>(ingest_metrics.deleted),
              static_cast<unsigned long long>(ingest_metrics.compactions),
              ingest_metrics.pending, ingest_metrics.tombstones,
              ingest_metrics.total_rows);
  if (store != nullptr) {
    std::printf("  persist: %llu generations committed (%llu failures) "
                "-> %s/generations\n",
                static_cast<unsigned long long>(ingest_metrics.persisted),
                static_cast<unsigned long long>(
                    ingest_metrics.persist_failures),
                data_dir.c_str());
  }

  // Slow-query dump: every retained trace, oldest first.
  if (config.trace.slow_query_ms > 0.0) {
    const obs::SlowQueryLog& slow_log = svc.slow_query_log();
    const std::vector<obs::TraceRecord> slow = slow_log.Dump();
    std::printf("  slow queries over %.2f ms: %llu total, %zu retained "
                "(%llu evicted from the %zu-entry ring)\n",
                config.trace.slow_query_ms,
                static_cast<unsigned long long>(slow_log.TotalPushed()),
                slow.size(),
                static_cast<unsigned long long>(slow_log.TotalEvicted()),
                slow_log.capacity());
    for (const obs::TraceRecord& record : slow) {
      std::fputs(obs::FormatTrace(record).c_str(), stdout);
    }
  }

  // Final stats dump — after every printout above, so the file covers
  // the complete run.
  if (stats_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats_stop = true;
    }
    stats_cv.notify_all();
    stats_thread.join();
  }
  if (!stats_file.empty()) {
    if (WriteStatsFile(&registry, stats_file, stats_format)) {
      std::printf("  stats: wrote %s (%s)\n", stats_file.c_str(),
                  stats_format.c_str());
    } else {
      std::fprintf(stderr, "failed to write --stats-file %s\n",
                   stats_file.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  ThreadPool pool(static_cast<std::size_t>(
      flags.GetInt("threads", static_cast<std::int64_t>(HardwareThreads()))));
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: sofa_cli generate|build|query|serve|stats|info "
                 "[flags]\n");
    return 1;
  }
  const std::string command = flags.positional()[0];
  if (command == "generate") {
    return Generate(flags, &pool);
  }
  if (command == "build") {
    return Build(flags, &pool);
  }
  if (command == "query") {
    return Query(flags, &pool);
  }
  if (command == "serve") {
    return Serve(flags, &pool);
  }
  if (command == "stats") {
    return StatsCommand(flags);
  }
  if (command == "info") {
    return Info(flags, &pool);
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 1;
}
