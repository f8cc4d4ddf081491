// sofa_cli — end-to-end command-line front end for the library.
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
//                     --queries=queries.fvecs [--k=10] [--epsilon=0]
//                     [--rowq] (compressed pruning tier; bit-identical
//                      answers, fewer float rows touched)
//   sofa_cli info     --data=data.fvecs --index=index.sofa
//   sofa_cli dtw-scan --data=data.fvecs --queries=queries.fvecs
//                     [--band=10%len] [--k=1]
//   sofa_cli subseq   --data=stream.fvecs --queries=pattern.fvecs [--k=5]
//                     (row 0 of each file = the stream / the pattern)
//   sofa_cli tlb      --data=data.fvecs --queries=queries.fvecs
//                     [--method=DFT|PAA|APCA|PLA|CHEBY|DHWT] [--word=16]
//   sofa_cli serve    --data=data.fvecs --index=index.sofa
//                     --queries=queries.fvecs [--k=10] [--epsilon=0]
//                     [--batch=64]
//                     [--deadline_ms=0] [--repeat=1]
//                     [--shards=N] [--rowq]
//                     [--insert-file=rows.fvecs] [--compact-threshold=1024]
//                     [--delete-file=ids.txt] [--wal-dir=DIR]
//                     [--wal-sync=64] [--data-dir=DIR]
//                     [--stats-file=PATH] [--stats-interval=SECONDS]
//                     [--stats-format=json|prometheus]
//                     [--trace-sample=N] [--slow-query-ms=MS]
//                     [--slow-log=64]
//                     [--listen=HOST:PORT] [--max-connections=64]
//                     [--port-file=PATH] [--max-pending=4096]
//                     [--priority-reserve=N] [--tenant-quota=N]
//                     (`sofa_cli serve --help` documents every flag, and
//                      serve refuses any flag it does not list;
//                      --listen switches serve from file replay to a
//                      long-running TCP server speaking the binary wire
//                      protocol of docs/PROTOCOL.md, with graceful
//                      drain on SIGTERM/SIGINT)
//   sofa_cli stats    --stats-file=PATH [--format=pretty|prometheus|json]
//                     (pretty-prints a JSON stats dump written by serve)
//                     (streams the queries through the SearchService and
//                      prints serving metrics: QPS, p50/p95/p99, pruning;
//                      --shards reloads the per-shard files written by
//                      `build --shards` and serves them as one sharded
//                      index — answers are identical;
//                      --insert-file additionally streams rows through the
//                      incremental ingest path concurrently with the query
//                      traffic: rows buffer behind the last shard, stay
//                      exactly searchable from the moment they are
//                      accepted, and compact into its rebuilt tree every
//                      --compact-threshold rows;
//                      --delete-file streams deletes (one global id per
//                      line) after the inserts: deleted rows vanish from
//                      answers immediately and are physically removed at
//                      the next compaction of their shard;
//                      --wal-dir makes every mutation durable in a
//                      write-ahead log (fsync batched every --wal-sync
//                      records) and REPLAYS any log already in the
//                      directory before serving — re-running serve with
//                      the same --wal-dir recovers all previous
//                      inserts/deletes on top of the base collection;
//                      --data-dir=DIR is the fully durable deployment: a
//                      WAL in DIR/wal plus a generation store in
//                      DIR/generations that persists every compacted
//                      generation and truncates the WAL to the tail. The
//                      FIRST run needs --data/--index to bootstrap (the
//                      base generation is persisted immediately); every
//                      later run restarts from the store alone — no
//                      --data/--index required — replaying only the
//                      mutations since the last compaction, and answers
//                      bit-identical to the pre-crash process. Ingest
//                      metrics print alongside the serving metrics;
//                      --stats-file dumps the unified metrics registry
//                      (service + ingest + WAL + persist) there at exit —
//                      and every --stats-interval seconds while serving —
//                      as JSON or Prometheus text exposition;
//                      --trace-sample=N traces every Nth query;
//                      --slow-query-ms traces every query and keeps the
//                      last --slow-log traces that crossed the threshold
//                      (or expired their deadline), printed at exit.)
//
// Data files may be .fvecs (auto-detected by extension), .bvecs, or raw
// float32 (pass --length). Demonstrates the full persistence story:
// generate → save → build → save index → reload → query.

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
#include <future>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/io.h"
#include "datagen/datasets.h"
#include "elastic/dtw_scan.h"
#include "index/serialization.h"
#include "index/tree_index.h"
#include "ingest/compactor.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "persist/generation_store.h"
#include "quant/rowq.h"
#include "service/search_service.h"
#include "service/snapshot.h"
#include "shard/sharded_index.h"
#include "numeric/numeric_tlb.h"
#include "numeric/registry.h"
#include "sax/sax_scheme.h"
#include "sfa/mcb.h"
#include "subseq/mass.h"
#include "subseq/ucr_subseq.h"
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
  std::optional<Dataset> data;
  if (path.size() > 6 && path.substr(path.size() - 6) == ".bvecs") {
    data = io::ReadBvecs(path);
  } else if (path.size() > 6 && path.substr(path.size() - 6) == ".fvecs") {
    data = io::ReadFvecs(path);
  } else {
    if (raw_length == 0) {
      std::fprintf(stderr, "raw files need --length\n");
      return std::nullopt;
    }
    data = io::ReadRawF32(path, raw_length);
  }
  if (!data.has_value()) {
    std::fprintf(stderr, "failed to read %s\n", path.c_str());
  }
  return data;
}

std::optional<Dataset> LoadData(const Flags& flags, const std::string& flag) {
  return LoadDataFile(flags.GetString(flag, ""),
                      static_cast<std::size_t>(flags.GetInt("length", 0)),
                      flag.c_str());
}

// --delete-file format: one decimal global id per line (blank lines and
// lines starting with '#' are skipped). Malformed or out-of-range lines
// fail the whole file with a diagnostic rather than aborting the
// process or silently truncating ids.
bool ReadDeleteIds(const std::string& path,
                   std::vector<std::uint32_t>* ids) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' ||
            line.back() == '\t')) {
      line.pop_back();
    }
    std::size_t at = 0;
    while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) {
      ++at;
    }
    if (at == line.size() || line[at] == '#') {
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long value =
        std::strtoull(line.c_str() + at, &end, 10);
    if (end == line.c_str() + at || *end != '\0' || errno != 0 ||
        value > std::numeric_limits<std::uint32_t>::max()) {
      std::fprintf(stderr, "%s:%zu: not a 32-bit id: '%s'\n", path.c_str(),
                   line_no, line.c_str());
      return false;
    }
    ids->push_back(static_cast<std::uint32_t>(value));
  }
  return true;
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
  if (flags.GetBool("rowq", false)) {
    // Answers are bit-identical with the tier on or off; --rowq only
    // changes how many float rows the exact kernel has to touch.
    loaded->tree->AttachRowQuant(quant::RowQuant::Build(*data));
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
  X(queries, "queries", String, "",                                           \
    "replay mode: query file streamed through the service")                   \
  X(index, "index", String, "index.sofa",                                     \
    "index file (per-shard suffixes with --shards)")                          \
  X(length, "length", Int, 0, "series length for raw float32 files")          \
  X(shards, "shards", Int, 1, "shard count (must match `build --shards`)")    \
  X(rowq, "rowq", Bool, false,                                                \
    "enable the compressed (quantized-row) pruning tier — answers stay "      \
    "bit-identical, fewer float rows reach the exact kernel")                 \
  X(k, "k", Int, 10, "replay mode: neighbors per query")                      \
  X(epsilon, "epsilon", Double, 0.0, "replay mode: approximation slack")      \
  X(deadline_ms, "deadline_ms", Double, 0.0,                                  \
    "replay mode: per-query deadline (0 = none)")                             \
  X(repeat, "repeat", Int, 1, "replay mode: passes over the query file")      \
  X(batch, "batch", Int, 64,                                                  \
    "query starts per priority round (the reserve's span)")                   \
  X(max_pending, "max-pending", Int, 4096,                                    \
    "network mode: admission queue bound (beyond it, shed kRejected)")        \
  X(priority_reserve, "priority-reserve", Int, 0,                             \
    "slots per round reserved for batch/background (0 = batch/8)")            \
  X(tenant_quota, "tenant-quota", Int, 0,                                     \
    "per-tenant in-flight cap (0 = unlimited)")                               \
  X(insert_file, "insert-file", String, "",                                   \
    "replay mode: rows streamed through the ingest path")                     \
  X(delete_file, "delete-file", String, "",                                   \
    "replay mode: global ids (one per line) deleted after the inserts")       \
  X(compact_threshold, "compact-threshold", Int, 1024,                        \
    "buffered rows per shard before compaction")                              \
  X(wal_dir, "wal-dir", String, "",                                           \
    "write-ahead log directory (replayed on start)")                          \
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
    "network mode: bind HOST:PORT and serve the SOFA wire protocol "          \
    "(docs/PROTOCOL.md) until SIGTERM/SIGINT; port 0 = ephemeral")            \
  X(max_connections, "max-connections", Int, 64,                              \
    "network mode: concurrent connection cap")                                \
  X(port_file, "port-file", String, "",                                       \
    "network mode: write the bound port here once listening")

using ServeString = std::string;
using ServeInt = std::int64_t;
using ServeDouble = double;
using ServeBool = bool;

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
      "usage: sofa_cli serve [flags]\n"
      "\n"
      "Two modes:\n"
      "  replay  (default)    stream --queries through the SearchService\n"
      "                       and print serving metrics at exit\n"
      "  network (--listen)   bind HOST:PORT and serve the SOFA binary\n"
      "                       wire protocol (docs/PROTOCOL.md) until\n"
      "                       SIGTERM/SIGINT, then drain gracefully:\n"
      "                       refuse new connections, finish in-flight\n"
      "                       requests, dump final stats + slow log\n"
      "\n"
      "Either way every admitted query is one search over all shards\n"
      "(and the insert buffer) at once, joined by otherwise idle workers;\n"
      "one query per worker runs at a time, and the next starts as soon as\n"
      "a worker frees up (strict priority classes, with --priority-reserve\n"
      "slots per --batch starts kept for batch/background queries).\n"
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
  if (!at_least("k", opts->k, 1) || !at_least("batch", opts->batch, 1) ||
      !at_least("repeat", opts->repeat, 1) ||
      !at_least("shards", opts->shards, 1) ||
      !at_least("compact-threshold", opts->compact_threshold, 1) ||
      !at_least("wal-sync", opts->wal_sync, 1) ||
      !at_least("slow-log", opts->slow_log, 1) ||
      !at_least("max-pending", opts->max_pending, 1) ||
      !at_least("max-connections", opts->max_connections, 1) ||
      !at_least("length", opts->length, 0) ||
      !at_least("trace-sample", opts->trace_sample, 0) ||
      !at_least("priority-reserve", opts->priority_reserve, 0) ||
      !at_least("tenant-quota", opts->tenant_quota, 0)) {
    return false;
  }
  if (!non_negative("epsilon", opts->epsilon) ||
      !non_negative("deadline_ms", opts->deadline_ms) ||
      !non_negative("stats-interval", opts->stats_interval) ||
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
  if (!opts->listen.empty()) {
    if (!ParseListenAddress(opts->listen, &opts->listen_host,
                            &opts->listen_port, error)) {
      return false;
    }
    // In network mode queries and mutations arrive over the wire.
    const char* conflict = nullptr;
    if (!opts->queries.empty()) {
      conflict = "queries";
    } else if (!opts->insert_file.empty()) {
      conflict = "insert-file";
    } else if (!opts->delete_file.empty()) {
      conflict = "delete-file";
    } else if (opts->repeat != 1) {
      conflict = "repeat";
    }
    if (conflict != nullptr) {
      *error = std::string("replay-only flag --") + conflict +
               " conflicts with --listen (queries and mutations arrive "
               "over the wire)";
      return false;
    }
  } else {
    if (opts->queries.empty()) {
      *error =
          "replay mode needs --queries (or pass --listen=HOST:PORT for "
          "network mode)";
      return false;
    }
    if (!opts->port_file.empty()) {
      *error = "--port-file only applies with --listen";
      return false;
    }
  }
  return true;
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

// Streams the query file through a SearchService and reports serving
// metrics (replay mode), or serves the binary wire protocol on a TCP
// socket until SIGTERM (network mode, --listen).
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
  const bool network = !opts.listen.empty();
  // One registry for every layer: the service, the ingest path, the WAL
  // and the generation store all register their instruments here, so one
  // Collect() (stats dump, `sofa_cli stats`) covers the whole process.
  obs::Registry registry;
  // --data-dir: the durable deployment root. A generation already in its
  // store supersedes --data/--index — the serving state restarts from
  // (newest intact generation + WAL tail) alone.
  const std::string data_dir = opts.data_dir;
  std::string wal_dir = opts.wal_dir;
  std::unique_ptr<persist::GenerationStore> store;
  std::optional<persist::LoadedGeneration> restored;
  if (!data_dir.empty()) {
    if (wal_dir.empty()) {
      wal_dir = data_dir + "/wal";
    }
    store = persist::GenerationStore::Open(data_dir + "/generations",
                                           &registry);
    if (store == nullptr) {
      std::fprintf(stderr, "cannot open --data-dir %s\n", data_dir.c_str());
      return 1;
    }
    restored = store->LoadLatest(pool, opts.rowq);
  }
  std::optional<Dataset> data;
  if (!restored.has_value()) {
    data = LoadDataFile(opts.data, static_cast<std::size_t>(opts.length),
                        "data");
    if (!data.has_value()) {
      return 1;
    }
  }
  std::optional<Dataset> queries;  // replay mode only
  if (!network) {
    queries = LoadDataFile(opts.queries,
                           static_cast<std::size_t>(opts.length), "queries");
    if (!queries.has_value()) {
      return 1;
    }
  }
  const std::string insert_path = opts.insert_file;
  const std::string delete_path = opts.delete_file;
  const std::size_t series_length =
      restored.has_value() ? restored->sharded->length() : data->length();
  std::optional<Dataset> insert_rows;
  if (!insert_path.empty()) {
    insert_rows = LoadDataFile(insert_path,
                               static_cast<std::size_t>(opts.length),
                               "insert-file");
    if (!insert_rows.has_value()) {
      return 1;
    }
    if (insert_rows->length() != series_length) {
      std::fprintf(stderr, "--insert-file rows have length %zu, need %zu\n",
                   insert_rows->length(), series_length);
      return 1;
    }
  }
  std::vector<std::uint32_t> delete_ids;
  if (!delete_path.empty()) {
    if (!ReadDeleteIds(delete_path, &delete_ids)) {
      std::fprintf(stderr, "failed to read --delete-file %s\n",
                   delete_path.c_str());
      return 1;
    }
  }
  // Any mutation source — inserts, deletes, a WAL to recover, or a
  // generation store — runs through the ingest path. A network server is
  // always mutable when it can be (INSERT/DELETE arrive over the wire),
  // so --listen runs through the ingest path even with no file-based
  // mutation source.
  const bool ingesting = network || insert_rows.has_value() ||
                         !delete_ids.empty() || !wal_dir.empty() ||
                         store != nullptr;
  // Every generation served is sharded — one shard for a single index
  // file — so replay, network and ingest all run the same query path.
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
    shard::ShardingConfig shard_config;
    shard_config.num_shards = static_cast<std::size_t>(opts.shards);
    shard_config.enable_rowq = opts.rowq;  // compactions keep the tier
    sharded = shard::LoadShardedIndex(opts.index, *data, shard_config, pool);
    if (sharded == nullptr) {
      std::fprintf(stderr, "failed to load %s (wrong dataset or --shards?)\n",
                   opts.index.c_str());
      return 1;
    }
  }
  const std::size_t num_shards = sharded->num_shards();
  const std::size_t k = static_cast<std::size_t>(opts.k);
  const double epsilon = opts.epsilon;
  const double deadline_ms = opts.deadline_ms;
  const std::size_t repeat = static_cast<std::size_t>(opts.repeat);

  service::ServiceConfig config;
  config.max_batch = static_cast<std::size_t>(opts.batch);
  // Replay admission never sheds (the whole file is the workload); the
  // network bound is a real backpressure knob.
  config.max_pending = network ? static_cast<std::size_t>(opts.max_pending)
                               : queries->size() * repeat + 1;
  config.priority_reserve = static_cast<std::size_t>(opts.priority_reserve);
  config.tenant_max_in_flight = static_cast<std::size_t>(opts.tenant_quota);
  config.registry = &registry;
  config.trace.sample_every = static_cast<std::uint32_t>(opts.trace_sample);
  config.trace.slow_query_ms = opts.slow_query_ms;
  config.trace.slow_log_capacity = static_cast<std::size_t>(opts.slow_log);
  service::SearchService svc(service::WrapShardedIndex(sharded), pool,
                             config);

  // With any mutation source, attach the incremental ingest path and
  // stream the mutations from a side thread while the query traffic
  // runs: rows are exactly searchable the moment Insert() accepts them,
  // deletes vanish the moment Delete() returns, and shards whose pending
  // work crosses the threshold compact and republish under the traffic. With
  // --wal-dir every mutation is logged before it becomes visible, and
  // any log already present is replayed first — recover-on-start.
  std::optional<ingest::Compactor> compactor;
  if (ingesting) {
    ingest::IngestConfig ingest_config;
    ingest_config.compact_threshold =
        static_cast<std::size_t>(opts.compact_threshold);
    ingest_config.wal_dir = wal_dir;
    ingest_config.wal.sync_every = static_cast<std::size_t>(opts.wal_sync);
    ingest_config.store = store.get();
    ingest_config.registry = &registry;
    if (restored.has_value()) {
      const ingest::RecoveredBase recovered_base =
          ingest::MakeRecoveredBase(*restored);
      compactor.emplace(&svc, sharded, ingest_config, &recovered_base);
    } else {
      compactor.emplace(&svc, sharded, ingest_config);
    }
    if (!wal_dir.empty()) {
      const ingest::RecoverStats recovered = compactor->Recover();
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
                     static_cast<unsigned long long>(
                         recovered.inserts_applied),
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
    }
    if (store != nullptr && !restored.has_value()) {
      // Bootstrap: make the base generation itself durable so the next
      // run restarts from the store alone.
      if (compactor->PersistNow().ok()) {
        std::printf("persisted base generation to %s/generations\n",
                    data_dir.c_str());
      } else {
        std::fprintf(stderr,
                     "WARNING: could not persist the base generation "
                     "(serving continues; restart cost stays O(WAL))\n");
      }
    }
  }
  std::thread mutator;
  if (insert_rows.has_value() || !delete_ids.empty()) {
    mutator = std::thread([&] {
      if (insert_rows.has_value()) {
        for (std::size_t r = 0; r < insert_rows->size(); ++r) {
          while (compactor->Insert(insert_rows->row(r),
                                   insert_rows->length()) ==
                 StatusCode::kRejected) {
            // Admission backpressure: compaction is behind, yield briefly.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      }
      for (const std::uint32_t id : delete_ids) {
        const Status status = compactor->Delete(id);
        if (status != StatusCode::kOk &&
            status != StatusCode::kAlreadyDeleted) {
          std::fprintf(stderr, "delete of id %u failed (%s)\n", id,
                       status.ToString().c_str());
        }
      }
    });
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

  WallTimer timer;
  std::vector<std::future<service::SearchResponse>> futures;
  std::optional<net::ServerStats> net_stats;
  if (network) {
    // Network mode: serve the wire protocol until SIGTERM/SIGINT, then
    // drain — refuse new connections, let in-flight requests finish and
    // their responses flush, and fall through to the shared report.
    net::ServerConfig server_config;
    server_config.host = opts.listen_host;
    server_config.port = opts.listen_port;
    server_config.max_connections =
        static_cast<std::size_t>(opts.max_connections);
    net::SofaServer server(&svc,
                           compactor.has_value() ? &*compactor : nullptr,
                           server_config);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "cannot listen on %s: %s\n", opts.listen.c_str(),
                   started.ToString().c_str());
      return 1;
    }
    std::printf("listening on %s:%u (shards=%zu, max_pending=%zu, %s)\n",
                opts.listen_host.c_str(), server.port(), num_shards,
                config.max_pending,
                compactor.has_value() ? "mutable" : "read-only");
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
    net_stats = server.Stats();
    action.sa_handler = SIG_DFL;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
    g_signal_pipe[0] = g_signal_pipe[1] = -1;
  } else {
    // Replay mode: stream the query file through the service.
    futures.reserve(queries->size() * repeat);
    for (std::size_t r = 0; r < repeat; ++r) {
      for (std::size_t q = 0; q < queries->size(); ++q) {
        service::SearchRequest request;
        request.query.assign(queries->row(q),
                             queries->row(q) + queries->length());
        request.k = k;
        request.epsilon = epsilon;
        request.collect_profile = true;
        if (deadline_ms > 0.0) {
          request.SetDeadlineMs(deadline_ms);
        }
        futures.push_back(svc.Submit(std::move(request)));
      }
    }
    for (auto& future : futures) {
      (void)future.get();
    }
  }
  if (mutator.joinable()) {
    mutator.join();
    compactor->Flush();  // drain the buffer into the trees
  }
  const double wall_seconds = timer.Seconds();

  const service::MetricsSnapshot metrics = svc.Metrics();
  if (network) {
    std::printf("served %llu requests over %.2f s (shards=%zu)\n",
                static_cast<unsigned long long>(
                    metrics.completed + metrics.rejected + metrics.expired +
                    metrics.invalid + metrics.quota_rejected),
                wall_seconds, num_shards);
    std::printf("  net: %llu connections accepted (%llu rejected), "
                "%llu frames in, %llu out, %llu protocol errors\n",
                static_cast<unsigned long long>(
                    net_stats->connections_accepted),
                static_cast<unsigned long long>(
                    net_stats->connections_rejected),
                static_cast<unsigned long long>(net_stats->frames_received),
                static_cast<unsigned long long>(net_stats->frames_sent),
                static_cast<unsigned long long>(net_stats->protocol_errors));
  } else {
    std::printf("served %zu requests in %.2f s (shards=%zu)\n",
                futures.size(), wall_seconds, num_shards);
  }
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
  if (compactor.has_value()) {
    const ingest::IngestMetrics ingest_metrics = compactor->Metrics();
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

  // Final stats dump — after the ingest Flush and every printout above,
  // so the file covers the complete run.
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

// Exact k-NN under banded DTW over the whole collection (assumes the
// files hold z-normalized series, as written by `generate`).
int DtwScanCommand(const Flags& flags, ThreadPool* pool) {
  const auto data = LoadData(flags, "data");
  if (!data.has_value()) {
    return 1;
  }
  const auto queries = LoadData(flags, "queries");
  if (!queries.has_value()) {
    return 1;
  }
  elastic::DtwScan::Options options;
  options.band = static_cast<std::size_t>(
      flags.GetInt("band", static_cast<std::int64_t>(data->length() / 10)));
  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 1));
  const elastic::DtwScan scanner(&*data, pool, options);
  for (std::size_t q = 0; q < queries->size(); ++q) {
    elastic::DtwScanProfile profile;
    WallTimer timer;
    const auto result = scanner.SearchKnn(queries->row(q), k, &profile);
    std::printf("query %zu (%.2f ms, band %zu):", q, timer.Millis(),
                options.band);
    for (const Neighbor& nb : result) {
      std::printf(" %u(%.4f)", nb.id, nb.distance);
    }
    const double pruned =
        100.0 *
        static_cast<double>(profile.pruned_kim + profile.pruned_keogh_qc +
                            profile.pruned_keogh_cq) /
        static_cast<double>(profile.candidates);
    std::printf("  [%.0f%% pruned before DTW]\n", pruned);
  }
  return 0;
}

// Best occurrences of a pattern inside a long stream (row 0 of --data is
// the stream, row 0 of --queries the pattern).
int SubseqCommand(const Flags& flags, ThreadPool*) {
  const auto data = LoadData(flags, "data");
  if (!data.has_value() || data->empty()) {
    return 1;
  }
  const auto queries = LoadData(flags, "queries");
  if (!queries.has_value() || queries->empty()) {
    return 1;
  }
  const std::size_t n = data->length();
  const std::size_t m = queries->length();
  if (m > n) {
    std::fprintf(stderr, "pattern (%zu) longer than stream (%zu)\n", m, n);
    return 1;
  }
  const std::size_t k = static_cast<std::size_t>(flags.GetInt("k", 5));

  subseq::MassPlan plan(n, m);
  WallTimer timer;
  const auto matches = plan.TopK(data->row(0), queries->row(0), k);
  std::printf("MASS top-%zu over %zu windows (%.1f ms):\n", k,
              plan.profile_length(), timer.Millis());
  for (const auto& match : matches) {
    std::printf("  offset %8zu  z-ED %.4f\n", match.position,
                match.distance);
  }

  timer.Reset();
  subseq::UcrSubseqProfile profile;
  const subseq::SubseqMatch best =
      subseq::FindBestMatch(data->row(0), n, queries->row(0), m, &profile);
  std::printf("scan best match (%.1f ms): offset %zu, z-ED %.4f\n",
              timer.Millis(), best.position, best.distance);
  return 0;
}

// TLB of one summarization method on a (data, queries) pair — the
// Section V-E / Section III metric from the command line.
int TlbCommand(const Flags& flags, ThreadPool* pool) {
  const auto data = LoadData(flags, "data");
  if (!data.has_value()) {
    return 1;
  }
  const auto queries = LoadData(flags, "queries");
  if (!queries.has_value()) {
    return 1;
  }
  const std::string method = flags.GetString("method", "DFT");
  const std::size_t word =
      static_cast<std::size_t>(flags.GetInt("word", 16));
  if (method == "SFA" || method == "sfa") {
    sfa::SfaConfig config;
    config.word_length = word;
    config.alphabet =
        static_cast<std::size_t>(flags.GetInt("alphabet", 256));
    const auto scheme = sfa::TrainSfa(*data, config, pool);
    std::printf("%s TLB %.4f  pruning power %.4f\n",
                scheme->name().c_str(),
                sfa::MeanTlb(*scheme, *data, *queries),
                sfa::MeanPruningPower(*scheme, *data, *queries));
    return 0;
  }
  const auto summary =
      numeric::MakeNumericSummary(method, data->length(), word);
  std::printf("%s TLB %.4f  pruning power %.4f\n", summary->name().c_str(),
              numeric::MeanTlb(*summary, *data, *queries),
              numeric::MeanPruningPower(*summary, *data, *queries));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  ThreadPool pool(static_cast<std::size_t>(
      flags.GetInt("threads", static_cast<std::int64_t>(HardwareThreads()))));
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: sofa_cli "
                 "generate|build|query|serve|stats|info|dtw-scan|subseq|tlb "
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
  if (command == "dtw-scan") {
    return DtwScanCommand(flags, &pool);
  }
  if (command == "subseq") {
    return SubseqCommand(flags, &pool);
  }
  if (command == "tlb") {
    return TlbCommand(flags, &pool);
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 1;
}
