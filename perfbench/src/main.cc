// perfbench_runner — runs one workload of the SOFA benchmark end to end.
//
//   perfbench_runner --workload=serve_lf --seed=1 --seconds=15 --trace=0
//       --sofa_cli=PATH --work_dir=DIR --cache_dir=DIR --trace_dir=DIR
//
// It generates the collection from the seed, boots the shipped
// `sofa_cli serve --listen` on loopback, drives it with net::SofaClient,
// checks every answer against a brute-force oracle and prints the
// metrics; the last stdout line is the JSON result. perfbench/run.py
// builds and calls it; perfbench/README.md documents the workloads and
// metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common.h"
#include "core/io.h"
#include "datagen/datasets.h"
#include "index/query_engine.h"
#include "index/serialization.h"
#include "index/tree_index.h"
#include "layers.h"
#include "net/client.h"
#include "obs/exposition.h"
#include "oracle.h"
#include "process.h"
#include "sfa/mcb.h"
#include "shard/sharded_index.h"
#include "traffic.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sofa::Dataset;

// ------------------------------------------------------------- workloads

// Shared by all workloads: exact 10-NN (ε = 0) over 100 000 series × 256
// float32 (97.7 MiB of rows — above a core's L2, below the shared L3),
// held-out queries from the same generator, --rowq off, shipped defaults.
constexpr std::size_t kBaseSeries = 100000;
constexpr std::size_t kLength = 256;  // every dataset used here
constexpr std::size_t kK = 10;
constexpr std::size_t kHeldOutQueries = 1000;  // the query list, cycled
constexpr std::size_t kTruthDepth = kK + 40;   // oracle candidates per query
constexpr double kInsertRate = 400.0;          // INSERTs per second
constexpr std::size_t kDeleteEvery = 10;       // DELETEs at 10% of inserts
constexpr std::size_t kProbeInserts = 1000;    // read-only workloads' probe,
                                               // < the compaction threshold
constexpr std::size_t kSetups = 3;             // setup_s is their median
constexpr std::size_t kRestarts = 5;           // recovery_s is their median
constexpr std::size_t kWarmupPerConnection = 100;
constexpr std::size_t kVerifyQueries = 100;    // held-out re-checks
constexpr std::size_t kVerifyProbes = 100;     // inserted rows as queries
constexpr std::size_t kEngineQueries = 200;    // in-process engine timing
constexpr std::size_t kVerifyConnections = 4;

struct Workload {
  const char* name;
  const char* dataset;       // datagen registry name
  std::size_t shards;        // serve/build --shards
  std::size_t connections;   // closed-loop SEARCH clients
  bool writes_in_phase;      // the write stream runs inside the timed phase
  bool durable;              // served with --data-dir
};

// Why each exists is in README.md. Read-only workloads run their write
// stream after the timed phase, as a probe of the INSERT path.
// explore_hf is runnable but not declared in BENCHMARK.json: on a shared
// host its single-threaded, memory-bound latency drifts more than a
// regression bound allows (README.md).
constexpr Workload kWorkloads[] = {
    {"explore_hf", "SCEDC", 1, 1, false, false},
    {"serve_lf", "PNW", 4, 4, false, false},
    {"ingest_mixed", "PNW", 4, 2, true, true},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string sofa_cli;
  std::string work_dir;
  std::string cache_dir;
  std::string trace_dir;
  std::string source_digest;
};

std::size_t PoolSize(const Options& options) {
  return options.workload->writes_in_phase
             ? static_cast<std::size_t>(kInsertRate * options.seconds)
             : kProbeInserts;
}

[[noreturn]] void Fail(const std::string& message) {
  throw std::runtime_error(message);
}

// ---------------------------------------------------------------- inputs

// Everything generated from the seed, plus the oracle over it.
struct Inputs {
  Dataset base{kLength};
  Dataset pool{kLength};     // rows the writer inserts, in order
  Dataset queries{kLength};  // held-out queries, then probe rows of `pool`
  std::vector<std::vector<sofa::Neighbor>> truth;
  std::unique_ptr<AnswerChecker> checker;
  std::vector<std::uint32_t> probe_rows;  // query rows that are pool rows
};

Dataset Slice(const Dataset& from, std::size_t begin, std::size_t count) {
  Dataset out(count, from.length());
  std::memcpy(out.mutable_data(), from.row(begin),
              count * from.length() * sizeof(float));
  return out;
}

std::unique_ptr<Inputs> MakeInputs(const Options& options,
                                   sofa::ThreadPool* pool) {
  auto inputs = std::make_unique<Inputs>();
  const std::size_t pool_size = PoolSize(options);
  sofa::datagen::GenerateOptions generate;
  generate.count = kBaseSeries + pool_size;
  generate.num_queries = kHeldOutQueries;
  generate.seed = options.seed;
  generate.cluster_count = kBaseSeries / 64;  // independent of pool size
  const sofa::LabeledDataset generated = sofa::datagen::MakeDatasetByName(
      options.workload->dataset, generate, pool);
  inputs->base = Slice(generated.data, 0, kBaseSeries);
  inputs->pool = Slice(generated.data, kBaseSeries, pool_size);
  const std::size_t stride = std::max<std::size_t>(1, pool_size / kVerifyProbes);
  std::vector<std::size_t> probes;
  for (std::size_t r = 0; r < pool_size && probes.size() < kVerifyProbes;
       r += stride) {
    probes.push_back(r);
  }
  const std::size_t length = generated.data.length();
  inputs->queries = Dataset(kHeldOutQueries + probes.size(), length);
  std::memcpy(inputs->queries.mutable_data(), generated.queries.data(),
              kHeldOutQueries * length * sizeof(float));
  for (std::size_t i = 0; i < probes.size(); ++i) {
    std::memcpy(inputs->queries.mutable_row(kHeldOutQueries + i),
                inputs->pool.row(probes[i]), length * sizeof(float));
    inputs->probe_rows.push_back(
        static_cast<std::uint32_t>(kHeldOutQueries + i));
  }
  fs::create_directories(options.cache_dir);
  const std::string cache =
      options.cache_dir + "/" + options.workload->dataset + "-seed" +
      std::to_string(options.seed) + "-n" + std::to_string(kBaseSeries) +
      "-pool" + std::to_string(pool_size) + "-q" +
      std::to_string(inputs->queries.size()) + ".truth";
  inputs->truth = BaseGroundTruth(inputs->base, inputs->queries, kTruthDepth,
                                  cache, pool);
  inputs->checker = std::make_unique<AnswerChecker>(
      inputs->base, inputs->pool, inputs->queries, inputs->truth, kK, pool);
  return inputs;
}

// ---------------------------------------------------- the server under test

struct Paths {
  std::string data;
  std::string index;
  std::string data_dir;
  std::string port_file;
  std::string build_log;
  std::string serve_log;
};

Paths MakePaths(const Options& options) {
  const std::string dir = options.work_dir;
  return {dir + "/base.fvecs",      dir + "/index.sofa",
          dir + "/data",            dir + "/port",
          dir + "/build.log",       dir + "/serve.log"};
}

struct Server {
  std::unique_ptr<ChildProcess> process;
  std::uint16_t port = 0;
};

Server Boot(const Options& options, const Paths& paths, bool restart) {
  std::remove(paths.port_file.c_str());
  std::vector<std::string> argv = {options.sofa_cli, "serve",
                                   "--listen=127.0.0.1:0",
                                   "--port-file=" + paths.port_file};
  if (options.workload->durable) {
    argv.push_back("--data-dir=" + paths.data_dir);
  }
  // A durable restart comes back from the store alone.
  if (!(restart && options.workload->durable)) {
    argv.push_back("--data=" + paths.data);
    argv.push_back("--index=" + paths.index);
    argv.push_back("--shards=" + std::to_string(options.workload->shards));
  }
  Server server;
  server.process = ChildProcess::Start(argv, paths.serve_log);
  if (server.process == nullptr ||
      !WaitForPortFile(paths.port_file, server.process.get(), 60.0,
                       &server.port)) {
    Fail("sofa_cli serve did not come up; see its log:\n" +
         ReadFile(paths.serve_log));
  }
  return server;
}

// `sofa_cli build` (SFA training, tree build, index save), then boot
// until the port file appears (index load, shard partition and, with
// --data-dir, the base-generation persist).
Server SetUp(const Options& options, const Paths& paths, double* seconds) {
  std::error_code ignored;
  fs::remove_all(paths.data_dir, ignored);
  const Clock::time_point start = Clock::now();
  const int code = RunCommand(
      {options.sofa_cli, "build", "--data=" + paths.data,
       "--index=" + paths.index,
       "--shards=" + std::to_string(options.workload->shards)},
      paths.build_log, 120.0);
  if (code != 0) {
    Fail("sofa_cli build failed:\n" + ReadFile(paths.build_log));
  }
  Server server = Boot(options, paths, /*restart=*/false);
  *seconds = SecondsBetween(start, Clock::now());
  return server;
}

std::vector<sofa::obs::InstrumentSnapshot> FetchStats(std::uint16_t port) {
  sofa::net::SofaClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    Fail("STATS: cannot connect");
  }
  const sofa::StatusOr<std::string> text =
      client.Stats(sofa::net::StatsFormat::kJson);
  std::vector<sofa::obs::InstrumentSnapshot> out;
  std::string error;
  if (!text.ok() || !sofa::obs::ParseStatsJson(*text, &out, &error)) {
    Fail("STATS failed: " + (text.ok() ? error : text.status().ToString()));
  }
  return out;
}

// ------------------------------------------------------------ accounting

// Attempted / succeeded / failed of one operation type; failures by kind.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;   // shed: kRejected / kQuotaExceeded
  std::uint64_t expired = 0;    // kDeadlineExpired
  std::uint64_t transport = 0;  // connection failed (reconnected)
  std::uint64_t wrong = 0;      // answer or acknowledged write lost
  std::uint64_t other = 0;      // any other non-ok status

  std::uint64_t failed() const {
    return rejected + expired + transport + wrong + other;
  }
  void Add(const OpCounts& o) {
    attempted += o.attempted;
    ok += o.ok;
    rejected += o.rejected;
    expired += o.expired;
    transport += o.transport;
    wrong += o.wrong;
    other += o.other;
  }
  void CountStatus(bool transport_error, sofa::StatusCode code) {
    ++attempted;
    if (transport_error) {
      ++transport;
    } else if (code == sofa::StatusCode::kOk) {
      ++ok;
    } else if (code == sofa::StatusCode::kRejected ||
               code == sofa::StatusCode::kQuotaExceeded) {
      ++rejected;
    } else if (code == sofa::StatusCode::kDeadlineExpired) {
      ++expired;
    } else {
      ++other;
    }
  }
};

// Checks each SEARCH record; returns per-record correctness.
std::vector<bool> CheckAnswers(const std::vector<QueryRecord>& records,
                               const Inputs& inputs, const WriteLog& log,
                               OpCounts* counts,
                               std::vector<std::string>* defects) {
  std::vector<bool> correct(records.size(), false);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& record = records[i];
    counts->CountStatus(record.transport_error, record.status);
    if (!record.Answered()) {
      continue;
    }
    const std::string defect = inputs.checker->Check(
        record.query, record.answer, log, log.AckedBefore(record.sent),
        log.SentBefore(record.received));
    if (defect.empty()) {
      correct[i] = true;
    } else {
      --counts->ok;
      ++counts->wrong;
      if (defects->size() < 5) {
        defects->push_back("query " + std::to_string(record.query) + ": " +
                           defect);
      }
    }
  }
  return correct;
}

// ------------------------------------------------------------- bench spans

// The benchmark's own spans (setup, INSERT, DELETE, ADMIN, restart,
// in-process engine calls) and the joined wire trace of every traced
// SEARCH, kept in memory and written out when the run ends.
struct SpanLog {
  struct Entry {
    std::string request;
    std::string name;
    int parent;
    double start_ms;
    double end_ms;
  };
  Clock::time_point origin = Clock::now();
  std::string pass;  // prefixes request ids: the run's passes reuse them
  std::vector<Entry> entries;

  void Add(const std::string& request, const std::string& name,
           Clock::time_point start, Clock::time_point end) {
    entries.push_back({pass + request, name, -1, MsBetween(origin, start),
                       MsBetween(origin, end)});
  }
  void AddWire(const std::string& request, const QueryRecord& record) {
    if (record.joined == nullptr) {
      return;
    }
    const double offset = MsBetween(origin, record.sent);
    for (const sofa::obs::TraceSpan& span : record.joined->spans) {
      entries.push_back({pass + request, span.name, span.parent,
                         offset + span.start_ms, offset + span.end_ms});
    }
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "request\tspan\tparent\tstart_ms\tend_ms\n";
    for (const Entry& e : entries) {
      out << e.request << '\t' << e.name << '\t' << e.parent << '\t'
          << e.start_ms << '\t' << e.end_ms << '\n';
    }
    return static_cast<bool>(out);
  }
};

// ------------------------------------------------------------ one workload

struct RunResult {
  std::vector<double> setup_s;
  std::vector<QueryRecord> timed;
  std::vector<bool> timed_correct;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::optional<StatsDelta> stats;
  WriteLog log;
  double flush_ms = 0.0;
  double mem_mib = 0.0;
  double recovery_s = 0.0;
  double replayed_records = 0.0;
  bool open_loop_writes = false;
  Clock::time_point phase_start;
  double phase_s = 0.0;                // nominal length of the timed phase
  std::vector<CpuSample> cpu_samples;  // machine counters, timed phase
  OpCounts search, insert, erase, admin;
  std::uint64_t wrong_after_compact = 0;
  std::uint64_t wrong_after_restart = 0;
  std::vector<std::string> defects;

  std::uint64_t correct_answers() const {
    return static_cast<std::uint64_t>(
        std::count(timed_correct.begin(), timed_correct.end(), true));
  }
  double qps() const { return Ratio(correct_answers(), wall_s); }
  std::uint64_t attempted() const {
    return search.attempted + insert.attempted + erase.attempted +
           admin.attempted;
  }
  std::uint64_t failed() const {
    return search.failed() + insert.failed() + erase.failed() +
           admin.failed();
  }
};

// Closed-loop SEARCH of `rows` (each once), checked.
std::uint64_t VerifyPass(std::uint16_t port, const Inputs& inputs,
                         const std::vector<std::uint32_t>& rows,
                         const WriteLog& log, RunResult* result) {
  QueryLoad load;
  load.port = port;
  load.connections = kVerifyConnections;
  load.queries = &inputs.queries;
  load.sequence = rows;
  load.k = kK;
  const std::vector<QueryRecord> records = RunClosedLoop(
      load, 0, [&](std::size_t ticket) { return ticket >= rows.size(); });
  OpCounts counts;
  CheckAnswers(records, inputs, log, &counts, &result->defects);
  // Queries a client could not send after losing its connection.
  const std::size_t unsent = rows.size() - records.size();
  counts.attempted += unsent;
  counts.transport += unsent;
  result->search.Add(counts);
  return counts.failed();
}

std::uint64_t ParseReplayed(const std::string& log) {
  // "recovered from WAL <dir>: <n> inserts, <m> deletes replayed"
  static const std::regex kLine(
      R"(recovered from WAL [^\n]*: (\d+) inserts, (\d+) deletes replayed)");
  std::uint64_t total = 0;
  for (std::sregex_iterator it(log.begin(), log.end(), kLine), end;
       it != end; ++it) {
    total = std::stoull((*it)[1]) + std::stoull((*it)[2]);  // last restart
  }
  return total;
}

// ADMIN compact: folds every pending mutation into the trees. Returns
// its round trip in ms.
double Compact(std::uint16_t port, RunResult* result, SpanLog* spans) {
  sofa::net::SofaClient admin;
  const Clock::time_point start = Clock::now();
  const bool connected = admin.Connect("127.0.0.1", port).ok();
  const sofa::StatusOr<std::uint64_t> flushed =
      connected ? admin.Admin(sofa::net::AdminOp::kCompact)
                : sofa::StatusOr<std::uint64_t>(sofa::IoError("connect"));
  const Clock::time_point end = Clock::now();
  spans->Add("admin", "ADMIN compact", start, end);
  result->admin.CountStatus(!connected || !admin.connected(), flushed.code());
  return MsBetween(start, end);
}

RunResult RunWorkload(const Options& options, const Inputs& inputs,
                      bool traced, SpanLog* spans) {
  const Workload& w = *options.workload;
  const Paths paths = MakePaths(options);
  RunResult result;

  // Set-up, kSetups times; the last server stays up.
  Server server;
  for (std::size_t i = 0; i < kSetups; ++i) {
    if (server.process != nullptr) {
      server.process->Terminate(10.0);
    }
    double seconds = 0.0;
    const Clock::time_point start = Clock::now();
    server = SetUp(options, paths, &seconds);
    spans->Add("setup", "setup", start, Clock::now());
    result.setup_s.push_back(seconds);
  }

  QueryLoad load;
  load.port = server.port;
  load.connections = w.connections;
  load.queries = &inputs.queries;
  for (std::uint32_t q = 0; q < kHeldOutQueries; ++q) {
    load.sequence.push_back(q);
  }
  load.k = kK;

  // Warm-up, excluded from timing (answers are still checked).
  const std::size_t warmup = kWarmupPerConnection * w.connections;
  const std::vector<QueryRecord> warm = RunClosedLoop(
      load, 0, [&](std::size_t ticket) { return ticket >= warmup; });
  CheckAnswers(warm, inputs, result.log, &result.search, &result.defects);

  // Timed phase.
  WriteSchedule schedule;
  schedule.inserts = inputs.pool.size();
  schedule.rate_per_s = kInsertRate;
  schedule.delete_every = kDeleteEvery;
  schedule.base_size = kBaseSeries;
  schedule.seed = options.seed * 0x9e3779b97f4a7c15ull + 1;
  const std::vector<sofa::obs::InstrumentSnapshot> before =
      FetchStats(server.port);
  load.traced = traced;
  const double cpu_before = server.process->CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::milliseconds(
                  static_cast<std::int64_t>(options.seconds * 1000));
  std::atomic<bool> writes_done(!w.writes_in_phase);
  result.open_loop_writes = w.writes_in_phase;
  result.phase_start = start;
  result.phase_s = options.seconds;
  std::atomic<bool> sampling(true);
  std::thread sampler([&] {
    while (sampling.load()) {
      result.cpu_samples.push_back(ReadCpuSample());
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    result.cpu_samples.push_back(ReadCpuSample());
  });
  std::thread writer;
  if (w.writes_in_phase) {
    writer = std::thread([&] {
      RunWriter(server.port, inputs.pool, schedule, start, &result.log);
      writes_done.store(true);
    });
  }
  result.timed = RunClosedLoop(load, 0, [&](std::size_t) {
    return writes_done.load() && Clock::now() >= end;
  });
  if (writer.joinable()) {
    writer.join();
  }
  result.wall_s = SecondsBetween(start, Clock::now());
  result.cpu_s = server.process->CpuSeconds() - cpu_before;
  sampling.store(false);
  sampler.join();
  result.stats.emplace(before, FetchStats(server.port));
  result.mem_mib = server.process->PeakRssMib();

  // Read-only workloads probe the INSERT/DELETE path after the phase, in
  // a closed loop: spaced sub-millisecond requests would mostly time the
  // VM's thread wake-ups. The probe stays below the compaction threshold,
  // so no insert meets a rebuild.
  if (!w.writes_in_phase) {
    schedule.closed_loop = true;
    RunWriter(server.port, inputs.pool, schedule, Clock::now(), &result.log);
  }
  for (std::size_t i = 0; i < result.log.ops().size(); ++i) {
    const WriteOp& op = result.log.ops()[i];
    (op.insert ? result.insert : result.erase)
        .CountStatus(op.transport_error, op.status);
    spans->Add("write" + std::to_string(i), op.insert ? "INSERT" : "DELETE",
               op.sent, op.acked);
  }

  // Fold every pending mutation in, then re-check a sample.
  result.flush_ms = Compact(server.port, &result, spans);
  std::vector<std::uint32_t> verify;
  for (std::uint32_t q = 0; q < kVerifyQueries; ++q) {
    verify.push_back(q);
  }
  verify.insert(verify.end(), inputs.probe_rows.begin(),
                inputs.probe_rows.end());
  result.wrong_after_compact =
      VerifyPass(server.port, inputs, verify, result.log, &result);

  // Crash and restart, kRestarts times, then re-check. Without
  // --data-dir nothing written over the wire survives: the restarted
  // server must answer from the base.
  std::vector<double> recoveries;
  for (std::size_t i = 0; i < kRestarts; ++i) {
    server.process->Kill();
    const Clock::time_point restart = Clock::now();
    server = Boot(options, paths, /*restart=*/true);
    const Clock::time_point recovered = Clock::now();
    recoveries.push_back(SecondsBetween(restart, recovered));
    spans->Add("restart", "restart", restart, recovered);
  }
  result.recovery_s = Median(recoveries);
  const WriteLog nothing;
  result.wrong_after_restart = VerifyPass(
      server.port, inputs, verify, w.durable ? result.log : nothing, &result);
  server.process->Terminate(10.0);
  result.replayed_records =
      static_cast<double>(ParseReplayed(ReadFile(paths.serve_log)));

  result.timed_correct = CheckAnswers(result.timed, inputs, result.log,
                                      &result.search, &result.defects);
  if (traced) {
    for (std::size_t i = 0; i < result.timed.size(); ++i) {
      spans->AddWire("search" + std::to_string(i), result.timed[i]);
    }
  }
  return result;
}

// ------------------------------------------------------- in-process layers

// Timed calls into public functions on the same inputs: SFA training,
// the index build, loading the files `sofa_cli build` wrote, and the
// engine searching them single-threaded.
struct InProcess {
  double train_s = 0.0;
  double build_s = 0.0;
  double symbolize_s = 0.0;
  double partition_s = 0.0;
  double tree_s = 0.0;
  double load_s = 0.0;
  std::vector<double> engine_ms;  // per (query, shard)
};

InProcess MeasureInProcess(const Options& options, const Inputs& inputs,
                           sofa::ThreadPool* pool, SpanLog* spans) {
  const Workload& w = *options.workload;
  const Paths paths = MakePaths(options);
  InProcess out;
  sofa::sfa::SfaConfig sfa_config;  // sofa_cli build's defaults
  Clock::time_point t = Clock::now();
  std::shared_ptr<const sofa::quant::SummaryScheme> scheme =
      sofa::sfa::TrainSfa(inputs.base, sfa_config, pool);
  out.train_s = SecondsBetween(t, Clock::now());
  spans->Add("train", "sfa::TrainSfa", t, Clock::now());

  sofa::index::IndexConfig index_config;  // leaf 2000, as sofa_cli build
  t = Clock::now();
  std::vector<sofa::index::BuildStats> built;
  if (w.shards == 1) {
    const sofa::index::TreeIndex tree(&inputs.base, scheme.get(),
                                      index_config, pool);
    out.build_s = SecondsBetween(t, Clock::now());
    built.push_back(tree.build_stats());
  } else {
    sofa::shard::ShardingConfig config;
    config.num_shards = w.shards;
    config.index = index_config;
    const auto sharded =
        sofa::shard::ShardedIndex::Build(inputs.base, config, scheme, pool);
    out.build_s = SecondsBetween(t, Clock::now());
    for (std::size_t s = 0; s < w.shards; ++s) {
      built.push_back(sharded->shard(s).tree->build_stats());
    }
  }
  spans->Add("build", "index build", t, Clock::now());
  for (const sofa::index::BuildStats& stats : built) {
    out.symbolize_s += stats.symbolize_seconds;
    out.partition_s += stats.partition_seconds;
    out.tree_s += stats.tree_seconds;
  }

  t = Clock::now();
  const sofa::shard::ShardPartition partition = sofa::shard::ShardedIndex::
      Partition(inputs.base, w.shards, sofa::shard::ShardAssignment::kContiguous);
  std::vector<sofa::index::LoadedIndex> loaded;
  for (std::size_t s = 0; s < w.shards; ++s) {
    const std::string path = w.shards > 1
                                 ? paths.index + ".shard" + std::to_string(s)
                                 : paths.index;
    auto index = sofa::index::LoadIndex(path, partition.data[s].get(), pool);
    if (!index.has_value()) {
      Fail("LoadIndex failed on " + path);
    }
    loaded.push_back(std::move(*index));
  }
  out.load_s = SecondsBetween(t, Clock::now());
  spans->Add("load", "index::LoadIndex + Partition", t, Clock::now());

  for (std::size_t q = 0; q < kEngineQueries; ++q) {
    for (std::size_t s = 0; s < loaded.size(); ++s) {
      const sofa::index::QueryEngine engine(loaded[s].tree.get());
      sofa::index::QueryProfile profile;
      const Clock::time_point begin = Clock::now();
      const std::vector<sofa::Neighbor> answer =
          engine.Search(inputs.queries.row(q), kK, 0.0, &profile, 1);
      const Clock::time_point finish = Clock::now();
      if (answer.size() != kK) {
        Fail("in-process engine returned a short answer");
      }
      out.engine_ms.push_back(MsBetween(begin, finish));
      spans->Add("engine" + std::to_string(q), "QueryEngine::Search", begin,
                 finish);
    }
  }
  return out;
}

// ------------------------------------------------------------- reporting

// Round trips of the timed SEARCHes; a failed or wrong answer counts as
// +inf.
std::vector<double> QueryLatencies(const RunResult& run) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < run.timed.size(); ++i) {
    ms.push_back(run.timed_correct[i] ? run.timed[i].RoundTripMs() : kInf);
  }
  return ms;
}

// Latencies from due time; a failed write counts as +inf.
std::vector<double> WriteLatencies(const RunResult& run, bool inserts) {
  std::vector<double> ms;
  for (const WriteOp& op : run.log.ops()) {
    if (op.insert == inserts) {
      ms.push_back(op.ok ? MsBetween(op.scheduled, op.acked) : kInf);
    }
  }
  return ms;
}

std::vector<double> SendLag(const RunResult& run) {
  std::vector<double> ms;
  for (const WriteOp& op : run.log.ops()) {
    ms.push_back(MsBetween(op.scheduled, op.sent));
  }
  return ms;
}

void PrintCounts(const char* op, const OpCounts& c) {
  std::printf("  %-7s attempted %llu  ok %llu  failed %llu  (rejected %llu, "
              "expired %llu, transport %llu, wrong/lost %llu, other %llu)\n",
              op, static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.ok),
              static_cast<unsigned long long>(c.failed()),
              static_cast<unsigned long long>(c.rejected),
              static_cast<unsigned long long>(c.expired),
              static_cast<unsigned long long>(c.transport),
              static_cast<unsigned long long>(c.wrong),
              static_cast<unsigned long long>(c.other));
}

void PrintRun(const char* label, const RunResult& run) {
  std::printf("%s run:\n", label);
  std::printf("  setup_s per set-up:");
  for (const double s : run.setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  PrintCounts("SEARCH", run.search);
  PrintCounts("INSERT", run.insert);
  PrintCounts("DELETE", run.erase);
  PrintCounts("ADMIN", run.admin);
  std::printf("  timed phase: %zu SEARCH in %.3f s (%llu correct), server "
              "CPU %.2f s\n",
              run.timed.size(), run.wall_s,
              static_cast<unsigned long long>(run.correct_answers()),
              run.cpu_s);
  // Per window of the timed phase: median round trip, answers per second
  // and the share of CPU time the host stole from the guest. On a shared
  // host, steal bursts explain most slow windows.
  constexpr double kWindowS = 2.5;
  std::printf("  p50 ms / qps / steal %% per %.1f s window:", kWindowS);
  for (double from_s = 0.0; from_s < run.phase_s; from_s += kWindowS) {
    const auto at = [&](double seconds) {
      return run.phase_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    };
    std::vector<double> window;
    for (const QueryRecord& record : run.timed) {
      if (record.sent >= at(from_s) && record.sent < at(from_s + kWindowS)) {
        window.push_back(record.RoundTripMs());
      }
    }
    std::printf(" %.2f/%.0f/%.1f", Median(window),
                static_cast<double>(window.size()) / kWindowS,
                100.0 * StolenShare(run.cpu_samples, at(from_s),
                                    at(from_s + kWindowS)));
  }
  std::printf("\n");
  if (!run.cpu_samples.empty()) {
    std::printf("  host steal over the timed phase: %.1f%% of the VM's CPU "
                "time\n",
                100.0 * StolenShare(run.cpu_samples,
                                    run.cpu_samples.front().at,
                                    run.cpu_samples.back().at));
  }
  if (run.timed.size() < 1000) {
    std::printf("  NOTE: fewer than 1000 timed queries; query_p99_ms has "
                "fewer than 10 samples beyond it\n");
  }
  const std::vector<double> lag = SendLag(run);
  const std::vector<double> deletes = WriteLatencies(run, false);
  std::printf("  write stream: %zu ops, generator lateness p50 %.4f p99 "
              "%.4f max %.4f ms; DELETE p50 %.4f ms\n",
              run.log.ops().size(), Quantile(lag, 0.5), Quantile(lag, 0.99),
              lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()),
              Median(deletes));
  // Drift check for the write path: successive blocks of 1 000 INSERTs.
  const std::vector<double> inserts = WriteLatencies(run, true);
  std::printf("  INSERT p50/p99 ms per %zu:", kProbeInserts);
  for (std::size_t b = 0; b < inserts.size(); b += kProbeInserts) {
    const std::vector<double> block(
        inserts.begin() + b,
        inserts.begin() + std::min(inserts.size(), b + kProbeInserts));
    std::printf(" %.3f/%.3f", Median(block), Quantile(block, 0.99));
  }
  std::printf("\n");
  std::printf("  wrong after ADMIN compact: %llu; after crash-restart: "
              "%llu\n",
              static_cast<unsigned long long>(run.wrong_after_compact),
              static_cast<unsigned long long>(run.wrong_after_restart));
  for (const std::string& defect : run.defects) {
    std::printf("  DEFECT %s\n", defect.c_str());
  }
}

void AddMetric(std::vector<Metric>* out, const std::string& name,
               double value, const std::string& unit,
               const std::string& base = "") {
  out->push_back({name, value, unit, base});
}

std::vector<Metric> EndToEnd(const RunResult& run) {
  std::vector<Metric> m;
  const std::vector<double> query_ms = QueryLatencies(run);
  const std::vector<double> insert_ms = WriteLatencies(run, true);
  AddMetric(&m, "setup_s", Median(run.setup_s), "s",
            "median of " + std::to_string(run.setup_s.size()) + " set-ups");
  AddMetric(&m, "query_p50_ms", Quantile(query_ms, 0.5), "ms",
            std::to_string(query_ms.size()) + " timed SEARCH");
  AddMetric(&m, "qps", run.qps(), "1/s", "correct answers / timed wall s");
  AddMetric(&m, "qps_per_core", Ratio(run.correct_answers(), run.cpu_s),
            "1/CPU-s", "correct answers / server CPU s in the timed phase");
  AddMetric(&m, "mem_mib", run.mem_mib, "MiB", "server VmHWM after the timed phase");
  const std::string insert_base =
      std::to_string(insert_ms.size()) + " INSERT from due time (" +
      (run.open_loop_writes ? "open" : "closed") + " loop)";
  AddMetric(&m, "insert_p50_ms", Quantile(insert_ms, 0.5), "ms", insert_base);
  AddMetric(&m, "recovery_s", run.recovery_s, "s",
            "median of " + std::to_string(kRestarts) +
                " SIGKILL restarts until port file");
  return m;
}

std::vector<Metric> PerLayer(const Options& options, const RunResult& plain,
                             const RunResult& traced, const InProcess& local,
                             std::string* backend) {
  const TraceBreakdown t = BreakDown(traced.timed);
  const StatsDelta& s = *traced.stats;
  const double length = static_cast<double>(kLength);
  *backend = t.perf_backend;
  const std::string per_query = "per traced query, n=" +
                                std::to_string(t.traced);
  const std::string per_span = "per span, n=";
  const double throughput_queries =
      s.Counter("sofa_service_mode_queries_total", {{"mode", "throughput"}});
  const double latency_queries =
      s.Counter("sofa_service_mode_queries_total", {{"mode", "latency"}});
  const double batches = s.Counter("sofa_service_throughput_batches_total");
  std::vector<Metric> m;
  const std::vector<double> query_ms = QueryLatencies(plain);
  AddMetric(&m, "client.query_p99_ms", Quantile(query_ms, 0.99), "ms",
            std::to_string(query_ms.size()) + " timed SEARCH, untraced pass");
  AddMetric(&m, "net.wire_p50_ms", Median(t.wire), "ms", per_query);
  AddMetric(&m, "service.admission_p50_ms", Median(t.admission), "ms",
            per_query);
  AddMetric(&m, "service.admission_p99_ms", Quantile(t.admission, 0.99), "ms",
            per_query);
  AddMetric(&m, "service.self_p50_ms", Median(t.service_self), "ms",
            per_query);
  AddMetric(&m, "service.batch_mean", Ratio(throughput_queries, batches),
            "queries", "throughput-mode queries / batches = " +
                           std::to_string(static_cast<long long>(
                               throughput_queries)) +
                           " / " +
                           std::to_string(static_cast<long long>(batches)));
  AddMetric(&m, "service.latency_mode_share",
            Ratio(latency_queries, latency_queries + throughput_queries),
            "ratio",
            "of " + std::to_string(static_cast<long long>(
                        latency_queries + throughput_queries)) +
                " executed queries");
  AddMetric(&m, "service.cores_busy", Ratio(traced.cpu_s, traced.wall_s),
            "cores", "server CPU s / timed wall s, traced run");
  AddMetric(&m, "shard.scatter_p50_ms", Median(t.scatter), "ms", per_query);
  AddMetric(&m, "shard.straggler_p50_ms", Median(t.straggler), "ms",
            per_query);
  AddMetric(&m, "shard.merge_p50_ms", Median(t.merge), "ms", per_query);
  AddMetric(&m, "index.scan_p50_ms", Median(t.shard_scan), "ms",
            per_span + std::to_string(t.shard_scan.size()) + " shard_scan");
  AddMetric(&m, "index.scan_p99_ms", Quantile(t.shard_scan, 0.99), "ms",
            per_span + std::to_string(t.shard_scan.size()) + " shard_scan");
  AddMetric(&m, "index.engine_1t_p50_ms", Median(local.engine_ms), "ms",
            "per (query, shard), n=" + std::to_string(local.engine_ms.size()));
  AddMetric(&m, "index.nodes_visited", t.nodes_visited, "count", per_query);
  AddMetric(&m, "index.scan_cycles_p50",
            s.HistogramQuantile("sofa_query_stage_cycles", 0.5,
                                {{"stage", "shard_scan"}}),
            "cycles", "shard_scan spans, backend " + t.perf_backend);
  AddMetric(&m, "index.perf_hardware", t.perf_backend == "hardware" ? 1 : 0,
            "bool", "1 = perf_event counters, 0 = TSC fallback");
  AddMetric(&m, "quant.lbd_checked", t.lbd_checked, "count", per_query);
  AddMetric(&m, "quant.lbd_prune_ratio", Ratio(t.lbd_pruned, t.lbd_checked),
            "ratio", "series_lbd_pruned / series_lbd_checked");
  AddMetric(&m, "quant.rowq_checked", t.rowq_checked, "count", per_query);
  AddMetric(&m, "quant.rowq_pruned", t.rowq_pruned, "count", per_query);
  AddMetric(&m, "core.ed_per_query", t.ed_computed, "count", per_query);
  AddMetric(&m, "core.mib_touched",
            (t.ed_computed * length * 4.0 + t.rowq_checked * length) /
                (1024.0 * 1024.0),
            "MiB", "ed × length × 4 B + rowq × length B, " + per_query);
  AddMetric(&m, "ingest.buffer_scan_p50_ms", Median(t.buffer_scan), "ms",
            per_span + std::to_string(t.buffer_scan.size()) + " buffer_scan");
  AddMetric(&m, "ingest.buffer_scan_p99_ms", Quantile(t.buffer_scan, 0.99),
            "ms",
            per_span + std::to_string(t.buffer_scan.size()) + " buffer_scan");
  AddMetric(&m, "ingest.filtered_per_query", t.candidates_filtered, "count",
            per_query);
  AddMetric(&m, "ingest.compactions",
            s.Counter("sofa_ingest_compactions_total"), "count",
            "timed phase");
  AddMetric(&m, "ingest.flush_ms", traced.flush_ms, "ms",
            "ADMIN compact round trip");
  const std::vector<double> insert_ms = WriteLatencies(traced, true);
  AddMetric(&m, "ingest.insert_p99_ms", Quantile(insert_ms, 0.99), "ms",
            std::to_string(insert_ms.size()) + " INSERT from due time");
  AddMetric(&m, "ingest.rejected", static_cast<double>(traced.insert.rejected),
            "count",
            "of " + std::to_string(traced.insert.attempted) + " INSERT");
  const std::vector<double> lag = SendLag(traced);
  AddMetric(&m, "ingest.sched_lag_p99_ms", Quantile(lag, 0.99), "ms",
            "send time − due time, " + std::to_string(lag.size()) +
                " writes");
  AddMetric(&m, "ingest.wal_fsync_p50_ms",
            s.HistogramQuantile("sofa_wal_fsync_ms", 0.5), "ms",
            "timed phase fsyncs");
  AddMetric(&m, "ingest.wal_fsync_p99_ms",
            s.HistogramQuantile("sofa_wal_fsync_ms", 0.99), "ms",
            "timed phase fsyncs");
  AddMetric(&m, "ingest.wal_fsyncs", s.Counter("sofa_wal_fsync_total"),
            "count", "timed phase");
  AddMetric(&m, "ingest.wal_batch_mean",
            s.HistogramMean("sofa_wal_commit_batch_size"), "records",
            "records / group commits = " +
                std::to_string(static_cast<long long>(
                    s.HistogramCount("sofa_wal_commit_batch_size"))) +
                " batches");
  AddMetric(&m, "persist.commit_p50_ms",
            s.HistogramQuantile("sofa_persist_commit_ms", 0.5), "ms",
            "timed phase commits");
  AddMetric(&m, "persist.commit_max_ms",
            s.HistogramQuantile("sofa_persist_commit_ms", 1.0), "ms",
            "timed phase commits");
  AddMetric(&m, "persist.commits", s.Counter("sofa_ingest_persisted_total"),
            "count", "timed phase");
  AddMetric(&m, "persist.fsyncs", s.Counter("sofa_persist_fsync_total"),
            "count", "timed phase");
  AddMetric(&m, "persist.replayed_records", traced.replayed_records, "count",
            "restarted server's WAL replay");
  AddMetric(&m, "sfa.train_s", local.train_s, "s", "sfa::TrainSfa");
  AddMetric(&m, "index.build_s", local.build_s, "s",
            std::to_string(options.workload->shards) + " shard(s)");
  AddMetric(&m, "index.symbolize_s", local.symbolize_s, "s",
            "build_stats, summed over shards");
  AddMetric(&m, "index.partition_s", local.partition_s, "s",
            "build_stats, summed over shards");
  AddMetric(&m, "index.tree_s", local.tree_s, "s",
            "build_stats, summed over shards");
  AddMetric(&m, "index.load_s", local.load_s, "s",
            "LoadIndex + ShardedIndex::Partition");
  AddMetric(&m, "trace.unattributed_p50_ms", Median(t.unattributed), "ms",
            per_query);
  AddMetric(&m, "trace.overhead_share",
            1.0 - Ratio(traced.qps(), plain.qps()), "ratio",
            "1 − traced qps / untraced qps");
  return m;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 std::uint64_t attempted, std::uint64_t failed) {
  std::printf("\n%-28s %16s  %-8s %s\n", "metric", "value", "unit", "base");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Options& options) {
  const Workload& w = *options.workload;
  fs::create_directories(options.work_dir);
  sofa::ThreadPool pool(sofa::HardwareThreads());
  const std::vector<sofa::bench::BenchParam> params = {
      {"workload", w.name},
      {"seed", std::to_string(options.seed)},
      {"seconds", JsonNumber(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"dataset", w.dataset},
      {"n_series", std::to_string(kBaseSeries)},
      {"length", std::to_string(kLength)},
      {"k", std::to_string(kK)},
      {"shards", std::to_string(w.shards)},
      {"connections", std::to_string(w.connections)},
      {"query_list", std::to_string(kHeldOutQueries)},
      {"inserts", std::to_string(PoolSize(options))},
      {"insert_rate", JsonNumber(kInsertRate)},
      {"writes", w.writes_in_phase ? "open loop in timed phase"
                                   : "closed-loop probe after phase"},
      {"data_dir", w.durable ? "1" : "0"},
      {"source_digest", options.source_digest}};
  std::printf("run: %s\n",
              sofa::bench::BenchMetadataJson("perfbench", params).c_str());
  std::fflush(stdout);

  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<Inputs> inputs = MakeInputs(options, &pool);
  if (inputs->base.length() != kLength) {
    Fail("generated series length differs from " + std::to_string(kLength));
  }
  if (!sofa::io::WriteFvecs(inputs->base, MakePaths(options).data)) {
    Fail("cannot write the base collection");
  }
  std::printf("inputs + oracle: %.2f s (untimed)\n",
              SecondsBetween(t0, Clock::now()));

  SpanLog spans;
  spans.pass = "untraced/";
  const RunResult plain = RunWorkload(options, *inputs, false, &spans);
  PrintRun("untraced", plain);
  std::vector<Metric> metrics;
  bool correct = plain.failed() == 0;
  std::uint64_t attempted = plain.attempted();
  std::uint64_t failed = plain.failed();
  if (!options.trace) {
    metrics = EndToEnd(plain);
  } else {
    spans.pass = "traced/";
    const RunResult traced = RunWorkload(options, *inputs, true, &spans);
    PrintRun("traced", traced);
    spans.pass = "inprocess/";
    const InProcess local = MeasureInProcess(options, *inputs, &pool, &spans);
    std::string backend;
    metrics = PerLayer(options, plain, traced, local, &backend);
    std::printf("perf-counter backend: %s (perf_event_open is used when the "
                "host allows it; machine settings are left alone)\n",
                backend.c_str());
    correct = correct && traced.failed() == 0;
    attempted += traced.attempted();
    failed += traced.failed();
    fs::create_directories(options.trace_dir);
    const std::string path = options.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(options.seed) + ".tsv";
    std::printf("spans: %zu written to %s\n", spans.entries.size(),
                spans.Write(path) ? path.c_str() : "(write failed)");
  }
  PrintResult(metrics, correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const sofa::Flags flags(argc, argv);
  perfbench::Options options;
  const std::string name = flags.GetString("workload", "");
  for (const perfbench::Workload& w : perfbench::kWorkloads) {
    if (name == w.name) {
      options.workload = &w;
    }
  }
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 15.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.sofa_cli = flags.GetString("sofa_cli", "");
  options.work_dir = flags.GetString("work_dir", "");
  options.cache_dir = flags.GetString("cache_dir", options.work_dir);
  options.trace_dir = flags.GetString("trace_dir", options.work_dir);
  options.source_digest = flags.GetString("source_digest", "unknown");
  if (options.workload == nullptr || options.seconds <= 0.0 ||
      options.sofa_cli.empty() || options.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload=explore_hf|serve_lf|"
                 "ingest_mixed --seed=N --seconds=S --trace=0|1 "
                 "--sofa_cli=PATH --work_dir=DIR [--cache_dir=DIR] "
                 "[--trace_dir=DIR] [--source_digest=HEX]\n");
    return 2;
  }
  try {
    return perfbench::Run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
