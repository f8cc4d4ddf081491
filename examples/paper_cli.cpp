// paper_cli — the paper's Section III comparisons from the command line:
// the DTW, subsequence and numeric-summary modules that the serving
// front end (sofa_cli) does not link.
//
//   paper_cli dtw-scan --data=data.fvecs --queries=queries.fvecs
//                      [--band=10%len] [--k=1]
//   paper_cli subseq   --data=stream.fvecs --queries=pattern.fvecs [--k=5]
//                      (row 0 of each file = the stream / the pattern)
//   paper_cli tlb      --data=data.fvecs --queries=queries.fvecs
//                      [--method=DFT|PAA|APCA|PLA|CHEBY|DHWT|SFA]
//                      [--word=16] [--alphabet=256]
//
// Data files may be .fvecs, .bvecs, or raw float32 (pass --length);
// `sofa_cli generate` writes suitable ones.

#include <cstdio>
#include <optional>
#include <string>

#include "core/io.h"
#include "elastic/dtw_scan.h"
#include "numeric/numeric_tlb.h"
#include "numeric/registry.h"
#include "sfa/mcb.h"
#include "sfa/tlb.h"
#include "subseq/mass.h"
#include "subseq/ucr_subseq.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace sofa;

std::optional<Dataset> LoadData(const Flags& flags, const std::string& flag) {
  const std::string path = flags.GetString(flag, "");
  if (path.empty()) {
    std::fprintf(stderr, "missing --%s\n", flag.c_str());
    return std::nullopt;
  }
  std::optional<Dataset> data = io::ReadDataFile(
      path, static_cast<std::size_t>(flags.GetInt("length", 0)));
  if (!data.has_value()) {
    std::fprintf(stderr, "failed to read %s (raw files need --length)\n",
                 path.c_str());
  }
  return data;
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
    std::fprintf(stderr, "usage: paper_cli dtw-scan|subseq|tlb [flags]\n");
    return 1;
  }
  const std::string command = flags.positional()[0];
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
