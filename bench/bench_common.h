// Shared plumbing of the table/figure harnesses: dataset selection, engine
// construction, query timing, and the standard flag set.
//
// Every harness accepts:
//   --n_series=N     series per dataset (default kDefaultSeriesPerDataset)
//   --n_queries=N    queries per dataset (default 10)
//   --threads=A,B    thread counts to sweep (default "1,2,...,#hw")
//   --datasets=a,b   subset of Table I dataset names (default: all 17)
//   --leaf_size=N    tree leaf capacity (default 2000; paper uses 20000 at
//                    paper scale)
//   --seed=N         generation seed

#ifndef SOFA_BENCH_BENCH_COMMON_H_
#define SOFA_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "datagen/datasets.h"
#include "index/tree_index.h"
#include "sax/sax_scheme.h"
#include "sfa/mcb.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace sofa {
namespace bench {

inline constexpr std::size_t kDefaultSeriesPerDataset = 50000;

/// Parsed common options.
struct BenchOptions {
  std::size_t n_series = kDefaultSeriesPerDataset;
  std::size_t n_queries = 10;
  std::vector<std::size_t> thread_counts;
  std::vector<std::string> dataset_names;  // Table I names
  std::size_t leaf_size = 2000;
  std::uint64_t seed = 0xbe9c;

  /// Largest requested thread count.
  std::size_t max_threads() const;
};

/// Parses the standard flags; fills defaults (all datasets, {1,2,..,#hw}).
BenchOptions ParseBenchOptions(const Flags& flags);

/// Prints the standard harness header (binary name, scale, flags recap).
void PrintHeader(const std::string& title, const BenchOptions& options);

/// Generates one benchmark dataset at bench scale.
LabeledDataset MakeBenchDataset(const std::string& name,
                                const BenchOptions& options,
                                ThreadPool* pool);

/// A built SOFA (SFA-based) index together with its scheme.
struct SofaIndex {
  std::unique_ptr<sfa::SfaScheme> scheme;
  std::unique_ptr<index::TreeIndex> tree;
  double train_seconds = 0.0;  // MCB learning time (Fig. 7 "Learning Bins")
};

/// A built MESSI (iSAX-based) index together with its scheme.
struct MessiIndex {
  std::unique_ptr<sax::SaxScheme> scheme;
  std::unique_ptr<index::TreeIndex> tree;
};

/// Builds SOFA over a dataset with paper defaults (16 values, alphabet 256,
/// equi-width + variance selection, 1% MCB sample).
SofaIndex BuildSofa(const Dataset& data, const BenchOptions& options,
                    ThreadPool* pool, std::size_t num_threads,
                    const sfa::SfaConfig* config_override = nullptr);

/// Builds MESSI over a dataset (16 segments, alphabet 256).
MessiIndex BuildMessi(const Dataset& data, const BenchOptions& options,
                      ThreadPool* pool, std::size_t num_threads);

/// Times `query_fn` once per query row; returns per-query milliseconds.
std::vector<double> TimeQueries(
    const Dataset& queries,
    const std::function<void(const float* query)>& query_fn);

/// The five Section V-E ablation variants, in fixed order:
/// SFA EW +VAR, SFA EW, SFA ED +VAR, SFA ED, iSAX.
const std::vector<std::string>& AblationNames();

/// Mean TLB of each ablation variant (AblationNames order) on one
/// train/query pair, word length 16, at the given alphabet size.
std::vector<double> AblationTlbs(const Dataset& train, const Dataset& queries,
                                 std::size_t alphabet, ThreadPool* pool);

/// One identifying parameter of a bench run ({"n_series", "50000"}...).
/// Values render as bare JSON numbers when numeric, else as strings.
using BenchParam = std::pair<std::string, std::string>;

/// JSON object identifying a bench run (numbers from different ISA
/// tiers or machine sizes are not comparable): {"bench": ...,
/// "git_sha": ..., "dispatch":
/// "avx512|avx2|scalar", "hardware_threads": N, ...params}. The git sha
/// comes from $SOFA_GIT_SHA, then $GITHUB_SHA, then `git rev-parse
/// HEAD`, else "unknown".
std::string BenchMetadataJson(const std::string& bench,
                              const std::vector<BenchParam>& params);

/// Splices `metadata_json` into a stats document as a leading top-level
/// "metadata" key: {"metadata": {...}, "metrics": [...]}. ParseStatsJson
/// ignores unknown top-level keys, so every existing reader keeps
/// working. The document must open with '{' (RenderJson and the rowq
/// ablation dump both do); anything else is returned unchanged.
std::string WithBenchMetadata(const std::string& stats_json,
                              const std::string& metadata_json);

}  // namespace bench
}  // namespace sofa

#endif  // SOFA_BENCH_BENCH_COMMON_H_
