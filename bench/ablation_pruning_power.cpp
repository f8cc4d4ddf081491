// Section V-E ablation (text claims): pruning power of the summarizations.
//
// The paper explains the speedups via pruning power — "in the SCEDC
// dataset … we can prune 98% of all data series at the first level of the
// tree, compared to 38% with MESSI". This harness prints, per dataset, the
// fraction of candidates whose lower bound alone exceeds the exact 1-NN
// distance for SFA (EW+VAR) vs iSAX, together with the observed in-engine
// counters (share of series discarded before any raw-data access).

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "sfa/tlb.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace sofa;
  using namespace sofa::bench;
  Flags flags(argc, argv);
  BenchOptions options = ParseBenchOptions(flags);
  options.n_series = static_cast<std::size_t>(
      flags.GetInt("n_series", 20000));
  const std::size_t threads = options.max_threads();
  PrintHeader("Section V-E — pruning power, SFA vs iSAX", options);

  ThreadPool pool(threads);
  TablePrinter table({"Dataset", "SFA pruning power", "iSAX pruning power",
                      "SFA engine prune%", "MESSI engine prune%"});
  for (const std::string& name : options.dataset_names) {
    const LabeledDataset ds = MakeBenchDataset(name, options, &pool);

    const SofaIndex sofa = BuildSofa(ds.data, options, &pool, threads);
    const MessiIndex messi = BuildMessi(ds.data, options, &pool, threads);

    // Metric level: summarization-only pruning power.
    sfa::TlbOptions tlb_options;
    tlb_options.max_queries = options.n_queries;
    tlb_options.max_candidates = 512;
    const double sfa_power = sfa::MeanPruningPower(
        *sofa.scheme, ds.data, ds.queries, tlb_options);
    const double sax_power = sfa::MeanPruningPower(
        *messi.scheme, ds.data, ds.queries, tlb_options);

    // Engine level: observed share of series discarded by LBD.
    index::QueryProfile sofa_profile;
    index::QueryProfile messi_profile;
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
      (void)sofa.tree->SearchKnn(ds.queries.row(q), 1, &sofa_profile);
      (void)messi.tree->SearchKnn(ds.queries.row(q), 1, &messi_profile);
    }
    table.AddRow(
        {name, FormatDouble(sfa_power * 100.0, 1) + "%",
         FormatDouble(sax_power * 100.0, 1) + "%",
         FormatDouble(sofa_profile.SeriesPruningRatio() * 100.0, 1) + "%",
         FormatDouble(messi_profile.SeriesPruningRatio() * 100.0, 1) + "%"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\npaper shape: SFA pruning power above iSAX everywhere, with the "
      "widest margins on\nhigh-frequency datasets (paper: 98%% vs 38%% on "
      "SCEDC at the first tree level).\n");
  return 0;
}
