// Per-layer numbers of a traced run, read from outside the server: the
// span timelines SEARCH returns with collect_trace, the QueryProfile it
// returns with collect_profile, and deltas of the STATS registry.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "traffic.h"

namespace perfbench {

/// One reported number. `base` names the denominator of a ratio or the
/// population a percentile is taken over.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

/// The change of the server's registry between two STATS dumps.
class StatsDelta {
 public:
  StatsDelta(std::vector<sofa::obs::InstrumentSnapshot> before,
             std::vector<sofa::obs::InstrumentSnapshot> after)
      : before_(std::move(before)), after_(std::move(after)) {}

  /// Δ of a counter (0 when absent). `labels` must all match.
  double Counter(const std::string& name,
                 const sofa::obs::Labels& labels = {}) const;

  /// Samples recorded into a histogram between the dumps.
  double HistogramCount(const std::string& name,
                        const sofa::obs::Labels& labels = {}) const;
  /// Mean of those samples.
  double HistogramMean(const std::string& name,
                       const sofa::obs::Labels& labels = {}) const;
  /// Upper edge of the bucket holding quantile q of those samples (the
  /// registry keeps log buckets, 10–20 per decade); 0 with no samples.
  double HistogramQuantile(const std::string& name, double q,
                           const sofa::obs::Labels& labels = {}) const;

 private:
  /// Non-cumulative per-bucket counts added between the dumps, ascending
  /// by upper edge (+inf for the overflow bucket).
  std::vector<std::pair<double, double>> BucketDelta(
      const std::string& name, const sofa::obs::Labels& labels) const;

  std::vector<sofa::obs::InstrumentSnapshot> before_;
  std::vector<sofa::obs::InstrumentSnapshot> after_;
};

/// Per-query decomposition of the traced SEARCHes of a phase, in
/// milliseconds unless noted. Only answered requests that carry a server
/// trace contribute.
struct TraceBreakdown {
  std::size_t traced = 0;  // requests contributing
  std::vector<double> wire;        // round trip − server latency_ms
  std::vector<double> admission;   // "admission" span
  std::vector<double> service_self;  // latency − admission − scatter − merge
  std::vector<double> scatter;     // "scatter" span
  std::vector<double> straggler;   // scatter − longest child scan
  std::vector<double> merge;       // "merge" span
  std::vector<double> shard_scan;  // every "shard_scan" span
  std::vector<double> buffer_scan;  // every "buffer_scan" span
  std::vector<double> unattributed;  // round trip − Σ stage self times
  // Means per query of the returned QueryProfile.
  double nodes_visited = 0.0;
  double lbd_checked = 0.0;
  double lbd_pruned = 0.0;
  double ed_computed = 0.0;
  double candidates_filtered = 0.0;
  double rowq_checked = 0.0;
  double rowq_pruned = 0.0;
  /// Counter backend of the scan spans: "hardware", "tsc" or "none".
  std::string perf_backend = "none";
};

TraceBreakdown BreakDown(const std::vector<QueryRecord>& records);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
