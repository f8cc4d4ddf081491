#include "layers.h"

#include <algorithm>
#include <cstring>
#include <map>

namespace perfbench {
namespace {

using sofa::obs::InstrumentSnapshot;
using sofa::obs::Labels;

const InstrumentSnapshot* Find(const std::vector<InstrumentSnapshot>& dump,
                               const std::string& name, const Labels& labels) {
  for (const InstrumentSnapshot& instrument : dump) {
    if (instrument.name != name) {
      continue;
    }
    const bool match = std::all_of(
        labels.begin(), labels.end(), [&](const auto& label) {
          return std::find(instrument.labels.begin(), instrument.labels.end(),
                           label) != instrument.labels.end();
        });
    if (match) {
      return &instrument;
    }
  }
  return nullptr;
}

void AddBuckets(const InstrumentSnapshot* histogram, double sign,
                std::map<double, double>* counts) {
  if (histogram == nullptr) {
    return;
  }
  std::uint64_t previous = 0;
  for (const sofa::obs::HistogramBucket& bucket : histogram->buckets) {
    const double edge = bucket.overflow ? kInf : bucket.upper_edge;
    (*counts)[edge] +=
        sign * static_cast<double>(bucket.cumulative - previous);
    previous = bucket.cumulative;
  }
}

double Duration(const sofa::obs::TraceSpan& span) {
  return std::max(0.0, span.end_ms - span.start_ms);
}

bool Named(const sofa::obs::TraceSpan& span, const char* name) {
  return std::strcmp(span.name, name) == 0;
}

}  // namespace

double StatsDelta::Counter(const std::string& name,
                           const Labels& labels) const {
  const InstrumentSnapshot* before = Find(before_, name, labels);
  const InstrumentSnapshot* after = Find(after_, name, labels);
  return static_cast<double>(after == nullptr ? 0 : after->counter) -
         static_cast<double>(before == nullptr ? 0 : before->counter);
}

double StatsDelta::HistogramCount(const std::string& name,
                                  const Labels& labels) const {
  const InstrumentSnapshot* before = Find(before_, name, labels);
  const InstrumentSnapshot* after = Find(after_, name, labels);
  return static_cast<double>(after == nullptr ? 0 : after->count) -
         static_cast<double>(before == nullptr ? 0 : before->count);
}

double StatsDelta::HistogramMean(const std::string& name,
                                 const Labels& labels) const {
  const InstrumentSnapshot* before = Find(before_, name, labels);
  const InstrumentSnapshot* after = Find(after_, name, labels);
  const double sum = (after == nullptr ? 0.0 : after->sum) -
                     (before == nullptr ? 0.0 : before->sum);
  return Ratio(sum, HistogramCount(name, labels));
}

std::vector<std::pair<double, double>> StatsDelta::BucketDelta(
    const std::string& name, const Labels& labels) const {
  std::map<double, double> counts;
  AddBuckets(Find(after_, name, labels), 1.0, &counts);
  AddBuckets(Find(before_, name, labels), -1.0, &counts);
  return {counts.begin(), counts.end()};
}

double StatsDelta::HistogramQuantile(const std::string& name, double q,
                                     const Labels& labels) const {
  const std::vector<std::pair<double, double>> buckets =
      BucketDelta(name, labels);
  double total = 0.0;
  for (const auto& bucket : buckets) {
    total += bucket.second;
  }
  if (total <= 0.0) {
    return 0.0;
  }
  const double rank = std::max(1.0, q * total);
  double seen = 0.0;
  double last_edge = 0.0;
  for (const auto& [edge, count] : buckets) {
    if (count <= 0.0) {
      continue;
    }
    seen += count;
    last_edge = edge;
    if (seen >= rank) {
      return edge;
    }
  }
  return last_edge;
}

TraceBreakdown BreakDown(const std::vector<QueryRecord>& records) {
  TraceBreakdown out;
  double nodes = 0, checked = 0, pruned = 0, ed = 0, filtered = 0;
  double rowq_checked = 0, rowq_pruned = 0;
  for (const QueryRecord& record : records) {
    if (!record.Answered() || record.joined == nullptr) {
      continue;
    }
    ++out.traced;
    const std::vector<sofa::obs::TraceSpan>& spans = record.joined->spans;
    double client_stages = 0.0;  // serialize + send + server_queue + decode
    double server_end = 0.0;
    double receive_end = 0.0;
    double admission = 0.0;
    double scatter = 0.0;
    double merge = 0.0;
    int scatter_index = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const sofa::obs::TraceSpan& span = spans[i];
      if (Named(span, "serialize") || Named(span, "send") ||
          Named(span, "server_queue") || Named(span, "decode")) {
        client_stages += Duration(span);
      } else if (Named(span, "server")) {
        server_end = span.end_ms;
      } else if (Named(span, "receive")) {
        receive_end = span.end_ms;
      } else if (Named(span, "admission")) {
        admission += Duration(span);
      } else if (Named(span, "scatter")) {
        scatter += Duration(span);
        scatter_index = static_cast<int>(i);
      } else if (Named(span, "merge")) {
        merge += Duration(span);
      } else if (Named(span, "shard_scan") || Named(span, "buffer_scan")) {
        (Named(span, "shard_scan") ? out.shard_scan : out.buffer_scan)
            .push_back(Duration(span));
        if (span.perf.Any() && out.perf_backend != "hardware") {
          out.perf_backend = span.perf.hardware ? "hardware" : "tsc";
        }
      }
    }
    double longest_child = 0.0;
    for (const sofa::obs::TraceSpan& span : spans) {
      if (scatter_index >= 0 && span.parent == scatter_index) {
        longest_child = std::max(longest_child, Duration(span));
      }
    }
    const double round_trip = record.RoundTripMs();
    const double self = record.server_ms - admission - scatter - merge;
    const double straggler = scatter - longest_child;
    out.wire.push_back(round_trip - record.server_ms);
    out.admission.push_back(admission);
    out.service_self.push_back(self);
    out.scatter.push_back(scatter);
    out.straggler.push_back(straggler);
    out.merge.push_back(merge);
    // Stage self times along the request's blocking path: the client's
    // own stages, then the server's, with the scatter split into its
    // straggler wait and the longest child scan.
    const double net_self =
        client_stages + std::max(0.0, receive_end - server_end);
    out.unattributed.push_back(round_trip - (net_self + admission + self +
                                             straggler + longest_child +
                                             merge));
    const sofa::index::QueryProfile& p = record.profile;
    nodes += static_cast<double>(p.nodes_visited);
    checked += static_cast<double>(p.series_lbd_checked);
    pruned += static_cast<double>(p.series_lbd_pruned);
    ed += static_cast<double>(p.series_ed_computed);
    filtered += static_cast<double>(p.candidates_filtered);
    rowq_checked += static_cast<double>(p.rowq_checked);
    rowq_pruned += static_cast<double>(p.rowq_pruned);
  }
  const double n = static_cast<double>(out.traced);
  out.nodes_visited = Ratio(nodes, n);
  out.lbd_checked = Ratio(checked, n);
  out.lbd_pruned = Ratio(pruned, n);
  out.ed_computed = Ratio(ed, n);
  out.candidates_filtered = Ratio(filtered, n);
  out.rowq_checked = Ratio(rowq_checked, n);
  out.rowq_pruned = Ratio(rowq_pruned, n);
  return out;
}

}  // namespace perfbench
