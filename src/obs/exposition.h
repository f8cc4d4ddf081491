// Renderers for registry snapshots: Prometheus text exposition format
// and a JSON schema, plus a parser for that JSON schema (so `sofa_cli
// stats` can pretty-print a dump written by `sofa_cli serve`). The
// renderers take the already-collected snapshot vector, so the future
// network front end can serve either format from one Collect() without
// touching instrument internals.

#ifndef SOFA_OBS_EXPOSITION_H_
#define SOFA_OBS_EXPOSITION_H_

#include <string>
#include <vector>

#include "obs/registry.h"

namespace sofa {
namespace obs {

/// Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
/// headers per metric name, histogram expansion into cumulative
/// `_bucket{le=...}` series plus `_sum` and `_count`. Deterministic for
/// a given snapshot (input order is preserved; Registry::Collect sorts).
std::string RenderPrometheus(const std::vector<InstrumentSnapshot>& snapshot);

/// JSON document: {"metrics": [...]} with one object per instrument.
/// Counters carry "value"; gauges carry "value"; histograms carry
/// count/sum/max/p50/p95/p99 and a cumulative "buckets" array whose last
/// entry has "le": "+Inf". Always valid JSON (python3 -m json.tool).
std::string RenderJson(const std::vector<InstrumentSnapshot>& snapshot);

/// Parses a document produced by RenderJson back into snapshots.
/// Returns false (with a message in *error, if given) on malformed input
/// or schema mismatch.
bool ParseStatsJson(const std::string& text,
                    std::vector<InstrumentSnapshot>* out,
                    std::string* error = nullptr);

/// Human-oriented table for `sofa_cli stats`: one line per counter and
/// gauge, a count/mean/p50/p95/p99/max line per histogram.
std::string RenderPretty(const std::vector<InstrumentSnapshot>& snapshot);

}  // namespace obs
}  // namespace sofa

#endif  // SOFA_OBS_EXPOSITION_H_
