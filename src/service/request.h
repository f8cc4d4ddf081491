// The canonical request/response API of the serving stack — one pair of
// transport-neutral structs shared verbatim by the in-process path
// (service::SearchService::Submit) and the network path (net/protocol
// serializes exactly these fields; docs/PROTOCOL.md is their byte-level
// mirror). Fields split into two groups:
//
//   * wire fields — query, k, epsilon, priority, tenant, deadline_ms,
//     collect_profile, collect_trace — carry identical meaning on both
//     transports and round-trip through net::EncodeSearchRequest /
//     DecodeSearchRequest bit-for-bit;
//   * in-process-only fields — the absolute steady_clock `deadline`, the
//     response's shared TraceRecord handle — never serialized directly
//     (the server derives the absolute deadline from deadline_ms at
//     admission; traces travel as rendered text plus, at protocol v2, a
//     structured blob the client decodes back into a TraceRecord).
//
// Outcomes use the library-wide StatusCode taxonomy (util/status.h), so
// a network client sees exactly the statuses an embedder does.

#ifndef SOFA_SERVICE_REQUEST_H_
#define SOFA_SERVICE_REQUEST_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/neighbor.h"
#include "index/tree_index.h"
#include "obs/trace.h"
#include "util/status.h"

namespace sofa {
namespace service {

/// Outcome of one request — the library-wide taxonomy. Relevant codes:
/// kOk, kRejected (admission queue full), kDeadlineExpired, kShutdown,
/// kInvalidArgument (query length mismatch), kQuotaExceeded (per-tenant
/// in-flight cap).
using RequestStatus = ::sofa::StatusCode;

/// Admission priority class of a request. Admission ordering serves
/// interactive before batch before background (with a bounded
/// anti-starvation reserve — see service::kRoundReserve).
enum class Priority : std::uint8_t {
  kInteractive = 0,  // latency-sensitive user traffic
  kBatch = 1,        // bulk analytical queries
  kBackground = 2,   // maintenance / best-effort scans
};

constexpr std::size_t kNumPriorities = 3;

/// Stable lower-case name ("interactive", "batch", "background").
inline const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBackground:
      return "background";
  }
  return "unknown";
}

/// One k-NN request. The query series is copied in (the caller's buffer
/// is free after Submit returns); length must equal the live index's
/// series length.
struct SearchRequest {
  // ---- wire fields (serialized by net/protocol, same on both paths) ----
  std::vector<float> query;
  std::size_t k = 1;
  double epsilon = 0.0;  // ε-approximation; 0 = exact

  /// Admission priority class (see Priority).
  Priority priority = Priority::kInteractive;

  /// Tenant tag for per-tenant quotas and instruments; empty = the
  /// anonymous tenant (still quota-tracked when quotas are on).
  std::string tenant;

  /// Relative deadline in milliseconds from admission; 0 = none. The
  /// admitting service turns it into the absolute `deadline` below, so
  /// the wire never carries a clock reading.
  double deadline_ms = 0.0;

  /// Opt into work counters (QueryProfile) for this request.
  bool collect_profile = false;

  /// Opt into per-query tracing for this request regardless of the
  /// service's sampling config; the finished trace (span timeline +
  /// work counters) comes back in SearchResponse::trace.
  bool collect_trace = false;

  // ---- in-process only (never serialized) ----

  /// Absolute drop-dead time; requests still queued past it are answered
  /// kDeadlineExpired without running. Default: no deadline. Derived
  /// from deadline_ms at Submit() when unset.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Convenience: sets both the relative wire field and the absolute
  /// in-process deadline from now.
  void SetDeadlineMs(double ms) {
    deadline_ms = ms;
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
  }
};

/// One answer.
struct SearchResponse {
  // ---- wire fields ----
  RequestStatus status = RequestStatus::kOk;
  std::vector<Neighbor> neighbors;      // ascending by distance; kOk only
  double latency_ms = 0.0;              // Submit() → completion
  std::uint64_t index_version = 0;      // which published generation answered
  index::QueryProfile profile;          // filled when collect_profile
                                        // (and for traced queries)

  // ---- in-process only ----

  /// Span timeline of this query; non-null only when the request set
  /// collect_trace. In-process it is the service's own record; a
  /// SofaClient against a v2 server fills it with the decoded wire copy
  /// (span-for-span identical). v1 responses transport rendered text
  /// (obs::FormatTrace), not as this structure.
  std::shared_ptr<const obs::TraceRecord> trace;
};

}  // namespace service
}  // namespace sofa

#endif  // SOFA_SERVICE_REQUEST_H_
