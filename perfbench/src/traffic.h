// Load generation over loopback TCP with net::SofaClient: closed-loop
// SEARCH clients and one open-loop INSERT/DELETE writer.

#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/dataset.h"
#include "core/neighbor.h"
#include "index/tree_index.h"
#include "obs/trace.h"
#include "oracle.h"
#include "util/status.h"

namespace perfbench {

/// One SEARCH as a client saw it.
struct QueryRecord {
  std::uint32_t query = 0;  // row of the query set
  Clock::time_point sent;
  Clock::time_point received;
  bool transport_error = false;  // connection failed; reconnected after
  sofa::StatusCode status = sofa::StatusCode::kOk;
  std::vector<sofa::Neighbor> answer;
  double server_ms = 0.0;  // SearchResponse::latency_ms
  // Traced requests only (collect_trace + collect_profile):
  sofa::index::QueryProfile profile;
  std::shared_ptr<const sofa::obs::TraceRecord> joined;  // client timeline

  double RoundTripMs() const { return MsBetween(sent, received); }
  bool Answered() const {
    return !transport_error && status == sofa::StatusCode::kOk;
  }
};

struct QueryLoad {
  std::uint16_t port = 0;
  std::size_t connections = 1;
  const sofa::Dataset* queries = nullptr;
  std::vector<std::uint32_t> sequence;  // query rows in send order, cycled
  std::size_t k = 10;
  bool traced = false;
};

/// Closed loop: each of `load.connections` clients takes the next ticket
/// (a shared counter starting at `first_ticket`), sends
/// sequence[ticket % size] and waits for the answer. A client stops
/// before sending a ticket for which `stop(ticket)` is true. A transport
/// error is recorded and the client reconnects; a client that cannot
/// reconnect within a few seconds gives up and says so on stderr.
/// Records come back in ticket order.
std::vector<QueryRecord> RunClosedLoop(
    const QueryLoad& load, std::size_t first_ticket,
    const std::function<bool(std::size_t ticket)>& stop);

/// The mutation stream: INSERTs of the pool rows in order; after every
/// `delete_every`-th insert a DELETE of a uniformly chosen live id (base
/// or acknowledged insert). One connection sends them. Open loop: INSERT
/// i is due at start + i / rate and the DELETE half an interval later;
/// each request goes out at its due time, or as soon as the previous one
/// is acknowledged if that is later, and latency counts from the due
/// time. Closed loop: each request is due when the previous one is
/// acknowledged. The same seed gives the same stream.
struct WriteSchedule {
  std::size_t inserts = 0;
  bool closed_loop = false;
  double rate_per_s = 400.0;  // open loop only
  std::size_t delete_every = 10;
  std::size_t base_size = 0;
  std::uint64_t seed = 0;
};

/// Runs the schedule against the server on `port`, inserting rows of
/// `pool` in order; open-loop due times count from `start`. Appends to
/// `log` in send order.
void RunWriter(std::uint16_t port, const sofa::Dataset& pool,
               const WriteSchedule& schedule, Clock::time_point start,
               WriteLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
