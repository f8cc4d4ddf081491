#include "traffic.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <random>
#include <thread>
#include <utility>

#include "net/client.h"
#include "service/request.h"

namespace perfbench {
namespace {

constexpr char kHost[] = "127.0.0.1";
constexpr double kReconnectSeconds = 5.0;
constexpr std::chrono::microseconds kSpin(300);

bool ConnectWithRetry(sofa::net::SofaClient* client, std::uint16_t port) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<int>(kReconnectSeconds * 1000));
  while (true) {
    if (client->Connect(kHost, port).ok()) {
      return true;
    }
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

std::vector<QueryRecord> RunClosedLoop(
    const QueryLoad& load, std::size_t first_ticket,
    const std::function<bool(std::size_t ticket)>& stop) {
  std::atomic<std::size_t> next_ticket(first_ticket);
  std::vector<std::vector<std::pair<std::size_t, QueryRecord>>> per_client(
      load.connections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < load.connections; ++c) {
    clients.emplace_back([&, c] {
      sofa::net::SofaClient client;
      if (!ConnectWithRetry(&client, load.port)) {
        std::fprintf(stderr, "query client %zu: cannot connect\n", c);
        return;
      }
      const std::size_t length = load.queries->length();
      while (true) {
        const std::size_t ticket = next_ticket.fetch_add(1);
        if (stop(ticket)) {
          return;
        }
        QueryRecord record;
        record.query = load.sequence[ticket % load.sequence.size()];
        sofa::service::SearchRequest request;
        const float* row = load.queries->row(record.query);
        request.query.assign(row, row + length);
        request.k = load.k;
        request.collect_profile = load.traced;
        request.collect_trace = load.traced;
        sofa::service::SearchResponse response;
        sofa::net::WireTrace wire_trace;
        record.sent = Clock::now();
        const sofa::Status status =
            client.Search(request, &response, nullptr, nullptr,
                          load.traced ? &wire_trace : nullptr);
        record.received = Clock::now();
        if (!status.ok()) {
          record.transport_error = true;
          record.status = status.code();
          per_client[c].emplace_back(ticket, std::move(record));
          if (!ConnectWithRetry(&client, load.port)) {
            std::fprintf(stderr,
                         "query client %zu: transport error (%s) and no "
                         "reconnect within %.0f s; client stops\n",
                         c, status.ToString().c_str(), kReconnectSeconds);
            return;
          }
          continue;
        }
        record.status = response.status;
        record.answer = std::move(response.neighbors);
        record.server_ms = response.latency_ms;
        if (load.traced) {
          record.profile = response.profile;
          if (wire_trace.has_server_trace) {
            record.joined = std::make_shared<const sofa::obs::TraceRecord>(
                std::move(wire_trace.joined));
          }
        }
        per_client[c].emplace_back(ticket, std::move(record));
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  std::vector<std::pair<std::size_t, QueryRecord>> merged;
  for (auto& records : per_client) {
    std::move(records.begin(), records.end(), std::back_inserter(merged));
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<QueryRecord> out;
  out.reserve(merged.size());
  for (auto& entry : merged) {
    out.push_back(std::move(entry.second));
  }
  return out;
}

void RunWriter(std::uint16_t port, const sofa::Dataset& pool,
               const WriteSchedule& schedule, Clock::time_point start,
               WriteLog* log) {
  sofa::net::SofaClient client;
  bool connected = ConnectWithRetry(&client, port);
  std::mt19937_64 rng(schedule.seed);
  std::vector<std::uint32_t> live(schedule.base_size);  // deletable ids
  std::iota(live.begin(), live.end(), 0u);
  const double interval_s = 1.0 / schedule.rate_per_s;
  const auto due_at = [&](double slot) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(slot * interval_s));
  };
  // Sends one request at its due time (or late, if the previous one held
  // the connection past it) and logs the outcome. The last stretch
  // before the due time is spun, not slept: timer wake-up jitter would
  // otherwise count as server latency.
  const auto send = [&](WriteOp op, const auto& call) {
    if (schedule.closed_loop) {
      op.scheduled = Clock::now();
    }
    std::this_thread::sleep_until(op.scheduled - kSpin);
    while (Clock::now() < op.scheduled) {
    }
    op.sent = Clock::now();
    if (connected) {
      call(&op);
    } else {
      op.transport_error = true;
      op.status = sofa::StatusCode::kIoError;
    }
    op.acked = Clock::now();
    if (op.transport_error) {
      connected = ConnectWithRetry(&client, port);
    }
    log->Add(op);
  };
  const std::size_t length = pool.length();
  for (std::size_t i = 0; i < schedule.inserts; ++i) {
    WriteOp insert;
    insert.insert = true;
    insert.pool_row = i;
    insert.scheduled = due_at(static_cast<double>(i));
    const float* values = pool.row(insert.pool_row);
    const std::vector<float> row(values, values + length);
    send(insert, [&](WriteOp* op) {
      const sofa::StatusOr<std::uint32_t> id = client.Insert(row);
      op->status = id.code();
      op->ok = id.ok();
      op->transport_error = !id.ok() && !client.connected();
      if (id.ok()) {
        op->id = *id;
        live.push_back(*id);
      }
    });
    if (schedule.delete_every == 0 || (i + 1) % schedule.delete_every != 0 ||
        live.empty()) {
      continue;
    }
    const std::size_t pick =
        std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
    WriteOp erase;
    erase.insert = false;
    erase.id = live[pick];
    erase.scheduled = due_at(static_cast<double>(i) + 0.5);
    send(erase, [&](WriteOp* op) {
      const sofa::Status status = client.Delete(op->id);
      op->status = status.code();
      op->ok = status.ok();
      op->transport_error = !status.ok() && !client.connected();
      if (status.ok()) {
        live[pick] = live.back();
        live.pop_back();
      }
    });
  }
}

}  // namespace perfbench
