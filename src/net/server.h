// SofaServer — the long-running TCP front end of the serving stack.
//
// One accept thread (non-blocking listen socket polled against a stop
// flag) hands each connection to a reader/writer thread pair:
//
//   * the reader blocks on the socket, frames requests (net/protocol),
//     and dispatches them — SEARCH goes straight into the
//     SearchService admission queue (priority classes, tenant quotas and
//     deadlines all honored by the service, exactly as in-process),
//     INSERT/DELETE into the attached Compactor, STATS renders the
//     shared obs::Registry, ADMIN drives the maintenance surface
//     (persist / compact / hot-swap republish);
//   * the writer drains a per-connection FIFO of pending replies —
//     SEARCH replies wait on the service future in queue order, the
//     rest are encoded inline by the reader — so responses always come
//     back in request order per connection while SEARCH requests from
//     one connection still pipeline through the admission queue.
//
// Framing errors (bad magic, unsupported version, CRC mismatch,
// oversized payload) poison the byte stream and close the connection;
// well-framed but malformed payloads get a typed kProtocolError response
// and the connection lives on.
//
// Graceful drain (SIGTERM path): RequestDrain() stops the accept loop
// and half-closes every connection's read side — requests already read
// or queued finish, their responses flush, then connections close.
// Shutdown() = drain + join everything; idempotent.

#ifndef SOFA_NET_SERVER_H_
#define SOFA_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ingest/compactor.h"
#include "net/protocol.h"
#include "obs/registry.h"
#include "service/search_service.h"
#include "util/status.h"

namespace sofa {
namespace net {

struct ServerConfig {
  /// Bind address. "0.0.0.0" serves every interface.
  std::string host = "127.0.0.1";

  /// Listen port; 0 asks the kernel for an ephemeral port (the bound
  /// port is readable from port() after Start()).
  std::uint16_t port = 0;

  /// Concurrent connections beyond this are accepted and immediately
  /// closed (the client sees EOF before any frame).
  std::size_t max_connections = 64;
};

/// Point-in-time serving-tier counters (also mirrored as sofa_net_*
/// instruments in the service's registry).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over max_connections
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t protocol_errors = 0;  // framing + payload decode failures
  std::size_t active_connections = 0;
};

class SofaServer {
 public:
  /// Serves `service` (required) and `compactor`, its mutation + admin
  /// surface. Both must outlive the server. Instruments register into
  /// service->registry().
  SofaServer(service::SearchService* service, ingest::Compactor& compactor,
             ServerConfig config = ServerConfig{});

  /// Shutdown() if still running.
  ~SofaServer();

  SofaServer(const SofaServer&) = delete;
  SofaServer& operator=(const SofaServer&) = delete;

  /// Binds, listens and starts the accept loop. kIoError with the OS
  /// failure in the message when the address cannot be bound.
  Status Start();

  /// The bound port (after Start(); the kernel's pick when config.port
  /// was 0).
  std::uint16_t port() const { return port_; }

  /// Stops accepting connections and half-closes existing ones so
  /// in-flight requests finish and flush; returns immediately. Safe to
  /// call from a signal-watcher thread.
  void RequestDrain();

  /// Drain + wait for every connection to finish + join all threads.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// True once every connection has drained (Shutdown() will not block).
  bool Drained() const;

  ServerStats Stats() const;

 private:
  // One reply slot in a connection's ordered response queue: either the
  // bytes are ready, or a SEARCH future still owes them.
  struct PendingReply {
    std::uint64_t request_id = 0;
    std::uint8_t type = 0;  // response wire type (request | kResponseBit)
    // Protocol version of the request; the response is framed and
    // encoded at the same version (a v1 client never sees v2 bytes).
    std::uint8_t version = kProtocolVersion;
    bool is_search = false;
    std::vector<std::uint8_t> payload;  // ready replies
    std::future<service::SearchResponse> future;  // search replies
    bool collect_trace = false;
  };

  struct Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<PendingReply> queue;
    bool closing = false;  // reader done; writer drains then exits
    std::atomic<bool> done{false};  // both threads finished
  };

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void WriterLoop(Connection* conn);
  /// Dispatches one framed request; returns the reply slot to enqueue.
  PendingReply Dispatch(const FrameHeader& header,
                        const std::vector<std::uint8_t>& payload);
  PendingReply HandleInsert(const FrameHeader& header,
                            const std::vector<std::uint8_t>& payload);
  PendingReply HandleDelete(const FrameHeader& header,
                            const std::vector<std::uint8_t>& payload);
  PendingReply HandleStats(const FrameHeader& header,
                           const std::vector<std::uint8_t>& payload);
  PendingReply HandleAdmin(const FrameHeader& header,
                           const std::vector<std::uint8_t>& payload);
  void ReapFinishedLocked();

  service::SearchService* service_;
  ingest::Compactor& compactor_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_accepting_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool shut_down_ = false;
  std::thread accept_thread_;

  mutable std::mutex conn_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};

  // sofa_net_* mirrors in the service registry (collect hook).
  obs::Registry* registry_;
  obs::Counter* net_connections_ = nullptr;
  obs::Counter* net_frames_received_ = nullptr;
  obs::Counter* net_frames_sent_ = nullptr;
  obs::Counter* net_protocol_errors_ = nullptr;
  obs::Gauge* net_active_ = nullptr;
  std::uint64_t hook_id_ = 0;
};

}  // namespace net
}  // namespace sofa

#endif  // SOFA_NET_SERVER_H_
