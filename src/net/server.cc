#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/trace.h"
#include "obs/trace_serde.h"
#include "util/check.h"

namespace sofa {
namespace net {
namespace {

// Blocking-socket full read; false on EOF or error (the reader treats
// both as connection end — a half frame is never dispatched).
bool ReadFull(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

// Reads a `size`-byte payload, growing `payload` only as bytes arrive
// (kReadChunk at a time): a header may claim up to kMaxPayloadSize, but
// a connection holds memory only for what its peer actually sent.
bool ReadPayload(int fd, std::size_t size, std::vector<std::uint8_t>* payload) {
  constexpr std::size_t kReadChunk = 64 << 10;
  payload->clear();
  while (payload->size() < size) {
    const std::size_t at = payload->size();
    payload->resize(at + std::min(kReadChunk, size - at));
    if (!ReadFull(fd, payload->data() + at, payload->size() - at)) {
      return false;
    }
  }
  return true;
}

// MSG_NOSIGNAL: a peer that vanished mid-reply must surface as EPIPE,
// not kill the process.
bool SendAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

SofaServer::SofaServer(service::SearchService* service,
                       ingest::Compactor& compactor, ServerConfig config)
    : service_(service), compactor_(compactor), config_(std::move(config)),
      registry_(service->registry()) {
  SOFA_CHECK(service_ != nullptr);
  net_connections_ = registry_->GetCounter("sofa_net_connections_total", {},
                                           "TCP connections accepted");
  net_frames_received_ = registry_->GetCounter(
      "sofa_net_frames_received_total", {}, "Request frames received");
  net_frames_sent_ = registry_->GetCounter("sofa_net_frames_sent_total", {},
                                           "Response frames sent");
  net_protocol_errors_ = registry_->GetCounter(
      "sofa_net_protocol_errors_total", {},
      "Framing and payload decode failures");
  net_active_ = registry_->GetGauge("sofa_net_active_connections", {},
                                    "Currently open connections");
  hook_id_ = registry_->AddCollectHook([this] {
    net_connections_->Set(accepted_.load(std::memory_order_relaxed));
    net_frames_received_->Set(frames_received_.load(std::memory_order_relaxed));
    net_frames_sent_->Set(frames_sent_.load(std::memory_order_relaxed));
    net_protocol_errors_->Set(
        protocol_errors_.load(std::memory_order_relaxed));
    net_active_->Set(static_cast<double>(Stats().active_connections));
  });
}

SofaServer::~SofaServer() {
  Shutdown();
  registry_->RemoveCollectHook(hook_id_);
}

Status SofaServer::Start() {
  SOFA_CHECK(!started_) << "Start() may run once";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError("unparseable host: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        IoError(std::string("bind ") + config_.host + ": " +
                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status status = IoError(std::string("listen: ") +
                                  std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void SofaServer::AcceptLoop() {
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, 100 /*ms*/);
    if (ready <= 0) {
      continue;  // timeout tick (re-check the stop flag) or EINTR
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mutex_);
    ReapFinishedLocked();
    if (stop_accepting_.load(std::memory_order_acquire) ||
        connections_.size() >= config_.max_connections) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_.emplace_back(new Connection());
    Connection* conn = connections_.back().get();
    conn->fd = fd;
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer = std::thread([this, conn] { WriterLoop(conn); });
  }
}

void SofaServer::ReaderLoop(Connection* conn) {
  std::uint8_t header_bytes[kHeaderSize];
  while (ReadFull(conn->fd, header_bytes, kHeaderSize)) {
    FrameHeader header;
    Status status = DecodeHeader(header_bytes, kHeaderSize, &header);
    if (!status.ok()) {
      // The stream cannot be re-synchronized after a bad header — close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    std::vector<std::uint8_t> payload;
    if (!ReadPayload(conn->fd, header.payload_size, &payload)) {
      break;  // truncated frame: peer died mid-send
    }
    status = VerifyPayload(header, payload.data(), payload.size());
    if (!status.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;  // bytes on the wire are not what the peer framed — close
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    PendingReply reply = Dispatch(header, payload);
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->queue.push_back(std::move(reply));
    }
    conn->cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closing = true;
  }
  conn->cv.notify_one();
}

void SofaServer::WriterLoop(Connection* conn) {
  bool send_ok = true;
  while (true) {
    PendingReply reply;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->cv.wait(lock,
                    [conn] { return conn->closing || !conn->queue.empty(); });
      if (conn->queue.empty()) {
        break;  // closing and fully drained
      }
      reply = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    if (reply.is_search) {
      // Blocking on the future here (in queue order) is what keeps
      // responses ordered per connection while requests pipeline.
      service::SearchResponse response = reply.future.get();
      // The trace travels once: as the structured blob at v2 (the
      // client renders the text from it), as rendered text at v1.
      std::string trace_text;
      std::string trace_blob;
      if (reply.collect_trace && response.trace != nullptr) {
        if (reply.version >= 2) {
          trace_blob = obs::SerializeTraceRecord(*response.trace);
        } else {
          trace_text = obs::FormatTrace(*response.trace);
        }
      }
      reply.payload =
          EncodeSearchResponse(response, Status(response.status), trace_text,
                               trace_blob, reply.version);
    }
    if (send_ok) {
      const std::vector<std::uint8_t> frame = EncodeFrame(
          reply.type, reply.request_id, reply.payload, reply.version);
      if (SendAll(conn->fd, frame.data(), frame.size())) {
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Peer is gone; keep draining the queue so every SEARCH future
        // is consumed, but stop writing.
        send_ok = false;
      }
    }
  }
  // Full shutdown unblocks a reader still parked in recv (writer-side
  // failure case); harmless when the reader already exited. The fd is
  // close()d only after both threads are joined (reap/Shutdown) — never
  // while the reader could still be blocked on it.
  ::shutdown(conn->fd, SHUT_RDWR);
  closed_.fetch_add(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

SofaServer::PendingReply SofaServer::Dispatch(
    const FrameHeader& header, const std::vector<std::uint8_t>& payload) {
  switch (static_cast<MessageType>(header.type)) {
    case MessageType::kSearch: {
      PendingReply reply;
      reply.request_id = header.request_id;
      reply.type = header.type | kResponseBit;
      reply.version = header.version;
      service::SearchRequest request;
      const Status decoded =
          DecodeSearchRequest(payload.data(), payload.size(), &request);
      if (!decoded.ok() || request.k == 0) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        const Status status =
            decoded.ok() ? InvalidArgumentError("k must be >= 1") : decoded;
        reply.payload = EncodeSearchResponse(service::SearchResponse{}, status,
                                             "", "", header.version);
        return reply;
      }
      reply.is_search = true;
      reply.collect_trace = request.collect_trace;
      reply.future = service_->Submit(std::move(request));
      return reply;
    }
    case MessageType::kInsert:
      return HandleInsert(header, payload);
    case MessageType::kDelete:
      return HandleDelete(header, payload);
    case MessageType::kStats:
      return HandleStats(header, payload);
    case MessageType::kAdmin:
      return HandleAdmin(header, payload);
    default: {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      PendingReply reply;
      reply.request_id = header.request_id;
      reply.type = header.type | kResponseBit;
      reply.version = header.version;
      PayloadWriter writer;
      WriteStatus(&writer, ProtocolError("unknown message type"));
      reply.payload = writer.Take();
      return reply;
    }
  }
}

SofaServer::PendingReply SofaServer::HandleInsert(
    const FrameHeader& header, const std::vector<std::uint8_t>& payload) {
  PendingReply reply;
  reply.request_id = header.request_id;
  reply.type = header.type | kResponseBit;
  reply.version = header.version;
  std::vector<float> row;
  const Status decoded =
      DecodeInsertRequest(payload.data(), payload.size(), &row);
  if (!decoded.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    reply.payload = EncodeInsertResponse(decoded, 0);
    return reply;
  }
  const StatusOr<std::uint32_t> inserted =
      compactor_.Insert(row.data(), row.size());
  reply.payload = EncodeInsertResponse(inserted.status(),
                                       inserted.ok() ? *inserted : 0);
  return reply;
}

SofaServer::PendingReply SofaServer::HandleDelete(
    const FrameHeader& header, const std::vector<std::uint8_t>& payload) {
  PendingReply reply;
  reply.request_id = header.request_id;
  reply.type = header.type | kResponseBit;
  reply.version = header.version;
  std::uint32_t id = 0;
  const Status decoded =
      DecodeDeleteRequest(payload.data(), payload.size(), &id);
  if (!decoded.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    reply.payload = EncodeDeleteResponse(decoded);
    return reply;
  }
  reply.payload = EncodeDeleteResponse(compactor_.Delete(id));
  return reply;
}

SofaServer::PendingReply SofaServer::HandleStats(
    const FrameHeader& header, const std::vector<std::uint8_t>& payload) {
  PendingReply reply;
  reply.request_id = header.request_id;
  reply.type = header.type | kResponseBit;
  reply.version = header.version;
  StatsFormat format = StatsFormat::kJson;
  const Status decoded =
      DecodeStatsRequest(payload.data(), payload.size(), &format);
  if (!decoded.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    reply.payload = EncodeStatsResponse(decoded, "");
    return reply;
  }
  const std::vector<obs::InstrumentSnapshot> snapshot = registry_->Collect();
  std::string text;
  switch (format) {
    case StatsFormat::kJson:
      text = obs::RenderJson(snapshot);
      break;
    case StatsFormat::kPrometheus:
      text = obs::RenderPrometheus(snapshot);
      break;
    case StatsFormat::kPretty:
      text = obs::RenderPretty(snapshot);
      break;
  }
  reply.payload = EncodeStatsResponse(OkStatus(), text);
  return reply;
}

SofaServer::PendingReply SofaServer::HandleAdmin(
    const FrameHeader& header, const std::vector<std::uint8_t>& payload) {
  PendingReply reply;
  reply.request_id = header.request_id;
  reply.type = header.type | kResponseBit;
  reply.version = header.version;
  AdminOp op = AdminOp::kSwap;
  const Status decoded =
      DecodeAdminRequest(payload.data(), payload.size(), &op);
  if (!decoded.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    reply.payload = EncodeAdminResponse(decoded, 0);
    return reply;
  }
  Status status;
  std::uint64_t version = 0;
  switch (op) {
    case AdminOp::kPersist:
      status = compactor_.PersistNow();
      break;
    case AdminOp::kCompact:
      compactor_.Flush();
      status = OkStatus();
      break;
    case AdminOp::kSwap:
      // Hot-swap republish: push the currently-live snapshot through
      // Publish so a new generation version takes effect (observable in
      // every later SEARCH response's index_version).
      version = service_->Publish(service_->snapshot());
      status = OkStatus();
      break;
  }
  reply.payload = EncodeAdminResponse(status, version);
  return reply;
}

void SofaServer::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  stop_accepting_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& conn : connections_) {
    if (!conn->done.load(std::memory_order_acquire)) {
      // Half-close: the reader sees EOF after the bytes already received,
      // queued work finishes and responses still flush out.
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
}

bool SofaServer::Drained() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& conn : connections_) {
    if (!conn->done.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

void SofaServer::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      if ((*it)->writer.joinable()) (*it)->writer.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void SofaServer::Shutdown() {
  if (!started_ || shut_down_) {
    return;
  }
  shut_down_ = true;
  RequestDrain();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Connection>> remaining;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    remaining.swap(connections_);
  }
  for (const auto& conn : remaining) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    ::close(conn->fd);
  }
}

ServerStats SofaServer::Stats() const {
  ServerStats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected = rejected_.load(std::memory_order_relaxed);
  stats.connections_closed = closed_.load(std::memory_order_relaxed);
  stats.frames_received = frames_received_.load(std::memory_order_relaxed);
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ++stats.active_connections;
      }
    }
  }
  return stats;
}

}  // namespace net
}  // namespace sofa
