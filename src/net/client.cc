#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "obs/trace_serde.h"

namespace sofa {
namespace net {
namespace {

// Client-side stage names of the joined timeline (literal lifetime, as
// TraceSpan::name requires).
constexpr char kSpanClient[] = "client";
constexpr char kSpanSerialize[] = "serialize";
constexpr char kSpanSend[] = "send";
constexpr char kSpanServerQueue[] = "server_queue";
constexpr char kSpanServer[] = "server";
constexpr char kSpanReceive[] = "receive";
constexpr char kSpanDecode[] = "decode";

double MsSince(std::chrono::steady_clock::time_point origin,
               std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - origin).count();
}

// One end-to-end timeline: client spans in the client clock, the server
// record re-based into the gap the request_id echo proves it occupied.
obs::TraceRecord JoinTimeline(double serialize_end_ms, double send_end_ms,
                              double recv_begin_ms, double recv_end_ms,
                              double decode_end_ms, bool has_server,
                              const obs::TraceRecord& server) {
  obs::TraceRecord joined;
  joined.query_id = server.query_id;
  joined.total_ms = decode_end_ms;
  joined.deadline_expired = server.deadline_expired;

  joined.spans.push_back(
      obs::TraceSpan{kSpanClient, -1, 0.0, decode_end_ms, obs::SpanPerf{}});
  joined.spans.push_back(obs::TraceSpan{kSpanSerialize, 0, 0.0,
                                        serialize_end_ms, obs::SpanPerf{}});
  joined.spans.push_back(obs::TraceSpan{kSpanSend, 0, serialize_end_ms,
                                        send_end_ms, obs::SpanPerf{}});
  if (has_server) {
    // The server measured `server.total_ms` of the send → receive gap;
    // the remainder is the wire plus server-side framing and response
    // queueing — everything the service's own clock never saw.
    const double gap = std::max(0.0, recv_end_ms - send_end_ms);
    const double wait = std::max(0.0, gap - server.total_ms);
    const double base = send_end_ms + wait;
    joined.spans.push_back(obs::TraceSpan{kSpanServerQueue, 0, send_end_ms,
                                          base, obs::SpanPerf{}});
    const int server_span = static_cast<int>(joined.spans.size());
    joined.spans.push_back(obs::TraceSpan{
        kSpanServer, 0, base, base + server.total_ms, obs::SpanPerf{}});
    for (const obs::TraceSpan& span : server.spans) {
      obs::TraceSpan rebased = span;
      rebased.start_ms += base;
      rebased.end_ms += base;
      rebased.parent =
          span.parent < 0 ? server_span : span.parent + server_span + 1;
      joined.spans.push_back(rebased);
    }
    joined.counters = server.counters;
  }
  joined.spans.push_back(obs::TraceSpan{kSpanReceive, 0, recv_begin_ms,
                                        recv_end_ms, obs::SpanPerf{}});
  joined.spans.push_back(obs::TraceSpan{kSpanDecode, 0, recv_end_ms,
                                        decode_end_ms, obs::SpanPerf{}});
  return joined;
}

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

SofaClient::~SofaClient() { Close(); }

Status SofaClient::Connect(const std::string& host, std::uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("unparseable host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = IoError(std::string("connect ") + host + ": " +
                                  std::strerror(errno));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return OkStatus();
}

void SofaClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  traced_sends_.clear();
}

Status SofaClient::SendFrame(MessageType type, std::uint64_t request_id,
                             const std::vector<std::uint8_t>& payload) {
  if (fd_ < 0) {
    return IoError("not connected");
  }
  const std::vector<std::uint8_t> frame =
      EncodeFrame(static_cast<std::uint8_t>(type), request_id, payload);
  if (!SendAll(fd_, frame.data(), frame.size())) {
    Close();
    return IoError("send failed (connection lost)");
  }
  return OkStatus();
}

Status SofaClient::ReadFrame(FrameHeader* header,
                             std::vector<std::uint8_t>* payload) {
  if (fd_ < 0) {
    return IoError("not connected");
  }
  std::uint8_t header_bytes[kHeaderSize];
  if (!ReadFull(fd_, header_bytes, kHeaderSize)) {
    Close();
    return IoError("connection closed by server");
  }
  Status status = DecodeHeader(header_bytes, kHeaderSize, header);
  if (!status.ok()) {
    Close();
    return status;
  }
  payload->resize(header->payload_size);
  if (!ReadFull(fd_, payload->data(), payload->size())) {
    Close();
    return IoError("truncated response");
  }
  status = VerifyPayload(*header, payload->data(), payload->size());
  if (!status.ok()) {
    Close();
  }
  return status;
}

Status SofaClient::Call(MessageType type,
                        const std::vector<std::uint8_t>& payload,
                        std::vector<std::uint8_t>* response_payload) {
  const std::uint64_t request_id = next_request_id_++;
  Status status = SendFrame(type, request_id, payload);
  if (!status.ok()) {
    return status;
  }
  FrameHeader header;
  status = ReadFrame(&header, response_payload);
  if (!status.ok()) {
    return status;
  }
  if (header.type != (static_cast<std::uint8_t>(type) | kResponseBit) ||
      header.request_id != request_id) {
    Close();
    return ProtocolError("response type/id mismatch");
  }
  return OkStatus();
}

Status SofaClient::Search(const service::SearchRequest& request,
                          service::SearchResponse* out,
                          std::string* trace_text, std::string* message,
                          WireTrace* wire_trace) {
  std::uint64_t request_id = 0;
  const Status sent = SendSearch(request, &request_id);
  if (!sent.ok()) {
    return sent;
  }
  std::uint64_t response_id = 0;
  const Status received = ReceiveSearchResponse(&response_id, out, trace_text,
                                                message, wire_trace);
  if (!received.ok()) {
    return received;
  }
  if (response_id != request_id) {
    Close();
    return ProtocolError("response id mismatch");
  }
  return OkStatus();
}

Status SofaClient::SendSearch(const service::SearchRequest& request,
                              std::uint64_t* request_id) {
  *request_id = next_request_id_++;
  if (!request.collect_trace) {
    return SendFrame(MessageType::kSearch, *request_id,
                     EncodeSearchRequest(request));
  }
  SendTiming timing;
  timing.origin = std::chrono::steady_clock::now();
  const std::vector<std::uint8_t> payload = EncodeSearchRequest(request);
  timing.serialize_end_ms =
      MsSince(timing.origin, std::chrono::steady_clock::now());
  const Status sent = SendFrame(MessageType::kSearch, *request_id, payload);
  if (!sent.ok()) {
    return sent;  // Close() already wiped traced_sends_
  }
  timing.send_end_ms = MsSince(timing.origin, std::chrono::steady_clock::now());
  traced_sends_[*request_id] = timing;
  return OkStatus();
}

Status SofaClient::ReceiveSearchResponse(std::uint64_t* request_id,
                                         service::SearchResponse* out,
                                         std::string* trace_text,
                                         std::string* message,
                                         WireTrace* wire_trace) {
  const std::chrono::steady_clock::time_point recv_begin =
      std::chrono::steady_clock::now();
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  Status status = ReadFrame(&header, &payload);
  if (!status.ok()) {
    return status;
  }
  if (header.type !=
      (static_cast<std::uint8_t>(MessageType::kSearch) | kResponseBit)) {
    Close();
    return ProtocolError("unexpected response type");
  }
  *request_id = header.request_id;
  const std::chrono::steady_clock::time_point recv_end =
      std::chrono::steady_clock::now();
  std::string local_message;
  std::string local_trace;
  std::string trace_blob;
  status = DecodeSearchResponse(
      payload.data(), payload.size(), out,
      message != nullptr ? message : &local_message,
      trace_text != nullptr ? trace_text : &local_trace, &trace_blob,
      header.version);
  if (!status.ok()) {
    Close();
    return status;
  }

  // Structured trace section (v2): the server record travels verbatim.
  // A blob version from the future decodes as "no trace", never as an
  // error (see obs/trace_serde.h).
  obs::TraceRecord server_record;
  const bool has_server_trace =
      !trace_blob.empty() &&
      obs::DeserializeTraceRecord(trace_blob, &server_record);
  if (has_server_trace) {
    out->trace =
        std::make_shared<const obs::TraceRecord>(server_record);
    // A v2 server sends the trace as the blob only; render the text here.
    if (trace_text != nullptr) {
      *trace_text = obs::FormatTrace(server_record);
    }
  }

  if (wire_trace != nullptr) {
    // Times relative to the request's serialize start; a receive with no
    // recorded send (untraced request, reconnect) anchors at recv_begin.
    const auto timing = traced_sends_.find(header.request_id);
    std::chrono::steady_clock::time_point origin = recv_begin;
    double serialize_end_ms = 0.0;
    double send_end_ms = 0.0;
    if (timing != traced_sends_.end()) {
      origin = timing->second.origin;
      serialize_end_ms = timing->second.serialize_end_ms;
      send_end_ms = timing->second.send_end_ms;
    }
    const double recv_begin_ms = MsSince(origin, recv_begin);
    const double recv_end_ms = MsSince(origin, recv_end);
    const double decode_end_ms =
        MsSince(origin, std::chrono::steady_clock::now());
    wire_trace->has_server_trace = has_server_trace;
    wire_trace->server = server_record;
    wire_trace->joined = JoinTimeline(
        serialize_end_ms, send_end_ms, std::max(recv_begin_ms, send_end_ms),
        recv_end_ms, decode_end_ms, has_server_trace, server_record);
  }
  traced_sends_.erase(header.request_id);
  return status;
}

StatusOr<std::uint32_t> SofaClient::Insert(const std::vector<float>& row) {
  std::vector<std::uint8_t> payload;
  Status status = Call(MessageType::kInsert, EncodeInsertRequest(row),
                       &payload);
  if (!status.ok()) {
    return status;
  }
  Status server_status;
  std::uint32_t id = 0;
  status = DecodeInsertResponse(payload.data(), payload.size(),
                                &server_status, &id);
  if (!status.ok()) {
    Close();
    return status;
  }
  if (!server_status.ok()) {
    return server_status;
  }
  return id;
}

Status SofaClient::Delete(std::uint32_t id) {
  std::vector<std::uint8_t> payload;
  Status status = Call(MessageType::kDelete, EncodeDeleteRequest(id),
                       &payload);
  if (!status.ok()) {
    return status;
  }
  Status server_status;
  status = DecodeDeleteResponse(payload.data(), payload.size(),
                                &server_status);
  if (!status.ok()) {
    Close();
    return status;
  }
  return server_status;
}

StatusOr<std::string> SofaClient::Stats(StatsFormat format) {
  std::vector<std::uint8_t> payload;
  Status status = Call(MessageType::kStats, EncodeStatsRequest(format),
                       &payload);
  if (!status.ok()) {
    return status;
  }
  Status server_status;
  std::string text;
  status = DecodeStatsResponse(payload.data(), payload.size(),
                               &server_status, &text);
  if (!status.ok()) {
    Close();
    return status;
  }
  if (!server_status.ok()) {
    return server_status;
  }
  return text;
}

StatusOr<std::uint64_t> SofaClient::Admin(AdminOp op) {
  std::vector<std::uint8_t> payload;
  Status status = Call(MessageType::kAdmin, EncodeAdminRequest(op), &payload);
  if (!status.ok()) {
    return status;
  }
  Status server_status;
  std::uint64_t version = 0;
  status = DecodeAdminResponse(payload.data(), payload.size(),
                               &server_status, &version);
  if (!status.ok()) {
    Close();
    return status;
  }
  if (!server_status.ok()) {
    return server_status;
  }
  return version;
}

}  // namespace net
}  // namespace sofa
