// The SOFA binary wire protocol: length-prefixed, CRC-framed, versioned
// frames over a byte stream (TCP). docs/PROTOCOL.md is the normative
// byte-level spec; this header is its implementation. Everything is
// little-endian.
//
// Frame = 24-byte header + payload:
//
//   offset  size  field
//   0       4     magic 0x41464F53 ("SOFA" as LE bytes)
//   4       1     version (kMinProtocolVersion..kProtocolVersion)
//   5       1     type (MessageType; responses set kResponseBit)
//   6       2     flags (reserved, 0)
//   8       8     request_id (echoed verbatim in the response)
//   16      4     payload_size (bytes after the header)
//   20      4     payload_crc32 (IEEE CRC-32 of the payload bytes)
//
// The payload codecs below serialize exactly the wire fields of the
// transport-neutral request/response structs (service/request.h) — the
// in-process-only members (absolute deadline, shared trace handle) never
// cross the wire. Every response payload begins with a u16 StatusCode +
// length-prefixed message, so error vocabulary is identical on both
// transports. Decoders never trust a length field: every read is
// bounds-checked and a short/corrupt payload decodes to kProtocolError,
// not a crash.

#ifndef SOFA_NET_PROTOCOL_H_
#define SOFA_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.h"
#include "util/status.h"

namespace sofa {
namespace net {

constexpr std::uint32_t kMagic = 0x41464F53u;  // "SOFA" little-endian

/// v1: original frame set. v2: SEARCH responses carry the full
/// 10-counter profile (its last two slots always 0) plus the serialized
/// trace blob (obs/trace_serde.h). Servers accept both versions and
/// answer each request at the version it arrived with; clients speak the
/// newest. See docs/PROTOCOL.md, "Versioning".
constexpr std::uint8_t kProtocolVersion = 2;
constexpr std::uint8_t kMinProtocolVersion = 1;
constexpr std::size_t kHeaderSize = 24;

/// Refuse absurd frames before allocating: queries and stats dumps fit
/// comfortably; anything larger is a corrupt or hostile length field.
constexpr std::uint32_t kMaxPayloadSize = 64u << 20;  // 64 MiB

/// Request kinds. A response echoes the request's type with kResponseBit
/// set.
enum class MessageType : std::uint8_t {
  kSearch = 1,
  kInsert = 2,
  kDelete = 3,
  kStats = 4,
  kAdmin = 5,
};

constexpr std::uint8_t kResponseBit = 0x80;

/// Admin surface operations (ADMIN request payload). Value 1 stays
/// unassigned: older clients may still send it, and it must keep
/// decoding as "unknown admin op" like any value outside 2–4.
enum class AdminOp : std::uint8_t {
  kPersist = 2,  // Compactor::PersistNow() — generation store commit
  kCompact = 3,  // Compactor::Flush() — fold pending mutations in
  kSwap = 4,     // republish the current generation (version bump)
};

/// STATS dump formats.
enum class StatsFormat : std::uint8_t {
  kJson = 0,
  kPrometheus = 1,
  kPretty = 2,
};

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc32 = 0;
};

/// Serializes `header` into exactly kHeaderSize bytes at `out`.
void EncodeHeader(const FrameHeader& header, std::uint8_t* out);

/// Parses and validates a header (magic, supported version range,
/// payload bound). `size` must be at least kHeaderSize; out->version
/// reports the peer's actual version (1 or 2).
Status DecodeHeader(const std::uint8_t* data, std::size_t size,
                    FrameHeader* out);

/// One complete frame: header (with computed CRC) + payload. `version`
/// lets a server answer a v1 peer with v1 frames.
std::vector<std::uint8_t> EncodeFrame(std::uint8_t type,
                                      std::uint64_t request_id,
                                      const std::vector<std::uint8_t>& payload,
                                      std::uint8_t version = kProtocolVersion);

/// CRC check of a received payload against its header.
Status VerifyPayload(const FrameHeader& header, const std::uint8_t* payload,
                     std::size_t size);

// ---- bounds-checked little-endian payload primitives ----

/// Append-only payload builder.
class PayloadWriter {
 public:
  void U8(std::uint8_t v) { bytes_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void F32(float v);
  void F64(double v);
  /// u16 length + raw bytes (tenants, short strings; ≤ 65535 bytes).
  void SmallString(const std::string& s);
  /// u32 length + raw bytes (stats dumps, trace text).
  void String(const std::string& s);
  /// u32 count + packed f32s.
  void FloatVector(const std::vector<float>& v);

  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Cursor over a received payload; every getter returns false once the
/// payload is exhausted (and never reads past the end), so decoders can
/// thread a single failure path.
class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool U8(std::uint8_t* v);
  bool U16(std::uint16_t* v);
  bool U32(std::uint32_t* v);
  bool U64(std::uint64_t* v);
  bool F32(float* v);
  bool F64(double* v);
  bool SmallString(std::string* s);
  bool String(std::string* s);
  bool FloatVector(std::vector<float>* v);

  /// All bytes consumed (trailing garbage is a protocol error).
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool Raw(void* out, std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- message payload codecs (wire fields only) ----

/// SEARCH request: k, epsilon, priority, collect bits, deadline_ms,
/// tenant, query.
std::vector<std::uint8_t> EncodeSearchRequest(
    const service::SearchRequest& request);
Status DecodeSearchRequest(const std::uint8_t* data, std::size_t size,
                           service::SearchRequest* out);

/// SEARCH response: status + message, index_version, latency_ms,
/// neighbors, profile, rendered trace text. At `version` >= 2 the
/// profile includes two always-0 slots and the payload ends with a
/// structured trace section: `trace_blob` is a SerializeTraceRecord
/// blob, or empty for "no trace" (obs/trace_serde.h); the server then
/// leaves the text field empty and the client renders it from the
/// blob. At version 1 the layout is byte-identical to the original
/// protocol — the two extra slots and the blob never reach a v1 peer,
/// which gets the rendered text.
std::vector<std::uint8_t> EncodeSearchResponse(
    const service::SearchResponse& response, const Status& status,
    const std::string& trace_text, const std::string& trace_blob = std::string(),
    std::uint8_t version = kProtocolVersion);
Status DecodeSearchResponse(const std::uint8_t* data, std::size_t size,
                            service::SearchResponse* out,
                            std::string* message, std::string* trace_text,
                            std::string* trace_blob = nullptr,
                            std::uint8_t version = kProtocolVersion);

/// INSERT request: the row. Response: status + message + assigned id.
std::vector<std::uint8_t> EncodeInsertRequest(const std::vector<float>& row);
Status DecodeInsertRequest(const std::uint8_t* data, std::size_t size,
                           std::vector<float>* row);
std::vector<std::uint8_t> EncodeInsertResponse(const Status& status,
                                               std::uint32_t id);
Status DecodeInsertResponse(const std::uint8_t* data, std::size_t size,
                            Status* status, std::uint32_t* id);

/// DELETE request: the id. Response: status + message.
std::vector<std::uint8_t> EncodeDeleteRequest(std::uint32_t id);
Status DecodeDeleteRequest(const std::uint8_t* data, std::size_t size,
                           std::uint32_t* id);
std::vector<std::uint8_t> EncodeDeleteResponse(const Status& status);
Status DecodeDeleteResponse(const std::uint8_t* data, std::size_t size,
                            Status* status);

/// STATS request: the format. Response: status + message + rendered text.
std::vector<std::uint8_t> EncodeStatsRequest(StatsFormat format);
Status DecodeStatsRequest(const std::uint8_t* data, std::size_t size,
                          StatsFormat* format);
std::vector<std::uint8_t> EncodeStatsResponse(const Status& status,
                                              const std::string& text);
Status DecodeStatsResponse(const std::uint8_t* data, std::size_t size,
                           Status* status, std::string* text);

/// ADMIN request: the op. Response: status + message + resulting index
/// version (kSwap; 0 otherwise).
std::vector<std::uint8_t> EncodeAdminRequest(AdminOp op);
Status DecodeAdminRequest(const std::uint8_t* data, std::size_t size,
                          AdminOp* op);
std::vector<std::uint8_t> EncodeAdminResponse(const Status& status,
                                              std::uint64_t version);
Status DecodeAdminResponse(const std::uint8_t* data, std::size_t size,
                           Status* status, std::uint64_t* version);

/// Shared head of every response payload: u16 code + small message.
void WriteStatus(PayloadWriter* writer, const Status& status);
bool ReadStatus(PayloadReader* reader, Status* status);

}  // namespace net
}  // namespace sofa

#endif  // SOFA_NET_PROTOCOL_H_
