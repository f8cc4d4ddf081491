#include "net/protocol.h"

#include <cstring>

#include "util/check.h"
#include "util/crc32.h"

namespace sofa {
namespace net {
namespace {

void PutU16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64(std::uint8_t* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t GetU16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t GetU64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(GetU32(in)) |
         (static_cast<std::uint64_t>(GetU32(in + 4)) << 32);
}

// The profile travels as its counters in declaration order: 8 at
// protocol v1, 10 at v2 (the rowq tier counters joined the struct after
// v1 froze).
void WriteProfile(PayloadWriter* writer, const index::QueryProfile& profile,
                  std::uint8_t version) {
  writer->U64(profile.nodes_visited);
  writer->U64(profile.nodes_pruned);
  writer->U64(profile.leaves_collected);
  writer->U64(profile.leaves_abandoned);
  writer->U64(profile.series_lbd_checked);
  writer->U64(profile.series_lbd_pruned);
  writer->U64(profile.series_ed_computed);
  writer->U64(profile.candidates_filtered);
  if (version >= 2) {
    writer->U64(profile.rowq_checked);
    writer->U64(profile.rowq_pruned);
  }
}

bool ReadProfile(PayloadReader* reader, index::QueryProfile* profile,
                 std::uint8_t version) {
  if (!(reader->U64(&profile->nodes_visited) &&
        reader->U64(&profile->nodes_pruned) &&
        reader->U64(&profile->leaves_collected) &&
        reader->U64(&profile->leaves_abandoned) &&
        reader->U64(&profile->series_lbd_checked) &&
        reader->U64(&profile->series_lbd_pruned) &&
        reader->U64(&profile->series_ed_computed) &&
        reader->U64(&profile->candidates_filtered))) {
    return false;
  }
  if (version >= 2) {
    return reader->U64(&profile->rowq_checked) &&
           reader->U64(&profile->rowq_pruned);
  }
  return true;
}

Status Malformed() { return ProtocolError("malformed payload"); }

}  // namespace

void EncodeHeader(const FrameHeader& header, std::uint8_t* out) {
  PutU32(out, kMagic);
  out[4] = header.version;
  out[5] = header.type;
  PutU16(out + 6, header.flags);
  PutU64(out + 8, header.request_id);
  PutU32(out + 16, header.payload_size);
  PutU32(out + 20, header.payload_crc32);
}

Status DecodeHeader(const std::uint8_t* data, std::size_t size,
                    FrameHeader* out) {
  if (size < kHeaderSize) {
    return ProtocolError("short header");
  }
  if (GetU32(data) != kMagic) {
    return ProtocolError("bad magic");
  }
  out->version = data[4];
  if (out->version < kMinProtocolVersion ||
      out->version > kProtocolVersion) {
    return ProtocolError("unsupported protocol version");
  }
  out->type = data[5];
  out->flags = GetU16(data + 6);
  out->request_id = GetU64(data + 8);
  out->payload_size = GetU32(data + 16);
  out->payload_crc32 = GetU32(data + 20);
  if (out->payload_size > kMaxPayloadSize) {
    return ProtocolError("payload size over limit");
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeFrame(
    std::uint8_t type, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload, std::uint8_t version) {
  SOFA_CHECK(payload.size() <= kMaxPayloadSize);
  FrameHeader header;
  header.version = version;
  header.type = type;
  header.request_id = request_id;
  header.payload_size = static_cast<std::uint32_t>(payload.size());
  header.payload_crc32 =
      Crc32(payload.data(), payload.size());
  std::vector<std::uint8_t> frame(kHeaderSize + payload.size());
  EncodeHeader(header, frame.data());
  std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  return frame;
}

Status VerifyPayload(const FrameHeader& header, const std::uint8_t* payload,
                     std::size_t size) {
  if (size != header.payload_size) {
    return ProtocolError("payload size mismatch");
  }
  if (Crc32(payload, size) != header.payload_crc32) {
    return ProtocolError("payload CRC mismatch");
  }
  return OkStatus();
}

void PayloadWriter::U16(std::uint16_t v) {
  std::uint8_t buf[2];
  PutU16(buf, v);
  bytes_.insert(bytes_.end(), buf, buf + 2);
}

void PayloadWriter::U32(std::uint32_t v) {
  std::uint8_t buf[4];
  PutU32(buf, v);
  bytes_.insert(bytes_.end(), buf, buf + 4);
}

void PayloadWriter::U64(std::uint64_t v) {
  std::uint8_t buf[8];
  PutU64(buf, v);
  bytes_.insert(bytes_.end(), buf, buf + 8);
}

void PayloadWriter::F32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U32(bits);
}

void PayloadWriter::F64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void PayloadWriter::SmallString(const std::string& s) {
  SOFA_CHECK(s.size() <= 0xFFFF) << "small string over 64 KiB";
  U16(static_cast<std::uint16_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void PayloadWriter::String(const std::string& s) {
  SOFA_CHECK(s.size() <= kMaxPayloadSize);
  U32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void PayloadWriter::FloatVector(const std::vector<float>& v) {
  SOFA_CHECK(v.size() <= kMaxPayloadSize / sizeof(float));
  U32(static_cast<std::uint32_t>(v.size()));
  for (const float f : v) {
    F32(f);
  }
}

bool PayloadReader::Raw(void* out, std::size_t n) {
  if (size_ - pos_ < n) {
    pos_ = size_;  // poison: every later read fails too
    return false;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

bool PayloadReader::U8(std::uint8_t* v) { return Raw(v, 1); }

bool PayloadReader::U16(std::uint16_t* v) {
  std::uint8_t buf[2];
  if (!Raw(buf, 2)) return false;
  *v = GetU16(buf);
  return true;
}

bool PayloadReader::U32(std::uint32_t* v) {
  std::uint8_t buf[4];
  if (!Raw(buf, 4)) return false;
  *v = GetU32(buf);
  return true;
}

bool PayloadReader::U64(std::uint64_t* v) {
  std::uint8_t buf[8];
  if (!Raw(buf, 8)) return false;
  *v = GetU64(buf);
  return true;
}

bool PayloadReader::F32(float* v) {
  std::uint32_t bits;
  if (!U32(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool PayloadReader::F64(double* v) {
  std::uint64_t bits;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool PayloadReader::SmallString(std::string* s) {
  std::uint16_t n;
  if (!U16(&n) || size_ - pos_ < n) {
    pos_ = size_;
    return false;
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return true;
}

bool PayloadReader::String(std::string* s) {
  std::uint32_t n;
  if (!U32(&n) || size_ - pos_ < n) {
    pos_ = size_;
    return false;
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return true;
}

bool PayloadReader::FloatVector(std::vector<float>* v) {
  std::uint32_t n;
  if (!U32(&n) || (size_ - pos_) / sizeof(float) < n) {
    pos_ = size_;
    return false;
  }
  v->resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!F32(&(*v)[i])) return false;
  }
  return true;
}

void WriteStatus(PayloadWriter* writer, const Status& status) {
  writer->U16(static_cast<std::uint16_t>(status.code()));
  writer->SmallString(status.message().size() <= 0xFFFF
                          ? status.message()
                          : status.message().substr(0, 0xFFFF));
}

bool ReadStatus(PayloadReader* reader, Status* status) {
  std::uint16_t code;
  std::string message;
  if (!reader->U16(&code) || !reader->SmallString(&message)) {
    return false;
  }
  // Unknown codes (a newer peer) degrade to kInternal rather than
  // reinterpreting as an arbitrary known code.
  if (code > static_cast<std::uint16_t>(StatusCode::kInternal)) {
    *status = InternalError("unknown status code from peer");
    return true;
  }
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

std::vector<std::uint8_t> EncodeSearchRequest(
    const service::SearchRequest& request) {
  PayloadWriter writer;
  writer.U32(static_cast<std::uint32_t>(request.k));
  writer.F64(request.epsilon);
  writer.U8(static_cast<std::uint8_t>(request.priority));
  std::uint8_t bits = 0;
  if (request.collect_profile) bits |= 1;
  if (request.collect_trace) bits |= 2;
  writer.U8(bits);
  writer.F64(request.deadline_ms);
  writer.SmallString(request.tenant);
  writer.FloatVector(request.query);
  return writer.Take();
}

Status DecodeSearchRequest(const std::uint8_t* data, std::size_t size,
                           service::SearchRequest* out) {
  PayloadReader reader(data, size);
  std::uint32_t k;
  std::uint8_t priority;
  std::uint8_t bits;
  if (!reader.U32(&k) || !reader.F64(&out->epsilon) ||
      !reader.U8(&priority) || !reader.U8(&bits) ||
      !reader.F64(&out->deadline_ms) || !reader.SmallString(&out->tenant) ||
      !reader.FloatVector(&out->query) || !reader.AtEnd()) {
    return Malformed();
  }
  if (priority >= service::kNumPriorities) {
    return ProtocolError("unknown priority class");
  }
  out->k = k;
  out->priority = static_cast<service::Priority>(priority);
  out->collect_profile = (bits & 1) != 0;
  out->collect_trace = (bits & 2) != 0;
  return OkStatus();
}

std::vector<std::uint8_t> EncodeSearchResponse(
    const service::SearchResponse& response, const Status& status,
    const std::string& trace_text, const std::string& trace_blob,
    std::uint8_t version) {
  PayloadWriter writer;
  WriteStatus(&writer, status);
  writer.U64(response.index_version);
  writer.F64(response.latency_ms);
  writer.U32(static_cast<std::uint32_t>(response.neighbors.size()));
  for (const Neighbor& neighbor : response.neighbors) {
    writer.U32(neighbor.id);
    writer.F32(neighbor.distance);
  }
  WriteProfile(&writer, response.profile, version);
  writer.String(trace_text);
  if (version >= 2) {
    writer.String(trace_blob);  // empty = no structured trace
  }
  return writer.Take();
}

Status DecodeSearchResponse(const std::uint8_t* data, std::size_t size,
                            service::SearchResponse* out,
                            std::string* message, std::string* trace_text,
                            std::string* trace_blob, std::uint8_t version) {
  PayloadReader reader(data, size);
  Status status;
  std::uint32_t count;
  if (!ReadStatus(&reader, &status) || !reader.U64(&out->index_version) ||
      !reader.F64(&out->latency_ms) || !reader.U32(&count) ||
      count > size / 8) {
    return Malformed();
  }
  out->status = status.code();
  *message = status.message();
  out->neighbors.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!reader.U32(&out->neighbors[i].id) ||
        !reader.F32(&out->neighbors[i].distance)) {
      return Malformed();
    }
  }
  if (!ReadProfile(&reader, &out->profile, version) ||
      !reader.String(trace_text)) {
    return Malformed();
  }
  if (version >= 2) {
    std::string blob;
    if (!reader.String(&blob)) {
      return Malformed();
    }
    if (trace_blob != nullptr) {
      *trace_blob = std::move(blob);
    }
  } else if (trace_blob != nullptr) {
    trace_blob->clear();
  }
  if (!reader.AtEnd()) {
    return Malformed();
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeInsertRequest(const std::vector<float>& row) {
  PayloadWriter writer;
  writer.FloatVector(row);
  return writer.Take();
}

Status DecodeInsertRequest(const std::uint8_t* data, std::size_t size,
                           std::vector<float>* row) {
  PayloadReader reader(data, size);
  if (!reader.FloatVector(row) || !reader.AtEnd()) {
    return Malformed();
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeInsertResponse(const Status& status,
                                               std::uint32_t id) {
  PayloadWriter writer;
  WriteStatus(&writer, status);
  writer.U32(id);
  return writer.Take();
}

Status DecodeInsertResponse(const std::uint8_t* data, std::size_t size,
                            Status* status, std::uint32_t* id) {
  PayloadReader reader(data, size);
  if (!ReadStatus(&reader, status) || !reader.U32(id) || !reader.AtEnd()) {
    return Malformed();
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeDeleteRequest(std::uint32_t id) {
  PayloadWriter writer;
  writer.U32(id);
  return writer.Take();
}

Status DecodeDeleteRequest(const std::uint8_t* data, std::size_t size,
                           std::uint32_t* id) {
  PayloadReader reader(data, size);
  if (!reader.U32(id) || !reader.AtEnd()) {
    return Malformed();
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeDeleteResponse(const Status& status) {
  PayloadWriter writer;
  WriteStatus(&writer, status);
  return writer.Take();
}

Status DecodeDeleteResponse(const std::uint8_t* data, std::size_t size,
                            Status* status) {
  PayloadReader reader(data, size);
  if (!ReadStatus(&reader, status) || !reader.AtEnd()) {
    return Malformed();
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeStatsRequest(StatsFormat format) {
  PayloadWriter writer;
  writer.U8(static_cast<std::uint8_t>(format));
  return writer.Take();
}

Status DecodeStatsRequest(const std::uint8_t* data, std::size_t size,
                          StatsFormat* format) {
  PayloadReader reader(data, size);
  std::uint8_t raw;
  if (!reader.U8(&raw) || !reader.AtEnd()) {
    return Malformed();
  }
  if (raw > static_cast<std::uint8_t>(StatsFormat::kPretty)) {
    return ProtocolError("unknown stats format");
  }
  *format = static_cast<StatsFormat>(raw);
  return OkStatus();
}

std::vector<std::uint8_t> EncodeStatsResponse(const Status& status,
                                              const std::string& text) {
  PayloadWriter writer;
  WriteStatus(&writer, status);
  writer.String(text);
  return writer.Take();
}

Status DecodeStatsResponse(const std::uint8_t* data, std::size_t size,
                           Status* status, std::string* text) {
  PayloadReader reader(data, size);
  if (!ReadStatus(&reader, status) || !reader.String(text) ||
      !reader.AtEnd()) {
    return Malformed();
  }
  return OkStatus();
}

std::vector<std::uint8_t> EncodeAdminRequest(AdminOp op) {
  PayloadWriter writer;
  writer.U8(static_cast<std::uint8_t>(op));
  return writer.Take();
}

Status DecodeAdminRequest(const std::uint8_t* data, std::size_t size,
                          AdminOp* op) {
  PayloadReader reader(data, size);
  std::uint8_t raw;
  if (!reader.U8(&raw) || !reader.AtEnd()) {
    return Malformed();
  }
  if (raw < static_cast<std::uint8_t>(AdminOp::kPersist) ||
      raw > static_cast<std::uint8_t>(AdminOp::kSwap)) {
    return ProtocolError("unknown admin op");
  }
  *op = static_cast<AdminOp>(raw);
  return OkStatus();
}

std::vector<std::uint8_t> EncodeAdminResponse(const Status& status,
                                              std::uint64_t version) {
  PayloadWriter writer;
  WriteStatus(&writer, status);
  writer.U64(version);
  return writer.Take();
}

Status DecodeAdminResponse(const std::uint8_t* data, std::size_t size,
                           Status* status, std::uint64_t* version) {
  PayloadReader reader(data, size);
  if (!ReadStatus(&reader, status) || !reader.U64(version) ||
      !reader.AtEnd()) {
    return Malformed();
  }
  return OkStatus();
}

}  // namespace net
}  // namespace sofa
