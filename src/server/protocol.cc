#include "server/protocol.h"

namespace colgraph::server {

namespace {

constexpr uint32_t kRequestMagic = 0x51524743;   // 'CGRQ' little-endian
constexpr uint32_t kResponseMagic = 0x53524743;  // 'CGRS' little-endian
constexpr uint32_t kContextExtMagic = 0x58524743;  // 'CGRX' little-endian
constexpr uint32_t kTraceExtMagic = 0x54524743;    // 'CGRT' little-endian

Status Truncated() {
  return Status::InvalidArgument("protocol: truncated payload");
}

Status TruncatedBody() {
  return Status::InvalidArgument("protocol: truncated payload body");
}

}  // namespace

Status DecodeFrameHeader(const char* data, FrameHeader* out) {
  *out = ParseFrameHeader(data);
  if (out->type != kRequestFrame && out->type != kResponseFrame) {
    return Status::InvalidArgument("protocol: unknown frame type " +
                                   std::to_string(out->type));
  }
  if (out->payload_len > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "protocol: frame payload length " + std::to_string(out->payload_len) +
        " exceeds the " + std::to_string(kMaxFramePayloadBytes) + "-byte cap");
  }
  return Status::OK();
}

Status VerifyFrameCrc(const FrameHeader& header, const char* payload,
                      size_t len) {
  const uint32_t actual = FrameCrc(payload, len);
  if (actual != header.crc) {
    return Status::Corruption("protocol: frame CRC mismatch (stored " +
                              std::to_string(header.crc) + ", computed " +
                              std::to_string(actual) + ")");
  }
  return Status::OK();
}

void AppendFrame(uint8_t type, const std::vector<char>& payload,
                 std::vector<char>* out) {
  const size_t start = BeginFrame(type, payload.size(), out);
  AppendBytes(out, payload.data(), payload.size());
  EndFrame(start, out);
}

uint32_t WireCodeFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return kWireOk;
    case StatusCode::kInvalidArgument:
      return kWireInvalidArgument;
    case StatusCode::kNotFound:
      return kWireNotFound;
    case StatusCode::kAlreadyExists:
      return kWireAlreadyExists;
    case StatusCode::kOutOfRange:
      return kWireOutOfRange;
    case StatusCode::kIOError:
      return kWireIOError;
    case StatusCode::kCorruption:
      return kWireCorruption;
    case StatusCode::kNotSupported:
      return kWireNotSupported;
    case StatusCode::kInternal:
      return kWireInternal;
    case StatusCode::kDeadlineExceeded:
      return kWireDeadlineExceeded;
    case StatusCode::kCancelled:
      return kWireCancelled;
    case StatusCode::kResourceExhausted:
      return kWireResourceExhausted;
    case StatusCode::kUnavailable:
      return kWireUnavailable;
  }
  return kWireInternal;
}

Status StatusFromWire(uint32_t code, const std::string& message) {
  switch (code) {
    case kWireOk:
      return Status::OK();
    case kWireInvalidArgument:
      return Status::InvalidArgument(message);
    case kWireNotFound:
      return Status::NotFound(message);
    case kWireAlreadyExists:
      return Status::AlreadyExists(message);
    case kWireOutOfRange:
      return Status::OutOfRange(message);
    case kWireIOError:
      return Status::IOError(message);
    case kWireCorruption:
      return Status::Corruption(message);
    case kWireNotSupported:
      return Status::NotSupported(message);
    case kWireInternal:
      return Status::Internal(message);
    case kWireDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case kWireCancelled:
      return Status::Cancelled(message);
    case kWireResourceExhausted:
      return Status::ResourceExhausted(message);
    case kWireUnavailable:
      return Status::Unavailable(message);
    default:
      return Status::Internal("unknown wire status code " +
                              std::to_string(code) + ": " + message);
  }
}

bool IsRetryableWireCode(uint32_t code) {
  return code == kWireResourceExhausted || code == kWireUnavailable;
}

Status Response::ToStatus() const {
  return ok() ? Status::OK() : StatusFromWire(code, body);
}

void AppendRequestFrame(const Request& request, std::vector<char>* out) {
  // 20 bytes before the body and 16 for the context extension.
  const size_t start = BeginFrame(kRequestFrame, 36 + request.body.size(), out);
  AppendPod(out, kRequestMagic);
  AppendPod(out, static_cast<uint8_t>(request.op));
  AppendPod(out, uint8_t{0});
  AppendPod(out, uint16_t{0});  // pad: keeps timeout_ms aligned
  AppendPod(out, request.timeout_ms);
  AppendPod(out, static_cast<uint32_t>(request.body.size()));
  AppendBytes(out, request.body.data(), request.body.size());
  if (request.has_context) {
    // Opt-in extension: a context-free request stays byte-identical to the
    // pre-extension encoding (the compat contract in the header comment).
    AppendPod(out, kContextExtMagic);
    AppendPod(out, request.context.request_id);
    AppendPod(out, request.context.flags);
    AppendPod(out, uint8_t{0});
    AppendPod(out, uint16_t{0});  // pad: keeps the payload end aligned
  }
  EndFrame(start, out);
}

void AppendResponseFrame(const Response& response, std::vector<char>* out) {
  // 20 bytes before the body and 16 before the trace.
  const size_t start =
      BeginFrame(kResponseFrame,
                 36 + response.body.size() + response.trace_json.size(), out);
  AppendPod(out, kResponseMagic);
  AppendPod(out, response.code);
  AppendPod(out, response.snapshot_epoch);
  AppendPod(out, static_cast<uint32_t>(response.body.size()));
  AppendBytes(out, response.body.data(), response.body.size());
  if (response.has_trace) {
    AppendPod(out, kTraceExtMagic);
    AppendPod(out, response.request_id);
    AppendPod(out, static_cast<uint32_t>(response.trace_json.size()));
    AppendBytes(out, response.trace_json.data(), response.trace_json.size());
  }
  EndFrame(start, out);
}

StatusOr<Request> DecodeRequestPayload(const char* data, size_t len) {
  FrameCursor reader(data, len);
  uint32_t magic = 0;
  if (!reader.Read(&magic)) return Truncated();
  if (magic != kRequestMagic) {
    return Status::InvalidArgument("protocol: bad request magic");
  }
  uint8_t op = 0, pad8 = 0;
  uint16_t pad16 = 0;
  if (!reader.Read(&op) || !reader.Read(&pad8) || !reader.Read(&pad16)) {
    return Truncated();
  }
  if (op > static_cast<uint8_t>(RequestOp::kStats)) {
    return Status::InvalidArgument("protocol: unknown request op " +
                                   std::to_string(op));
  }
  Request request;
  request.op = static_cast<RequestOp>(op);
  uint32_t body_len = 0;
  if (!reader.Read(&request.timeout_ms) || !reader.Read(&body_len)) {
    return Truncated();
  }
  if (!reader.ReadString(body_len, &request.body)) return TruncatedBody();
  if (!reader.AtEnd()) {
    // Anything after the body must be exactly one context extension; its
    // magic distinguishes the extension from garbage trailing bytes.
    uint32_t ext_magic = 0;
    if (!reader.Read(&ext_magic)) return Truncated();
    if (ext_magic != kContextExtMagic) {
      return Status::InvalidArgument(
          "protocol: trailing bytes after request");
    }
    uint8_t ext_pad8 = 0;
    uint16_t ext_pad16 = 0;
    if (!reader.Read(&request.context.request_id) ||
        !reader.Read(&request.context.flags) || !reader.Read(&ext_pad8) ||
        !reader.Read(&ext_pad16)) {
      return Truncated();
    }
    if (!reader.AtEnd()) {
      return Status::InvalidArgument(
          "protocol: trailing bytes after request context");
    }
    request.has_context = true;
  }
  return request;
}

StatusOr<Response> DecodeResponsePayload(const char* data, size_t len) {
  FrameCursor reader(data, len);
  uint32_t magic = 0;
  if (!reader.Read(&magic)) return Truncated();
  if (magic != kResponseMagic) {
    return Status::InvalidArgument("protocol: bad response magic");
  }
  Response response;
  uint32_t body_len = 0;
  if (!reader.Read(&response.code) || !reader.Read(&response.snapshot_epoch) ||
      !reader.Read(&body_len)) {
    return Truncated();
  }
  if (!reader.ReadString(body_len, &response.body)) return TruncatedBody();
  if (!reader.AtEnd()) {
    uint32_t ext_magic = 0;
    if (!reader.Read(&ext_magic)) return Truncated();
    if (ext_magic != kTraceExtMagic) {
      return Status::InvalidArgument(
          "protocol: trailing bytes after response");
    }
    uint32_t trace_len = 0;
    if (!reader.Read(&response.request_id) || !reader.Read(&trace_len)) {
      return Truncated();
    }
    if (!reader.ReadString(trace_len, &response.trace_json)) {
      return TruncatedBody();
    }
    if (!reader.AtEnd()) {
      return Status::InvalidArgument(
          "protocol: trailing bytes after response trace");
    }
    response.has_trace = true;
  }
  return response;
}

}  // namespace colgraph::server
