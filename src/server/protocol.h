// colgraphd wire protocol (DESIGN.md §12): request/response messages over
// a local stream socket, each one frame of the codec in util/frame.h (the
// frame of the framed logs, DESIGN.md §10). This header adds the frame
// types 0x10 (request) and 0x11 (response), a 64 MiB payload cap, and the
// payloads:
//
// Request payload:
//   [u32 magic 'CGRQ'][u8 op][u8 pad x3][u64 timeout_ms][u32 len][body]
//   optional context extension (tracing, DESIGN.md §15):
//   [u32 magic 'CGRX'][u64 request_id][u8 flags][u8 pad x3]
// Response payload:
//   [u32 magic 'CGRS'][u32 wire code][u64 snapshot_epoch][u32 len][body]
//   optional trace extension (echoed only when the request's context set
//   the trace flag):
//   [u32 magic 'CGRT'][u64 request_id][u32 trace_len][trace JSON]
//
// Compatibility rules for the extensions: a message *without* an extension
// is byte-identical to the pre-extension encoding, so a new peer in the
// default configuration interoperates with an old one in both directions.
// A request *with* a context reaches an old server as trailing bytes and
// is rejected with a clean InvalidArgument — tracing is opt-in per request
// precisely so that clients only send the extension to servers that
// support it. The response extension is strictly demand-driven: a server
// never volunteers it, so an old client (which cannot ask) never sees it.
//
// The body is UTF-8 text: the query / trace input on requests, the
// rendered result (or error message) on responses. Wire codes are a
// frozen enumeration decoupled from StatusCode so the in-memory enum can
// evolve without breaking deployed clients. Every decoder is
// bounds-checked and CRC-verified: a malformed or torn frame surfaces as
// Status::Corruption / InvalidArgument, never as an out-of-bounds read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/frame.h"
#include "util/status.h"

namespace colgraph::server {

// --- Frame layer. ---

inline constexpr uint8_t kRequestFrame = 0x10;
inline constexpr uint8_t kResponseFrame = 0x11;

using colgraph::FrameHeader;
using colgraph::kFrameHeaderBytes;

/// Upper bound on one frame's payload. A hostile or corrupt length prefix
/// must not make the peer allocate unbounded memory.
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t{64} << 20;

/// Parses a frame header from exactly kFrameHeaderBytes of `data`.
/// Rejects unknown frame types and payload lengths above the cap.
[[nodiscard]] Status DecodeFrameHeader(const char* data, FrameHeader* out);

/// Verifies `payload` against the header's CRC-32C.
[[nodiscard]] Status VerifyFrameCrc(const FrameHeader& header,
                                    const char* payload, size_t len);

/// Wraps `payload` in a [type|len|crc|payload] frame appended to `out`.
void AppendFrame(uint8_t type, const std::vector<char>& payload,
                 std::vector<char>* out);

// --- Wire status codes (frozen; see the table in DESIGN.md §12). ---

inline constexpr uint32_t kWireOk = 0;
inline constexpr uint32_t kWireInvalidArgument = 1;
inline constexpr uint32_t kWireNotFound = 2;
inline constexpr uint32_t kWireAlreadyExists = 3;
inline constexpr uint32_t kWireOutOfRange = 4;
inline constexpr uint32_t kWireIOError = 5;
inline constexpr uint32_t kWireCorruption = 6;
inline constexpr uint32_t kWireNotSupported = 7;
inline constexpr uint32_t kWireInternal = 8;
inline constexpr uint32_t kWireDeadlineExceeded = 9;
inline constexpr uint32_t kWireCancelled = 10;
inline constexpr uint32_t kWireResourceExhausted = 11;
inline constexpr uint32_t kWireUnavailable = 12;

uint32_t WireCodeFromStatus(const Status& status);
/// Reconstructs a Status from a wire code + message; unknown codes decode
/// as Internal (a newer server talking to an older client).
Status StatusFromWire(uint32_t code, const std::string& message);

/// The retryability matrix (DESIGN.md §12): a client may safely retry
/// RESOURCE_EXHAUSTED (admission rejection — nothing executed) and
/// UNAVAILABLE (drain / not-yet-up — nothing executed). DEADLINE_EXCEEDED
/// and CANCELLED spent the caller's budget; everything else is a
/// deterministic failure that a retry would only repeat.
bool IsRetryableWireCode(uint32_t code);

// --- Message layer. ---

enum class RequestOp : uint8_t {
  kPing = 0,    ///< liveness probe; response body is "pong"
  kQuery = 1,   ///< body: text query (query/parser.h grammar)
  kIngest = 2,  ///< body: trace lines (workload/trace_loader.h format)
  kStats = 3,   ///< response body: the server's DumpMetricsJson document
};

// --- Request-context extension (tracing, DESIGN.md §15). ---

/// Context flag bit 0: the client asks the server to echo the request's
/// trace in the response extension.
inline constexpr uint8_t kContextFlagTrace = 0x01;

/// \brief Optional per-request identity appended after the request body.
/// The request id is client-generated (any nonzero 64-bit value; the
/// client library draws them from its jittered Rng) and keys the server's
/// trace record and slow-query-log entry for end-to-end attribution.
struct RequestContextExt {
  uint64_t request_id = 0;
  uint8_t flags = 0;

  bool trace() const { return (flags & kContextFlagTrace) != 0; }
};

struct Request {
  RequestOp op = RequestOp::kPing;
  /// Per-request deadline in milliseconds; 0 = no deadline. The server
  /// arms a CancellationToken with it and threads the token through query
  /// evaluation (QueryOptions::cancel).
  uint64_t timeout_ms = 0;
  std::string body;
  /// When true, `context` is encoded as the opt-in extension — send only
  /// to servers that understand it (old servers reject the frame cleanly).
  bool has_context = false;
  RequestContextExt context;
};

struct Response {
  uint32_t code = kWireOk;
  /// Epoch of the engine snapshot that served the request — lets clients
  /// (and the stress tests) attribute a result to one published state.
  uint64_t snapshot_epoch = 0;
  /// Rendered result on OK; error message otherwise.
  std::string body;
  /// Trace echo (set only when the request's context asked for it):
  /// the request id as the server resolved it, plus the server-rendered
  /// trace JSON (RequestContext::ToJson).
  bool has_trace = false;
  uint64_t request_id = 0;
  std::string trace_json;

  bool ok() const { return code == kWireOk; }
  /// The response's Status (OK, or StatusFromWire(code, body)).
  Status ToStatus() const;
};

/// Serializes a request/response as one complete frame appended to `out`.
void AppendRequestFrame(const Request& request, std::vector<char>* out);
void AppendResponseFrame(const Response& response, std::vector<char>* out);

/// Parses a request/response payload (frame header and CRC already
/// verified). Bounds-checked; corrupt magic/lengths are InvalidArgument.
[[nodiscard]] StatusOr<Request> DecodeRequestPayload(const char* data,
                                                     size_t len);
[[nodiscard]] StatusOr<Response> DecodeResponsePayload(const char* data,
                                                       size_t len);

}  // namespace colgraph::server
