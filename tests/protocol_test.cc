// Wire-protocol unit tests (DESIGN.md §12): frame encode/decode round
// trips, CRC corruption, truncation, hostile length prefixes, the frozen
// wire-code mapping, and the retryability matrix. Every decoder must fail
// with a clean Status on malformed input — never read out of bounds.
#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace colgraph::server {
namespace {

Request MakeRequest() {
  Request request;
  request.op = RequestOp::kQuery;
  request.timeout_ms = 250;
  request.body = "[1,2,3] AND NOT [3,4]";
  return request;
}

TEST(ProtocolTest, RequestRoundTrip) {
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  ASSERT_GT(frame.size(), kFrameHeaderBytes);

  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.type, kRequestFrame);
  ASSERT_EQ(header.payload_len, frame.size() - kFrameHeaderBytes);
  const char* payload = frame.data() + kFrameHeaderBytes;
  ASSERT_TRUE(VerifyFrameCrc(header, payload, header.payload_len).ok());

  const auto decoded = DecodeRequestPayload(payload, header.payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, RequestOp::kQuery);
  EXPECT_EQ(decoded->timeout_ms, 250u);
  EXPECT_EQ(decoded->body, "[1,2,3] AND NOT [3,4]");
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response response;
  response.code = kWireDeadlineExceeded;
  response.snapshot_epoch = 7;
  response.body = "deadline exceeded";
  std::vector<char> frame;
  AppendResponseFrame(response, &frame);

  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.type, kResponseFrame);
  const char* payload = frame.data() + kFrameHeaderBytes;
  ASSERT_TRUE(VerifyFrameCrc(header, payload, header.payload_len).ok());

  const auto decoded = DecodeResponsePayload(payload, header.payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, kWireDeadlineExceeded);
  EXPECT_EQ(decoded->snapshot_epoch, 7u);
  EXPECT_FALSE(decoded->ok());
  EXPECT_TRUE(decoded->ToStatus().IsDeadlineExceeded());
}

TEST(ProtocolTest, EmptyBodyRoundTrips) {
  Request request;  // kPing, no body
  std::vector<char> frame;
  AppendRequestFrame(request, &frame);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  const auto decoded = DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                                            header.payload_len);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, RequestOp::kPing);
  EXPECT_TRUE(decoded->body.empty());
}

TEST(ProtocolTest, CrcCorruptionDetected) {
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  frame.back() ^= 0x01;  // flip one payload bit
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  const Status s = VerifyFrameCrc(header, frame.data() + kFrameHeaderBytes,
                                  header.payload_len);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, UnknownFrameTypeRejected) {
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  frame[0] = 0x7f;
  FrameHeader header;
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), &header).ok());
}

TEST(ProtocolTest, OversizedLengthPrefixRejected) {
  // A hostile peer claims a payload over the cap: the decoder must refuse
  // before anyone allocates.
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  const uint64_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(frame.data() + 1, &huge, sizeof(huge));
  FrameHeader header;
  const Status s = DecodeFrameHeader(frame.data(), &header);
  EXPECT_FALSE(s.ok());
}

TEST(ProtocolTest, TruncatedPayloadRejected) {
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  // Lie about the length: CRC mismatch or bounds-checked decode failure,
  // never a wild read.
  const auto decoded = DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                                            header.payload_len / 2);
  EXPECT_FALSE(decoded.ok());
}

TEST(ProtocolTest, TrailingBytesRejected) {
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  frame.push_back('x');  // one byte past the declared body
  const auto decoded =
      DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  EXPECT_FALSE(decoded.ok());
}

TEST(ProtocolTest, BadMagicRejected) {
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  frame[kFrameHeaderBytes] =
      static_cast<char>(frame[kFrameHeaderBytes] ^ 0xff);
  const auto decoded =
      DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(ProtocolTest, ResponsePayloadIsNotARequest) {
  Response response;
  response.body = "pong";
  std::vector<char> frame;
  AppendResponseFrame(response, &frame);
  // Feeding a response payload to the request decoder trips the magic.
  const auto decoded =
      DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  EXPECT_FALSE(decoded.ok());
}

TEST(ProtocolTest, RequestContextExtensionRoundTrips) {
  Request request = MakeRequest();
  request.has_context = true;
  request.context.request_id = 0xDEADBEEFCAFEF00Dull;
  request.context.flags = kContextFlagTrace;
  std::vector<char> frame;
  AppendRequestFrame(request, &frame);

  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  const auto decoded = DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                                            header.payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->has_context);
  EXPECT_EQ(decoded->context.request_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(decoded->context.trace());
  EXPECT_EQ(decoded->body, request.body);
}

TEST(ProtocolTest, ResponseTraceExtensionRoundTrips) {
  Response response;
  response.snapshot_epoch = 9;
  response.body = "match 1: r0\n";
  response.has_trace = true;
  response.request_id = 42;
  response.trace_json = "{\"events\":[]}";
  std::vector<char> frame;
  AppendResponseFrame(response, &frame);

  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  const auto decoded = DecodeResponsePayload(frame.data() + kFrameHeaderBytes,
                                             header.payload_len);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->has_trace);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->trace_json, "{\"events\":[]}");
  EXPECT_EQ(decoded->body, "match 1: r0\n");
}

TEST(ProtocolTest, ExtensionSizedGarbageStillRejected) {
  // Trailing bytes the size of a context extension but with the wrong
  // magic must not decode as one.
  std::vector<char> frame;
  AppendRequestFrame(MakeRequest(), &frame);
  for (int i = 0; i < 16; ++i) frame.push_back(static_cast<char>(0xEE));
  const auto decoded =
      DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(ProtocolTest, TruncatedContextExtensionRejected) {
  Request request = MakeRequest();
  request.has_context = true;
  request.context.request_id = 7;
  std::vector<char> frame;
  AppendRequestFrame(request, &frame);
  // Drop the extension's trailing pad: the decoder must not accept a
  // partial extension.
  const auto decoded =
      DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes - 2);
  EXPECT_FALSE(decoded.ok());
}

TEST(ProtocolTest, BytesAfterContextExtensionRejected) {
  Request request = MakeRequest();
  request.has_context = true;
  request.context.request_id = 7;
  std::vector<char> frame;
  AppendRequestFrame(request, &frame);
  frame.push_back('x');
  const auto decoded =
      DecodeRequestPayload(frame.data() + kFrameHeaderBytes,
                           frame.size() - kFrameHeaderBytes);
  EXPECT_FALSE(decoded.ok());
}

TEST(ProtocolTest, WireCodeRoundTripsEveryStatus) {
  const Status statuses[] = {
      Status::OK(),
      Status::InvalidArgument("m"),
      Status::NotFound("m"),
      Status::AlreadyExists("m"),
      Status::OutOfRange("m"),
      Status::IOError("m"),
      Status::Corruption("m"),
      Status::NotSupported("m"),
      Status::Internal("m"),
      Status::DeadlineExceeded("m"),
      Status::Cancelled("m"),
      Status::ResourceExhausted("m"),
      Status::Unavailable("m"),
  };
  for (const Status& s : statuses) {
    const uint32_t code = WireCodeFromStatus(s);
    const Status back = StatusFromWire(code, s.message());
    EXPECT_EQ(back.code(), s.code()) << s.ToString();
  }
}

TEST(ProtocolTest, UnknownWireCodeDecodesAsInternal) {
  EXPECT_TRUE(StatusFromWire(9999, "future code").IsInternal());
}

TEST(ProtocolTest, RetryabilityMatrix) {
  // Retryable: nothing executed server-side.
  EXPECT_TRUE(IsRetryableWireCode(kWireResourceExhausted));
  EXPECT_TRUE(IsRetryableWireCode(kWireUnavailable));
  // Not retryable: budget spent or deterministic failure.
  EXPECT_FALSE(IsRetryableWireCode(kWireOk));
  EXPECT_FALSE(IsRetryableWireCode(kWireDeadlineExceeded));
  EXPECT_FALSE(IsRetryableWireCode(kWireCancelled));
  EXPECT_FALSE(IsRetryableWireCode(kWireInvalidArgument));
  EXPECT_FALSE(IsRetryableWireCode(kWireInternal));
  EXPECT_FALSE(IsRetryableWireCode(kWireIOError));
}

}  // namespace
}  // namespace colgraph::server
