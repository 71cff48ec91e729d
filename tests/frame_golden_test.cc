// Golden bytes for the frame format (DESIGN.md §10, §12): the committed
// query log and slow-query log were written by earlier encoders, and the
// hex frames below are request and response frames an earlier wire codec
// produced. Each is decoded, written back through the current encoders and
// compared byte for byte. An encoder and a decoder that drift together
// still agree with each other; they cannot agree with these bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "columnstore/io_util.h"
#include "obs/query_log.h"
#include "obs/query_log_reader.h"
#include "obs/slow_query_log.h"
#include "server/protocol.h"

#ifndef COLGRAPH_SOURCE_DIR
#error "COLGRAPH_SOURCE_DIR must be defined by the build"
#endif

namespace colgraph {
namespace {

const std::string kCorpusDir =
    std::string(COLGRAPH_SOURCE_DIR) + "/fuzz/corpus/fuzz_query_log/";

std::vector<char> FromHex(const std::string& hex) {
  std::vector<char> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::vector<char> ReadBytes(const std::string& path) {
  auto bytes = io::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::vector<char>{};
}

class FrameGoldenTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "colgraph_frame_golden_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(FrameGoldenTest, QueryLogRewritesByteForByte) {
  const std::vector<char> golden = ReadBytes(kCorpusDir + "valid_log");
  ASSERT_EQ(golden.size(), 456u);
  const auto records = obs::DecodeQueryLog(golden, "valid_log");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);

  obs::QueryLogOptions options;
  options.path = path_;
  auto log = obs::QueryLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (const obs::QueryLogRecord& record : *records) {
    log.value()->Append(record);
  }
  ASSERT_TRUE(log.value()->Close().ok());
  EXPECT_EQ(ReadBytes(path_), golden);
}

TEST_F(FrameGoldenTest, SlowQueryLogRewritesByteForByte) {
  const std::string golden_path = kCorpusDir + "slow_selftest_log";
  const std::vector<char> golden = ReadBytes(golden_path);
  ASSERT_EQ(golden.size(), 265u);
  const auto records = obs::ReadSlowQueryLog(golden_path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].request_id, 0xABCDu);
  EXPECT_TRUE((*records)[1].sampled);

  obs::SlowQueryLogOptions options;
  options.path = path_;
  auto log = obs::SlowQueryLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (const obs::SlowQueryRecord& record : *records) {
    log.value()->Append(record);
  }
  ASSERT_TRUE(log.value()->Close().ok());
  EXPECT_EQ(ReadBytes(path_), golden);
}

// The four frames, as hex: a query request without and with the context
// extension, and a response without and with the trace extension.
constexpr const char* kRequestHex =
    "1029000000000000002569e62e4347525101000000fa000000000000001500"
    "00005b312c322c335d20414e44204e4f54205b332c345d";
constexpr const char* kRequestContextHex =
    "10390000000000000084b100cc4347525101000000fa000000000000001500"
    "00005b312c322c335d20414e44204e4f54205b332c345d43475258efcdab89"
    "6745230101000000";
constexpr const char* kResponseHex =
    "11220000000000000092ba9ace434752530000000007000000000000000e00"
    "00006d6174636820323a207230207235";
constexpr const char* kResponseTraceHex =
    "113e0000000000000050880d48434752530000000007000000000000000e00"
    "00006d6174636820323a20723020723543475254efcdab89674523010c0000"
    "007b227370616e73223a5b5d7d";

server::Request GoldenRequest(bool with_context) {
  server::Request request;
  request.op = server::RequestOp::kQuery;
  request.timeout_ms = 250;
  request.body = "[1,2,3] AND NOT [3,4]";
  if (with_context) {
    request.has_context = true;
    request.context.request_id = 0x0123456789ABCDEFull;
    request.context.flags = server::kContextFlagTrace;
  }
  return request;
}

server::Response GoldenResponse(bool with_trace) {
  server::Response response;
  response.snapshot_epoch = 7;
  response.body = "match 2: r0 r5";
  if (with_trace) {
    response.has_trace = true;
    response.request_id = 0x0123456789ABCDEFull;
    response.trace_json = "{\"spans\":[]}";
  }
  return response;
}

// Verifies the golden frame's header and CRC and returns its payload.
std::vector<char> GoldenPayload(const std::vector<char>& frame,
                                uint8_t type) {
  server::FrameHeader header;
  EXPECT_TRUE(server::DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.type, type);
  EXPECT_EQ(header.payload_len, frame.size() - server::kFrameHeaderBytes);
  const char* payload = frame.data() + server::kFrameHeaderBytes;
  EXPECT_TRUE(
      server::VerifyFrameCrc(header, payload, header.payload_len).ok());
  return std::vector<char>(payload, frame.data() + frame.size());
}

TEST(FrameGoldenWireTest, RequestFramesReencodeByteForByte) {
  for (const bool with_context : {false, true}) {
    SCOPED_TRACE(with_context ? "with context" : "without context");
    const std::vector<char> golden =
        FromHex(with_context ? kRequestContextHex : kRequestHex);
    const std::vector<char> payload =
        GoldenPayload(golden, server::kRequestFrame);
    const auto decoded =
        server::DecodeRequestPayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const server::Request want = GoldenRequest(with_context);
    EXPECT_EQ(decoded->op, want.op);
    EXPECT_EQ(decoded->timeout_ms, want.timeout_ms);
    EXPECT_EQ(decoded->body, want.body);
    EXPECT_EQ(decoded->has_context, want.has_context);
    EXPECT_EQ(decoded->context.request_id, want.context.request_id);
    EXPECT_EQ(decoded->context.flags, want.context.flags);

    std::vector<char> encoded;
    server::AppendRequestFrame(want, &encoded);
    EXPECT_EQ(encoded, golden);
  }
}

TEST(FrameGoldenWireTest, ResponseFramesReencodeByteForByte) {
  for (const bool with_trace : {false, true}) {
    SCOPED_TRACE(with_trace ? "with trace" : "without trace");
    const std::vector<char> golden =
        FromHex(with_trace ? kResponseTraceHex : kResponseHex);
    const std::vector<char> payload =
        GoldenPayload(golden, server::kResponseFrame);
    const auto decoded =
        server::DecodeResponsePayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const server::Response want = GoldenResponse(with_trace);
    EXPECT_EQ(decoded->code, want.code);
    EXPECT_EQ(decoded->snapshot_epoch, want.snapshot_epoch);
    EXPECT_EQ(decoded->body, want.body);
    EXPECT_EQ(decoded->has_trace, want.has_trace);
    EXPECT_EQ(decoded->request_id, want.request_id);
    EXPECT_EQ(decoded->trace_json, want.trace_json);

    std::vector<char> encoded;
    server::AppendResponseFrame(want, &encoded);
    EXPECT_EQ(encoded, golden);
  }
}

// server::AppendFrame frames any payload, not only the wire messages.
TEST(FrameGoldenWireTest, AppendFrameWrapsAnyPayload) {
  std::vector<char> frame;
  server::AppendFrame(server::kRequestFrame, {'a', 'b', 'c'}, &frame);
  EXPECT_EQ(frame, FromHex("100300000000000000b73f4b36616263"));
}

}  // namespace
}  // namespace colgraph
