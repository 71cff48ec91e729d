// Corruption torture for the framed logs (DESIGN.md §10), run over a query
// log and a slow-query log alike: a valid closed log must fail with
// Status::Corruption for EVERY byte-truncation — including cuts on frame
// boundaries, which is what the mandatory footer exists to catch — and
// for every single-byte flip (CRC-32C detects every error within one
// byte; the structural checks catch flips in the unchecksummed frame
// headers). Both images are built here from the format, not by the log
// writers, so they stay an independent reference for the readers.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/query_log.h"
#include "obs/query_log_reader.h"
#include "obs/slow_query_log.h"
#include "util/crc32.h"

namespace colgraph {
namespace {

using obs::QueryLogKind;
using obs::QueryLogRecord;

NodeRef N(NodeId id) { return NodeRef{id, 0}; }

// resize+memcpy instead of vector::insert from reinterpreted pointers:
// the insert form trips GCC 12's -Wstringop-overflow false positive
// under COLGRAPH_STRICT.
template <typename T>
void AppendPod(std::vector<char>* out, const T& value) {
  const size_t old = out->size();
  out->resize(old + sizeof(T));
  std::memcpy(out->data() + old, &value, sizeof(T));
}

void AppendString(std::vector<char>* out, const std::string& s) {
  AppendPod(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

// [u8 type][u64 len][u32 crc32c(payload)][payload], computed here.
void AppendFrame(uint8_t type, const std::vector<char>& payload,
                 std::vector<char>* out) {
  out->push_back(static_cast<char>(type));
  AppendPod(out, static_cast<uint64_t>(payload.size()));
  AppendPod(out, Crc32c(payload.data(), payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
}

std::vector<char> QueryRecordFrame(size_t i) {
  QueryLogRecord rec;
  rec.kind = (i % 2 == 0) ? QueryLogKind::kMatch : QueryLogKind::kPathAgg;
  rec.fn = (i % 2 == 0) ? AggFn::kSum : AggFn::kMin;
  rec.edges = {Edge{N(1), N(2)}, Edge{N(2), N(3)}};
  if (i % 3 == 0) rec.isolated_nodes.push_back(N(7));
  rec.graph_view_indexes = {static_cast<uint32_t>(i)};
  rec.phase_us[0] = 11 * (i + 1);
  rec.total_us = 100 + i;
  rec.result_cardinality = i;
  std::vector<char> frame;
  obs::AppendRecordFrame(rec, &frame);
  return frame;
}

// A slow-query record laid out field by field as slow_query_log.h
// specifies it: ids and times, code, op, sampled flag, padding, then the
// length-prefixed query text and spans.
std::vector<char> SlowRecordFrame(size_t i) {
  std::vector<char> payload;
  AppendPod(&payload, static_cast<uint64_t>(1000 + i));  // request_id
  AppendPod(&payload, uint64_t{3});                      // snapshot_epoch
  AppendPod(&payload, static_cast<uint64_t>(2500 + i));  // total_us
  AppendPod(&payload, uint32_t{0});                      // wire_code
  AppendPod(&payload, uint8_t{1});                       // op
  AppendPod(&payload, static_cast<uint8_t>(i % 2));      // sampled
  AppendPod(&payload, uint16_t{0});                      // pad
  AppendString(&payload, "SUM [1,2]");
  AppendPod(&payload, uint32_t{2});  // span count
  AppendString(&payload, "decode");
  AppendPod(&payload, uint64_t{0});
  AppendPod(&payload, uint64_t{40});
  AppendString(&payload, "evaluate");
  AppendPod(&payload, uint64_t{50});
  AppendPod(&payload, static_cast<uint64_t>(2400 + i));
  std::vector<char> frame;
  AppendFrame(0, payload, &frame);
  return frame;
}

// One framed log under torture: its magics and version, a record frame
// and its reader.
struct LogUnderTest {
  const char* name;
  uint32_t magic;
  uint32_t version;
  uint32_t footer_magic;
  std::vector<char> (*record_frame)(size_t i);
  Status (*decode)(const std::vector<char>& data);
};

const LogUnderTest kLogs[] = {
    {"query log", obs::kQueryLogMagic, obs::kQueryLogVersion,
     obs::kQueryLogFooterMagic, QueryRecordFrame,
     [](const std::vector<char>& data) {
       return obs::DecodeQueryLog(data, "torture").status();
     }},
    {"slow query log", obs::kSlowQueryLogMagic, obs::kSlowQueryLogVersion,
     obs::kSlowQueryLogFooterMagic, SlowRecordFrame,
     [](const std::vector<char>& data) {
       return obs::DecodeSlowQueryLog(data, "torture").status();
     }},
};

// Builds a complete, valid log image in memory: header, `n` record
// frames, footer frame — bit-identical to what the writer produces.
std::vector<char> ValidLog(const LogUnderTest& log, size_t n) {
  std::vector<char> data;
  AppendPod(&data, log.magic);
  AppendPod(&data, log.version);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<char> frame = log.record_frame(i);
    data.insert(data.end(), frame.begin(), frame.end());
  }
  std::vector<char> footer;
  AppendPod(&footer, log.footer_magic);
  AppendPod(&footer, static_cast<uint64_t>(n));
  AppendFrame(1, footer, &data);
  return data;
}

TEST(QueryLogTortureTest, HandBuiltImageMatchesTheReader) {
  const std::vector<char> data = ValidLog(kLogs[0], 4);
  const auto records = obs::DecodeQueryLog(data, "torture");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[1].kind, QueryLogKind::kPathAgg);
  EXPECT_EQ((*records)[3].result_cardinality, 3u);

  const auto slow = obs::DecodeSlowQueryLog(ValidLog(kLogs[1], 4), "torture");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(slow->size(), 4u);
  EXPECT_EQ((*slow)[2].request_id, 1002u);
  EXPECT_TRUE((*slow)[3].sampled);
  EXPECT_EQ((*slow)[1].query, "SUM [1,2]");
  ASSERT_EQ((*slow)[1].spans.size(), 2u);
  EXPECT_EQ((*slow)[1].spans[1].name, "evaluate");
  EXPECT_EQ((*slow)[1].spans[1].duration_us, 2401u);
}

TEST(QueryLogTortureTest, EveryByteTruncationIsCorruption) {
  for (const LogUnderTest& log : kLogs) {
    const std::vector<char> data = ValidLog(log, 4);
    for (size_t cut = 0; cut < data.size(); ++cut) {
      const std::vector<char> truncated(
          data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
      const Status s = log.decode(truncated);
      ASSERT_FALSE(s.ok()) << log.name << ": truncation at byte " << cut
                           << " of " << data.size() << " read successfully";
      EXPECT_TRUE(s.IsCorruption())
          << log.name << ": truncation at byte " << cut << ": "
          << s.ToString();
    }
  }
}

TEST(QueryLogTortureTest, EverySingleByteFlipIsCorruption) {
  for (const LogUnderTest& log : kLogs) {
    const std::vector<char> data = ValidLog(log, 3);
    for (size_t pos = 0; pos < data.size(); ++pos) {
      for (const char mask : {char(0x01), char(0x80), char(0xFF)}) {
        std::vector<char> flipped = data;
        flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
        const Status s = log.decode(flipped);
        ASSERT_FALSE(s.ok())
            << log.name << ": bit flip at byte " << pos
            << " read successfully";
        EXPECT_TRUE(s.IsCorruption())
            << log.name << ": bit flip at byte " << pos << ": "
            << s.ToString();
      }
    }
  }
}

TEST(QueryLogTortureTest, TrailingGarbageAndFrameAfterFooter) {
  for (const LogUnderTest& log : kLogs) {
    const std::vector<char> data = ValidLog(log, 2);
    // One stray byte after the footer.
    std::vector<char> trailing = data;
    trailing.push_back(0x5A);
    Status s = log.decode(trailing);
    ASSERT_FALSE(s.ok()) << log.name;
    EXPECT_TRUE(s.IsCorruption()) << log.name << ": " << s.ToString();

    // A whole valid record frame appended after the footer.
    std::vector<char> after = data;
    const std::vector<char> frame = log.record_frame(0);
    after.insert(after.end(), frame.begin(), frame.end());
    s = log.decode(after);
    ASSERT_FALSE(s.ok()) << log.name;
    EXPECT_TRUE(s.IsCorruption()) << log.name << ": " << s.ToString();
    EXPECT_NE(s.ToString().find("after the footer"), std::string::npos)
        << log.name << ": " << s.ToString();
  }
}

TEST(QueryLogTortureTest, FooterCountMismatchIsCorruption) {
  for (const LogUnderTest& log : kLogs) {
    // A 3-record image whose footer claims 2: splice the footer of a
    // 2-record log onto 3 record frames.
    const std::vector<char> three = ValidLog(log, 3);
    const std::vector<char> two = ValidLog(log, 2);
    const size_t footer_bytes = 1 + 8 + 4 + 12;  // header + footer payload
    std::vector<char> spliced(three.begin(), three.end() - footer_bytes);
    spliced.insert(spliced.end(), two.end() - footer_bytes, two.end());
    const Status s = log.decode(spliced);
    ASSERT_FALSE(s.ok()) << log.name;
    EXPECT_TRUE(s.IsCorruption()) << log.name << ": " << s.ToString();
    EXPECT_NE(s.ToString().find("count"), std::string::npos)
        << log.name << ": " << s.ToString();
  }
}

}  // namespace
}  // namespace colgraph
