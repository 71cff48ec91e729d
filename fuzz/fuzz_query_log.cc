// Fuzz harness for the framed-log readers (obs/framed_log.h): the query
// log (DecodeQueryLog) and the slow-query log (DecodeSlowQueryLog).
// Invariant: either decoder on ANY byte string returns a clean Status —
// never a crash, OOB access, or unbounded allocation — and every query
// record a successful decode yields rebuilds a GraphQuery via ToQuery()
// without tripping any internal check.
//
// Structure-aware: the raw pass exercises magic/framing/CRC rejection; the
// fixup passes rewrite the preamble for each format and re-checksum every
// frame whose length prefix is in bounds, so mutated *payload* bytes reach
// the record decoders (the query log's kind/edge-count/phase parsing, the
// slow log's text-length and span-count bounds) instead of dying at the
// frame CRC.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "obs/query_log.h"
#include "obs/query_log_reader.h"
#include "obs/slow_query_log.h"
#include "util/check.h"
#include "util/frame.h"
#include "util/status.h"

namespace {

void CheckClean(const colgraph::Status& st, const char* format) {
  COLGRAPH_CHECK(st.IsCorruption() || st.IsInvalidArgument())
      << format << " decode must fail cleanly, got: " << st.ToString();
}

void CheckQueryLog(const std::vector<char>& data) {
  const auto result = colgraph::obs::DecodeQueryLog(data, "fuzz input");
  if (!result.ok()) {
    CheckClean(result.status(), "query-log");
    return;
  }
  // A decoded record must be usable: replay rebuilds the query from it.
  for (const colgraph::obs::QueryLogRecord& record : result.value()) {
    const colgraph::GraphQuery query = record.ToQuery();
    (void)query;
  }
}

void CheckSlowQueryLog(const std::vector<char>& data) {
  const auto result = colgraph::obs::DecodeSlowQueryLog(data, "fuzz input");
  if (!result.ok()) CheckClean(result.status(), "slow-query-log");
}

// Stamps the preamble of `format` and re-checksums every in-bounds frame.
std::vector<char> FixupChecksums(std::vector<char> data,
                                 const colgraph::obs::FramedLogFormat& format) {
  if (data.size() < 2 * sizeof(uint32_t)) return data;
  std::memcpy(data.data(), &format.magic, sizeof(uint32_t));
  std::memcpy(data.data() + 4, &format.version, sizeof(uint32_t));
  size_t pos = 2 * sizeof(uint32_t);
  while (data.size() - pos >= colgraph::kFrameHeaderBytes) {
    const colgraph::FrameHeader header =
        colgraph::ParseFrameHeader(data.data() + pos);
    const size_t payload_pos = pos + colgraph::kFrameHeaderBytes;
    if (header.payload_len > data.size() - payload_pos) break;
    const size_t len = static_cast<size_t>(header.payload_len);
    const uint32_t crc = colgraph::FrameCrc(data.data() + payload_pos, len);
    std::memcpy(data.data() + payload_pos - sizeof(crc), &crc, sizeof(crc));
    pos = payload_pos + len;
  }
  return data;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::vector<char> raw(reinterpret_cast<const char*>(data),
                              reinterpret_cast<const char*>(data) + size);
  CheckQueryLog(raw);
  CheckSlowQueryLog(raw);
  CheckQueryLog(FixupChecksums(raw, colgraph::obs::kQueryLogFormat));
  CheckSlowQueryLog(FixupChecksums(raw, colgraph::obs::kSlowQueryLogFormat));
  return 0;
}
