// Durable slow-query capture (DESIGN.md §15): an append-only binary log of
// the requests worth keeping — those over a latency threshold, plus an
// optional deterministic 1-in-N sample of everything else — each record
// carrying the full joined trace (server phases + engine phases) keyed by
// the wire-propagated request id. Where the query log (query_log.h)
// records every query's *structure* for replay, this log records selected
// requests' *time breakdown* for diagnosis; tools/colgraph_trace renders
// it.
//
// The file is a framed log (obs/framed_log.h: preamble, CRC-framed
// records, mandatory footer, buffered and poison-on-failure writes) with
// magic "CGSQ", version 1 and footer magic "CGSF". This header adds the
// record payload (AppendSlowQueryFrame) and the capture decision; drops
// are mirrored into `slow_query_log.dropped`, so a full disk degrades
// capture, never serving.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/framed_log.h"
#include "util/status.h"

namespace colgraph::obs {

inline constexpr uint32_t kSlowQueryLogMagic = 0x51534743;        // "CGSQ"
inline constexpr uint32_t kSlowQueryLogFooterMagic = 0x46534743;  // "CGSF"
inline constexpr uint32_t kSlowQueryLogVersion = 1;
inline constexpr FramedLogFormat kSlowQueryLogFormat{
    "slow query log", kSlowQueryLogMagic, kSlowQueryLogVersion,
    kSlowQueryLogFooterMagic, "slow_query_log.dropped"};

/// Query text beyond this many bytes is truncated at Append: the log
/// captures enough to identify the request, not to archive multi-MB
/// ingest bodies.
inline constexpr size_t kMaxSlowQueryTextBytes = 4096;

/// \brief One timed region inside a captured record. Mirrors TraceEvent
/// with an owned name (the record outlives the trace it came from).
struct SlowQuerySpan {
  std::string name;
  uint64_t start_us = 0;  ///< relative to the request start
  uint64_t duration_us = 0;
};

/// \brief One captured request, as recorded in (or decoded from) the log.
struct SlowQueryRecord {
  uint64_t request_id = 0;
  uint64_t snapshot_epoch = 0;
  uint64_t total_us = 0;
  uint32_t wire_code = 0;  ///< server::WireCode of the response
  uint8_t op = 0;          ///< server::RequestOp of the request
  /// True when the record was taken by the 1-in-N sampler rather than the
  /// latency threshold — samples are a workload cross-section, not
  /// outliers, and consumers must not mix the two populations.
  bool sampled = false;
  /// Request body, truncated to kMaxSlowQueryTextBytes.
  std::string query;
  /// The joined trace: server phases + engine phases, completion order.
  std::vector<SlowQuerySpan> spans;
};

/// \brief Capture policy + file configuration (DaemonOptions::slow_query_log).
struct SlowQueryLogOptions {
  /// Log file path; empty disables capture (the default).
  std::string path;
  /// Requests at or above this total latency are always captured.
  uint64_t threshold_us = 20 * 1000;
  /// Additionally capture every Nth request regardless of latency
  /// (deterministic counter, so tests and overhead are predictable);
  /// 0 disables sampling.
  uint64_t sample_every = 0;
  /// Buffered bytes before the writer flushes to the file; the floor of 1
  /// effectively means "flush every record" — useful in tests.
  size_t flush_bytes = size_t{64} * 1024;
};

/// \brief Append-only slow-query-log writer (a FramedLog). Thread-safe:
/// connection workers decide and append concurrently.
class SlowQueryLog : public FramedLog {
 public:
  /// Creates (truncating) the log file and writes the header.
  static StatusOr<std::unique_ptr<SlowQueryLog>> Open(
      SlowQueryLogOptions options);

  /// The capture decision for a finished request: true when `total_us`
  /// meets the threshold or the deterministic sampler picks this request.
  /// `sampled_out` (may be null) reports which rule fired — threshold wins
  /// when both do. Counts every offered request, so call exactly once per
  /// request.
  bool AdmitForCapture(uint64_t total_us, bool* sampled_out);

  /// Serializes one record outside the lock (query text truncated to
  /// kMaxSlowQueryTextBytes) and enqueues it.
  void Append(const SlowQueryRecord& record);

  const SlowQueryLogOptions& options() const { return options_; }

 private:
  SlowQueryLog(SlowQueryLogOptions options, io::AppendFile file);

  const SlowQueryLogOptions options_;
  std::atomic<uint64_t> offered_{0};  ///< sampler position
};

/// Serializes one record as a complete [type|len|crc|payload] frame,
/// appended to `out`. Exposed for the reader's tests.
void AppendSlowQueryFrame(const SlowQueryRecord& record,
                          std::vector<char>* out);

/// Reads and validates a whole slow-query log. Missing file → IOError;
/// any structural damage, truncation at a frame boundary included, →
/// Corruption.
StatusOr<std::vector<SlowQueryRecord>> ReadSlowQueryLog(
    const std::string& path);

/// Decodes a log already loaded into memory; `what` names the source in
/// error messages.
StatusOr<std::vector<SlowQueryRecord>> DecodeSlowQueryLog(
    const std::vector<char>& data, const std::string& what);

}  // namespace colgraph::obs
