// The framed log (DESIGN.md §10): the one append-only file format, writer
// and reader behind the query log (query_log.h) and the slow-query log
// (slow_query_log.h). A log differs from another only in its magics, its
// version and its record payload.
//
//   preamble:        [u32 magic][u32 version]
//   frame*:          [u8 type][u64 payload_len][u32 crc32c(payload)][payload]
//                    (util/frame.h); type 0 = record, type 1 = footer
//   footer payload:  [u32 footer magic][u64 record_count]
//
// The footer frame is mandatory and must be the file's last bytes: a log
// without it — any truncation, including one cut exactly at a frame
// boundary — reads as Status::Corruption, never as a silently shorter
// log. Records are framed one by one so the writer can stream appends;
// each frame's CRC-32C catches bit rot in place.
//
// Durability: appends are buffered in memory (the hot path pays a mutex +
// memcpy enqueue, no syscalls) and written out once the buffer reaches
// `flush_bytes`; Close() writes the footer and fsyncs. A crash before
// Close() loses only the un-Closed tail — a log is advisory observability
// data, not the database of record (contrast the snapshot's
// write-tmp-then-rename in io_util.h). The first failed write poisons the
// log: later appends drop, each loss is counted, and the error surfaces
// at Close() — a full disk degrades capture, never the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "columnstore/io_util.h"
#include "util/status.h"
#include "util/sync.h"

namespace colgraph {
class FrameCursor;
}  // namespace colgraph

namespace colgraph::obs {

class Counter;

inline constexpr uint8_t kLogRecordFrame = 0;
inline constexpr uint8_t kLogFooterFrame = 1;

/// \brief What tells one framed log from another.
struct FramedLogFormat {
  /// Names the log in errors and warnings ("query log").
  const char* name;
  uint32_t magic;
  uint32_t version;
  uint32_t footer_magic;
  /// Process-wide counter that mirrors records_dropped(), so capture loss
  /// shows up in DumpMetricsJson and not just in one log instance.
  const char* dropped_counter;
};

/// \brief Append-only framed-log writer. Thread-safe: callers serialize
/// their record frame outside the lock, and Enqueue appends it under one
/// mutex. Close() is idempotent and must be called for the log to be
/// readable at all (it writes the mandatory footer).
class FramedLog {
 public:
  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Writes any buffered frames to the file (no fsync, no footer).
  [[nodiscard]] Status Flush();

  /// Flushes, appends the footer frame, fsyncs, and closes. Returns the
  /// first error the log hit, if any. After Close() appends drop silently.
  [[nodiscard]] Status Close();

  /// Records accepted so far (including buffered, unflushed ones).
  uint64_t records_appended() const;

  /// Records lost to a poisoned log: the buffered records discarded by the
  /// failing flush plus every record offered afterwards.
  uint64_t records_dropped() const;

  const std::string& path() const { return path_; }

 protected:
  /// Best-effort Close(); errors only warn on stderr. Logs are owned and
  /// deleted as their derived type.
  ~FramedLog();

  /// Creates (truncating) the file at `path` for a log of `format`.
  static StatusOr<io::AppendFile> CreateFile(const FramedLogFormat& format,
                                             const std::string& path);

  /// Takes the file CreateFile made and buffers the preamble.
  FramedLog(const FramedLogFormat& format, std::string path,
            size_t flush_bytes, io::AppendFile file);

  /// Enqueues one complete record frame; flushes if the buffer is full.
  void Enqueue(const std::vector<char>& frame);

 private:
  // Writes buffer_ to file_; on failure poisons the log.
  void FlushLocked() COLGRAPH_REQUIRES(mu_);

  const FramedLogFormat format_;
  const std::string path_;
  const size_t flush_bytes_;
  Counter& dropped_counter_;

  mutable Mutex mu_;
  io::AppendFile file_ COLGRAPH_GUARDED_BY(mu_);
  std::vector<char> buffer_ COLGRAPH_GUARDED_BY(mu_);
  uint64_t records_ COLGRAPH_GUARDED_BY(mu_) = 0;
  /// Records currently in buffer_ (lost if the next flush fails).
  uint64_t buffered_records_ COLGRAPH_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ COLGRAPH_GUARDED_BY(mu_) = 0;
  bool closed_ COLGRAPH_GUARDED_BY(mu_) = false;
  Status first_error_ COLGRAPH_GUARDED_BY(mu_) = Status::OK();
};

/// Status::Corruption("<msg> in <what>"): the form of every read error.
Status LogCorruption(const std::string& msg, const std::string& what);

/// Validates a whole log image of `format` and hands each record payload,
/// in order, to `record`, which must consume all of it. Checks the
/// preamble and every frame's CRC, requires the footer to be the last
/// frame and its count to match the records read; every length is bounded
/// by the bytes present. Damage is Status::Corruption naming `what`.
[[nodiscard]] Status DecodeFramedLog(
    const std::vector<char>& data, const FramedLogFormat& format,
    const std::string& what,
    const std::function<Status(FrameCursor*)>& record);

}  // namespace colgraph::obs
