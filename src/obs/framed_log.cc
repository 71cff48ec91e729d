#include "obs/framed_log.h"

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/frame.h"

namespace colgraph::obs {

namespace {

constexpr size_t kFooterPayloadBytes = sizeof(uint32_t) + sizeof(uint64_t);

}  // namespace

StatusOr<io::AppendFile> FramedLog::CreateFile(const FramedLogFormat& format,
                                               const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument(std::string(format.name) +
                                   " path must not be empty");
  }
  return io::AppendFile::Create(path);
}

FramedLog::FramedLog(const FramedLogFormat& format, std::string path,
                     size_t flush_bytes, io::AppendFile file)
    : format_(format),
      path_(std::move(path)),
      flush_bytes_(flush_bytes),
      dropped_counter_(
          MetricsRegistry::Global().GetCounter(format.dropped_counter)),
      file_(std::move(file)) {
  const MutexLock lock(mu_);
  AppendPod(&buffer_, format_.magic);
  AppendPod(&buffer_, format_.version);
}

FramedLog::~FramedLog() {
  const Status s = Close();
  if (!s.ok()) {
    std::fprintf(stderr, "colgraph: %s close failed: %s\n", format_.name,
                 s.ToString().c_str());
  }
}

void FramedLog::Enqueue(const std::vector<char>& frame) {
  const MutexLock lock(mu_);
  if (closed_) return;
  if (!first_error_.ok()) {
    // Poisoned (disk full, torn write): the caller keeps going; the record
    // is dropped and the loss is counted, not fatal.
    ++dropped_;
    dropped_counter_.Increment();
    return;
  }
  AppendBytes(&buffer_, frame.data(), frame.size());
  ++records_;
  ++buffered_records_;
  if (buffer_.size() >= flush_bytes_) FlushLocked();
}

void FramedLog::FlushLocked() {
  if (buffer_.empty() || !first_error_.ok()) return;
  const Status s = file_.Append(buffer_.data(), buffer_.size());
  buffer_.clear();
  if (!s.ok()) {
    first_error_ = s;
    // The buffered records went down with the failed write.
    dropped_ += buffered_records_;
    dropped_counter_.Add(buffered_records_);
    std::fprintf(stderr,
                 "colgraph: %s write failed, capture degraded to dropping "
                 "(%s)\n",
                 format_.name, s.ToString().c_str());
  }
  buffered_records_ = 0;
}

Status FramedLog::Flush() {
  const MutexLock lock(mu_);
  FlushLocked();
  return first_error_;
}

Status FramedLog::Close() {
  const MutexLock lock(mu_);
  if (closed_) return first_error_;
  closed_ = true;
  if (first_error_.ok()) {
    const size_t start =
        BeginFrame(kLogFooterFrame, kFooterPayloadBytes, &buffer_);
    AppendPod(&buffer_, format_.footer_magic);
    AppendPod(&buffer_, records_);
    EndFrame(start, &buffer_);
    FlushLocked();
  }
  const Status sync = file_.SyncAndClose();
  if (first_error_.ok()) first_error_ = sync;
  return first_error_;
}

uint64_t FramedLog::records_appended() const {
  const MutexLock lock(mu_);
  return records_;
}

uint64_t FramedLog::records_dropped() const {
  const MutexLock lock(mu_);
  return dropped_;
}

Status LogCorruption(const std::string& msg, const std::string& what) {
  return Status::Corruption(msg + " in " + what);
}

Status DecodeFramedLog(const std::vector<char>& data,
                       const FramedLogFormat& format, const std::string& what,
                       const std::function<Status(FrameCursor*)>& record) {
  const std::string name = format.name;
  FrameCursor in(data.data(), data.size());
  uint32_t magic = 0, version = 0;
  if (!in.Read(&magic) || !in.Read(&version)) {
    return LogCorruption("truncated " + name + " preamble", what);
  }
  if (magic != format.magic) {
    return LogCorruption("bad " + name + " magic", what);
  }
  if (version != format.version) {
    return LogCorruption(
        "unsupported " + name + " version " + std::to_string(version), what);
  }

  uint64_t records = 0;
  while (!in.AtEnd()) {
    const char* header_bytes = in.Take(kFrameHeaderBytes);
    if (header_bytes == nullptr) {
      return LogCorruption("truncated frame header", what);
    }
    const FrameHeader header = ParseFrameHeader(header_bytes);
    if (header.payload_len > in.remaining()) {
      return LogCorruption("frame length exceeds file size", what);
    }
    const size_t len = static_cast<size_t>(header.payload_len);
    const char* payload = in.Take(len);
    if (FrameCrc(payload, len) != header.crc) {
      return LogCorruption("frame checksum mismatch", what);
    }

    if (header.type == kLogRecordFrame) {
      FrameCursor cursor(payload, len);
      COLGRAPH_RETURN_NOT_OK(record(&cursor));
      if (!cursor.AtEnd()) {
        return LogCorruption("trailing bytes inside a record payload", what);
      }
      ++records;
      continue;
    }
    if (header.type != kLogFooterFrame) {
      return LogCorruption("unknown frame type", what);
    }
    if (len != kFooterPayloadBytes) {
      return LogCorruption("footer payload has the wrong size", what);
    }
    uint32_t footer_magic = 0;
    uint64_t footer_count = 0;
    std::memcpy(&footer_magic, payload, sizeof(footer_magic));
    std::memcpy(&footer_count, payload + sizeof(footer_magic),
                sizeof(footer_count));
    if (footer_magic != format.footer_magic) {
      return LogCorruption("bad footer magic", what);
    }
    if (!in.AtEnd()) return LogCorruption("frame after the footer", what);
    if (footer_count != records) {
      return LogCorruption(
          "footer record count does not match the frames present", what);
    }
    return Status::OK();
  }
  // The footer is mandatory: its absence means the log was torn (a crash
  // before Close, or a truncation that landed on a frame boundary).
  return LogCorruption("missing footer (log not closed, or truncated)", what);
}

}  // namespace colgraph::obs
