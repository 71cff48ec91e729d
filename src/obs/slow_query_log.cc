#include "obs/slow_query_log.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/frame.h"

namespace colgraph::obs {

namespace {

/// Captured-record throughput, split by which rule fired, so operators can
/// see threshold hits vs. sampler picks without reading the log.
Counter& ThresholdCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("slow_query_log.threshold_hits");
  return c;
}
Counter& SampledCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("slow_query_log.sampled");
  return c;
}

Status DecodeRecord(FrameCursor* c, const std::string& what,
                    SlowQueryRecord* r) {
  const auto end_of_data = [&what] {
    return LogCorruption("unexpected end of data", what);
  };
  const auto string_too_long = [&what] {
    return LogCorruption("string length exceeds data", what);
  };
  uint8_t sampled = 0;
  uint16_t pad = 0;
  uint32_t text_len = 0;
  if (!c->Read(&r->request_id) || !c->Read(&r->snapshot_epoch) ||
      !c->Read(&r->total_us) || !c->Read(&r->wire_code) || !c->Read(&r->op) ||
      !c->Read(&sampled) || !c->Read(&pad) || !c->Read(&text_len)) {
    return end_of_data();
  }
  r->sampled = sampled != 0;
  if (!c->ReadString(text_len, &r->query)) return string_too_long();

  uint32_t num_spans = 0;
  if (!c->Read(&num_spans)) return end_of_data();
  // Each span needs at least its three fixed fields; a corrupt count must
  // fail cleanly instead of triggering an oversized resize.
  if (num_spans > c->remaining() / (sizeof(uint32_t) + 2 * sizeof(uint64_t))) {
    return LogCorruption("span count exceeds remaining data", what);
  }
  r->spans.resize(num_spans);
  for (SlowQuerySpan& s : r->spans) {
    uint32_t name_len = 0;
    if (!c->Read(&name_len)) return end_of_data();
    if (!c->ReadString(name_len, &s.name)) return string_too_long();
    if (!c->Read(&s.start_us) || !c->Read(&s.duration_us)) {
      return end_of_data();
    }
  }
  return Status::OK();
}

}  // namespace

void AppendSlowQueryFrame(const SlowQueryRecord& r, std::vector<char>* out) {
  const size_t start = BeginFrame(kLogRecordFrame, 0, out);
  AppendPod(out, r.request_id);
  AppendPod(out, r.snapshot_epoch);
  AppendPod(out, r.total_us);
  AppendPod(out, r.wire_code);
  AppendPod(out, r.op);
  AppendPod(out, static_cast<uint8_t>(r.sampled ? 1 : 0));
  AppendPod(out, uint16_t{0});  // pad: keeps the u32 lengths aligned

  const size_t text_len = std::min(r.query.size(), kMaxSlowQueryTextBytes);
  AppendPod(out, static_cast<uint32_t>(text_len));
  AppendBytes(out, r.query.data(), text_len);

  AppendPod(out, static_cast<uint32_t>(r.spans.size()));
  for (const SlowQuerySpan& s : r.spans) {
    AppendPod(out, static_cast<uint32_t>(s.name.size()));
    AppendBytes(out, s.name.data(), s.name.size());
    AppendPod(out, s.start_us);
    AppendPod(out, s.duration_us);
  }
  EndFrame(start, out);
}

SlowQueryLog::SlowQueryLog(SlowQueryLogOptions options, io::AppendFile file)
    : FramedLog(kSlowQueryLogFormat, options.path, options.flush_bytes,
                std::move(file)),
      options_(std::move(options)) {}

StatusOr<std::unique_ptr<SlowQueryLog>> SlowQueryLog::Open(
    SlowQueryLogOptions options) {
  COLGRAPH_ASSIGN_OR_RETURN(io::AppendFile file,
                            CreateFile(kSlowQueryLogFormat, options.path));
  return std::unique_ptr<SlowQueryLog>(
      new SlowQueryLog(std::move(options), std::move(file)));
}

bool SlowQueryLog::AdmitForCapture(uint64_t total_us, bool* sampled_out) {
  const bool threshold_hit = total_us >= options_.threshold_us;
  // Each offer takes a distinct sampler position from one atomic count,
  // without touching the writer's mutex.
  const uint64_t offered = ++offered_;
  const bool sampler_hit =
      options_.sample_every != 0 && offered % options_.sample_every == 0;
  if (threshold_hit) {
    ThresholdCounter().Increment();
  } else if (sampler_hit) {
    SampledCounter().Increment();
  }
  if (sampled_out != nullptr) *sampled_out = !threshold_hit && sampler_hit;
  return threshold_hit || sampler_hit;
}

void SlowQueryLog::Append(const SlowQueryRecord& record) {
  // Serialize outside the lock: the buffer enqueue is the only contended
  // part.
  std::vector<char> frame;
  AppendSlowQueryFrame(record, &frame);
  Enqueue(frame);
}

StatusOr<std::vector<SlowQueryRecord>> DecodeSlowQueryLog(
    const std::vector<char>& data, const std::string& what) {
  std::vector<SlowQueryRecord> records;
  COLGRAPH_RETURN_NOT_OK(DecodeFramedLog(
      data, kSlowQueryLogFormat, what, [&](FrameCursor* payload) {
        return DecodeRecord(payload, what, &records.emplace_back());
      }));
  return records;
}

StatusOr<std::vector<SlowQueryRecord>> ReadSlowQueryLog(
    const std::string& path) {
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<char> data, io::ReadFileBytes(path));
  return DecodeSlowQueryLog(data, path);
}

}  // namespace colgraph::obs
