#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "obs/json_writer.h"
#include "obs/trace.h"
#include "util/check.h"

namespace colgraph::obs {

namespace {
// Anchored once at static initialization: "process start" for uptime
// reporting. NowMicros is steady-clock, so the difference is immune to
// wall-clock adjustments.
const uint64_t g_process_start_us = NowMicros();
}  // namespace

uint64_t ProcessUptimeSeconds() {
  return (NowMicros() - g_process_start_us) / 1000000;
}

void LatencyHistogram::Record(uint64_t micros) {
  // bucket 0: [0,1), bucket i: [2^(i-1), 2^i).
  size_t bucket = static_cast<size_t>(std::bit_width(micros));
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  ++buckets_[bucket];
  ++count_;
  total_micros_ += micros;
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen && !max_micros_.compare_exchange_weak(
                              seen, micros, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::BucketUpperMicros(size_t bucket) {
  COLGRAPH_CHECK_LT(bucket, kNumBuckets);
  if (bucket == 0) return 0;  // bucket 0 holds sub-microsecond durations
  return (uint64_t{1} << bucket) - 1;
}

uint64_t LatencyHistogram::ApproxQuantileMicros(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // rank of the q-th value, 1-based, at least 1.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    seen += bucket_count(b);
    // Clamp to the observed maximum: the bucket bound is an upper estimate
    // and must never exceed a value that was actually recorded.
    if (seen >= rank) return std::min(BucketUpperMicros(b), max_micros());
  }
  return max_micros();
}

std::string LatencyHistogram::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("count");
  w.Uint(count());
  w.Key("total_us");
  w.Uint(total_micros());
  w.Key("max_us");
  w.Uint(max_micros());
  w.Key("p50_us");
  w.Uint(ApproxQuantileMicros(0.50));
  w.Key("p90_us");
  w.Uint(ApproxQuantileMicros(0.90));
  w.Key("p99_us");
  w.Uint(ApproxQuantileMicros(0.99));
  w.Key("buckets");
  w.BeginArray();
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = bucket_count(b);
    if (n == 0) continue;
    w.BeginObject();
    w.Key("le_us");
    w.Uint(BucketUpperMicros(b));
    w.Key("count");
    w.Uint(n);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b = 0;
  count_ = 0;
  total_micros_ = 0;
  max_micros_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  const MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  const MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::GetHistogram(const std::string& name) {
  const MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  const MutexLock lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name);
    w.Uint(counter->value());
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Key(name);
    w.Int(gauge->value());
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, hist] : histograms_) {
    w.Key(name);
    w.Raw(hist->ToJson());
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::map<std::string, uint64_t> MetricsRegistry::SnapshotCounters() const {
  const MutexLock lock(mu_);
  std::map<std::string, uint64_t> snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot[name] = counter->value();
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  const MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    (void)name;
    gauge->Reset();
  }
  for (auto& [name, hist] : histograms_) {
    (void)name;
    hist->Reset();
  }
}

}  // namespace colgraph::obs
