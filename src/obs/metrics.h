// Process-wide metrics registry (DESIGN.md §9): named counters, gauges, and
// fixed-bucket latency histograms, all built on relaxed atomics so the
// PR-3 parallel query paths can record without locks. The registry exists
// to make the paper's quantitative claims observable at runtime — where a
// query spends its time (bitmap ANDs vs. fetch vs. aggregation) and how
// often the rewriter's views actually fire — and to feed the
// machine-readable BENCH_*.json files the experiment harnesses emit.
//
// Concurrency: metric *updates* (Counter::Add, Histogram::Record, ...) are
// relaxed atomic operations, safe from any thread. Metric *registration*
// (Get*) takes a mutex; call sites on hot paths should cache the returned
// reference (references are stable for the registry's lifetime — metrics
// are never deregistered). ToJson()/Reset() read/write each cell
// atomically but are not a consistent cross-metric snapshot; read after
// the parallel section completes for exact totals (same contract as
// FetchStats, DESIGN.md §8).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/atomic_counter.h"
#include "util/sync.h"

namespace colgraph::obs {

/// Whole seconds since the process started (anchored at static
/// initialization, steady clock). Reported by DumpMetricsJson as
/// `uptime_seconds` so a served metrics document says how long the daemon
/// has been up; lives in the obs layer because timing code is banned
/// elsewhere (lint rule [no-adhoc-timing]).
uint64_t ProcessUptimeSeconds();

/// \brief Monotone event counter (relaxed atomic increments).
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(uint64_t delta) { value_ += delta; }
  uint64_t value() const { return value_.load(); }
  void Reset() { value_ = 0; }

 private:
  RelaxedCounter value_;
};

/// \brief Last-write-wins signed level (queue depths, pool sizes, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket latency histogram over microseconds.
///
/// Buckets are powers of two: bucket 0 counts [0,1) µs, bucket i counts
/// [2^(i-1), 2^i) µs, and the last bucket absorbs everything beyond
/// ~2^38 µs (~76 hours). Power-of-two bucketing keeps Record() at a
/// bit-scan plus one relaxed increment — cheap enough for per-query-phase
/// use — while still resolving the latency scales the figures care about
/// (sub-µs bitmap ANDs up to multi-second scans).
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  void Record(uint64_t micros);

  uint64_t count() const { return count_.load(); }
  uint64_t total_micros() const { return total_micros_.load(); }
  uint64_t max_micros() const {
    return max_micros_.load(std::memory_order_relaxed);
  }
  uint64_t bucket_count(size_t bucket) const {
    return buckets_[bucket].load();
  }
  /// Inclusive upper bound of `bucket` in microseconds.
  static uint64_t BucketUpperMicros(size_t bucket);

  /// Approximate quantile (q in [0,1]) from the bucket counts: the upper
  /// bound of the bucket containing the q-th recorded value, clamped to
  /// max_micros() so the estimate never exceeds a value actually observed
  /// (the raw bucket bound over-reports at bucket edges — a single 100 µs
  /// sample lives in the [64,128) bucket, whose bound is 127). 0 when
  /// empty.
  uint64_t ApproxQuantileMicros(double q) const;

  /// Renders this histogram as one JSON object:
  /// {"count":..,"total_us":..,"max_us":..,"p50_us":..,"p90_us":..,
  ///  "p99_us":..,"buckets":[{"le_us":..,"count":..},...]}.
  /// Each bucket carries its inclusive upper bound (`le_us`) alongside the
  /// count so external consumers don't have to re-derive the power-of-two
  /// layout; zero-count buckets are omitted.
  std::string ToJson() const;

  void Reset();

 private:
  RelaxedCounter buckets_[kNumBuckets];
  RelaxedCounter count_;
  RelaxedCounter total_micros_;
  std::atomic<uint64_t> max_micros_{0};
};

/// \brief Name → metric registry. One process-wide instance (Global());
/// tests may construct their own.
class MetricsRegistry {
 public:
  /// The process-wide registry every engine and bench records into.
  static MetricsRegistry& Global();

  /// Finds or creates the named metric. The returned reference is stable
  /// for the registry's lifetime — hot paths cache it (e.g. in a
  /// function-local static) instead of paying the map lookup per event.
  /// Library code outside src/obs/ times through obs::Span and its phase
  /// table (obs/trace.h) instead of registering histograms itself.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  /// Renders every registered metric as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,total_us,
  /// max_us,p50_us,p90_us,p99_us,buckets:[{le_us,count},...]}}}.
  /// Zero-count buckets are omitted.
  std::string ToJson() const;

  /// Point-in-time copy of every counter's value, keyed by name. Not a
  /// consistent cross-counter snapshot (same contract as ToJson); the
  /// metrics exporter diffs two snapshots to report per-interval deltas.
  std::map<std::string, uint64_t> SnapshotCounters() const;

  /// Zeroes every registered metric (registrations and references remain
  /// valid). For tests and bench warmup-discard; not thread-safe against
  /// concurrent recording (same contract as FetchStats::Reset).
  void Reset();

 private:
  mutable Mutex mu_;
  // node-based maps: values never move, so references stay valid. The maps
  // (registration) are guarded; the metric cells themselves are lock-free
  // relaxed atomics, updated through the escaped references.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      COLGRAPH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      COLGRAPH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      COLGRAPH_GUARDED_BY(mu_);
};

}  // namespace colgraph::obs
