// One span taxonomy (DESIGN.md §9): every timed region of the program is a
// Phase, and one table (trace.cc) gives each phase its trace event name and
// its process-wide histogram. Span is the one timer: it feeds the phase's
// histogram and, when a Trace is attached (QueryOptions::trace, or a
// request's RequestContext), records a per-query event the EXPLAIN/tracing
// consumers can render. The repo lint bans ad-hoc timing in the
// instrumented layers ([no-adhoc-timing]) and registry histograms outside
// src/obs/ ([phase-registry]), so every measured region is a phase.
//
// Query phases mirror the paper's cost decomposition (Figures 6/7): a graph
// query is resolve (parse ids against the catalog) → rewrite (set-cover
// against the views) → bitmap-AND → fetch (measure columns); aggregate
// queries add the fold phase. Serving phases follow the daemon's pipeline;
// the rest time whole queries, batches and storage transitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/sync.h"

namespace colgraph::obs {

class JsonWriter;

/// Steady-clock microseconds since an arbitrary epoch (comparable within
/// the process only).
inline uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Every timed phase. Kept as an enum (not free-form strings) so the
/// histograms are stable, cacheable and cheap. The query phases come first,
/// in the query log's slot order (obs/query_log.h).
enum class Phase : uint8_t {
  // Query evaluation.
  kResolve = 0,
  kRewrite,
  kBitmapAnd,
  kFetch,
  kAggregate,
  // Request service inside the daemon, in pipeline order.
  kQueueWait,  ///< accepted socket waiting for a worker
  kAdmission,  ///< acquiring an in-flight slot (retry loop included)
  kDecode,     ///< framed read + request decode
  kEvaluate,   ///< snapshot acquire + engine evaluation (or ingest)
  kEncode,     ///< response frame encode (trace echo included)
  kWrite,      ///< socket write of the response frame
  // Whole units of work and storage transitions; no caller traces them.
  kGraphQuery,        ///< one graph query, end to end
  kAggQuery,          ///< one path-aggregation query, end to end
  kBatch,             ///< one EvaluateBatch / EvaluatePathAggBatch
  kMaterialize,       ///< one view's column build
  kStoreSeal,         ///< DatasetStore::Seal
  kStoreCompaction,   ///< DatasetStore::ReplaceNewest's write and publish
  kServerCompaction,  ///< a daemon compaction cycle's hold of the writer lock
  kCrcPrefault,       ///< a mapped file's whole-file CRC pass
};
inline constexpr size_t kNumPhases =
    static_cast<size_t>(Phase::kCrcPrefault) + 1;

/// Stable phase label ("resolve", "rewrite", ..., "write", ...) — the
/// trace event name.
const char* PhaseName(Phase phase);

/// The phase's global registry histogram (e.g. "query.phase.fetch_us",
/// "server.phase.decode_us", "store.seal_us"). The whole table registers
/// on first use, once per process.
LatencyHistogram& PhaseHistogram(Phase phase);

/// \brief One timed region inside a trace.
struct TraceEvent {
  Phase phase;
  uint64_t start_us;     ///< microseconds since the trace was constructed
  uint64_t duration_us;
};

/// \brief Per-query (or per-batch) span collector. Thread-safe: a batch
/// evaluated across the pool may share one Trace; events append under a
/// mutex in completion order. Attach via QueryOptions::trace.
class Trace {
 public:
  Trace() : Trace(NowMicros()) {}
  /// A trace whose events count from `origin_us` (NowMicros clock).
  explicit Trace(uint64_t origin_us) : origin_us_(origin_us) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Records one event; `start_us` is absolute (NowMicros clock). A start
  /// before the trace's origin is clamped to 0.
  void Add(Phase phase, uint64_t start_us, uint64_t duration_us);

  /// Snapshot of the events recorded so far, in completion order.
  std::vector<TraceEvent> events() const;

  /// Writes the "events" key and its array,
  /// [{"name":...,"start_us":...,"duration_us":...},...], into an open
  /// object.
  void WriteEvents(JsonWriter* w) const;

  /// {"events":[...]} (WriteEvents in an object of its own).
  std::string ToJson() const;

 private:
  const uint64_t origin_us_;
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ COLGRAPH_GUARDED_BY(mu_);
};

/// \brief RAII timer, the only one: on destruction records the scope's
/// duration into the phase's histogram and, when `trace` is non-null, an
/// event into the trace.
class Span {
 public:
  Span(Phase phase, Trace* trace)
      : phase_(phase), trace_(trace), start_us_(NowMicros()) {}

  ~Span() {
    const uint64_t duration = NowMicros() - start_us_;
    PhaseHistogram(phase_).Record(duration);
    if (trace_ != nullptr) trace_->Add(phase_, start_us_, duration);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Phase phase_;
  Trace* trace_;
  uint64_t start_us_;
};

}  // namespace colgraph::obs
