#include "obs/trace.h"

#include <array>

#include "obs/json_writer.h"

namespace colgraph::obs {

namespace {

struct PhaseEntry {
  const char* name;       ///< trace event name
  const char* histogram;  ///< registry histogram name
};

// The one phase table, in enum order.
constexpr PhaseEntry kPhaseTable[] = {
    {"resolve", "query.phase.resolve_us"},
    {"rewrite", "query.phase.rewrite_us"},
    {"bitmap_and", "query.phase.bitmap_and_us"},
    {"fetch", "query.phase.fetch_us"},
    {"aggregate", "query.phase.aggregate_us"},
    {"queue_wait", "server.phase.queue_wait_us"},
    {"admission", "server.phase.admission_us"},
    {"decode", "server.phase.decode_us"},
    {"evaluate", "server.phase.evaluate_us"},
    {"encode", "server.phase.encode_us"},
    {"write", "server.phase.write_us"},
    {"graph_query", "query.graph.total_us"},
    {"agg_query", "query.agg.total_us"},
    {"batch", "query.batch.total_us"},
    {"materialize", "views.materialize_us"},
    {"store_seal", "store.seal_us"},
    {"store_compaction", "store.compaction_us"},
    {"server_compaction", "server.compaction_us"},
    {"crc_prefault", "io.crc_prefault_us"},
};
static_assert(std::size(kPhaseTable) == kNumPhases);

}  // namespace

const char* PhaseName(Phase phase) {
  return kPhaseTable[static_cast<size_t>(phase)].name;
}

LatencyHistogram& PhaseHistogram(Phase phase) {
  // Resolved once: a function-local static makes the registry lookups a
  // one-time cost per process.
  static const std::array<LatencyHistogram*, kNumPhases> histograms = [] {
    std::array<LatencyHistogram*, kNumPhases> resolved{};
    for (size_t p = 0; p < kNumPhases; ++p) {
      resolved[p] =
          &MetricsRegistry::Global().GetHistogram(kPhaseTable[p].histogram);
    }
    return resolved;
  }();
  return *histograms[static_cast<size_t>(phase)];
}

void Trace::Add(Phase phase, uint64_t start_us, uint64_t duration_us) {
  const uint64_t relative =
      start_us >= origin_us_ ? start_us - origin_us_ : 0;
  const MutexLock lock(mu_);
  events_.push_back(TraceEvent{phase, relative, duration_us});
}

std::vector<TraceEvent> Trace::events() const {
  const MutexLock lock(mu_);
  return events_;
}

void Trace::WriteEvents(JsonWriter* w) const {
  w->Key("events");
  w->BeginArray();
  for (const TraceEvent& e : events()) {
    w->BeginObject();
    w->Key("name");
    w->String(PhaseName(e.phase));
    w->Key("start_us");
    w->Uint(e.start_us);
    w->Key("duration_us");
    w->Uint(e.duration_us);
    w->EndObject();
  }
  w->EndArray();
}

std::string Trace::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  WriteEvents(&w);
  w.EndObject();
  return w.str();
}

}  // namespace colgraph::obs
