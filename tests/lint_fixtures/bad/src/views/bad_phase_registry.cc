// Known-bad fixture for the [phase-registry] rule: a layer outside src/obs/
// registering a histogram of its own must be flagged; reading a phase's
// histogram or registering a counter is fine and must not be.
#include "obs/metrics.h"
#include "obs/trace.h"

namespace colgraph {

void RecordBuildTime(uint64_t micros) {
  obs::MetricsRegistry::Global().GetHistogram("views.build_us").Record(micros);
}

void RecordPhaseTime(uint64_t micros) {
  obs::PhaseHistogram(obs::Phase::kMaterialize).Record(micros);
  obs::MetricsRegistry::Global().GetCounter("views.built").Increment();
}

}  // namespace colgraph
