// Exempt fixture for the [phase-registry] rule: src/obs/ owns the phase
// table, so its histogram registrations must never be flagged.
#include "obs/metrics.h"

namespace colgraph::obs {

LatencyHistogram& TableHistogram() {
  return MetricsRegistry::Global().GetHistogram("query.phase.fetch_us");
}

}  // namespace colgraph::obs
