// Deliberately broken fixture for lint_invariants_test: serving-layer code
// timing itself with the ad-hoc Stopwatch machinery (and a raw chrono
// clock) instead of the one timer, obs::Span over an obs::Phase
// (obs/trace.h) — such a measurement would never reach the phase
// histograms or a request trace.
#include <chrono>

#include "util/stopwatch.h"

namespace colgraph {

double TimeARequestBadly() {
  Stopwatch watch;
  const auto t0 = std::chrono::steady_clock::now();
  (void)t0;
  return watch.ElapsedSeconds();
}

}  // namespace colgraph
