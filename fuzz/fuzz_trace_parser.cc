// Fuzz harness for the ingest trace parser (workload/trace_loader.h).
// Invariant: ParseTraces on ANY byte string returns OK or InvalidArgument
// and never crashes, reads out of bounds, or trips UB; an accepted batch
// holds only walks of 2..kMaxTraceWalkNodes nodes with one finite measure
// per hop. The istream overload, a read-then-delegate wrapper, must agree
// with the string_view parser on every input.
//
// The seed corpus (fuzz/corpus/fuzz_trace_parser/, plain text committed
// as is) parks the fuzzer next to each rejection: malformed and
// out-of-range node ids, malformed, non-finite and miscounted measures, a
// one-node walk, a token cut off at the end of its section.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/status.h"
#include "workload/trace_loader.h"

namespace {

bool SameTraces(const std::vector<colgraph::WalkTrace>& a,
                const std::vector<colgraph::WalkTrace>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].walk != b[i].walk ||
        a[i].measures.size() != b[i].measures.size()) {
      return false;
    }
    if (!a[i].measures.empty() &&
        std::memcmp(a[i].measures.data(), b[i].measures.data(),
                    a[i].measures.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto parsed = colgraph::ParseTraces(std::string_view(text));
  if (!parsed.ok()) {
    COLGRAPH_CHECK(parsed.status().IsInvalidArgument())
        << "trace parser must fail as InvalidArgument, got: "
        << parsed.status().ToString();
  } else {
    for (const colgraph::WalkTrace& trace : *parsed) {
      COLGRAPH_CHECK(trace.walk.size() >= 2 &&
                     trace.walk.size() <= colgraph::kMaxTraceWalkNodes);
      COLGRAPH_CHECK_EQ(trace.measures.size(), trace.walk.size() - 1);
      for (const double m : trace.measures) COLGRAPH_CHECK(std::isfinite(m));
    }
  }

  std::istringstream in(text);
  const auto wrapped = colgraph::ParseTraces(in);
  COLGRAPH_CHECK(wrapped.status().code() == parsed.status().code())
      << "istream overload disagrees: " << wrapped.status().ToString()
      << " vs " << parsed.status().ToString();
  if (parsed.ok()) COLGRAPH_CHECK(SameTraces(*parsed, *wrapped));
  return 0;
}
