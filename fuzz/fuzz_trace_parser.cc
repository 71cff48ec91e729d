// Fuzz harness for the ingest trace parser (workload/trace_loader.h) and
// the walk flattening every ingest applies next (graph/flatten.h).
// Invariant: ParseTraces on ANY byte string returns OK or InvalidArgument
// and never crashes, reads out of bounds, or trips UB; an accepted batch
// holds only walks of 2..kMaxTraceWalkNodes nodes with one finite measure
// per hop. The istream overload, a read-then-delegate wrapper, must agree
// with the string_view parser on every input. Each accepted walk then
// flattens as a naive count says it must: walk.size() - 1 distinct edges,
// edge i from walk[i] to walk[i + 1], consecutive edges sharing their
// middle node, and the k-th visit of a node (k = 1, 2, ...) carrying
// occurrence k - 1.
//
// The seed corpus (fuzz/corpus/fuzz_trace_parser/, plain text committed
// as is) parks the fuzzer next to each rejection: malformed and
// out-of-range node ids, malformed, non-finite and miscounted measures, a
// one-node walk, a token cut off at the end of its section. Two seeds
// revisit nodes for the flattener: a walk alternating two nodes for 200
// hops, and one returning to a hub every other hop.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/flatten.h"
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

// WalkToEdges against a count of the visits so far.
void CheckFlattened(const std::vector<colgraph::NodeId>& walk) {
  const std::vector<colgraph::Edge> edges = colgraph::WalkToEdges(walk);
  COLGRAPH_CHECK_EQ(edges.size(), walk.size() - 1);
  std::map<colgraph::NodeId, uint32_t> visits;
  for (size_t i = 0; i < walk.size(); ++i) {
    const uint32_t earlier = visits[walk[i]]++;
    // Node i is the tail of edge i and the head of edge i - 1.
    if (i < edges.size()) {
      COLGRAPH_CHECK(edges[i].from ==
                     (colgraph::NodeRef{walk[i], earlier}))
          << "edge " << i << " leaves the wrong occurrence";
    }
    if (i > 0) {
      COLGRAPH_CHECK(edges[i - 1].to == (colgraph::NodeRef{walk[i], earlier}))
          << "edge " << i - 1 << " enters the wrong occurrence";
    }
  }
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    COLGRAPH_CHECK(edges[i].to == edges[i + 1].from)
        << "edges " << i << " and " << i + 1 << " do not meet";
  }
  std::vector<colgraph::Edge> sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  COLGRAPH_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
                 sorted.end())
      << "a flattened walk repeats an edge";
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
      CheckFlattened(trace.walk);
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
