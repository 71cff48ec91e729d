// Fuzz harness for the text query parser (query/parser.h). Invariants:
// ParseQuery on ANY string — including non-ASCII bytes, deep nesting, and
// numbers beyond uint64 — returns OK or InvalidArgument, never crashes,
// overflows the stack, or trips UB in <cctype>; and every graph of a
// successful parse is well formed: no duplicate edge, every endpoint a
// node, degree sums equal to the non-self edges, and neighbour lists equal
// to edges() read in order.
//
// This harness surfaced the parser bugs fixed alongside it: unbounded
// '(' recursion (stack overflow), ctype calls on negative char values
// (UB for bytes >= 0x80), and silent NodeId truncation of huge literals.
// Their distilled inputs live in fuzz/corpus/fuzz_parser/ as regressions.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/parser.h"
#include "util/check.h"
#include "util/status.h"

namespace {

using colgraph::DirectedGraph;
using colgraph::Edge;
using colgraph::NodeRef;

void CheckGraph(const DirectedGraph& g) {
  std::vector<Edge> sorted = g.edges();
  std::sort(sorted.begin(), sorted.end());
  COLGRAPH_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
                 sorted.end())
      << "duplicate edge";
  std::map<NodeRef, std::vector<NodeRef>> out;
  std::map<NodeRef, std::vector<NodeRef>> in;
  size_t structural = 0;
  for (const Edge& e : g.edges()) {
    COLGRAPH_CHECK(g.HasNode(e.from) && g.HasNode(e.to))
        << "endpoint of " << e.ToString() << " is not a node";
    COLGRAPH_CHECK(g.HasEdge(e.from, e.to)) << e.ToString();
    if (e.IsNode()) continue;
    ++structural;
    out[e.from].push_back(e.to);
    in[e.to].push_back(e.from);
  }
  size_t out_sum = 0;
  size_t in_sum = 0;
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const NodeRef n = g.nodes()[i];
    out_sum += g.OutDegreeAt(i);
    in_sum += g.InDegreeAt(i);
    const auto out_range = g.OutNeighbors(n);
    const auto in_range = g.InNeighbors(n);
    COLGRAPH_CHECK(std::vector<NodeRef>(out_range.begin(), out_range.end()) ==
                   out[n])
        << "out-neighbours of " << n.ToString();
    COLGRAPH_CHECK(std::vector<NodeRef>(in_range.begin(), in_range.end()) ==
                   in[n])
        << "in-neighbours of " << n.ToString();
  }
  COLGRAPH_CHECK(out_sum == structural && in_sum == structural)
      << "degree sums " << out_sum << "/" << in_sum << " vs " << structural;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const colgraph::StatusOr<colgraph::ParsedQuery> result =
      colgraph::ParseQuery(text);
  if (!result.ok()) {
    COLGRAPH_CHECK(result.status().IsInvalidArgument())
        << "parser must fail as InvalidArgument, got: "
        << result.status().ToString();
    return 0;
  }
  if (result->kind == colgraph::ParsedQuery::Kind::kAggregate) {
    CheckGraph(result->query.graph());
    return 0;
  }
  std::vector<const colgraph::QueryExpr*> pending = {result->expr.get()};
  while (!pending.empty()) {
    const colgraph::QueryExpr* e = pending.back();
    pending.pop_back();
    if (e->op() == colgraph::QueryExpr::Op::kLeaf) {
      CheckGraph(e->query().graph());
    } else {
      pending.push_back(e->lhs());
      pending.push_back(e->rhs());
    }
  }
  return 0;
}
