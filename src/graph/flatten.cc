#include "graph/flatten.h"

#include <unordered_map>

namespace colgraph {

std::vector<NodeRef> FlattenWalk(const std::vector<NodeId>& walk) {
  std::vector<NodeRef> refs;
  refs.reserve(walk.size());
  std::unordered_map<NodeId, uint32_t> visits;
  for (NodeId n : walk) {
    uint32_t& count = visits[n];
    refs.push_back(NodeRef{n, count});
    ++count;
  }
  return refs;
}

std::vector<Edge> WalkToEdges(const std::vector<NodeId>& walk) {
  const std::vector<NodeRef> refs = FlattenWalk(walk);
  std::vector<Edge> edges;
  if (refs.size() < 2) return edges;
  edges.reserve(refs.size() - 1);
  for (size_t i = 0; i + 1 < refs.size(); ++i) {
    edges.push_back(Edge{refs[i], refs[i + 1]});
  }
  return edges;
}

StatusOr<GraphRecord> WalkToRecord(const std::vector<NodeId>& walk,
                                   const std::vector<double>& measures) {
  if (walk.size() < 2) {
    return Status::InvalidArgument("a walk needs at least two nodes");
  }
  if (measures.size() != walk.size() - 1) {
    return Status::InvalidArgument("a walk of n nodes needs n-1 measures");
  }
  GraphRecord record;
  record.elements = WalkToEdges(walk);
  record.measures = measures;
  return record;
}

namespace {

enum class Mark : uint8_t { kUnvisited, kOnStack, kDone };

struct DagifyState {
  const DirectedGraph* input;
  DirectedGraph output;
  std::unordered_map<NodeRef, Mark, NodeRefHash> mark;
  std::unordered_map<NodeRef, uint32_t, NodeRefHash> next_occurrence;
};

void Visit(DagifyState* s, NodeRef u) {
  s->mark[u] = Mark::kOnStack;
  for (const NodeRef& v : s->input->OutNeighbors(u)) {
    auto state = s->mark.count(v) ? s->mark[v] : Mark::kUnvisited;
    if (state == Mark::kOnStack) {
      // Back edge: re-target to a fresh occurrence of v's base node.
      uint32_t& occ = s->next_occurrence[v];
      if (occ == 0) occ = v.occurrence + 1;
      NodeRef fresh{v.base, occ++};
      s->output.AddEdge(u, fresh);
    } else {
      s->output.AddEdge(u, v);
      if (state == Mark::kUnvisited) Visit(s, v);
    }
  }
  s->mark[u] = Mark::kDone;
}

}  // namespace

DirectedGraph FlattenToDag(const DirectedGraph& graph) {
  DagifyState s;
  s.input = &graph;
  // Start from source nodes first so the BFS/DFS-order naming scheme is
  // deterministic for a given input, then sweep any remaining (cycle-only)
  // components.
  for (const NodeRef& n : graph.SourceNodes()) {
    if (!s.mark.count(n)) Visit(&s, n);
  }
  for (const NodeRef& n : graph.nodes()) {
    if (!s.mark.count(n)) Visit(&s, n);
  }
  for (const NodeRef& n : graph.nodes()) s.output.AddNode(n);
  // Self-edges are node measures, not adjacency, and pass through verbatim.
  for (const Edge& e : graph.edges()) {
    if (e.IsNode()) s.output.AddEdge(e);
  }
  return s.output;
}

}  // namespace colgraph
