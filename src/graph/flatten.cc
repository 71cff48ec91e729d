#include "graph/flatten.h"

#include <unordered_map>

namespace colgraph {

namespace {

// Visit counts of one walk in an open-addressing table (linear probing,
// at most half full) that a thread reuses from walk to walk. A slot is
// live only while its stamp equals the walk's generation, so starting a
// walk clears nothing, and a walk of n nodes probes only the table's
// first 2n slots (rounded up to a power of two), whatever size the table
// grew to.
class VisitTable {
 public:
  void Begin(size_t nodes) {
    size_t capacity = kMinSlots;
    int bits = kMinBits;
    while (capacity < 2 * nodes) {
      capacity *= 2;
      ++bits;
    }
    if (slots_.size() < capacity) slots_.resize(capacity);
    mask_ = capacity - 1;
    shift_ = 64 - bits;
    if (++generation_ == 0) {  // wrapped: an old stamp could match again
      for (Slot& slot : slots_) slot.stamp = 0;
      generation_ = 1;
    }
  }

  // Visits `node`: returns how often the walk met it before.
  uint32_t Visit(NodeId node) {
    // Fibonacci hashing: the product's high bits mix every bit of the id.
    for (size_t i = (node * 0x9e3779b97f4a7c15ull) >> shift_;;
         i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.stamp != generation_) {
        slot = Slot{node, 1, generation_};
        return 0;
      }
      if (slot.node == node) return slot.visits++;
    }
  }

 private:
  struct Slot {
    NodeId node = 0;
    uint32_t visits = 0;
    uint32_t stamp = 0;  // the generation of the walk that filled it
  };
  static constexpr int kMinBits = 9;
  static constexpr size_t kMinSlots = size_t{1} << kMinBits;

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  uint32_t generation_ = 0;
};

// Walks up to this long number their visits in the calling thread's
// reused table; a longer one gets a table of its own, so no thread keeps
// more than 2 x 8,192 slots (192 KiB) after a long walk.
constexpr size_t kMaxReusedWalkNodes = 8192;
thread_local VisitTable t_reused_visits;

// Calls emit(i, ref) for each walk[i] in order, ref being walk[i] renamed
// by its earlier visits.
template <typename Emit>
void NumberVisits(const std::vector<NodeId>& walk, Emit emit) {
  VisitTable own;
  VisitTable& visits =
      walk.size() <= kMaxReusedWalkNodes ? t_reused_visits : own;
  visits.Begin(walk.size());
  for (size_t i = 0; i < walk.size(); ++i) {
    emit(i, NodeRef{walk[i], visits.Visit(walk[i])});
  }
}

}  // namespace

std::vector<NodeRef> FlattenWalk(const std::vector<NodeId>& walk) {
  std::vector<NodeRef> refs;
  refs.reserve(walk.size());
  NumberVisits(walk, [&refs](size_t, NodeRef ref) { refs.push_back(ref); });
  return refs;
}

std::vector<Edge> WalkToEdges(const std::vector<NodeId>& walk) {
  std::vector<Edge> edges;
  if (walk.size() < 2) return edges;
  edges.reserve(walk.size() - 1);
  NodeRef from;
  NumberVisits(walk, [&edges, &from](size_t i, NodeRef to) {
    if (i > 0) edges.push_back(Edge{from, to});
    from = to;
  });
  return edges;
}

Status CheckWalk(const std::vector<NodeId>& walk, size_t num_measures) {
  if (walk.size() < 2) {
    return Status::InvalidArgument("a walk needs at least two nodes");
  }
  if (num_measures != walk.size() - 1) {
    return Status::InvalidArgument("a walk of n nodes needs n-1 measures");
  }
  return Status::OK();
}

StatusOr<GraphRecord> WalkToRecord(const std::vector<NodeId>& walk,
                                   std::vector<double> measures) {
  COLGRAPH_RETURN_NOT_OK(CheckWalk(walk, measures.size()));
  GraphRecord record;
  record.elements = WalkToEdges(walk);
  record.measures = std::move(measures);
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
