#include "graph/graph.h"

#include <algorithm>

#include "util/check.h"

namespace colgraph {

std::string NodeRef::ToString() const {
  std::string s = std::to_string(base);
  for (uint32_t i = 0; i < occurrence; ++i) s += '\'';
  return s;
}

std::string Edge::ToString() const {
  // Built with append rather than operator+ chains: the `const char* +
  // std::string&&` overload trips GCC 12's bogus -Wrestrict (PR 105651).
  std::string s;
  if (IsNode()) {
    s += '[';
    s += from.ToString();
    s += ']';
    return s;
  }
  s += '(';
  s += from.ToString();
  s += ',';
  s += to.ToString();
  s += ')';
  return s;
}

namespace {

// The finalizer of MurmurHash3: every input bit reaches every output bit.
// The index masks a hash to its low bits, so keys must mix first: the
// identity, (base << 32) | occurrence, has zero low bits for every
// occurrence-0 node and would send them all to one slot.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashOf(NodeRef n) {
  return Mix64((uint64_t{n.base} << 32) | n.occurrence);
}

uint64_t HashOf(const Edge& e) {
  return Mix64(HashOf(e.from) ^
               ((uint64_t{e.to.base} << 32) | e.to.occurrence));
}

}  // namespace

template <typename IsKey>
uint32_t DirectedGraph::Find(uint64_t hash, IsKey is_key) const {
  if (index_.empty()) return kNone;
  const size_t mask = index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t entry = index_[i];
    if (entry == kNone || is_key(entry)) return entry;
  }
}

std::optional<size_t> DirectedGraph::IndexOf(NodeRef n) const {
  const uint32_t found = Find(HashOf(n), [&](uint32_t entry) {
    return entry < kEdgeTag && nodes_[entry] == n;
  });
  if (found == kNone) return std::nullopt;
  return found;
}

std::optional<size_t> DirectedGraph::IndexOf(const Edge& e) const {
  const uint32_t found = Find(HashOf(e), [&](uint32_t entry) {
    return entry >= kEdgeTag && edges_[entry - kEdgeTag] == e;
  });
  if (found == kNone) return std::nullopt;
  return found - kEdgeTag;
}

void DirectedGraph::Place(uint64_t hash, uint32_t entry) {
  const size_t mask = index_.size() - 1;
  size_t i = hash & mask;
  while (index_[i] != kNone) i = (i + 1) & mask;
  index_[i] = entry;
}

void DirectedGraph::Reindex(size_t entries) {
  size_t slots = 16;
  while (slots < 2 * entries) slots *= 2;
  if (slots <= index_.size()) return;
  index_.assign(slots, kNone);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Place(HashOf(nodes_[i]), static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < edges_.size(); ++i) {
    Place(HashOf(edges_[i]), static_cast<uint32_t>(i) | kEdgeTag);
  }
}

void DirectedGraph::Index(uint64_t hash, uint32_t entry) {
  const size_t entries = nodes_.size() + edges_.size();
  if (2 * entries > index_.size()) {
    Reindex(entries);  // places every entry, this one included
  } else {
    Place(hash, entry);
  }
}

void DirectedGraph::Reserve(size_t nodes, size_t edges) {
  nodes_.reserve(nodes);
  node_links_.reserve(nodes);
  edges_.reserve(edges);
  edge_links_.reserve(edges);
  Reindex(nodes + edges);
}

uint32_t DirectedGraph::InternNode(NodeRef n) {
  if (const auto found = IndexOf(n)) return static_cast<uint32_t>(*found);
  const auto pos = static_cast<uint32_t>(nodes_.size());
  COLGRAPH_CHECK(pos < kEdgeTag) << "too many nodes";
  nodes_.push_back(n);
  node_links_.emplace_back();
  Index(HashOf(n), pos);
  return pos;
}

void DirectedGraph::AddNode(NodeRef n) { (void)InternNode(n); }

void DirectedGraph::AddEdge(NodeRef from, NodeRef to) {
  const Edge e{from, to};
  if (IndexOf(e).has_value()) return;
  const uint32_t tail = InternNode(from);
  const uint32_t head = InternNode(to);
  const auto pos = static_cast<uint32_t>(edges_.size());
  COLGRAPH_CHECK(pos < kEdgeTag - 1) << "too many edges";
  edges_.push_back(e);
  edge_links_.push_back(EdgeLinks{tail, head, kNone, kNone});
  Index(HashOf(e), pos | kEdgeTag);
  if (tail == head) return;  // a self-edge is the node's measure
  // Append to the tail's out-list and the head's in-list.
  NodeLinks& out = node_links_[tail];
  if (out.out_degree++ == 0) {
    out.first_out = pos;
  } else {
    edge_links_[out.last_out].next_out = pos;
  }
  out.last_out = pos;
  NodeLinks& in = node_links_[head];
  if (in.in_degree++ == 0) {
    in.first_in = pos;
  } else {
    edge_links_[in.last_in].next_in = pos;
  }
  in.last_in = pos;
}

DirectedGraph::NeighborRange DirectedGraph::OutNeighborsAt(size_t i) const {
  return NeighborRange(this, node_links_[i].first_out,
                       node_links_[i].out_degree, /*out=*/true);
}

DirectedGraph::NeighborRange DirectedGraph::OutNeighbors(NodeRef n) const {
  const auto i = IndexOf(n);
  return i ? OutNeighborsAt(*i) : NeighborRange(this, kNone, 0, true);
}

DirectedGraph::NeighborRange DirectedGraph::InNeighbors(NodeRef n) const {
  const auto i = IndexOf(n);
  if (!i) return NeighborRange(this, kNone, 0, /*out=*/false);
  return NeighborRange(this, node_links_[*i].first_in,
                       node_links_[*i].in_degree, /*out=*/false);
}

template <typename Keep>
std::vector<NodeRef> DirectedGraph::NodesWhere(Keep keep) const {
  std::vector<NodeRef> result;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (keep(node_links_[i])) result.push_back(nodes_[i]);
  }
  return result;
}

std::vector<NodeRef> DirectedGraph::SourceNodes() const {
  return NodesWhere([](const NodeLinks& n) { return n.in_degree == 0; });
}

std::vector<NodeRef> DirectedGraph::TerminalNodes() const {
  return NodesWhere([](const NodeLinks& n) { return n.out_degree == 0; });
}

std::vector<NodeRef> DirectedGraph::IsolatedNodes() const {
  return NodesWhere([](const NodeLinks& n) {
    return n.in_degree == 0 && n.out_degree == 0;
  });
}

bool DirectedGraph::IsAcyclic() const {
  // Kahn's algorithm over node positions: the graph is acyclic iff all
  // nodes can be peeled in topological order. Self-edges are node
  // measures, not structure, and are not threaded into adjacency.
  std::vector<uint32_t> in_degree(nodes_.size());
  std::vector<uint32_t> frontier;
  frontier.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    in_degree[i] = node_links_[i].in_degree;
    if (in_degree[i] == 0) frontier.push_back(static_cast<uint32_t>(i));
  }
  size_t peeled = 0;
  while (!frontier.empty()) {
    const uint32_t n = frontier.back();
    frontier.pop_back();
    ++peeled;
    for (uint32_t e = node_links_[n].first_out; e != kNone;
         e = edge_links_[e].next_out) {
      if (--in_degree[edge_links_[e].to] == 0) {
        frontier.push_back(edge_links_[e].to);
      }
    }
  }
  return peeled == nodes_.size();
}

DirectedGraph DirectedGraph::Intersect(const DirectedGraph& a,
                                       const DirectedGraph& b) {
  DirectedGraph result;
  const DirectedGraph& small = a.num_edges() <= b.num_edges() ? a : b;
  const DirectedGraph& large = a.num_edges() <= b.num_edges() ? b : a;
  for (const Edge& e : small.edges()) {
    if (large.HasEdge(e.from, e.to)) result.AddEdge(e);
  }
  return result;
}

DirectedGraph DirectedGraph::Union(const DirectedGraph& a,
                                   const DirectedGraph& b) {
  DirectedGraph result;
  for (const Edge& e : a.edges()) result.AddEdge(e);
  for (const Edge& e : b.edges()) result.AddEdge(e);
  for (const NodeRef& n : a.nodes()) result.AddNode(n);
  for (const NodeRef& n : b.nodes()) result.AddNode(n);
  return result;
}

bool DirectedGraph::ContainsSubgraph(const DirectedGraph& sub) const {
  return std::all_of(sub.edges_.begin(), sub.edges_.end(),
                     [&](const Edge& e) { return IndexOf(e).has_value(); });
}

bool DirectedGraph::operator==(const DirectedGraph& o) const {
  return num_nodes() == o.num_nodes() && num_edges() == o.num_edges() &&
         o.ContainsSubgraph(*this) &&
         std::all_of(nodes_.begin(), nodes_.end(),
                     [&](NodeRef n) { return o.HasNode(n); });
}

DirectedGraph GraphRecord::Structure() const {
  DirectedGraph g;
  for (const Edge& e : elements) {
    if (e.IsNode()) {
      g.AddNode(e.from);
    } else {
      g.AddEdge(e);
    }
  }
  return g;
}

GraphQuery GraphQuery::FromPath(const std::vector<NodeRef>& nodes) {
  DirectedGraph g;
  COLGRAPH_CHECK(!nodes.empty());
  g.Reserve(nodes.size(), nodes.size() - 1);
  if (nodes.size() == 1) {
    g.AddNode(nodes[0]);
  }
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    g.AddEdge(nodes[i], nodes[i + 1]);
  }
  return GraphQuery(std::move(g));
}

}  // namespace colgraph
