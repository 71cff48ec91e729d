// Core graph model (Section 3 of the paper): graph records, graph queries,
// and the directed-graph structure shared by both. Nodes and edges are
// "named entities" drawn from a common universe; a node X is modeled as the
// self-edge [X,X], so the storage layer sees only edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

namespace colgraph {

/// Base node identifier (a location, workflow state, host, ...).
using NodeId = uint32_t;

/// Column / bitmap identifier of a distinct edge in the universe.
using EdgeId = uint32_t;

/// Record identifier (row position in the master relation).
using RecordId = uint64_t;

constexpr EdgeId kInvalidEdgeId = static_cast<EdgeId>(-1);

/// \brief A node occurrence after cycle flattening (Section 6.2).
///
/// Flattening a cyclic record renames repeated visits: A, A', A'' become
/// occurrences 0, 1, 2 of base node A. Plain (acyclic) data always uses
/// occurrence 0.
struct NodeRef {
  NodeId base = 0;
  uint32_t occurrence = 0;

  bool operator==(const NodeRef& o) const {
    return base == o.base && occurrence == o.occurrence;
  }
  bool operator<(const NodeRef& o) const {
    return base != o.base ? base < o.base : occurrence < o.occurrence;
  }
  std::string ToString() const;
};

/// \brief A directed edge between two node occurrences. [X,X] denotes the
/// node X itself (its internal measure).
struct Edge {
  NodeRef from;
  NodeRef to;

  bool IsNode() const { return from == to; }
  bool operator==(const Edge& o) const { return from == o.from && to == o.to; }
  bool operator<(const Edge& o) const {
    return from == o.from ? to < o.to : from < o.from;
  }
  std::string ToString() const;
};

struct NodeRefHash {
  size_t operator()(const NodeRef& n) const {
    return std::hash<uint64_t>()((uint64_t{n.base} << 32) | n.occurrence);
  }
};

struct EdgeHash {
  size_t operator()(const Edge& e) const {
    const size_t h1 = NodeRefHash()(e.from);
    const size_t h2 = NodeRefHash()(e.to);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2));
  }
};

/// \brief Directed graph over NodeRefs in flat, position-addressed storage.
///
/// Used to represent both the structure of a graph record (before it is
/// shredded into columns) and a graph query. Parallel edges are not
/// represented (the paper models multigraphs via linked records).
///
/// Nodes and edges sit in vectors in first-seen order. One open-addressing
/// index maps a node or an edge to its position, and each node's out- and
/// in-neighbours are threaded through the edge array in insertion order.
/// So a graph of any size lives in five vectors, and const reads build
/// nothing: concurrent readers need no lock.
class DirectedGraph {
 public:
  class NeighborRange;

  /// Adds an edge (idempotent); inserts endpoints as nodes.
  void AddEdge(NodeRef from, NodeRef to);
  void AddEdge(const Edge& e) { AddEdge(e.from, e.to); }
  /// Adds an isolated node (idempotent).
  void AddNode(NodeRef n);
  /// Sizes the storage for `nodes` nodes and `edges` edges in all, so that
  /// growing to them allocates nothing more.
  void Reserve(size_t nodes, size_t edges);

  bool HasEdge(NodeRef from, NodeRef to) const {
    return IndexOf(Edge{from, to}).has_value();
  }
  bool HasNode(NodeRef n) const { return IndexOf(n).has_value(); }
  /// Position of a node in nodes(), or of an edge in edges().
  std::optional<size_t> IndexOf(NodeRef n) const;
  std::optional<size_t> IndexOf(const Edge& e) const;

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<NodeRef>& nodes() const { return nodes_; }

  /// Outgoing / incoming neighbors of a node in insertion order (empty if
  /// absent).
  NeighborRange OutNeighbors(NodeRef n) const;
  NeighborRange InNeighbors(NodeRef n) const;

  size_t OutDegree(NodeRef n) const {
    const auto i = IndexOf(n);
    return i ? OutDegreeAt(*i) : 0;
  }
  size_t InDegree(NodeRef n) const {
    const auto i = IndexOf(n);
    return i ? InDegreeAt(*i) : 0;
  }

  /// Position-addressed reads: `i` indexes nodes(). Walks over the whole
  /// graph use these instead of a hash probe per step.
  size_t OutDegreeAt(size_t i) const { return node_links_[i].out_degree; }
  size_t InDegreeAt(size_t i) const { return node_links_[i].in_degree; }
  NeighborRange OutNeighborsAt(size_t i) const;

  /// Source nodes: in-degree 0 (Src(G) in the paper).
  std::vector<NodeRef> SourceNodes() const;
  /// Terminal nodes: out-degree 0 (Ter(G)).
  std::vector<NodeRef> TerminalNodes() const;
  /// Nodes with no edge in or out. A query's isolated node constrains its
  /// matches through its own measure column.
  std::vector<NodeRef> IsolatedNodes() const;

  /// True iff the graph contains no directed cycle.
  bool IsAcyclic() const;

  /// Structural intersection: the graph of edges present in both. (Used by
  /// candidate-view generation: G_vi,j = G_qi ∩ G_qj.)
  static DirectedGraph Intersect(const DirectedGraph& a,
                                 const DirectedGraph& b);

  /// Structural union (G_All of Section 5.4; never a multigraph).
  static DirectedGraph Union(const DirectedGraph& a, const DirectedGraph& b);

  /// True iff every edge of `sub` is an edge of this graph.
  bool ContainsSubgraph(const DirectedGraph& sub) const;

  bool operator==(const DirectedGraph& o) const;

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};
  // An index slot holds a node's position, an edge's position plus this
  // tag, or kNone.
  static constexpr uint32_t kEdgeTag = uint32_t{1} << 31;

  struct NodeLinks {
    uint32_t first_out = kNone;
    uint32_t last_out = kNone;
    uint32_t first_in = kNone;
    uint32_t last_in = kNone;
    uint32_t out_degree = 0;
    uint32_t in_degree = 0;
  };
  // Endpoint positions, and the next edge with the same tail / head.
  struct EdgeLinks {
    uint32_t from = 0;
    uint32_t to = 0;
    uint32_t next_out = kNone;
    uint32_t next_in = kNone;
  };

  template <typename IsKey>
  uint32_t Find(uint64_t hash, IsKey is_key) const;
  uint32_t InternNode(NodeRef n);
  // Indexes the newest node or edge, rebuilding the index when it would
  // pass half full.
  void Index(uint64_t hash, uint32_t entry);
  void Reindex(size_t entries);
  void Place(uint64_t hash, uint32_t entry);
  template <typename Keep>
  std::vector<NodeRef> NodesWhere(Keep keep) const;

  std::vector<NodeRef> nodes_;
  std::vector<Edge> edges_;
  std::vector<NodeLinks> node_links_;
  std::vector<EdgeLinks> edge_links_;
  std::vector<uint32_t> index_;  // power-of-two slots, linear probing
};

/// \brief A node's out- or in-neighbours, read through the edge array. It
/// holds no storage of its own and stays valid while its graph is unchanged.
class DirectedGraph::NeighborRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeRef;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeRef*;
    using reference = const NodeRef&;

    iterator() = default;
    reference operator*() const {
      return out_ ? g_->edges_[edge_].to : g_->edges_[edge_].from;
    }
    iterator& operator++() {
      const EdgeLinks& links = g_->edge_links_[edge_];
      edge_ = out_ ? links.next_out : links.next_in;
      return *this;
    }
    bool operator==(const iterator& o) const { return edge_ == o.edge_; }
    /// The neighbour's position in nodes().
    size_t index() const {
      const EdgeLinks& links = g_->edge_links_[edge_];
      return out_ ? links.to : links.from;
    }

   private:
    friend class NeighborRange;
    iterator(const DirectedGraph* g, uint32_t edge, bool out)
        : g_(g), edge_(edge), out_(out) {}

    const DirectedGraph* g_ = nullptr;
    uint32_t edge_ = kNone;
    bool out_ = true;
  };

  iterator begin() const { return iterator(g_, first_, out_); }
  iterator end() const { return iterator(g_, kNone, out_); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NodeRef& front() const { return *begin(); }

 private:
  friend class DirectedGraph;
  NeighborRange(const DirectedGraph* g, uint32_t first, size_t size, bool out)
      : g_(g), first_(first), size_(size), out_(out) {}

  const DirectedGraph* g_;
  uint32_t first_;
  size_t size_;
  bool out_;
};

/// \brief One graph data record: structure plus a measure per element.
///
/// `measures[i]` is the measure recorded on `elements[i]`, where an element
/// is an edge or a node (self-edge). This is the ingest-side representation;
/// the column store shreds it into (edge-id -> measure) pairs.
struct GraphRecord {
  RecordId id = 0;
  std::vector<Edge> elements;
  std::vector<double> measures;

  /// Builds the structural graph of the record's true edges (self-edges are
  /// node measures, not structure).
  DirectedGraph Structure() const;
};

/// \brief A graph query (Section 3.2): a directed graph whose matches are
/// the records containing it as a subgraph (by shared edge identity).
class GraphQuery {
 public:
  GraphQuery() = default;
  explicit GraphQuery(DirectedGraph graph) : graph_(std::move(graph)) {}

  /// Convenience: query for a single node path [n0, n1, ..., nk].
  static GraphQuery FromPath(const std::vector<NodeRef>& nodes);

  const DirectedGraph& graph() const { return graph_; }

  size_t num_edges() const { return graph_.num_edges(); }

 private:
  DirectedGraph graph_;
};

}  // namespace colgraph
