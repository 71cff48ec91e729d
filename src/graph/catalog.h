// EdgeCatalog: the "universally adopted naming scheme" of Section 3.1. Maps
// each distinct edge (or node, as self-edge) in the application's universe
// to a dense EdgeId, which is the column index of its measure column m_i
// and bitmap column b_i in the master relation.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace colgraph {

/// \brief A query graph's structural elements as edge-column ids, sorted
/// and unique.
///
/// A structural *edge* absent from the catalog makes the query
/// unsatisfiable (no record ever contained it) — flagged via `satisfiable`.
/// An isolated *node* without a measure column is unconstrained and
/// skipped (its column was dropped from the schema, Section 4.1).
struct ResolvedGraph {
  std::vector<EdgeId> ids;
  bool satisfiable = true;
};

/// \brief Bidirectional edge <-> EdgeId mapping.
///
/// Ids are assigned densely in first-seen order, so the column store can
/// index columns by EdgeId directly. The catalog can be pre-populated from
/// a base network (fixing the universe, as in the experiments where the
/// domain has exactly 1000 distinct edge ids) or grown on demand at ingest.
class EdgeCatalog {
 public:
  /// Returns the id of `e`, assigning a fresh one if unseen.
  EdgeId GetOrAssign(const Edge& e);

  /// Returns the id of `e` or nullopt when the edge is not in the universe.
  std::optional<EdgeId> Lookup(const Edge& e) const {
    const auto id = universe_.IndexOf(e);
    if (!id.has_value()) return std::nullopt;
    return static_cast<EdgeId>(*id);
  }

  /// Reverse lookup; id must be < size().
  const Edge& edge(EdgeId id) const { return universe_.edges()[id]; }

  /// Number of distinct edges in the universe.
  size_t size() const { return universe_.num_edges(); }

  /// Maps a set of edges to ids, failing on the first unknown edge.
  StatusOr<std::vector<EdgeId>> LookupAll(const std::vector<Edge>& edges) const;

  /// Resolves a query graph's edges and isolated nodes (see ResolvedGraph).
  ResolvedGraph Resolve(const DirectedGraph& query) const;

 private:
  // An edge's id is its position in edges(), found through the graph's
  // flat index.
  DirectedGraph universe_;
};

}  // namespace colgraph
