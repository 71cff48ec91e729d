#include "graph/catalog.h"

#include <algorithm>

namespace colgraph {

EdgeId EdgeCatalog::GetOrAssign(const Edge& e) {
  if (const auto id = Lookup(e)) return *id;
  universe_.AddEdge(e);
  return static_cast<EdgeId>(universe_.num_edges() - 1);
}

StatusOr<std::vector<EdgeId>> EdgeCatalog::LookupAll(
    const std::vector<Edge>& edges) const {
  std::vector<EdgeId> result;
  result.reserve(edges.size());
  for (const Edge& e : edges) {
    auto id = Lookup(e);
    if (!id.has_value()) {
      return Status::NotFound("edge not in catalog: " + e.ToString());
    }
    result.push_back(*id);
  }
  return result;
}

ResolvedGraph EdgeCatalog::Resolve(const DirectedGraph& query) const {
  const std::vector<NodeRef> isolated = query.IsolatedNodes();
  ResolvedGraph resolved;
  resolved.ids.reserve(query.num_edges() + isolated.size());
  for (const Edge& e : query.edges()) {
    const auto id = Lookup(e);
    if (!id.has_value()) {
      if (e.IsNode()) continue;  // node without a measure column: unconstrained
      resolved.satisfiable = false;  // edge never seen: no record matches
      continue;
    }
    resolved.ids.push_back(*id);
  }
  // Isolated nodes constrain the result when they carry a measure column.
  for (const NodeRef& n : isolated) {
    const auto id = Lookup(Edge{n, n});
    if (id.has_value()) resolved.ids.push_back(*id);
  }
  std::sort(resolved.ids.begin(), resolved.ids.end());
  resolved.ids.erase(std::unique(resolved.ids.begin(), resolved.ids.end()),
                     resolved.ids.end());
  return resolved;
}

}  // namespace colgraph
