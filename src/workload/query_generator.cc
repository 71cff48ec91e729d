#include "workload/query_generator.h"

#include <algorithm>

namespace colgraph {

QueryGenerator::QueryGenerator(
    const std::vector<std::vector<NodeRef>>* trunk_pool,
    const DirectedGraph* universe, uint64_t seed)
    : trunk_pool_(trunk_pool), universe_(universe), rng_(seed) {}

GraphQuery QueryGenerator::UniformPathQuery(const QueryGenOptions& options) {
  // Rejection-sample a trunk long enough for the requested subpath.
  const size_t want = rng_.Uniform(options.min_edges, options.max_edges);
  for (int attempt = 0; attempt < 256; ++attempt) {
    const auto& trunk = (*trunk_pool_)[rng_.Uniform(0, trunk_pool_->size() - 1)];
    if (trunk.size() < 2) continue;
    const size_t max_len = trunk.size() - 1;  // edges available
    const size_t len = std::min(want, max_len);
    if (len < options.min_edges && max_len >= options.min_edges) continue;
    const size_t start = rng_.Uniform(0, trunk.size() - 1 - len);
    std::vector<NodeRef> nodes(trunk.begin() + static_cast<long>(start),
                               trunk.begin() + static_cast<long>(start + len + 1));
    return GraphQuery::FromPath(nodes);
  }
  // Degenerate fallback: the longest available trunk as-is.
  const auto& trunk = trunk_pool_->front();
  return GraphQuery::FromPath(trunk);
}

std::vector<GraphQuery> QueryGenerator::UniformWorkload(
    size_t n, const QueryGenOptions& options) {
  std::vector<GraphQuery> workload;
  workload.reserve(n);
  for (size_t i = 0; i < n; ++i) workload.push_back(UniformPathQuery(options));
  return workload;
}

std::vector<GraphQuery> QueryGenerator::ZipfWorkload(
    size_t n, size_t pool_size, double theta, const QueryGenOptions& options) {
  std::vector<GraphQuery> pool = UniformWorkload(pool_size, options);
  ZipfSampler zipf(pool.size(), theta, rng_.Uniform(0, ~uint64_t{0} >> 1));
  std::vector<GraphQuery> workload;
  workload.reserve(n);
  for (size_t i = 0; i < n; ++i) workload.push_back(pool[zipf.Sample()]);
  return workload;
}

GraphQuery QueryGenerator::StructuralQuery(size_t num_edges) {
  // Start only where a first hop exists (the universe subgraph has sinks).
  std::vector<NodeRef> nodes;
  for (const NodeRef& n : universe_->nodes()) {
    if (universe_->OutDegree(n) > 0) nodes.push_back(n);
  }
  NodeRef here = nodes[rng_.Uniform(0, nodes.size() - 1)];
  if (num_edges == 0) return GraphQuery();
  // The walk's own graph is its visited set, in visiting order.
  DirectedGraph g;
  g.AddNode(here);
  while (g.num_edges() < num_edges) {
    std::vector<NodeRef> candidates;
    for (const NodeRef& n : universe_->OutNeighbors(here)) {
      if (!g.HasNode(n)) candidates.push_back(n);
    }
    if (candidates.empty()) {
      NodeRef branch{};
      bool found = false;
      std::vector<size_t> order(g.num_nodes());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng_.Shuffle(&order);
      for (size_t idx : order) {
        for (const NodeRef& n : universe_->OutNeighbors(g.nodes()[idx])) {
          if (!g.HasNode(n)) {
            branch = g.nodes()[idx];
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) break;  // universe exhausted
      here = branch;
      continue;
    }
    const NodeRef next = candidates[rng_.Uniform(0, candidates.size() - 1)];
    g.AddEdge(here, next);
    here = next;
  }
  return GraphQuery(std::move(g));
}

std::vector<GraphQuery> QueryGenerator::StructuralWorkload(size_t n,
                                                           size_t num_edges) {
  std::vector<GraphQuery> workload;
  workload.reserve(n);
  for (size_t i = 0; i < n; ++i) workload.push_back(StructuralQuery(num_edges));
  return workload;
}

}  // namespace colgraph
