#include "workload/base_graphs.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "util/random.h"

namespace colgraph {

DirectedGraph MakeRoadNetwork(size_t width, size_t height) {
  DirectedGraph g;
  auto node = [width](size_t x, size_t y) {
    return NodeRef{static_cast<NodeId>(y * width + x), 0};
  };
  for (size_t y = 0; y < height; ++y) {
    for (size_t x = 0; x < width; ++x) {
      if (x + 1 < width) {
        g.AddEdge(node(x, y), node(x + 1, y));
        g.AddEdge(node(x + 1, y), node(x, y));
      }
      if (y + 1 < height) {
        g.AddEdge(node(x, y), node(x, y + 1));
        g.AddEdge(node(x, y + 1), node(x, y));
      }
    }
  }
  return g;
}

DirectedGraph MakePowerLawNetwork(size_t num_nodes, size_t edges_per_node,
                                  uint64_t seed) {
  DirectedGraph g;
  Rng rng(seed);
  // Endpoint pool: nodes appear once per incident edge, so sampling from
  // the pool is degree-proportional (preferential attachment).
  std::vector<NodeId> endpoint_pool;
  // Seed clique among the first few nodes.
  const size_t seed_nodes = std::max<size_t>(edges_per_node + 1, 2);
  for (NodeId u = 0; u < seed_nodes; ++u) {
    for (NodeId v = 0; v < seed_nodes; ++v) {
      if (u == v) continue;
      g.AddEdge(NodeRef{u, 0}, NodeRef{v, 0});
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }
  for (NodeId u = static_cast<NodeId>(seed_nodes); u < num_nodes; ++u) {
    std::unordered_set<NodeId> chosen;
    while (chosen.size() < edges_per_node && chosen.size() < u) {
      const NodeId target =
          endpoint_pool[rng.Uniform(0, endpoint_pool.size() - 1)];
      if (target == u) continue;
      chosen.insert(target);
    }
    for (NodeId v : chosen) {
      // p2p links are symmetric: connections carry traffic both ways.
      g.AddEdge(NodeRef{u, 0}, NodeRef{v, 0});
      g.AddEdge(NodeRef{v, 0}, NodeRef{u, 0});
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }
  return g;
}

StatusOr<DirectedGraph> SelectEdgeUniverse(const DirectedGraph& base,
                                           size_t num_edges, uint64_t seed) {
  if (base.num_edges() < num_edges) {
    return Status::InvalidArgument(
        "base network has only " + std::to_string(base.num_edges()) +
        " edges; cannot select a universe of " + std::to_string(num_edges));
  }
  Rng rng(seed);
  const auto& nodes = base.nodes();
  DirectedGraph universe;
  // Randomized DFS edge collection from a random start node (depth-first
  // keeps the sub-universe path-rich even on hub-dominated power-law
  // graphs); restarts from a fresh random node if the component is
  // exhausted early.
  std::unordered_set<NodeRef, NodeRefHash> enqueued;
  std::deque<NodeRef> frontier;
  auto push_random_start = [&]() {
    for (int attempts = 0; attempts < 64; ++attempts) {
      const NodeRef start = nodes[rng.Uniform(0, nodes.size() - 1)];
      if (enqueued.insert(start).second) {
        frontier.push_back(start);
        return true;
      }
    }
    return false;
  };
  if (!push_random_start()) {
    return Status::Internal("failed to pick a start node");
  }
  while (universe.num_edges() < num_edges) {
    if (frontier.empty()) {
      if (!push_random_start()) break;
      continue;
    }
    const NodeRef here = frontier.back();
    frontier.pop_back();
    const auto out = base.OutNeighbors(here);
    std::vector<NodeRef> neighbors(out.begin(), out.end());
    rng.Shuffle(&neighbors);
    for (const NodeRef& next : neighbors) {
      if (universe.num_edges() >= num_edges) break;
      universe.AddEdge(here, next);
      if (enqueued.insert(next).second) frontier.push_back(next);
    }
  }
  if (universe.num_edges() < num_edges) {
    return Status::Internal("could not grow the universe to the target size");
  }
  return universe;
}

}  // namespace colgraph
