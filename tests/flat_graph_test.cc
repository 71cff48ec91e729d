// DirectedGraph's flat storage and its index: neighbour lists keep
// insertion order on a large graph, every node and edge is found again,
// keys that share their low bits stay apart (in the graph and in the
// EdgeCatalog built on it), and the path walk over node positions stays
// simple on graphs with cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "graph/catalog.h"
#include "graph/graph.h"
#include "graph/path.h"
#include "workload/base_graphs.h"

namespace colgraph {
namespace {

std::vector<NodeRef> Collect(const DirectedGraph::NeighborRange& range) {
  return std::vector<NodeRef>(range.begin(), range.end());
}

// Checks `g` against the edge sequence that built it: node order is first
// seen, neighbour lists follow the insertion order of their edges.
void ExpectMatchesInsertions(const DirectedGraph& g,
                             const std::vector<Edge>& inserted) {
  std::vector<NodeRef> nodes;
  std::vector<Edge> edges;
  std::map<NodeRef, std::vector<NodeRef>> out;
  std::map<NodeRef, std::vector<NodeRef>> in;
  for (const Edge& e : inserted) {
    if (std::find(edges.begin(), edges.end(), e) != edges.end()) continue;
    for (const NodeRef& n : {e.from, e.to}) {
      if (out.emplace(n, std::vector<NodeRef>{}).second) {
        in.emplace(n, std::vector<NodeRef>{});
        nodes.push_back(n);
      }
    }
    edges.push_back(e);
    if (!e.IsNode()) {
      out[e.from].push_back(e.to);
      in[e.to].push_back(e.from);
    }
  }
  ASSERT_EQ(g.nodes(), nodes);
  ASSERT_EQ(g.edges(), edges);
  for (const NodeRef& n : nodes) {
    ASSERT_TRUE(g.HasNode(n)) << n.ToString();
    EXPECT_EQ(Collect(g.OutNeighbors(n)), out[n]) << n.ToString();
    EXPECT_EQ(Collect(g.InNeighbors(n)), in[n]) << n.ToString();
    EXPECT_EQ(g.OutDegree(n), out[n].size()) << n.ToString();
    EXPECT_EQ(g.InDegree(n), in[n].size()) << n.ToString();
  }
  for (const Edge& e : edges) {
    EXPECT_TRUE(g.HasEdge(e.from, e.to)) << e.ToString();
  }
}

TEST(FlatGraphTest, RoadNetworkKeepsInsertionOrderAndFindsEverything) {
  const DirectedGraph road = MakeRoadNetwork(120, 120);
  ASSERT_EQ(road.num_nodes(), 14400u);
  ExpectMatchesInsertions(road, road.edges());
  // Nothing outside the grid is found.
  EXPECT_FALSE(road.HasNode(NodeRef{14400, 0}));
  EXPECT_FALSE(road.HasNode(NodeRef{0, 1}));
  EXPECT_FALSE(road.HasEdge(NodeRef{0, 0}, NodeRef{14399, 0}));
  EXPECT_TRUE(road.OutNeighbors(NodeRef{14400, 0}).empty());
  EXPECT_EQ(road.InDegree(NodeRef{14400, 0}), 0u);
}

TEST(FlatGraphTest, ShuffledRebuildWithRepeatsFollowsItsOwnOrder) {
  const DirectedGraph road = MakeRoadNetwork(120, 120);
  std::vector<Edge> inserted = road.edges();
  std::mt19937_64 rng(7);
  // Every tenth edge again, plus some node measures (self-edges).
  for (size_t i = 0; i < road.num_edges(); i += 10) {
    inserted.push_back(road.edges()[i]);
    inserted.push_back(Edge{road.edges()[i].from, road.edges()[i].from});
  }
  std::shuffle(inserted.begin(), inserted.end(), rng);
  DirectedGraph g;
  for (const Edge& e : inserted) g.AddEdge(e);
  ExpectMatchesInsertions(g, inserted);
  EXPECT_TRUE(g.ContainsSubgraph(road));
}

TEST(FlatGraphTest, ReserveKeepsContentsAndOrder) {
  DirectedGraph g;
  g.AddEdge(NodeRef{1, 0}, NodeRef{2, 0});
  g.Reserve(1000, 1000);
  g.AddEdge(NodeRef{2, 0}, NodeRef{3, 0});
  g.AddNode(NodeRef{9, 2});
  g.Reserve(4, 4);  // smaller than held: a no-op
  EXPECT_EQ(g.nodes(), (std::vector<NodeRef>{{1, 0}, {2, 0}, {3, 0}, {9, 2}}));
  EXPECT_EQ(g.IsolatedNodes(), (std::vector<NodeRef>{{9, 2}}));
  EXPECT_TRUE(g.HasEdge(NodeRef{1, 0}, NodeRef{2, 0}));
  EXPECT_EQ(Collect(g.OutNeighbors(NodeRef{2, 0})),
            (std::vector<NodeRef>{{3, 0}}));
}

// Occurrence-0 nodes whose bases differ only in high bits: the identity
// hash would put every one of them in slot 0 of a power-of-two table.
TEST(FlatGraphTest, KeysSharingLowBitsStayDistinct) {
  DirectedGraph g;
  EdgeCatalog catalog;
  for (NodeId i = 1; i <= 4096; ++i) {
    g.AddEdge(NodeRef{i << 19, 0}, NodeRef{(i + 1) << 19, 0});
    EXPECT_EQ(catalog.GetOrAssign(Edge{NodeRef{i << 19, 0}, NodeRef{0, i}}),
              i - 1);
  }
  EXPECT_EQ(g.num_nodes(), 4097u);
  for (NodeId i = 1; i <= 4096; ++i) {
    ASSERT_TRUE(g.HasEdge(NodeRef{i << 19, 0}, NodeRef{(i + 1) << 19, 0}));
    ASSERT_EQ(catalog.Lookup(Edge{NodeRef{i << 19, 0}, NodeRef{0, i}})
                  .value_or(kInvalidEdgeId),
              i - 1);
  }
  EXPECT_FALSE(catalog.Lookup(Edge{NodeRef{0, 0}, NodeRef{0, 0}}).has_value());
}

// The composite-path DFS walks node positions; on a cycle it must still
// return simple paths only, in neighbour insertion order.
TEST(FlatGraphTest, CompositePathsStaySimpleOnCycles) {
  const auto n = [](NodeId id) { return NodeRef{id, 0}; };
  DirectedGraph g;
  g.AddEdge(n(1), n(2));
  g.AddEdge(n(2), n(3));
  g.AddEdge(n(3), n(1));
  g.AddEdge(n(2), n(4));
  g.AddEdge(n(3), n(4));
  const auto paths = EnumerateCompositePath(g, {n(1)}, {n(4), n(3)});
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  ASSERT_EQ(paths->size(), 3u);
  EXPECT_EQ((*paths)[0].nodes(), (std::vector<NodeRef>{n(1), n(2), n(3)}));
  EXPECT_EQ((*paths)[1].nodes(),
            (std::vector<NodeRef>{n(1), n(2), n(3), n(4)}));
  EXPECT_EQ((*paths)[2].nodes(), (std::vector<NodeRef>{n(1), n(2), n(4)}));
  // A 3x3 grid with roads both ways has 12 simple corner-to-corner paths.
  const DirectedGraph grid = MakeRoadNetwork(3, 3);
  const auto corner = EnumerateCompositePath(grid, {grid.nodes().front()},
                                             {grid.nodes().back()});
  ASSERT_TRUE(corner.ok()) << corner.status().ToString();
  EXPECT_EQ(corner->size(), 12u);
}

}  // namespace
}  // namespace colgraph
