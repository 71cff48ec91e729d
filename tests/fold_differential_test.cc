// Differential harness for the aggregate fold: RunAggregateQuery and
// AggregateAlongPath (QueryEngine::FoldPath, which gathers each plan
// segment's column a block at a time and folds record by record) against
// the per-record MeasureColumn::Get fold they replaced, kept here as the
// reference. The reference folds each matched record on its own, in plan
// order on whichever store holds it (every tail carries the catalog's
// views, as the primary does), skipping NULLs; a column a store never grew
// is NULL for all of its records.
//
// Relations hold records that lack elements (NULL), stored NaN payloads,
// -0.0 and infinities. Queries cover every AggFn, views on and off,
// multi-path DAG queries, open paths through AggregateAlongPath, and a
// primary plus two tails at bases that are not multiples of 64, one tail
// lacking columns the primary's views name and one with a node measure the
// primary never had. Results must match bit for
// bit (a NaN result only has to be a NaN, see ExpectSameResults), and
// FetchStats.values_fetched and partitions_touched must move exactly as
// the per-record fold counted them. Everything runs in both dispatch
// modes; COLGRAPH_DIFF_ITERS scales the query count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/simd.h"
#include "columnstore/master_relation.h"
#include "graph/catalog.h"
#include "query/engine.h"
#include "util/random.h"
#include "views/materializer.h"

namespace colgraph {
namespace {

constexpr NodeId kNumNodes = 8;
constexpr AggFn kAllFns[] = {AggFn::kSum, AggFn::kCount, AggFn::kMin,
                             AggFn::kMax, AggFn::kAvg};

size_t IterationsFromEnv(size_t default_iters) {
  const char* s = std::getenv("COLGRAPH_DIFF_ITERS");
  if (s == nullptr) return default_iters;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(v));
  return u;
}

double FromBits(uint64_t u) {
  double v = 0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

NodeRef N(NodeId id) { return NodeRef{id, 0}; }

double RandomValue(Rng& rng) {
  static const uint64_t kSpecial[] = {
      0x8000000000000000ull,  // -0.0
      0x7ff0000000000000ull,  // +inf
      0xfff0000000000000ull,  // -inf
      0x7ff8000000000000ull,  // the quiet NaN a NULL gathers as
      0x7ff8000000000123ull,  // quiet NaN with a payload
      0xfff8000000abcdefull,  // negative quiet NaN with a payload
  };
  if (rng.Bernoulli(0.1)) {
    return FromBits(kSpecial[rng.Uniform(0, std::size(kSpecial) - 1)]);
  }
  return rng.UniformReal(-100, 100);
}

// The element universe: nodes 0..7 with their node measures, and the
// forward edges i->i+1 and i->i+2, so every query is a DAG. Ids are
// assigned in a shuffled order, so path order is not id order, except
// that the node measures of nodes 6 and 7 get the two largest ids: the
// primary is built without them (a tail introduces them).
struct Universe {
  EdgeCatalog catalog;
  std::vector<Edge> edges;  // every element, by id
  size_t primary_columns = 0;

  explicit Universe(Rng& rng) {
    std::vector<Edge> all;
    for (NodeId i = 0; i < kNumNodes; ++i) {
      if (i < 6) all.push_back(Edge{N(i), N(i)});
      if (i + 1 < kNumNodes) all.push_back(Edge{N(i), N(i + 1)});
      if (i + 2 < kNumNodes) all.push_back(Edge{N(i), N(i + 2)});
    }
    rng.Shuffle(&all);
    primary_columns = all.size();
    all.push_back(Edge{N(6), N(6)});
    all.push_back(Edge{N(7), N(7)});
    for (const Edge& e : all) catalog.GetOrAssign(e);
    edges = all;
  }
};

// `num_records` records over element ids [0, num_columns). Edges are
// dense so queries match often; node measures are absent a third of the
// time, which makes NULLs inside matched records.
MasterRelation RandomRelation(Rng& rng, const Universe& universe,
                              size_t num_records, size_t num_columns) {
  MasterRelation rel;
  rel.EnsureColumns(num_columns);
  for (size_t r = 0; r < num_records; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId id = 0; id < num_columns; ++id) {
      const bool node = universe.edges[id].IsNode();
      if (rng.Bernoulli(node ? 0.65 : 0.9)) {
        record.emplace_back(id, RandomValue(rng));
      }
    }
    EXPECT_TRUE(rel.AddRecord(record).ok());
  }
  EXPECT_TRUE(rel.Seal().ok());
  return rel;
}

// A random path of 1..6 nodes along the universe's forward edges.
std::vector<NodeRef> RandomNodes(Rng& rng) {
  std::vector<NodeRef> nodes{
      N(static_cast<NodeId>(rng.Uniform(0, kNumNodes - 1)))};
  const size_t length = rng.Uniform(0, 5);
  while (nodes.size() <= length) {
    const NodeId next = nodes.back().base + (rng.Bernoulli(0.7) ? 1 : 2);
    if (next >= kNumNodes) break;
    nodes.push_back(N(next));
  }
  return nodes;
}

std::vector<EdgeId> ElementIds(const Universe& universe, const Path& path) {
  std::vector<EdgeId> ids;
  for (const Edge& e : path.Elements()) {
    const auto id = universe.catalog.Lookup(e);
    if (id.has_value()) ids.push_back(*id);
  }
  return ids;
}

// Aggregate views over random sub-paths, of every function, on the
// primary's columns only.
void MaterializeRandomViews(Rng& rng, const Universe& universe,
                            MasterRelation* primary, ViewCatalog* views) {
  for (size_t v = 0; v < 24; ++v) {
    std::vector<NodeRef> nodes = RandomNodes(rng);
    if (nodes.size() < 2) continue;
    AggViewDef def;
    def.elements = ElementIds(
        universe, Path(nodes, rng.Bernoulli(0.5), rng.Bernoulli(0.5)));
    def.fn = kAllFns[rng.Uniform(0, std::size(kAllFns) - 1)];
    bool on_primary = def.elements.size() >= 2;
    for (const EdgeId id : def.elements) {
      on_primary &= id < primary->num_edge_columns();
    }
    if (!on_primary) continue;
    ASSERT_TRUE(MaterializeAggView(def, primary, views).ok());
  }
}

struct FoldCounts {
  uint64_t values_fetched = 0;
  uint64_t partitions_touched = 0;
};

FoldCounts CountsOf(const MasterRelation& rel) {
  return {rel.stats().values_fetched, rel.stats().partitions_touched};
}

// The per-record Get fold of one path over `records` (global ids).
std::vector<double> ReferenceFold(const MasterRelation& primary,
                                  const std::vector<RelationSegment>& tails,
                                  const std::vector<RecordId>& records,
                                  const PathPlan& plan, AggFn fn,
                                  FoldCounts* counts) {
  const auto column_of = [](const MasterRelation& store, EdgeId e) {
    return e < store.num_edge_columns() ? &store.PeekMeasureColumn(e)
                                        : nullptr;
  };
  std::vector<double> values;
  for (const RecordId r : records) {
    RelationSegment owner{&primary, 0};
    for (const RelationSegment& t : tails) {
      if (r >= t.base && r < t.base + t.relation->num_records()) owner = t;
    }
    EXPECT_LT(r - owner.base, owner.relation->num_records()) << "record " << r;
    if (r - owner.base >= owner.relation->num_records()) return values;
    AggAccumulator acc(fn);
    for (const PathSegment& seg : plan.segments) {
      const MeasureColumn* col =
          seg.is_view ? &owner.relation->PeekAggregateView(seg.agg_view_column)
                      : column_of(*owner.relation, seg.atom);
      const auto v = col == nullptr ? std::nullopt : col->Get(r - owner.base);
      if (!v.has_value()) continue;
      if (seg.is_view) {
        acc.Merge(*v, seg.num_elements);
      } else {
        acc.Add(*v);
      }
    }
    counts->values_fetched += plan.segments.size();
    values.push_back(acc.Result());
  }
  return values;
}

// Bit for bit, -0.0 included, except that a NaN result only has to be a
// NaN: when two NaNs meet in an addition, IEEE 754 leaves open whose
// payload and sign survive, and the compiler may commute the operands of
// AggAccumulator's `+=`, so no two compilations of the same fold promise
// the same NaN bits.
void ExpectSameResults(const std::vector<double>& want,
                       const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    ASSERT_EQ(Bits(want[i]), Bits(got[i])) << "record slot " << i;
  }
}

// One store layout under test: the primary, its views, and its tails.
struct Fixture {
  Universe universe;
  MasterRelation primary;
  ViewCatalog views;
  std::vector<MasterRelation> tail_relations;
  std::vector<RelationSegment> tails;

  // Each tail shape is (records, columns relative to the primary's).
  // Without tails the primary has every element: only a tail can grow the
  // catalog past the primary's columns.
  Fixture(Rng& rng, size_t primary_records,
          const std::vector<std::pair<size_t, int>>& tail_shapes)
      : universe(rng),
        primary(RandomRelation(rng, universe, primary_records,
                               tail_shapes.empty()
                                   ? universe.edges.size()
                                   : universe.primary_columns)) {
    MaterializeRandomViews(rng, universe, &primary, &views);
    tail_relations.reserve(tail_shapes.size());
    size_t base = primary_records;
    for (const auto& [records, extra_columns] : tail_shapes) {
      const size_t columns = static_cast<size_t>(
          static_cast<int>(universe.primary_columns) + extra_columns);
      tail_relations.push_back(
          RandomRelation(rng, universe, records, columns));
      // Every segment carries the catalog's views over its own records.
      EXPECT_TRUE(MaterializeCatalogViews(views, &tail_relations.back()).ok());
      tails.push_back(RelationSegment{&tail_relations.back(), base});
      base += records;
    }
  }

  QueryEngine Engine() const {
    return QueryEngine(&primary, &universe.catalog, &views, nullptr, &tails);
  }
};

// A query of one path, or of two paths from one node (a DAG with two
// maximal paths).
GraphQuery RandomQuery(Rng& rng) {
  DirectedGraph graph;
  const std::vector<NodeRef> first = RandomNodes(rng);
  for (size_t i = 0; i + 1 < first.size(); ++i) {
    graph.AddEdge(first[i], first[i + 1]);
  }
  if (first.size() == 1) graph.AddNode(first.front());
  if (first.size() >= 2 && rng.Bernoulli(0.4)) {
    const NodeId from = first.front().base;
    if (from + 2 < kNumNodes) {
      const NodeId other = first[1].base == from + 1 ? from + 2 : from + 1;
      graph.AddEdge(first.front(), N(other));
    }
  }
  return GraphQuery(std::move(graph));
}

void ExpectAggregateQueriesMatch(Rng& rng, const Fixture& f, size_t queries) {
  const QueryEngine engine = f.Engine();
  for (size_t q = 0; q < queries; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const GraphQuery query = RandomQuery(rng);
    for (const AggFn fn : kAllFns) {
      for (const bool use_views : {false, true}) {
        SCOPED_TRACE(std::string(AggFnName(fn)) +
                     (use_views ? " views on" : " views off"));
        QueryOptions options;
        options.use_views = use_views;
        const FoldCounts before = CountsOf(f.primary);
        const auto result = engine.RunAggregateQuery(query, fn, options);
        const FoldCounts after = CountsOf(f.primary);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->values.size(), result->paths.size());

        FoldCounts want;
        for (size_t p = 0; p < result->paths.size(); ++p) {
          const std::vector<EdgeId> elements =
              ElementIds(f.universe, result->paths[p]);
          const PathPlan plan = PlanPathAggregation(
              elements, fn, use_views ? &f.views : nullptr);
          if (!plan.segments.empty()) ++want.partitions_touched;
          ExpectSameResults(ReferenceFold(f.primary, f.tails,
                                           result->records, plan, fn, &want),
                             result->values[p]);
        }
        EXPECT_EQ(after.values_fetched - before.values_fetched,
                  want.values_fetched);
        EXPECT_EQ(after.partitions_touched - before.partitions_touched,
                  want.partitions_touched);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

void ExpectOpenPathsMatch(Rng& rng, const Fixture& f, size_t queries) {
  const QueryEngine engine = f.Engine();
  for (size_t q = 0; q < queries; ++q) {
    const Path path(RandomNodes(rng), rng.Bernoulli(0.5), rng.Bernoulli(0.5));
    SCOPED_TRACE("path " + path.ToString());
    for (const AggFn fn : kAllFns) {
      for (const bool use_views : {false, true}) {
        SCOPED_TRACE(std::string(AggFnName(fn)) +
                     (use_views ? " views on" : " views off"));
        QueryOptions options;
        options.use_views = use_views;
        const FoldCounts before = CountsOf(f.primary);
        const auto result = engine.AggregateAlongPath(path, fn, options);
        const FoldCounts after = CountsOf(f.primary);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->values.size(), 1u);

        const std::vector<EdgeId> elements = ElementIds(f.universe, path);
        const PathPlan plan = PlanPathAggregation(
            elements, fn, use_views ? &f.views : nullptr);
        FoldCounts want;  // an open path counts no partition visit
        ExpectSameResults(ReferenceFold(f.primary, f.tails, result->records,
                                         plan, fn, &want),
                           result->values[0]);
        EXPECT_EQ(after.values_fetched - before.values_fetched,
                  want.values_fetched);
        EXPECT_EQ(after.partitions_touched, before.partitions_touched);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

class FoldDifferentialTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::SetForceScalarForTest(GetParam()); }
  void TearDown() override { simd::SetForceScalarForTest(false); }
};

INSTANTIATE_TEST_SUITE_P(DispatchModes, FoldDifferentialTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "Scalar" : "Dispatched";
                         });

// Large enough for several fold blocks (2,048 records each).
TEST_P(FoldDifferentialTest, PrimaryOnlyMatchesPerRecordFold) {
  Rng rng(1701);
  const Fixture f(rng, 5003, {});
  ExpectAggregateQueriesMatch(rng, f, IterationsFromEnv(40));
  ExpectOpenPathsMatch(rng, f, IterationsFromEnv(40));
}

// Tails at bases 301 and 398. The first lacks the primary's last three
// columns (views naming them hold none of its records); the second has
// every element, including the node measures of nodes 6 and 7, which the
// primary never had (NULL for its records).
TEST_P(FoldDifferentialTest, TailsAtUnalignedBasesMatchPerRecordFold) {
  Rng rng(1702);
  const Fixture f(rng, 301, {{97, -3}, {150, 2}});
  ExpectAggregateQueriesMatch(rng, f, IterationsFromEnv(60));
  ExpectOpenPathsMatch(rng, f, IterationsFromEnv(60));
}

// A primary record matching a path through node 6 has no measure for
// node 6 or 7 (only the tail has those columns) and folds the elements it
// has: both edges, plus node 5's measure when the record carries it.
TEST(FoldTest, ElementOnlyATailHasIsNullForPrimaryRecords) {
  Rng rng(1704);
  const Fixture f(rng, 70, {{30, 2}});
  const QueryEngine engine = f.Engine();
  const auto result = engine.RunAggregateQuery(
      GraphQuery::FromPath({N(5), N(6), N(7)}), AggFn::kCount);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->values.size(), 1u);
  size_t primary_records = 0;
  for (size_t i = 0; i < result->records.size(); ++i) {
    if (result->records[i] >= f.primary.num_records()) continue;
    ++primary_records;
    EXPECT_GE(result->values[0][i], 2.0) << "record " << result->records[i];
    EXPECT_LE(result->values[0][i], 3.0) << "record " << result->records[i];
  }
  EXPECT_GT(primary_records, 0u);
}

}  // namespace
}  // namespace colgraph
