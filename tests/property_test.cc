// Cross-cutting properties on randomized data: answers must be invariant
// to physical layout choices (partition width), view budgets must never
// increase fetch counts, and the paper's running SCM scenarios must behave
// end to end.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "query/parser.h"
#include "workload/base_graphs.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

struct Fixture {
  DirectedGraph universe;
  std::vector<GraphRecord> records;
  std::vector<std::vector<NodeRef>> trunks;
  std::vector<GraphQuery> workload;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  const DirectedGraph base = MakeRoadNetwork(16, 16);
  auto universe = SelectEdgeUniverse(base, 200, seed);
  EXPECT_TRUE(universe.ok());
  f.universe = std::move(universe).value();
  RecordGenOptions options;
  options.min_edges = 8;
  options.max_edges = 25;
  WalkRecordGenerator generator(&f.universe, options, seed + 1);
  for (int i = 0; i < 200; ++i) {
    std::vector<NodeRef> trunk;
    f.records.push_back(generator.Next(&trunk));
    f.trunks.push_back(std::move(trunk));
  }
  QueryGenerator qgen(&f.trunks, &f.universe, seed + 2);
  QueryGenOptions q_options;
  q_options.min_edges = 2;
  q_options.max_edges = 8;
  f.workload = qgen.UniformWorkload(15, q_options);
  return f;
}

ColGraphEngine BuildWithWidth(const Fixture& f, size_t partition_width) {
  EngineOptions options;
  options.relation.partition_width = partition_width;
  ColGraphEngine engine(options);
  for (const GraphRecord& r : f.records) {
    EXPECT_TRUE(engine.AddRecord(r).ok());
  }
  EXPECT_TRUE(engine.Seal().ok());
  return engine;
}

class PartitionWidthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionWidthTest, AnswersInvariantToPartitionWidth) {
  const Fixture f = MakeFixture(3);
  ColGraphEngine reference = BuildWithWidth(f, 100000);  // single partition
  ColGraphEngine partitioned = BuildWithWidth(f, GetParam());
  for (const GraphQuery& q : f.workload) {
    const auto a = reference.RunGraphQuery(q);
    const auto b = partitioned.RunGraphQuery(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->records, b->records);
    EXPECT_EQ(a->columns, b->columns);
  }
}

TEST_P(PartitionWidthTest, JoinsHappenOnlyWhenSpanningPartitions) {
  const Fixture f = MakeFixture(5);
  ColGraphEngine engine = BuildWithWidth(f, GetParam());
  engine.stats().Reset();
  for (const GraphQuery& q : f.workload) {
    auto result = engine.RunGraphQuery(q);
    ASSERT_TRUE(result.ok());
  }
  if (engine.relation().num_partitions() == 1) {
    EXPECT_EQ(engine.stats().partition_joins, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PartitionWidthTest,
                         ::testing::Values(3, 7, 50, 1000));

TEST(BudgetMonotonicityTest, FetchesNeverIncreaseWithBudget) {
  const Fixture f = MakeFixture(7);
  uint64_t previous = ~uint64_t{0};
  for (size_t budget : {0u, 3u, 8u, 15u}) {
    ColGraphEngine engine = BuildWithWidth(f, 1000);
    if (budget > 0) {
      ASSERT_TRUE(
          engine.SelectAndMaterializeGraphViews(f.workload, budget).ok());
    }
    engine.stats().Reset();
    for (const GraphQuery& q : f.workload) engine.Match(q);
    EXPECT_LE(engine.stats().bitmap_columns_fetched, previous)
        << "budget " << budget;
    previous = engine.stats().bitmap_columns_fetched;
  }
}

TEST(ParserEngineIntegrationTest, TextQueriesMatchProgrammaticOnes) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2, 3}, {1, 2}).ok());
  ASSERT_TRUE(engine.AddWalk({2, 3, 4}, {3, 4}).ok());
  ASSERT_TRUE(engine.AddWalk({1, 2, 4}, {5, 6}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  const QueryEngine qe = engine.query_engine();

  const auto parsed = ParseQuery("[1,2] AND NOT [2,3]");
  ASSERT_TRUE(parsed.ok());
  const Bitmap via_text = parsed->expr->Evaluate(qe);
  const Bitmap programmatic = QueryEngine::AndNotSets(
      engine.Match(GraphQuery::FromPath({N(1), N(2)})),
      engine.Match(GraphQuery::FromPath({N(2), N(3)})));
  EXPECT_EQ(via_text.ToVector(), programmatic.ToVector());

  const auto agg = ParseQuery("SUM [2,3,4]");
  ASSERT_TRUE(agg.ok());
  const auto via_parse = engine.RunAggregateQuery(agg->query, agg->fn);
  const auto direct = engine.RunAggregateQuery(
      GraphQuery::FromPath({N(2), N(3), N(4)}), AggFn::kSum);
  ASSERT_TRUE(via_parse.ok() && direct.ok());
  EXPECT_EQ(via_parse->values, direct->values);
}

TEST(ScmScenarioTest, DamagedArticleBackEdgeFlattens) {
  // The paper's Section 3.1 example: a back edge D->A (damaged articles
  // returned to the production line) flattens to (A,D),(D,A'),(A',D').
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 4, 1, 4}, {2.0, 1.0, 3.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  EXPECT_TRUE(engine.catalog().Lookup(Edge{N(4), N(1, 1)}).has_value());
  EXPECT_TRUE(engine.catalog().Lookup(Edge{N(1, 1), N(4, 1)}).has_value());
  // Total time including the re-shipment: aggregate over the full
  // flattened journey.
  const auto result = engine.RunAggregateQuery(
      GraphQuery::FromPath({N(1), N(4), N(1, 1), N(4, 1)}), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0], (std::vector<double>{6.0}));
}

TEST(EngineOptionsTest, PartitionWidthFlowsThroughEngineOptions) {
  EngineOptions options;
  options.relation.partition_width = 4;
  ColGraphEngine engine(options);
  ASSERT_TRUE(engine.AddWalk({1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
                             std::vector<double>(9, 1.0))
                  .ok());
  ASSERT_TRUE(engine.Seal().ok());
  EXPECT_EQ(engine.relation().num_partitions(), 3u);  // 9 columns / 4
}

}  // namespace
}  // namespace colgraph
