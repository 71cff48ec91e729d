// Incremental ingest: a sealed engine grows only by sealing new walks into
// a tail dataset (BuildTailRelation), attaching it (AttachDataset), and
// compacting it into the primary (Compact) when materialized views must
// cover the new records. Growth must keep old data intact and leave
// rewritten queries correct.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

struct Walk {
  std::vector<NodeId> nodes;
  std::vector<double> measures;
};

// Seals `walks` into a tail dataset and attaches it behind the primary.
Status AttachWalks(ColGraphEngine& engine, const std::vector<Walk>& walks) {
  std::vector<GraphRecord> records;
  for (const Walk& w : walks) {
    COLGRAPH_ASSIGN_OR_RETURN(GraphRecord record,
                              WalkToRecord(w.nodes, w.measures));
    records.push_back(std::move(record));
  }
  COLGRAPH_ASSIGN_OR_RETURN(MasterRelation tail,
                            engine.BuildTailRelation(records));
  return engine.AttachDataset(
      std::make_shared<const MasterRelation>(std::move(tail)));
}

// The full append: attach, then compact into the primary.
Status Append(ColGraphEngine& engine, const std::vector<Walk>& walks) {
  COLGRAPH_RETURN_NOT_OK(AttachWalks(engine, walks));
  return engine.Compact();
}

TEST(IncrementalTest, AppendGrowsRecordSet) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2, 3}, {1, 2}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  EXPECT_EQ(engine.num_records(), 1u);

  ASSERT_TRUE(AttachWalks(engine, {{{1, 2, 3}, {3, 4}}, {{2, 3, 4}, {5, 6}}})
                  .ok());
  // Attached records are queryable before compaction...
  EXPECT_EQ(engine.total_records(), 3u);
  const GraphQuery q = GraphQuery::FromPath({N(1), N(2), N(3)});
  EXPECT_EQ(engine.Match(q).ToVector(), (std::vector<uint64_t>{0, 1}));
  // ...and keep their ids after it.
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.num_records(), 3u);
  EXPECT_EQ(engine.Match(q).ToVector(), (std::vector<uint64_t>{0, 1}));
}

TEST(IncrementalTest, OldMeasuresSurviveAppend) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {42.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  ASSERT_TRUE(Append(engine, {{{1, 2}, {43.0}}}).ok());

  const EdgeId e = *engine.catalog().Lookup(Edge{N(1), N(2)});
  EXPECT_EQ(engine.relation().PeekMeasureColumn(e).Get(0), 42.0);
  EXPECT_EQ(engine.relation().PeekMeasureColumn(e).Get(1), 43.0);
}

TEST(IncrementalTest, NewEdgesExtendTheSchema) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  const size_t before = engine.relation().num_edge_columns();

  ASSERT_TRUE(Append(engine, {{{7, 8, 9}, {1.0, 2.0}}}).ok());
  EXPECT_GT(engine.relation().num_edge_columns(), before);

  const Bitmap m = engine.Match(GraphQuery::FromPath({N(7), N(8), N(9)}));
  EXPECT_EQ(m.ToVector(), (std::vector<uint64_t>{1}));
}

TEST(IncrementalTest, GraphViewsRefreshedAfterAppend) {
  ColGraphEngine engine;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2, 3, 4}, {1, 1, 1}).ok());
  }
  ASSERT_TRUE(engine.Seal().ok());

  const EdgeId e0 = *engine.catalog().Lookup(Edge{N(1), N(2)});
  const EdgeId e1 = *engine.catalog().Lookup(Edge{N(2), N(3)});
  const EdgeId e2 = *engine.catalog().Lookup(Edge{N(3), N(4)});
  ASSERT_TRUE(engine.MaterializeView(GraphViewDef::Make({e0, e1, e2})).ok());

  ASSERT_TRUE(Append(engine, {{{1, 2, 3, 4}, {2, 2, 2}}}).ok());

  // A view-rewritten match must see the appended record.
  const Bitmap m = engine.Match(GraphQuery::FromPath({N(1), N(2), N(3), N(4)}));
  EXPECT_EQ(m.Count(), 5u);
  EXPECT_TRUE(m.Test(4));
  // And it really uses the re-materialized view (1 bitmap fetched).
  engine.stats().Reset();
  engine.Match(GraphQuery::FromPath({N(1), N(2), N(3), N(4)}));
  EXPECT_EQ(engine.stats().bitmap_columns_fetched, 1u);
}

TEST(IncrementalTest, AggViewsRefreshedAfterAppend) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2, 3}, {1, 2}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  const EdgeId e0 = *engine.catalog().Lookup(Edge{N(1), N(2)});
  const EdgeId e1 = *engine.catalog().Lookup(Edge{N(2), N(3)});
  AggViewDef def;
  def.elements = {e0, e1};
  def.fn = AggFn::kSum;
  ASSERT_TRUE(engine.MaterializeView(def).ok());

  ASSERT_TRUE(Append(engine, {{{1, 2, 3}, {10, 20}}}).ok());

  auto result = engine.RunAggregateQuery(
      GraphQuery::FromPath({N(1), N(2), N(3)}), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0], (std::vector<double>{3, 30}));
  // The fold used the re-materialized aggregate view: one measure column.
  engine.stats().Reset();
  ASSERT_TRUE(engine
                  .RunAggregateQuery(GraphQuery::FromPath({N(1), N(2), N(3)}),
                                     AggFn::kSum)
                  .ok());
  EXPECT_EQ(engine.stats().measure_columns_fetched, 1u);
}

TEST(IncrementalTest, MultipleAppendRounds) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(Append(engine, {{{1, 2}, {1.0}}}).ok());
  }
  EXPECT_EQ(engine.num_records(), 6u);
  EXPECT_EQ(engine.Match(GraphQuery::FromPath({N(1), N(2)})).Count(), 6u);
}

}  // namespace
}  // namespace colgraph
