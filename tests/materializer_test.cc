#include "views/materializer.h"

#include <gtest/gtest.h>

namespace colgraph {
namespace {

// Four records over edges 0..3; edge presence by record:
//   r0: 0,1,2   r1: 0,1   r2: 1,2,3   r3: 0,1,2,3
MasterRelation MakeRelation() {
  MasterRelation rel;
  EXPECT_TRUE(rel.AddRecord({{0, 1.0}, {1, 2.0}, {2, 3.0}}).ok());
  EXPECT_TRUE(rel.AddRecord({{0, 4.0}, {1, 5.0}}).ok());
  EXPECT_TRUE(rel.AddRecord({{1, 6.0}, {2, 7.0}, {3, 8.0}}).ok());
  EXPECT_TRUE(rel.AddRecord({{0, 9.0}, {1, 10.0}, {2, 11.0}, {3, 12.0}}).ok());
  EXPECT_TRUE(rel.Seal().ok());
  return rel;
}

TEST(MaterializeGraphViewTest, BitmapIsConjunction) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  const auto index =
      MaterializeGraphView(GraphViewDef::Make({0, 1, 2}), &rel, &catalog);
  ASSERT_TRUE(index.ok());
  const Bitmap& view = rel.PeekGraphView(*index);
  EXPECT_TRUE(view.Test(0));
  EXPECT_FALSE(view.Test(1));
  EXPECT_FALSE(view.Test(2));
  EXPECT_TRUE(view.Test(3));
  EXPECT_EQ(catalog.num_graph_views(), 1u);
}

TEST(MaterializeGraphViewTest, EmptyViewRejected) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  EXPECT_TRUE(MaterializeGraphView(GraphViewDef{}, &rel, &catalog)
                  .status()
                  .IsInvalidArgument());
}

TEST(MaterializeGraphViewTest, UnknownEdgeRejected) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  EXPECT_TRUE(MaterializeGraphView(GraphViewDef::Make({0, 99}), &rel, &catalog)
                  .status()
                  .IsInvalidArgument());
}

TEST(MaterializeGraphViewTest, UnsealedRelationRejected) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  ViewCatalog catalog;
  EXPECT_TRUE(MaterializeGraphView(GraphViewDef::Make({0}), &rel, &catalog)
                  .status()
                  .IsInvalidArgument());
}

TEST(MaterializeAggViewTest, SumAlongPath) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  AggViewDef def;
  def.elements = {0, 1};
  def.fn = AggFn::kSum;
  const auto index = MaterializeAggView(def, &rel, &catalog);
  ASSERT_TRUE(index.ok());
  const MeasureColumn& mp = rel.PeekAggregateView(*index);
  EXPECT_EQ(mp.Get(0), 3.0);    // 1+2
  EXPECT_EQ(mp.Get(1), 9.0);    // 4+5
  EXPECT_FALSE(mp.Get(2).has_value());  // r2 lacks edge 0
  EXPECT_EQ(mp.Get(3), 19.0);   // 9+10
  EXPECT_EQ(catalog.num_agg_views(), 1u);
}

TEST(MaterializeAggViewTest, MaxAlongPath) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  AggViewDef def;
  def.elements = {1, 2, 3};
  def.fn = AggFn::kMax;
  const auto index = MaterializeAggView(def, &rel, &catalog);
  ASSERT_TRUE(index.ok());
  const MeasureColumn& mp = rel.PeekAggregateView(*index);
  EXPECT_FALSE(mp.Get(0).has_value());
  EXPECT_EQ(mp.Get(2), 8.0);
  EXPECT_EQ(mp.Get(3), 12.0);
}

TEST(MaterializeAggViewTest, AvgStoresSumSubAggregate) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  AggViewDef def;
  def.elements = {0, 1};
  def.fn = AggFn::kAvg;
  const auto index = MaterializeAggView(def, &rel, &catalog);
  ASSERT_TRUE(index.ok());
  // The stored value is the SUM (count = 2 is static).
  EXPECT_EQ(rel.PeekAggregateView(*index).Get(0), 3.0);
}

TEST(MaterializeAggViewTest, SingleElementRejected) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  AggViewDef def;
  def.elements = {0};
  EXPECT_TRUE(
      MaterializeAggView(def, &rel, &catalog).status().IsInvalidArgument());
}

TEST(MaterializeAggViewTest, BitmapMatchesMeasurePresence) {
  MasterRelation rel = MakeRelation();
  ViewCatalog catalog;
  AggViewDef def;
  def.elements = {2, 3};
  def.fn = AggFn::kSum;
  const auto index = MaterializeAggView(def, &rel, &catalog);
  ASSERT_TRUE(index.ok());
  const Bitmap& bp = rel.PeekAggregateView(*index).presence().bits();
  EXPECT_EQ(bp.ToVector(), (std::vector<uint64_t>{2, 3}));
}

}  // namespace
}  // namespace colgraph
