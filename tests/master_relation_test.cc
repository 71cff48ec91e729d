#include "columnstore/master_relation.h"

#include <gtest/gtest.h>

#include "bitmap/bitmap.h"

namespace colgraph {
namespace {

// Shredded versions of the three records of the paper's Figure 2, using
// 0-based edge ids (paper's e1..e7 are ids 0..6). Measures follow Table 1.
MasterRelation MakeTable1Relation() {
  MasterRelation rel;
  // r1: m1..m5 = 3,4,2,1,2
  EXPECT_TRUE(
      rel.AddRecord({{0, 3}, {1, 4}, {2, 2}, {3, 1}, {4, 2}}).ok());
  // r2: m2..m7 = 1,2,2,1,4,1
  EXPECT_TRUE(
      rel.AddRecord({{1, 1}, {2, 2}, {3, 2}, {4, 1}, {5, 4}, {6, 1}}).ok());
  // r3: m4..m7 = 5,4,3,1
  EXPECT_TRUE(rel.AddRecord({{3, 5}, {4, 4}, {5, 3}, {6, 1}}).ok());
  EXPECT_TRUE(rel.Seal().ok());
  return rel;
}

TEST(MasterRelationTest, Table1MeasuresAndNulls) {
  MasterRelation rel = MakeTable1Relation();
  EXPECT_EQ(rel.num_records(), 3u);
  EXPECT_EQ(rel.num_edge_columns(), 7u);

  // Row r1 (record 0): m1=3 ... m5=2, m6/m7 NULL.
  EXPECT_EQ(rel.PeekMeasureColumn(0).Get(0), 3.0);
  EXPECT_EQ(rel.PeekMeasureColumn(4).Get(0), 2.0);
  EXPECT_FALSE(rel.PeekMeasureColumn(5).Get(0).has_value());
  EXPECT_FALSE(rel.PeekMeasureColumn(6).Get(0).has_value());
  // Row r3 (record 2): m1..m3 NULL, m4=5.
  EXPECT_FALSE(rel.PeekMeasureColumn(0).Get(2).has_value());
  EXPECT_EQ(rel.PeekMeasureColumn(3).Get(2), 5.0);
}

TEST(MasterRelationTest, Table1BitmapsMatchPresence) {
  MasterRelation rel = MakeTable1Relation();
  // b1 = 100, b4 = 111, b6 = 011 (records r1,r2,r3).
  const Bitmap& b1 = rel.PeekMeasureColumn(0).presence().bits();
  EXPECT_TRUE(b1.Test(0));
  EXPECT_FALSE(b1.Test(1));
  EXPECT_FALSE(b1.Test(2));
  const Bitmap& b4 = rel.PeekMeasureColumn(3).presence().bits();
  EXPECT_EQ(b4.Count(), 3u);
  const Bitmap& b6 = rel.PeekMeasureColumn(5).presence().bits();
  EXPECT_FALSE(b6.Test(0));
  EXPECT_TRUE(b6.Test(1));
  EXPECT_TRUE(b6.Test(2));
}

TEST(MasterRelationTest, Table1GraphViewBv1) {
  MasterRelation rel = MakeTable1Relation();
  // bv1 = AND(b1..b4): only r1 contains edges e1..e4.
  Bitmap bv = rel.PeekMeasureColumn(0).presence().bits();
  for (EdgeId e = 1; e <= 3; ++e) {
    bv.And(rel.PeekMeasureColumn(e).presence().bits());
  }
  const size_t index = rel.AddGraphView(bv);
  const Bitmap& view = rel.PeekGraphView(index);
  EXPECT_TRUE(view.Test(0));
  EXPECT_FALSE(view.Test(1));
  EXPECT_FALSE(view.Test(2));
}

TEST(MasterRelationTest, Table1AggregateViewP1) {
  MasterRelation rel = MakeTable1Relation();
  // mp1 = m6+m7 (SUM over path [e6,e7]): NULL, 5, 4 for r1..r3.
  MeasureColumn mp;
  Bitmap bp = rel.PeekMeasureColumn(5).presence().bits();
  bp.And(rel.PeekMeasureColumn(6).presence().bits());
  bp.ForEachSetBit([&](size_t r) {
    const double sum = *rel.PeekMeasureColumn(5).Get(r) +
                       *rel.PeekMeasureColumn(6).Get(r);
    ASSERT_TRUE(mp.Append(r, sum).ok());
  });
  mp.Seal(rel.num_records());
  const size_t index = rel.AddAggregateView(std::move(mp));
  const MeasureColumn& view = rel.PeekAggregateView(index);
  EXPECT_FALSE(view.Get(0).has_value());
  EXPECT_EQ(view.Get(1), 5.0);
  EXPECT_EQ(view.Get(2), 4.0);
}

TEST(MasterRelationTest, DuplicateEdgeInRecordRejected) {
  MasterRelation rel;
  const auto result = rel.AddRecord({{3, 1.0}, {3, 2.0}});
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // Failed insert must not consume a record id.
  EXPECT_EQ(rel.num_records(), 0u);
  ASSERT_TRUE(rel.AddRecord({{3, 1.0}}).ok());
  EXPECT_EQ(rel.num_records(), 1u);

  // A new edge id first and the duplicate late: rejected before any
  // column is touched, so the universe does not grow to edge 9 and no
  // column takes a value.
  const auto late = rel.AddRecord({{9, 5.0}, {3, 6.0}, {1, 7.0}, {3, 8.0}});
  EXPECT_TRUE(late.status().IsInvalidArgument()) << late.status().ToString();
  EXPECT_EQ(rel.num_records(), 1u);
  EXPECT_EQ(rel.num_edge_columns(), 4u);
  ASSERT_TRUE(rel.Seal().ok());
  for (EdgeId e = 0; e < rel.num_edge_columns(); ++e) {
    const MeasureColumn& column = rel.PeekMeasureColumn(e);
    EXPECT_EQ(column.num_values(), e == 3 ? 1u : 0u) << "edge " << e;
    EXPECT_EQ(column.presence().Count(), e == 3 ? 1u : 0u) << "edge " << e;
  }
  EXPECT_EQ(rel.PeekMeasureColumn(3).Get(0), 1.0);
}

TEST(MasterRelationTest, AddAfterSealRejected) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  EXPECT_TRUE(rel.AddRecord({{0, 1.0}}).status().IsInvalidArgument());
  EXPECT_TRUE(rel.Seal().IsInvalidArgument());
}

TEST(MasterRelationTest, PartitioningMapsColumnsToSubRelations) {
  MasterRelationOptions options;
  options.partition_width = 10;
  MasterRelation rel(options);
  rel.EnsureColumns(35);
  EXPECT_EQ(rel.num_partitions(), 4u);
  EXPECT_EQ(rel.PartitionOf(0), 0u);
  EXPECT_EQ(rel.PartitionOf(9), 0u);
  EXPECT_EQ(rel.PartitionOf(10), 1u);
  EXPECT_EQ(rel.PartitionOf(25), 2u);
  EXPECT_EQ(rel.PartitionOf(34), 3u);
}

TEST(MasterRelationTest, DiskBytesSmallerThanDenseRepresentation) {
  // 1000 records, 2 sparse columns: NULL suppression should beat the dense
  // num_records * num_columns * 8B layout by a wide margin.
  MasterRelation rel;
  for (size_t r = 0; r < 1000; ++r) {
    if (r % 100 == 0) {
      ASSERT_TRUE(rel.AddRecord({{0, 1.0}, {1, 2.0}}).ok());
    } else {
      ASSERT_TRUE(rel.AddRecord({}).ok());
    }
  }
  ASSERT_TRUE(rel.Seal().ok());
  const size_t dense = 1000 * 2 * sizeof(double);
  EXPECT_LT(rel.DiskBytes(), dense / 2);
}

TEST(MasterRelationTest, FromColumnsRebuildsSealedRelation) {
  MeasureColumn col;
  ASSERT_TRUE(col.Append(1, 5.0).ok());
  col.Seal(4);
  std::vector<MeasureColumn> cols;
  cols.push_back(std::move(col));
  auto rel = MasterRelation::FromColumns(4, std::move(cols), {});
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->sealed());
  EXPECT_EQ(rel->num_records(), 4u);
  EXPECT_EQ(rel->PeekMeasureColumn(0).Get(1), 5.0);
}

TEST(MasterRelationTest, FromColumnsRejectsWrongLength) {
  MeasureColumn col;
  col.Seal(3);
  std::vector<MeasureColumn> cols;
  cols.push_back(std::move(col));
  EXPECT_TRUE(MasterRelation::FromColumns(4, std::move(cols), {})
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace colgraph
