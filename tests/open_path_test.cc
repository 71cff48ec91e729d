// Open-ended path aggregation (Section 3.3): node measures at open
// endpoints are excluded, internal node measures included.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "graph/path.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

// One record over D -> E -> G with both edge and node measures:
//   node D = 100, edge (D,E) = 1, node E = 10, edge (E,G) = 2, node G = 200
class OpenPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphRecord record;
    record.elements = {Edge{N(4), N(4)}, Edge{N(4), N(5)}, Edge{N(5), N(5)},
                       Edge{N(5), N(7)}, Edge{N(7), N(7)}};
    record.measures = {100, 1, 10, 2, 200};
    ASSERT_TRUE(engine_.AddRecord(record).ok());
    ASSERT_TRUE(engine_.Seal().ok());
  }
  ColGraphEngine engine_;
};

TEST_F(OpenPathTest, ClosedPathIncludesEndpointNodes) {
  // [D,E,G] = 100 + 1 + 10 + 2 + 200.
  const auto result =
      engine_.AggregateAlongPath(Path({N(4), N(5), N(7)}), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->values[0][0], 313);
}

TEST_F(OpenPathTest, OpenPathExcludesBothEndpointNodes) {
  // (D,E,G) = 1 + 10 + 2: "internal measurements on nodes D and G should
  // be left out of the analysis" (the paper's hub example).
  const auto result = engine_.AggregateAlongPath(
      Path({N(4), N(5), N(7)}, /*start_open=*/true, /*end_open=*/true),
      AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0][0], 13);
}

TEST_F(OpenPathTest, HalfOpenPath) {
  // [D,E,G) = 100 + 1 + 10 + 2.
  const auto result = engine_.AggregateAlongPath(
      Path({N(4), N(5), N(7)}, false, true), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0][0], 113);
}

TEST_F(OpenPathTest, SingleNodePathIsTheNodeMeasure) {
  // [E,E] = E's own measure (a node abstracting hidden structure).
  const auto result =
      engine_.AggregateAlongPath(Path({N(5)}), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0][0], 10);
}

TEST_F(OpenPathTest, PathJoinThenAggregateCountsJunctionOnce) {
  // [D,E) ⋈ [E,G] = [D,E,G]: E's measure counted exactly once.
  const Path left({N(4), N(5)}, false, true);
  const Path right({N(5), N(7)}, false, false);
  const auto joined = left.Join(right);
  ASSERT_TRUE(joined.ok());
  const auto result = engine_.AggregateAlongPath(*joined, AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0][0], 313);
}

TEST_F(OpenPathTest, UnknownStructuralEdgeUnsatisfiable) {
  const auto result =
      engine_.AggregateAlongPath(Path({N(4), N(9)}), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->records.empty());
}

TEST_F(OpenPathTest, UnrecordedNodeMeasureSkipped) {
  // Add a second record without node measures: closed endpoints with no
  // column contribute nothing and do not constrain matching.
  GraphRecord record;
  record.elements = {Edge{N(11), N(12)}};
  record.measures = {5};
  auto tail = engine_.BuildTailRelation({record});
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_TRUE(engine_
                  .AttachDataset(std::make_shared<const MasterRelation>(
                      std::move(tail).value()))
                  .ok());
  ASSERT_TRUE(engine_.Compact().ok());
  const auto result =
      engine_.AggregateAlongPath(Path({N(11), N(12)}), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->values[0][0], 5);
}

TEST_F(OpenPathTest, ViewAssistedOpenPath) {
  // Materialize a SUM view over the open path's elements and verify the
  // rewritten fold matches.
  const EdgeId de = *engine_.catalog().Lookup(Edge{N(4), N(5)});
  const EdgeId e = *engine_.catalog().Lookup(Edge{N(5), N(5)});
  const EdgeId eg = *engine_.catalog().Lookup(Edge{N(5), N(7)});
  AggViewDef def;
  def.elements = {de, e, eg};
  def.fn = AggFn::kSum;
  ASSERT_TRUE(engine_.MaterializeView(def).ok());
  engine_.stats().Reset();
  const auto result = engine_.AggregateAlongPath(
      Path({N(4), N(5), N(7)}, true, true), AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0][0], 13);
  EXPECT_EQ(engine_.stats().measure_columns_fetched, 1u);
}

}  // namespace
}  // namespace colgraph
