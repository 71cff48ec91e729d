// Planner-level behaviors: selectivity-ordered ANDs short-circuit earlier
// (fewer bitmap fetches for empty results) while never changing answers,
// and the planner's cached cardinalities match the bitmaps.
#include <gtest/gtest.h>

#include "core/engine.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

class SelectivityOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Edge (1,2) is in every record; (2,3) in many; (3,4) in none of the
    // records matching both. Cardinalities: b(1,2)=8, b(2,3)=4, b(3,4)=1,
    // with no record containing all three.
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine_.AddWalk({1, 2, 3}, {1, 1}).ok());
      ASSERT_TRUE(engine_.AddWalk({1, 2}, {1}).ok());
    }
    ASSERT_TRUE(engine_.AddWalk({3, 4}, {1}).ok());
    ASSERT_TRUE(engine_.Seal().ok());
  }
  ColGraphEngine engine_;
};

TEST_F(SelectivityOrderTest, OrderedAndUnorderedAgree) {
  QueryOptions ordered;
  QueryOptions unordered;
  unordered.order_by_selectivity = false;
  for (const auto& nodes :
       {std::vector<NodeRef>{N(1), N(2), N(3)},
        std::vector<NodeRef>{N(1), N(2), N(3), N(4)},
        std::vector<NodeRef>{N(3), N(4)}}) {
    const GraphQuery q = GraphQuery::FromPath(nodes);
    EXPECT_EQ(engine_.Match(q, ordered).ToVector(),
              engine_.Match(q, unordered).ToVector());
  }
}

TEST_F(SelectivityOrderTest, SelectiveFirstShortCircuitsEarlier) {
  // Query [1,2,3,4] matches nothing. Ordered by selectivity the pipeline
  // starts at b(3,4) (cardinality 1), ANDs b(2,3) -> empty -> stops: 2
  // fetches. In id order it would fetch all 3 bitmaps before knowing.
  const GraphQuery q = GraphQuery::FromPath({N(1), N(2), N(3), N(4)});
  engine_.stats().Reset();
  engine_.Match(q);
  const uint64_t ordered_fetches = engine_.stats().bitmap_columns_fetched;
  QueryOptions unordered;
  unordered.order_by_selectivity = false;
  engine_.stats().Reset();
  engine_.Match(q, unordered);
  const uint64_t unordered_fetches = engine_.stats().bitmap_columns_fetched;
  EXPECT_LE(ordered_fetches, unordered_fetches);
  EXPECT_EQ(ordered_fetches, 2u);
}

TEST(CardinalityStatsTest, CachedCountsMatchBitmaps) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2, 3}, {1, 1}).ok());
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  const EdgeId e12 = *engine.catalog().Lookup(Edge{N(1), N(2)});
  const EdgeId e23 = *engine.catalog().Lookup(Edge{N(2), N(3)});
  EXPECT_EQ(engine.relation().EdgeBitmapCardinality(e12), 2u);
  EXPECT_EQ(engine.relation().EdgeBitmapCardinality(e23), 1u);
  ASSERT_TRUE(engine.MaterializeView(GraphViewDef::Make({e12, e23})).ok());
  EXPECT_EQ(engine.relation().GraphViewCardinality(0), 1u);
}

}  // namespace
}  // namespace colgraph
