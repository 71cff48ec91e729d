// Capture → persist → replay → advise round trip (DESIGN.md §10): a logged
// workload replayed through core/replay.h against the reloaded engine must
// reproduce every recorded cardinality, serially and in parallel; and view
// advice mined from the log must equal advice computed from the original
// in-memory workload.
#include "core/replay.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine_io.h"
#include "obs/query_log_reader.h"
#include "views/workload_advisor.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

class ReplayRoundtripTest : public ::testing::Test {
 protected:
  std::string base_ =
      ::testing::TempDir() + "colgraph_replay_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string log_path_ = base_ + ".qlog";
  std::string engine_path_ = base_ + ".engine";

  void TearDown() override {
    std::remove(log_path_.c_str());
    std::remove(engine_path_.c_str());
  }

  // Line graph over nodes 1..6 with three record shapes, one graph view,
  // one aggregate view — enough for the rewriter to make real choices.
  static void Ingest(ColGraphEngine* engine) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          engine->AddWalk({1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5}).ok());
    }
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(engine->AddWalk({2, 3, 4, 5}, {6, 7, 8}).ok());
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine->AddWalk({1, 2}, {9}).ok());
    }
    ASSERT_TRUE(engine->Seal().ok());
    ASSERT_TRUE(engine->MaterializeView(GraphViewDef::Make({0, 1})).ok());
    AggViewDef agg;
    agg.elements = {2, 3};
    agg.fn = AggFn::kSum;
    ASSERT_TRUE(engine->MaterializeView(agg).ok());
  }

  static std::vector<GraphQuery> Workload() {
    return {
        GraphQuery::FromPath({N(1), N(2), N(3)}),
        GraphQuery::FromPath({N(2), N(3), N(4), N(5)}),
        GraphQuery::FromPath({N(1), N(2)}),
        GraphQuery::FromPath({N(9), N(10)}),  // unsatisfiable, logged too
        GraphQuery::FromPath({N(3), N(4), N(5), N(6)}),
    };
  }
};

TEST_F(ReplayRoundtripTest, ReplayReproducesEveryCardinality) {
  {
    EngineOptions options;
    options.query_log.path = log_path_;
    ColGraphEngine engine(options);
    Ingest(&engine);

    // Mixed workload: singles, a match batch, and a path-agg batch.
    ASSERT_TRUE(engine.RunGraphQuery(Workload()[0]).ok());
    ASSERT_TRUE(engine.EvaluateBatch(Workload()).ok());
    ASSERT_TRUE(
        engine.RunAggregateQuery(Workload()[1], AggFn::kSum).ok());
    ASSERT_TRUE(
        engine
            .EvaluatePathAggBatch(
                {Workload()[0], Workload()[4]}, AggFn::kMax)
            .ok());
    ASSERT_TRUE(engine.CloseQueryLog().ok());
    ASSERT_TRUE(WriteEngine(engine, engine_path_).ok());
  }

  const auto engine = ReadEngine(engine_path_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto records = obs::ReadQueryLog(log_path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1 + 5 + 1 + 2u);

  for (const size_t threads : {size_t{1}, size_t{2}}) {
    ReplayOptions options;
    options.num_threads = threads;
    const auto report = ReplayQueryLog(engine.value(), *records, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->queries_replayed, records->size());
    EXPECT_EQ(report->match_queries, 6u);
    EXPECT_EQ(report->path_agg_queries, 3u);
    EXPECT_EQ(report->cardinality_mismatches, 0u)
        << "first mismatch: record "
        << (report->mismatches.empty()
                ? size_t{0}
                : report->mismatches[0].record_index);
  }

  // Views off replays the baseline plans; cardinalities still match
  // (views are semantically transparent).
  ReplayOptions no_views;
  no_views.use_views = false;
  const auto report = ReplayQueryLog(engine.value(), *records, no_views);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->cardinality_mismatches, 0u);
}

TEST_F(ReplayRoundtripTest, MismatchesAreDetectedAgainstADifferentEngine) {
  {
    EngineOptions options;
    options.query_log.path = log_path_;
    ColGraphEngine engine(options);
    Ingest(&engine);
    ASSERT_TRUE(engine.RunGraphQuery(Workload()[0]).ok());
    ASSERT_TRUE(engine.CloseQueryLog().ok());
  }
  // Replay against an engine with different data: cardinality differs.
  ColGraphEngine other;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(other.AddWalk({1, 2, 3}, {1, 2}).ok());
  }
  ASSERT_TRUE(other.Seal().ok());
  const auto records = obs::ReadQueryLog(log_path_);
  ASSERT_TRUE(records.ok());
  const auto report = ReplayQueryLog(other, *records);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->cardinality_mismatches, 1u);
  ASSERT_EQ(report->mismatches.size(), 1u);
  EXPECT_EQ(report->mismatches[0].logged, 12u);
  EXPECT_EQ(report->mismatches[0].replayed, 2u);
}

TEST_F(ReplayRoundtripTest, AdviceFromLogMatchesAdviceFromWorkload) {
  EngineOptions options;
  options.query_log.path = log_path_;
  ColGraphEngine engine(options);
  Ingest(&engine);
  for (const GraphQuery& q : Workload()) {
    ASSERT_TRUE(engine.RunGraphQuery(q).ok());
  }
  ASSERT_TRUE(engine.RunAggregateQuery(Workload()[1], AggFn::kSum).ok());
  ASSERT_TRUE(engine.CloseQueryLog().ok());

  const auto records = obs::ReadQueryLog(log_path_);
  ASSERT_TRUE(records.ok());
  const std::vector<GraphQuery> from_log = WorkloadFromQueryLog(*records);
  ASSERT_EQ(from_log.size(), records->size());

  std::vector<GraphQuery> original = Workload();
  original.push_back(Workload()[1]);  // the aggregate query ran too

  for (const size_t budget : {size_t{1}, size_t{2}, size_t{4}}) {
    const auto from_log_advice =
        AdviseGraphViews(from_log, engine.catalog(), budget);
    const auto original_advice =
        AdviseGraphViews(original, engine.catalog(), budget);
    ASSERT_TRUE(from_log_advice.ok()) << from_log_advice.status().ToString();
    ASSERT_TRUE(original_advice.ok());
    ASSERT_EQ(from_log_advice->views.size(), original_advice->views.size());
    for (size_t i = 0; i < from_log_advice->views.size(); ++i) {
      EXPECT_EQ(from_log_advice->views[i].def.edges,
                original_advice->views[i].def.edges)
          << "pick " << i;
      EXPECT_EQ(from_log_advice->views[i].supporting_queries,
                original_advice->views[i].supporting_queries);
      EXPECT_EQ(from_log_advice->views[i].coverage_gain,
                original_advice->views[i].coverage_gain);
    }
    EXPECT_EQ(from_log_advice->total_elements,
              original_advice->total_elements);
    EXPECT_EQ(from_log_advice->uncovered_elements,
              original_advice->uncovered_elements);
    EXPECT_EQ(from_log_advice->num_universes,
              original_advice->num_universes);
    if (budget >= 1 && !from_log_advice->views.empty()) {
      EXPECT_GT(from_log_advice->views[0].coverage_gain, 0u);
      EXPECT_GT(from_log_advice->views[0].supporting_queries, 0u);
    }
  }
}

}  // namespace
}  // namespace colgraph
