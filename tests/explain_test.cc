// EXPLAIN + engine observability end-to-end: Explain must report exactly
// the rewriter's plan (same CoverQueryWithViews cover, same sources as
// PlanMatch), its cardinalities must agree with real evaluation, and
// DumpMetricsJson must reflect what EvaluateBatch actually did.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/flatten.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "views/set_cover.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

// Line graph 1→2→3→4→5→6, catalog order 0:(1,2) 1:(2,3) 2:(3,4) 3:(4,5)
// 4:(5,6). 20 full-walk records, 10 over edges {1,2,3}, 5 over edge {0};
// graph views over {0,1} and {2,3}.
class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine_.AddWalk({1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5}).ok());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine_.AddWalk({2, 3, 4, 5}, {6, 7, 8}).ok());
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(engine_.AddWalk({1, 2}, {9}).ok());
    }
    ASSERT_TRUE(engine_.Seal().ok());
    ASSERT_TRUE(engine_.MaterializeView(GraphViewDef::Make({0, 1})).ok());
    ASSERT_TRUE(engine_.MaterializeView(GraphViewDef::Make({2, 3})).ok());
  }

  // The views' defs, in catalog order — the cover problem Explain solves.
  std::vector<GraphViewDef> ViewDefs() const {
    std::vector<GraphViewDef> defs;
    for (const auto& [def, column] : engine_.views().graph_views()) {
      defs.push_back(def);
    }
    return defs;
  }

  ColGraphEngine engine_;
};

TEST_F(ExplainTest, MatchesCoverQueryWithViewsOutput) {
  const std::vector<GraphQuery> queries{
      GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5)}),   // edges 0..3
      GraphQuery::FromPath({N(1), N(2), N(3)}),               // edges 0,1
      GraphQuery::FromPath({N(2), N(3), N(4), N(5), N(6)}),   // edges 1..4
      GraphQuery::FromPath({N(5), N(6)}),                     // edge 4
  };
  const std::vector<GraphViewDef> defs = ViewDefs();
  for (const GraphQuery& query : queries) {
    const auto resolved = engine_.query_engine().Resolve(query);
    ASSERT_TRUE(resolved.satisfiable);
    std::vector<EdgeId> sorted = resolved.ids;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    const QueryCover cover = CoverQueryWithViews(sorted, defs);

    const obs::ExplainResult explain = engine_.Explain(query);
    EXPECT_TRUE(explain.satisfiable);
    EXPECT_TRUE(explain.used_views);
    EXPECT_EQ(explain.query_edges, sorted);
    // The views Explain reports are exactly the cover's picks (as relation
    // view columns; order may differ because of the selectivity sort).
    std::vector<size_t> expected_columns;
    for (size_t v : cover.view_indexes) {
      expected_columns.push_back(engine_.views().graph_views()[v].second);
    }
    std::sort(expected_columns.begin(), expected_columns.end());
    std::vector<size_t> actual_columns = explain.graph_view_indexes;
    std::sort(actual_columns.begin(), actual_columns.end());
    EXPECT_EQ(actual_columns, expected_columns);
    EXPECT_EQ(explain.residual_edges, cover.residual_edges);
    EXPECT_EQ(explain.sources.size(),
              cover.view_indexes.size() + cover.residual_edges.size());
  }
}

TEST_F(ExplainTest, SourcesMirrorPlanMatchWhenUnsorted) {
  // With the selectivity sort off, Explain's source sequence must be
  // byte-for-byte the plan MatchIds would AND.
  QueryOptions options;
  options.order_by_selectivity = false;
  const GraphQuery query =
      GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5), N(6)});
  const auto resolved = engine_.query_engine().Resolve(query);
  const MatchPlan plan = PlanMatch(resolved.ids, &engine_.views(), false);
  const obs::ExplainResult explain = engine_.Explain(query, options);
  ASSERT_EQ(explain.sources.size(), plan.sources.size());
  for (size_t i = 0; i < plan.sources.size(); ++i) {
    EXPECT_EQ(explain.sources[i].source.kind, plan.sources[i].kind) << i;
    EXPECT_EQ(explain.sources[i].source.index, plan.sources[i].index) << i;
  }
}

TEST_F(ExplainTest, CardinalitiesAgreeWithEvaluation) {
  const std::vector<GraphQuery> queries{
      GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5)}),
      GraphQuery::FromPath({N(2), N(3), N(4), N(5), N(6)}),
      GraphQuery::FromPath({N(1), N(2)}),
  };
  for (const GraphQuery& query : queries) {
    const obs::ExplainResult explain = engine_.Explain(query);
    const auto result = engine_.RunGraphQuery(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(explain.matched_records, result->records.size());
    ASSERT_FALSE(explain.sources.empty());
    // The first AND input's "actual" is its own bitmap: estimate == actual.
    EXPECT_EQ(explain.sources.front().cumulative_cardinality,
              explain.sources.front().estimated_cardinality);
    // The running conjunction only shrinks, and ends at the match count.
    size_t prev = explain.sources.front().cumulative_cardinality;
    for (const obs::ExplainSource& s : explain.sources) {
      EXPECT_LE(s.cumulative_cardinality, prev);
      prev = s.cumulative_cardinality;
    }
    EXPECT_EQ(explain.sources.back().cumulative_cardinality,
              explain.matched_records);
  }
}

TEST_F(ExplainTest, SourcesAreOrderedByEstimatedCardinality) {
  // With the selectivity sort on (the default), the AND order Explain
  // reports must be non-decreasing in estimated cardinality — most
  // selective bitmap first — and the running actuals can only shrink.
  const std::vector<GraphQuery> queries{
      GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5), N(6)}),
      GraphQuery::FromPath({N(1), N(2), N(3), N(4)}),
      GraphQuery::FromPath({N(2), N(3), N(4), N(5), N(6)}),
  };
  for (const GraphQuery& query : queries) {
    const obs::ExplainResult explain = engine_.Explain(query);
    ASSERT_FALSE(explain.sources.empty());
    for (size_t i = 1; i < explain.sources.size(); ++i) {
      EXPECT_LE(explain.sources[i - 1].estimated_cardinality,
                explain.sources[i].estimated_cardinality)
          << "source " << i << " out of selectivity order";
      EXPECT_LE(explain.sources[i].cumulative_cardinality,
                explain.sources[i - 1].cumulative_cardinality)
          << "running conjunction grew at source " << i;
    }
  }
}

TEST(ExplainHybridTest, HybridEncodingIsSurfacedAndOrdered) {
  // Sparse relation: edge (1,2) in 35 records, edge (2,3) in 20, plus 9000
  // filler records on edge (8,9). 9035 records total puts both query edges
  // under the 1/256 hybrid density threshold (35 * 256 = 8960 <= 9035).
  ColGraphEngine engine;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2, 3}, {1, 2}).ok());
  }
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2}, {3}).ok());
  }
  for (int i = 0; i < 9000; ++i) {
    ASSERT_TRUE(engine.AddWalk({8, 9}, {4}).ok());
  }
  ASSERT_TRUE(engine.Seal().ok());

  const obs::ExplainResult explain =
      engine.Explain(GraphQuery::FromPath({N(1), N(2), N(3)}));
  ASSERT_EQ(explain.sources.size(), 2u);
  // Selectivity order: edge (2,3) with 20 records ANDs first.
  EXPECT_EQ(explain.sources[0].estimated_cardinality, 20u);
  EXPECT_EQ(explain.sources[1].estimated_cardinality, 35u);
  EXPECT_EQ(explain.matched_records, 20u);
  for (const obs::ExplainSource& s : explain.sources) {
    EXPECT_TRUE(s.hybrid) << "sparse column should carry hybrid encoding";
  }
  const std::string text = explain.ToText();
  EXPECT_NE(text.find("enc=hybrid"), std::string::npos) << text;
  const std::string json = explain.ToJson();
  EXPECT_NE(json.find("\"hybrid\":true"), std::string::npos) << json;

  // The dense filler edge stays plain-word encoded and Explain says so.
  const obs::ExplainResult dense =
      engine.Explain(GraphQuery::FromPath({N(8), N(9)}));
  ASSERT_EQ(dense.sources.size(), 1u);
  EXPECT_FALSE(dense.sources[0].hybrid);
  EXPECT_EQ(dense.ToText().find("enc=hybrid"), std::string::npos);
}

TEST_F(ExplainTest, UnsatisfiableAndUnconstrainedQueries) {
  const obs::ExplainResult unsat =
      engine_.Explain(GraphQuery::FromPath({N(9), N(10)}));
  EXPECT_FALSE(unsat.satisfiable);
  EXPECT_TRUE(unsat.sources.empty());
  EXPECT_EQ(unsat.matched_records, 0u);

  // A lone node with no measure column constrains nothing: everything
  // matches and there are no bitmaps to AND.
  DirectedGraph g;
  g.AddNode(N(2));
  const obs::ExplainResult open = engine_.Explain(GraphQuery(std::move(g)));
  EXPECT_TRUE(open.satisfiable);
  EXPECT_TRUE(open.sources.empty());
  EXPECT_EQ(open.matched_records, engine_.relation().num_records());
}

// With tail datasets attached, EXPLAIN counts their matches as Match does:
// 3 primary records on 1→2→3 plus a tail holding 2 more, and an edge only
// the tail knows.
TEST(ExplainTailTest, MatchedRecordsIncludeTailMatches) {
  ColGraphEngine engine;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2, 3}, {1, 2}).ok());
  }
  ASSERT_TRUE(engine.Seal().ok());
  std::vector<GraphRecord> records;
  for (const std::vector<NodeId>& walk :
       {std::vector<NodeId>{1, 2, 3}, std::vector<NodeId>{1, 2, 3},
        std::vector<NodeId>{7, 8}}) {
    GraphRecord record;
    record.elements = WalkToEdges(walk);
    record.measures.assign(record.elements.size(), 1.0);
    records.push_back(std::move(record));
  }
  auto tail = engine.BuildTailRelation(records);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_TRUE(engine
                  .AttachDataset(std::make_shared<const MasterRelation>(
                      std::move(tail).value()))
                  .ok());

  const GraphQuery path = GraphQuery::FromPath({N(1), N(2), N(3)});
  EXPECT_EQ(engine.Match(path).Count(), 5u);
  EXPECT_EQ(engine.Explain(path).matched_records, 5u);

  const GraphQuery tail_only = GraphQuery::FromPath({N(7), N(8)});
  EXPECT_EQ(engine.Match(tail_only).Count(), 1u);
  const obs::ExplainResult explain = engine.Explain(tail_only);
  EXPECT_TRUE(explain.satisfiable);
  EXPECT_EQ(explain.matched_records, 1u);
}

TEST_F(ExplainTest, UseViewsOffFallsBackToAtomicBitmaps) {
  QueryOptions options;
  options.use_views = false;
  const obs::ExplainResult explain = engine_.Explain(
      GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5)}), options);
  EXPECT_FALSE(explain.used_views);
  EXPECT_TRUE(explain.graph_view_indexes.empty());
  EXPECT_EQ(explain.residual_edges, (std::vector<EdgeId>{0, 1, 2, 3}));
  for (const obs::ExplainSource& s : explain.sources) {
    EXPECT_EQ(s.source.kind, BitmapSource::Kind::kEdge);
  }
}

TEST_F(ExplainTest, RenderersIncludeTheDecisions) {
  const obs::ExplainResult explain =
      engine_.Explain(GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5)}));
  const std::string text = explain.ToText();
  EXPECT_NE(text.find("graph_view"), std::string::npos) << text;
  EXPECT_NE(text.find("matched=20"), std::string::npos) << text;
  const std::string json = explain.ToJson();
  EXPECT_NE(json.find("\"kind\":\"graph_view\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"matched_records\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"satisfiable\":true"), std::string::npos) << json;
}

TEST_F(ExplainTest, ExplainAggregateReportsChosenAggViews) {
  // SUM view over elements {1,2}: no graph view has that edge set, so both
  // the match (its bp bitmap) and the fold (its mp column) must use it.
  AggViewDef def;
  def.elements = {1, 2};
  def.fn = AggFn::kSum;
  const auto column = engine_.MaterializeView(def);
  ASSERT_TRUE(column.ok());

  const GraphQuery query = GraphQuery::FromPath({N(2), N(3), N(4)});
  const obs::ExplainResult explain =
      engine_.ExplainAggregate(query, AggFn::kSum);
  EXPECT_TRUE(explain.is_aggregate);
  EXPECT_TRUE(explain.satisfiable);
  EXPECT_EQ(explain.num_paths, 1u);
  EXPECT_EQ(explain.agg_view_indexes, (std::vector<size_t>{column.value()}));
  EXPECT_EQ(explain.path_elements_from_views, 2u);
  EXPECT_EQ(explain.path_elements_atomic, 0u);
  ASSERT_EQ(explain.sources.size(), 1u);
  EXPECT_EQ(explain.sources[0].source.kind,
            BitmapSource::Kind::kAggViewBitmap);
  EXPECT_EQ(explain.sources[0].source.index, column.value());

  const auto result = engine_.RunAggregateQuery(query, AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(explain.matched_records, result->records.size());
}

TEST_F(ExplainTest, ExplainAggregateCardinalitiesPerAndStep) {
  AggViewDef def;
  def.elements = {1, 2};
  def.fn = AggFn::kSum;
  const auto column = engine_.MaterializeView(def);
  ASSERT_TRUE(column.ok());

  // Four-edge query: the cover uses the two graph views for the match and
  // the segmentation folds the middle two elements through the agg view.
  const GraphQuery query =
      GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5)});
  const obs::ExplainResult explain =
      engine_.ExplainAggregate(query, AggFn::kSum);
  ASSERT_FALSE(explain.sources.empty());
  // Estimated == actual for the first AND input; the running conjunction
  // only shrinks and ends at the evaluated match count.
  EXPECT_EQ(explain.sources.front().cumulative_cardinality,
            explain.sources.front().estimated_cardinality);
  size_t prev = explain.sources.front().cumulative_cardinality;
  for (const obs::ExplainSource& s : explain.sources) {
    EXPECT_GT(s.estimated_cardinality, 0u);
    EXPECT_LE(s.cumulative_cardinality, prev);
    prev = s.cumulative_cardinality;
  }
  const auto result = engine_.RunAggregateQuery(query, AggFn::kSum);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(explain.matched_records, result->records.size());
  EXPECT_EQ(explain.sources.back().cumulative_cardinality,
            explain.matched_records);

  // Path segmentation: elements 1,2 from the view, 0 and 3 atomic.
  EXPECT_EQ(explain.num_paths, 1u);
  EXPECT_EQ(explain.agg_view_indexes, (std::vector<size_t>{column.value()}));
  EXPECT_EQ(explain.path_elements_from_views, 2u);
  EXPECT_EQ(explain.path_elements_atomic, 2u);
}

TEST_F(ExplainTest, ExplainAggregateWithoutViewsIsAllAtomic) {
  AggViewDef def;
  def.elements = {1, 2};
  def.fn = AggFn::kSum;
  ASSERT_TRUE(engine_.MaterializeView(def).ok());

  QueryOptions options;
  options.use_views = false;
  const obs::ExplainResult explain = engine_.ExplainAggregate(
      GraphQuery::FromPath({N(2), N(3), N(4)}), AggFn::kSum, options);
  EXPECT_FALSE(explain.used_views);
  EXPECT_TRUE(explain.agg_view_indexes.empty());
  EXPECT_EQ(explain.path_elements_from_views, 0u);
  EXPECT_EQ(explain.path_elements_atomic, 2u);
  EXPECT_EQ(explain.residual_edges, (std::vector<EdgeId>{1, 2}));
  for (const obs::ExplainSource& s : explain.sources) {
    EXPECT_EQ(s.source.kind, BitmapSource::Kind::kEdge);
  }
}

TEST_F(ExplainTest, ExplainAggregateUnsatisfiableAndRenderers) {
  const obs::ExplainResult unsat = engine_.ExplainAggregate(
      GraphQuery::FromPath({N(9), N(10)}), AggFn::kSum);
  EXPECT_TRUE(unsat.is_aggregate);
  EXPECT_FALSE(unsat.satisfiable);
  EXPECT_EQ(unsat.num_paths, 0u);

  AggViewDef def;
  def.elements = {1, 2};
  def.fn = AggFn::kSum;
  ASSERT_TRUE(engine_.MaterializeView(def).ok());
  const obs::ExplainResult explain = engine_.ExplainAggregate(
      GraphQuery::FromPath({N(2), N(3), N(4)}), AggFn::kSum);
  const std::string text = explain.ToText();
  EXPECT_NE(text.find("agg_view_bitmap"), std::string::npos) << text;
  EXPECT_NE(text.find("aggregate: paths=1"), std::string::npos) << text;
  const std::string json = explain.ToJson();
  EXPECT_NE(json.find("\"kind\":\"agg_view_bitmap\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"aggregate\":{\"agg_view_indexes\":["),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"num_paths\":1"), std::string::npos) << json;
}

TEST_F(ExplainTest, TraceCollectsAllQueryPhases) {
  obs::Trace trace;
  QueryOptions options;
  options.trace = &trace;
  ASSERT_TRUE(
      engine_.RunGraphQuery(GraphQuery::FromPath({N(1), N(2), N(3)}), options)
          .ok());
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : trace.events()) {
    names.push_back(obs::PhaseName(e.phase));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "resolve"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "rewrite"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "bitmap_and"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fetch"), names.end());
}

TEST_F(ExplainTest, AggregateTraceIncludesAggregatePhase) {
  obs::Trace trace;
  QueryOptions options;
  options.trace = &trace;
  ASSERT_TRUE(engine_
                  .RunAggregateQuery(GraphQuery::FromPath({N(1), N(2), N(3)}),
                                     AggFn::kSum, options)
                  .ok());
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : trace.events()) {
    names.push_back(obs::PhaseName(e.phase));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "aggregate"), names.end());
}

TEST_F(ExplainTest, DumpMetricsJsonReflectsEvaluateBatch) {
  obs::MetricsRegistry::Global().Reset();
  const std::vector<GraphQuery> workload{
      GraphQuery::FromPath({N(1), N(2), N(3), N(4), N(5)}),
      GraphQuery::FromPath({N(1), N(2), N(3)}),
      GraphQuery::FromPath({N(2), N(3), N(4), N(5), N(6)}),
      GraphQuery::FromPath({N(5), N(6)}),
  };
  const auto batch = engine_.EvaluateBatch(workload);
  ASSERT_TRUE(batch.ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("query.batch.count").value(), 1u);
  EXPECT_EQ(reg.GetCounter("query.batch.queries").value(), workload.size());
  EXPECT_EQ(reg.GetCounter("query.graph.count").value(), workload.size());
  EXPECT_EQ(reg.GetHistogram("query.graph.total_us").count(),
            workload.size());
  EXPECT_EQ(reg.GetHistogram("query.phase.resolve_us").count(),
            workload.size());
  EXPECT_EQ(reg.GetHistogram("query.phase.fetch_us").count(),
            workload.size());
  // Phase time is a decomposition of batch wall time: the per-phase sums
  // cannot exceed the batch total (allow 1 µs truncation slack per span).
  const uint64_t phase_total =
      reg.GetHistogram("query.phase.resolve_us").total_micros() +
      reg.GetHistogram("query.phase.rewrite_us").total_micros() +
      reg.GetHistogram("query.phase.bitmap_and_us").total_micros() +
      reg.GetHistogram("query.phase.fetch_us").total_micros();
  const uint64_t batch_total =
      reg.GetHistogram("query.batch.total_us").total_micros();
  EXPECT_LE(phase_total, batch_total + 4 * workload.size());

  const std::string json = engine_.DumpMetricsJson();
  EXPECT_NE(json.find("\"query.batch.count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query.phase.fetch_us\":{\"count\":4"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fetch_stats\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_graph_views\":2"), std::string::npos) << json;
}

}  // namespace
}  // namespace colgraph
