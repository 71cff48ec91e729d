// Property test of the match planner: PlanMatch and PlanMatchAnnotated,
// which offer the set cover only the views the catalog's cover index
// finds and score gains on position bitmasks, must return the same
// sources in the same order as the planner they replaced. That planner is
// kept here as the reference: every view definition copied into the cover
// problem in catalog order (graph views, then aggregate bp bitmaps), and
// a lazy greedy that scores gains by hash-set probes.
//
// Catalogs are random, with duplicate views, single-edge views, views
// reaching outside the query and aggregate views with repeated elements;
// queries have up to 100 distinct edges, so masks span several words.
//
// The path planner is checked the same way: PlanPathAggregation, which
// looks views up in the catalog's path index, must segment every path as
// the planner it replaced, which built a map of every aggregate view of
// the function per call (kept here as the reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "query/rewriter.h"
#include "util/random.h"

namespace colgraph {
namespace {

struct ReferenceSource {
  BitmapSource source;
  std::vector<EdgeId> covers;
};

// The copy-all greedy.
std::vector<ReferenceSource> ReferencePlan(const std::vector<EdgeId>& ids,
                                           const ViewCatalog& views,
                                           bool consider_agg_bitmaps) {
  std::vector<EdgeId> query = ids;
  std::sort(query.begin(), query.end());
  query.erase(std::unique(query.begin(), query.end()), query.end());

  std::vector<GraphViewDef> cover_sets;
  std::vector<BitmapSource> cover_sources;
  for (const auto& [def, column] : views.graph_views()) {
    cover_sets.push_back(def);
    cover_sources.push_back({BitmapSource::Kind::kGraphView, column});
  }
  if (consider_agg_bitmaps) {
    for (const auto& [def, column] : views.agg_views()) {
      cover_sets.push_back(GraphViewDef::Make(def.elements));
      cover_sources.push_back({BitmapSource::Kind::kAggViewBitmap, column});
    }
  }

  std::unordered_set<EdgeId> uncovered(query.begin(), query.end());
  auto gain_of = [&](const GraphViewDef& view) {
    size_t gain = 0;
    for (const EdgeId e : view.edges) gain += uncovered.count(e);
    return gain;
  };
  std::priority_queue<std::pair<size_t, size_t>> heap;
  for (size_t v = 0; v < cover_sets.size(); ++v) {
    if (!cover_sets[v].IsSubsetOf(query)) continue;
    if (cover_sets[v].edges.size() >= 2) {
      heap.emplace(cover_sets[v].edges.size(), v);
    }
  }
  std::vector<ReferenceSource> plan;
  while (!heap.empty()) {
    const auto [stale_gain, v] = heap.top();
    heap.pop();
    if (stale_gain < 2) break;
    const size_t gain = gain_of(cover_sets[v]);
    if (gain < 2) continue;
    if (!heap.empty() && gain < heap.top().first) {
      heap.emplace(gain, v);
      continue;
    }
    plan.push_back({cover_sources[v], cover_sets[v].edges});
    for (const EdgeId e : cover_sets[v].edges) uncovered.erase(e);
  }
  std::vector<EdgeId> residual(uncovered.begin(), uncovered.end());
  std::sort(residual.begin(), residual.end());
  for (const EdgeId e : residual) {
    plan.push_back({{BitmapSource::Kind::kEdge, e}, {e}});
  }
  return plan;
}

// Draws `n` distinct edges from [0, domain).
std::vector<EdgeId> DistinctEdges(Rng& rng, size_t n, size_t domain) {
  std::vector<EdgeId> all(domain);
  for (size_t e = 0; e < domain; ++e) all[e] = static_cast<EdgeId>(e);
  rng.Shuffle(&all);
  all.resize(std::min(n, domain));
  return all;
}

// A view's edges: mostly from `pool` (the query, so the view is usable),
// sometimes with an edge from anywhere in the domain.
std::vector<EdgeId> RandomViewEdges(Rng& rng, const std::vector<EdgeId>& pool,
                                    size_t domain) {
  std::vector<EdgeId> edges;
  const size_t n = rng.Bernoulli(0.2) ? 1 : rng.Uniform(2, 7);
  for (size_t k = 0; k < n; ++k) {
    if (pool.empty() || rng.Bernoulli(0.15)) {
      edges.push_back(static_cast<EdgeId>(rng.Uniform(0, domain - 1)));
    } else {
      edges.push_back(pool[rng.Uniform(0, pool.size() - 1)]);
    }
  }
  return edges;
}

ViewCatalog RandomCatalog(Rng& rng, const std::vector<EdgeId>& pool,
                          size_t domain) {
  ViewCatalog catalog;
  std::vector<GraphViewDef> added;
  const size_t num_graph = rng.Uniform(0, 40);
  for (size_t v = 0; v < num_graph; ++v) {
    GraphViewDef def =
        (!added.empty() && rng.Bernoulli(0.15))
            ? added[rng.Uniform(0, added.size() - 1)]  // duplicate view
            : GraphViewDef::Make(RandomViewEdges(rng, pool, domain));
    added.push_back(def);
    // Relation columns need not follow catalog order.
    catalog.AddGraphView(std::move(def), rng.Uniform(0, 1000));
  }
  const size_t num_agg = rng.Uniform(0, 25);
  for (size_t v = 0; v < num_agg; ++v) {
    AggViewDef def;
    def.elements = RandomViewEdges(rng, pool, domain);
    if (!def.elements.empty() && rng.Bernoulli(0.3)) {
      // A repeated element: the bp bitmap constrains it once.
      def.elements.push_back(def.elements.front());
    }
    def.fn = rng.Bernoulli(0.5) ? AggFn::kSum : AggFn::kMax;
    catalog.AddAggView(std::move(def), rng.Uniform(0, 1000));
  }
  return catalog;
}

void ExpectSameSource(const BitmapSource& want, const BitmapSource& got,
                      size_t i) {
  EXPECT_EQ(want.kind, got.kind) << "source " << i;
  EXPECT_EQ(want.index, got.index) << "source " << i;
}

TEST(PlannerPropertyTest, IndexedBitmaskPlannerMatchesCopyAllGreedy) {
  Rng rng(20261017);
  for (size_t trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t domain = rng.Uniform(1, 160);
    const std::vector<EdgeId> query =
        DistinctEdges(rng, rng.Uniform(0, 100), domain);
    const ViewCatalog catalog = RandomCatalog(rng, query, domain);
    // The planner takes unsorted ids with repeats, as Resolve's callers may.
    std::vector<EdgeId> ids = query;
    if (!ids.empty() && rng.Bernoulli(0.3)) ids.push_back(ids.front());

    for (const bool agg : {false, true}) {
      const std::vector<ReferenceSource> want =
          ReferencePlan(ids, catalog, agg);
      const MatchPlan plan = PlanMatch(ids, &catalog, agg);
      const AnnotatedMatchPlan annotated =
          PlanMatchAnnotated(ids, &catalog, agg);
      ASSERT_EQ(plan.sources.size(), want.size()) << "agg=" << agg;
      ASSERT_EQ(annotated.sources.size(), want.size()) << "agg=" << agg;
      for (size_t i = 0; i < want.size(); ++i) {
        ExpectSameSource(want[i].source, plan.sources[i], i);
        ExpectSameSource(want[i].source, annotated.sources[i].source, i);
        EXPECT_EQ(want[i].covers, annotated.sources[i].covers) << "source " << i;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// The map-building path planner: compatible views filed by first element,
// sorted longest first, scanned left to right for the longest match.
PathPlan ReferencePathPlan(const std::vector<EdgeId>& path_elements, AggFn fn,
                           const ViewCatalog* views) {
  std::map<EdgeId, std::vector<std::pair<const AggViewDef*, size_t>>> by_first;
  if (views != nullptr) {
    for (const auto& [def, column] : views->agg_views()) {
      if (def.fn != fn) continue;
      if (def.elements.empty()) continue;
      by_first[def.elements.front()].emplace_back(&def, column);
    }
    for (auto& [first, list] : by_first) {
      (void)first;
      std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
        return a.first->elements.size() > b.first->elements.size();
      });
    }
  }
  PathPlan plan;
  size_t i = 0;
  while (i < path_elements.size()) {
    PathSegment segment;
    segment.atom = path_elements[i];
    const auto it = by_first.find(path_elements[i]);
    if (it != by_first.end()) {
      for (const auto& [def, column] : it->second) {
        const size_t len = def->elements.size();
        if (i + len > path_elements.size()) continue;
        if (std::equal(def->elements.begin(), def->elements.end(),
                       path_elements.begin() + static_cast<long>(i))) {
          segment = PathSegment{true, column, 0, len};
          break;
        }
      }
    }
    plan.segments.push_back(segment);
    i += segment.num_elements;
  }
  return plan;
}

// Aggregate views over elements drawn from a small domain, so paths meet
// many of them: some duplicated (same definition, another column), some
// overlapping another view's elements, some of another function, some a
// prefix or extension of another. Columns are distinct, so a plan's
// column names its view.
ViewCatalog RandomPathCatalog(Rng& rng, size_t domain,
                              std::vector<const AggViewDef*>* by_column) {
  ViewCatalog catalog;
  std::vector<AggViewDef> added;
  const size_t num_views = rng.Uniform(0, 60);
  for (size_t v = 0; v < num_views; ++v) {
    AggViewDef def;
    if (!added.empty() && rng.Bernoulli(0.3)) {
      def = added[rng.Uniform(0, added.size() - 1)];
      if (rng.Bernoulli(0.3)) {
        def.fn = def.fn == AggFn::kSum ? AggFn::kMax : AggFn::kSum;
      } else if (rng.Bernoulli(0.5) && def.elements.size() > 2) {
        def.elements.pop_back();  // a prefix
      } else if (rng.Bernoulli(0.5)) {
        def.elements.push_back(
            static_cast<EdgeId>(rng.Uniform(0, domain - 1)));  // an extension
      } else if (def.elements.size() > 2) {
        def.elements.erase(def.elements.begin());  // overlaps the original
      }
    } else {
      const size_t n = rng.Uniform(rng.Bernoulli(0.05) ? 0 : 2, 6);
      for (size_t k = 0; k < n; ++k) {
        def.elements.push_back(static_cast<EdgeId>(rng.Uniform(0, domain - 1)));
      }
      def.fn = rng.Bernoulli(0.6) ? AggFn::kSum : AggFn::kMax;
    }
    added.push_back(def);
    catalog.AddAggView(def, v);
  }
  by_column->clear();
  for (const auto& [def, column] : catalog.agg_views()) {
    by_column->push_back(&def);
    EXPECT_EQ(column, by_column->size() - 1);
  }
  return catalog;
}

TEST(PlannerPropertyTest, IndexedPathPlannerMatchesMapBuildingPlanner) {
  Rng rng(20261018);
  std::vector<const AggViewDef*> by_column;
  for (size_t trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t domain = rng.Uniform(1, 12);
    const ViewCatalog catalog = RandomPathCatalog(rng, domain, &by_column);
    // Paths that often run through whole views: stretches copied from a
    // view's elements, glued with random elements.
    std::vector<EdgeId> path;
    const size_t pieces = rng.Uniform(0, 6);
    for (size_t k = 0; k < pieces; ++k) {
      if (!by_column.empty() && rng.Bernoulli(0.6)) {
        const AggViewDef& def = *by_column[rng.Uniform(0, by_column.size() - 1)];
        path.insert(path.end(), def.elements.begin(), def.elements.end());
      } else {
        path.push_back(static_cast<EdgeId>(rng.Uniform(0, domain - 1)));
      }
    }
    for (const AggFn fn : {AggFn::kSum, AggFn::kMax, AggFn::kAvg}) {
      for (const ViewCatalog* views :
           {&catalog, static_cast<const ViewCatalog*>(nullptr)}) {
        const PathPlan want = ReferencePathPlan(path, fn, views);
        const PathPlan got = PlanPathAggregation(path, fn, views);
        ASSERT_EQ(got.segments.size(), want.segments.size());
        for (size_t i = 0; i < want.segments.size(); ++i) {
          const PathSegment& w = want.segments[i];
          const PathSegment& g = got.segments[i];
          EXPECT_EQ(g.is_view, w.is_view) << "segment " << i;
          EXPECT_EQ(g.num_elements, w.num_elements) << "segment " << i;
          EXPECT_EQ(g.atom, w.atom) << "segment " << i;
          if (g.is_view && w.is_view) {
            // Duplicates may resolve to either column; the definitions
            // must agree.
            EXPECT_EQ(*by_column[g.agg_view_column],
                      *by_column[w.agg_view_column])
                << "segment " << i;
          }
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// A catalog with no usable view (and one with no view at all) plans one
// atomic bitmap per distinct query edge.
TEST(PlannerPropertyTest, NoUsableViewMeansAtomicBitmaps) {
  ViewCatalog catalog;
  catalog.AddGraphView(GraphViewDef::Make({1, 200}), 0);
  catalog.AddGraphView(GraphViewDef::Make({3}), 1);
  AggViewDef agg;
  agg.elements = {5, 5};
  catalog.AddAggView(agg, 0);
  for (const bool consider_agg : {false, true}) {
    const MatchPlan plan = PlanMatch({5, 3, 1, 3}, &catalog, consider_agg);
    ASSERT_EQ(plan.sources.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(plan.sources[i].kind, BitmapSource::Kind::kEdge);
      EXPECT_EQ(plan.sources[i].index, std::vector<size_t>({1, 3, 5})[i]);
    }
  }
}

}  // namespace
}  // namespace colgraph
