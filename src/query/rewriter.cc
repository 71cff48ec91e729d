#include "query/rewriter.h"

#include <algorithm>

#include "views/set_cover.h"

namespace colgraph {

namespace {

// Shared between PlanMatch and PlanMatchAnnotated so both resolve the
// identical cover problem: a sorted/deduplicated query edge set plus the
// view bitmaps that may cover it (graph views, optionally the bp bitmaps
// of aggregate views — both are just bitmap columns over the same
// records). Cover sets point into the catalog; nothing is copied.
struct CoverProblem {
  std::vector<EdgeId> sorted_edges;
  std::vector<const GraphViewDef*> cover_sets;
  std::vector<BitmapSource> cover_sources;
  bool has_views = false;
};

CoverProblem CollectCoverProblem(const std::vector<EdgeId>& query_edge_ids,
                                 const ViewCatalog* views,
                                 bool consider_agg_bitmaps) {
  CoverProblem problem;
  problem.sorted_edges = query_edge_ids;
  std::sort(problem.sorted_edges.begin(), problem.sorted_edges.end());
  problem.sorted_edges.erase(
      std::unique(problem.sorted_edges.begin(), problem.sorted_edges.end()),
      problem.sorted_edges.end());
  // Fast path: with no materialized views the plan is one bitmap per edge;
  // skip the set-cover machinery entirely.
  if (views == nullptr ||
      (views->num_graph_views() == 0 &&
       (!consider_agg_bitmaps || views->num_agg_views() == 0))) {
    return problem;
  }
  problem.has_views = true;
  // A view lies inside the query only if its smallest edge is a query
  // edge, so the catalog's cover index yields every candidate from the
  // query's own edges. CoverQueryWithViews drops the ones that reach
  // outside the query.
  std::vector<ViewCatalog::ViewRef> offered;
  offered.reserve(problem.sorted_edges.size());
  for (const EdgeId e : problem.sorted_edges) {
    const std::vector<ViewCatalog::ViewRef>* starting =
        views->ViewsStartingAt(e);
    if (starting == nullptr) continue;
    for (const ViewCatalog::ViewRef ref : *starting) {
      if (!ref.is_agg || consider_agg_bitmaps) offered.push_back(ref);
    }
  }
  // Offer them in catalog order (graph views, then aggregate bp bitmaps):
  // the greedy breaks gain ties by offer position, so an order-preserving
  // subset of the catalog picks exactly what the whole catalog would.
  std::sort(offered.begin(), offered.end());
  problem.cover_sets.reserve(offered.size());
  problem.cover_sources.reserve(offered.size());
  for (const ViewCatalog::ViewRef ref : offered) {
    problem.cover_sets.push_back(&views->CoverSet(ref));
    problem.cover_sources.push_back(BitmapSource{
        ref.is_agg ? BitmapSource::Kind::kAggViewBitmap
                   : BitmapSource::Kind::kGraphView,
        views->ColumnOf(ref)});
  }
  return problem;
}

}  // namespace

MatchPlan PlanMatch(const std::vector<EdgeId>& query_edge_ids,
                    const ViewCatalog* views, bool consider_agg_bitmaps) {
  const CoverProblem problem =
      CollectCoverProblem(query_edge_ids, views, consider_agg_bitmaps);
  MatchPlan plan;
  if (!problem.has_views) {
    plan.sources.reserve(problem.sorted_edges.size());
    for (EdgeId e : problem.sorted_edges) {
      plan.sources.push_back(BitmapSource{BitmapSource::Kind::kEdge, e});
    }
    return plan;
  }
  const QueryCover cover =
      CoverQueryWithViews(problem.sorted_edges, problem.cover_sets);
  plan.sources.reserve(cover.view_indexes.size() + cover.residual_edges.size());
  for (size_t v : cover.view_indexes) {
    plan.sources.push_back(problem.cover_sources[v]);
  }
  for (EdgeId e : cover.residual_edges) {
    plan.sources.push_back(BitmapSource{BitmapSource::Kind::kEdge, e});
  }
  return plan;
}

AnnotatedMatchPlan PlanMatchAnnotated(const std::vector<EdgeId>& query_edge_ids,
                                      const ViewCatalog* views,
                                      bool consider_agg_bitmaps) {
  const CoverProblem problem =
      CollectCoverProblem(query_edge_ids, views, consider_agg_bitmaps);
  AnnotatedMatchPlan plan;
  if (!problem.has_views) {
    plan.sources.reserve(problem.sorted_edges.size());
    for (EdgeId e : problem.sorted_edges) {
      plan.sources.push_back(AnnotatedSource{
          BitmapSource{BitmapSource::Kind::kEdge, e}, {e}});
    }
    return plan;
  }
  const QueryCover cover =
      CoverQueryWithViews(problem.sorted_edges, problem.cover_sets);
  for (size_t v : cover.view_indexes) {
    plan.sources.push_back(AnnotatedSource{problem.cover_sources[v],
                                           problem.cover_sets[v]->edges});
  }
  for (EdgeId e : cover.residual_edges) {
    plan.sources.push_back(
        AnnotatedSource{BitmapSource{BitmapSource::Kind::kEdge, e}, {e}});
  }
  return plan;
}

PathPlan PlanPathAggregation(const std::vector<EdgeId>& path_elements,
                             AggFn fn, const ViewCatalog* views) {
  PathPlan plan;
  size_t i = 0;
  while (i < path_elements.size()) {
    PathSegment segment;  // one atomic element unless a view starts here
    // The catalog's path index lists the candidates longest first, so the
    // first one that matches here is the longest.
    const std::vector<size_t>* starting =
        views == nullptr ? nullptr
                         : views->AggViewsStartingWith(fn, path_elements[i]);
    if (starting != nullptr) {
      for (const size_t v : *starting) {
        const auto& [def, column] = views->agg_views()[v];
        const size_t len = def.elements.size();
        if (len > path_elements.size() - i) continue;
        if (std::equal(def.elements.begin(), def.elements.end(),
                       path_elements.begin() + static_cast<long>(i))) {
          segment.is_view = true;
          segment.agg_view_column = column;
          segment.num_elements = len;
          break;
        }
      }
    }
    if (!segment.is_view) segment.atom = path_elements[i];
    plan.segments.push_back(segment);
    i += segment.num_elements;
  }
  return plan;
}

}  // namespace colgraph
