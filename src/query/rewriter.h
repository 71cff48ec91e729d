// Query rewriting against materialized views (Section 5.3): a graph query
// is re-covered by the greedy set-cover algorithm over the available view
// bitmaps plus atomic edge bitmaps; a path-aggregation query additionally
// segments each maximal path into non-overlapping precomputed segments so
// each measure is counted exactly once.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "query/agg_fn.h"
#include "views/view_defs.h"

namespace colgraph {

/// \brief Source of one bitmap in a match plan.
struct BitmapSource {
  enum class Kind : uint8_t { kEdge, kGraphView, kAggViewBitmap };
  Kind kind = Kind::kEdge;
  /// EdgeId for kEdge; relation view index otherwise.
  size_t index = 0;
};

/// \brief Plan for the structural (bitmap-AND) part of a query: the bitmaps
/// whose conjunction equals bitmap(B_Gq). Cost = sources.size() fetched
/// bitmap columns.
struct MatchPlan {
  std::vector<BitmapSource> sources;
  size_t num_bitmaps() const { return sources.size(); }
};

/// \brief Builds the match plan for a query edge set.
///
/// \param query_edge_ids        the query's catalog-resolved element ids
/// \param views                 materialized views (may be null: no views)
/// \param consider_agg_bitmaps  also offer bp columns of aggregate views as
///                              covering bitmaps (useful for aggregate
///                              queries whose paths are materialized)
MatchPlan PlanMatch(const std::vector<EdgeId>& query_edge_ids,
                    const ViewCatalog* views, bool consider_agg_bitmaps);

/// \brief One plan source plus the query edges it constrains — the
/// information EXPLAIN needs that MatchPlan strips for the hot path.
struct AnnotatedSource {
  BitmapSource source;
  /// The view's edge set for a view source; the edge itself for kEdge.
  std::vector<EdgeId> covers;
};

/// \brief Match plan with per-source coverage annotations.
struct AnnotatedMatchPlan {
  std::vector<AnnotatedSource> sources;
};

/// PlanMatch with coverage annotations: same cover-set collection and the
/// same CoverQueryWithViews call, so the sources (and their order) are
/// identical to PlanMatch's — only the `covers` lists are added. Used by
/// QueryEngine::Explain.
AnnotatedMatchPlan PlanMatchAnnotated(const std::vector<EdgeId>& query_edge_ids,
                                      const ViewCatalog* views,
                                      bool consider_agg_bitmaps);

/// \brief One segment of a rewritten path: either a materialized aggregate
/// view replacing `num_elements` consecutive elements, or one atomic
/// element.
struct PathSegment {
  bool is_view = false;
  size_t agg_view_column = 0;  ///< relation aggregate-view index (is_view)
  EdgeId atom = 0;             ///< element id (!is_view)
  size_t num_elements = 1;     ///< elements covered (view length or 1)
};

/// \brief Non-overlapping segmentation of one maximal path.
struct PathPlan {
  std::vector<PathSegment> segments;
  size_t num_measure_columns() const { return segments.size(); }
};

/// \brief Greedy left-to-right longest-match segmentation of a path's
/// element sequence by the aggregate views compatible with `fn`, found
/// through the catalog's path index (ViewCatalog::AggViewsStartingWith).
///
/// Views never overlap in the plan, so distributive folding of segment
/// aggregates equals the aggregate over the raw elements.
PathPlan PlanPathAggregation(const std::vector<EdgeId>& path_elements,
                             AggFn fn, const ViewCatalog* views);

}  // namespace colgraph
