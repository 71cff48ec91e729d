// Greedy algorithm for the extended set cover problem of Section 5.2:
// given universes (the edge sets of the workload's queries) and candidate
// sets (views, usable in a universe only when fully contained in it), pick
// at most k sets maximizing covered elements. The same greedy doubles as
// the query-time rewriter (single universe, Section 5.3), where it is the
// classic H(n)-approximation.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "views/view_defs.h"

namespace colgraph {

/// \brief Result of view selection.
struct SetCoverSelection {
  /// Indexes into the candidate vector, in greedy pick order.
  std::vector<size_t> selected;
  /// Elements (per universe) still uncovered after selection; these fall
  /// back to atomic edge bitmaps at query time.
  size_t uncovered_elements = 0;
};

/// \brief Greedy extended set cover over multiple universes.
///
/// \param universes   sorted edge-id sets, one per workload query
/// \param candidates  candidate views; candidate c is usable in universe u
///                    iff c.edges ⊆ u
/// \param max_views   selection budget k; the greedy stops after k picks or
///                    when no candidate covers ≥ 2 uncovered elements in any
///                    single universe (at that point atomic single-edge
///                    bitmaps are at least as good as any view in every
///                    query, the paper's stopping rule — the bar is per
///                    universe, not summed across universes)
SetCoverSelection GreedyExtendedSetCover(
    const std::vector<std::vector<EdgeId>>& universes,
    const std::vector<GraphViewDef>& candidates, size_t max_views);

/// \brief Query-time cover of a single query by materialized views.
struct QueryCover {
  /// Indexes into `views` (the usable, chosen ones).
  std::vector<size_t> view_indexes;
  /// Query edges not covered by any chosen view; answered by their own
  /// atomic bitmap columns.
  std::vector<EdgeId> residual_edges;
};

/// Greedy single-universe cover: picks views (those ⊆ the query) while they
/// cover ≥ 2 uncovered edges, then falls back to atomic bitmaps.
/// `query_edges` must be sorted and deduplicated. Gain ties go to the view
/// offered later, so dropping views that cannot be used (and keeping the
/// order of the rest) never changes the picks.
QueryCover CoverQueryWithViews(const std::vector<EdgeId>& query_edges,
                               const std::vector<const GraphViewDef*>& views);

/// The same cover over views held by value (view_indexes index `views`).
QueryCover CoverQueryWithViews(const std::vector<EdgeId>& query_edges,
                               const std::vector<GraphViewDef>& views);

}  // namespace colgraph
