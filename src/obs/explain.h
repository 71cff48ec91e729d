// EXPLAIN output (DESIGN.md §9): the rewriter's decisions for one query —
// which materialized views cover which edges, which edges fall back to
// atomic bitmaps, and the estimated (rank-directory) vs. actual (running
// conjunction) cardinalities — rendered as text or JSON. Produced by
// QueryEngine::Explain / ColGraphEngine::Explain; the plan sources are
// exactly the ones MatchIds would AND (same CoverQueryWithViews call),
// verified by tests/explain_test.cc.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/rewriter.h"

namespace colgraph::obs {

/// \brief One bitmap in the explained plan, in execution (AND) order.
struct ExplainSource {
  BitmapSource source;
  /// Query edges this bitmap constrains: the view's edge set for a view
  /// source, the edge itself for an atomic source.
  std::vector<EdgeId> covers;
  /// Set-bit count of this source's bitmap, read from the sealed column's
  /// rank directory — the "estimate" the selectivity ordering uses.
  size_t estimated_cardinality = 0;
  /// Set-bit count of the running conjunction *after* ANDing this source —
  /// what the plan actually produced at this step. Equal to
  /// estimated_cardinality for the first source; 0 from the first
  /// short-circuit on.
  size_t cumulative_cardinality = 0;
  /// True when the column carries a hybrid (roaring-style) sidecar the AND
  /// loop can consume instead of the plain words (seal-time density
  /// choice, DESIGN.md §13).
  bool hybrid = false;

  const char* KindName() const;
};

/// \brief Full EXPLAIN of one graph query.
struct ExplainResult {
  /// Catalog-resolved query edge ids (sorted, deduplicated).
  std::vector<EdgeId> query_edges;
  /// False when a structural edge is absent from the catalog: no record
  /// can match, the plan is empty.
  bool satisfiable = true;
  /// Whether the rewriter was offered views (QueryOptions::use_views and a
  /// non-empty catalog).
  bool used_views = false;
  /// The plan's bitmaps in AND order (post selectivity sort when enabled).
  std::vector<ExplainSource> sources;
  /// Query edges answered by their own atomic bitmap (the set-cover
  /// residual) — the kEdge entries of `sources`, sorted.
  std::vector<EdgeId> residual_edges;
  /// Relation view indexes of the graph views the rewriter chose.
  std::vector<size_t> graph_view_indexes;
  /// Cardinality of the final conjunction: the number of matching records,
  /// tail datasets' matches included (the cardinality Match returns).
  size_t matched_records = 0;

  /// True for ExplainAggregate output: the plan also offered aggregate-view
  /// bp bitmaps to the match and segmented the query's maximal paths.
  bool is_aggregate = false;
  /// Relation aggregate-view indexes the plan uses: bp bitmaps ANDed by the
  /// match plus the views chosen by the path segmentation (sorted,
  /// deduplicated — same semantics as a query-log record's agg view list).
  std::vector<size_t> agg_view_indexes;
  /// Maximal paths of the query DAG the aggregation folds over (0 for a
  /// match EXPLAIN, and for a cyclic query, which evaluation rejects).
  size_t num_paths = 0;
  /// Path elements answered by a materialized aggregate-view column vs.
  /// fetched atomically — the cost reduction Section 5.1.2's views buy.
  size_t path_elements_from_views = 0;
  size_t path_elements_atomic = 0;

  /// Human-readable rendering (one line per source).
  std::string ToText() const;
  /// Machine-readable rendering.
  std::string ToJson() const;
};

}  // namespace colgraph::obs
