// Definitions of materialized graph views (Section 5.1) and the catalog
// that tracks what has been materialized into the master relation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "query/agg_fn.h"

namespace colgraph {

/// \brief A graph view: a set of edges whose conjunction bitmap
/// bitmap(B) = AND of the edges' bitmaps is materialized as one extra
/// bitmap column bv in the master relation.
struct GraphViewDef {
  /// Sorted, deduplicated edge ids of the view's subgraph.
  std::vector<EdgeId> edges;

  static GraphViewDef Make(std::vector<EdgeId> ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return GraphViewDef{std::move(ids)};
  }

  size_t size() const { return edges.size(); }

  /// True iff this view's edge set is a subset of `query_edges` (which must
  /// be sorted): the precondition for the view to be usable by that query.
  bool IsSubsetOf(const std::vector<EdgeId>& query_edges) const {
    return std::includes(query_edges.begin(), query_edges.end(),
                         edges.begin(), edges.end());
  }

  bool operator==(const GraphViewDef& o) const { return edges == o.edges; }
  bool operator<(const GraphViewDef& o) const { return edges < o.edges; }
};

/// \brief An aggregate graph view F_p: the aggregate of function `fn` along
/// path `elements` (the path's measurable elements, in path order),
/// materialized as a measure column mp plus its bitmap bp.
struct AggViewDef {
  /// Element ids along the path, in path order (edges and internal-node
  /// self-edges as produced by Path::Elements()).
  std::vector<EdgeId> elements;
  AggFn fn = AggFn::kSum;

  size_t size() const { return elements.size(); }

  bool operator==(const AggViewDef& o) const {
    return fn == o.fn && elements == o.elements;
  }
  bool operator<(const AggViewDef& o) const {
    return fn != o.fn ? fn < o.fn : elements < o.elements;
  }
};

/// \brief Registry of materialized views: maps each view definition to the
/// index of its column(s) inside the master relation. The query rewriter
/// consults this to reformulate queries (Section 5.3).
///
/// Alongside the definitions it keeps two rewriter indexes, built as views
/// are added, never lazily, so concurrent readers share no mutable state:
/// - the cover index: every view's edge set (sorted, deduplicated) filed
///   under its smallest edge. A view can cover a query only when all its
///   edges are query edges, so the rewriter looks up just the query's own
///   edges instead of scanning the whole catalog;
/// - the path index: every aggregate view filed under its function and
///   first element, longest first, which is the order the path planner
///   tries them in.
class ViewCatalog {
 public:
  /// A view's place in the catalog: graph_views()[index], or for
  /// `is_agg`, agg_views()[index].
  struct ViewRef {
    bool is_agg = false;
    size_t index = 0;

    bool operator<(const ViewRef& o) const {
      return is_agg != o.is_agg ? !is_agg : index < o.index;
    }
  };

  /// Registers a materialized graph view stored at `column_index`
  /// (MasterRelation graph-view index).
  void AddGraphView(GraphViewDef def, size_t column_index) {
    IndexCoverSet(def.edges, ViewRef{false, graph_views_.size()});
    graph_views_.emplace_back(std::move(def), column_index);
  }

  /// Registers a materialized aggregate view at `column_index`
  /// (MasterRelation aggregate-view index).
  void AddAggView(AggViewDef def, size_t column_index) {
    GraphViewDef cover_set = GraphViewDef::Make(def.elements);
    IndexCoverSet(cover_set.edges, ViewRef{true, agg_views_.size()});
    agg_cover_sets_.push_back(std::move(cover_set));
    IndexPath(def);
    agg_views_.emplace_back(std::move(def), column_index);
  }

  const std::vector<std::pair<GraphViewDef, size_t>>& graph_views() const {
    return graph_views_;
  }
  const std::vector<std::pair<AggViewDef, size_t>>& agg_views() const {
    return agg_views_;
  }

  size_t num_graph_views() const { return graph_views_.size(); }
  size_t num_agg_views() const { return agg_views_.size(); }

  /// The edges a view's bitmap constrains: a graph view's definition, or
  /// an aggregate view's elements sorted and deduplicated (its bp bitmap).
  const GraphViewDef& CoverSet(ViewRef ref) const {
    return ref.is_agg ? agg_cover_sets_[ref.index]
                      : graph_views_[ref.index].first;
  }

  /// The relation column of a view: its graph-view or aggregate-view index.
  size_t ColumnOf(ViewRef ref) const {
    return ref.is_agg ? agg_views_[ref.index].second
                      : graph_views_[ref.index].second;
  }

  /// Views whose smallest edge is `edge`, in the order they were added;
  /// nullptr when there are none. Views with no edges are not indexed.
  const std::vector<ViewRef>* ViewsStartingAt(EdgeId edge) const {
    const auto it = by_first_edge_.find(edge);
    return it == by_first_edge_.end() ? nullptr : &it->second;
  }

  /// Indexes into agg_views() of the `fn` views whose path starts with
  /// `element`, longest first (equal lengths in the order they were
  /// added); nullptr when there are none. Views with no elements are not
  /// indexed.
  const std::vector<size_t>* AggViewsStartingWith(AggFn fn,
                                                  EdgeId element) const {
    const auto it = agg_by_start_.find(PathKey(fn, element));
    return it == agg_by_start_.end() ? nullptr : &it->second;
  }

 private:
  void IndexCoverSet(const std::vector<EdgeId>& sorted_edges, ViewRef ref) {
    if (sorted_edges.empty()) return;
    by_first_edge_[sorted_edges.front()].push_back(ref);
  }

  static uint64_t PathKey(AggFn fn, EdgeId element) {
    return (uint64_t{static_cast<uint8_t>(fn)} << 32) | element;
  }

  // Files the view being added (index agg_views_.size()) behind every
  // view with the same function and start that is at least as long.
  void IndexPath(const AggViewDef& def) {
    if (def.elements.empty()) return;
    std::vector<size_t>& list =
        agg_by_start_[PathKey(def.fn, def.elements.front())];
    const auto after = std::find_if(list.begin(), list.end(), [&](size_t v) {
      return agg_views_[v].first.elements.size() < def.elements.size();
    });
    list.insert(after, agg_views_.size());
  }

  std::vector<std::pair<GraphViewDef, size_t>> graph_views_;
  std::vector<std::pair<AggViewDef, size_t>> agg_views_;
  /// CoverSet of agg_views_[i], computed once when the view is added.
  std::vector<GraphViewDef> agg_cover_sets_;
  std::unordered_map<EdgeId, std::vector<ViewRef>> by_first_edge_;
  std::unordered_map<uint64_t, std::vector<size_t>> agg_by_start_;
};

}  // namespace colgraph
