#include "views/materializer.h"

#include <type_traits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/agg_fn.h"
#include "util/thread_pool.h"

namespace colgraph {

namespace {

Status ValidateIds(const std::vector<EdgeId>& ids,
                   const MasterRelation& relation) {
  for (EdgeId id : ids) {
    if (id >= relation.num_edge_columns()) {
      return Status::InvalidArgument("view references unknown edge id " +
                                     std::to_string(id));
    }
  }
  return Status::OK();
}

Status Validate(const GraphViewDef& def, const MasterRelation& relation) {
  if (def.edges.empty()) {
    return Status::InvalidArgument("cannot materialize an empty graph view");
  }
  return ValidateIds(def.edges, relation);
}

Status Validate(const AggViewDef& def, const MasterRelation& relation) {
  if (def.elements.size() < 2) {
    return Status::InvalidArgument(
        "aggregate views must cover at least two elements; single-element "
        "measures are already stored in the base schema");
  }
  return ValidateIds(def.elements, relation);
}

// AND of the presence bitmaps of `ids` (offline: bypasses fetch stats).
// An edge the relation never grew is an empty column, so the conjunction
// is empty.
Bitmap ConjunctionBitmap(const std::vector<EdgeId>& ids,
                         const MasterRelation& relation) {
  Bitmap result(relation.num_records());
  for (size_t i = 0; i < ids.size(); ++i) {
    const MeasureColumn* column = relation.FindEdgeColumn(ids[i]);
    if (column == nullptr) return Bitmap(relation.num_records());
    if (i == 0) {
      result = column->presence().bits();
    } else {
      result.And(column->presence().bits());
    }
  }
  return result;
}

// A graph view's column bv: the AND of its edges' bitmaps.
Bitmap ComputeView(const GraphViewDef& def, const MasterRelation& relation) {
  return ConjunctionBitmap(def.edges, relation);
}

// An aggregate view's column mp, whose presence bits are bp.
MeasureColumn ComputeView(const AggViewDef& def,
                          const MasterRelation& relation) {
  const Bitmap bp = ConjunctionBitmap(def.elements, relation);
  // The stored per-record value: for AVG the SUM sub-aggregate (count is
  // def.elements.size(), known statically); otherwise F itself.
  const AggFn stored_fn = def.fn == AggFn::kAvg ? AggFn::kSum : def.fn;

  // A missing column empties bp, so no record below reads one.
  std::vector<const MeasureColumn*> columns;
  columns.reserve(def.elements.size());
  for (EdgeId id : def.elements) {
    columns.push_back(relation.FindEdgeColumn(id));
  }

  MeasureColumn mp;
  bp.ForEachSetBit([&](size_t record) {
    AggAccumulator acc(stored_fn);
    for (const MeasureColumn* col : columns) {
      // bp is the AND of the presences, so every element is non-NULL here.
      acc.Add(*col->Get(record));
    }
    // Records arrive in ascending order, which is all Append requires.
    COLGRAPH_CHECK_OK(mp.Append(record, acc.Result()));
  });
  mp.Seal(relation.num_records());
  return mp;
}

// Computes every definition's column across `pool` (independent read-only
// passes), then appends them in definition order — the same columns for
// every thread count — and registers each in `catalog` unless it is null.
template <typename Def>
StatusOr<std::vector<size_t>> AddViews(const std::vector<Def>& defs,
                                       MasterRelation* relation,
                                       ViewCatalog* catalog,
                                       ThreadPool* pool) {
  std::vector<decltype(ComputeView(Def{}, *relation))> columns(defs.size());
  COLGRAPH_RETURN_NOT_OK(ParallelFor(
      pool, 0, defs.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          // Per-view build latency (the Section 5.2 "views are cheap to
          // build" claim, observable).
          const obs::Span span(obs::Phase::kMaterialize, nullptr);
          columns[i] = ComputeView(defs[i], *relation);
        }
        return Status::OK();
      }));
  std::vector<size_t> indices;
  indices.reserve(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    if constexpr (std::is_same_v<Def, GraphViewDef>) {
      indices.push_back(relation->AddGraphView(std::move(columns[i])));
      if (catalog != nullptr) catalog->AddGraphView(defs[i], indices.back());
    } else {
      indices.push_back(relation->AddAggregateView(std::move(columns[i])));
      if (catalog != nullptr) catalog->AddAggView(defs[i], indices.back());
    }
  }
  return indices;
}

// Validates everything up front (serially, so the first bad definition in
// order is reported): on error the relation and catalog are untouched.
template <typename Def>
StatusOr<std::vector<size_t>> Materialize(const std::vector<Def>& defs,
                                          MasterRelation* relation,
                                          ViewCatalog* catalog,
                                          ThreadPool* pool) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  for (const Def& def : defs) {
    COLGRAPH_RETURN_NOT_OK(Validate(def, *relation));
  }
  return AddViews(defs, relation, catalog, pool);
}

// The `views` entries at column `have` and up, each of which must sit at
// the next column so that appending them in order matches the catalog.
template <typename Def>
StatusOr<std::vector<Def>> DefsFrom(
    const std::vector<std::pair<Def, size_t>>& views, size_t have) {
  std::vector<Def> defs;
  for (const auto& [def, column] : views) {
    if (column < have) continue;
    if (column != have + defs.size()) {
      return Status::InvalidArgument(
          "catalog view columns are not in materialization order");
    }
    defs.push_back(def);
  }
  return defs;
}

}  // namespace

StatusOr<size_t> MaterializeGraphView(const GraphViewDef& def,
                                      MasterRelation* relation,
                                      ViewCatalog* catalog) {
  COLGRAPH_ASSIGN_OR_RETURN(const std::vector<size_t> indices,
                            MaterializeGraphViews({def}, relation, catalog));
  return indices.front();
}

StatusOr<size_t> MaterializeAggView(const AggViewDef& def,
                                    MasterRelation* relation,
                                    ViewCatalog* catalog) {
  COLGRAPH_ASSIGN_OR_RETURN(const std::vector<size_t> indices,
                            MaterializeAggViews({def}, relation, catalog));
  return indices.front();
}

StatusOr<std::vector<size_t>> MaterializeGraphViews(
    const std::vector<GraphViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool) {
  return Materialize(defs, relation, catalog, pool);
}

StatusOr<std::vector<size_t>> MaterializeAggViews(
    const std::vector<AggViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool) {
  return Materialize(defs, relation, catalog, pool);
}

Status MaterializeCatalogViews(const ViewCatalog& catalog,
                               MasterRelation* segment, ThreadPool* pool) {
  if (!segment->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  COLGRAPH_ASSIGN_OR_RETURN(
      const std::vector<GraphViewDef> graph_defs,
      DefsFrom(catalog.graph_views(), segment->num_graph_views()));
  COLGRAPH_ASSIGN_OR_RETURN(
      const std::vector<AggViewDef> agg_defs,
      DefsFrom(catalog.agg_views(), segment->num_aggregate_views()));
  COLGRAPH_RETURN_NOT_OK(
      AddViews(graph_defs, segment, nullptr, pool).status());
  return AddViews(agg_defs, segment, nullptr, pool).status();
}

}  // namespace colgraph
