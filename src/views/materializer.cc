#include "views/materializer.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/agg_fn.h"
#include "util/thread_pool.h"

namespace colgraph {

namespace {

// Materialization accounting: view counts and per-view build latency (the
// Section 5.2 "views are cheap to build" claim, observable).
obs::LatencyHistogram& MaterializeHistogram() {
  static obs::LatencyHistogram& hist =
      obs::MetricsRegistry::Global().GetHistogram("views.materialize_us");
  return hist;
}

void CountMaterialized(const char* counter_name) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global().GetCounter(counter_name).Increment();
}

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

// AND of the presence bitmaps of `ids` (offline: bypasses fetch stats).
Bitmap ConjunctionBitmap(const std::vector<EdgeId>& ids,
                         const MasterRelation& relation) {
  Bitmap result(relation.num_records());
  if (ids.empty()) return result;
  result = relation.PeekMeasureColumn(ids[0]).presence().bits();
  for (size_t i = 1; i < ids.size(); ++i) {
    result.And(relation.PeekMeasureColumn(ids[i]).presence().bits());
  }
  return result;
}

}  // namespace

StatusOr<size_t> MaterializeGraphView(const GraphViewDef& def,
                                      MasterRelation* relation,
                                      ViewCatalog* catalog) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  if (def.edges.empty()) {
    return Status::InvalidArgument("cannot materialize an empty graph view");
  }
  COLGRAPH_RETURN_NOT_OK(ValidateIds(def.edges, *relation));
  const obs::Span span(&MaterializeHistogram(), nullptr, "materialize");
  const size_t index =
      relation->AddGraphView(ConjunctionBitmap(def.edges, *relation));
  catalog->AddGraphView(def, index);
  CountMaterialized("views.graph.materialized");
  return index;
}

namespace {

// Computes the (mp) column of an aggregate view from the base columns.
StatusOr<MeasureColumn> ComputeAggColumn(const AggViewDef& def,
                                         const MasterRelation& relation) {
  const Bitmap bp = ConjunctionBitmap(def.elements, relation);
  // The stored per-record value: for AVG the SUM sub-aggregate (count is
  // def.elements.size(), known statically); otherwise F itself.
  const AggFn stored_fn = def.fn == AggFn::kAvg ? AggFn::kSum : def.fn;

  std::vector<const MeasureColumn*> columns;
  columns.reserve(def.elements.size());
  for (EdgeId id : def.elements) {
    columns.push_back(&relation.PeekMeasureColumn(id));
  }

  MeasureColumn mp;
  Status status = Status::OK();
  bp.ForEachSetBit([&](size_t record) {
    if (!status.ok()) return;
    AggAccumulator acc(stored_fn);
    for (const MeasureColumn* col : columns) {
      const auto value = col->Get(record);
      // bp is the AND of the presences, so every element is non-NULL here.
      acc.Add(*value);
    }
    status = mp.Append(record, acc.Result());
  });
  COLGRAPH_RETURN_NOT_OK(status);
  mp.Seal(relation.num_records());
  return mp;
}

}  // namespace

StatusOr<size_t> MaterializeAggView(const AggViewDef& def,
                                    MasterRelation* relation,
                                    ViewCatalog* catalog) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  if (def.elements.size() < 2) {
    return Status::InvalidArgument(
        "aggregate views must cover at least two elements; single-element "
        "measures are already stored in the base schema");
  }
  COLGRAPH_RETURN_NOT_OK(ValidateIds(def.elements, *relation));
  const obs::Span span(&MaterializeHistogram(), nullptr, "materialize");
  COLGRAPH_ASSIGN_OR_RETURN(MeasureColumn mp, ComputeAggColumn(def, *relation));
  const size_t index = relation->AddAggregateView(std::move(mp));
  catalog->AddAggView(def, index);
  CountMaterialized("views.agg.materialized");
  return index;
}

StatusOr<std::vector<size_t>> MaterializeGraphViews(
    const std::vector<GraphViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  // Validate everything up front (serially, so the first bad definition in
  // order is reported) — the parallel phase then cannot fail, and on error
  // the relation and catalog are untouched.
  for (const GraphViewDef& def : defs) {
    if (def.edges.empty()) {
      return Status::InvalidArgument("cannot materialize an empty graph view");
    }
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.edges, *relation));
  }

  // Phase 1 (parallel): each view's conjunction bitmap is an independent
  // read-only pass over the sealed base columns, computed into its own
  // pre-sized slot.
  std::vector<Bitmap> bitmaps(defs.size());
  COLGRAPH_RETURN_NOT_OK(
      ParallelFor(pool, 0, defs.size(), /*grain=*/1,
                  [&](size_t begin, size_t end) -> Status {
                    for (size_t i = begin; i < end; ++i) {
                      bitmaps[i] = ConjunctionBitmap(defs[i].edges, *relation);
                    }
                    return Status::OK();
                  }));

  // Phase 2 (serial): register in definition order so view indices are
  // identical to one-by-one materialization regardless of thread count.
  std::vector<size_t> indices;
  indices.reserve(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    const size_t index = relation->AddGraphView(std::move(bitmaps[i]));
    catalog->AddGraphView(defs[i], index);
    indices.push_back(index);
  }
  return indices;
}

StatusOr<std::vector<size_t>> MaterializeAggViews(
    const std::vector<AggViewDef>& defs, MasterRelation* relation,
    ViewCatalog* catalog, ThreadPool* pool) {
  if (!relation->sealed()) {
    return Status::InvalidArgument("materialize requires a sealed relation");
  }
  for (const AggViewDef& def : defs) {
    if (def.elements.size() < 2) {
      return Status::InvalidArgument(
          "aggregate views must cover at least two elements; single-element "
          "measures are already stored in the base schema");
    }
    COLGRAPH_RETURN_NOT_OK(ValidateIds(def.elements, *relation));
  }

  std::vector<MeasureColumn> columns(defs.size());
  COLGRAPH_RETURN_NOT_OK(ParallelFor(
      pool, 0, defs.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          COLGRAPH_ASSIGN_OR_RETURN(columns[i],
                                    ComputeAggColumn(defs[i], *relation));
        }
        return Status::OK();
      }));

  std::vector<size_t> indices;
  indices.reserve(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    const size_t index = relation->AddAggregateView(std::move(columns[i]));
    catalog->AddAggView(defs[i], index);
    indices.push_back(index);
  }
  return indices;
}

}  // namespace colgraph
