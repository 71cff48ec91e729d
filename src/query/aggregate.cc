// Path-aggregation execution (Section 3.4): F_Gq retrieves the records
// matching Gq and folds F along every maximal path of the query, per
// record. With views (Section 5.1.2) each path is first segmented into
// materialized aggregate-view segments plus atomic elements; the fold then
// touches one column per segment instead of one per element.
#include "query/engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace colgraph {

namespace {

// Records per fold block: a fold gathers, folds and polls for
// cancellation up to 2,048 records at a time, so a block's gathered
// values stay cache-resident however many records match.
constexpr size_t kFoldBlockRecords = 2048;

// One column a segment folds: a plan segment's column in that segment, or
// nullptr where the segment never grew the element (NULL for every record
// in it). `view_elements` > 0 marks an aggregate view's segment
// value covering that many elements (folded with Merge), 0 a raw measure
// (folded with Add).
struct FoldInput {
  const MeasureColumn* column = nullptr;
  size_t view_elements = 0;
};

// Folds F over `inputs` for each record ids[i] - base, i in [0, n) (one
// segment's records, ascending), and writes the results to out[0, n).
// Per block of ids, every input column is gathered (MeasureColumn::Gather);
// then each record folds its values into one AggAccumulator in input
// order, the order of the per-record loop this replaced. A record without
// a value in an input is NULL there and skipped, so a stored NaN still
// folds.
Status FoldSegment(const std::vector<FoldInput>& inputs, const RecordId* ids,
                   size_t n, size_t base, AggFn fn,
                   const CancellationToken* cancel, double* out) {
  const size_t stride = std::min(n, kFoldBlockRecords);
  // Input c's values for the block's records start at gathered[c * stride];
  // present[c * stride + i] says whether record i has one, filled only
  // where has_null[c] (most blocks of most inputs have no NULL).
  std::vector<double> gathered(inputs.size() * stride);
  std::vector<uint8_t> present(inputs.size() * stride);
  std::vector<uint8_t> has_null(inputs.size());
  for (size_t first = 0; first < n; first += kFoldBlockRecords) {
    COLGRAPH_RETURN_NOT_OK(CheckCancellation(cancel));
    const size_t rows = std::min(kFoldBlockRecords, n - first);
    const RecordId* block = ids + first;
    for (size_t c = 0; c < inputs.size(); ++c) {
      const MeasureColumn* column = inputs[c].column;
      if (column == nullptr) continue;
      double* values = &gathered[c * stride];
      has_null[c] = column->Gather(block, rows, base, values) != 0;
      if (has_null[c] == 0) continue;
      const Bitmap& presence = column->presence().bits();
      for (size_t i = 0; i < rows; ++i) {
        present[c * stride + i] = presence.Test(block[i] - base);
      }
    }
    for (size_t i = 0; i < rows; ++i) {
      AggAccumulator acc(fn);
      for (size_t c = 0; c < inputs.size(); ++c) {
        if (inputs[c].column == nullptr) continue;
        if (has_null[c] && present[c * stride + i] == 0) continue;
        const double v = gathered[c * stride + i];
        if (inputs[c].view_elements > 0) {
          acc.Merge(v, inputs[c].view_elements);
        } else {
          acc.Add(v);
        }
      }
      *out++ = acc.Result();
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<double>> QueryEngine::FoldPath(
    const std::vector<RecordId>& records, const PathPlan& plan, AggFn fn,
    const CancellationToken* cancel, uint64_t* values_fetched) const {
  std::vector<double> values(records.size());
  std::vector<FoldInput> inputs(plan.segments.size());
  size_t row = 0;  // index in `records` of the segment's first record
  for (size_t s = 0; s < NumSegments(); ++s) {
    const RelationSegment segment = Segment(s);
    const MasterRelation& rel = *segment.relation;
    for (size_t i = 0; i < plan.segments.size(); ++i) {
      const PathSegment& seg = plan.segments[i];
      inputs[i] = seg.is_view
                      ? FoldInput{&rel.FetchAggregateView(seg.agg_view_column),
                                  seg.num_elements}
                      : FoldInput{rel.FindEdgeColumn(seg.atom), 0};
      if (!seg.is_view && inputs[i].column != nullptr) {
        ++rel.stats().measure_columns_fetched;
      }
    }
    const size_t end = SegmentEnd(records, row, s);
    const size_t n = end - row;
    if (n == 0) continue;
    COLGRAPH_RETURN_NOT_OK(FoldSegment(inputs, records.data() + row, n,
                                       segment.base, fn, cancel,
                                       values.data() + row));
    *values_fetched += n * inputs.size();
    row = end;
  }
  return values;
}

StatusOr<PathAggResult> QueryEngine::AggregateAlongPath(
    const Path& path, AggFn fn, const QueryOptions& options) const {
  PathAggResult result;
  result.paths.push_back(path);

  // Resolve the path's measurable elements. A structural edge the catalog
  // has never seen makes the path unsatisfiable; node measures that were
  // never recorded have no column and simply do not constrain or
  // contribute (their columns were dropped from the schema, Section 4.1).
  std::vector<EdgeId> elements;
  for (const Edge& e : path.Elements()) {
    const auto id = catalog_->Lookup(e);
    if (!id.has_value()) {
      if (!e.IsNode()) {
        result.values.emplace_back();
        return result;  // unsatisfiable: no record ever had this edge
      }
      continue;
    }
    elements.push_back(*id);
  }

  MatchIds(elements, options, /*consider_agg_bitmaps=*/true)
      .AppendSetBits(&result.records);

  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  const PathPlan plan = PlanPathAggregation(elements, fn, views);

  const obs::Span agg_span(obs::Phase::kAggregate, options.trace);
  uint64_t values_fetched = 0;
  COLGRAPH_ASSIGN_OR_RETURN(
      std::vector<double> values,
      FoldPath(result.records, plan, fn, options.cancel, &values_fetched));
  relation_->stats().values_fetched += values_fetched;
  result.values.push_back(std::move(values));
  return result;
}

StatusOr<PathAggResult> QueryEngine::RunAggregateQuery(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  if (log_ == nullptr) {
    return RunAggregateQueryImpl(query, fn, options, nullptr, nullptr);
  }
  // Capture path — see RunGraphQuery for the private-trace rationale.
  const uint64_t start_us = obs::NowMicros();
  obs::Trace log_trace;
  QueryOptions opts = options;
  opts.trace = &log_trace;
  MatchPlan plan;
  std::vector<uint32_t> path_views;
  StatusOr<PathAggResult> result =
      RunAggregateQueryImpl(query, fn, opts, &plan, &path_views);
  if (options.trace != nullptr) {
    for (const obs::TraceEvent& ev : log_trace.events()) {
      options.trace->Add(ev.phase, start_us + ev.start_us, ev.duration_us);
    }
  }
  if (result.ok()) {
    AppendLogRecord(/*is_path_agg=*/true, fn, query, plan, path_views,
                    log_trace, start_us, result.value().records.size());
  }
  return result;
}

StatusOr<PathAggResult> QueryEngine::RunAggregateQueryImpl(
    const GraphQuery& query, AggFn fn, const QueryOptions& options,
    MatchPlan* plan_out, std::vector<uint32_t>* path_views_out) const {
  // A cyclic query fails here (InvalidArgument), before any work.
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<Path> paths,
                            MaximalPaths(query.graph()));

  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("query.agg.count");
  queries.Increment();
  const obs::Span total_span(obs::Phase::kAggQuery, nullptr);

  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));

  PathAggResult result;
  ResolvedQuery resolved;
  {
    const obs::Span span(obs::Phase::kResolve, options.trace);
    resolved = Resolve(query);
  }
  if (!resolved.satisfiable) return result;

  // Structural match. Aggregate-view bitmaps are offered as covering
  // bitmaps too: for an aggregate query whose paths are materialized, bp
  // both filters and pays for itself.
  MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/true, plan_out)
      .AppendSetBits(&result.records);

  result.paths = std::move(paths);

  const ViewCatalog* views = options.use_views ? views_ : nullptr;

  const obs::Span agg_span(obs::Phase::kAggregate, options.trace);
  // Counted locally and published once: every daemon worker writes the
  // shared counter.
  uint64_t values_fetched = 0;
  for (const Path& path : result.paths) {
    // Catalog-resolvable elements of the path, in path order. Elements
    // without a column (e.g. nodes with no recorded measure) contribute
    // nothing to the aggregate.
    std::vector<EdgeId> elements;
    for (const Edge& e : path.Elements()) {
      const auto id = catalog_->Lookup(e);
      if (id.has_value()) elements.push_back(*id);
    }

    // Plans match on the query's function. Accounting counts one
    // measure-column fetch per segment — the cost reduction the views
    // exist to provide — and one partition visit per planned path.
    const PathPlan plan = PlanPathAggregation(elements, fn, views);
    for (const PathSegment& seg : plan.segments) {
      if (seg.is_view && path_views_out != nullptr) {
        path_views_out->push_back(static_cast<uint32_t>(seg.agg_view_column));
      }
    }
    if (!plan.segments.empty()) ++relation_->stats().partitions_touched;

    COLGRAPH_ASSIGN_OR_RETURN(
        std::vector<double> values,
        FoldPath(result.records, plan, fn, options.cancel, &values_fetched));
    result.values.push_back(std::move(values));
  }
  relation_->stats().values_fetched += values_fetched;
  return result;
}

}  // namespace colgraph
