#include "query/engine.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace colgraph {

namespace {

// The bitmap column a plan source reads in `segment`: an edge's presence
// (nullptr where the segment never grew it), bv or bp. A view column the
// segment lacks fails a CHECK. No fetch accounting.
const BitmapColumn* SourceColumn(const MasterRelation& segment,
                                 const BitmapSource& source) {
  switch (source.kind) {
    case BitmapSource::Kind::kEdge: {
      const MeasureColumn* column =
          segment.FindEdgeColumn(static_cast<EdgeId>(source.index));
      return column == nullptr ? nullptr : &column->presence();
    }
    case BitmapSource::Kind::kGraphView:
      return &segment.PeekGraphViewColumn(source.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return &segment.PeekAggregateView(source.index).presence();
  }
  return nullptr;
}

// The conjunction of `sources`, in order, over one segment, counting each
// bitmap it reads; `step_counts` as in QueryEngine::AndSegments.
Bitmap AndSegment(const MasterRelation& segment,
                  const std::vector<BitmapSource>& sources,
                  std::vector<size_t>* step_counts) {
  // The running conjunction stays in the hybrid (compressed) domain as long
  // as every operand so far has a hybrid sidecar — container-level ANDs
  // touch only the compressed payloads. The first plain operand (or the
  // final result) materializes it into words once; from there hybrid
  // operands apply in place via AndInto's word kernels.
  std::optional<HybridBitmap> running;
  Bitmap result;
  for (size_t i = 0; i < sources.size(); ++i) {
    // Short-circuit: once the conjunction is empty no further bitmap can
    // add records, so stop fetching. This is why column-store query time
    // *drops* as query graphs grow (Figure 3b): bigger queries are more
    // selective and the AND pipeline exits early.
    if (i > 0 && (running ? running->None() : result.None())) break;
    const BitmapColumn* column = SourceColumn(segment, sources[i]);
    if (column == nullptr) return Bitmap(segment.num_records());
    ++segment.stats().bitmap_columns_fetched;
    const HybridBitmap* hybrid = column->hybrid();
    if (i == 0 && hybrid != nullptr) {
      running = *hybrid;
    } else if (i == 0) {
      result = column->bits();
    } else if (running.has_value() && hybrid != nullptr) {
      running = HybridBitmap::And(*running, *hybrid);
    } else {
      if (running.has_value()) {
        result = running->ToBitmap();
        running.reset();
      }
      if (hybrid != nullptr) {
        hybrid->AndInto(&result);
      } else {
        result.And(column->bits());
      }
    }
    if (step_counts != nullptr) {
      (*step_counts)[i] += running ? running->Count() : result.Count();
    }
  }
  if (running.has_value()) result = running->ToBitmap();
  return result;
}

}  // namespace

size_t QueryEngine::SourceCardinality(const BitmapSource& source) const {
  size_t total = 0;
  for (size_t s = 0; s < NumSegments(); ++s) {
    const BitmapColumn* column = SourceColumn(*Segment(s).relation, source);
    if (column != nullptr) total += column->Count();
  }
  return total;
}

size_t QueryEngine::TotalRecords() const {
  const RelationSegment last = Segment(NumSegments() - 1);
  return last.base + last.relation->num_records();
}

size_t QueryEngine::SegmentEnd(const std::vector<RecordId>& records,
                               size_t first, size_t s) const {
  const RelationSegment seg = Segment(s);
  const auto end =
      std::lower_bound(records.begin() + static_cast<ptrdiff_t>(first),
                       records.end(), seg.base + seg.relation->num_records());
  return static_cast<size_t>(end - records.begin());
}

Bitmap QueryEngine::AndSegments(const std::vector<BitmapSource>& sources,
                                std::vector<size_t>* step_counts) const {
  if (!HasTails()) return AndSegment(*relation_, sources, step_counts);
  // The global answer is the union of the per-segment answers, each
  // blitted at its segment's base (DESIGN.md §14).
  Bitmap matches(TotalRecords());
  for (size_t s = 0; s < NumSegments(); ++s) {
    const RelationSegment seg = Segment(s);
    matches.OrAt(AndSegment(*seg.relation, sources, step_counts), seg.base);
  }
  return matches;
}

Bitmap QueryEngine::MatchIds(const std::vector<EdgeId>& ids,
                             const QueryOptions& options,
                             bool consider_agg_bitmaps,
                             MatchPlan* plan_out) const {
  return MatchIds(ids, options, consider_agg_bitmaps, plan_out, nullptr);
}

Bitmap QueryEngine::MatchIds(const std::vector<EdgeId>& ids,
                             const QueryOptions& options,
                             bool consider_agg_bitmaps, MatchPlan* plan_out,
                             std::vector<size_t>* step_counts) const {
  if (plan_out != nullptr) plan_out->sources.clear();
  if (ids.empty()) {
    // An unconstrained query matches every record of every segment.
    Bitmap all(TotalRecords());
    all.Fill();
    return all;
  }
  // The plan is built where the caller wants it, so it is never copied.
  MatchPlan local_plan;
  MatchPlan& plan = plan_out != nullptr ? *plan_out : local_plan;
  {
    const obs::Span span(obs::Phase::kRewrite, options.trace);
    // One plan for every segment: it depends only on the catalog.
    plan = PlanMatch(ids, options.use_views ? views_ : nullptr,
                     consider_agg_bitmaps);
    if (options.order_by_selectivity) {
      // AND the most selective bitmaps first so the running conjunction
      // empties (and short-circuits) as early as possible. Cardinalities
      // come from the sealed columns' rank directories — free statistics,
      // summed over the segments once per source.
      std::vector<std::pair<size_t, BitmapSource>> keyed;
      keyed.reserve(plan.sources.size());
      for (const BitmapSource& s : plan.sources) {
        keyed.emplace_back(SourceCardinality(s), s);
      }
      std::sort(keyed.begin(), keyed.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t i = 0; i < keyed.size(); ++i) {
        plan.sources[i] = keyed[i].second;
      }
    }
  }
  const obs::Span span(obs::Phase::kBitmapAnd, options.trace);
  if (step_counts != nullptr) step_counts->assign(plan.sources.size(), 0);
  return AndSegments(plan.sources, step_counts);
}

Bitmap QueryEngine::Match(const GraphQuery& query,
                          const QueryOptions& options) const {
  const ResolvedQuery resolved = Resolve(query);
  if (!resolved.satisfiable) return Bitmap(TotalRecords());
  return MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/false);
}

Bitmap QueryEngine::AndSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.And(b);
  return r;
}

Bitmap QueryEngine::OrSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.Or(b);
  return r;
}

Bitmap QueryEngine::AndNotSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.AndNot(b);
  return r;
}

MeasureTable QueryEngine::FetchMeasures(const Bitmap& matches,
                                        const std::vector<EdgeId>& edges,
                                        obs::Trace* trace) const {
  COLGRAPH_CHECK_EQ(matches.size(), TotalRecords())
      << "the match is not a bitmap over the collection's records";
  const obs::Span span(obs::Phase::kFetch, trace);
  MeasureTable table;
  table.edges = edges;
  matches.AppendSetBits(&table.records);
  table.columns.resize(edges.size());
  // Zero matching rows: no measure column needs to be read at all — the
  // other face of "larger queries are cheaper" (Figure 3b).
  if (table.records.empty()) return table;
  constexpr double kNull = std::numeric_limits<double>::quiet_NaN();
  FetchStats& stats = relation_->stats();

  // Each segment gathers the matched ids in its range (segments are
  // ascending id ranges) into the rows they own, with MeasureColumn::Gather,
  // the one list gather (DESIGN.md §13); a column it never grew is NULL
  // there.
  size_t row = 0;
  for (size_t s = 0; s < NumSegments(); ++s) {
    const RelationSegment seg = Segment(s);
    const MasterRelation& segment = *seg.relation;
    const size_t end = SegmentEnd(table.records, row, s);
    const size_t n = end - row;
    if (n == 0) continue;
    const RecordId* ids = table.records.data() + row;
    const auto gather = [&](size_t i, double* out) {
      const MeasureColumn* column = segment.FindEdgeColumn(edges[i]);
      if (column == nullptr) {
        std::fill(out, out + n, kNull);
        return;
      }
      ++segment.stats().measure_columns_fetched;
      column->Gather(ids, n, seg.base, out);
      stats.values_fetched += n;
    };
    // Group requested columns by vertical partition (Section 6.1); each
    // segment counts the partitions it reads, none when no column is
    // requested, however the collection is split.
    std::map<size_t, std::vector<size_t>> by_partition;  // partition -> idx
    for (size_t i = 0; i < edges.size(); ++i) {
      by_partition[segment.PartitionOf(edges[i])].push_back(i);
    }
    stats.partitions_touched += by_partition.size();
    const bool joined = by_partition.size() > 1;
    if (joined) stats.partition_joins += by_partition.size() - 1;
    for (const auto& [partition, slots] : by_partition) {
      (void)partition;
      // A single sub-relation gathers straight into the result columns.
      // With several, each partition assembles its own (recid, values...)
      // rows, merge-joined on recid into the table: extra materialization
      // and merging that grows with the partition count, reproducing the
      // degradation of Figure 5.
      const std::vector<RecordId> keys(ids, joined ? ids + n : ids);
      for (const size_t i : slots) {
        // A column is allocated just before its first gather, while it is
        // still in cache.
        std::vector<double>& column = table.columns[i];
        if (column.empty()) column.resize(table.records.size());
        std::vector<double> partial(keys.size());
        double* out = column.data() + row;
        gather(i, joined ? partial.data() : out);
        std::copy(partial.begin(), partial.end(), out);
      }
    }
    row = end;
  }
  return table;
}

StatusOr<MeasureTable> QueryEngine::RunGraphQueryImpl(
    const GraphQuery& query, const QueryOptions& options,
    MatchPlan* plan_out) const {
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("query.graph.count");
  queries.Increment();
  const obs::Span total_span(obs::Phase::kGraphQuery, nullptr);

  // Cooperative cancellation: poll at the phase boundaries (the match can
  // fetch many bitmaps, the fetch many columns) so a fired deadline
  // abandons the query between phases instead of after the fact.
  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));

  ResolvedQuery resolved;
  {
    const obs::Span span(obs::Phase::kResolve, options.trace);
    resolved = Resolve(query);
  }
  if (!resolved.satisfiable) {
    MeasureTable empty;
    empty.edges = resolved.ids;
    empty.columns.resize(resolved.ids.size());
    return empty;
  }
  const Bitmap matches =
      MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/false, plan_out);
  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));
  return FetchMeasures(matches, resolved.ids, options.trace);
}

void QueryEngine::AppendLogRecord(bool is_path_agg, AggFn fn,
                                  const GraphQuery& query,
                                  const MatchPlan& plan,
                                  const std::vector<uint32_t>& path_views,
                                  const obs::Trace& trace, uint64_t start_us,
                                  uint64_t result_cardinality) const {
  obs::QueryLogRecord rec;
  rec.kind =
      is_path_agg ? obs::QueryLogKind::kPathAgg : obs::QueryLogKind::kMatch;
  rec.fn = is_path_agg ? fn : AggFn::kSum;

  rec.edges = query.graph().edges();
  rec.isolated_nodes = query.graph().IsolatedNodes();

  for (const BitmapSource& s : plan.sources) {
    if (s.kind == BitmapSource::Kind::kGraphView) {
      rec.graph_view_indexes.push_back(static_cast<uint32_t>(s.index));
    } else if (s.kind == BitmapSource::Kind::kAggViewBitmap) {
      rec.agg_view_indexes.push_back(static_cast<uint32_t>(s.index));
    }
  }
  // Aggregate views chosen by the path segmentation, on top of any bp
  // bitmaps the match plan ANDed (deduplicated, order-normalized).
  rec.agg_view_indexes.insert(rec.agg_view_indexes.end(), path_views.begin(),
                              path_views.end());
  std::sort(rec.agg_view_indexes.begin(), rec.agg_view_indexes.end());
  rec.agg_view_indexes.erase(std::unique(rec.agg_view_indexes.begin(),
                                         rec.agg_view_indexes.end()),
                             rec.agg_view_indexes.end());

  for (const obs::TraceEvent& ev : trace.events()) {
    const size_t p = static_cast<size_t>(ev.phase);
    if (p < obs::kNumQueryPhases) rec.phase_us[p] += ev.duration_us;
  }
  rec.total_us = obs::NowMicros() - start_us;
  rec.result_cardinality = result_cardinality;
  log_->Append(rec);
}

StatusOr<MeasureTable> QueryEngine::RunGraphQuery(
    const GraphQuery& query, const QueryOptions& options) const {
  if (log_ == nullptr) {
    return RunGraphQueryImpl(query, options, nullptr);
  }
  // Capture path: run with a private trace so this query's phase timings
  // are attributable even inside a batch sharing one caller trace; the
  // events are forwarded to the caller's trace afterwards.
  const uint64_t start_us = obs::NowMicros();
  obs::Trace log_trace;
  QueryOptions opts = options;
  opts.trace = &log_trace;
  MatchPlan plan;
  StatusOr<MeasureTable> result = RunGraphQueryImpl(query, opts, &plan);
  if (options.trace != nullptr) {
    for (const obs::TraceEvent& ev : log_trace.events()) {
      options.trace->Add(ev.phase, start_us + ev.start_us, ev.duration_us);
    }
  }
  if (result.ok()) {
    AppendLogRecord(/*is_path_agg=*/false, AggFn::kSum, query, plan, {},
                    log_trace, start_us, result.value().num_rows());
  }
  return result;
}

obs::ExplainResult QueryEngine::Explain(const GraphQuery& query,
                                        const QueryOptions& options) const {
  obs::ExplainResult result;
  const ResolvedQuery resolved = Resolve(query);
  result.query_edges = resolved.ids;
  result.satisfiable = resolved.satisfiable;
  if (!resolved.satisfiable) return result;
  ExplainMatchInto(resolved.ids, options, /*consider_agg_bitmaps=*/false,
                   &result);
  return result;
}

obs::ExplainResult QueryEngine::ExplainAggregate(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  obs::ExplainResult result;
  result.is_aggregate = true;
  const ResolvedQuery resolved = Resolve(query);
  result.query_edges = resolved.ids;
  result.satisfiable = resolved.satisfiable;
  if (!resolved.satisfiable) return result;
  // Same match plan RunAggregateQuery builds: aggregate-view bp bitmaps
  // are offered as covering bitmaps too.
  ExplainMatchInto(resolved.ids, options, /*consider_agg_bitmaps=*/true,
                   &result);

  // Path segmentation, mirroring RunAggregateQueryImpl. A cyclic query is
  // rejected by evaluation; EXPLAIN just reports zero paths for it.
  StatusOr<std::vector<Path>> paths = MaximalPaths(query.graph());
  if (!paths.ok()) return result;
  result.num_paths = paths.value().size();
  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  for (const Path& path : paths.value()) {
    std::vector<EdgeId> elements;
    for (const Edge& e : path.Elements()) {
      const auto id = catalog_->Lookup(e);
      if (id.has_value()) elements.push_back(*id);
    }
    const PathPlan plan = PlanPathAggregation(elements, fn, views);
    for (const PathSegment& seg : plan.segments) {
      if (seg.is_view) {
        result.agg_view_indexes.push_back(seg.agg_view_column);
        result.path_elements_from_views += seg.num_elements;
      } else {
        ++result.path_elements_atomic;
      }
    }
  }
  // One list for both roles an aggregate view plays (bp bitmap in the
  // match, column in the fold) — same semantics as a query-log record.
  std::sort(result.agg_view_indexes.begin(), result.agg_view_indexes.end());
  result.agg_view_indexes.erase(
      std::unique(result.agg_view_indexes.begin(),
                  result.agg_view_indexes.end()),
      result.agg_view_indexes.end());
  return result;
}

void QueryEngine::ExplainMatchInto(const std::vector<EdgeId>& ids,
                                   const QueryOptions& options,
                                   bool consider_agg_bitmaps,
                                   obs::ExplainResult* result) const {
  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  result->used_views =
      views != nullptr &&
      (views->num_graph_views() > 0 || views->num_agg_views() > 0);
  // MatchIds reports the plan it ran and the cardinality after each step.
  MatchPlan plan;
  std::vector<size_t> cumulative;
  result->matched_records =
      MatchIds(ids, options, consider_agg_bitmaps, &plan, &cumulative).Count();
  // The same cover, annotated with the query edges each source constrains.
  const AnnotatedMatchPlan annotated =
      PlanMatchAnnotated(ids, views, consider_agg_bitmaps);
  for (size_t i = 0; i < plan.sources.size(); ++i) {
    const BitmapSource& source = plan.sources[i];
    obs::ExplainSource out;
    out.source = source;
    for (const AnnotatedSource& a : annotated.sources) {
      if (a.source.kind == source.kind && a.source.index == source.index) {
        out.covers = a.covers;
      }
    }
    out.estimated_cardinality = SourceCardinality(source);
    out.cumulative_cardinality = cumulative[i];
    const BitmapColumn* primary = SourceColumn(*relation_, source);
    out.hybrid = primary != nullptr && primary->hybrid() != nullptr;
    if (source.kind == BitmapSource::Kind::kEdge) {
      result->residual_edges.push_back(static_cast<EdgeId>(source.index));
    } else if (source.kind == BitmapSource::Kind::kGraphView) {
      result->graph_view_indexes.push_back(source.index);
    } else if (source.kind == BitmapSource::Kind::kAggViewBitmap) {
      result->agg_view_indexes.push_back(source.index);
    }
    result->sources.push_back(std::move(out));
  }
  std::sort(result->residual_edges.begin(), result->residual_edges.end());
}

}  // namespace colgraph
