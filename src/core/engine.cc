#include "core/engine.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <span>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "views/aggregate_views.h"
#include "views/apriori.h"
#include "views/candidate_generation.h"
#include "views/materializer.h"
#include "views/set_cover.h"

namespace colgraph {

ColGraphEngine::ColGraphEngine(EngineOptions options)
    : options_(std::move(options)),
      relation_(std::make_shared<MasterRelation>(options_.relation)) {
  if (options_.num_threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options_.num_threads);
  }
  if (!options_.query_log.path.empty()) {
    auto log = obs::QueryLog::Open(options_.query_log);
    if (log.ok()) {
      query_log_ = std::shared_ptr<obs::QueryLog>(std::move(log.value()));
    } else {
      // Constructors cannot return Status; capture is observability, so
      // degrade to "no log" loudly instead of failing the engine.
      std::fprintf(stderr,
                   "colgraph: query log disabled (open failed): %s\n",
                   log.status().ToString().c_str());
    }
  }
}

ColGraphEngine::ColGraphEngine(const ColGraphEngine& other)
    : ColGraphEngine(other, ShareTag{}) {
  // Tails are immutable, so sharing them is copying them.
  relation_ = std::make_shared<MasterRelation>(*other.relation_);
}

ColGraphEngine::ColGraphEngine(const ColGraphEngine& other, ShareTag)
    : options_(other.options_),
      catalog_(other.catalog_),
      relation_(other.relation_),  // shared; OwnedRelation() clones on write
      tails_(other.tails_),
      views_(other.views_),
      pool_(other.pool_),
      query_log_(other.query_log_) {
  RebuildSegments();
}

ColGraphEngine ColGraphEngine::SharedCopy() const {
  return ColGraphEngine(*this, ShareTag{});
}

ColGraphEngine& ColGraphEngine::operator=(const ColGraphEngine& other) {
  if (this != &other) *this = ColGraphEngine(other);
  return *this;
}

MasterRelation& ColGraphEngine::OwnedRelation() {
  // Copy-on-write: a use_count above one means a SharedCopy (a published
  // snapshot) still reads this relation; clone before the first in-place
  // write. Writer-side races are the caller's to exclude (the daemon holds
  // its writer mutex); readers only ever touch fully-built relations.
  if (relation_.use_count() > 1) {
    relation_ = std::make_shared<MasterRelation>(*relation_);
    RebuildSegments();
  }
  return *relation_;
}

void ColGraphEngine::RebuildSegments() {
  segments_.clear();
  size_t base = relation_->num_records();
  for (const auto& tail : tails_) {
    segments_.push_back(RelationSegment{tail.get(), base});
    base += tail->num_records();
  }
}

size_t ColGraphEngine::total_records() const {
  size_t total = relation_->num_records();
  for (const auto& tail : tails_) total += tail->num_records();
  return total;
}

ColGraphEngine ColGraphEngine::FromParts(EngineOptions options,
                                         EdgeCatalog catalog,
                                         MasterRelation relation,
                                         ViewCatalog views) {
  ColGraphEngine engine(options);
  engine.catalog_ = std::move(catalog);
  engine.relation_ = std::make_shared<MasterRelation>(std::move(relation));
  engine.views_ = std::move(views);
  return engine;
}

StatusOr<RecordId> ColGraphEngine::ShredInto(const GraphRecord& record,
                                             MasterRelation* relation) {
  if (record.elements.size() != record.measures.size()) {
    return Status::InvalidArgument(
        "record elements/measures size mismatch for record " +
        std::to_string(record.id));
  }
  std::vector<std::pair<EdgeId, double>> shredded;
  shredded.reserve(record.elements.size());
  for (size_t i = 0; i < record.elements.size(); ++i) {
    shredded.emplace_back(catalog_.GetOrAssign(record.elements[i]),
                          record.measures[i]);
  }
  return relation->AddRecord(shredded);
}

StatusOr<RecordId> ColGraphEngine::AddRecord(const GraphRecord& record) {
  return ShredInto(record, &OwnedRelation());
}

StatusOr<RecordId> ColGraphEngine::AddWalk(const std::vector<NodeId>& walk,
                                           const std::vector<double>& measures) {
  COLGRAPH_ASSIGN_OR_RETURN(const GraphRecord record,
                            WalkToRecord(walk, measures));
  return AddRecord(record);
}

void ColGraphEngine::RegisterUniverse(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) catalog_.GetOrAssign(e);
  OwnedRelation().EnsureColumns(catalog_.size());
}

Status ColGraphEngine::Seal() { return OwnedRelation().Seal(); }

StatusOr<MasterRelation> ColGraphEngine::BuildTailRelation(
    const std::vector<GraphRecord>& records) {
  MasterRelation tail(options_.relation);
  for (const GraphRecord& record : records) {
    COLGRAPH_RETURN_NOT_OK(ShredInto(record, &tail).status());
  }
  COLGRAPH_RETURN_NOT_OK(tail.Seal());
  return BuildTailRelation(std::move(tail));
}

StatusOr<MasterRelation> ColGraphEngine::BuildTailRelation(
    MasterRelation relation) const {
  COLGRAPH_RETURN_NOT_OK(
      MaterializeCatalogViews(views_, &relation, pool_.get()));
  return relation;
}

Status ColGraphEngine::CheckTail(const MasterRelation* tail) const {
  if (tail == nullptr || !tail->sealed() || !relation_->sealed()) {
    return Status::InvalidArgument(
        "tail datasets are sealed relations and attach to sealed ones only");
  }
  if (tail->num_graph_views() != views_.num_graph_views() ||
      tail->num_aggregate_views() != views_.num_agg_views()) {
    return Status::InvalidArgument(
        "a tail dataset must carry a column for every catalog view; build "
        "it with BuildTailRelation");
  }
  return Status::OK();
}

Status ColGraphEngine::AttachDataset(
    std::shared_ptr<const MasterRelation> tail) {
  COLGRAPH_RETURN_NOT_OK(CheckTail(tail.get()));
  tails_.push_back(std::move(tail));
  RebuildSegments();
  return Status::OK();
}

Status ColGraphEngine::ReplaceTails(
    size_t k, std::vector<std::shared_ptr<const MasterRelation>> tails) {
  if (k > tails_.size()) {
    return Status::InvalidArgument("cannot replace more tails than attached");
  }
  for (const auto& tail : tails) COLGRAPH_RETURN_NOT_OK(CheckTail(tail.get()));
  // Totals over a tail list that two lists holding the same records share:
  // records; values per edge column; set bits per graph view; values per
  // aggregate view.
  const auto totals = [](const auto& list) {
    std::array<std::vector<size_t>, 4> sums;
    const auto add = [&sums](size_t kind, size_t i, size_t n) {
      if (sums[kind].size() <= i) sums[kind].resize(i + 1, 0);
      sums[kind][i] += n;
    };
    for (const auto& tail : list) {
      add(0, 0, tail->num_records());
      for (EdgeId c = 0; c < tail->num_edge_columns(); ++c) {
        add(1, c, tail->PeekMeasureColumn(c).num_values());
      }
      for (size_t v = 0; v < tail->num_graph_views(); ++v) {
        add(2, v, tail->GraphViewCardinality(v));
      }
      for (size_t v = 0; v < tail->num_aggregate_views(); ++v) {
        add(3, v, tail->PeekAggregateView(v).num_values());
      }
    }
    return sums;
  };
  if (totals(tails) != totals(std::span(tails_).last(k))) {
    return Status::Internal(
        "replacement tails do not hold the records of the tails they replace");
  }
  tails_.resize(tails_.size() - k);
  std::move(tails.begin(), tails.end(), std::back_inserter(tails_));
  RebuildSegments();
  return Status::OK();
}

Status ColGraphEngine::Compact() {
  if (tails_.empty()) return Status::OK();
  std::vector<const MasterRelation*> segments = {relation_.get()};
  for (const auto& tail : tails_) segments.push_back(tail.get());
  COLGRAPH_ASSIGN_OR_RETURN(MasterRelation merged,
                            MergeRelations(segments, options_.relation));
  relation_ = std::make_shared<MasterRelation>(std::move(merged));
  tails_.clear();
  RebuildSegments();
  return Status::OK();
}

Status ColGraphEngine::AddCatalogViewsToTails() {
  // Tails are shared with published snapshots, so each grows the new
  // views on a copy.
  std::vector<std::shared_ptr<const MasterRelation>> tails;
  tails.reserve(tails_.size());
  for (const auto& tail : tails_) {
    COLGRAPH_ASSIGN_OR_RETURN(MasterRelation grown,
                              BuildTailRelation(MasterRelation(*tail)));
    tails.push_back(std::make_shared<const MasterRelation>(std::move(grown)));
  }
  tails_ = std::move(tails);
  RebuildSegments();
  return Status::OK();
}

StatusOr<size_t> ColGraphEngine::SelectAndMaterializeGraphViews(
    const std::vector<GraphQuery>& workload, size_t budget) {
  // Resolve each query to its (sorted) element-id universe.
  std::vector<std::vector<EdgeId>> universes;
  universes.reserve(workload.size());
  for (const GraphQuery& q : workload) {
    const QueryEngine::ResolvedQuery resolved = query_engine().Resolve(q);
    if (!resolved.satisfiable || resolved.ids.empty()) continue;
    universes.push_back(resolved.ids);
  }

  std::vector<GraphViewDef> candidates;
  if (options_.candidate_generator == CandidateGenerator::kApriori) {
    AprioriOptions apriori;
    apriori.min_support = std::max<size_t>(2, options_.view_min_support);
    apriori.pool = pool_.get();
    COLGRAPH_ASSIGN_OR_RETURN(AprioriResult mined,
                              MineFrequentItemsets(universes, apriori));
    candidates = FilterSuperseded(mined, universes).itemsets;
  } else {
    CandidateGenOptions gen;
    gen.min_support = options_.view_min_support;
    gen.pool = pool_.get();
    COLGRAPH_ASSIGN_OR_RETURN(candidates,
                              GenerateGraphViewCandidates(universes, gen));
  }
  const SetCoverSelection selection =
      GreedyExtendedSetCover(universes, candidates, budget);

  // Materialize the whole selection as one batch: the per-view bitmap
  // passes fan across the pool, registration stays in selection order.
  std::vector<GraphViewDef> selected_defs;
  selected_defs.reserve(selection.selected.size());
  for (size_t index : selection.selected) {
    selected_defs.push_back(candidates[index]);
  }
  COLGRAPH_RETURN_NOT_OK(
      MaterializeGraphViews(selected_defs, &OwnedRelation(), &views_,
                            pool_.get())
          .status());
  COLGRAPH_RETURN_NOT_OK(AddCatalogViewsToTails());
  return selected_defs.size();
}

StatusOr<size_t> ColGraphEngine::SelectAndMaterializeAggViews(
    const std::vector<GraphQuery>& workload, AggFn fn, size_t budget) {
  COLGRAPH_ASSIGN_OR_RETURN(
      std::vector<AggViewDef> selected,
      SelectAggregateViews(workload, fn, catalog_, budget));
  COLGRAPH_RETURN_NOT_OK(
      MaterializeAggViews(selected, &OwnedRelation(), &views_, pool_.get())
          .status());
  COLGRAPH_RETURN_NOT_OK(AddCatalogViewsToTails());
  return selected.size();
}

StatusOr<size_t> ColGraphEngine::MaterializeView(const GraphViewDef& def) {
  COLGRAPH_ASSIGN_OR_RETURN(const size_t index,
                            MaterializeGraphView(def, &OwnedRelation(),
                                                 &views_));
  COLGRAPH_RETURN_NOT_OK(AddCatalogViewsToTails());
  return index;
}

StatusOr<size_t> ColGraphEngine::MaterializeView(const AggViewDef& def) {
  COLGRAPH_ASSIGN_OR_RETURN(const size_t index,
                            MaterializeAggView(def, &OwnedRelation(), &views_));
  COLGRAPH_RETURN_NOT_OK(AddCatalogViewsToTails());
  return index;
}

Bitmap ColGraphEngine::Match(const GraphQuery& query,
                             const QueryOptions& options) const {
  return query_engine().Match(query, options);
}

StatusOr<MeasureTable> ColGraphEngine::RunGraphQuery(
    const GraphQuery& query, const QueryOptions& options) const {
  return query_engine().RunGraphQuery(query, options);
}

StatusOr<PathAggResult> ColGraphEngine::RunAggregateQuery(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  return query_engine().RunAggregateQuery(query, fn, options);
}

std::string ColGraphEngine::DumpMetricsJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("uptime_seconds");
  w.Uint(obs::ProcessUptimeSeconds());
  w.Key("engine");
  w.BeginObject();
  w.Key("num_records");
  w.Uint(relation_->num_records());
  w.Key("num_tail_datasets");
  w.Uint(tails_.size());
  w.Key("total_records");
  w.Uint(total_records());
  w.Key("num_edge_columns");
  w.Uint(relation_->num_edge_columns());
  w.Key("num_graph_views");
  w.Uint(views_.num_graph_views());
  w.Key("num_agg_views");
  w.Uint(views_.num_agg_views());
  w.Key("num_threads");
  w.Uint(options_.num_threads);
  w.EndObject();
  // Queries route fetches to the dataset holding each record, so the
  // engine's totals are the sum over the primary and every tail.
  uint64_t bitmap_columns = 0, measure_columns = 0, values = 0,
           partitions = 0, joins = 0;
  auto add = [&](const MasterRelation& rel) {
    const FetchStats& fs = rel.stats();
    bitmap_columns += fs.bitmap_columns_fetched;
    measure_columns += fs.measure_columns_fetched;
    values += fs.values_fetched;
    partitions += fs.partitions_touched;
    joins += fs.partition_joins;
  };
  add(*relation_);
  for (const auto& tail : tails_) add(*tail);
  w.Key("fetch_stats");
  w.BeginObject();
  w.Key("bitmap_columns_fetched");
  w.Uint(bitmap_columns);
  w.Key("measure_columns_fetched");
  w.Uint(measure_columns);
  w.Key("values_fetched");
  w.Uint(values);
  w.Key("partitions_touched");
  w.Uint(partitions);
  w.Key("partition_joins");
  w.Uint(joins);
  w.EndObject();
  w.Key("metrics");
  w.Raw(obs::MetricsRegistry::Global().ToJson());
  w.EndObject();
  return w.str();
}

}  // namespace colgraph
