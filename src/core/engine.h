// ColGraphEngine: the public entry point of the library. Owns the edge
// catalog, the master relation, and the view catalog, and wires together
// ingest, view selection/materialization, and query execution — the whole
// pipeline of the paper behind one API.
//
// Typical use:
//   ColGraphEngine engine;
//   engine.AddWalk({...node ids...}, measures);   // repeat per record
//   engine.Seal();
//   engine.SelectAndMaterializeGraphViews(workload, /*budget=*/10);
//   auto result = engine.RunGraphQuery(query);
#pragma once

#include <memory>
#include <vector>

#include "columnstore/master_relation.h"
#include "graph/catalog.h"
#include "graph/flatten.h"
#include "graph/graph.h"
#include "obs/query_log.h"
#include "query/engine.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "views/view_defs.h"

namespace colgraph {

/// How graph-view candidates are generated (Section 5.2).
enum class CandidateGenerator : uint8_t {
  /// Exact: closure of the query edge sets under intersection (the closed
  /// itemsets), then the monotonicity filter. Default.
  kIntersectionClosure,
  /// Scalable variant: Apriori frequent-itemset mining with min support,
  /// then the supersede filter. Useful when query overlap makes the exact
  /// closure too large.
  kApriori,
};

struct EngineOptions {
  MasterRelationOptions relation;
  /// Candidate-generation minimum support for graph-view selection.
  /// (Apriori requires >= 2; lower values are clamped for that generator.)
  size_t view_min_support = 1;
  CandidateGenerator candidate_generator =
      CandidateGenerator::kIntersectionClosure;
  /// Worker threads for batch query evaluation, view materialization, and
  /// candidate support counting. <= 1 runs everything serially (no pool is
  /// created). Results are bit-identical for every value — parallelism
  /// only changes the wall clock (DESIGN.md §8).
  size_t num_threads = 1;
  /// Durable query-log capture (DESIGN.md §10). When query_log.path is
  /// non-empty the engine appends every executed query to that file for
  /// later replay (tools/colgraph_replay) and workload-driven view advice.
  /// If the file cannot be opened the engine still constructs — capture is
  /// disabled with one warning on stderr (an observability failure must
  /// not take the database down).
  obs::QueryLogOptions query_log;
};

/// \brief Facade over catalog + relation + views + query engine.
class ColGraphEngine {
 public:
  explicit ColGraphEngine(EngineOptions options = {});

  // Copying duplicates all engine state but shares the worker pool: a pool
  // holds threads, not data, and its ParallelFor is safe to call from any
  // number of threads, so copies run their parallel sections on the same
  // workers instead of starting their own. Moves transfer the pool.
  // (SharedCopy() is the cheap alternative when the copy will not mutate
  // the relation in place — snapshot publishing, DESIGN.md §14.)
  ColGraphEngine(const ColGraphEngine& other);
  ColGraphEngine& operator=(const ColGraphEngine& other);
  ColGraphEngine(ColGraphEngine&&) = default;
  ColGraphEngine& operator=(ColGraphEngine&&) = default;
  ~ColGraphEngine() = default;

  /// O(catalog + views) copy that *shares* the immutable relation and tail
  /// datasets instead of duplicating them — the incremental-ingest publish
  /// path (append a tail, publish) no longer copies the world. The shared
  /// relation is copy-on-write: the first in-place mutation through either
  /// engine clones it, so the two engines can never observe each other's
  /// writes. Not concurrency-safe with respect to other *mutators* of this
  /// engine (the daemon serializes writers; see DESIGN.md §12).
  ColGraphEngine SharedCopy() const;

  // --- Ingest (before Seal). ---

  /// Adds one graph record; elements are resolved (and the universe grown)
  /// through the owned catalog. Records with cycles must be flattened by
  /// the caller (AddWalk does this automatically for traces).
  [[nodiscard]] StatusOr<RecordId> AddRecord(const GraphRecord& record);

  /// Adds a trace record: a walk over base nodes with one measure per hop.
  /// The walk is cycle-flattened (Section 6.2) before shredding, so
  /// `measures.size()` must equal `walk.size() - 1`.
  [[nodiscard]] StatusOr<RecordId> AddWalk(const std::vector<NodeId>& walk,
                             const std::vector<double>& measures);

  /// Pre-registers the edges of a base network so the universe (and column
  /// order) is fixed before ingest.
  void RegisterUniverse(const std::vector<Edge>& edges);

  /// Freezes the relation; queries and materialization require this.
  [[nodiscard]] Status Seal();

  // --- Incremental ingest: tail datasets (DESIGN.md §14). The applications
  // --- generate records continuously, and Section 6.1's schema likewise
  // --- "expands on demand". A sealed engine grows only here:
  // --- BuildTailRelation, then AttachDataset. Every tail carries the
  // --- catalog's views, as the primary does; Compact() merges them back.

  /// Shreds `records` through this engine's catalog (growing it) into a
  /// fresh *sealed* relation — a tail dataset with its own column for every
  /// catalog view — leaving the primary relation untouched. Pair with
  /// AttachDataset().
  [[nodiscard]] StatusOr<MasterRelation> BuildTailRelation(
      const std::vector<GraphRecord>& records);

  /// Makes a sealed relation over this engine's edge ids (say, one loaded
  /// from a DatasetStore) a tail: adds every catalog view it lacks.
  [[nodiscard]] StatusOr<MasterRelation> BuildTailRelation(
      MasterRelation relation) const;

  /// Appends a sealed, immutable dataset behind the primary relation. Its
  /// records take the next total_records() global ids; every query runs on
  /// it as on the primary. Both must be sealed, and the tail must carry
  /// exactly the catalog's view columns (BuildTailRelation's output).
  [[nodiscard]] Status AttachDataset(
      std::shared_ptr<const MasterRelation> tail);

  /// Swaps the newest `k` attached tails for `tails` (a compaction's merge
  /// of them) behind the unchanged primary and older tails. `tails` must
  /// meet AttachDataset's rules (InvalidArgument otherwise) and hold the
  /// same records: the same record count, values per edge column, set bits
  /// per graph view and values per aggregate view (Internal otherwise).
  /// On error nothing changes.
  [[nodiscard]] Status ReplaceTails(
      size_t k, std::vector<std::shared_ptr<const MasterRelation>> tails);

  /// Merges the primary and every attached tail into one relation (records
  /// keep their global ids), laying every edge and view column end to end;
  /// no view is materialized again. No-op without tails.
  [[nodiscard]] Status Compact();

  const std::vector<std::shared_ptr<const MasterRelation>>& tails() const {
    return tails_;
  }
  /// Primary records plus every attached tail's records — the global
  /// record-id domain queries run over.
  size_t total_records() const;

  // --- Views (after Seal). ---

  /// Runs the full Section 5.2 pipeline for graph views: candidate
  /// generation (intersection closure + monotonicity filter + min support)
  /// and greedy extended-set-cover selection, then materializes at most
  /// `budget` views. Returns the number of views materialized.
  [[nodiscard]] StatusOr<size_t> SelectAndMaterializeGraphViews(
      const std::vector<GraphQuery>& workload, size_t budget);

  /// Same for aggregate graph views (Section 5.4), for function `fn`.
  [[nodiscard]] StatusOr<size_t> SelectAndMaterializeAggViews(
      const std::vector<GraphQuery>& workload, AggFn fn, size_t budget);

  /// Materializes one explicit graph view / aggregate view. Like the calls
  /// above, it adds views to the primary and every tail.
  [[nodiscard]] StatusOr<size_t> MaterializeView(const GraphViewDef& def);
  [[nodiscard]] StatusOr<size_t> MaterializeView(const AggViewDef& def);

  // --- Queries (after Seal). ---

  Bitmap Match(const GraphQuery& query, const QueryOptions& options = {}) const;
  [[nodiscard]] StatusOr<MeasureTable> RunGraphQuery(const GraphQuery& query,
                                       const QueryOptions& options = {}) const;
  [[nodiscard]] StatusOr<PathAggResult> RunAggregateQuery(
      const GraphQuery& query, AggFn fn,
      const QueryOptions& options = {}) const;

  /// Batch evaluation across the engine's worker pool (serial when
  /// options().num_threads <= 1); slot i holds the result of queries[i],
  /// bit-identical to looping RunGraphQuery.
  [[nodiscard]] StatusOr<std::vector<MeasureTable>> EvaluateBatch(
      const std::vector<GraphQuery>& queries,
      const QueryOptions& options = {}) const {
    return query_engine().EvaluateBatch(queries, options, pool_.get());
  }
  /// Batch path aggregation; slot i holds RunAggregateQuery(queries[i], fn).
  [[nodiscard]] StatusOr<std::vector<PathAggResult>> EvaluatePathAggBatch(
      const std::vector<GraphQuery>& queries, AggFn fn,
      const QueryOptions& options = {}) const {
    return query_engine().EvaluatePathAggBatch(queries, fn, options,
                                               pool_.get());
  }

  /// Aggregation along one explicit (possibly open-ended) path.
  [[nodiscard]] StatusOr<PathAggResult> AggregateAlongPath(
      const Path& path, AggFn fn, const QueryOptions& options = {}) const {
    return query_engine().AggregateAlongPath(path, fn, options);
  }

  // --- Introspection. ---

  /// EXPLAIN for a graph query: the rewriter's view choices, residual
  /// atomic edges, and estimated vs. actual bitmap cardinalities
  /// (obs/explain.h has text/JSON renderers).
  obs::ExplainResult Explain(const GraphQuery& query,
                             const QueryOptions& options = {}) const {
    return query_engine().Explain(query, options);
  }

  /// EXPLAIN for a path-aggregation query: the aggregate match plan
  /// (bp bitmaps included) plus the per-path view segmentation.
  obs::ExplainResult ExplainAggregate(const GraphQuery& query, AggFn fn,
                                      const QueryOptions& options = {}) const {
    return query_engine().ExplainAggregate(query, fn, options);
  }

  /// One JSON document combining the process-wide metrics registry
  /// (counters, gauges, per-phase latency histograms) with this engine's
  /// FetchStats, summed over the primary and every tail, and its shape
  /// (records, columns, views). This is what the bench harnesses write to
  /// --metrics-out.
  std::string DumpMetricsJson() const;

  /// Reassembles an engine from persisted parts (see core/engine_io.h).
  static ColGraphEngine FromParts(EngineOptions options, EdgeCatalog catalog,
                                  MasterRelation relation, ViewCatalog views);

  const EdgeCatalog& catalog() const { return catalog_; }
  EdgeCatalog& mutable_catalog() { return catalog_; }
  const MasterRelation& relation() const { return *relation_; }
  /// Mutable relation access for external materialization drivers (the
  /// benchmark harnesses sweep view budgets against one ingested relation).
  /// Forces copy-on-write when the relation is shared (see SharedCopy).
  MasterRelation& mutable_relation() { return OwnedRelation(); }
  const ViewCatalog& views() const { return views_; }
  const EngineOptions& options() const { return options_; }
  /// A fresh evaluator bound to this engine's state. Cheap (five
  /// pointers); constructed on demand so the engine stays movable.
  QueryEngine query_engine() const {
    return QueryEngine(relation_.get(), &catalog_, &views_, query_log_.get(),
                       segments_.empty() ? nullptr : &segments_);
  }

  /// The engine's query log; nullptr when capture is not configured.
  /// Exposed so external evaluation drivers (the bench harnesses build
  /// their own QueryEngine against trimmed view catalogs) can keep
  /// capturing into the same file.
  obs::QueryLog* query_log() const { return query_log_.get(); }

  /// Flushes the query log, writes its footer, and fsyncs — after this the
  /// log file is complete and readable. Returns the first error capture
  /// hit, OK when no log is configured. Idempotent; queries executed after
  /// the close are no longer recorded.
  [[nodiscard]] Status CloseQueryLog() {
    if (query_log_ == nullptr) return Status::OK();
    return query_log_->Close();
  }
  FetchStats& stats() const { return relation_->stats(); }
  /// Records in the *primary* relation; total_records() adds the tails.
  size_t num_records() const { return relation_->num_records(); }
  /// The engine's worker pool; nullptr when options().num_threads <= 1.
  ThreadPool* pool() const { return pool_.get(); }

 private:
  /// Tag dispatch for the SharedCopy constructor.
  struct ShareTag {};
  ColGraphEngine(const ColGraphEngine& other, ShareTag);

  /// Copy-on-write funnel: every in-place relation mutator goes through
  /// here, cloning the relation first if a SharedCopy still references it.
  MasterRelation& OwnedRelation();
  /// Resolves `record`'s elements through the catalog (growing it) and
  /// adds the shredded record to `relation`: the primary (AddRecord) or a
  /// tail under construction (BuildTailRelation).
  [[nodiscard]] StatusOr<RecordId> ShredInto(const GraphRecord& record,
                                             MasterRelation* relation);
  /// Recomputes segments_ (tail base offsets) after relation_/tails_
  /// change.
  void RebuildSegments();
  [[nodiscard]] Status CheckTail(const MasterRelation* tail) const;
  /// Replaces each tail with a copy carrying the catalog views it lacks.
  [[nodiscard]] Status AddCatalogViewsToTails();

  EngineOptions options_;
  EdgeCatalog catalog_;
  /// The primary relation. shared_ptr so SharedCopy can publish snapshots
  /// without duplicating columns; never null; mutations go through
  /// OwnedRelation() (copy-on-write).
  std::shared_ptr<MasterRelation> relation_;
  /// Immutable tail datasets behind the primary (DESIGN.md §14), in
  /// ingest order. Shared freely between engine copies.
  std::vector<std::shared_ptr<const MasterRelation>> tails_;
  /// Derived: one RelationSegment per tail with its global id base.
  std::vector<RelationSegment> segments_;
  ViewCatalog views_;
  /// Workers shared by every parallel section of this engine (batch
  /// queries, materialization, candidate counting) and by every copy of
  /// it; created once at construction, never rebuilt.
  std::shared_ptr<ThreadPool> pool_;
  /// Query-log capture; null unless options_.query_log.path is set. Shared
  /// (not duplicated) by engine copies: the log is an append-only,
  /// thread-safe sink, and the trace loader's staged-copy commit must keep
  /// appending to the same file, not truncate a second one.
  std::shared_ptr<obs::QueryLog> query_log_;
};

}  // namespace colgraph
