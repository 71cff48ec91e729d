// The master relation R(recid, m1..mn, b1..bn, bv.., mp.., bp..) of
// Section 4.1/5.1.3, with the automatic vertical partitioning of
// Section 6.1 (sub-relations of at most `partition_width` measure columns,
// linked by recid).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bitmap/bitmap.h"
#include "columnstore/column.h"
#include "graph/graph.h"
#include "util/atomic_counter.h"
#include "util/check.h"
#include "util/status.h"

namespace colgraph {

/// \brief Column-fetch accounting, the store's analogue of the paper's I/O
/// cost model ("cost of a query is proportional to the number of bitmaps
/// fetched"). Benches report these next to wall-clock times.
///
/// The counters are relaxed atomics (util/atomic_counter.h) so concurrent
/// query evaluation over one sealed relation is free of data races; totals
/// are exact because every increment is atomic, and reading them after the
/// parallel section completes is ordered by the pool's completion
/// handshake. Reset() is not atomic as a whole — call it only while no
/// reader is running.
struct FetchStats {
  RelaxedCounter bitmap_columns_fetched;
  RelaxedCounter measure_columns_fetched;
  RelaxedCounter values_fetched;
  RelaxedCounter partitions_touched;
  RelaxedCounter partition_joins;  ///< cross-partition recid merges performed

  void Reset() { *this = FetchStats(); }
};

struct MasterRelationOptions {
  /// Maximum number of measure columns per vertical sub-relation. Queries
  /// whose measure columns span p partitions pay p-1 recid joins (Fig. 5).
  size_t partition_width = 1000;
  /// When true (default), columns at or below the hybrid density threshold
  /// (BitmapColumn::kHybridDensityDivisor) get a roaring-style HybridBitmap
  /// encoding at seal time, which the query engine's AND loop consumes.
  /// False pins every column to the plain-word AND path (ablation, and the
  /// byte-identical-results determinism check). Snapshot bytes are the
  /// same either way.
  bool hybrid_bitmaps = true;
};

/// \brief Columnar storage for a collection of shredded graph records.
///
/// Ingest protocol: AddRecord() repeatedly (record ids are assigned densely
/// in arrival order), then Seal() exactly once; all reads require a sealed
/// relation. Views are added after sealing via AddGraphView /
/// AddAggregateView.
class MasterRelation {
 public:
  explicit MasterRelation(MasterRelationOptions options = {})
      : options_(options) {}

  /// Appends one shredded record: (edge-id, measure) pairs. Edge ids beyond
  /// the current universe grow the relation. Duplicate edge ids within one
  /// record are rejected (the message names the smallest) before any
  /// column or the universe changes. One pass over the record: a duplicate
  /// is found in O(1) per element, and a record whose columns have room
  /// allocates nothing.
  [[nodiscard]] StatusOr<RecordId> AddRecord(
      const std::vector<std::pair<EdgeId, double>>& elements);

  /// Freezes the relation: sizes every presence bitmap to the final record
  /// count and builds rank directories. A sealed relation never grows
  /// again; new records arrive as further sealed relations (tail datasets,
  /// DESIGN.md §14).
  [[nodiscard]] Status Seal();
  bool sealed() const { return sealed_; }

  size_t num_records() const { return num_records_; }
  /// Number of distinct edge ids (measure/bitmap column pairs).
  size_t num_edge_columns() const { return columns_.size(); }

  /// Grows the universe to at least `n` edge columns (pre-sizing from a
  /// catalog avoids growth during ingest).
  void EnsureColumns(size_t n);

  // --- Reads (sealed relation only). ---
  //
  // Only FetchAggregateView counts a fetch; the query engine counts every
  // other bitmap and column where it reads one (FetchStats, stats()).

  /// The measure column m_i of an edge (its presence bits are the bitmap
  /// column b_i).
  const MeasureColumn& PeekMeasureColumn(EdgeId id) const;
  /// The column of an edge (m_i, whose presence bits are b_i), or nullptr
  /// when this relation never grew it: an empty column, which no record
  /// contains and for which every record is NULL. No fetch accounting.
  const MeasureColumn* FindEdgeColumn(EdgeId id) const {
    return id < columns_.size() ? &columns_[id] : nullptr;
  }

  // --- Views (Section 5). ---

  /// Adds a graph-view bitmap column bv; returns its view index.
  size_t AddGraphView(Bitmap bits);
  size_t num_graph_views() const { return graph_views_.size(); }

  /// Reconstructs a sealed relation from stored or merged columns (the
  /// persistence and compaction paths). The hybrid encoding choice for
  /// every column is made here.
  static StatusOr<MasterRelation> FromColumns(size_t num_records,
                                              std::vector<MeasureColumn> cols,
                                              MasterRelationOptions options);

  /// Adds an aggregate graph view (mp, bp); returns its view index.
  size_t AddAggregateView(MeasureColumn column);
  /// The aggregate view's column, counted as a measure-column fetch.
  const MeasureColumn& FetchAggregateView(size_t view_index) const;
  size_t num_aggregate_views() const { return agg_views_.size(); }

  /// Accounting-free view access (persistence / maintenance paths).
  const Bitmap& PeekGraphView(size_t view_index) const {
    return PeekGraphViewColumn(view_index).bits();
  }
  const BitmapColumn& PeekGraphViewColumn(size_t view_index) const {
    COLGRAPH_CHECK_LT(view_index, graph_views_.size());
    return graph_views_[view_index];
  }
  const MeasureColumn& PeekAggregateView(size_t view_index) const {
    COLGRAPH_CHECK_LT(view_index, agg_views_.size());
    return agg_views_[view_index];
  }

  // --- Hybrid encodings (seal-time per-column choice). ---
  //
  // Nullptr when the column is plain-encoded. The engine counts a source
  // once, whichever encoding the AND loop consumes.
  const HybridBitmap* PeekEdgeBitmapHybrid(EdgeId id) const {
    return columns_[id].presence().hybrid();
  }
  const HybridBitmap* PeekGraphViewHybrid(size_t view_index) const {
    return graph_views_[view_index].hybrid();
  }
  const HybridBitmap* PeekAggViewBitmapHybrid(size_t view_index) const {
    return agg_views_[view_index].presence().hybrid();
  }

  /// O(1) cardinality statistics (cached at seal time) — the planner's
  /// selectivity estimates.
  size_t EdgeBitmapCardinality(EdgeId id) const {
    COLGRAPH_CHECK_LT(id, columns_.size());
    return columns_[id].presence().Count();
  }
  size_t GraphViewCardinality(size_t view_index) const {
    return PeekGraphViewColumn(view_index).Count();
  }
  size_t AggViewCardinality(size_t view_index) const {
    return PeekAggregateView(view_index).presence().Count();
  }

  // --- Partitioning (Section 6.1). ---

  size_t partition_width() const { return options_.partition_width; }
  size_t PartitionOf(EdgeId id) const { return id / options_.partition_width; }
  /// Number of vertical sub-relations currently needed by the universe.
  size_t num_partitions() const {
    return columns_.empty()
               ? 1
               : (columns_.size() + options_.partition_width - 1) /
                     options_.partition_width;
  }

  // --- Accounting & footprint. ---

  FetchStats& stats() const { return stats_; }

  /// In-memory footprint of all columns (bytes).
  size_t MemoryBytes() const;
  /// On-disk footprint: container-codec bitmaps (the words a snapshot
  /// writes, BitmapColumn::EncodeContainers) + packed values. This is what
  /// Figure 4 plots: independent of record density, since NULLs occupy no
  /// space.
  size_t DiskBytes() const;

 private:
  MasterRelationOptions options_;
  size_t num_records_ = 0;
  bool sealed_ = false;
  std::vector<MeasureColumn> columns_;  // indexed by EdgeId
  // AddRecord's duplicate check: stamps_[id] == generation_ once the
  // record being added holds edge id `id`, and each record takes the next
  // generation, so no per-record clearing. Sized to the largest id seen;
  // Seal() frees it.
  std::vector<uint32_t> stamps_;
  uint32_t generation_ = 0;
  std::vector<BitmapColumn> graph_views_;
  std::vector<MeasureColumn> agg_views_;
  mutable FetchStats stats_;
};

/// \brief The relation merge behind every compaction (ColGraphEngine::
/// Compact, DatasetStore::CompactNewest and the daemon's cycle). Lays the
/// sealed `segments` end to end, so record r of segment s becomes record
/// base(s) + r: edge column c is MergeColumn over each segment's column c
/// (a segment that never grew it adds an empty range, and the merged
/// schema is the widest any segment grew); each graph view ORs every
/// segment's view bits in at the segment's base, and each aggregate view
/// merges like an edge column, so no view is materialized again. Every
/// segment must carry the same number of graph and aggregate views.
StatusOr<MasterRelation> MergeRelations(
    const std::vector<const MasterRelation*>& segments,
    MasterRelationOptions options);

}  // namespace colgraph
