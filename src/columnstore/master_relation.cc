#include "columnstore/master_relation.h"

#include <algorithm>

#include "util/check.h"

namespace colgraph {

StatusOr<RecordId> MasterRelation::AddRecord(
    const std::vector<std::pair<EdgeId, double>>& elements) {
  if (sealed_) {
    return Status::InvalidArgument("cannot add records to a sealed relation");
  }
  // Validate before mutating any column so a failed insert has no effect:
  // an id already stamped with this record's generation repeats.
  if (++generation_ == 0) {  // wrapped: an old stamp could match again
    std::fill(stamps_.begin(), stamps_.end(), 0);
    generation_ = 1;
  }
  size_t width = columns_.size();
  bool repeated = false;
  EdgeId smallest_repeat = 0;
  for (const auto& element : elements) {
    const EdgeId id = element.first;
    if (id >= stamps_.size()) stamps_.resize(size_t{id} + 1, 0);
    if (stamps_[id] == generation_) {
      smallest_repeat = repeated ? std::min(smallest_repeat, id) : id;
      repeated = true;
    }
    stamps_[id] = generation_;
    width = std::max(width, size_t{id} + 1);
  }
  if (repeated) {
    return Status::InvalidArgument("duplicate edge id " +
                                   std::to_string(smallest_repeat) +
                                   " in record; flatten cycles first");
  }
  EnsureColumns(width);
  // Record ids ascend and the relation is unsealed, which is all that
  // MeasureColumn::Append would check.
  const RecordId rid = num_records_++;
  for (const auto& [edge_id, value] : elements) {
    columns_[edge_id].AppendUnchecked(rid, value);
  }
  return rid;
}

Status MasterRelation::Seal() {
  if (sealed_) return Status::InvalidArgument("relation already sealed");
  for (auto& col : columns_) {
    col.Seal(num_records_);
    col.ChooseEncoding(options_.hybrid_bitmaps);
  }
  sealed_ = true;
  stamps_ = std::vector<uint32_t>();
  return Status::OK();
}

void MasterRelation::EnsureColumns(size_t n) {
  COLGRAPH_CHECK(!sealed_);
  if (columns_.size() < n) columns_.resize(n);
}

const MeasureColumn& MasterRelation::PeekMeasureColumn(EdgeId id) const {
  COLGRAPH_CHECK(sealed_);
  COLGRAPH_CHECK_LT(id, columns_.size());
  return columns_[id];
}

StatusOr<MasterRelation> MasterRelation::FromColumns(
    size_t num_records, std::vector<MeasureColumn> cols,
    MasterRelationOptions options) {
  MasterRelation rel(options);
  for (const auto& col : cols) {
    if (!col.sealed() || col.presence().size() != num_records) {
      return Status::Corruption("loaded column not sealed to record count");
    }
  }
  rel.columns_ = std::move(cols);
  rel.num_records_ = num_records;
  rel.sealed_ = true;
  // The encoding choice is deterministic from density, so re-deriving it
  // here reproduces exactly what the writer had at seal time.
  for (auto& col : rel.columns_) {
    col.ChooseEncoding(options.hybrid_bitmaps);
  }
  return rel;
}

size_t MasterRelation::AddGraphView(Bitmap bits) {
  COLGRAPH_CHECK(sealed_);
  COLGRAPH_CHECK_EQ(bits.size(), num_records_);
  graph_views_.emplace_back(std::move(bits));
  graph_views_.back().ChooseEncoding(options_.hybrid_bitmaps);
  return graph_views_.size() - 1;
}

size_t MasterRelation::AddAggregateView(MeasureColumn column) {
  COLGRAPH_CHECK(sealed_);
  COLGRAPH_CHECK(column.sealed());
  column.ChooseEncoding(options_.hybrid_bitmaps);
  agg_views_.push_back(std::move(column));
  return agg_views_.size() - 1;
}

const MeasureColumn& MasterRelation::FetchAggregateView(
    size_t view_index) const {
  COLGRAPH_CHECK_LT(view_index, agg_views_.size());
  ++stats_.measure_columns_fetched;
  return agg_views_[view_index];
}

StatusOr<MasterRelation> MergeRelations(
    const std::vector<const MasterRelation*>& segments,
    MasterRelationOptions options) {
  const size_t num_graph_views =
      segments.empty() ? 0 : segments.front()->num_graph_views();
  const size_t num_agg_views =
      segments.empty() ? 0 : segments.front()->num_aggregate_views();
  size_t num_records = 0;
  size_t num_columns = 0;
  for (const MasterRelation* rel : segments) {
    if (!rel->sealed() || rel->num_graph_views() != num_graph_views ||
        rel->num_aggregate_views() != num_agg_views) {
      return Status::InvalidArgument(
          "merged segments must be sealed and carry the same views");
    }
    num_records += rel->num_records();
    num_columns = std::max(num_columns, rel->num_edge_columns());
  }

  // Column at a time: each segment's presence bits land at its base,
  // values concatenate in segment order.
  const auto merge = [&](const auto& column_of) {
    std::vector<ColumnPart> parts;
    parts.reserve(segments.size());
    for (const MasterRelation* rel : segments) {
      parts.push_back(ColumnPart{column_of(*rel), rel->num_records()});
    }
    return MergeColumn(parts);
  };
  std::vector<MeasureColumn> columns;
  columns.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    COLGRAPH_ASSIGN_OR_RETURN(
        MeasureColumn column, merge([c](const MasterRelation& rel) {
          return rel.FindEdgeColumn(static_cast<EdgeId>(c));
        }));
    columns.push_back(std::move(column));
  }
  COLGRAPH_ASSIGN_OR_RETURN(
      MasterRelation merged,
      MasterRelation::FromColumns(num_records, std::move(columns), options));
  for (size_t v = 0; v < num_graph_views; ++v) {
    Bitmap bits(num_records);
    size_t base = 0;
    for (const MasterRelation* rel : segments) {
      bits.OrAt(rel->PeekGraphView(v), base);
      base += rel->num_records();
    }
    merged.AddGraphView(std::move(bits));
  }
  for (size_t v = 0; v < num_agg_views; ++v) {
    COLGRAPH_ASSIGN_OR_RETURN(
        MeasureColumn column, merge([v](const MasterRelation& rel) {
          return &rel.PeekAggregateView(v);
        }));
    merged.AddAggregateView(std::move(column));
  }
  return merged;
}

size_t MasterRelation::MemoryBytes() const {
  size_t total = 0;
  for (const auto& col : columns_) total += col.MemoryBytes();
  for (const auto& view : graph_views_) total += view.MemoryBytes();
  for (const auto& view : agg_views_) total += view.MemoryBytes();
  return total;
}

size_t MasterRelation::DiskBytes() const {
  auto bitmap_disk_bytes = [](const BitmapColumn& col) {
    return col.EncodeContainers().size() * sizeof(uint64_t);
  };
  auto column_disk_bytes = [&](const MeasureColumn& col) {
    return bitmap_disk_bytes(col.presence()) +
           col.num_values() * sizeof(double);
  };
  size_t total = 0;
  for (const auto& col : columns_) total += column_disk_bytes(col);
  for (const auto& view : graph_views_) total += bitmap_disk_bytes(view);
  for (const auto& view : agg_views_) total += column_disk_bytes(view);
  return total;
}

}  // namespace colgraph
