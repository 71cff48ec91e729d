#include "core/engine_io.h"

#include <span>
#include <utility>

#include "columnstore/io_util.h"
#include "columnstore/persistence.h"
#include "util/failpoint.h"

namespace colgraph {

namespace {

constexpr uint32_t kMagic = 0x4347454E;  // "CGEN"
// Base-column and view payloads sit in packed extents behind an extent
// directory (the mmap layout, DESIGN.md §14).
constexpr uint32_t kVersion = 5;

void WriteNodeRef(io::Writer& out, const NodeRef& n) {
  out.WritePod(n.base);
  out.WritePod(n.occurrence);
}

Status ReadNodeRef(io::Reader& in, NodeRef* n) {
  COLGRAPH_RETURN_NOT_OK(in.ReadPod(&n->base));
  return in.ReadPod(&n->occurrence);
}

// A materialized view definition must only name columns that exist, or
// query-time fetches would walk off the relation.
Status ValidateViewElements(const std::vector<EdgeId>& ids,
                            uint64_t num_columns, const std::string& path) {
  // A definition longer than the column universe cannot be valid, and
  // rejecting it up front keeps the per-element loop below proportional
  // to real data, not to a corrupt length claim (ReadVec already bounds
  // the allocation by the section/extent size).
  if (ids.size() > num_columns) {
    return Status::Corruption("view definition larger than the column "
                              "universe in " + path);
  }
  for (const EdgeId id : ids) {
    if (id >= num_columns) {
      return Status::Corruption("view references unknown column in " + path);
    }
  }
  return Status::OK();
}

// Parsed view definitions from the def sections, decoded before the
// extents they point into.
struct GraphViewEntry {
  GraphViewDef def;
  uint64_t index = 0;
};
struct AggViewEntry {
  AggViewDef def;
  uint64_t index = 0;
};

}  // namespace

Status WriteEngine(const ColGraphEngine& engine, const std::string& path) {
  const MasterRelation& relation = engine.relation();
  if (!relation.sealed()) {
    return Status::InvalidArgument("can only persist a sealed engine");
  }
  if (!engine.tails().empty()) {
    return Status::InvalidArgument(
        "cannot persist an engine with tail datasets attached; Compact() "
        "before persisting");
  }
  io::Writer out(path, kMagic, kVersion);

  // Options + edge catalog: edges in id order (ids are dense, so position
  // == id).
  out.BeginSection();
  out.WritePod(
      static_cast<uint64_t>(engine.options().relation.partition_width));
  out.WritePod(static_cast<uint64_t>(engine.options().view_min_support));
  const EdgeCatalog& catalog = engine.catalog();
  out.WritePod(static_cast<uint64_t>(catalog.size()));
  for (EdgeId id = 0; id < catalog.size(); ++id) {
    WriteNodeRef(out, catalog.edge(id).from);
    WriteNodeRef(out, catalog.edge(id).to);
  }
  out.EndSection();
  COLGRAPH_FAILPOINT("persist:after_header");

  const auto& graph_views = engine.views().graph_views();
  const auto& agg_views = engine.views().agg_views();

  // Definitions stay in checksummed sections; the bulky column and
  // view payloads move to packed extents. Extent order: base
  // columns, then graph-view bitmaps, then agg-view columns — the same
  // order the defs are written in.
  internal::WriteRelationHeader(&out, relation);

  out.BeginSection();
  out.WritePod(static_cast<uint64_t>(graph_views.size()));
  for (const auto& [def, index] : graph_views) {
    out.WriteVec(def.edges);
    out.WritePod(static_cast<uint64_t>(index));
  }
  out.EndSection();

  out.BeginSection();
  out.WritePod(static_cast<uint64_t>(agg_views.size()));
  for (const auto& [def, index] : agg_views) {
    out.WritePod(static_cast<uint8_t>(def.fn));
    out.WriteVec(def.elements);
    out.WritePod(static_cast<uint64_t>(index));
  }
  out.EndSection();

  const size_t num_columns = relation.num_edge_columns();
  internal::WriteExtents(
      &out, num_columns + graph_views.size() + agg_views.size(),
      [&](size_t i) {
        if (i < num_columns) {
          out.WriteMeasureColumn(
              relation.PeekMeasureColumn(static_cast<EdgeId>(i)));
        } else if (i - num_columns < graph_views.size()) {
          out.WriteBitmap(relation.PeekGraphViewColumn(
              graph_views[i - num_columns].second));
        } else {
          out.WriteMeasureColumn(relation.PeekAggregateView(
              agg_views[i - num_columns - graph_views.size()].second));
        }
      });
  return out.Commit();
}

namespace {

// Everything after the options+catalog section: def sections, then the
// extent directory, then per-extent decoding. Each extent must be consumed
// exactly (trailing bytes in an extent are corruption, same as a section
// size mismatch).
StatusOr<ColGraphEngine> ReadRelationAndViews(io::Reader& in, const std::string& path,
                                      EngineOptions options,
                                      EdgeCatalog catalog) {
  COLGRAPH_ASSIGN_OR_RETURN(const internal::RelationHeader header,
                            internal::ReadRelationHeader(&in, path));
  const uint64_t num_records = header.num_records;
  const uint64_t num_columns = header.num_columns;

  COLGRAPH_RETURN_NOT_OK(in.BeginSection("graph view defs"));
  uint64_t num_graph_views = 0;
  if (!in.ReadPod(&num_graph_views).ok()) {
    return Status::Corruption("truncated graph-view section in " + path);
  }
  // Each def costs >= 16 bytes (u64 edge count + u64 index).
  if (num_graph_views > in.remaining() / 16) {
    return Status::Corruption("implausible graph-view count in " + path);
  }
  std::vector<GraphViewEntry> graph_defs(
      static_cast<size_t>(num_graph_views));
  for (GraphViewEntry& entry : graph_defs) {
    if (!in.ReadVec(&entry.def.edges).ok() || !in.ReadPod(&entry.index).ok()) {
      return Status::Corruption("truncated graph view in " + path);
    }
    COLGRAPH_RETURN_NOT_OK(
        ValidateViewElements(entry.def.edges, num_columns, path));
  }
  COLGRAPH_RETURN_NOT_OK(in.EndSection("graph view defs"));

  COLGRAPH_RETURN_NOT_OK(in.BeginSection("aggregate view defs"));
  uint64_t num_agg_views = 0;
  if (!in.ReadPod(&num_agg_views).ok()) {
    return Status::Corruption("truncated agg-view section in " + path);
  }
  // Each def costs >= 17 bytes (u8 fn + u64 element count + u64 index).
  if (num_agg_views > in.remaining() / 17) {
    return Status::Corruption("implausible agg-view count in " + path);
  }
  std::vector<AggViewEntry> agg_defs(static_cast<size_t>(num_agg_views));
  for (AggViewEntry& entry : agg_defs) {
    uint8_t fn = 0;
    if (!in.ReadPod(&fn).ok() || !in.ReadVec(&entry.def.elements).ok() ||
        !in.ReadPod(&entry.index).ok()) {
      return Status::Corruption("truncated aggregate view in " + path);
    }
    if (fn > static_cast<uint8_t>(AggFn::kAvg)) {
      return Status::Corruption("unknown aggregate function in " + path);
    }
    entry.def.fn = static_cast<AggFn>(fn);
    COLGRAPH_RETURN_NOT_OK(
        ValidateViewElements(entry.def.elements, num_columns, path));
  }
  COLGRAPH_RETURN_NOT_OK(in.EndSection("aggregate view defs"));

  const uint64_t total_extents =
      num_columns + num_graph_views + num_agg_views;
  std::vector<internal::Extent> extents;
  COLGRAPH_ASSIGN_OR_RETURN(
      extents, internal::ReadExtentDirectory(&in, total_extents, path));

  // The sum above wraps only for a column count no directory can hold.
  if (num_columns > extents.size()) {
    return Status::Corruption("implausible column count in " + path);
  }
  size_t next = static_cast<size_t>(num_columns);
  COLGRAPH_ASSIGN_OR_RETURN(
      MasterRelation relation,
      internal::ReadRelationColumns(
          in, std::span<const internal::Extent>(extents).first(next),
          num_records, path, options.relation));

  ViewCatalog views;
  for (GraphViewEntry& entry : graph_defs) {
    const internal::Extent& e = extents[next++];
    COLGRAPH_ASSIGN_OR_RETURN(io::Reader sub, in.AtExtent(e.offset, e.len));
    COLGRAPH_ASSIGN_OR_RETURN(Bitmap bits, sub.ReadBitmap(num_records));
    if (sub.remaining() != 0) {
      return Status::Corruption("trailing bytes in view extent in " + path);
    }
    const size_t actual = relation.AddGraphView(std::move(bits));
    if (actual != entry.index) {
      return Status::Corruption("graph-view indexes not dense in " + path);
    }
    views.AddGraphView(std::move(entry.def), actual);
  }
  for (AggViewEntry& entry : agg_defs) {
    COLGRAPH_ASSIGN_OR_RETURN(
        MeasureColumn col,
        internal::ReadColumnExtent(in, extents[next++], num_records, path));
    const size_t actual = relation.AddAggregateView(std::move(col));
    if (actual != entry.index) {
      return Status::Corruption("agg-view indexes not dense in " + path);
    }
    views.AddAggView(std::move(entry.def), actual);
  }

  return ColGraphEngine::FromParts(options, std::move(catalog),
                                   std::move(relation), std::move(views));
}

}  // namespace

StatusOr<ColGraphEngine> ReadEngine(const std::string& path) {
  io::RemoveStaleTemp(path);
  COLGRAPH_ASSIGN_OR_RETURN(io::Reader in,
                            io::Reader::OpenMapped(path, kMagic, kVersion));

  COLGRAPH_RETURN_NOT_OK(in.BeginSection("options+catalog"));
  EngineOptions options;
  uint64_t partition_width = 0, min_support = 0;
  if (!in.ReadPod(&partition_width).ok() || !in.ReadPod(&min_support).ok()) {
    return Status::Corruption("truncated options in " + path);
  }
  options.relation.partition_width = static_cast<size_t>(partition_width);
  options.view_min_support = static_cast<size_t>(min_support);

  uint64_t catalog_size = 0;
  if (!in.ReadPod(&catalog_size).ok()) {
    return Status::Corruption("truncated catalog in " + path);
  }
  // Each catalog entry is 16 bytes on disk; a larger claim cannot be real
  // and must not drive the loop below.
  if (catalog_size > in.remaining() / 16) {
    return Status::Corruption("implausible catalog size in " + path);
  }
  EdgeCatalog catalog;
  for (uint64_t i = 0; i < catalog_size; ++i) {
    Edge e;
    if (!ReadNodeRef(in, &e.from).ok() || !ReadNodeRef(in, &e.to).ok()) {
      return Status::Corruption("truncated catalog entry in " + path);
    }
    if (catalog.GetOrAssign(e) != i) {
      return Status::Corruption("catalog ids are not dense in " + path);
    }
  }
  COLGRAPH_RETURN_NOT_OK(in.EndSection("options+catalog"));

  return ReadRelationAndViews(in, path, std::move(options),
                              std::move(catalog));
}

}  // namespace colgraph
