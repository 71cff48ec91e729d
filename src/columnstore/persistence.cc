#include "columnstore/persistence.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "columnstore/io_util.h"
#include "util/failpoint.h"

namespace colgraph {

namespace {
// Extent directory section: u64 count + {u64 offset, u64 len} per column,
// inside a standard section frame.
constexpr size_t kExtentEntryBytes = 16;
// Extents start on 8-byte boundaries. Every payload is a whole number of
// u64 words and a relation image's sections end on one, so relation
// images carry no padding at all; engine images pad at most 7 bytes once.
constexpr uint64_t kExtentAlign = 8;

// Shared tail of ReadRelation/DecodeRelation: parses a validated Reader.
StatusOr<MasterRelation> ReadRelationFrom(io::Reader in,
                                          const std::string& path,
                                          MasterRelationOptions options) {
  internal::RelationLayout layout;
  COLGRAPH_ASSIGN_OR_RETURN(layout, internal::ReadRelationLayout(&in, path));
  return internal::ReadRelationColumns(in, layout.extents, layout.num_records,
                                       path, std::move(options));
}

}  // namespace

Status WriteRelation(const MasterRelation& relation, const std::string& path) {
  return internal::WriteRelationImage(relation, path).status();
}

StatusOr<MasterRelation> ReadRelation(const std::string& path,
                                      MasterRelationOptions options) {
  io::RemoveStaleTemp(path);
  COLGRAPH_ASSIGN_OR_RETURN(
      io::Reader in,
      io::Reader::OpenMapped(path, internal::kRelationMagic,
                             internal::kRelationVersion));
  return ReadRelationFrom(std::move(in), path, std::move(options));
}

StatusOr<MasterRelation> DecodeRelation(std::vector<char> data,
                                        const std::string& what,
                                        MasterRelationOptions options) {
  COLGRAPH_ASSIGN_OR_RETURN(
      io::Reader in,
      io::Reader::FromBytes(std::move(data), what, internal::kRelationMagic,
                            internal::kRelationVersion));
  return ReadRelationFrom(std::move(in), what, std::move(options));
}

namespace internal {

uint64_t WriteExtents(io::Writer* out, size_t count,
                      const std::function<void(size_t)>& encode) {
  // The directory is reserved at its final size, entries zero, and
  // rewritten once the extents behind it are in place.
  std::vector<uint64_t> directory(1 + 2 * count, 0);
  directory[0] = count;
  const size_t directory_pos = out->bytes_buffered();
  out->BeginSection();
  for (const uint64_t word : directory) out->WritePod(word);
  out->EndSection();
  uint64_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t offset = (out->bytes_buffered() + kExtentAlign - 1) /
                          kExtentAlign * kExtentAlign;
    out->PadTo(offset);
    encode(i);
    const size_t len = out->bytes_buffered() - offset;
    directory[1 + 2 * i] = offset;
    directory[2 + 2 * i] = len;
    total += len;
  }
  out->RewriteSection(directory_pos, directory.data(),
                      directory.size() * sizeof(uint64_t));
  return total;
}

StatusOr<std::vector<Extent>> ReadExtentDirectory(io::Reader* in,
                                                  uint64_t expected_count,
                                                  const std::string& path) {
  COLGRAPH_RETURN_NOT_OK(in->BeginSection("extent directory"));
  uint64_t count = 0;
  COLGRAPH_RETURN_NOT_OK(in->ReadPod(&count));
  if (count != expected_count) {
    return Status::Corruption(
        "extent directory count does not match the header in " + path);
  }
  if (count > in->remaining() / kExtentEntryBytes) {
    return Status::Corruption("extent directory larger than its section in " +
                              path);
  }
  std::vector<Extent> extents(static_cast<size_t>(count));
  for (Extent& e : extents) {
    COLGRAPH_RETURN_NOT_OK(in->ReadPod(&e.offset));
    COLGRAPH_RETURN_NOT_OK(in->ReadPod(&e.len));
  }
  COLGRAPH_RETURN_NOT_OK(in->EndSection("extent directory"));

  // Extents must live after the directory, ascend without overlap, and
  // stay inside the checksummed body.
  uint64_t prev_end = in->position();
  for (const Extent& e : extents) {
    if (e.offset < prev_end || e.offset > in->body_size() ||
        e.len > in->body_size() - e.offset) {
      return Status::Corruption("extent directory out of bounds in " + path);
    }
    prev_end = e.offset + e.len;
  }
  return extents;
}

void WriteRelationHeader(io::Writer* out, const MasterRelation& relation) {
  out->BeginSection();
  out->WritePod(static_cast<uint64_t>(relation.num_records()));
  out->WritePod(static_cast<uint64_t>(relation.num_edge_columns()));
  out->EndSection();
}

StatusOr<RelationHeader> ReadRelationHeader(io::Reader* in,
                                            const std::string& path) {
  RelationHeader header;
  COLGRAPH_RETURN_NOT_OK(in->BeginSection("relation header"));
  if (!in->ReadPod(&header.num_records).ok() ||
      !in->ReadPod(&header.num_columns).ok()) {
    return Status::Corruption("truncated relation header in " + path);
  }
  COLGRAPH_RETURN_NOT_OK(in->EndSection("relation header"));
  COLGRAPH_RETURN_NOT_OK(io::ValidateRecordCount(header.num_records, path));
  return header;
}

StatusOr<MeasureColumn> ReadColumnExtent(const io::Reader& in,
                                         const Extent& extent,
                                         uint64_t num_records,
                                         const std::string& path) {
  COLGRAPH_ASSIGN_OR_RETURN(io::Reader sub,
                            in.AtExtent(extent.offset, extent.len));
  COLGRAPH_ASSIGN_OR_RETURN(MeasureColumn col,
                            sub.ReadMeasureColumn(num_records));
  if (sub.remaining() != 0) {
    return Status::Corruption("trailing bytes in column extent in " + path);
  }
  return col;
}

StatusOr<MasterRelation> ReadRelationColumns(const io::Reader& in,
                                             std::span<const Extent> extents,
                                             uint64_t num_records,
                                             const std::string& path,
                                             MasterRelationOptions options) {
  std::vector<MeasureColumn> columns;
  columns.reserve(extents.size());
  for (const Extent& e : extents) {
    COLGRAPH_ASSIGN_OR_RETURN(MeasureColumn col,
                              ReadColumnExtent(in, e, num_records, path));
    columns.push_back(std::move(col));
  }
  return MasterRelation::FromColumns(static_cast<size_t>(num_records),
                                     std::move(columns), std::move(options));
}

StatusOr<uint64_t> WriteRelationImage(const MasterRelation& relation,
                                      const std::string& path) {
  if (!relation.sealed()) {
    return Status::InvalidArgument("can only persist a sealed relation");
  }
  COLGRAPH_RETURN_NOT_OK(io::ValidateRecordCount(relation.num_records(), path));
  io::Writer out(path, kRelationMagic, kRelationVersion);
  WriteRelationHeader(&out, relation);
  COLGRAPH_FAILPOINT("persist:after_header");
  const uint64_t extent_bytes =
      WriteExtents(&out, relation.num_edge_columns(), [&](size_t c) {
        out.WriteMeasureColumn(
            relation.PeekMeasureColumn(static_cast<EdgeId>(c)));
      });
  COLGRAPH_RETURN_NOT_OK(out.Commit());
  return extent_bytes;
}

StatusOr<RelationLayout> ReadRelationLayout(io::Reader* in,
                                            const std::string& path) {
  RelationLayout layout;
  COLGRAPH_ASSIGN_OR_RETURN(const RelationHeader header,
                            ReadRelationHeader(in, path));
  layout.num_records = header.num_records;
  COLGRAPH_ASSIGN_OR_RETURN(layout.extents,
                            ReadExtentDirectory(in, header.num_columns, path));
  return layout;
}

}  // namespace internal

}  // namespace colgraph
