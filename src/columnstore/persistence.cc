#include "columnstore/persistence.h"

#include <cstdint>
#include <vector>

#include "columnstore/io_util.h"
#include "util/failpoint.h"

namespace colgraph {

namespace {
// Extent directory section: u64 count + {u64 offset, u64 len} per column,
// inside a standard section frame.
constexpr size_t kExtentEntryBytes = 16;
constexpr size_t kSectionFrameBytes = 12;  // u64 len + u32 crc
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
  std::vector<MeasureColumn> columns;
  columns.reserve(layout.extents.size());
  for (const internal::Extent& e : layout.extents) {
    COLGRAPH_ASSIGN_OR_RETURN(io::Reader sub, in.AtExtent(e.offset, e.len));
    COLGRAPH_ASSIGN_OR_RETURN(MeasureColumn col,
                              sub.ReadMeasureColumn(layout.num_records));
    if (sub.remaining() != 0) {
      return Status::Corruption("trailing bytes in column extent in " + path);
    }
    columns.push_back(std::move(col));
  }
  return MasterRelation::FromColumns(static_cast<size_t>(layout.num_records),
                                     std::move(columns), options);
}

}  // namespace

Status WriteRelation(const MasterRelation& relation, const std::string& path) {
  if (!relation.sealed()) {
    return Status::InvalidArgument("can only persist a sealed relation");
  }
  // Pre-encode each column, then lay the payloads out as packed extents
  // behind a directory so readers can decode columns lazily.
  std::vector<std::vector<char>> payloads;
  payloads.reserve(relation.num_edge_columns());
  for (EdgeId id = 0; id < relation.num_edge_columns(); ++id) {
    io::Writer enc;
    enc.WriteMeasureColumn(relation.PeekMeasureColumn(id));
    payloads.push_back(enc.TakePayload());
  }
  return internal::WriteRelationPayloads(relation.num_records(), payloads,
                                         path);
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

void WriteExtents(io::Writer* out,
                  const std::vector<std::vector<char>>& payloads) {
  const size_t dir_bytes = kSectionFrameBytes + sizeof(uint64_t) +
                           payloads.size() * kExtentEntryBytes;
  uint64_t cursor = out->bytes_buffered() + dir_bytes;
  std::vector<Extent> extents(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    extents[i].offset =
        (cursor + kExtentAlign - 1) / kExtentAlign * kExtentAlign;
    extents[i].len = payloads[i].size();
    cursor = extents[i].offset + extents[i].len;
  }
  out->BeginSection();
  out->WritePod(static_cast<uint64_t>(payloads.size()));
  for (const Extent& e : extents) {
    out->WritePod(e.offset);
    out->WritePod(e.len);
  }
  out->EndSection();
  for (size_t i = 0; i < payloads.size(); ++i) {
    out->PadTo(static_cast<size_t>(extents[i].offset));
    out->AppendRaw(payloads[i].data(), payloads[i].size());
  }
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

Status WriteRelationPayloads(uint64_t num_records,
                             const std::vector<std::vector<char>>& payloads,
                             const std::string& path) {
  COLGRAPH_RETURN_NOT_OK(io::ValidateRecordCount(num_records, path));
  io::Writer out(path, kRelationMagic, kRelationVersion);
  out.BeginSection();
  out.WritePod(num_records);
  out.WritePod(static_cast<uint64_t>(payloads.size()));
  out.EndSection();
  COLGRAPH_FAILPOINT("persist:after_header");
  WriteExtents(&out, payloads);
  return out.Commit();
}

StatusOr<RelationLayout> ReadRelationLayout(io::Reader* in,
                                            const std::string& path) {
  RelationLayout layout;
  uint64_t num_columns = 0;
  COLGRAPH_RETURN_NOT_OK(in->BeginSection("relation header"));
  if (!in->ReadPod(&layout.num_records).ok() ||
      !in->ReadPod(&num_columns).ok()) {
    return Status::Corruption("truncated header in " + path);
  }
  COLGRAPH_RETURN_NOT_OK(in->EndSection("relation header"));
  COLGRAPH_RETURN_NOT_OK(io::ValidateRecordCount(layout.num_records, path));
  COLGRAPH_ASSIGN_OR_RETURN(layout.extents,
                            ReadExtentDirectory(in, num_columns, path));
  return layout;
}

}  // namespace internal

}  // namespace colgraph
