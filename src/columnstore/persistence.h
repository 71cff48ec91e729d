// Binary persistence for the master relation. The on-disk layout mirrors
// the in-memory one: per column a container-codec presence bitmap followed
// by the packed (NULL-suppressed) values, so file size tracks the
// DiskBytes() accounting used by the space experiments (Figure 4).
//
// Snapshot format v5 (checksummed sections + footer + one packed raw
// extent per column, written to `<path>.tmp` and atomically renamed — see
// io_util.h and DESIGN.md §14). Reads accept v5 only; any other version,
// and any corrupt or truncated file, loads as Status::Corruption, never as
// a crash. The extent directory locates every column without parsing the
// others, and the writer encodes each column straight into its extent.
// Extents start on 8-byte boundaries, so a file is as small as its
// payloads; images written with page-aligned extents (any ascending,
// in-bounds directory) read back unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "columnstore/io_util.h"
#include "columnstore/master_relation.h"
#include "util/status.h"

namespace colgraph {

/// Writes a sealed relation (records only, not views) to `path`.
[[nodiscard]] Status WriteRelation(const MasterRelation& relation, const std::string& path);

/// Reads a relation previously written by WriteRelation. The result is
/// sealed and ready for queries. Sweeps a stale `<path>.tmp` left by a
/// crashed write before opening.
[[nodiscard]] StatusOr<MasterRelation> ReadRelation(const std::string& path,
                                      MasterRelationOptions options = {});

/// In-memory variant of ReadRelation: decodes a snapshot image from
/// `data` without touching the filesystem; `what` names the buffer in
/// error messages. Same validation as ReadRelation — this is the entry
/// point the snapshot fuzz harness drives.
[[nodiscard]] StatusOr<MasterRelation> DecodeRelation(
    std::vector<char> data, const std::string& what,
    MasterRelationOptions options = {});

namespace internal {

/// Codec magic ("CGRL") and the one version relation images are written
/// in and read back at.
inline constexpr uint32_t kRelationMagic = 0x4347524C;
inline constexpr uint32_t kRelationVersion = 5;

/// One column extent of a relation or engine image: absolute file offset
/// plus exact payload length (padding between extents belongs to neither).
struct Extent {
  uint64_t offset = 0;
  uint64_t len = 0;
};

/// Lays out `count` column extents behind their directory section, each
/// at the next 8-byte boundary: `encode(i)` writes extent i straight into
/// `out`'s body, and the directory and its CRC are filled in once every
/// extent's offset and length are known. Must be the last content before
/// Commit(). Returns the extents' total length. Shared by the relation and
/// engine snapshot writers.
uint64_t WriteExtents(io::Writer* out, size_t count,
                      const std::function<void(size_t)>& encode);

/// Parses the extent-directory section (whose count must equal
/// `expected_count`) and validates every entry: after the directory,
/// ascending, non-overlapping, inside the checksummed body.
StatusOr<std::vector<Extent>> ReadExtentDirectory(io::Reader* in,
                                                  uint64_t expected_count,
                                                  const std::string& path);

/// WriteRelation, returning the total length of the column extents it
/// wrote (the bytes a store's compaction counts as merged).
StatusOr<uint64_t> WriteRelationImage(const MasterRelation& relation,
                                      const std::string& path);

/// The relation header section, the first section of a relation image
/// and the second of an engine image.
struct RelationHeader {
  uint64_t num_records = 0;
  uint64_t num_columns = 0;
};

/// Writes `relation`'s header section: its record and column counts.
/// Shared by the relation and engine image writers.
void WriteRelationHeader(io::Writer* out, const MasterRelation& relation);

/// Reads the section WriteRelationHeader wrote and validates the record
/// count. Shared by the relation and engine image readers.
StatusOr<RelationHeader> ReadRelationHeader(io::Reader* in,
                                            const std::string& path);

/// Decodes the measure column in `extent` of `in` (a base column or an
/// aggregate view): its presence bitmap must span `num_records` records
/// and the extent must be consumed exactly.
StatusOr<MeasureColumn> ReadColumnExtent(const io::Reader& in,
                                         const Extent& extent,
                                         uint64_t num_records,
                                         const std::string& path);

/// Decodes one base column per extent (ReadColumnExtent) and builds the
/// sealed relation they form. Shared by the relation and engine readers.
StatusOr<MasterRelation> ReadRelationColumns(const io::Reader& in,
                                             std::span<const Extent> extents,
                                             uint64_t num_records,
                                             const std::string& path,
                                             MasterRelationOptions options);

/// The parsed relation header + extent directory. Produced by
/// ReadRelationLayout once the Reader's open-time validation passed.
struct RelationLayout {
  uint64_t num_records = 0;
  std::vector<Extent> extents;  // one per column, ascending offsets
};

/// Parses the header section and the extent directory from `in` (which
/// must be positioned at the first section of a relation image) and
/// validates the directory: entries must be in-bounds, non-overlapping,
/// and ascending. Shared by the relation reader and the layout tests.
StatusOr<RelationLayout> ReadRelationLayout(io::Reader* in,
                                            const std::string& path);

}  // namespace internal

}  // namespace colgraph
