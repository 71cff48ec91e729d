// Binary persistence for the master relation. The on-disk layout mirrors
// the in-memory one: per column a container-codec presence bitmap followed
// by the packed (NULL-suppressed) values, so file size tracks the
// DiskBytes() accounting used by the space experiments (Figure 4).
//
// Snapshot format v5 (checksummed sections + footer + one packed raw
// extent per column, written to `<path>.tmp` and atomically renamed — see
// io_util.h and DESIGN.md §14). Reads accept v5 only; any other version,
// and any corrupt or truncated file, loads as Status::Corruption, never as
// a crash. The extent layout is what lets sealed dataset files be read
// through an mmap with per-column lazy decoding (dataset.h). Extents start
// on 8-byte boundaries, so a file is as small as its payloads; images
// written with page-aligned extents (any ascending, in-bounds directory)
// read back unchanged.
#pragma once

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

/// Emits the extent-directory section followed by the raw extents for
/// `payloads`, each at the next 8-byte boundary (relation images need no
/// padding at all). Offsets are computed against the writer's
/// current buffer position, so this must be the last content before
/// Commit(). Shared by the relation and engine snapshot writers.
void WriteExtents(io::Writer* out,
                  const std::vector<std::vector<char>>& payloads);

/// Parses the extent-directory section (whose count must equal
/// `expected_count`) and validates every entry: after the directory,
/// ascending, non-overlapping, inside the checksummed body.
StatusOr<std::vector<Extent>> ReadExtentDirectory(io::Reader* in,
                                                  uint64_t expected_count,
                                                  const std::string& path);

/// Writes a relation image from pre-encoded column payloads (one per
/// column, WriteMeasureColumn encoding). WriteRelation encodes through
/// this, and the column-streaming compaction path uses it so merged
/// columns can be encoded and dropped one at a time instead of
/// materializing a whole merged MasterRelation.
Status WriteRelationPayloads(uint64_t num_records,
                             const std::vector<std::vector<char>>& payloads,
                             const std::string& path);

/// The parsed relation header + extent directory. Produced by
/// ReadRelationLayout once the Reader's open-time validation passed.
struct RelationLayout {
  uint64_t num_records = 0;
  std::vector<Extent> extents;  // one per column, ascending offsets
};

/// Parses the two header sections from `in` (which must be positioned at
/// the first section of a relation image) and validates the extent
/// directory: entries must be in-bounds, non-overlapping, and ascending.
/// Shared by the eager reader and the lazy per-column path in dataset.cc.
StatusOr<RelationLayout> ReadRelationLayout(io::Reader* in,
                                            const std::string& path);

}  // namespace internal

}  // namespace colgraph
