// Column primitives of the master relation (Section 4): a bitmap column
// b_i marks the records containing edge e_i; a measure column m_i stores
// the edge's measure for exactly those records. Measures are stored
// NULL-suppressed (packed values + presence bitmap + rank directory), which
// is what gives the column store its density-independent footprint
// (Figure 4).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/hybrid_bitmap.h"
#include "util/status.h"

namespace colgraph {

/// \brief A bitmap column with O(1) rank support.
///
/// Rank(r) = number of set bits strictly before position r; it is the index
/// of record r's value in the packed value array of the owning measure
/// column. The rank directory is built by Seal() after bulk ingest.
class BitmapColumn {
 public:
  BitmapColumn() = default;
  explicit BitmapColumn(size_t num_records) : bits_(num_records) {}
  explicit BitmapColumn(Bitmap bits) : bits_(std::move(bits)) { Seal(); }

  const Bitmap& bits() const { return bits_; }
  Bitmap& mutable_bits() { return bits_; }

  void Resize(size_t num_records) { bits_.Resize(num_records); }
  void Set(size_t record) { bits_.Set(record); }
  bool Test(size_t record) const { return bits_.Test(record); }

  /// Builds the rank directory; must be called after the last mutation.
  void Seal();
  bool sealed() const { return sealed_; }

  /// Density threshold for the hybrid encoding: a sealed column whose
  /// cardinality is at most size/256 (<= 1/256 of records set) gets a
  /// hybrid-container sidecar; denser columns stay word-parallel. The
  /// sidecar exists purely to accelerate the engine's conjunction loop
  /// (the plain words are kept either way), so the cutoff sits where
  /// container-at-a-time AND beats word-at-a-time AND: measured break-even
  /// is ~1/250 density on equal-density 4-way ANDs (bench_fig3c_density
  /// supplement — 0.9x at 1/250, 1.6x at 1/500, 2.7x at 1/1000), and
  /// cost-ordered mixed-density chains only shift it sparser-favorable.
  static constexpr size_t kHybridDensityDivisor = 256;

  /// Picks the column's compressed encoding from its density statistics.
  /// Requires sealed(). When `hybrid_enabled` and the column is at or
  /// below the density threshold, builds a HybridBitmap sidecar that the
  /// query engine's conjunction loop consumes; otherwise drops any
  /// existing one. Deterministic for given contents.
  void ChooseEncoding(bool hybrid_enabled);

  /// The hybrid encoding, or nullptr when the column is plain-encoded.
  const HybridBitmap* hybrid() const { return hybrid_.get(); }

  /// The column's on-disk encoding: the container codec's serialized
  /// words (HybridBitmap::ToRaw). Taken from the hybrid sidecar when the
  /// column has one and encoded on the fly otherwise; construction is
  /// deterministic, so both give the same words.
  std::vector<uint64_t> EncodeContainers() const;

  /// Number of set bits strictly before `pos`. Requires sealed().
  size_t Rank(size_t pos) const;

  /// The rank directory: entry w is the number of set bits in words
  /// [0, w). One entry per word of bits(). Requires sealed().
  const std::vector<uint32_t>& rank_directory() const { return rank_; }

  /// Set-bit count; O(1) after Seal() (cached), O(words) before.
  size_t Count() const { return sealed_ ? count_ : bits_.Count(); }
  size_t size() const { return bits_.size(); }

  /// In-memory footprint (bits + rank directory).
  size_t MemoryBytes() const {
    return bits_.MemoryBytes() + rank_.size() * sizeof(uint32_t);
  }

 private:
  Bitmap bits_;
  std::vector<uint32_t> rank_;  // cumulative popcount before each word
  // Hybrid sidecar (shared_ptr keeps columns cheaply copyable); null for
  // plain-encoded columns.
  std::shared_ptr<const HybridBitmap> hybrid_;
  size_t count_ = 0;  // cached cardinality (valid when sealed)
  bool sealed_ = false;
};

/// \brief A NULL-suppressed measure column: packed non-NULL values plus the
/// presence bitmap. The presence bitmap doubles as the edge's bitmap index
/// b_i — physically one structure, logically two columns, exactly as in
/// Table 1 where b_i = NOT NULL(m_i).
class MeasureColumn {
 public:
  MeasureColumn() = default;

  /// Appends a value for `record`. Records must arrive in increasing order
  /// (bulk ingest); Seal() freezes the column. The presence bits grow to
  /// the newest record as it arrives.
  [[nodiscard]] Status Append(size_t record, double value);

  /// Append without its checks, for a caller that guarantees both (the
  /// master relation's ingest: its record ids ascend and an unsealed
  /// relation has only unsealed columns). DCHECKed.
  void AppendUnchecked(size_t record, double value) {
    COLGRAPH_DCHECK(!sealed());
    COLGRAPH_DCHECK_GE(record, presence_.size());
    presence_.Resize(record + 1);
    presence_.Set(record);
    values_.push_back(value);
  }

  /// Reconstructs a sealed column from its stored parts: the presence
  /// bitmap and the packed values (one per set bit, in record order).
  static StatusOr<MeasureColumn> FromParts(Bitmap presence,
                                           std::vector<double> values);

  /// Grows the presence domain to the final record count and builds rank.
  void Seal(size_t num_records);
  bool sealed() const { return presence_.sealed(); }

  /// Applies the seal-time encoding choice to the presence bitmap (see
  /// BitmapColumn::ChooseEncoding). Requires sealed().
  void ChooseEncoding(bool hybrid_enabled) {
    presence_.ChooseEncoding(hybrid_enabled);
  }

  /// Value of `record`, or nullopt when NULL. Requires sealed(). For point
  /// lookups; a fetch over a list of records uses Gather.
  std::optional<double> Get(size_t record) const;

  /// Writes the value of record ids[i] - base to out[i], for i in [0, n):
  /// the stored value bit for bit, or a quiet NaN where the record is NULL.
  /// `ids` ascend and each ids[i] - base is a record of this column
  /// (checked at both ends). One presence word and one rank entry per id,
  /// and a value only where the record has one (simd::GatherIds). Returns
  /// the number of NULLs written. Requires sealed().
  size_t Gather(const uint64_t* ids, size_t n, uint64_t base,
                double* out) const;

  /// Packed value by rank (for scans that already know the rank).
  double ValueAtRank(size_t rank) const { return values_[rank]; }

  const BitmapColumn& presence() const { return presence_; }
  size_t num_values() const { return values_.size(); }
  /// The packed values, one per presence bit, in rank (= record) order.
  const std::vector<double>& values() const { return values_; }

  size_t MemoryBytes() const {
    return presence_.MemoryBytes() + values_.size() * sizeof(double);
  }

 private:
  std::vector<double> values_;
  BitmapColumn presence_;
};

/// One dataset's share of a column merge: the dataset's column, or
/// nullptr when the dataset never grew it, and the dataset's record count.
struct ColumnPart {
  const MeasureColumn* column = nullptr;
  size_t num_records = 0;
};

/// \brief The column merge behind MergeRelations (master_relation.h), the
/// one relation merge every compaction runs, for edge columns and
/// aggregate views alike. Lays `parts` end to end: for each dataset in
/// order, its presence bits are ORed in at its base (the record count of
/// the parts before it) and its values are appended. Bases ascend, so
/// every value keeps its presence rank. The result is sealed and carries
/// no hybrid sidecar; MasterRelation::FromColumns (or AddAggregateView)
/// makes that choice.
StatusOr<MeasureColumn> MergeColumn(const std::vector<ColumnPart>& parts);

}  // namespace colgraph
