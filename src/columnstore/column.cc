#include "columnstore/column.h"

#include <algorithm>

#include "bitmap/simd.h"
#include "util/check.h"

namespace colgraph {

void BitmapColumn::Seal() {
  const auto& words = bits_.words();
  rank_.resize(words.size());
  uint32_t cum = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    rank_[i] = cum;
    cum += static_cast<uint32_t>(__builtin_popcountll(words[i]));
  }
  count_ = cum;
  sealed_ = true;
}

void BitmapColumn::ChooseEncoding(bool hybrid_enabled) {
  COLGRAPH_DCHECK(sealed_);
  if (hybrid_enabled && count_ * kHybridDensityDivisor <= bits_.size()) {
    hybrid_ = std::make_shared<const HybridBitmap>(
        HybridBitmap::FromBitmap(bits_));
  } else {
    hybrid_.reset();
  }
}

std::vector<uint64_t> BitmapColumn::EncodeContainers() const {
  if (hybrid_ != nullptr) return hybrid_->ToRaw();
  return HybridBitmap::FromBitmap(bits_).ToRaw();
}

size_t BitmapColumn::Rank(size_t pos) const {
  COLGRAPH_DCHECK(sealed_);
  COLGRAPH_DCHECK_LE(pos, bits_.size());
  const size_t word = pos / Bitmap::kWordBits;
  const size_t bit = pos % Bitmap::kWordBits;
  if (word >= bits_.words().size()) return rank_.empty() ? 0 : Count();
  size_t r = rank_[word];
  if (bit != 0) {
    const uint64_t mask = (uint64_t{1} << bit) - 1;
    r += static_cast<size_t>(__builtin_popcountll(bits_.words()[word] & mask));
  }
  return r;
}

Status MeasureColumn::Append(size_t record, double value) {
  if (!pending_records_.empty() && record <= pending_records_.back()) {
    return Status::InvalidArgument(
        "MeasureColumn::Append requires strictly increasing record ids");
  }
  if (presence_.sealed()) {
    return Status::InvalidArgument("cannot append to a sealed column");
  }
  pending_records_.push_back(record);
  values_.push_back(value);
  return Status::OK();
}

StatusOr<MeasureColumn> MeasureColumn::FromParts(Bitmap presence,
                                                 std::vector<double> values) {
  if (presence.Count() != values.size()) {
    return Status::Corruption(
        "presence cardinality does not match packed value count");
  }
  MeasureColumn col;
  col.values_ = std::move(values);
  col.presence_ = BitmapColumn(std::move(presence));
  return col;
}

void MeasureColumn::Seal(size_t num_records) {
  presence_.Resize(num_records);
  for (uint64_t r : pending_records_) presence_.Set(r);
  pending_records_.clear();
  pending_records_.shrink_to_fit();
  presence_.Seal();
}

std::optional<double> MeasureColumn::Get(size_t record) const {
  if (!presence_.Test(record)) return std::nullopt;
  return values_[presence_.Rank(record)];
}

size_t MeasureColumn::Gather(const uint64_t* ids, size_t n, uint64_t base,
                             double* out) const {
  COLGRAPH_DCHECK(sealed());
  if (n == 0) return 0;
  COLGRAPH_CHECK(ids[0] >= base && ids[n - 1] - base < presence_.size())
      << "gathered ids lie outside the column's records";
  COLGRAPH_DCHECK(std::is_sorted(ids, ids + n));
  return simd::GatherIds(ids, n, base, presence_.bits().words().data(),
                         presence_.rank_directory().data(), values_.data(),
                         out);
}

StatusOr<MeasureColumn> MergeColumn(const std::vector<ColumnPart>& parts) {
  size_t total = 0;
  size_t num_values = 0;
  for (const ColumnPart& part : parts) {
    total += part.num_records;
    if (part.column != nullptr) num_values += part.column->num_values();
  }
  Bitmap presence(total);
  std::vector<double> values;
  values.reserve(num_values);
  size_t base = 0;
  for (const ColumnPart& part : parts) {
    if (part.column != nullptr) {
      presence.OrAt(part.column->presence().bits(), base);
      const std::vector<double>& part_values = part.column->values();
      values.insert(values.end(), part_values.begin(), part_values.end());
    }
    base += part.num_records;
  }
  return MeasureColumn::FromParts(std::move(presence), std::move(values));
}

}  // namespace colgraph
