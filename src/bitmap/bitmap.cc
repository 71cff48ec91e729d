#include "bitmap/bitmap.h"

#include "bitmap/simd.h"
#include "util/check.h"

namespace colgraph {

void Bitmap::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize(WordCount(num_bits), 0);
  ClearTail();
}

void Bitmap::Set(size_t pos) {
  COLGRAPH_DCHECK_LT(pos, num_bits_);
  words_[pos / kWordBits] |= (uint64_t{1} << (pos % kWordBits));
}

void Bitmap::Clear(size_t pos) {
  COLGRAPH_DCHECK_LT(pos, num_bits_);
  words_[pos / kWordBits] &= ~(uint64_t{1} << (pos % kWordBits));
}

bool Bitmap::Test(size_t pos) const {
  COLGRAPH_DCHECK_LT(pos, num_bits_);
  return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1;
}

void Bitmap::Reset() {
  for (auto& w : words_) w = 0;
}

void Bitmap::Fill() {
  for (auto& w : words_) w = ~uint64_t{0};
  ClearTail();
}

size_t Bitmap::Count() const {
  return simd::PopcountWords(words_.data(), words_.size());
}

bool Bitmap::None() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

void Bitmap::And(const Bitmap& other) {
  COLGRAPH_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void Bitmap::Or(const Bitmap& other) {
  COLGRAPH_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitmap::AndNot(const Bitmap& other) {
  COLGRAPH_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

void Bitmap::Not() {
  for (auto& w : words_) w = ~w;
  ClearTail();
}

void Bitmap::OrAt(const Bitmap& src, size_t offset) {
  COLGRAPH_CHECK(offset <= num_bits_ && src.num_bits_ <= num_bits_ - offset)
      << "OrAt source exceeds the destination universe";
  if (src.num_bits_ == 0) return;
  const size_t word0 = offset / kWordBits;
  const size_t shift = offset % kWordBits;
  const size_t n = src.words_.size();
  if (shift == 0) {
    for (size_t i = 0; i < n; ++i) words_[word0 + i] |= src.words_[i];
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = src.words_[i];
    words_[word0 + i] |= w << shift;
    // The spilled high part lands one word up; the size check above
    // guarantees the slot exists whenever the spill is nonzero (the
    // source's tail padding beyond num_bits_ is zero by invariant).
    const uint64_t spill = w >> (kWordBits - shift);
    if (spill != 0) words_[word0 + i + 1] |= spill;
  }
}

Bitmap Bitmap::AndAll(const std::vector<const Bitmap*>& operands) {
  if (operands.empty()) return Bitmap();
  Bitmap result = *operands[0];
  for (size_t i = 1; i < operands.size(); ++i) result.And(*operands[i]);
  return result;
}

void Bitmap::AppendSetBits(std::vector<uint64_t>* out) const {
  out->reserve(out->size() + Count());
  ForEachSetBit([out](size_t pos) { out->push_back(pos); });
}

std::vector<uint64_t> Bitmap::ToVector() const {
  std::vector<uint64_t> out;
  AppendSetBits(&out);
  return out;
}

void Bitmap::ClearTail() {
  const size_t tail = num_bits_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

}  // namespace colgraph
