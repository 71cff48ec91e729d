// Uncompressed bitmap over record ids. This is the in-memory workhorse
// behind the paper's bitmap columns (Section 4.2): evaluating a graph query
// reduces to word-parallel ANDs of the bitmaps of its edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace colgraph {

/// \brief Fixed-universe bitmap with word-parallel boolean algebra.
///
/// A bitmap column b_i in the master relation holds one bit per graph
/// record; bit r is set iff record r contains edge e_i. All bitmaps over the
/// same relation share the same length (the record count), which is what
/// makes the paper's "cost = number of bitmaps fetched" model sensible.
class Bitmap {
 public:
  Bitmap() = default;
  /// Creates an all-zero bitmap of `num_bits` bits.
  explicit Bitmap(size_t num_bits)
      : num_bits_(num_bits), words_(WordCount(num_bits), 0) {}

  static constexpr size_t kWordBits = 64;

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Grows (or shrinks) to `num_bits`; new bits are zero.
  void Resize(size_t num_bits);

  void Set(size_t pos);
  void Clear(size_t pos);
  bool Test(size_t pos) const;

  /// Sets all bits to zero / one (one respects the tail padding).
  void Reset();
  void Fill();

  /// Number of set bits.
  size_t Count() const;
  /// True iff no bit is set.
  bool None() const;

  /// In-place boolean algebra. Operands must have equal size().
  void And(const Bitmap& other);
  void Or(const Bitmap& other);
  void AndNot(const Bitmap& other);  ///< this &= ~other
  void Not();                        ///< complement (tail stays zero)

  /// Out-of-place variants.
  static Bitmap AndAll(const std::vector<const Bitmap*>& operands);

  /// ORs `src` into this bitmap starting at bit `offset`: bit i of `src`
  /// sets bit offset+i here. Requires offset + src.size() <= size(). This
  /// is the record-id rebasing blit behind multi-dataset queries
  /// (DESIGN.md §14): per-dataset match results land at the dataset's
  /// global base offset. Word-shifted, not bit-at-a-time.
  void OrAt(const Bitmap& src, size_t offset);

  /// Appends the positions of all set bits to `out` (one allocation).
  void AppendSetBits(std::vector<uint64_t>* out) const;
  /// Convenience: returns the positions of all set bits.
  std::vector<uint64_t> ToVector() const;

  /// Calls fn(pos) for every set bit in ascending order. `fn` returning is
  /// the only control flow.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * kWordBits + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Raw word access (used by the compressed codec and persistence).
  const std::vector<uint64_t>& words() const { return words_; }
  std::vector<uint64_t>& mutable_words() { return words_; }

  /// Size of the in-memory representation in bytes.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  bool operator==(const Bitmap& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  static size_t WordCount(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }
  /// Zeroes any bits beyond num_bits_ in the last word.
  void ClearTail();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace colgraph
