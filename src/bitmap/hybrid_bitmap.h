// Roaring-style hybrid compressed bitmap (ROADMAP item 6). The bit space is
// split into 2^16-bit chunks and each non-empty chunk stores whichever of
// three containers is smallest for its contents:
//
//   container | holds                          | chosen when
//   ----------|--------------------------------|---------------------------
//   array     | sorted uint16 bit offsets      | cardinality <= 4096
//   bitset    | 1024 raw 64-bit words          | cardinality >  4096
//   run       | sorted (first,last) intervals  | 4*runs < min(2*card, 8192)
//
// (the run container wins ties against nothing: it is picked only when its
// byte size is strictly below both alternatives, so every encoding is
// deterministic for given contents). ANDs between hybrid bitmaps combine
// container pairs without materializing words — galloping intersection for
// skewed array pairs, interval clipping for runs, SIMD word kernels
// (bitmap/simd.h) for bitset pairs — and AndInto() applies a hybrid operand
// to an uncompressed Bitmap in place, which is how the query engine's
// conjunction loop consumes columns sealed in this encoding.
//
// The serialized form (ToRaw / FromRawChecked) is a flat word buffer and
// the one on-disk bitmap codec: every bitmap in a snapshot's column extents
// is stored this way. FromRawChecked validates every key, length,
// ordering, and cardinality claim against the buffer actually present and
// returns Status::Corruption on any violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitmap/bitmap.h"
#include "util/status.h"

namespace colgraph {

/// \brief Chunked hybrid-container bitmap with compressed boolean algebra.
class HybridBitmap {
 public:
  static constexpr size_t kChunkBits = size_t{1} << 16;
  static constexpr size_t kChunkWords = kChunkBits / Bitmap::kWordBits;
  /// Largest cardinality stored as a sorted uint16 array; above it the
  /// chunk is a bitset (the classic roaring threshold: 4096 * 2 bytes ==
  /// the 8 KiB bitset).
  static constexpr uint32_t kArrayMaxCardinality = 4096;

  enum class ContainerType : uint8_t { kArray = 0, kBitset = 1, kRun = 2 };

  /// One chunk's payload; exactly one of the three vectors is populated,
  /// selected by `type`. Runs pack an inclusive interval as
  /// (first | last << 16) and are sorted, non-overlapping, and maximal
  /// (adjacent intervals are merged).
  struct Container {
    ContainerType type = ContainerType::kArray;
    uint32_t cardinality = 0;
    std::vector<uint16_t> array;
    std::vector<uint64_t> bitset;
    std::vector<uint32_t> runs;

    bool operator==(const Container& other) const {
      return type == other.type && cardinality == other.cardinality &&
             array == other.array && bitset == other.bitset &&
             runs == other.runs;
    }
  };

  HybridBitmap() = default;

  /// Compresses a plain bitmap (container per chunk by the size rule).
  static HybridBitmap FromBitmap(const Bitmap& bits);

  /// Decompresses into a plain bitmap of the original length.
  Bitmap ToBitmap() const;

  size_t size_bits() const { return num_bits_; }
  size_t Count() const { return count_; }
  bool None() const { return count_ == 0; }

  /// Compressed conjunction. Operands must share size_bits().
  static HybridBitmap And(const HybridBitmap& a, const HybridBitmap& b);

  /// In-place conjunction into an uncompressed bitmap of the same length
  /// (the engine's running-result loop): words in chunks absent here are
  /// zeroed wholesale, bitset chunks AND word-at-a-time through the SIMD
  /// kernels, array/run chunks rewrite only the covered words.
  void AndInto(Bitmap* dst) const;

  /// In-place disjunction into an uncompressed bitmap of the same length
  /// (ToBitmap).
  void OrInto(Bitmap* dst) const;

  /// Serialized form: [u64 container_count] then one descriptor word per
  /// container (key | type << 32 | payload_words << 40) then the payloads
  /// in container order, each led by a cardinality word.
  std::vector<uint64_t> ToRaw() const;

  /// Validating decoder for untrusted buffers (disk, fuzzer): every
  /// length, key ordering, type, payload size, element ordering, padding
  /// byte, and cardinality claim is checked against the buffer actually
  /// present — no allocation is sized from an unvalidated claim — and any
  /// violation returns Status::Corruption. A bitmap that decodes is safe
  /// for every read API and satisfies all class invariants.
  static StatusOr<HybridBitmap> FromRawChecked(
      const std::vector<uint64_t>& buffer, size_t num_bits);

  /// In-memory footprint in bytes (keys + container payloads).
  size_t MemoryBytes() const;

  size_t num_containers() const { return keys_.size(); }

  /// Container mix, for tests and EXPLAIN-style introspection.
  struct ContainerStats {
    size_t arrays = 0;
    size_t bitsets = 0;
    size_t runs = 0;
  };
  ContainerStats Stats() const;

  /// Representation equality. Construction is deterministic, so two
  /// bitmaps built through the same operations compare equal; use
  /// ToBitmap() to compare across construction paths.
  bool operator==(const HybridBitmap& other) const {
    return num_bits_ == other.num_bits_ && count_ == other.count_ &&
           keys_ == other.keys_ && containers_ == other.containers_;
  }

 private:
  static size_t NumChunks(size_t num_bits) {
    return (num_bits + kChunkBits - 1) / kChunkBits;
  }
  static uint64_t PayloadWords(const Container& c);
  static Container AndContainers(const Container& a, const Container& b);
  /// Applies the size rule to an intersection expressed as runs.
  static Container CanonicalizeRuns(std::vector<uint32_t> runs,
                                    uint32_t cardinality);
  /// Demotes a bitset container to an array when small enough.
  static Container FinishBitset(std::vector<uint64_t> words);

  void AppendContainer(uint32_t key, Container c);

  size_t num_bits_ = 0;
  size_t count_ = 0;
  std::vector<uint32_t> keys_;         // chunk indexes, strictly ascending
  std::vector<Container> containers_;  // aligned with keys_
};

}  // namespace colgraph
