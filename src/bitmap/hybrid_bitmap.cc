#include "bitmap/hybrid_bitmap.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "bitmap/simd.h"
#include "util/check.h"

namespace colgraph {

namespace {

constexpr size_t kWordBits = Bitmap::kWordBits;

uint32_t RunFirst(uint32_t run) { return run & 0xFFFFu; }
uint32_t RunLast(uint32_t run) { return run >> 16; }
uint32_t MakeRun(uint32_t first, uint32_t last) { return first | (last << 16); }

/// Sorted-uint16 intersection; gallops (exponential probe + binary search)
/// when one side is much smaller, linear merge otherwise.
std::vector<uint16_t> IntersectArrays(const std::vector<uint16_t>& a,
                                      const std::vector<uint16_t>& b) {
  const std::vector<uint16_t>* small = &a;
  const std::vector<uint16_t>* large = &b;
  if (small->size() > large->size()) std::swap(small, large);
  std::vector<uint16_t> out;
  out.reserve(small->size());
  if (small->size() * 32 < large->size()) {
    size_t base = 0;  // every element before base is < the probe value
    for (const uint16_t v : *small) {
      size_t offset = 1;
      while (base + offset < large->size() && (*large)[base + offset] < v) {
        offset *= 2;
      }
      const size_t window_end = std::min(base + offset + 1, large->size());
      const auto it = std::lower_bound(
          large->begin() + static_cast<std::ptrdiff_t>(base),
          large->begin() + static_cast<std::ptrdiff_t>(window_end), v);
      base = static_cast<size_t>(it - large->begin());
      if (base < large->size() && (*large)[base] == v) out.push_back(v);
    }
    return out;
  }
  // Large similar-sized arrays: merging costs small+large data-dependent
  // steps, but an 8 KiB stack bitset is L1-resident — scatter the smaller
  // side, then probe with the larger side in order (output stays sorted).
  if (small->size() + large->size() > 2048) {
    uint64_t scratch[HybridBitmap::kChunkWords] = {};
    for (const uint16_t v : *small) {
      scratch[v / 64] |= uint64_t{1} << (v % 64);
    }
    for (const uint16_t v : *large) {
      if (((scratch[v / 64] >> (v % 64)) & 1) != 0) out.push_back(v);
    }
    return out;
  }

  // Branchless merge: the comparisons compile to flag-setting increments
  // instead of branches, which matters because element order is random —
  // a branching merge pays a misprediction on nearly every step.
  out.resize(small->size());
  size_t i = 0, j = 0, k = 0;
  while (i < small->size() && j < large->size()) {
    const uint16_t x = (*small)[i];
    const uint16_t y = (*large)[j];
    out[k] = x;
    k += static_cast<size_t>(x == y);
    i += static_cast<size_t>(x <= y);
    j += static_cast<size_t>(y <= x);
  }
  out.resize(k);
  return out;
}

/// In-place `words &= runs` over a chunk-relative word span: words outside
/// any run are zeroed, words a run only partially covers are masked, and
/// words fully inside a run pass through untouched.
void AndRunsIntoWords(const std::vector<uint32_t>& runs, uint64_t* words,
                      size_t num_words) {
  size_t w = 0;  // first word not yet finalized
  bool open = false;
  uint64_t open_mask = 0;  // pending partial coverage of word `w`
  auto zero_range = [words](size_t from, size_t to) {
    if (to > from) std::memset(words + from, 0, (to - from) * sizeof(uint64_t));
  };
  for (const uint32_t run : runs) {
    const size_t first = RunFirst(run);
    const size_t last = RunLast(run);
    const size_t first_word = first / kWordBits;
    const size_t last_word = last / kWordBits;
    COLGRAPH_DCHECK_LT(last_word, num_words);
    if (open && first_word != w) {
      words[w] &= open_mask;
      open = false;
      ++w;
    }
    zero_range(w, first_word);
    w = first_word;
    const uint64_t head = ~uint64_t{0} << (first % kWordBits);
    const uint64_t tail =
        (last % kWordBits) == kWordBits - 1
            ? ~uint64_t{0}
            : ((uint64_t{1} << ((last % kWordBits) + 1)) - 1);
    if (first_word == last_word) {
      const uint64_t mask = head & tail;
      open_mask = open ? (open_mask | mask) : mask;
      open = true;
    } else {
      words[first_word] &= open ? (open_mask | head) : head;
      open = false;
      // Interior words are fully covered: leave them as-is.
      if ((last % kWordBits) == kWordBits - 1) {
        w = last_word + 1;
      } else {
        w = last_word;
        open_mask = tail;
        open = true;
      }
    }
  }
  if (open) {
    words[w] &= open_mask;
    ++w;
  }
  zero_range(w, num_words);
}

/// `words |= container` over a chunk-local kChunkWords buffer.
void OrContainerIntoWords(const HybridBitmap::Container& c, uint64_t* words) {
  switch (c.type) {
    case HybridBitmap::ContainerType::kBitset:
      simd::OrWords(words, c.bitset.data(), HybridBitmap::kChunkWords);
      break;
    case HybridBitmap::ContainerType::kArray:
      for (const uint16_t raw : c.array) {
        const size_t v = raw;
        words[v / kWordBits] |= uint64_t{1} << (v % kWordBits);
      }
      break;
    case HybridBitmap::ContainerType::kRun:
      for (const uint32_t run : c.runs) {
        const size_t first = RunFirst(run);
        const size_t last = RunLast(run);
        const size_t fw = first / kWordBits;
        const size_t lw = last / kWordBits;
        const uint64_t head = ~uint64_t{0} << (first % kWordBits);
        const uint64_t tail =
            (last % kWordBits) == kWordBits - 1
                ? ~uint64_t{0}
                : ((uint64_t{1} << ((last % kWordBits) + 1)) - 1);
        if (fw == lw) {
          words[fw] |= head & tail;
        } else {
          words[fw] |= head;
          for (size_t k = fw + 1; k < lw; ++k) words[k] = ~uint64_t{0};
          words[lw] |= tail;
        }
      }
      break;
  }
}

HybridBitmap::Container MakeArrayContainer(std::vector<uint16_t> values) {
  HybridBitmap::Container c;
  c.type = HybridBitmap::ContainerType::kArray;
  c.cardinality = static_cast<uint32_t>(values.size());
  c.array = std::move(values);
  return c;
}

}  // namespace

HybridBitmap HybridBitmap::FromBitmap(const Bitmap& bits) {
  HybridBitmap out;
  out.num_bits_ = bits.size();
  const std::vector<uint64_t>& words = bits.words();
  const size_t num_chunks = NumChunks(bits.size());
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const size_t word_begin = chunk * kChunkWords;
    const size_t word_end = std::min(word_begin + kChunkWords, words.size());
    uint32_t card = 0;
    uint32_t num_runs = 0;
    bool prev_bit = false;
    for (size_t w = word_begin; w < word_end; ++w) {
      const uint64_t word = words[w];
      card += static_cast<uint32_t>(__builtin_popcountll(word));
      // Run starts are 0->1 transitions; carry the top bit across words.
      const uint64_t shifted = (word << 1) | (prev_bit ? uint64_t{1} : 0);
      num_runs += static_cast<uint32_t>(__builtin_popcountll(word & ~shifted));
      prev_bit = (word >> (kWordBits - 1)) != 0;
    }
    if (card == 0) continue;

    // Enumerate the chunk's set bits once; both the array and the run
    // extraction below consume them in order.
    auto for_each_set = [&](auto&& fn) {
      for (size_t w = word_begin; w < word_end; ++w) {
        uint64_t word = words[w];
        const size_t base = (w - word_begin) * kWordBits;
        while (word != 0) {
          const size_t bit = static_cast<size_t>(__builtin_ctzll(word));
          fn(static_cast<uint32_t>(base + bit));
          word &= word - 1;
        }
      }
    };

    Container c;
    c.cardinality = card;
    const uint64_t run_bytes = uint64_t{4} * num_runs;
    const uint64_t array_bytes =
        card <= kArrayMaxCardinality ? uint64_t{2} * card : ~uint64_t{0};
    const uint64_t bitset_bytes = uint64_t{kChunkWords} * 8;
    if (run_bytes < array_bytes && run_bytes < bitset_bytes) {
      c.type = ContainerType::kRun;
      c.runs.reserve(num_runs);
      uint32_t run_start = 0;
      uint32_t prev = 0;
      bool in_run = false;
      for_each_set([&](uint32_t v) {
        if (!in_run) {
          run_start = v;
          in_run = true;
        } else if (v != prev + 1) {
          c.runs.push_back(MakeRun(run_start, prev));
          run_start = v;
        }
        prev = v;
      });
      c.runs.push_back(MakeRun(run_start, prev));
    } else if (card <= kArrayMaxCardinality) {
      c.type = ContainerType::kArray;
      c.array.reserve(card);
      for_each_set(
          [&](uint32_t v) { c.array.push_back(static_cast<uint16_t>(v)); });
    } else {
      c.type = ContainerType::kBitset;
      c.bitset.assign(kChunkWords, 0);
      std::copy(words.begin() + static_cast<std::ptrdiff_t>(word_begin),
                words.begin() + static_cast<std::ptrdiff_t>(word_end),
                c.bitset.begin());
    }
    out.AppendContainer(static_cast<uint32_t>(chunk), std::move(c));
  }
  return out;
}

void HybridBitmap::AppendContainer(uint32_t key, Container c) {
  COLGRAPH_DCHECK_GT(c.cardinality, 0u);
  count_ += c.cardinality;
  keys_.push_back(key);
  containers_.push_back(std::move(c));
}

Bitmap HybridBitmap::ToBitmap() const {
  Bitmap out(num_bits_);
  OrInto(&out);
  return out;
}

HybridBitmap::Container HybridBitmap::FinishBitset(std::vector<uint64_t> words) {
  const auto card =
      static_cast<uint32_t>(simd::PopcountWords(words.data(), words.size()));
  if (card <= kArrayMaxCardinality) {
    Container c;
    c.type = ContainerType::kArray;
    c.cardinality = card;
    c.array.reserve(card);
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t word = words[w];
      const size_t base = w * kWordBits;
      while (word != 0) {
        const size_t bit = static_cast<size_t>(__builtin_ctzll(word));
        c.array.push_back(static_cast<uint16_t>(base + bit));
        word &= word - 1;
      }
    }
    return c;
  }
  Container c;
  c.type = ContainerType::kBitset;
  c.cardinality = card;
  c.bitset = std::move(words);
  return c;
}

HybridBitmap::Container HybridBitmap::CanonicalizeRuns(
    std::vector<uint32_t> runs, uint32_t cardinality) {
  Container c;
  c.cardinality = cardinality;
  if (cardinality == 0) return c;
  const uint64_t run_bytes = uint64_t{4} * runs.size();
  const uint64_t array_bytes = cardinality <= kArrayMaxCardinality
                                   ? uint64_t{2} * cardinality
                                   : ~uint64_t{0};
  const uint64_t bitset_bytes = uint64_t{kChunkWords} * 8;
  if (run_bytes < array_bytes && run_bytes < bitset_bytes) {
    c.type = ContainerType::kRun;
    c.runs = std::move(runs);
    return c;
  }
  if (cardinality <= kArrayMaxCardinality) {
    c.type = ContainerType::kArray;
    c.array.reserve(cardinality);
    for (const uint32_t run : runs) {
      for (uint32_t v = RunFirst(run); v <= RunLast(run); ++v) {
        c.array.push_back(static_cast<uint16_t>(v));
      }
    }
    return c;
  }
  c.type = ContainerType::kBitset;
  c.bitset.assign(kChunkWords, 0);
  Container tmp;
  tmp.type = ContainerType::kRun;
  tmp.runs = std::move(runs);
  OrContainerIntoWords(tmp, c.bitset.data());
  return c;
}

HybridBitmap::Container HybridBitmap::AndContainers(const Container& a,
                                                    const Container& b) {
  // Normalize so each unordered type pair is handled once (AND commutes).
  const Container* x = &a;
  const Container* y = &b;
  if (static_cast<int>(x->type) > static_cast<int>(y->type)) std::swap(x, y);

  if (x->type == ContainerType::kArray) {
    if (y->type == ContainerType::kArray) {
      return MakeArrayContainer(IntersectArrays(x->array, y->array));
    }
    std::vector<uint16_t> out;
    out.reserve(x->array.size());
    if (y->type == ContainerType::kBitset) {
      for (const uint16_t raw : x->array) {
        const size_t v = raw;
        if (((y->bitset[v / kWordBits] >> (v % kWordBits)) & 1) != 0) {
          out.push_back(raw);
        }
      }
    } else {  // kRun: both sides sorted, advance the run cursor once.
      size_t j = 0;
      for (const uint16_t raw : x->array) {
        while (j < y->runs.size() && RunLast(y->runs[j]) < raw) ++j;
        if (j == y->runs.size()) break;
        if (RunFirst(y->runs[j]) <= raw) out.push_back(raw);
      }
    }
    return MakeArrayContainer(std::move(out));
  }

  if (x->type == ContainerType::kBitset) {
    std::vector<uint64_t> words = x->bitset;
    if (y->type == ContainerType::kBitset) {
      simd::AndWords(words.data(), y->bitset.data(), kChunkWords);
    } else {  // kRun
      AndRunsIntoWords(y->runs, words.data(), kChunkWords);
    }
    return FinishBitset(std::move(words));
  }

  // kRun x kRun: clip interval lists against each other.
  std::vector<uint32_t> runs;
  uint32_t card = 0;
  size_t i = 0, j = 0;
  while (i < x->runs.size() && j < y->runs.size()) {
    const uint32_t first =
        std::max(RunFirst(x->runs[i]), RunFirst(y->runs[j]));
    const uint32_t last = std::min(RunLast(x->runs[i]), RunLast(y->runs[j]));
    if (first <= last) {
      runs.push_back(MakeRun(first, last));
      card += last - first + 1;
    }
    if (RunLast(x->runs[i]) < RunLast(y->runs[j])) {
      ++i;
    } else {
      ++j;
    }
  }
  return CanonicalizeRuns(std::move(runs), card);
}

HybridBitmap HybridBitmap::And(const HybridBitmap& a, const HybridBitmap& b) {
  COLGRAPH_CHECK_EQ(a.num_bits_, b.num_bits_);
  HybridBitmap out;
  out.num_bits_ = a.num_bits_;
  const size_t max_out = std::min(a.keys_.size(), b.keys_.size());
  out.keys_.reserve(max_out);
  out.containers_.reserve(max_out);
  size_t i = 0, j = 0;
  while (i < a.keys_.size() && j < b.keys_.size()) {
    if (a.keys_[i] < b.keys_[j]) {
      ++i;
    } else if (b.keys_[j] < a.keys_[i]) {
      ++j;
    } else {
      Container c = AndContainers(a.containers_[i], b.containers_[j]);
      if (c.cardinality != 0) out.AppendContainer(a.keys_[i], std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

void HybridBitmap::AndInto(Bitmap* dst) const {
  COLGRAPH_CHECK_EQ(dst->size(), num_bits_);
  std::vector<uint64_t>& words = dst->mutable_words();
  auto zero_range = [&words](size_t from, size_t to) {
    if (to > from) {
      std::memset(words.data() + from, 0, (to - from) * sizeof(uint64_t));
    }
  };
  size_t next = 0;  // first word not yet processed
  for (size_t i = 0; i < keys_.size(); ++i) {
    const size_t word_begin = static_cast<size_t>(keys_[i]) * kChunkWords;
    const size_t word_end = std::min(word_begin + kChunkWords, words.size());
    zero_range(next, word_begin);
    const Container& c = containers_[i];
    switch (c.type) {
      case ContainerType::kBitset:
        simd::AndWords(words.data() + word_begin, c.bitset.data(),
                       word_end - word_begin);
        break;
      case ContainerType::kArray: {
        // Rewrite only the words named by array values; every other word
        // of the chunk becomes zero.
        size_t w = word_begin;
        size_t j = 0;
        while (j < c.array.size()) {
          const size_t word_idx = word_begin + c.array[j] / kWordBits;
          zero_range(w, word_idx);
          uint64_t mask = 0;
          while (j < c.array.size() &&
                 word_begin + c.array[j] / kWordBits == word_idx) {
            mask |= uint64_t{1} << (c.array[j] % kWordBits);
            ++j;
          }
          words[word_idx] &= mask;
          w = word_idx + 1;
        }
        zero_range(w, word_end);
        break;
      }
      case ContainerType::kRun:
        AndRunsIntoWords(c.runs, words.data() + word_begin,
                         word_end - word_begin);
        break;
    }
    next = word_end;
  }
  zero_range(next, words.size());
}

void HybridBitmap::OrInto(Bitmap* dst) const {
  COLGRAPH_CHECK_EQ(dst->size(), num_bits_);
  std::vector<uint64_t>& words = dst->mutable_words();
  for (size_t i = 0; i < keys_.size(); ++i) {
    const size_t word_begin = static_cast<size_t>(keys_[i]) * kChunkWords;
    const Container& c = containers_[i];
    if (c.type == ContainerType::kBitset) {
      // Bounded by the words present: the last chunk may be partial.
      const size_t word_end = std::min(word_begin + kChunkWords, words.size());
      simd::OrWords(words.data() + word_begin, c.bitset.data(),
                    word_end - word_begin);
    } else {
      // Array and run elements lie inside the bitmap's length.
      OrContainerIntoWords(c, words.data() + word_begin);
    }
  }
}

uint64_t HybridBitmap::PayloadWords(const Container& c) {
  switch (c.type) {
    case ContainerType::kArray:
      return (uint64_t{c.cardinality} + 3) / 4;
    case ContainerType::kBitset:
      return kChunkWords;
    case ContainerType::kRun:
      return (static_cast<uint64_t>(c.runs.size()) + 1) / 2;
  }
  return 0;
}

std::vector<uint64_t> HybridBitmap::ToRaw() const {
  std::vector<uint64_t> out;
  size_t total = 1 + keys_.size();
  for (const Container& c : containers_) {
    total += 1 + static_cast<size_t>(PayloadWords(c));
  }
  out.reserve(total);
  out.push_back(static_cast<uint64_t>(keys_.size()));
  for (size_t i = 0; i < keys_.size(); ++i) {
    const Container& c = containers_[i];
    out.push_back(static_cast<uint64_t>(keys_[i]) |
                  (static_cast<uint64_t>(c.type) << 32) |
                  (PayloadWords(c) << 40));
  }
  for (const Container& c : containers_) {
    const uint64_t extra =
        c.type == ContainerType::kRun ? static_cast<uint64_t>(c.runs.size())
                                      : 0;
    out.push_back(uint64_t{c.cardinality} | (extra << 32));
    switch (c.type) {
      case ContainerType::kArray: {
        uint64_t word = 0;
        for (size_t k = 0; k < c.array.size(); ++k) {
          word |= static_cast<uint64_t>(c.array[k]) << (16 * (k % 4));
          if (k % 4 == 3) {
            out.push_back(word);
            word = 0;
          }
        }
        if (c.array.size() % 4 != 0) out.push_back(word);
        break;
      }
      case ContainerType::kBitset:
        out.insert(out.end(), c.bitset.begin(), c.bitset.end());
        break;
      case ContainerType::kRun: {
        uint64_t word = 0;
        for (size_t k = 0; k < c.runs.size(); ++k) {
          word |= static_cast<uint64_t>(c.runs[k]) << (32 * (k % 2));
          if (k % 2 == 1) {
            out.push_back(word);
            word = 0;
          }
        }
        if (c.runs.size() % 2 != 0) out.push_back(word);
        break;
      }
    }
  }
  return out;
}

StatusOr<HybridBitmap> HybridBitmap::FromRawChecked(
    const std::vector<uint64_t>& buffer, size_t num_bits) {
  auto corrupt = [](const char* what) {
    return Status::Corruption(std::string("hybrid bitmap: ") + what);
  };
  if (buffer.empty()) return corrupt("empty buffer");
  const uint64_t n = buffer[0];
  const size_t num_chunks = NumChunks(num_bits);
  if (n > num_chunks) return corrupt("container count exceeds chunk count");
  if (n > buffer.size() - 1) return corrupt("descriptor table exceeds buffer");

  HybridBitmap out;
  out.num_bits_ = num_bits;
  out.keys_.reserve(static_cast<size_t>(n));
  out.containers_.reserve(static_cast<size_t>(n));
  size_t pos = 1 + static_cast<size_t>(n);  // payload cursor
  uint32_t prev_key = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t desc = buffer[1 + i];
    const uint32_t key = static_cast<uint32_t>(desc & 0xFFFFFFFFu);
    const uint64_t type_raw = (desc >> 32) & 0xFF;
    const uint64_t payload_words = desc >> 40;
    if (key >= num_chunks) return corrupt("container key out of range");
    if (i > 0 && key <= prev_key) return corrupt("container keys not ascending");
    prev_key = key;
    if (type_raw > 2) return corrupt("unknown container type");
    const ContainerType type = static_cast<ContainerType>(type_raw);
    if (payload_words > kChunkWords) {
      return corrupt("oversized container payload");
    }
    if (pos >= buffer.size()) return corrupt("truncated container payload");
    const uint64_t lead = buffer[pos];
    const uint32_t card = static_cast<uint32_t>(lead & 0xFFFFFFFFu);
    const uint32_t extra = static_cast<uint32_t>(lead >> 32);
    ++pos;
    if (buffer.size() - pos < payload_words) {
      return corrupt("truncated container payload");
    }
    if (card == 0 || card > kChunkBits) {
      return corrupt("implausible container cardinality");
    }
    const size_t chunk_base = static_cast<size_t>(key) * kChunkBits;
    const size_t chunk_bits = std::min(kChunkBits, num_bits - chunk_base);

    Container c;
    c.type = type;
    c.cardinality = card;
    switch (type) {
      case ContainerType::kArray: {
        if (extra != 0) return corrupt("nonzero reserved bits in array lead");
        if (card > kArrayMaxCardinality) {
          return corrupt("array cardinality above threshold");
        }
        if (payload_words != (uint64_t{card} + 3) / 4) {
          return corrupt("array payload size mismatch");
        }
        c.array.reserve(card);
        uint16_t prev = 0;
        for (uint32_t k = 0; k < card; ++k) {
          const uint64_t word = buffer[pos + k / 4];
          const uint16_t v =
              static_cast<uint16_t>((word >> (16 * (k % 4))) & 0xFFFFu);
          if (k > 0 && v <= prev) return corrupt("array values not ascending");
          if (static_cast<size_t>(v) >= chunk_bits) {
            return corrupt("array value beyond bitmap length");
          }
          c.array.push_back(v);
          prev = v;
        }
        const uint32_t rem = card % 4;
        if (rem != 0 && (buffer[pos + card / 4] >> (16 * rem)) != 0) {
          return corrupt("nonzero array padding");
        }
        break;
      }
      case ContainerType::kBitset: {
        if (extra != 0) return corrupt("nonzero reserved bits in bitset lead");
        if (card <= kArrayMaxCardinality) {
          return corrupt("bitset cardinality below array threshold");
        }
        if (payload_words != kChunkWords) {
          return corrupt("bitset payload size mismatch");
        }
        c.bitset.assign(buffer.begin() + static_cast<std::ptrdiff_t>(pos),
                        buffer.begin() +
                            static_cast<std::ptrdiff_t>(pos + kChunkWords));
        if (simd::PopcountWords(c.bitset.data(), c.bitset.size()) != card) {
          return corrupt("bitset popcount does not match cardinality");
        }
        if (chunk_bits < kChunkBits) {
          // Final partial chunk: bits at or beyond num_bits must be zero.
          const size_t full_words = chunk_bits / kWordBits;
          const size_t rem_bits = chunk_bits % kWordBits;
          size_t check_from = full_words;
          if (rem_bits != 0) {
            const uint64_t tail_mask = ~uint64_t{0} << rem_bits;
            if ((c.bitset[full_words] & tail_mask) != 0) {
              return corrupt("bitset bits beyond bitmap length");
            }
            check_from = full_words + 1;
          }
          for (size_t w = check_from; w < kChunkWords; ++w) {
            if (c.bitset[w] != 0) {
              return corrupt("bitset bits beyond bitmap length");
            }
          }
        }
        break;
      }
      case ContainerType::kRun: {
        const uint32_t num_runs = extra;
        if (num_runs == 0) return corrupt("empty run container");
        if (payload_words != (uint64_t{num_runs} + 1) / 2) {
          return corrupt("run payload size mismatch");
        }
        // The writer only emits a run container when it is strictly the
        // smallest encoding; enforce the same rule on load so a flipped
        // type tag cannot smuggle in a non-canonical layout.
        if (uint64_t{4} * num_runs >= uint64_t{kChunkWords} * 8) {
          return corrupt("run container larger than bitset");
        }
        if (card <= kArrayMaxCardinality &&
            uint64_t{4} * num_runs >= uint64_t{2} * card) {
          return corrupt("run container larger than array");
        }
        c.runs.reserve(num_runs);
        uint64_t total_len = 0;
        uint32_t prev_last = 0;
        for (uint32_t k = 0; k < num_runs; ++k) {
          const uint64_t word = buffer[pos + k / 2];
          const uint32_t run =
              static_cast<uint32_t>((word >> (32 * (k % 2))) & 0xFFFFFFFFu);
          const uint32_t first = RunFirst(run);
          const uint32_t last = RunLast(run);
          if (first > last) return corrupt("inverted run interval");
          if (k > 0 && first <= prev_last + 1) {
            return corrupt("runs not sorted and merged");
          }
          if (static_cast<size_t>(last) >= chunk_bits) {
            return corrupt("run beyond bitmap length");
          }
          total_len += uint64_t{last} - first + 1;
          prev_last = last;
          c.runs.push_back(run);
        }
        if (num_runs % 2 != 0 && (buffer[pos + num_runs / 2] >> 32) != 0) {
          return corrupt("nonzero run padding");
        }
        if (total_len != card) {
          return corrupt("run lengths do not sum to cardinality");
        }
        break;
      }
    }
    pos += static_cast<size_t>(payload_words);
    out.AppendContainer(key, std::move(c));
  }
  if (pos != buffer.size()) {
    return corrupt("trailing words after the last container");
  }
  return out;
}

size_t HybridBitmap::MemoryBytes() const {
  size_t total = keys_.size() * sizeof(uint32_t);
  for (const Container& c : containers_) {
    total += sizeof(Container) + c.array.size() * sizeof(uint16_t) +
             c.bitset.size() * sizeof(uint64_t) +
             c.runs.size() * sizeof(uint32_t);
  }
  return total;
}

HybridBitmap::ContainerStats HybridBitmap::Stats() const {
  ContainerStats stats;
  for (const Container& c : containers_) {
    switch (c.type) {
      case ContainerType::kArray:
        ++stats.arrays;
        break;
      case ContainerType::kBitset:
        ++stats.bitsets;
        break;
      case ContainerType::kRun:
        ++stats.runs;
        break;
    }
  }
  return stats;
}

}  // namespace colgraph
