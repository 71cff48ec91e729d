// Targeted HybridBitmap unit tests: container selection, the container-pair
// AND/OR kernels on crafted edge cases (runs sharing words, chunk
// boundaries, demotion thresholds), and the FromRawChecked corruption
// torture — every truncation of a valid buffer, plus structured field
// mutations, must fail with a clean Status::Corruption, never decode to a
// bitmap violating invariants.
#include "bitmap/hybrid_bitmap.h"

#include <gtest/gtest.h>

#include <vector>

#include "bitmap/bitmap.h"
#include "util/random.h"

namespace colgraph {
namespace {

Bitmap MakeBitmap(size_t size, const std::vector<size_t>& set_bits) {
  Bitmap b(size);
  for (const size_t pos : set_bits) b.Set(pos);
  return b;
}

TEST(HybridBitmapTest, EmptyBitmap) {
  const HybridBitmap h = HybridBitmap::FromBitmap(Bitmap(1 << 20));
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_TRUE(h.None());
  EXPECT_EQ(h.num_containers(), 0u);
  EXPECT_EQ(h.ToBitmap(), Bitmap(1 << 20));
  EXPECT_EQ(h.ToRaw(), std::vector<uint64_t>{0});
}

TEST(HybridBitmapTest, ZeroLengthBitmap) {
  const HybridBitmap h = HybridBitmap::FromBitmap(Bitmap(0));
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.ToBitmap(), Bitmap(0));
  const auto rt = HybridBitmap::FromRawChecked(h.ToRaw(), 0);
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE(rt.value() == h);
}

TEST(HybridBitmapTest, ContainerSelectionByDensity) {
  // Sparse scattered bits -> array container.
  Bitmap sparse(1 << 16);
  for (size_t i = 0; i < sparse.size(); i += 100) sparse.Set(i);
  const HybridBitmap hs = HybridBitmap::FromBitmap(sparse);
  EXPECT_EQ(hs.Stats().arrays, 1u);

  // Dense scattered bits -> bitset container (cardinality > 4096, no runs).
  Bitmap dense(1 << 16);
  for (size_t i = 0; i < dense.size(); i += 2) dense.Set(i);
  const HybridBitmap hd = HybridBitmap::FromBitmap(dense);
  EXPECT_EQ(hd.Stats().bitsets, 1u);

  // One long run -> run container.
  Bitmap runny(1 << 16);
  for (size_t i = 1000; i < 60000; ++i) runny.Set(i);
  const HybridBitmap hr = HybridBitmap::FromBitmap(runny);
  EXPECT_EQ(hr.Stats().runs, 1u);

  // Full chunk: a single run beats the bitset.
  Bitmap full(1 << 16);
  full.Fill();
  EXPECT_EQ(HybridBitmap::FromBitmap(full).Stats().runs, 1u);

  for (const Bitmap* b : {&sparse, &dense, &runny, &full}) {
    EXPECT_EQ(HybridBitmap::FromBitmap(*b).ToBitmap(), *b);
  }
}

TEST(HybridBitmapTest, MultiChunkSkipsEmptyChunks) {
  // Chunks 0 and 2 populated, chunk 1 empty.
  const Bitmap b = MakeBitmap(3 << 16, {5, 100, (2u << 16) + 7});
  const HybridBitmap h = HybridBitmap::FromBitmap(b);
  EXPECT_EQ(h.num_containers(), 2u);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.ToBitmap(), b);
  EXPECT_TRUE(h.ToBitmap().Test(5));
  EXPECT_FALSE(h.ToBitmap().Test(6));
  EXPECT_FALSE(h.ToBitmap().Test(1 << 16));  // empty chunk
  EXPECT_TRUE(h.ToBitmap().Test((2u << 16) + 7));
}

TEST(HybridBitmapTest, AndIntoRunsSharingOneWord) {
  // Two runs whose edge masks land in the same 64-bit word: the pending
  // mask must accumulate, not clobber the earlier run's bits.
  Bitmap mask(1 << 16);
  for (size_t i = 64; i <= 70; ++i) mask.Set(i);    // run 1 ends in word 1
  for (size_t i = 80; i <= 90; ++i) mask.Set(i);    // run 2 inside word 1
  for (size_t i = 100; i <= 300; ++i) mask.Set(i);  // run 3 spans words
  const HybridBitmap h = HybridBitmap::FromBitmap(mask);
  ASSERT_EQ(h.Stats().runs, 1u);

  Bitmap dst(1 << 16);
  dst.Fill();
  h.AndInto(&dst);
  EXPECT_EQ(dst, mask);

  Bitmap dst2(1 << 16);
  for (size_t i = 0; i < dst2.size(); i += 3) dst2.Set(i);
  Bitmap expected = dst2;
  expected.And(mask);
  h.AndInto(&dst2);
  EXPECT_EQ(dst2, expected);
}

TEST(HybridBitmapTest, AndDemotesBitsetToArray) {
  // Two dense bitsets whose intersection is small: the result container
  // must demote to an array (cardinality <= 4096 invariant for bitsets).
  Bitmap a(1 << 16), b(1 << 16);
  for (size_t i = 0; i < a.size(); i += 2) a.Set(i);      // evens
  for (size_t i = 0; i < b.size(); i += 1000) b.Set(i);   // sparse multiples
  Bitmap dense_b(1 << 16);
  for (size_t i = 0; i < dense_b.size(); i += 3) dense_b.Set(i);
  const HybridBitmap ha = HybridBitmap::FromBitmap(a);
  const HybridBitmap hb = HybridBitmap::FromBitmap(dense_b);
  ASSERT_EQ(ha.Stats().bitsets, 1u);
  ASSERT_EQ(hb.Stats().bitsets, 1u);
  const HybridBitmap hr = HybridBitmap::And(ha, hb);  // multiples of 6
  EXPECT_EQ(hr.Stats().bitsets, 1u);  // ~10923 > 4096: stays a bitset
  Bitmap expected = a;
  expected.And(dense_b);
  EXPECT_EQ(hr.ToBitmap(), expected);

  // Now an intersection that lands under the threshold.
  const HybridBitmap hs = HybridBitmap::And(ha, HybridBitmap::FromBitmap(b));
  Bitmap expected_small = a;
  expected_small.And(b);
  EXPECT_EQ(hs.ToBitmap(), expected_small);
  EXPECT_EQ(hs.Stats().arrays + hs.Stats().runs, hs.num_containers());
}

TEST(HybridBitmapTest, GallopingIntersectionSkewedArrays) {
  // One tiny array vs one large array (> 32x skew triggers the gallop).
  Bitmap small(1 << 16), large(1 << 16);
  small.Set(10);
  small.Set(4000);
  small.Set(65000);
  for (size_t i = 0; i < large.size(); i += 17) large.Set(i);
  const HybridBitmap hr = HybridBitmap::And(HybridBitmap::FromBitmap(small),
                                            HybridBitmap::FromBitmap(large));
  Bitmap expected = small;
  expected.And(large);
  EXPECT_EQ(hr.ToBitmap(), expected);
}

TEST(HybridBitmapTest, OrAcrossDisjointChunks) {
  const Bitmap a = MakeBitmap(3 << 16, {1, 2, 3});
  const Bitmap b = MakeBitmap(3 << 16, {(1u << 16) + 5, (2u << 16) + 9});
  Bitmap got = a;
  HybridBitmap::FromBitmap(b).OrInto(&got);
  Bitmap expected = a;
  expected.Or(b);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(got.Count(), 5u);
}

TEST(HybridBitmapTest, UnalignedTailChunk) {
  // Length not a multiple of the chunk (or word) size.
  const size_t size = (1 << 16) + 777;
  Bitmap b(size);
  for (size_t i = 0; i < size; i += 5) b.Set(i);
  const HybridBitmap h = HybridBitmap::FromBitmap(b);
  EXPECT_EQ(h.ToBitmap(), b);
  const auto rt = HybridBitmap::FromRawChecked(h.ToRaw(), size);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_TRUE(rt.value() == h);

  Bitmap dst(size);
  dst.Fill();
  h.AndInto(&dst);
  EXPECT_EQ(dst, b);
}

// --- Codec corruption torture -------------------------------------------

// A representative serialized buffer holding all three container types.
std::vector<uint64_t> TortureBuffer(size_t* num_bits_out) {
  const size_t num_bits = 3 << 16;
  Bitmap b(num_bits);
  for (size_t i = 0; i < 200; ++i) b.Set(i * 13);            // chunk 0: array
  for (size_t i = 0; i < (1u << 16); i += 2) b.Set((1u << 16) + i);  // bitset
  for (size_t i = 0; i < 30000; ++i) b.Set((2u << 16) + i);  // chunk 2: run
  const HybridBitmap h = HybridBitmap::FromBitmap(b);
  EXPECT_EQ(h.Stats().arrays, 1u);
  EXPECT_EQ(h.Stats().bitsets, 1u);
  EXPECT_EQ(h.Stats().runs, 1u);
  *num_bits_out = num_bits;
  return h.ToRaw();
}

TEST(HybridBitmapCodecTortureTest, EveryTruncationIsCorruption) {
  size_t num_bits = 0;
  const std::vector<uint64_t> full = TortureBuffer(&num_bits);
  ASSERT_TRUE(HybridBitmap::FromRawChecked(full, num_bits).ok());
  for (size_t len = 0; len < full.size(); ++len) {
    const std::vector<uint64_t> prefix(full.begin(),
                                       full.begin() + static_cast<long>(len));
    const auto result = HybridBitmap::FromRawChecked(prefix, num_bits);
    ASSERT_FALSE(result.ok()) << "prefix length " << len << " decoded";
    EXPECT_TRUE(result.status().IsCorruption()) << "len=" << len;
  }
}

TEST(HybridBitmapCodecTortureTest, TrailingWordsAreCorruption) {
  size_t num_bits = 0;
  std::vector<uint64_t> buf = TortureBuffer(&num_bits);
  buf.push_back(0);
  const auto result = HybridBitmap::FromRawChecked(buf, num_bits);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(HybridBitmapCodecTortureTest, StructuredFieldMutations) {
  size_t num_bits = 0;
  const std::vector<uint64_t> full = TortureBuffer(&num_bits);

  auto mutate = [&](size_t word, uint64_t value) {
    std::vector<uint64_t> buf = full;
    buf[word] = value;
    return HybridBitmap::FromRawChecked(buf, num_bits);
  };

  // Container count lies.
  EXPECT_TRUE(mutate(0, 99).status().IsCorruption());
  EXPECT_TRUE(mutate(0, uint64_t{1} << 60).status().IsCorruption());
  EXPECT_TRUE(mutate(0, 2).status().IsCorruption());  // orphaned payload

  // Descriptor mutations: bad key order, key out of range, bad type,
  // oversized payload claim.
  const uint64_t desc0 = full[1];
  EXPECT_TRUE(mutate(1, desc0 | 0xFFFF).status().IsCorruption());  // key >= n
  EXPECT_TRUE(
      mutate(1, desc0 | (uint64_t{3} << 32)).status().IsCorruption());  // type
  EXPECT_TRUE(mutate(1, desc0 + (uint64_t{1} << 40))
                  .status()
                  .IsCorruption());  // payload_words off by one
  // Swap keys so they are not ascending.
  {
    std::vector<uint64_t> buf = full;
    std::swap(buf[1], buf[2]);
    EXPECT_TRUE(
        HybridBitmap::FromRawChecked(buf, num_bits).status().IsCorruption());
  }

  // Cardinality lead-word lies (array payload starts at word 4).
  const size_t array_lead = 4;
  EXPECT_TRUE(mutate(array_lead, 0).status().IsCorruption());  // card = 0
  EXPECT_TRUE(mutate(array_lead, full[array_lead] + 1)
                  .status()
                  .IsCorruption());  // card != element count
  EXPECT_TRUE(mutate(array_lead, full[array_lead] | (uint64_t{5} << 32))
                  .status()
                  .IsCorruption());  // reserved bits set

  // Array element order violation: make the first packed word descending.
  const size_t array_payload = array_lead + 1;
  EXPECT_TRUE(mutate(array_payload, uint64_t{500} | (uint64_t{5} << 16))
                  .status()
                  .IsCorruption());

  // num_bits mismatch: a buffer valid for 3 chunks must not decode into a
  // shorter bit space.
  EXPECT_TRUE(
      HybridBitmap::FromRawChecked(full, 1 << 16).status().IsCorruption());
  EXPECT_TRUE(HybridBitmap::FromRawChecked(full, 0).status().IsCorruption());
}

TEST(HybridBitmapCodecTortureTest, RandomBitFlipsNeverBreakInvariants) {
  // A random single-bit flip either fails cleanly or decodes to a bitmap
  // that still satisfies every invariant (verified by re-serializing).
  // Snapshot-level CRCs are what guarantee detection in production files;
  // persistence_torture_test covers that layer.
  size_t num_bits = 0;
  const std::vector<uint64_t> full = TortureBuffer(&num_bits);
  Rng rng(20260808);
  size_t rejected = 0;
  const size_t kFlips = 500;
  for (size_t i = 0; i < kFlips; ++i) {
    std::vector<uint64_t> buf = full;
    const size_t word = rng.Uniform(0, buf.size() - 1);
    buf[word] ^= uint64_t{1} << rng.Uniform(0, 63);
    const auto result = HybridBitmap::FromRawChecked(buf, num_bits);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCorruption());
      ++rejected;
      continue;
    }
    // Survivors must be internally consistent: same bytes back out, and
    // count matching the materialized bitmap.
    const HybridBitmap& h = result.value();
    EXPECT_EQ(h.ToRaw(), buf);
    EXPECT_EQ(h.ToBitmap().Count(), h.Count());
  }
  // The vast majority of flips must be caught by validation alone.
  EXPECT_GT(rejected, kFlips * 8 / 10);
}

}  // namespace
}  // namespace colgraph
