// Differential harness for the measure-fetch gather kernel: MeasureColumn::
// Gather (simd::GatherByRank, one match word at a time over the rank
// directory) against the per-record MeasureColumn::Get loop it replaced.
// Presence and match bitmaps are drawn at densities 0, 1/1000, 1/64, 1/2
// and 1, over sizes that are not multiples of 64, with matched records
// the column does not hold (they must read NaN). Stored values include
// -0.0, NaN payloads and infinities, and every comparison is bit for bit.
// Bitmap::Extract, which hands each dataset its slice of a global match,
// is checked against a bit loop on the same draws.
//
// Everything runs in both dispatch modes (hardware popcount and scalar);
// the iteration count per mode scales with COLGRAPH_DIFF_ITERS.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/simd.h"
#include "columnstore/column.h"
#include "util/random.h"

namespace colgraph {
namespace {

size_t IterationsFromEnv(size_t default_iters) {
  const char* s = std::getenv("COLGRAPH_DIFF_ITERS");
  if (s == nullptr) return default_iters;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(v));
  return u;
}

double FromBits(uint64_t u) {
  double v = 0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) {
    simd::SetForceScalarForTest(force);
  }
  ~ScopedForceScalar() { simd::SetForceScalarForTest(false); }
};

// Sizes straddle word edges; none of the fixed ones is a multiple of 64.
size_t RandomSize(Rng& rng) {
  static const size_t kSizes[] = {1, 7, 63, 65, 127, 129, 1000, 4097, 70001};
  if (rng.Bernoulli(0.7)) return kSizes[rng.Uniform(0, std::size(kSizes) - 1)];
  return static_cast<size_t>(rng.Uniform(1, 20000));
}

Bitmap RandomBitmap(Rng& rng, size_t size) {
  static const double kDensities[] = {0.0, 1.0 / 1000, 1.0 / 64, 0.5, 1.0};
  const double density = kDensities[rng.Uniform(0, std::size(kDensities) - 1)];
  Bitmap b(size);
  if (density == 1.0) {
    b.Fill();
  } else if (density > 0.0) {
    for (size_t i = 0; i < size; ++i) {
      if (rng.Bernoulli(density)) b.Set(i);
    }
  }
  return b;
}

// Values with the bit patterns a fetch must not disturb.
double RandomValue(Rng& rng) {
  static const uint64_t kSpecial[] = {
      0x8000000000000000ull,  // -0.0
      0x7ff0000000000000ull,  // +inf
      0xfff0000000000000ull,  // -inf
      0x7ff8000000000000ull,  // the quiet NaN a NULL reads as
      0x7ff8000000000123ull,  // quiet NaN with a payload
      0xfff8000000abcdefull,  // negative quiet NaN with a payload
      0x7ff0000000000001ull,  // signaling NaN
      0x0000000000000001ull,  // smallest subnormal
  };
  if (rng.Bernoulli(0.25)) {
    return FromBits(kSpecial[rng.Uniform(0, std::size(kSpecial) - 1)]);
  }
  return rng.UniformReal(-1e6, 1e6);
}

// The column holding `presence`, one random value per set bit.
MeasureColumn RandomColumn(Rng& rng, const Bitmap& presence) {
  std::vector<double> values(presence.Count());
  for (double& v : values) v = RandomValue(rng);
  auto column = MeasureColumn::FromParts(presence, std::move(values));
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  return std::move(column).value();
}

// The per-record fetch Gather replaced: Get, NaN for NULL.
std::vector<double> GetLoop(const MeasureColumn& column, const Bitmap& matches) {
  std::vector<double> out;
  matches.ForEachSetBit([&](size_t r) {
    const auto v = column.Get(r);
    out.push_back(v.has_value() ? *v
                                : std::numeric_limits<double>::quiet_NaN());
  });
  return out;
}

void ExpectBitIdentical(const std::vector<double>& want,
                        const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(Bits(want[i]), Bits(got[i])) << "row " << i;
  }
}

void RunGatherMode(bool force_scalar, uint64_t seed) {
  ScopedForceScalar mode(force_scalar);
  const size_t iters = IterationsFromEnv(300);
  Rng rng(seed);
  for (size_t iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter) +
                 (force_scalar ? " (scalar)" : " (dispatch)"));
    const size_t size = RandomSize(rng);
    const MeasureColumn column = RandomColumn(rng, RandomBitmap(rng, size));
    // Half the draws match only stored records; the rest also match
    // records the column does not hold.
    Bitmap matches = RandomBitmap(rng, size);
    if (rng.Bernoulli(0.5)) matches.And(column.presence().bits());

    const std::vector<double> want = GetLoop(column, matches);
    std::vector<double> got(matches.Count());
    column.Gather(matches, got.data());
    ExpectBitIdentical(want, got);

    // A dataset's slice of a wider match bitmap, at an offset that is
    // rarely word-aligned.
    const size_t offset = rng.Uniform(0, 130);
    Bitmap wide(offset + size + rng.Uniform(0, 100));
    wide.OrAt(matches, offset);
    const Bitmap slice = wide.Extract(offset, size);
    ASSERT_EQ(slice, matches);
    const size_t sub_offset = rng.Uniform(0, size);
    const size_t sub_len = rng.Uniform(0, size - sub_offset);
    const Bitmap sub = matches.Extract(sub_offset, sub_len);
    ASSERT_EQ(sub.size(), sub_len);
    for (size_t i = 0; i < sub_len; ++i) {
      ASSERT_EQ(sub.Test(i), matches.Test(sub_offset + i)) << "bit " << i;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(GatherDifferentialTest, GatherEqualsGetLoopDispatchMode) {
  RunGatherMode(/*force_scalar=*/false, /*seed=*/20261017);
}

TEST(GatherDifferentialTest, GatherEqualsGetLoopScalarMode) {
  RunGatherMode(/*force_scalar=*/true, /*seed=*/1017);
}

// Every stored bit pattern comes back unchanged in both modes, and a NULL
// reads as exactly the quiet NaN the per-record fetch wrote.
TEST(GatherDifferentialTest, SpecialValuesCopiedBitForBit) {
  const std::vector<uint64_t> patterns = {
      0x8000000000000000ull, 0x7ff0000000000000ull, 0xfff0000000000000ull,
      0x7ff8000000000123ull, 0xfff8000000abcdefull, 0x7ff0000000000001ull};
  Bitmap presence(131);
  std::vector<double> values;
  for (size_t i = 0; i < patterns.size(); ++i) {
    presence.Set(i * 20 + 3);
    values.push_back(FromBits(patterns[i]));
  }
  auto column = MeasureColumn::FromParts(presence, values);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  Bitmap matches(131);
  matches.Fill();
  for (const bool force : {false, true}) {
    ScopedForceScalar mode(force);
    std::vector<double> got(131);
    column.value().Gather(matches, got.data());
    size_t stored = 0;
    for (size_t r = 0; r < 131; ++r) {
      const uint64_t want =
          presence.Test(r)
              ? patterns[stored++]
              : Bits(std::numeric_limits<double>::quiet_NaN());
      EXPECT_EQ(Bits(got[r]), want) << "record " << r << " scalar=" << force;
    }
  }
}

TEST(GatherDifferentialTest, PopcountWordsAgreesAcrossModes) {
  Rng rng(77);
  for (size_t iter = 0; iter < 50; ++iter) {
    const Bitmap b = RandomBitmap(rng, RandomSize(rng));
    size_t want = 0;
    b.ForEachSetBit([&](size_t) { ++want; });
    for (const bool force : {false, true}) {
      ScopedForceScalar mode(force);
      EXPECT_EQ(simd::PopcountWords(b.words().data(), b.words().size()), want);
      EXPECT_EQ(b.Count(), want);
    }
  }
}

}  // namespace
}  // namespace colgraph
