// Differential harness for the measure-fetch gather kernel: MeasureColumn::
// Gather (simd::GatherIds, one presence word and one rank entry per record
// id) against the per-record MeasureColumn::Get loop it replaced. Presence
// bitmaps and the records listed are drawn at densities 0, 1/1000, 1/64,
// 1/2 and 1, over sizes that are not multiples of 64, with listed records
// the column does not hold (they must read NaN and count as NULLs). The
// ids sit at a base of 0, an unaligned base or one past 2^32, as a
// segment's global ids do, and any sub-range of the list (a fold block)
// must gather the same rows. Stored values include -0.0, NaN payloads and
// infinities, and every comparison is bit for bit. Two shapes pin down
// that a NULL reads no value: NULLs after a column's last value, whose
// rank is one past the end of the values, and a column with no values at
// all, whose value array is null.
//
// Everything runs in both dispatch modes (hardware popcount and scalar);
// the iteration count per mode scales with COLGRAPH_DIFF_ITERS.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
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

const uint64_t kNullBits = Bits(std::numeric_limits<double>::quiet_NaN());

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

// A segment's base: 0 (the primary), a base that is rarely word-aligned,
// or one past 2^32.
uint64_t RandomBase(Rng& rng) {
  switch (rng.Uniform(0, 2)) {
    case 0:
      return 0;
    case 1:
      return rng.Uniform(1, 130);
    default:
      return (uint64_t{1} << 32) + rng.Uniform(1, 63);
  }
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

MeasureColumn ColumnOf(const Bitmap& presence, std::vector<double> values) {
  auto column = MeasureColumn::FromParts(presence, std::move(values));
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  return std::move(column).value();
}

// The column holding `presence`, one random value per set bit.
MeasureColumn RandomColumn(Rng& rng, const Bitmap& presence) {
  std::vector<double> values(presence.Count());
  for (double& v : values) v = RandomValue(rng);
  return ColumnOf(presence, std::move(values));
}

// The global ids of the records set in `matches`, at `base`.
std::vector<uint64_t> IdsAt(const Bitmap& matches, uint64_t base) {
  std::vector<uint64_t> ids;
  matches.ForEachSetBit([&](size_t r) { ids.push_back(base + r); });
  return ids;
}

// The per-record fetch Gather replaced: Get, NaN for NULL.
std::vector<double> GetLoop(const MeasureColumn& column,
                            const std::vector<uint64_t>& ids, uint64_t base) {
  std::vector<double> out;
  for (const uint64_t id : ids) {
    const auto v = column.Get(id - base);
    out.push_back(v.has_value() ? *v
                                : std::numeric_limits<double>::quiet_NaN());
  }
  return out;
}

// Gathers ids[first, first + len) and checks every row against `want`
// (the whole list's per-record fetch) bit for bit, and the NULL count
// against the records Get finds no value for.
void ExpectGatherMatches(const MeasureColumn& column,
                         const std::vector<uint64_t>& ids, uint64_t base,
                         const std::vector<double>& want, size_t first,
                         size_t len) {
  std::vector<double> got(len);
  const size_t nulls = column.Gather(ids.data() + first, len, base, got.data());
  size_t want_nulls = 0;
  for (size_t i = 0; i < len; ++i) {
    ASSERT_EQ(Bits(want[first + i]), Bits(got[i])) << "row " << first + i;
    if (!column.Get(ids[first + i] - base).has_value()) ++want_nulls;
  }
  EXPECT_EQ(nulls, want_nulls) << "rows [" << first << ", " << first + len
                               << ")";
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
    // Half the draws list only stored records; the rest also list records
    // the column does not hold.
    Bitmap matches = RandomBitmap(rng, size);
    if (rng.Bernoulli(0.5)) matches.And(column.presence().bits());
    const uint64_t base = RandomBase(rng);
    const std::vector<uint64_t> ids = IdsAt(matches, base);
    const std::vector<double> want = GetLoop(column, ids, base);

    ExpectGatherMatches(column, ids, base, want, 0, ids.size());
    // A block of the list, cut anywhere, as the fold gathers it.
    const size_t first = rng.Uniform(0, ids.size());
    const size_t len = rng.Uniform(0, ids.size() - first);
    ExpectGatherMatches(column, ids, base, want, first, len);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(GatherDifferentialTest, GatherEqualsGetLoopDispatchMode) {
  RunGatherMode(/*force_scalar=*/false, /*seed=*/20261017);
}

TEST(GatherDifferentialTest, GatherEqualsGetLoopScalarMode) {
  RunGatherMode(/*force_scalar=*/true, /*seed=*/1017);
}

// Every stored bit pattern comes back unchanged in both modes and at
// every base, and a NULL reads as exactly the quiet NaN the per-record
// fetch wrote.
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
  const MeasureColumn column = ColumnOf(presence, values);
  Bitmap matches(131);
  matches.Fill();
  for (const bool force : {false, true}) {
    ScopedForceScalar mode(force);
    for (const uint64_t base : {uint64_t{0}, uint64_t{77}}) {
      const std::vector<uint64_t> ids = IdsAt(matches, base);
      std::vector<double> got(131);
      EXPECT_EQ(column.Gather(ids.data(), ids.size(), base, got.data()),
                131 - patterns.size());
      size_t stored = 0;
      for (size_t r = 0; r < 131; ++r) {
        const uint64_t want = presence.Test(r) ? patterns[stored++] : kNullBits;
        EXPECT_EQ(Bits(got[r]), want)
            << "record " << r << " base " << base << " scalar=" << force;
      }
    }
  }
}

// Records after a column's last value have rank one past the end of its
// values: a NULL there must read no value (ASan reports a load past the
// end even where it does not crash).
TEST(GatherDifferentialTest, NullsPastTheLastValueReadNoValue) {
  for (const bool force : {false, true}) {
    ScopedForceScalar mode(force);
    for (const size_t size : std::initializer_list<size_t>{1, 2, 63, 64, 65,
                                                            130, 4097}) {
      Bitmap presence(size);
      presence.Set(0);
      const MeasureColumn column = ColumnOf(presence, {2.5});
      Bitmap matches(size);
      matches.Fill();
      for (const uint64_t base : {uint64_t{0}, uint64_t{7}}) {
        const std::vector<uint64_t> ids = IdsAt(matches, base);
        std::vector<double> got(size);
        EXPECT_EQ(column.Gather(ids.data(), size, base, got.data()), size - 1);
        EXPECT_EQ(got[0], 2.5);
        for (size_t r = 1; r < size; ++r) {
          ASSERT_EQ(Bits(got[r]), kNullBits)
              << "record " << r << " size " << size << " scalar=" << force;
        }
      }
    }
  }
}

// A column with no values at all: every record is NULL and the value
// array is never read, not even when it is null.
TEST(GatherDifferentialTest, ColumnWithoutValuesReadsOnlyNulls) {
  for (const bool force : {false, true}) {
    ScopedForceScalar mode(force);
    for (const size_t size : std::initializer_list<size_t>{1, 64, 65, 1000}) {
      const MeasureColumn column = ColumnOf(Bitmap(size), {});
      Bitmap matches(size);
      matches.Fill();
      for (const uint64_t base : {uint64_t{0}, uint64_t{65}}) {
        const std::vector<uint64_t> ids = IdsAt(matches, base);
        std::vector<double> got(size, 1.0);
        EXPECT_EQ(column.Gather(ids.data(), size, base, got.data()), size);
        std::vector<double> raw(size, 1.0);
        EXPECT_EQ(simd::GatherIds(ids.data(), size, base,
                                  column.presence().bits().words().data(),
                                  column.presence().rank_directory().data(),
                                  /*values=*/nullptr, raw.data()),
                  size);
        for (size_t r = 0; r < size; ++r) {
          ASSERT_EQ(Bits(got[r]), kNullBits) << "record " << r;
          ASSERT_EQ(Bits(raw[r]), kNullBits) << "record " << r;
        }
      }
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
