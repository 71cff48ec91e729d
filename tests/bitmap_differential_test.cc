// Property-based differential harness for the two bitmap implementations:
// randomized op sequences drive Bitmap and HybridBitmap against a
// std::vector<bool> oracle, over
// adversarial density classes (empty, full, single-bit, run-heavy,
// alternating, sparse, dense) and lengths that straddle every container
// boundary (word edges, the 2^16-bit chunk edge, unaligned tails). Each
// step checks membership, cardinality, full bit-for-bit equality, and the
// serialized round-trip of the container codec. The whole sequence runs
// twice — once per SIMD dispatch mode — so the AVX2 and scalar kernels are
// differentially tested against each other as well as against the oracle.
//
// Iteration count scales with COLGRAPH_DIFF_ITERS (per mode); the
// acceptance run drives >= 100k sequences under ASan/UBSan in both modes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bitmap/bitmap.h"
#include "bitmap/hybrid_bitmap.h"
#include "bitmap/simd.h"
#include "util/random.h"

namespace colgraph {
namespace {

using Oracle = std::vector<bool>;

size_t IterationsFromEnv(size_t default_iters) {
  const char* s = std::getenv("COLGRAPH_DIFF_ITERS");
  if (s == nullptr) return default_iters;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

// Lengths biased toward the boundaries that matter: word edges, the
// 2^16-bit chunk edge, and unaligned tails on both sides of each.
size_t RandomSize(Rng& rng) {
  static const size_t kSizes[] = {0,     1,     63,    64,    65,    127,
                                  1000,  4096,  65535, 65536, 65537, 70000,
                                  131071, 131072, 131073, 200000};
  if (rng.Bernoulli(0.5)) {
    return kSizes[rng.Uniform(0, std::size(kSizes) - 1)];
  }
  return static_cast<size_t>(rng.Uniform(0, 200000));
}

Oracle RandomOracle(Rng& rng, size_t size) {
  Oracle o(size, false);
  if (size == 0) return o;
  switch (rng.Uniform(0, 6)) {
    case 0:  // empty
      break;
    case 1:  // full
      o.assign(size, true);
      break;
    case 2:  // single bit
      o[rng.Uniform(0, size - 1)] = true;
      break;
    case 3: {  // run-heavy: alternating set/clear runs of random lengths
      size_t pos = 0;
      bool value = rng.Bernoulli(0.5);
      while (pos < size) {
        const size_t len = rng.Uniform(1, 300);
        for (size_t i = 0; i < len && pos < size; ++i, ++pos) o[pos] = value;
        value = !value;
      }
      break;
    }
    case 4: {  // alternating with a short period (worst case for runs)
      const size_t period = rng.Uniform(1, 3);
      for (size_t i = 0; i < size; ++i) o[i] = (i / period) % 2 == 0;
      break;
    }
    case 5: {  // sparse (the hybrid array/run regime)
      const double density = 1.0 / static_cast<double>(rng.Uniform(64, 4096));
      for (size_t i = 0; i < size; ++i) o[i] = rng.Bernoulli(density);
      break;
    }
    default: {  // dense random
      const double density = rng.UniformReal(0.05, 0.95);
      for (size_t i = 0; i < size; ++i) o[i] = rng.Bernoulli(density);
      break;
    }
  }
  return o;
}

Bitmap ToPlain(const Oracle& o) {
  Bitmap b(o.size());
  for (size_t i = 0; i < o.size(); ++i) {
    if (o[i]) b.Set(i);
  }
  return b;
}

size_t OracleCount(const Oracle& o) {
  size_t n = 0;
  for (const bool bit : o) n += bit ? 1 : 0;
  return n;
}

// Both implementations and the container codec must agree with the oracle.
void CheckAgainstOracle(const Oracle& oracle, Rng& rng,
                        const std::string& what) {
  SCOPED_TRACE(what + " size=" + std::to_string(oracle.size()));
  const Bitmap plain = ToPlain(oracle);
  const size_t count = OracleCount(oracle);
  ASSERT_EQ(plain.Count(), count);

  const HybridBitmap hybrid = HybridBitmap::FromBitmap(plain);
  ASSERT_EQ(hybrid.Count(), count);
  ASSERT_EQ(hybrid.None(), count == 0);
  ASSERT_EQ(hybrid.ToBitmap(), plain);
  const auto hybrid_rt =
      HybridBitmap::FromRawChecked(hybrid.ToRaw(), hybrid.size_bits());
  ASSERT_TRUE(hybrid_rt.ok()) << hybrid_rt.status().ToString();
  ASSERT_TRUE(hybrid_rt.value() == hybrid);  // representation-exact
  ASSERT_EQ(hybrid_rt.value().ToBitmap(), plain);

  // Membership probes at random positions.
  if (!oracle.empty()) {
    const Bitmap decoded = hybrid.ToBitmap();
    for (int probe = 0; probe < 16; ++probe) {
      const size_t pos = rng.Uniform(0, oracle.size() - 1);
      ASSERT_EQ(decoded.Test(pos), oracle[pos]) << "pos=" << pos;
      ASSERT_EQ(plain.Test(pos), oracle[pos]) << "pos=" << pos;
    }
  }
}

Oracle OracleAnd(const Oracle& a, const Oracle& b) {
  Oracle out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] && b[i];
  return out;
}

Oracle OracleOr(const Oracle& a, const Oracle& b) {
  Oracle out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] || b[i];
  return out;
}

// One randomized sequence: two operands, then a few AND/OR steps, each
// checked through every implementation and both in-place kernels.
void RunSequence(Rng& rng) {
  const size_t size = RandomSize(rng);
  Oracle a = RandomOracle(rng, size);
  CheckAgainstOracle(a, rng, "operand a");

  const size_t ops = rng.Uniform(1, 4);
  for (size_t op = 0; op < ops; ++op) {
    const Oracle b = RandomOracle(rng, size);
    CheckAgainstOracle(b, rng, "operand b");
    const bool is_and = rng.Bernoulli(0.5);
    const Oracle expected = is_and ? OracleAnd(a, b) : OracleOr(a, b);
    const Bitmap expected_plain = ToPlain(expected);

    const Bitmap pa = ToPlain(a);
    const Bitmap pb = ToPlain(b);
    const HybridBitmap ha = HybridBitmap::FromBitmap(pa);
    const HybridBitmap hb = HybridBitmap::FromBitmap(pb);

    // Compressed-domain conjunction.
    if (is_and) {
      const HybridBitmap hr = HybridBitmap::And(ha, hb);
      ASSERT_EQ(hr.Count(), OracleCount(expected));
      ASSERT_EQ(hr.ToBitmap(), expected_plain);
      // The compressed result must itself round-trip through the codec.
      const auto rt = HybridBitmap::FromRawChecked(hr.ToRaw(), hr.size_bits());
      ASSERT_TRUE(rt.ok()) << rt.status().ToString();
      ASSERT_EQ(rt.value().ToBitmap(), expected_plain);
    }

    // In-place hybrid-onto-plain kernels (the engine's AND loop shape).
    Bitmap inplace = pa;
    if (is_and) {
      hb.AndInto(&inplace);
    } else {
      hb.OrInto(&inplace);
    }
    ASSERT_EQ(inplace, expected_plain);

    // Word-parallel plain op as an additional witness.
    Bitmap words = pa;
    if (is_and) {
      words.And(pb);
    } else {
      words.Or(pb);
    }
    ASSERT_EQ(words, expected_plain);

    a = expected;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) {
    simd::SetForceScalarForTest(force);
  }
  ~ScopedForceScalar() { simd::SetForceScalarForTest(false); }
};

void RunMode(bool force_scalar, uint64_t seed) {
  ScopedForceScalar mode(force_scalar);
  const size_t iters = IterationsFromEnv(600);
  Rng rng(seed);
  for (size_t i = 0; i < iters; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i) +
                 (force_scalar ? " (scalar)" : " (dispatch)"));
    RunSequence(rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BitmapDifferentialTest, RandomSequencesDispatchMode) {
  RunMode(/*force_scalar=*/false, /*seed=*/20260808);
}

TEST(BitmapDifferentialTest, RandomSequencesScalarMode) {
  RunMode(/*force_scalar=*/true, /*seed=*/997);
}

// The two dispatch modes must produce identical serialized bytes, not just
// equal sets: a differential check of the kernels against each other.
TEST(BitmapDifferentialTest, SimdAndScalarBytesIdentical) {
  Rng rng(42);
  for (size_t iter = 0; iter < 50; ++iter) {
    const size_t size = RandomSize(rng);
    const Bitmap pa = ToPlain(RandomOracle(rng, size));
    const Bitmap pb = ToPlain(RandomOracle(rng, size));
    const HybridBitmap ha = HybridBitmap::FromBitmap(pa);
    const HybridBitmap hb = HybridBitmap::FromBitmap(pb);

    std::vector<uint64_t> raw_simd, raw_scalar;
    Bitmap inplace_simd = pa, inplace_scalar = pa;
    {
      ScopedForceScalar mode(false);
      raw_simd = HybridBitmap::And(ha, hb).ToRaw();
      hb.AndInto(&inplace_simd);
    }
    {
      ScopedForceScalar mode(true);
      raw_scalar = HybridBitmap::And(ha, hb).ToRaw();
      hb.AndInto(&inplace_scalar);
    }
    ASSERT_EQ(raw_simd, raw_scalar) << "iter=" << iter;
    ASSERT_EQ(inplace_simd, inplace_scalar) << "iter=" << iter;
  }
}

}  // namespace
}  // namespace colgraph
