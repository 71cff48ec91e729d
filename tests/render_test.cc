// Pins the bytes of the daemon's response bodies. RenderAggResult and
// RenderMatchResult write numbers straight into the body; they must
// produce exactly what the renderers they replaced produced, which are
// kept here as the reference: values through printf's "%.17g" and record
// ids and counts through std::to_string.
//
// Inputs: 2^20 random bit patterns (every exponent, NaN payloads and
// subnormals included); +-0, +-inf, quiet and signaling NaNs of both
// signs, subnormals and DBL_MAX; values around the 1e-5/1e-4 and
// 1e16/1e17 switches between fixed and exponent notation.
//
// The differential (RenderDifferentialTest) aims at the values the exact
// kernel (WriteFixed17g) takes: only about 2.5% of random bit patterns
// fall in its range, so it draws each class below on purpose, checks the
// kernel's bytes and RenderAggResult's against both printf and
// std::to_chars, and checks that the kernel takes exactly the values it
// should — every normal 1e-4 <= |v| < 1e16 except exact ties, which an
// exact decimal expansion identifies. COLGRAPH_DIFF_ITERS scales the
// values per class.
#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "server/daemon.h"
#include "util/random.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id) { return NodeRef{id, 0}; }

double FromBits(uint64_t u) {
  double v = 0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

std::string Format17g(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string ToChars17(double v) {
  char buffer[64];
  return std::string(buffer, std::to_chars(buffer, buffer + sizeof(buffer), v,
                                           std::chars_format::general, 17)
                                 .ptr);
}

std::string ReferenceRenderAgg(const PathAggResult& result, AggFn fn,
                               std::string (*format)(double) = Format17g) {
  std::string out = std::string(AggFnName(fn)) + " over " +
                    std::to_string(result.records.size()) + " record(s), " +
                    std::to_string(result.paths.size()) + " path(s)\n";
  for (size_t p = 0; p < result.paths.size(); ++p) {
    out += "path " + result.paths[p].ToString() + ":";
    for (const double v : result.values[p]) {
      out += ' ';
      out += format(v);
    }
    out += "\n";
  }
  return out;
}

std::string ReferenceRenderMatch(const Bitmap& matches) {
  std::string out = "match " + std::to_string(matches.Count()) + ":";
  matches.ForEachSetBit([&](size_t r) { out += " r" + std::to_string(r); });
  out += "\n";
  return out;
}

// Every value whose rendering could differ: signs of zero, infinities,
// NaNs (quiet, signaling, with payloads, both signs), subnormals, the
// extremes, and each side of the notation switches of %.17g.
std::vector<double> EdgeValues() {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      FromBits(0x7ff0000000000001ull),  // signaling NaN
      FromBits(0xfff0000000000001ull),  // negative signaling NaN
      FromBits(0x7ff8000000000123ull),  // quiet NaN with a payload
      FromBits(0x0000000000000001ull),  // smallest subnormal
      FromBits(0x000fffffffffffffull),  // largest subnormal
      FromBits(0x8000000000000001ull),
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      1.0,
      -1.0,
      0.1,
      123.456,
      1e300,
      1e-300,
  };
  for (const double pivot : {1e-5, 1e-4, 1e16, 1e17}) {
    double below = pivot;
    double above = pivot;
    for (int step = 0; step < 4; ++step) {
      values.push_back(below);
      values.push_back(-below);
      values.push_back(above);
      values.push_back(-above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::infinity());
    }
  }
  // Integers whose digit count crosses 17 significant digits.
  for (double v = 1; v < 1e19; v *= 10) {
    values.push_back(v - 1);
    values.push_back(v + 1);
  }
  return values;
}

TEST(RenderTest, AggResultMatchesPrintfReference) {
  PathAggResult result;
  result.paths.push_back(Path({N(1), N(2), N(3)}));
  result.paths.push_back(
      Path({N(4), N(5), N(7)}, /*start_open=*/true, /*end_open=*/true));
  result.paths.push_back(Path({N(9)}, /*start_open=*/false,
                              /*end_open=*/true));
  result.values.push_back(EdgeValues());
  Rng rng(17);
  result.values.emplace_back();
  for (size_t i = 0; i < (size_t{1} << 20); ++i) {
    result.values.back().push_back(
        FromBits(rng.Uniform(0, std::numeric_limits<uint64_t>::max())));
  }
  result.values.emplace_back();  // a path no record matched
  for (size_t r = 0; r < result.values[1].size(); ++r) {
    result.records.push_back(r * 3);
  }
  for (const AggFn fn : {AggFn::kSum, AggFn::kCount, AggFn::kMin,
                         AggFn::kMax, AggFn::kAvg}) {
    ASSERT_EQ(server::RenderAggResult(result, fn),
              ReferenceRenderAgg(result, fn))
        << AggFnName(fn);
  }
}

TEST(RenderTest, EveryEdgeValueRendersLikePrintf) {
  for (const double v : EdgeValues()) {
    PathAggResult result;
    result.paths.push_back(Path({N(1), N(2)}));
    result.values.push_back({v});
    result.records.push_back(0);
    EXPECT_EQ(server::RenderAggResult(result, AggFn::kSum),
              ReferenceRenderAgg(result, AggFn::kSum))
        << Format17g(v);
  }
}

TEST(RenderTest, EmptyAggResult) {
  const PathAggResult result;
  EXPECT_EQ(server::RenderAggResult(result, AggFn::kMax),
            "MAX over 0 record(s), 0 path(s)\n");
  EXPECT_EQ(server::RenderAggResult(result, AggFn::kMax),
            ReferenceRenderAgg(result, AggFn::kMax));
}

TEST(RenderTest, MatchResultMatchesReference) {
  Rng rng(18);
  for (const size_t size : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                            size_t{1000}, size_t{70001},
                            size_t{12345679}}) {
    for (const double density : {0.0, 0.001, 0.5, 1.0}) {
      Bitmap matches(size);
      if (size <= 70001) {
        for (size_t r = 0; r < size; ++r) {
          if (rng.Bernoulli(density)) matches.Set(r);
        }
      } else if (density > 0) {
        // Sparse draws over a large domain: ids of up to eight digits.
        for (size_t k = 0; k < 2000; ++k) {
          matches.Set(rng.Uniform(0, size - 1));
        }
        matches.Set(size - 1);
      }
      ASSERT_EQ(server::RenderMatchResult(matches),
                ReferenceRenderMatch(matches))
          << "size " << size << " density " << density;
    }
  }
}

size_t IterationsFromEnv(size_t default_iters) {
  const char* s = std::getenv("COLGRAPH_DIFF_ITERS");
  if (s == nullptr) return default_iters;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

std::string BitsOf(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(u));
  return buffer;
}

// Whether the kernel must take `v`: a normal value with 1e-4 <= |v| <
// 1e16 whose exact decimal expansion (glibc prints it in full) does not
// end in an exact half after the 17th significant digit. No double in
// the range rounds 17 nines up into an 18th digit, so none is excluded
// for a carry.
bool KernelTakes(double v) {
  const double a = std::fabs(v);
  if (!std::isnormal(a) || a < 1e-4 || a >= 1e16) return false;
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%.90e", a);  // d.ddd...e+XX
  const std::string after17 = std::string(buffer + 18, std::strchr(buffer, 'e'));
  return !(after17[0] == '5' &&
           after17.find_first_not_of('0', 1) == std::string::npos);
}

struct ValueClass {
  const char* name;
  std::vector<double> values;
};

// Each class aims at a different way the kernel can go wrong. Every class
// holds both signs of each value.
std::vector<ValueClass> DifferentialClasses(size_t n) {
  Rng rng(23);
  std::vector<ValueClass> classes;
  const auto add = [&classes](double v) {
    classes.back().values.push_back(v);
    classes.back().values.push_back(-v);
  };

  // Random significands, binary exponents uniform over the kernel's range.
  classes.push_back({"random significands in range", {}});
  while (classes.back().values.size() < 2 * n) {
    const uint64_t exponent = rng.Uniform(1023 - 14, 1023 + 53);
    const double v = FromBits((exponent << 52) |
                              rng.Uniform(0, (uint64_t{1} << 52) - 1));
    if (v >= 1e-4 && v < 1e16) add(v);
  }

  // Short decimals k / 10^j, as measures are typed.
  classes.push_back({"decimals k/10^j", {}});
  for (size_t i = 0; i < n; ++i) {
    const uint64_t digits = rng.Uniform(1, 9);
    uint64_t k = rng.Uniform(1, 9);
    for (uint64_t d = 1; d < digits; ++d) k = k * 10 + rng.Uniform(0, 9);
    const int j = static_cast<int>(rng.Uniform(0, 12));
    add(static_cast<double>(k) / std::pow(10.0, j));
  }

  // Integers up to 2^53, magnitudes spread over every digit count.
  classes.push_back({"integers up to 2^53", {}});
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = rng.Uniform(1, 53);
    add(static_cast<double>(
        rng.Uniform(uint64_t{1} << (bits - 1), (uint64_t{1} << bits) - 1)));
  }

  // +-4 ulps around every power of ten from 1e-5 to 1e17: both sides of
  // each k estimate's correction and of the range's two ends.
  classes.push_back({"ulps around powers of ten", {}});
  for (int j = -5; j <= 17; ++j) {
    const std::string text = "1e" + std::to_string(j);
    double below = std::strtod(text.c_str(), nullptr);
    double above = below;
    for (int step = 0; step <= 4; ++step) {
      add(below);
      add(above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::infinity());
    }
  }

  // Exact ties at the 17th digit, which round half to even: N + 0.25 and
  // N + 0.75 for N in [2^50, 2^51) (one decimal), N + 0.125 and N + 0.375
  // for N in [2^49, 2^50) (two decimals).
  classes.push_back({"exact ties", {}});
  for (size_t i = 0; i < n / 4 + 1; ++i) {
    const double n50 = static_cast<double>(
        rng.Uniform(uint64_t{1} << 50, (uint64_t{1} << 51) - 1));
    const double n49 = static_cast<double>(
        rng.Uniform(uint64_t{1} << 49, (uint64_t{1} << 50) - 1));
    add(n50 + 0.25);
    add(n50 + 0.75);
    add(n49 + 0.125);
    add(n49 + 0.375);
  }

  // SUMs shaped like a served path aggregate: 8-25 measures in [0, 100).
  classes.push_back({"path sums", {}});
  for (size_t i = 0; i < n; ++i) {
    double sum = 0;
    const uint64_t terms = rng.Uniform(8, 25);
    for (uint64_t t = 0; t < terms; ++t) sum += rng.UniformReal(0, 100);
    add(sum);
  }
  return classes;
}

TEST(RenderDifferentialTest, KernelMatchesPrintfAndToChars) {
  const std::vector<ValueClass> classes =
      DifferentialClasses(IterationsFromEnv(size_t{1} << 15));
  for (const ValueClass& value_class : classes) {
    size_t taken = 0;
    for (const double v : value_class.values) {
      const std::string printf_bytes = Format17g(v);
      ASSERT_EQ(printf_bytes, ToChars17(v))
          << value_class.name << ": printf and to_chars disagree on "
          << BitsOf(v);
      char buffer[server::kMaxValueChars];
      ASSERT_EQ(std::string(buffer, server::WriteValue17g(buffer, v)),
                printf_bytes)
          << value_class.name << ": " << BitsOf(v);
      char* end = server::WriteFixed17g(buffer, v);
#ifdef __SIZEOF_INT128__
      ASSERT_EQ(end != nullptr, KernelTakes(v))
          << value_class.name << ": the kernel "
          << (end != nullptr ? "took " : "declined ") << printf_bytes << " ("
          << BitsOf(v) << ")";
#endif
      if (end != nullptr) {
        ++taken;
        ASSERT_EQ(std::string(buffer, end), printf_bytes)
            << value_class.name << ": " << BitsOf(v);
      }
    }
    std::printf("%-30s %zu values, %zu through the kernel\n", value_class.name,
                value_class.values.size(), taken);
  }
}

TEST(RenderDifferentialTest, AggResultOverTheClassesMatchesBothReferences) {
  const std::vector<ValueClass> classes =
      DifferentialClasses(IterationsFromEnv(size_t{1} << 15));
  PathAggResult result;
  NodeId node = 1;
  for (const ValueClass& value_class : classes) {
    result.paths.push_back(Path({N(node), N(node + 1)}));
    result.values.push_back(value_class.values);
    node += 2;
  }
  result.records = {0, 1, 2};
  const std::string body = server::RenderAggResult(result, AggFn::kSum);
  EXPECT_EQ(body, ReferenceRenderAgg(result, AggFn::kSum));
  EXPECT_EQ(body, ReferenceRenderAgg(result, AggFn::kSum, ToChars17));
}

}  // namespace
}  // namespace colgraph
