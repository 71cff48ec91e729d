// Pins the bytes of the daemon's response bodies. RenderAggResult and
// RenderMatchResult write numbers straight into the body with
// std::to_chars; they must produce exactly what the renderers they
// replaced produced, which are kept here as the reference: values through
// printf's "%.17g" and record ids and counts through std::to_string.
//
// Inputs: 2^20 random bit patterns (every exponent, NaN payloads and
// subnormals included); +-0, +-inf, quiet and signaling NaNs of both
// signs, subnormals and DBL_MAX; values around the 1e-5/1e-4 and
// 1e16/1e17 switches between fixed and exponent notation.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
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

std::string ReferenceRenderAgg(const PathAggResult& result, AggFn fn) {
  std::string out = std::string(AggFnName(fn)) + " over " +
                    std::to_string(result.records.size()) + " record(s), " +
                    std::to_string(result.paths.size()) + " path(s)\n";
  for (size_t p = 0; p < result.paths.size(); ++p) {
    out += "path " + result.paths[p].ToString() + ":";
    for (const double v : result.values[p]) {
      out += ' ';
      out += Format17g(v);
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

}  // namespace
}  // namespace colgraph
