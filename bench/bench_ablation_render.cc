// Ablation: the cost of rendering one served aggregate value as "%.17g"
// text, through the daemon's exact fixed-notation kernel
// (server::WriteValue17g) against std::to_chars(general, 17) and printf.
// The values are SUMs of 8-25 measures drawn from [0, 100), the shape of
// a served path aggregate, so every one of them takes the kernel. The
// time per iteration is for one value.
#include <benchmark/benchmark.h>

#include <charconv>
#include <cstdio>
#include <vector>

#include "server/daemon.h"
#include "util/random.h"

namespace colgraph {
namespace {

std::vector<double> PathSums(size_t n) {
  Rng rng(7);
  std::vector<double> sums;
  for (size_t i = 0; i < n; ++i) {
    double sum = 0;
    const uint64_t terms = rng.Uniform(8, 25);
    for (uint64_t t = 0; t < terms; ++t) sum += rng.UniformReal(0, 100);
    sums.push_back(sum);
  }
  return sums;
}

template <typename Render>
void RenderEach(benchmark::State& state, Render render) {
  const std::vector<double> values = PathSums(4096);
  char buffer[64];
  size_t i = 0;
  for (auto _ : state) {
    char* end = render(buffer, values[i]);
    benchmark::DoNotOptimize(end);
    benchmark::ClobberMemory();
    i = (i + 1) % values.size();
  }
}

void BM_Kernel(benchmark::State& state) {
  RenderEach(state, [](char* out, double v) {
    return server::WriteValue17g(out, v);
  });
}
BENCHMARK(BM_Kernel);

void BM_ToChars(benchmark::State& state) {
  RenderEach(state, [](char* out, double v) {
    return std::to_chars(out, out + 64, v, std::chars_format::general, 17)
        .ptr;
  });
}
BENCHMARK(BM_ToChars);

void BM_Snprintf(benchmark::State& state) {
  RenderEach(state, [](char* out, double v) {
    return out + std::snprintf(out, 64, "%.17g", v);
  });
}
BENCHMARK(BM_Snprintf);

}  // namespace
}  // namespace colgraph

BENCHMARK_MAIN();
