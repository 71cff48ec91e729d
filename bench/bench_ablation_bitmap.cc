// Ablation: plain word-parallel bitmaps vs the container codec
// (HybridBitmap) for the core operation of the system (ANDing bitmap
// columns), across record densities, plus the codec's on-disk size.
// Justifies the design choice in DESIGN.md: plain words in memory for the
// dense AND loop, containers for sparse columns and for every bitmap on
// disk.
#include <benchmark/benchmark.h>

#include "bitmap/bitmap.h"
#include "bitmap/hybrid_bitmap.h"
#include "util/random.h"

namespace colgraph {
namespace {

Bitmap RandomBitmap(size_t bits, double density, uint64_t seed) {
  Rng rng(seed);
  Bitmap b(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(density)) b.Set(i);
  }
  return b;
}

void BM_PlainAnd(benchmark::State& state) {
  const size_t bits = 1 << 20;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  const Bitmap a = RandomBitmap(bits, density, 1);
  const Bitmap b = RandomBitmap(bits, density, 2);
  for (auto _ : state) {
    Bitmap r = a;
    r.And(b);
    benchmark::DoNotOptimize(r.Count());
  }
  state.SetLabel("density=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_PlainAnd)->Arg(1)->Arg(10)->Arg(50);

void BM_ContainerAnd(benchmark::State& state) {
  const size_t bits = 1 << 20;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  const HybridBitmap a =
      HybridBitmap::FromBitmap(RandomBitmap(bits, density, 1));
  const HybridBitmap b =
      HybridBitmap::FromBitmap(RandomBitmap(bits, density, 2));
  for (auto _ : state) {
    const HybridBitmap r = HybridBitmap::And(a, b);
    benchmark::DoNotOptimize(r.Count());
  }
  state.SetLabel("density=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_ContainerAnd)->Arg(1)->Arg(10)->Arg(50);

void BM_ContainerEncodedSize(benchmark::State& state) {
  const size_t bits = 1 << 20;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  const Bitmap plain = RandomBitmap(bits, density, 3);
  size_t encoded_bytes = 0;
  for (auto _ : state) {
    encoded_bytes =
        HybridBitmap::FromBitmap(plain).ToRaw().size() * sizeof(uint64_t);
    benchmark::DoNotOptimize(encoded_bytes);
  }
  state.counters["plain_bytes"] = static_cast<double>(plain.MemoryBytes());
  state.counters["container_bytes"] = static_cast<double>(encoded_bytes);
}
BENCHMARK(BM_ContainerEncodedSize)->Arg(1)->Arg(10)->Arg(50);

}  // namespace
}  // namespace colgraph

BENCHMARK_MAIN();
