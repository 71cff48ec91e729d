// Runtime-dispatched word kernels shared by the bitmap containers, the
// measure fetch and the checksums: AND/OR over arrays of 64-bit words
// (AVX2 when the CPU has it), popcount over arrays of words, the list
// gather behind MeasureColumn::Gather (hardware popcount when the CPU has
// it) and the CRC-32C update behind util/crc32.h (the SSE4.2 crc32
// instruction when the CPU has it). Each falls back to a portable scalar
// kernel otherwise. Two knobs force the scalar kernels: the
// COLGRAPH_NO_SIMD environment variable (read once per process, for
// whole-run jobs like the sanitizer CI legs) and SetForceScalarForTest (an
// in-process switch the differential tests flip so one binary exercises
// both kernels).
#pragma once

#include <cstddef>
#include <cstdint>

namespace colgraph::simd {

/// dst[i] &= src[i] for i in [0, n).
void AndWords(uint64_t* dst, const uint64_t* src, size_t n);

/// dst[i] |= src[i] for i in [0, n).
void OrWords(uint64_t* dst, const uint64_t* src, size_t n);

/// Number of set bits in words[0, n).
size_t PopcountWords(const uint64_t* words, size_t n);

/// Gathers packed values for a list of ascending record ids, one id at a
/// time. For each i in [0, n), r = ids[i] - base is a bit of `presence`:
/// when it is set, out[i] = values[rank[r / 64] + popcount(presence[r / 64]
/// & (2^(r % 64) - 1))], copied bit for bit; otherwise out[i] is a quiet
/// NaN and no value is read. `rank[w]` is the number of set bits in
/// presence[0, w) (BitmapColumn's rank directory). Returns how many ids
/// read NaN because their presence bit is clear.
size_t GatherIds(const uint64_t* ids, size_t n, uint64_t base,
                 const uint64_t* presence, const uint32_t* rank,
                 const double* values, double* out);

/// Extends a CRC-32C (Castagnoli) register over data[0, n) and returns it.
/// `crc` is the raw register, the complement of a running checksum:
/// Crc32c(data, n, seed) is ~Crc32cUpdate(~seed, data, n). The SSE4.2
/// kernel folds eight bytes per crc32 instruction and the tail byte by
/// byte; the scalar kernel is a byte-at-a-time table loop. Both give the
/// same register for every input.
uint32_t Crc32cUpdate(uint32_t crc, const uint8_t* data, size_t n);

/// True when calls dispatch to the AVX2 kernels (CPU support present,
/// COLGRAPH_NO_SIMD unset, no test override active).
bool UsingAvx2();

/// Test hook: true forces the scalar kernels regardless of CPU support.
/// Effective immediately for subsequent calls on this thread; flip it only
/// while no kernel runs concurrently.
void SetForceScalarForTest(bool force);

}  // namespace colgraph::simd
