#include "bitmap/simd.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COLGRAPH_HAVE_X86_TARGETS 1
#include <immintrin.h>
#endif

namespace colgraph::simd {

namespace {

std::atomic<bool> g_force_scalar{false};

bool ForcedScalar() { return g_force_scalar.load(std::memory_order_relaxed); }

void AndWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void OrWordsScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

// The popcount kernels are written once and inlined twice: into the
// dispatchers' scalar fallback, where __builtin_popcountll is libgcc's
// portable routine (the library is built without -mpopcnt), and into a
// target("popcnt") function, where it is the single POPCNT instruction.
__attribute__((always_inline)) inline size_t PopcountWordsBody(
    const uint64_t* words, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(words[i]));
  }
  return count;
}

__attribute__((always_inline)) inline size_t GatherIdsBody(
    const uint64_t* ids, size_t n, uint64_t base, const uint64_t* presence,
    const uint32_t* rank, const double* values, double* out) {
  constexpr double kNull = std::numeric_limits<double>::quiet_NaN();
  size_t absent = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = ids[i] - base;
    const size_t w = static_cast<size_t>(r / 64);
    // The word's presence bits up to and including r, with r on top: its
    // top bit says whether r has a value, its popcount counts that value.
    const uint64_t upto = presence[w] << (63 - r % 64);
    if ((upto >> 63) != 0) {
      const auto below = static_cast<size_t>(__builtin_popcountll(upto)) - 1;
      out[i] = values[rank[w] + below];
    } else {
      // No value is read: past the last stored value there is none.
      out[i] = kNull;
      ++absent;
    }
  }
  return absent;
}

// CRC-32C table for the scalar kernel, from the reflected form of the
// Castagnoli polynomial 0x1EDC6F41.
constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  constexpr uint32_t kPoly = 0x82F63B78u;
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (kPoly ^ (crc >> 1)) : (crc >> 1);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

uint32_t Crc32cUpdateScalar(uint32_t crc, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    crc = kCrc32cTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(COLGRAPH_HAVE_X86_TARGETS)

// Per-function target attributes instead of separate -mavx2/-mpopcnt TUs:
// the compiler may only emit those instructions inside these bodies, so
// the binary stays runnable on older hardware as long as dispatch guards
// every call.
__attribute__((target("avx2"))) void AndWordsAvx2(uint64_t* dst,
                                                  const uint64_t* src,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a, b));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

__attribute__((target("avx2"))) void OrWordsAvx2(uint64_t* dst,
                                                 const uint64_t* src,
                                                 size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

__attribute__((target("popcnt"))) size_t PopcountWordsPopcnt(
    const uint64_t* words, size_t n) {
  return PopcountWordsBody(words, n);
}

__attribute__((target("popcnt"))) size_t GatherIdsPopcnt(
    const uint64_t* ids, size_t n, uint64_t base, const uint64_t* presence,
    const uint32_t* rank, const double* values, double* out) {
  return GatherIdsBody(ids, n, base, presence, rank, values, out);
}

// The crc32 instruction computes CRC-32C with the same reflected
// register as the table loop. Eight bytes per instruction (unaligned
// loads are fine on x86), then the sub-word tail a byte at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cUpdateSse42(
    uint32_t crc, const uint8_t* data, size_t n) {
  uint64_t crc64 = crc;
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    data += sizeof(word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *data++);
  return crc;
}

// One probe per process of the COLGRAPH_NO_SIMD kill switch, which the
// sanitizer CI legs set to sanitize the scalar kernels on hardware that
// would otherwise always take the vector paths.
bool EnvAllowsSimd() {
  static const bool allowed = std::getenv("COLGRAPH_NO_SIMD") == nullptr;
  return allowed;
}

bool CpuAllowsAvx2() {
  static const bool allowed =
      EnvAllowsSimd() && __builtin_cpu_supports("avx2") != 0;
  return allowed;
}

// PopcountWords and GatherIds use the hardware popcount instruction
// under the same conditions as the AVX2 kernels, with the POPCNT flag.
bool UsingPopcnt() {
  static const bool allowed =
      EnvAllowsSimd() && __builtin_cpu_supports("popcnt") != 0;
  return allowed && !ForcedScalar();
}

// Crc32cUpdate takes the crc32 instruction under the same conditions,
// with the SSE4.2 flag.
bool UsingSse42() {
  static const bool allowed =
      EnvAllowsSimd() && __builtin_cpu_supports("sse4.2") != 0;
  return allowed && !ForcedScalar();
}

#else

bool CpuAllowsAvx2() { return false; }

#endif  // COLGRAPH_HAVE_X86_TARGETS

}  // namespace

bool UsingAvx2() { return CpuAllowsAvx2() && !ForcedScalar(); }

void SetForceScalarForTest(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

void AndWords(uint64_t* dst, const uint64_t* src, size_t n) {
#if defined(COLGRAPH_HAVE_X86_TARGETS)
  if (UsingAvx2()) {
    AndWordsAvx2(dst, src, n);
    return;
  }
#endif
  AndWordsScalar(dst, src, n);
}

void OrWords(uint64_t* dst, const uint64_t* src, size_t n) {
#if defined(COLGRAPH_HAVE_X86_TARGETS)
  if (UsingAvx2()) {
    OrWordsAvx2(dst, src, n);
    return;
  }
#endif
  OrWordsScalar(dst, src, n);
}

size_t PopcountWords(const uint64_t* words, size_t n) {
#if defined(COLGRAPH_HAVE_X86_TARGETS)
  if (UsingPopcnt()) return PopcountWordsPopcnt(words, n);
#endif
  return PopcountWordsBody(words, n);
}

size_t GatherIds(const uint64_t* ids, size_t n, uint64_t base,
                 const uint64_t* presence, const uint32_t* rank,
                 const double* values, double* out) {
#if defined(COLGRAPH_HAVE_X86_TARGETS)
  if (UsingPopcnt()) {
    return GatherIdsPopcnt(ids, n, base, presence, rank, values, out);
  }
#endif
  return GatherIdsBody(ids, n, base, presence, rank, values, out);
}

uint32_t Crc32cUpdate(uint32_t crc, const uint8_t* data, size_t n) {
#if defined(COLGRAPH_HAVE_X86_TARGETS)
  if (UsingSse42()) return Crc32cUpdateSse42(crc, data, n);
#endif
  return Crc32cUpdateScalar(crc, data, n);
}

}  // namespace colgraph::simd
