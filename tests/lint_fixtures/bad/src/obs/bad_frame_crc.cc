// Known-bad fixture for the [raw-frame-crc] rule: a frame checksummed by a
// direct Crc32c call outside the frame codec must be flagged; the SIMD
// kernel's Crc32cUpdate is a different word and must not be.
#include <cstdint>
#include <vector>

#include "bitmap/simd.h"
#include "util/crc32.h"

uint32_t FooterCrc(const std::vector<char>& payload) {
  return colgraph::Crc32c(payload.data(), payload.size());
}

uint32_t KernelCrc(const uint8_t* data, unsigned long n) {
  return ~colgraph::simd::Crc32cUpdate(~0u, data, n);
}
