#include "util/crc32.h"

#include "bitmap/simd.h"

namespace colgraph {

// The register runs complemented (initial value ~seed, final complement),
// so a previous result passed as `seed` continues the checksum.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  return ~simd::Crc32cUpdate(~seed, static_cast<const uint8_t*>(data), len);
}

}  // namespace colgraph
