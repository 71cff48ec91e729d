// CRC-32C (Castagnoli polynomial, the variant used by iSCSI, ext4 and
// LevelDB/RocksDB block trailers). Snapshot sections and whole files are
// checksummed with it so a flipped bit or short write surfaces as
// Status::Corruption at load time instead of silently poisoning a relation.
#pragma once

#include <cstddef>
#include <cstdint>

namespace colgraph {

/// Computes the CRC-32C of `data[0, len)`. Pass a previous result as
/// `seed` to extend a running checksum over multiple buffers:
///
///   uint32_t c = Crc32c(a, na);
///   c = Crc32c(b, nb, c);   // == Crc32c(concat(a, b))
///
/// Runs on the SSE4.2 crc32 instruction when the CPU has it and on a
/// table loop otherwise (simd::Crc32cUpdate; COLGRAPH_NO_SIMD pins the
/// table loop). Both give the same checksum.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

}  // namespace colgraph
