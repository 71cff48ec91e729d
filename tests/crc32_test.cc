// CRC-32C: known-answer vectors, seeding, and a differential check of the
// two kernels behind Crc32c. Every case runs on both kernels in one
// binary: the dispatched one (the SSE4.2 crc32 instruction where the CPU
// has it) and the table loop (simd::SetForceScalarForTest). Both must
// agree with each other and with a bit-at-a-time reference kept here.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bitmap/simd.h"
#include "util/random.h"

namespace colgraph {
namespace {

class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) {
    simd::SetForceScalarForTest(force);
  }
  ~ScopedForceScalar() { simd::SetForceScalarForTest(false); }
};

// Crc32c on the table loop (`table`) or on the dispatched kernel.
uint32_t Crc(bool table, const void* data, size_t len, uint32_t seed = 0) {
  const ScopedForceScalar mode(table);
  return Crc32c(data, len, seed);
}

// One bit per step, straight from the reflected Castagnoli polynomial.
uint32_t BitwiseCrc32c(const uint8_t* data, size_t len, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0x82F63B78u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Uniform(0, 255));
  return bytes;
}

// Runs `body(table)` on the dispatched kernel, then on the table loop.
template <typename Body>
void OnBothKernels(Body body) {
  for (const bool table : {false, true}) {
    SCOPED_TRACE(table ? "table kernel" : "dispatched kernel");
    body(table);
  }
}

TEST(Crc32Test, KnownAnswerVectors) {
  OnBothKernels([](bool table) {
    // The CRC-32C "check" value: CRC of the ASCII digits 1-9.
    const char digits[] = "123456789";
    EXPECT_EQ(Crc(table, digits, 9), 0xE3069283u);

    // RFC 3720 (iSCSI) appendix test vectors.
    const unsigned char zeros[32] = {0};
    EXPECT_EQ(Crc(table, zeros, 32), 0x8A9136AAu);
    unsigned char ones[32];
    std::memset(ones, 0xFF, sizeof(ones));
    EXPECT_EQ(Crc(table, ones, 32), 0x62A8AB43u);
    unsigned char ascending[32];
    for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
    EXPECT_EQ(Crc(table, ascending, 32), 0x46DD794Eu);
  });
}

TEST(Crc32Test, EmptyInputIsZero) {
  OnBothKernels([](bool table) {
    EXPECT_EQ(Crc(table, nullptr, 0), 0u);
    EXPECT_EQ(Crc(table, nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
  });
}

TEST(Crc32Test, SeedExtendsIncrementally) {
  OnBothKernels([](bool table) {
    const std::string data = "the quick brown fox jumps over the lazy dog";
    const uint32_t whole = Crc(table, data.data(), data.size());
    for (size_t split = 0; split <= data.size(); ++split) {
      const uint32_t first = Crc(table, data.data(), split);
      const uint32_t both =
          Crc(table, data.data() + split, data.size() - split, first);
      EXPECT_EQ(both, whole) << "split at " << split;
    }
  });
}

TEST(Crc32Test, SingleBitFlipsChangeTheChecksum) {
  OnBothKernels([](bool table) {
    const std::string data(512, '\x5A');
    const uint32_t base = Crc(table, data.data(), data.size());
    for (size_t byte = 0; byte < data.size(); byte += 17) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutant = data;
        mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
        EXPECT_NE(Crc(table, mutant.data(), mutant.size()), base)
            << "byte " << byte << " bit " << bit;
      }
    }
  });
}

// Every length 0-4,096 at every start offset mod 8, so each kernel meets
// every alignment and every sub-word tail. The kernels are compared with
// each other everywhere and with the bitwise reference on a subset.
TEST(Crc32Test, EveryLengthAndAlignmentMatchesReference) {
  Rng rng(32);
  const std::vector<uint8_t> bytes = RandomBytes(rng, 4096 + 8);
  const auto seed = static_cast<uint32_t>(rng.Uniform(0, 0xFFFFFFFFu));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const uint8_t* p = bytes.data() + offset;
      const uint32_t dispatched = Crc(/*table=*/false, p, len, seed);
      ASSERT_EQ(dispatched, Crc(/*table=*/true, p, len, seed))
          << "offset " << offset << " len " << len;
      if (len < 64 || len % 61 == 0) {
        ASSERT_EQ(dispatched, BitwiseCrc32c(p, len, seed))
            << "offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, MultiMebibyteBufferMatchesReference) {
  Rng rng(33);
  const std::vector<uint8_t> bytes = RandomBytes(rng, (5u << 20) + 3);
  const uint32_t want = BitwiseCrc32c(bytes.data(), bytes.size());
  OnBothKernels([&](bool table) {
    EXPECT_EQ(Crc(table, bytes.data(), bytes.size()), want);
  });
  EXPECT_EQ(Crc(/*table=*/false, bytes.data() + 1, bytes.size() - 1),
            Crc(/*table=*/true, bytes.data() + 1, bytes.size() - 1));
}

// A checksum started on one kernel continues on the other: they share the
// register convention (complemented seed in, complement out).
TEST(Crc32Test, SeedChainsAcrossKernels) {
  Rng rng(34);
  const std::vector<uint8_t> bytes = RandomBytes(rng, 1000);
  const uint32_t whole = BitwiseCrc32c(bytes.data(), bytes.size());
  OnBothKernels([&](bool prefix_on_table) {
    for (size_t split = 0; split <= bytes.size(); split += 7) {
      const uint32_t prefix = Crc(prefix_on_table, bytes.data(), split);
      const uint32_t suffix = Crc(!prefix_on_table, bytes.data() + split,
                                  bytes.size() - split, prefix);
      ASSERT_EQ(suffix, whole) << "split at " << split;
    }
  });
}

}  // namespace
}  // namespace colgraph
