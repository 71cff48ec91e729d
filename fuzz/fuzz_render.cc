// Fuzz harness for the daemon's value renderer (server/daemon.h).
// Invariant: for ANY 64-bit pattern read as a double, WriteValue17g writes
// exactly the bytes of std::to_chars(general, 17), the bytes of printf's
// "%.17g", and std::from_chars reads them back to the same bits (NaNs:
// to a NaN of the same sign, since the text carries no payload). The
// input is read 8 bytes at a time, the last group zero-padded.
//
// The seed corpus (fuzz/corpus/fuzz_render/, 8-byte little-endian
// doubles committed as is) parks the fuzzer at the kernel's boundaries:
// both ends of its range and their neighbours, powers of ten, exact ties
// at the 17th digit, a carry into an 18th digit, zero, a subnormal,
// infinity and NaN.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <system_error>

#include "server/daemon.h"
#include "util/check.h"

namespace {

void CheckValue(double v) {
  char kernel[colgraph::server::kMaxValueChars];
  char* kernel_end = colgraph::server::WriteValue17g(kernel, v);
  char reference[64];
  const std::to_chars_result expected = std::to_chars(
      reference, reference + sizeof(reference), v, std::chars_format::general,
      17);
  COLGRAPH_CHECK(expected.ec == std::errc{});
  const std::string got(kernel, kernel_end);
  const std::string want(reference, expected.ptr);
  COLGRAPH_CHECK(got == want) << "kernel wrote " << got << ", to_chars "
                              << want;

  double back = 0;
  const std::from_chars_result parsed =
      std::from_chars(kernel, kernel_end, back);
  COLGRAPH_CHECK(parsed.ec == std::errc{} && parsed.ptr == kernel_end)
      << "from_chars rejected " << got;
  if (std::isnan(v)) {
    COLGRAPH_CHECK(std::isnan(back) && std::signbit(back) == std::signbit(v))
        << got;
  } else {
    COLGRAPH_CHECK(std::memcmp(&back, &v, sizeof(v)) == 0)
        << got << " does not read back to the same bits";
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  for (size_t at = 0; at < size; at += sizeof(double)) {
    unsigned char bytes[sizeof(double)] = {};
    std::memcpy(bytes, data + at,
                size - at < sizeof(double) ? size - at : sizeof(double));
    double v = 0;
    std::memcpy(&v, bytes, sizeof(v));
    CheckValue(v);
  }
  return 0;
}
