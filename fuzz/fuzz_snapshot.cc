// Fuzz harness for the relation snapshot codec (the v5 extent layout).
// Invariant under test: DecodeRelation on ANY byte string
// returns a clean Status — never a crash, out-of-bounds access, or
// unbounded allocation.
//
// Structure-aware: each input is decoded twice. The raw pass exercises the
// magic/footer/CRC rejection paths; the fixup pass recomputes every
// section CRC and the footer over the (mutated) payload bytes so the
// input penetrates *past* checksum validation into the real parsing code
// (header bounds, extent-directory validation, column decode, container
// codec validation). Without the fixup a checksummed format would deflect
// nearly every mutant at the CRC check and the deep paths would never be
// fuzzed.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "columnstore/persistence.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/status.h"

namespace {

constexpr uint32_t kFooterMagic = 0x43474654;     // io_util.cc footer
constexpr size_t kFooterBytes = 16;               // [crc u32][len u64][magic u32]
constexpr size_t kSectionHeaderBytes = 12;        // [len u64][crc u32]

void CheckDecode(std::vector<char> data) {
  const colgraph::StatusOr<colgraph::MasterRelation> result =
      colgraph::DecodeRelation(std::move(data), "fuzz input");
  if (!result.ok()) {
    const colgraph::Status& st = result.status();
    COLGRAPH_CHECK(st.IsCorruption() || st.IsInvalidArgument())
        << "snapshot decode must fail cleanly, got: " << st.ToString();
  }
}

// Rewrites the preamble to the relation magic, re-checksums the two
// header sections when their length prefixes are in bounds, and rebuilds
// the footer, so the mutated payload bytes — not the stale CRCs — decide
// how decoding goes. The version word is left as mutated: any value other
// than the codec's own must still fail cleanly.
std::vector<char> FixupChecksums(std::vector<char> data) {
  if (data.size() < 2 * sizeof(uint32_t)) return data;
  std::memcpy(data.data(), &colgraph::internal::kRelationMagic,
              sizeof(colgraph::internal::kRelationMagic));
  if (data.size() < 2 * sizeof(uint32_t) + kFooterBytes) return data;

  const size_t footer_pos = data.size() - kFooterBytes;
  // The body has exactly two sections (header, extent directory) followed
  // by raw column extents with no section framing (packed on 8-byte
  // boundaries; page-aligned in older images such as the
  // valid_page_aligned seed) — walking past the second section would
  // misread extent bytes as section headers and stamp bogus "CRCs" into
  // the very payloads under test, so the walk stops there. Extents carry no per-extent checksum; the footer rebuild
  // below is all the fixing they need.
  size_t pos = 2 * sizeof(uint32_t);
  for (int section = 0;
       section < 2 && footer_pos - pos >= kSectionHeaderBytes; ++section) {
    uint64_t len = 0;
    std::memcpy(&len, data.data() + pos, sizeof(len));
    if (len > footer_pos - pos - kSectionHeaderBytes) break;
    const uint32_t crc = colgraph::Crc32c(
        data.data() + pos + kSectionHeaderBytes, static_cast<size_t>(len));
    std::memcpy(data.data() + pos + sizeof(len), &crc, sizeof(crc));
    pos += kSectionHeaderBytes + static_cast<size_t>(len);
  }

  const uint32_t file_crc = colgraph::Crc32c(data.data(), footer_pos);
  const uint64_t body_len = footer_pos;
  std::memcpy(data.data() + footer_pos, &file_crc, sizeof(file_crc));
  std::memcpy(data.data() + footer_pos + 4, &body_len, sizeof(body_len));
  std::memcpy(data.data() + footer_pos + 12, &kFooterMagic,
              sizeof(kFooterMagic));
  return data;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::vector<char> raw(reinterpret_cast<const char*>(data),
                        reinterpret_cast<const char*>(data) + size);
  CheckDecode(raw);
  CheckDecode(FixupChecksums(std::move(raw)));
  return 0;
}
