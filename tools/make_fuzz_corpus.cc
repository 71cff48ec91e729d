// Regenerates the committed fuzz seed corpus (fuzz/corpus/) from real
// artifacts: every binary seed is produced by the production writers
// (WriteRelation, AppendRecordFrame, AppendSlowQueryFrame,
// HybridBitmap::FromBitmap) and then deterministically damaged the way the
// torture tests damage snapshots — truncation, bit flips, bad magic,
// implausible counts. Run it when a format changes:
//
//   make_fuzz_corpus <repo>/fuzz/corpus
//
// Seeds are deliberately small: the fuzzers mutate them further; what
// matters is that each one parks the fuzzer next to a different validation
// branch (valid file, each rejection path, an old version number).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bitmap/hybrid_bitmap.h"
#include "columnstore/persistence.h"
#include "obs/query_log.h"
#include "obs/slow_query_log.h"
#include "util/check.h"
#include "util/frame.h"

namespace colgraph {
namespace {

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::vector<char>& bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  COLGRAPH_CHECK(out.good()) << "cannot write " << (dir / name).string();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  COLGRAPH_CHECK(out.good());
}

template <typename T>
void AppendPod(std::vector<char>* out, const T& value) {
  const size_t old = out->size();
  out->resize(old + sizeof(T));
  std::memcpy(out->data() + old, &value, sizeof(T));
}

std::vector<char> Truncated(std::vector<char> bytes, size_t len) {
  bytes.resize(std::min(bytes.size(), len));
  return bytes;
}

std::vector<char> BitFlipped(std::vector<char> bytes, size_t pos,
                             uint8_t bit) {
  if (pos < bytes.size()) {
    bytes[pos] = static_cast<char>(static_cast<uint8_t>(bytes[pos]) ^
                                   (uint8_t{1} << bit));
  }
  return bytes;
}

template <typename T>
std::vector<char> Patched(std::vector<char> bytes, size_t pos,
                          const T& value) {
  COLGRAPH_CHECK(pos + sizeof(T) <= bytes.size());
  std::memcpy(bytes.data() + pos, &value, sizeof(T));
  return bytes;
}

std::vector<char> SlurpAndRemove(const std::string& path) {
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  COLGRAPH_CHECK(!bytes.empty()) << "empty artifact at " << path;
  return bytes;
}

// --- fuzz_snapshot -------------------------------------------------------

void MakeSnapshotSeeds(const std::filesystem::path& dir) {
  MasterRelation rel;
  COLGRAPH_CHECK(rel.AddRecord({{0, 1.5}, {2, -2.0}}).ok());
  COLGRAPH_CHECK(rel.AddRecord({{1, 3.0}}).ok());
  COLGRAPH_CHECK(rel.AddRecord({}).ok());
  COLGRAPH_CHECK_OK(rel.Seal());

  const std::string tmp =
      (std::filesystem::temp_directory_path() / "colgraph_corpus_snap.bin")
          .string();
  COLGRAPH_CHECK_OK(WriteRelation(rel, tmp));
  const std::vector<char> valid = SlurpAndRemove(tmp);

  {
    uint32_t version = 0;
    std::memcpy(&version, valid.data() + 4, sizeof(version));
    COLGRAPH_CHECK(version == internal::kRelationVersion)
        << "WriteRelation emits v" << version
        << "; update the seed geometry below";
  }
  WriteSeed(dir, "valid_snapshot", valid);
  WriteSeed(dir, "truncated_half", Truncated(valid, valid.size() / 2));
  WriteSeed(dir, "truncated_footer", Truncated(valid, valid.size() - 5));
  WriteSeed(dir, "bad_magic", BitFlipped(valid, 0, 3));
  WriteSeed(dir, "flipped_body_bit",
            BitFlipped(valid, valid.size() / 2, 0));
  WriteSeed(dir, "empty", {});
  WriteSeed(dir, "preamble_only", Truncated(valid, 8));

  // Section length larger than the file: the first rejection the reader's
  // section walk can hit.
  {
    std::vector<char> huge_section = valid;
    const uint64_t bogus = uint64_t{1} << 40;
    if (huge_section.size() >= 16) {
      std::memcpy(huge_section.data() + 8, &bogus, sizeof(bogus));
    }
    WriteSeed(dir, "huge_section_len", huge_section);
  }

  // Extent-directory damage. Fixed geometry of the valid image above
  // (io_util.h layout): preamble 8B; header section [12B frame][u64
  // num_records][u64 num_columns] ends at 36; extent-directory section
  // frame at 36 with payload [u64 count @48][{u64 offset, u64 len} @56,
  // one pair per column]. Stale CRCs are fine — the fuzz harness's fixup
  // pass recomputes them so these seeds reach the directory validator,
  // not the checksum rejection.
  {
    constexpr size_t kDirCountPos = 48;
    constexpr size_t kExt0OffsetPos = 56;
    constexpr size_t kExt0LenPos = 64;
    constexpr size_t kExt1OffsetPos = 72;
    uint64_t dir_count = 0;
    std::memcpy(&dir_count, valid.data() + kDirCountPos, sizeof(dir_count));
    COLGRAPH_CHECK(dir_count == 3)
        << "extent directory not at the expected offset (count "
        << dir_count << ")";
    // Count disagrees with the header's column count.
    WriteSeed(dir, "extent_count_mismatch",
              Patched(valid, kDirCountPos, uint64_t{1000}));
    // First extent points far past the checksummed body.
    WriteSeed(dir, "extent_offset_past_body",
              Patched(valid, kExt0OffsetPos, uint64_t{1} << 40));
    // Length so large that offset + len overflows / escapes the body.
    WriteSeed(dir, "extent_len_overflow",
              Patched(valid, kExt0LenPos, ~uint64_t{0} - 8));
    // Second extent rewound on top of the first: non-ascending overlap.
    uint64_t ext0_offset = 0;
    std::memcpy(&ext0_offset, valid.data() + kExt0OffsetPos,
                sizeof(ext0_offset));
    WriteSeed(dir, "extent_overlap",
              Patched(valid, kExt1OffsetPos, ext0_offset));
    // Single bit flipped inside the first raw column extent: no section
    // CRC shields it, only the whole-file footer (and the column decoder,
    // once the harness rebuilds the footer).
    WriteSeed(dir, "extent_payload_flip",
              BitFlipped(valid, static_cast<size_t>(ext0_offset) + 10, 5));
  }

  // An old version number on an otherwise valid image (the harness's fixup
  // pass keeps the CRCs consistent): the reader accepts its own version
  // only, so this must fail as Corruption before any parsing.
  WriteSeed(dir, "old_version_v4",
            Patched(valid, 4, internal::kRelationVersion - 1));

  // Sparse relation: every presence column falls under the hybrid density
  // threshold, so the writer encodes from the hybrid sidecar instead of on
  // the fly (the bytes are the same either way).
  {
    MasterRelation sparse_rel;
    for (int i = 0; i < 300; ++i) {
      // Each edge set in exactly one of 300 records: under the 1/256
      // density cutoff, so every presence column hybrid-encodes.
      std::vector<std::pair<EdgeId, double>> record;
      if (i < 4) record.emplace_back(static_cast<EdgeId>(i), 1.0 * i);
      COLGRAPH_CHECK(sparse_rel.AddRecord(record).ok());
    }
    COLGRAPH_CHECK_OK(sparse_rel.Seal());
    const std::string sparse_tmp =
        (std::filesystem::temp_directory_path() /
         "colgraph_corpus_snap_sparse.bin")
            .string();
    COLGRAPH_CHECK_OK(WriteRelation(sparse_rel, sparse_tmp));
    WriteSeed(dir, "valid_sparse", SlurpAndRemove(sparse_tmp));
  }
}

// --- fuzz_hybrid_bitmap --------------------------------------------------

std::vector<char> HybridSeed(const HybridBitmap& hybrid) {
  std::vector<char> out;
  AppendPod(&out, static_cast<uint64_t>(hybrid.size_bits()));
  for (const uint64_t word : hybrid.ToRaw()) AppendPod(&out, word);
  return out;
}

void MakeHybridBitmapSeeds(const std::filesystem::path& dir) {
  // One seed per container type plus the chunk-boundary shapes, each
  // produced by the production encoder so the fuzzer starts on the accept
  // path of every container validator branch.
  Bitmap sparse(200000);  // array containers across 4 chunks
  for (size_t i = 0; i < sparse.size(); i += 997) sparse.Set(i);
  WriteSeed(dir, "valid_array",
            HybridSeed(HybridBitmap::FromBitmap(sparse)));

  Bitmap dense(1 << 16);  // one bitset container (card > 4096)
  for (size_t i = 0; i < dense.size(); i += 2) dense.Set(i);
  WriteSeed(dir, "valid_bitset",
            HybridSeed(HybridBitmap::FromBitmap(dense)));

  Bitmap runs(100000);  // run containers, one run crossing the chunk edge
  for (size_t i = 60000; i < 70000; ++i) runs.Set(i);
  for (size_t i = 90000; i < 90100; ++i) runs.Set(i);
  WriteSeed(dir, "valid_runs", HybridSeed(HybridBitmap::FromBitmap(runs)));

  Bitmap gap(3 << 16);  // empty middle chunk: descriptor keys skip 1
  gap.Set(5);
  gap.Set((2u << 16) + 123);
  WriteSeed(dir, "valid_chunk_gap", HybridSeed(HybridBitmap::FromBitmap(gap)));

  Bitmap tail((1 << 16) + 777);  // unaligned final chunk
  for (size_t i = 0; i < tail.size(); i += 13) tail.Set(i);
  WriteSeed(dir, "valid_unaligned_tail",
            HybridSeed(HybridBitmap::FromBitmap(tail)));

  WriteSeed(dir, "empty_bitmap",
            HybridSeed(HybridBitmap::FromBitmap(Bitmap(4096))));

  // Descriptor table claiming a million containers that aren't there.
  {
    std::vector<char> bad;
    AppendPod(&bad, uint64_t{1} << 20);  // num_bits
    AppendPod(&bad, uint64_t{1000000});  // container count
    AppendPod(&bad, uint64_t{0});
    WriteSeed(dir, "descriptor_overrun", bad);
  }
  // Unknown container type (3) in an otherwise plausible descriptor.
  {
    std::vector<char> bad;
    AppendPod(&bad, uint64_t{1} << 16);
    AppendPod(&bad, uint64_t{1});
    AppendPod(&bad, uint64_t{0} | (uint64_t{3} << 32) | (uint64_t{1} << 40));
    AppendPod(&bad, uint64_t{1});  // card word
    AppendPod(&bad, uint64_t{7});  // payload
    WriteSeed(dir, "bad_container_type", bad);
  }
}

// --- fuzz_query_log ------------------------------------------------------

// Footer frame, matching the framed log's Close(): type 1, payload
// [u32 footer magic][u64 record count].
void AppendFooterFrame(uint32_t footer_magic, uint64_t count,
                       std::vector<char>* log) {
  const size_t start = BeginFrame(obs::kLogFooterFrame, 12, log);
  AppendPod(log, footer_magic);
  AppendPod(log, count);
  EndFrame(start, log);
}

void MakeQueryLogSeeds(const std::filesystem::path& dir) {
  obs::QueryLogRecord rec;
  rec.kind = obs::QueryLogKind::kPathAgg;
  rec.fn = AggFn::kMax;
  rec.edges = {Edge{NodeRef{1, 0}, NodeRef{2, 0}},
               Edge{NodeRef{2, 0}, NodeRef{3, 1}}};
  rec.isolated_nodes = {NodeRef{9, 0}};
  rec.graph_view_indexes = {0, 2};
  rec.agg_view_indexes = {1};
  for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
    rec.phase_us[p] = 10 * (p + 1);
  }
  rec.total_us = 12345;
  rec.result_cardinality = 42;

  std::vector<char> log;
  AppendPod(&log, obs::kQueryLogMagic);
  AppendPod(&log, obs::kQueryLogVersion);
  const size_t header_end = log.size();
  for (int i = 0; i < 3; ++i) {
    rec.result_cardinality = static_cast<uint64_t>(42 + i);
    obs::AppendRecordFrame(rec, &log);
  }
  const size_t records_end = log.size();

  AppendFooterFrame(obs::kQueryLogFooterMagic, 3, &log);

  WriteSeed(dir, "valid_log", log);
  WriteSeed(dir, "missing_footer", Truncated(log, records_end));
  WriteSeed(dir, "truncated_mid_frame", Truncated(log, header_end + 7));
  WriteSeed(dir, "header_only", Truncated(log, header_end));
  WriteSeed(dir, "bad_version", BitFlipped(log, 4, 6));
  WriteSeed(dir, "flipped_payload_bit",
            BitFlipped(log, header_end + 20, 2));
  WriteSeed(dir, "empty", {});
}

// Slow-query-log seeds share the fuzz_query_log corpus: the harness
// decodes every input as both formats.
void MakeSlowQueryLogSeeds(const std::filesystem::path& dir) {
  obs::SlowQueryRecord rec;
  rec.request_id = 0xABCD;
  rec.snapshot_epoch = 3;
  rec.total_us = 2500;
  rec.op = 1;
  rec.query = "SUM [1,2]";
  rec.spans = {{"decode", 0, 40}, {"evaluate", 50, 2400}};

  std::vector<char> log;
  AppendPod(&log, obs::kSlowQueryLogMagic);
  AppendPod(&log, obs::kSlowQueryLogVersion);
  const size_t header_end = log.size();
  obs::AppendSlowQueryFrame(rec, &log);
  // A sampled, failed request with no text and no spans.
  rec.request_id = 0x1111;
  rec.wire_code = 9;
  rec.sampled = true;
  rec.query.clear();
  rec.spans.clear();
  obs::AppendSlowQueryFrame(rec, &log);
  const size_t records_end = log.size();
  AppendFooterFrame(obs::kSlowQueryLogFooterMagic, 2, &log);

  WriteSeed(dir, "slow_valid_log", log);
  WriteSeed(dir, "slow_missing_footer", Truncated(log, records_end));
  WriteSeed(dir, "slow_truncated_mid_frame", Truncated(log, header_end + 20));

  // A record whose span count (the last u32 of a span-free payload) runs
  // far past the payload, re-checksummed so the raw input reaches the
  // record decoder's bound.
  std::vector<char> frame;
  obs::AppendSlowQueryFrame(rec, &frame);
  const uint32_t huge_count = 1u << 30;
  std::memcpy(frame.data() + frame.size() - sizeof(huge_count), &huge_count,
              sizeof(huge_count));
  const uint32_t crc = FrameCrc(frame.data() + kFrameHeaderBytes,
                                frame.size() - kFrameHeaderBytes);
  std::memcpy(frame.data() + kFrameHeaderBytes - sizeof(crc), &crc,
              sizeof(crc));
  std::vector<char> span_log = Truncated(log, header_end);
  span_log.insert(span_log.end(), frame.begin(), frame.end());
  AppendFooterFrame(obs::kSlowQueryLogFooterMagic, 1, &span_log);
  WriteSeed(dir, "slow_span_count_past_payload", span_log);
}

}  // namespace
}  // namespace colgraph

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const char* kDirs[] = {"fuzz_snapshot", "fuzz_hybrid_bitmap",
                         "fuzz_query_log", "fuzz_parser"};
  for (const char* d : kDirs) {
    std::filesystem::create_directories(root / d);
  }

  colgraph::MakeSnapshotSeeds(root / "fuzz_snapshot");
  colgraph::MakeHybridBitmapSeeds(root / "fuzz_hybrid_bitmap");
  colgraph::MakeQueryLogSeeds(root / "fuzz_query_log");
  colgraph::MakeSlowQueryLogSeeds(root / "fuzz_query_log");
  // fuzz_parser and fuzz_trace_parser seeds are plain text, and
  // fuzz_render's are single doubles, committed directly in the repo —
  // regenerating them here would only churn the files. So is fuzz_snapshot/valid_page_aligned, a relation image with
  // page-aligned extents that current writers no longer produce.
  // fuzz_query_log/slow_selftest_log is colgraph_trace's self-test log,
  // committed as written so tests/frame_golden_test.cc can pin its bytes.

  std::fprintf(stderr, "fuzz corpus written under %s\n", root.string().c_str());
  return 0;
}
