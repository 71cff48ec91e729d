// Packed column extents (DESIGN.md §14): v5 writers place every column
// extent at the next 8-byte boundary. Images laid out with page-aligned
// extents (the same format version, as written before packing) must keep
// loading bit-identically on every read path and mix with packed datasets
// in one store, and a sealed tail must cost its payloads, not pages of
// zero padding. The column codec writes each column's packed value array
// as stored; its bytes must equal the rank-by-rank encoding it replaced.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "columnstore/dataset.h"
#include "columnstore/io_util.h"
#include "columnstore/persistence.h"
#include "util/check.h"
#include "util/random.h"

namespace colgraph {
namespace {

constexpr uint64_t kPageBytes = 4096;

// `num_records` records over `num_edges` edge columns; each record holds
// each edge with probability `density`.
MasterRelation RandomRelation(uint64_t seed, size_t num_records,
                              size_t num_edges, double density) {
  Rng rng(seed);
  MasterRelation rel;
  rel.EnsureColumns(num_edges);
  for (size_t r = 0; r < num_records; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId e = 0; e < num_edges; ++e) {
      if (rng.Bernoulli(density)) {
        record.emplace_back(e, rng.UniformReal(-50, 50));
      }
    }
    COLGRAPH_CHECK_OK(rel.AddRecord(record));
  }
  COLGRAPH_CHECK_OK(rel.Seal());
  return rel;
}

// Equal lengths and equal bits (memcmp, so NaN payloads and -0.0 count).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<char> Encode(const MeasureColumn& column) {
  io::Writer enc;
  enc.WriteMeasureColumn(column);
  return enc.TakePayload();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Writes `rel` as a v5 relation image with every extent at the next 4 KiB
// boundary and zero padding between extents, as writers laid images out
// before packing.
void WritePageAlignedRelation(const MasterRelation& rel,
                              const std::string& path) {
  std::vector<std::vector<char>> payloads;
  for (EdgeId e = 0; e < rel.num_edge_columns(); ++e) {
    payloads.push_back(Encode(rel.PeekMeasureColumn(e)));
  }
  io::Writer out(path, internal::kRelationMagic, internal::kRelationVersion);
  out.BeginSection();
  out.WritePod(static_cast<uint64_t>(rel.num_records()));
  out.WritePod(static_cast<uint64_t>(payloads.size()));
  out.EndSection();
  // The directory section: a 12-byte frame, the count, then one
  // {offset, len} pair per extent.
  uint64_t cursor = out.bytes_buffered() + 12 + 8 + 16 * payloads.size();
  std::vector<internal::Extent> extents;
  for (const std::vector<char>& payload : payloads) {
    const uint64_t offset = (cursor + kPageBytes - 1) / kPageBytes * kPageBytes;
    extents.push_back({offset, payload.size()});
    cursor = offset + payload.size();
  }
  out.BeginSection();
  out.WritePod(static_cast<uint64_t>(extents.size()));
  for (const internal::Extent& e : extents) {
    out.WritePod(e.offset);
    out.WritePod(e.len);
  }
  out.EndSection();
  for (size_t i = 0; i < payloads.size(); ++i) {
    out.PadTo(static_cast<size_t>(extents[i].offset));
    out.AppendRaw(payloads[i].data(), payloads[i].size());
  }
  COLGRAPH_CHECK_OK(out.Commit());
}

internal::RelationLayout ReadLayout(const std::string& path,
                                    uint64_t* directory_end) {
  auto in = io::Reader::Open(path, internal::kRelationMagic,
                             internal::kRelationVersion);
  COLGRAPH_CHECK_OK(in.status());
  auto layout = internal::ReadRelationLayout(&in.value(), path);
  COLGRAPH_CHECK_OK(layout.status());
  *directory_end = in.value().position();
  return std::move(layout).value();
}

void ExpectColumnsBitIdentical(const MeasureColumn& want,
                               const MeasureColumn& got,
                               const std::string& context) {
  ASSERT_TRUE(want.presence().bits() == got.presence().bits()) << context;
  EXPECT_TRUE(SameBits(want.values(), got.values())) << context;
}

void ExpectRelationsBitIdentical(const MasterRelation& want,
                                 const MasterRelation& got,
                                 const std::string& context) {
  ASSERT_EQ(want.num_records(), got.num_records()) << context;
  ASSERT_EQ(want.num_edge_columns(), got.num_edge_columns()) << context;
  for (EdgeId e = 0; e < want.num_edge_columns(); ++e) {
    ExpectColumnsBitIdentical(want.PeekMeasureColumn(e),
                              got.PeekMeasureColumn(e),
                              context + ", column " + std::to_string(e));
  }
}

class ExtentPackingTest : public ::testing::Test {
 protected:
  std::string dir_ =
      ::testing::TempDir() + "colgraph_packing_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_F(ExtentPackingTest, RelationImageExtentsArePackedBackToBack) {
  const MasterRelation rel = RandomRelation(1, 300, 24, 0.2);
  const std::string path = dir_ + "/packed.bin";
  ASSERT_TRUE(WriteRelation(rel, path).ok());
  uint64_t directory_end = 0;
  const internal::RelationLayout layout = ReadLayout(path, &directory_end);
  ASSERT_EQ(layout.extents.size(), 24u);
  // No padding anywhere: each extent starts where the previous part of
  // the file ends, on an 8-byte boundary, and the last one meets the
  // footer.
  uint64_t end = directory_end;
  for (const internal::Extent& e : layout.extents) {
    EXPECT_EQ(e.offset, end);
    EXPECT_EQ(e.offset % 8, 0u);
    end = e.offset + e.len;
  }
  EXPECT_EQ(end + 16, std::filesystem::file_size(path)) << "footer is 16 B";
}

TEST_F(ExtentPackingTest, PageAlignedImageReadsBackBitIdentical) {
  const MasterRelation rel = RandomRelation(2, 500, 16, 0.15);
  const std::string aligned = dir_ + "/aligned.bin";
  WritePageAlignedRelation(rel, aligned);
  uint64_t directory_end = 0;
  const internal::RelationLayout layout = ReadLayout(aligned, &directory_end);
  for (const internal::Extent& e : layout.extents) {
    ASSERT_EQ(e.offset % kPageBytes, 0u) << "fixture must be page-aligned";
  }

  // ReadRelation maps the file; DecodeRelation reads a copy of its bytes.
  const auto eager = ReadRelation(aligned);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ExpectRelationsBitIdentical(rel, eager.value(), "ReadRelation");
  const std::string bytes = FileBytes(aligned);
  const auto copied =
      DecodeRelation(std::vector<char>(bytes.begin(), bytes.end()), aligned);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  ExpectRelationsBitIdentical(rel, copied.value(), "DecodeRelation");

  // Rewriting what was read gives the packed image of the source, which
  // is smaller by the padding.
  const std::string packed = dir_ + "/packed.bin";
  const std::string rewritten = dir_ + "/rewritten.bin";
  ASSERT_TRUE(WriteRelation(rel, packed).ok());
  ASSERT_TRUE(WriteRelation(eager.value(), rewritten).ok());
  EXPECT_EQ(FileBytes(packed), FileBytes(rewritten));
  EXPECT_LT(std::filesystem::file_size(packed),
            std::filesystem::file_size(aligned));
}

TEST_F(ExtentPackingTest, MixedLayoutStoreCompactsAndReloadsIdentically) {
  const MasterRelation a = RandomRelation(3, 130, 10, 0.3);
  const MasterRelation b = RandomRelation(4, 77, 14, 0.25);
  const std::string mixed_dir = dir_ + "/mixed";
  const std::string packed_dir = dir_ + "/packed";

  // The mixed store's first dataset is replaced in place by its
  // page-aligned image: same records, older layout.
  {
    auto mixed = DatasetStore::Open(mixed_dir);
    ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
    const auto first = mixed.value().Seal(a);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    WritePageAlignedRelation(a, mixed.value().PathFor(first.value()));
    ASSERT_TRUE(mixed.value().Seal(b).ok());
    auto packed = DatasetStore::Open(packed_dir);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    ASSERT_TRUE(packed.value().Seal(a).ok());
    ASSERT_TRUE(packed.value().Seal(b).ok());
  }

  auto mixed = DatasetStore::Open(mixed_dir);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  const auto before = mixed.value().LoadAll();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before.value().size(), 2u);
  ExpectRelationsBitIdentical(a, before.value()[0], "page-aligned dataset");
  ExpectRelationsBitIdentical(b, before.value()[1], "packed dataset");

  auto packed = DatasetStore::Open(packed_dir);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  ASSERT_TRUE(mixed.value().CompactAll().ok());
  ASSERT_TRUE(packed.value().CompactAll().ok());
  ASSERT_EQ(mixed.value().num_datasets(), 1u);
  ASSERT_EQ(packed.value().num_datasets(), 1u);
  // The merge loads its inputs through the mapped reader whatever their
  // layout, so both stores compact to the same bytes.
  const auto merged_bytes = [](const DatasetStore& store) {
    return FileBytes(store.PathFor(store.dataset_names()[0]));
  };
  EXPECT_EQ(merged_bytes(mixed.value()), merged_bytes(packed.value()));

  auto reopened = DatasetStore::Open(mixed_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto after = reopened.value().LoadAll();
  const auto want = packed.value().LoadAll();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(after.value().size(), 1u);
  ExpectRelationsBitIdentical(want.value()[0], after.value()[0],
                              "compacted mixed store");
}

// The serve_ingest shape: a 500-record batch sealed as a tail over a
// 1,000-edge universe, each record a 12-edge path. With page-aligned
// extents every column cost a page (about 8 KiB per record); packed, the
// file holds payloads and the directory only.
TEST_F(ExtentPackingTest, SealedTailCostsItsPayloadsNotPages) {
  constexpr size_t kRecords = 500;
  constexpr size_t kUniverse = 1000;
  Rng rng(5);
  MasterRelation tail;
  tail.EnsureColumns(kUniverse);
  for (size_t r = 0; r < kRecords; ++r) {
    const EdgeId start = static_cast<EdgeId>(rng.Uniform(0, kUniverse - 12));
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId e = start; e < start + 12; ++e) {
      record.emplace_back(e, rng.UniformReal(0, 100));
    }
    ASSERT_TRUE(tail.AddRecord(record).ok());
  }
  ASSERT_TRUE(tail.Seal().ok());
  ASSERT_EQ(tail.num_edge_columns(), kUniverse);

  auto store = DatasetStore::Open(dir_ + "/store");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto name = store.value().Seal(tail);
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  const uint64_t bytes =
      std::filesystem::file_size(store.value().PathFor(name.value()));
  EXPECT_LE(bytes, 1200 * kRecords) << bytes / kRecords << " B per record";
}

// WriteMeasureColumn writes the packed value array as stored, and
// MergeColumn appends each part's array; both must equal the rank-by-rank
// derivation they replaced, byte for byte.
TEST_F(ExtentPackingTest, ColumnCodecKeepsTheRankDerivedBytes) {
  const MasterRelation a = RandomRelation(6, 333, 9, 0.4);
  const MasterRelation b = RandomRelation(7, 65, 12, 0.1);
  for (EdgeId e = 0; e < a.num_edge_columns(); ++e) {
    const MeasureColumn& col = a.PeekMeasureColumn(e);
    io::Writer reference;
    reference.WriteBitmap(col.presence());
    std::vector<double> values;
    col.presence().bits().ForEachSetBit([&](size_t r) {
      values.push_back(col.ValueAtRank(col.presence().Rank(r)));
    });
    reference.WriteVec(values);
    EXPECT_EQ(reference.TakePayload(), Encode(col)) << "column " << e;
  }

  for (EdgeId e = 0; e < b.num_edge_columns(); ++e) {
    const MeasureColumn* in_a =
        e < a.num_edge_columns() ? &a.PeekMeasureColumn(e) : nullptr;
    const auto merged =
        MergeColumn({{in_a, a.num_records()},
                     {&b.PeekMeasureColumn(e), b.num_records()}});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    std::vector<double> want;
    for (const MeasureColumn* col : {in_a, &b.PeekMeasureColumn(e)}) {
      if (col == nullptr) continue;
      for (size_t rank = 0; rank < col->num_values(); ++rank) {
        want.push_back(col->ValueAtRank(rank));
      }
    }
    EXPECT_TRUE(SameBits(merged.value().values(), want)) << "column " << e;
  }
}

}  // namespace
}  // namespace colgraph
