// Golden bytes for the durable images (DESIGN.md §7, §14): a relation
// image, an engine image with graph and aggregate views, and a data dir's
// MANIFEST after two seals and one compaction, each as an earlier writer
// produced it. The same inputs are written again through the current
// publish routine and relation codec and compared byte for byte, and the
// golden images are read back and written out unchanged. A writer and a
// reader that drift together still agree with each other; they cannot
// agree with these bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "columnstore/dataset.h"
#include "columnstore/io_util.h"
#include "columnstore/persistence.h"
#include "core/engine.h"
#include "core/engine_io.h"
#include "util/check.h"

namespace colgraph {
namespace {

// --- Golden inputs: fixed records, no randomness. ---

MasterRelation GoldenRelation(double scale) {
  MasterRelation rel;
  COLGRAPH_CHECK_OK(rel.AddRecord({{0, 1.5 * scale}, {2, -2.0}}));
  COLGRAPH_CHECK_OK(rel.AddRecord({{1, 3.0 * scale}}));
  COLGRAPH_CHECK_OK(rel.AddRecord({{0, 0.25}, {1, 4.0}, {2, 8.0 * scale}}));
  COLGRAPH_CHECK_OK(rel.Seal());
  return rel;
}

ColGraphEngine GoldenEngine() {
  ColGraphEngine engine;
  for (int i = 0; i < 3; ++i) {
    COLGRAPH_CHECK_OK(engine.AddWalk({1, 2, 3, 4}, {1.0 + i, 2.0, 3.5}));
  }
  COLGRAPH_CHECK_OK(engine.AddWalk({2, 3, 4}, {4.0, 5.0}));
  COLGRAPH_CHECK_OK(engine.AddWalk({1, 2}, {-6.0}));
  COLGRAPH_CHECK_OK(engine.Seal());
  const EdgeId e0 = *engine.catalog().Lookup(Edge{{1, 0}, {2, 0}});
  const EdgeId e1 = *engine.catalog().Lookup(Edge{{2, 0}, {3, 0}});
  const EdgeId e2 = *engine.catalog().Lookup(Edge{{3, 0}, {4, 0}});
  COLGRAPH_CHECK_OK(engine.MaterializeView(GraphViewDef::Make({e0, e1, e2})));
  AggViewDef agg;
  agg.elements = {e0, e1};
  agg.fn = AggFn::kSum;
  COLGRAPH_CHECK_OK(engine.MaterializeView(agg));
  return engine;
}

// Two seals and one compaction into the empty directory `dir`.
void WriteGoldenDataDir(const std::string& dir) {
  auto store = DatasetStore::Open(dir);
  COLGRAPH_CHECK_OK(store.status());
  COLGRAPH_CHECK(store.value().Seal(GoldenRelation(1.0)).ok());
  COLGRAPH_CHECK(store.value().Seal(GoldenRelation(2.0)).ok());
  COLGRAPH_CHECK_OK(store.value().CompactAll());
}

// --- The bytes an earlier writer produced from the inputs above. ---

constexpr const char* kRelationHex =
    "4c524743050000001000000000000000707dcc8a030000000000000003000000"
    "0000000038000000000000003152a0ab03000000000000006800000000000000"
    "4800000000000000b0000000000000004800000000000000f800000000000000"
    "4800000000000000030000000000000004000000000000000100000000000000"
    "0000000000010000020000000000000000000200000000000200000000000000"
    "000000000000f83f000000000000d03f03000000000000000400000000000000"
    "0100000000000000000000000001000002000000000000000100020000000000"
    "0200000000000000000000000000084000000000000010400300000000000000"
    "0400000000000000010000000000000000000000000100000200000000000000"
    "0000020000000000020000000000000000000000000000c00000000000002040"
    "1de867df400100000000000054464743";
constexpr const char* kEngineHex =
    "4e45474305000000480000000000000007253be2e80300000000000001000000"
    "0000000003000000000000000100000000000000020000000000000002000000"
    "0000000003000000000000000300000000000000040000000000000010000000"
    "0000000096bc3cad050000000000000003000000000000002400000000000000"
    "5dd3d7ba01000000000000000300000000000000000000000100000002000000"
    "000000000000000021000000000000000b536581010000000000000000020000"
    "0000000000000000000100000000000000000000005800000000000000b548df"
    "6905000000000000004001000000000000580000000000000098010000000000"
    "005800000000000000f001000000000000580000000000000048020000000000"
    "0030000000000000007802000000000000500000000000000000000000000000"
    "0500000000000000040000000000000001000000000000000000000000010000"
    "040000000000000000000100020004000400000000000000000000000000f03f"
    "0000000000000040000000000000084000000000000018c00500000000000000"
    "0400000000000000010000000000000000000000020100000400000001000000"
    "0000030000000000040000000000000000000000000000400000000000000040"
    "0000000000000040000000000000104005000000000000000400000000000000"
    "0100000000000000000000000201000004000000010000000000030000000000"
    "04000000000000000000000000000c400000000000000c400000000000000c40"
    "0000000000001440050000000000000004000000000000000100000000000000"
    "0000000002010000030000000100000000000200000000000500000000000000"
    "0400000000000000010000000000000000000000020100000300000001000000"
    "0000020000000000030000000000000000000000000008400000000000001040"
    "0000000000001440d0ff8ee8c80200000000000054464743";
constexpr const char* kManifestHex =
    "464d47430200000018000000000000003d2ab32f030000000000000001000000"
    "000000000200000000000000f4507b2b2c0000000000000054464743";

std::vector<char> FromHex(const std::string& hex) {
  std::vector<char> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::vector<char> ReadBytes(const std::string& path) {
  auto bytes = io::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::vector<char>{};
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

class ImageGoldenTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "colgraph_image_golden_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  void TearDown() override {
    std::remove(path_.c_str());
    std::filesystem::remove_all(path_ + ".dir");
  }
};

TEST_F(ImageGoldenTest, RelationImageIsByteIdentical) {
  const std::vector<char> golden = FromHex(kRelationHex);
  ASSERT_TRUE(WriteRelation(GoldenRelation(1.0), path_).ok());
  EXPECT_EQ(ReadBytes(path_), golden);

  // The golden image reads back and writes out unchanged.
  auto decoded = DecodeRelation(golden, "golden relation");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_records(), 3u);
  EXPECT_EQ(decoded->num_edge_columns(), 3u);
  ASSERT_TRUE(WriteRelation(decoded.value(), path_).ok());
  EXPECT_EQ(ReadBytes(path_), golden);
}

TEST_F(ImageGoldenTest, EngineImageWithViewsIsByteIdentical) {
  const std::vector<char> golden = FromHex(kEngineHex);
  ASSERT_TRUE(WriteEngine(GoldenEngine(), path_).ok());
  EXPECT_EQ(ReadBytes(path_), golden);

  WriteBytes(path_, golden);
  auto loaded = ReadEngine(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_records(), 5u);
  EXPECT_EQ(loaded->views().num_graph_views(), 1u);
  EXPECT_EQ(loaded->views().num_agg_views(), 1u);
  ASSERT_TRUE(WriteEngine(loaded.value(), path_).ok());
  EXPECT_EQ(ReadBytes(path_), golden);
}

TEST_F(ImageGoldenTest, ManifestAfterTwoSealsAndACompactionIsByteIdentical) {
  const std::string dir = path_ + ".dir";
  std::filesystem::remove_all(dir);
  WriteGoldenDataDir(dir);
  EXPECT_EQ(ReadBytes(dir + "/MANIFEST"), FromHex(kManifestHex));

  auto store = DatasetStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store->num_datasets(), 1u);
  EXPECT_EQ(store->dataset_names()[0], "ds-000002.cgds");
}

}  // namespace
}  // namespace colgraph
