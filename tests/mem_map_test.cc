// MemMap (DESIGN.md §14): the one sanctioned mmap wrapper. Covers the
// open/read/move lifecycle, the zero-length-file contract, error paths,
// and the io:mmap failpoint that forces Reader::OpenMapped onto its
// copying fallback.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "columnstore/io_util.h"
#include "columnstore/mem_map.h"
#include "columnstore/persistence.h"
#include "util/failpoint.h"

namespace colgraph::io {
namespace {

class MemMapTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "colgraph_memmap_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  void TearDown() override {
    failpoint::DisarmAll();
    std::remove(path_.c_str());
  }

  void WriteFile(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(MemMapTest, MapsFileContents) {
  const std::string bytes = "the quick brown fox";
  WriteFile(bytes);
  auto map = MemMap::Open(path_);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_EQ(map.value().size(), bytes.size());
  EXPECT_EQ(std::string(map.value().data(), map.value().size()), bytes);
}

TEST_F(MemMapTest, ZeroLengthFileMapsToEmptyRange) {
  WriteFile("");
  auto map = MemMap::Open(path_);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(map.value().data(), nullptr);
  EXPECT_EQ(map.value().size(), 0u);
}

TEST_F(MemMapTest, MissingFileIsIOError) {
  const auto map = MemMap::Open(path_ + ".does-not-exist");
  ASSERT_FALSE(map.ok());
  EXPECT_TRUE(map.status().IsIOError()) << map.status().ToString();
}

TEST_F(MemMapTest, MoveTransfersOwnership) {
  WriteFile("payload");
  auto map = MemMap::Open(path_);
  ASSERT_TRUE(map.ok());
  MemMap moved = std::move(map).value();
  EXPECT_EQ(moved.size(), 7u);
  MemMap assigned = std::move(moved);
  EXPECT_EQ(moved.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(std::string(assigned.data(), assigned.size()), "payload");
}

// The mapped open path must be an implementation detail: when the mapping
// itself fails (injected here), OpenMapped falls back to the copying
// reader and the caller sees an identical, fully validated snapshot.
TEST_F(MemMapTest, OpenMappedFallsBackWhenMmapFails) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.5}, {2, -3.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  ASSERT_TRUE(WriteRelation(rel, path_).ok());

  failpoint::Arm("io:mmap", failpoint::Spec{failpoint::Action::kError, 0, 0});
  const auto loaded = ReadRelation(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_records(), 1u);
  EXPECT_EQ(loaded.value().num_edge_columns(), 3u);
}

}  // namespace
}  // namespace colgraph::io
