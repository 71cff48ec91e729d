#include "columnstore/io_util.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "columnstore/persistence.h"
#include "core/engine_io.h"

namespace colgraph {
namespace {

constexpr uint32_t kMagic = 0x54534554;  // "TEST"

class IoUtilTest : public ::testing::Test {
 protected:
  // Per-test file name: ctest runs each test as its own process, so a
  // shared name would let parallel tests clobber each other.
  std::string path_ =
      ::testing::TempDir() + "colgraph_io_util_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
};

TEST_F(IoUtilTest, SectionRoundtrip) {
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint64_t{42});
  out.WriteVec(std::vector<uint32_t>{1, 2, 3});
  out.EndSection();
  out.BeginSection();
  out.WriteVec(std::vector<double>{0.5, -0.25});
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  auto in = io::Reader::Open(path_, kMagic, 2);
  ASSERT_TRUE(in.ok()) << in.status().ToString();

  ASSERT_TRUE(in->BeginSection("first").ok());
  uint64_t v = 0;
  ASSERT_TRUE(in->ReadPod(&v).ok());
  EXPECT_EQ(v, 42u);
  std::vector<uint32_t> ints;
  ASSERT_TRUE(in->ReadVec(&ints).ok());
  EXPECT_EQ(ints, (std::vector<uint32_t>{1, 2, 3}));
  ASSERT_TRUE(in->EndSection("first").ok());

  ASSERT_TRUE(in->BeginSection("second").ok());
  std::vector<double> reals;
  ASSERT_TRUE(in->ReadVec(&reals).ok());
  EXPECT_EQ(reals, (std::vector<double>{0.5, -0.25}));
  ASSERT_TRUE(in->EndSection("second").ok());
  EXPECT_TRUE(in->ExpectEnd().ok());
}

TEST_F(IoUtilTest, CommitLeavesNoTmpFile) {
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint32_t{7});
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());
  std::ifstream tmp(path_ + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST_F(IoUtilTest, EmptyVecRoundtripIntoFreshVector) {
  // Regression: a zero-length vector decoded into a never-resized
  // std::vector passed vec.data() == nullptr to memcpy, which declares
  // its arguments nonnull even for n == 0 (UB; found by fuzz_snapshot
  // under UBSan). Decode must succeed and leave the vector empty.
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WriteVec(std::vector<double>{});
  out.WritePod(uint32_t{7});  // data after the empty vec must still align
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  auto in = io::Reader::Open(path_, kMagic, 2);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  ASSERT_TRUE(in->BeginSection("vec").ok());
  std::vector<double> v;
  ASSERT_TRUE(in->ReadVec(&v).ok());
  EXPECT_TRUE(v.empty());
  uint32_t after = 0;
  ASSERT_TRUE(in->ReadPod(&after).ok());
  EXPECT_EQ(after, 7u);
  ASSERT_TRUE(in->EndSection("vec").ok());
}

TEST_F(IoUtilTest, ReadVecClampsCorruptLengthPrefix) {
  // A section whose vector claims 2^60 elements must fail cleanly, not
  // attempt an exabyte resize.
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint64_t{1} << 60);
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  auto in = io::Reader::Open(path_, kMagic, 2);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(in->BeginSection("vec").ok());
  std::vector<double> v;
  const Status st = in->ReadVec(&v);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(IoUtilTest, ReadPodPastEndIsCorruption) {
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint16_t{9});
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  auto in = io::Reader::Open(path_, kMagic, 2);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(in->BeginSection("pod").ok());
  uint64_t big = 0;
  EXPECT_TRUE(in->ReadPod(&big).IsCorruption());
}

TEST_F(IoUtilTest, EndSectionRejectsUnconsumedBytes) {
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint64_t{1});
  out.WritePod(uint64_t{2});
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  auto in = io::Reader::Open(path_, kMagic, 2);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(in->BeginSection("partial").ok());
  uint64_t v = 0;
  ASSERT_TRUE(in->ReadPod(&v).ok());
  EXPECT_TRUE(in->EndSection("partial").IsCorruption());
}

TEST_F(IoUtilTest, ExpectEndRejectsTrailingSection) {
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint32_t{1});
  out.EndSection();
  out.BeginSection();
  out.WritePod(uint32_t{2});
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  auto in = io::Reader::Open(path_, kMagic, 2);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(in->BeginSection("one").ok());
  uint32_t v = 0;
  ASSERT_TRUE(in->ReadPod(&v).ok());
  ASSERT_TRUE(in->EndSection("one").ok());
  EXPECT_TRUE(in->ExpectEnd().IsCorruption());
}

TEST_F(IoUtilTest, WrongMagicIsCorruption) {
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint32_t{1});
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());
  EXPECT_TRUE(io::Reader::Open(path_, kMagic + 1, 2).status().IsCorruption());
}

TEST_F(IoUtilTest, UnsupportedVersionIsCorruption) {
  io::Writer out(path_, kMagic, 5);
  out.BeginSection();
  out.WritePod(uint32_t{1});
  out.EndSection();
  // The file is well formed (Commit writes a valid footer), so the version
  // check is what must reject it: a reader accepts its codec's own version
  // only, older and newer alike.
  ASSERT_TRUE(out.Commit().ok());
  for (const uint32_t expected : {4u, 6u}) {
    const Status st = io::Reader::Open(path_, kMagic, expected).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.message().find("version"), std::string::npos);
  }
  EXPECT_TRUE(io::Reader::Open(path_, kMagic, 5).ok());
}

TEST_F(IoUtilTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      io::Reader::Open("/nonexistent/dir/file.bin", kMagic, 2).status()
          .IsIOError());
}

TEST_F(IoUtilTest, CommitToDirectoryPathIsIOError) {
  // The final rename target is an existing directory: rename(2) fails and
  // Commit must surface IOError (and clean up its tmp file).
  const std::string dir = ::testing::TempDir() + "colgraph_io_dir_target";
  std::remove(dir.c_str());
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  io::Writer out(dir, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint32_t{1});
  out.EndSection();
  EXPECT_TRUE(out.Commit().IsIOError());
  std::ifstream tmp(dir + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  rmdir(dir.c_str());
}

TEST_F(IoUtilTest, DirectoryPathIsIOErrorNotACrash) {
  // A directory opens for reading, but its stream reports no meaningful
  // length: every whole-file reader must refuse it with IOError naming
  // the path instead of sizing a read from it.
  const std::string dir = path_ + ".d";
  (void)rmdir(dir.c_str());
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  auto expect_io_error = [&dir](const Status& st, const char* what) {
    EXPECT_TRUE(st.IsIOError()) << what << ": " << st.ToString();
    EXPECT_NE(st.ToString().find(dir), std::string::npos)
        << what << ": " << st.ToString();
  };
  expect_io_error(io::ReadFileBytes(dir).status(), "ReadFileBytes");
  expect_io_error(io::Reader::Open(dir, kMagic, 2).status(), "Reader::Open");
  expect_io_error(io::Reader::OpenMapped(dir, kMagic, 2).status(),
                  "Reader::OpenMapped");
  expect_io_error(ReadRelation(dir).status(), "ReadRelation");
  expect_io_error(ReadEngine(dir).status(), "ReadEngine");
  EXPECT_EQ(rmdir(dir.c_str()), 0);
}

TEST_F(IoUtilTest, OpenTextForReadMissingFileIsIOError) {
  EXPECT_TRUE(
      io::OpenTextForRead("/nonexistent/dir/file.txt").status().IsIOError());
}

TEST_F(IoUtilTest, OpenTextForReadReadsLines) {
  {
    std::ofstream out(path_);
    out << "hello\nworld\n";
  }
  auto in = io::OpenTextForRead(path_);
  ASSERT_TRUE(in.ok());
  std::string line;
  ASSERT_TRUE(std::getline(*in, line));
  EXPECT_EQ(line, "hello");
}

// The record-count cap is inclusive on the boundary: the relation and
// engine readers share this helper, so the two cannot drift (ISSUE 9
// hoisted the previously duplicated checks here).
TEST_F(IoUtilTest, ValidateRecordCountBoundary) {
  EXPECT_TRUE(io::ValidateRecordCount(0, "f").ok());
  EXPECT_TRUE(io::ValidateRecordCount(io::kMaxSnapshotRecords - 1, "f").ok());
  EXPECT_TRUE(io::ValidateRecordCount(io::kMaxSnapshotRecords, "f").ok());
  const Status st =
      io::ValidateRecordCount(io::kMaxSnapshotRecords + 1, "the-file");
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("the-file"), std::string::npos)
      << "error must name the file: " << st.message();
}

TEST_F(IoUtilTest, RemoveStaleTempSweepsOnlyTheTmp) {
  {
    std::ofstream published(path_, std::ios::binary);
    published << "published";
    std::ofstream tmp(path_ + ".tmp", std::ios::binary);
    tmp << "torn write";
  }
  io::RemoveStaleTemp(path_);
  EXPECT_FALSE(std::ifstream(path_ + ".tmp", std::ios::binary).good());
  EXPECT_TRUE(std::ifstream(path_, std::ios::binary).good());
  io::RemoveStaleTemp(path_);  // idempotent on an already-clean path
}

TEST_F(IoUtilTest, MappedOpenMatchesCopyingOpen) {
  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WriteVec(std::vector<uint64_t>{3, 1, 4, 1, 5});
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  auto mapped = io::Reader::OpenMapped(path_, kMagic, 2);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->BeginSection("vec").ok());
  std::vector<uint64_t> v;
  ASSERT_TRUE(mapped->ReadVec(&v).ok());
  EXPECT_EQ(v, (std::vector<uint64_t>{3, 1, 4, 1, 5}));
  ASSERT_TRUE(mapped->EndSection("vec").ok());
  EXPECT_TRUE(mapped->ExpectEnd().ok());
}

// Extent plumbing: a payload-mode writer encodes extent bytes with no
// framing, PadTo places them at any later offset (here a 4 KiB boundary,
// the layout older images used), and AtExtent gives bounds-checked access.
TEST_F(IoUtilTest, PayloadWriterAndAtExtentRoundtrip) {
  io::Writer payload;
  payload.WritePod(uint64_t{0xfeedbeef});
  payload.WriteVec(std::vector<uint32_t>{7, 8});
  const std::vector<char> bytes = payload.TakePayload();
  ASSERT_EQ(bytes.size(), sizeof(uint64_t) * 2 + sizeof(uint32_t) * 2);

  io::Writer out(path_, kMagic, 2);
  out.BeginSection();
  out.WritePod(uint64_t{1});
  out.EndSection();
  constexpr size_t kAlign = 4096;
  const size_t aligned = (out.bytes_buffered() + kAlign - 1) / kAlign * kAlign;
  out.PadTo(aligned);
  ASSERT_EQ(out.bytes_buffered(), aligned);
  out.AppendRaw(bytes.data(), bytes.size());
  ASSERT_TRUE(out.Commit().ok());

  auto in = io::Reader::Open(path_, kMagic, 2);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  auto extent = in->AtExtent(aligned, bytes.size());
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();
  uint64_t marker = 0;
  ASSERT_TRUE(extent->ReadPod(&marker).ok());
  EXPECT_EQ(marker, 0xfeedbeefu);
  std::vector<uint32_t> v;
  ASSERT_TRUE(extent->ReadVec(&v).ok());
  EXPECT_EQ(v, (std::vector<uint32_t>{7, 8}));

  // Out-of-body ranges must be Corruption, not a wild read: past the
  // checksummed body, overflowing lengths, and off-the-end offsets.
  EXPECT_TRUE(in->AtExtent(aligned, bytes.size() + 64).status().IsCorruption());
  EXPECT_TRUE(in->AtExtent(in->body_size(), 1).status().IsCorruption());
  EXPECT_TRUE(
      in->AtExtent(UINT64_MAX - 1, 2).status().IsCorruption());
}

TEST_F(IoUtilTest, ExclusiveFileLockLifecycle) {
  const std::string lock_path = path_ + ".lock";
  auto lock = io::ExclusiveFile::Acquire(lock_path);
  ASSERT_TRUE(lock.ok()) << lock.status().ToString();

  // Second holder is refused with the retryable status.
  const auto contended = io::ExclusiveFile::Acquire(lock_path);
  ASSERT_FALSE(contended.ok());
  EXPECT_TRUE(contended.status().IsUnavailable())
      << contended.status().ToString();

  // Release unlinks; a new acquire then succeeds.
  lock.value().Release();
  EXPECT_FALSE(std::ifstream(lock_path, std::ios::binary).good());
  auto again = io::ExclusiveFile::Acquire(lock_path);
  ASSERT_TRUE(again.ok());

  // Move transfers the hold; releasing the moved-from side is a no-op.
  io::ExclusiveFile moved = std::move(again).value();
  EXPECT_TRUE(io::ExclusiveFile::Acquire(lock_path).status().IsUnavailable());
  moved.Release();

  // RemoveFile clears a crashed holder's leftover file.
  {
    std::ofstream stale(lock_path, std::ios::binary);
    stale << "dead pid";
  }
  EXPECT_TRUE(io::ExclusiveFile::Acquire(lock_path).status().IsUnavailable());
  io::RemoveFile(lock_path);
  auto fresh = io::ExclusiveFile::Acquire(lock_path);
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
}

}  // namespace
}  // namespace colgraph
