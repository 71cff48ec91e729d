#include "columnstore/persistence.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/engine_io.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace colgraph {
namespace {

// The image assembly the writers used before they encoded in place: each
// extent's payload encoded on its own, the directory computed from the
// payload sizes, then the payloads copied in behind it. The writers must
// still produce exactly its bytes.
void AppendReferenceExtents(io::Writer* out,
                            const std::vector<std::vector<char>>& payloads) {
  // A 12-byte section frame, the count, one {offset, len} pair per extent.
  uint64_t cursor = out->bytes_buffered() + 12 + 8 + 16 * payloads.size();
  std::vector<internal::Extent> extents(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    extents[i].offset = (cursor + 7) / 8 * 8;
    extents[i].len = payloads[i].size();
    cursor = extents[i].offset + extents[i].len;
  }
  out->BeginSection();
  out->WritePod(static_cast<uint64_t>(payloads.size()));
  for (const internal::Extent& e : extents) {
    out->WritePod(e.offset);
    out->WritePod(e.len);
  }
  out->EndSection();
  for (size_t i = 0; i < payloads.size(); ++i) {
    out->PadTo(static_cast<size_t>(extents[i].offset));
    out->AppendRaw(payloads[i].data(), payloads[i].size());
  }
}

template <typename Encode>
std::vector<char> Payload(const Encode& encode) {
  io::Writer enc;
  encode(enc);
  return enc.TakePayload();
}

std::vector<std::vector<char>> ColumnPayloads(const MasterRelation& rel) {
  std::vector<std::vector<char>> payloads;
  for (EdgeId e = 0; e < rel.num_edge_columns(); ++e) {
    payloads.push_back(Payload([&](io::Writer& enc) {
      enc.WriteMeasureColumn(rel.PeekMeasureColumn(e));
    }));
  }
  return payloads;
}

Status WriteReferenceRelation(uint64_t num_records,
                              const std::vector<std::vector<char>>& payloads,
                              const std::string& path) {
  io::Writer out(path, internal::kRelationMagic, internal::kRelationVersion);
  out.BeginSection();
  out.WritePod(num_records);
  out.WritePod(static_cast<uint64_t>(payloads.size()));
  out.EndSection();
  AppendReferenceExtents(&out, payloads);
  return out.Commit();
}

// WriteEngine's sections, then its extents by the reference assembly.
Status WriteReferenceEngine(const ColGraphEngine& engine,
                            const std::string& path) {
  const MasterRelation& relation = engine.relation();
  io::Writer out(path, /*"CGEN"*/ 0x4347454E, /*version=*/5);
  out.BeginSection();
  out.WritePod(
      static_cast<uint64_t>(engine.options().relation.partition_width));
  out.WritePod(static_cast<uint64_t>(engine.options().view_min_support));
  out.WritePod(static_cast<uint64_t>(engine.catalog().size()));
  for (EdgeId id = 0; id < engine.catalog().size(); ++id) {
    for (const NodeRef& n :
         {engine.catalog().edge(id).from, engine.catalog().edge(id).to}) {
      out.WritePod(n.base);
      out.WritePod(n.occurrence);
    }
  }
  out.EndSection();
  out.BeginSection();
  out.WritePod(static_cast<uint64_t>(relation.num_records()));
  out.WritePod(static_cast<uint64_t>(relation.num_edge_columns()));
  out.EndSection();
  const auto& graph_views = engine.views().graph_views();
  const auto& agg_views = engine.views().agg_views();
  out.BeginSection();
  out.WritePod(static_cast<uint64_t>(graph_views.size()));
  for (const auto& [def, index] : graph_views) {
    out.WriteVec(def.edges);
    out.WritePod(static_cast<uint64_t>(index));
  }
  out.EndSection();
  out.BeginSection();
  out.WritePod(static_cast<uint64_t>(agg_views.size()));
  for (const auto& [def, index] : agg_views) {
    out.WritePod(static_cast<uint8_t>(def.fn));
    out.WriteVec(def.elements);
    out.WritePod(static_cast<uint64_t>(index));
  }
  out.EndSection();
  std::vector<std::vector<char>> payloads = ColumnPayloads(relation);
  for (const auto& [def, index] : graph_views) {
    payloads.push_back(Payload([&, i = index](io::Writer& enc) {
      enc.WriteBitmap(relation.PeekGraphViewColumn(i));
    }));
  }
  for (const auto& [def, index] : agg_views) {
    payloads.push_back(Payload([&, i = index](io::Writer& enc) {
      enc.WriteMeasureColumn(relation.PeekAggregateView(i));
    }));
  }
  AppendReferenceExtents(&out, payloads);
  return out.Commit();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class PersistenceTest : public ::testing::Test {
 protected:
  // Per-test file name: ctest runs each test as its own process, so a
  // shared name would let parallel tests clobber each other.
  std::string path_ =
      ::testing::TempDir() + "colgraph_persist_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(PersistenceTest, RoundtripSmallRelation) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.5}, {2, -2.0}}).ok());
  ASSERT_TRUE(rel.AddRecord({{1, 3.0}}).ok());
  ASSERT_TRUE(rel.AddRecord({}).ok());
  ASSERT_TRUE(rel.Seal().ok());

  ASSERT_TRUE(WriteRelation(rel, path_).ok());
  auto loaded = ReadRelation(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_records(), 3u);
  EXPECT_EQ(loaded->num_edge_columns(), 3u);
  EXPECT_EQ(loaded->PeekMeasureColumn(0).Get(0), 1.5);
  EXPECT_EQ(loaded->PeekMeasureColumn(2).Get(0), -2.0);
  EXPECT_EQ(loaded->PeekMeasureColumn(1).Get(1), 3.0);
  EXPECT_FALSE(loaded->PeekMeasureColumn(0).Get(2).has_value());
}

TEST_F(PersistenceTest, RoundtripRandomRelation) {
  Rng rng(99);
  MasterRelation rel;
  const size_t records = 500, edges = 40;
  std::vector<std::vector<std::pair<EdgeId, double>>> reference(records);
  for (size_t r = 0; r < records; ++r) {
    for (EdgeId e = 0; e < edges; ++e) {
      if (rng.Bernoulli(0.15)) {
        reference[r].emplace_back(e, rng.UniformReal(-100, 100));
      }
    }
    ASSERT_TRUE(rel.AddRecord(reference[r]).ok());
  }
  ASSERT_TRUE(rel.Seal().ok());
  ASSERT_TRUE(WriteRelation(rel, path_).ok());

  auto loaded = ReadRelation(path_);
  ASSERT_TRUE(loaded.ok());
  for (size_t r = 0; r < records; ++r) {
    for (const auto& [e, v] : reference[r]) {
      EXPECT_EQ(loaded->PeekMeasureColumn(e).Get(r), v);
    }
  }
}

TEST_F(PersistenceTest, UnsealedRelationRejected) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  EXPECT_TRUE(WriteRelation(rel, path_).IsInvalidArgument());
}

TEST_F(PersistenceTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadRelation("/nonexistent/dir/file.bin").status().IsIOError());
}

TEST_F(PersistenceTest, BadMagicIsCorruption) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not a colgraph file at all";
  out.close();
  EXPECT_TRUE(ReadRelation(path_).status().IsCorruption());
}

TEST_F(PersistenceTest, TruncatedFileIsCorruption) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}, {1, 2.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  ASSERT_TRUE(WriteRelation(rel, path_).ok());
  // Chop the file in half.
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_TRUE(ReadRelation(path_).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// One on-disk codec.

// Every bitmap is written in the container codec, whether the column
// carries a hybrid sidecar or not: the same relation sealed with the
// sidecar on and off produces the same file, byte for byte.
TEST_F(PersistenceTest, HybridSidecarDoesNotChangeTheBytes) {
  auto build = [](bool hybrid) {
    MasterRelationOptions options;
    options.hybrid_bitmaps = hybrid;
    MasterRelation rel(options);
    Rng rng(31);
    for (int r = 0; r < 600; ++r) {
      std::vector<std::pair<EdgeId, double>> rec;
      // Edge 0 is dense (no sidecar); edges 1-3 are set in a few records
      // only (under the 1/256 density cutoff, so they get a sidecar).
      if (rng.Bernoulli(0.5)) rec.emplace_back(0, rng.UniformReal(-5, 5));
      if (r % 300 == 7) rec.emplace_back(1 + r / 300, 1.0 * r);
      if (r == 599) rec.emplace_back(3, -1.0);
      EXPECT_TRUE(rel.AddRecord(rec).ok());
    }
    EXPECT_TRUE(rel.Seal().ok());
    return rel;
  };
  const MasterRelation with_sidecar = build(true);
  const MasterRelation without_sidecar = build(false);
  ASSERT_EQ(with_sidecar.PeekEdgeBitmapHybrid(0), nullptr);
  ASSERT_NE(with_sidecar.PeekEdgeBitmapHybrid(1), nullptr);
  ASSERT_EQ(without_sidecar.PeekEdgeBitmapHybrid(1), nullptr);

  ASSERT_TRUE(WriteRelation(with_sidecar, path_).ok());
  const std::string a = FileBytes(path_);
  ASSERT_TRUE(WriteRelation(without_sidecar, path_).ok());
  const std::string b = FileBytes(path_);
  EXPECT_EQ(a, b);
  EXPECT_EQ(with_sidecar.DiskBytes(), without_sidecar.DiskBytes());

  auto loaded = ReadRelation(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (EdgeId e = 0; e < with_sidecar.num_edge_columns(); ++e) {
    EXPECT_TRUE(loaded->PeekMeasureColumn(e).presence().bits() ==
                with_sidecar.PeekMeasureColumn(e).presence().bits());
  }
}

// ISSUE 9 satellite: a crash between Commit's tmp write and its rename
// used to strand `<path>.tmp` forever (nothing ever removed it — this
// test failed before the sweep existed). ReadRelation now clears the
// debris on the next open.
TEST_F(PersistenceTest, StaleTmpFromCrashedWriteIsSweptOnNextRead) {
  MasterRelation old_rel;
  ASSERT_TRUE(old_rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(old_rel.Seal().ok());
  ASSERT_TRUE(WriteRelation(old_rel, path_).ok());

  if (failpoint::kEnabled) {
    // Produce the debris the honest way: crash the rewrite mid-commit.
    MasterRelation new_rel;
    ASSERT_TRUE(new_rel.AddRecord({{0, 2.0}}).ok());
    ASSERT_TRUE(new_rel.Seal().ok());
    failpoint::Arm("persist:before_rename",
                   failpoint::Spec{failpoint::Action::kCrash, 0, 0});
    EXPECT_TRUE(WriteRelation(new_rel, path_).IsIOError());
    failpoint::DisarmAll();
  } else {
    // Failpoints compiled out: plant the same debris by hand.
    std::ofstream tmp(path_ + ".tmp", std::ios::binary);
    tmp << "torn half-written snapshot";
  }
  ASSERT_TRUE(std::ifstream(path_ + ".tmp", std::ios::binary).good());

  // The next read serves the surviving snapshot and sweeps the tmp.
  auto survivor = ReadRelation(path_);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor->num_records(), 1u);
  EXPECT_EQ(survivor->PeekMeasureColumn(0).Get(0), 1.0);
  EXPECT_FALSE(std::ifstream(path_ + ".tmp", std::ios::binary).good())
      << "orphaned .tmp must be swept on open";
}

// The relation codec reads v5 only: every other version number on an
// otherwise valid image is Corruption, through the mapped file reader and
// the in-memory decoder alike.
TEST_F(PersistenceTest, FutureVersionRejected) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  ASSERT_TRUE(WriteRelation(rel, path_).ok());

  std::ifstream in(path_, std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  uint32_t written = 0;
  std::memcpy(&written, valid.data() + 4, sizeof(written));
  ASSERT_EQ(written, 5u);

  for (const uint32_t version : {0u, 1u, 2u, 3u, 4u, 6u, 7u, 0xFFFFFFFFu}) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();

    const Status eager = ReadRelation(path_).status();
    ASSERT_TRUE(eager.IsCorruption()) << "v" << version << ": "
                                      << eager.ToString();
    EXPECT_NE(eager.message().find("version"), std::string::npos);
    const Status copied =
        DecodeRelation(std::vector<char>(bytes.begin(), bytes.end()), "buffer")
            .status();
    EXPECT_TRUE(copied.IsCorruption()) << "v" << version << ": "
                                       << copied.ToString();
  }
}

TEST_F(PersistenceTest, EngineSnapshotRejectedByRelationCodec) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  ASSERT_TRUE(WriteEngine(engine, path_).ok());
  EXPECT_TRUE(ReadRelation(path_).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Hostile headers: corrupt length prefixes must fail cleanly, never
// attempt the allocation they claim.

TEST_F(PersistenceTest, HugeRecordCountIsCorruptionNotBadAlloc) {
  // A well-formed v5 image whose header claims 2^60 records.
  io::Writer out(path_, internal::kRelationMagic, internal::kRelationVersion);
  out.BeginSection();
  out.WritePod(uint64_t{1} << 60);  // num_records
  out.WritePod(uint64_t{1});        // num_columns
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());
  EXPECT_TRUE(ReadRelation(path_).status().IsCorruption());
}

TEST_F(PersistenceTest, HugeVectorLengthIsCorruptionNotBadAlloc) {
  // Valid header and extent directory, then a column extent whose bitmap
  // word buffer claims 2^60 words.
  io::Writer payload;
  payload.WritePod(uint64_t{2});        // num_bits
  payload.WritePod(uint64_t{1} << 60);  // container word count
  ASSERT_TRUE(WriteReferenceRelation(2, {payload.TakePayload()}, path_).ok());
  EXPECT_TRUE(ReadRelation(path_).status().IsCorruption());
}

// The relation and engine writers encode each column straight into the
// image and fill the extent directory in afterwards. Their bytes must be
// the reference assembly's for an image with no columns, one with an
// empty column, and one whose columns run past the first 65,536-record
// container chunk, views included.
TEST_F(PersistenceTest, InPlaceImagesMatchThePayloadAssembly) {
  const auto with_views = [](ColGraphEngine* engine) {
    ASSERT_TRUE(engine->MaterializeView(GraphViewDef::Make({0, 2})).ok());
    AggViewDef agg;
    agg.elements = {0, 2};
    agg.fn = AggFn::kSum;
    ASSERT_TRUE(engine->MaterializeView(agg).ok());
  };
  const auto edge = [](NodeId from, NodeId to) {
    return Edge{NodeRef{from, 0}, NodeRef{to, 0}};
  };
  std::vector<std::pair<std::string, ColGraphEngine>> cases;
  {
    ColGraphEngine none;
    ASSERT_TRUE(none.Seal().ok());
    ASSERT_EQ(none.relation().num_edge_columns(), 0u);
    cases.emplace_back("no columns", std::move(none));
  }
  {
    // Edge 7→8 (id 1) is in the universe and in no record.
    ColGraphEngine empty_column;
    empty_column.RegisterUniverse({edge(1, 2), edge(7, 8), edge(2, 3)});
    ASSERT_TRUE(empty_column.AddWalk({1, 2, 3}, {1.5, -2.5}).ok());
    ASSERT_TRUE(empty_column.AddWalk({1, 2}, {4.0}).ok());
    ASSERT_TRUE(empty_column.Seal().ok());
    ASSERT_EQ(empty_column.relation().PeekMeasureColumn(1).num_values(), 0u);
    with_views(&empty_column);
    cases.emplace_back("an empty column", std::move(empty_column));
  }
  {
    ColGraphEngine large;
    for (int r = 0; r < 70000; ++r) {
      const std::vector<NodeId> walk =
          r % 3 == 0 ? std::vector<NodeId>{1, 2, 3, 4}
                     : std::vector<NodeId>{1, 2, 3};
      ASSERT_TRUE(
          large.AddWalk(walk, std::vector<double>(walk.size() - 1, r)).ok());
    }
    ASSERT_TRUE(large.Seal().ok());
    ASSERT_GT(large.relation().num_records(), 65536u);
    with_views(&large);
    cases.emplace_back("past 65,536 records", std::move(large));
  }

  const std::string reference = path_ + ".reference";
  for (const auto& [name, engine] : cases) {
    ASSERT_TRUE(WriteRelation(engine.relation(), path_).ok()) << name;
    ASSERT_TRUE(WriteReferenceRelation(engine.relation().num_records(),
                                       ColumnPayloads(engine.relation()),
                                       reference)
                    .ok());
    EXPECT_EQ(FileBytes(path_), FileBytes(reference)) << "relation, " << name;
    ASSERT_TRUE(WriteEngine(engine, path_).ok()) << name;
    ASSERT_TRUE(WriteReferenceEngine(engine, reference).ok());
    EXPECT_EQ(FileBytes(path_), FileBytes(reference)) << "engine, " << name;
  }
  std::remove(reference.c_str());
}

// ---------------------------------------------------------------------------
// Write-side failures.

TEST_F(PersistenceTest, WriteToDirectoryTargetIsIOError) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  const std::string dir = ::testing::TempDir() + "colgraph_persist_dir";
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  EXPECT_TRUE(WriteRelation(rel, dir).IsIOError());
  rmdir(dir.c_str());
}

TEST_F(PersistenceTest, WriteToNonexistentDirIsIOError) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  EXPECT_TRUE(WriteRelation(rel, "/nonexistent/dir/file.bin").IsIOError());
}

// ---------------------------------------------------------------------------
// Crash-atomicity (requires the failpoint build).

TEST_F(PersistenceTest, CrashBeforeRenameLeavesPreviousSnapshotReadable) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (COLGRAPH_FAILPOINTS=OFF)";
  }
  MasterRelation old_rel;
  ASSERT_TRUE(old_rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(old_rel.Seal().ok());
  ASSERT_TRUE(WriteRelation(old_rel, path_).ok());

  MasterRelation new_rel;
  ASSERT_TRUE(new_rel.AddRecord({{0, 2.0}}).ok());
  ASSERT_TRUE(new_rel.AddRecord({{1, 3.0}}).ok());
  ASSERT_TRUE(new_rel.Seal().ok());
  failpoint::Arm("persist:before_rename",
                 failpoint::Spec{failpoint::Action::kCrash, 0, 0});
  EXPECT_TRUE(WriteRelation(new_rel, path_).IsIOError());
  failpoint::DisarmAll();

  // The crash leaves the orphaned .tmp behind, exactly as a real crash
  // would leave it.
  EXPECT_TRUE(std::ifstream(path_ + ".tmp", std::ios::binary).good());

  // The previous snapshot is untouched, and reading it sweeps the orphan.
  auto survivor = ReadRelation(path_);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor->num_records(), 1u);
  EXPECT_EQ(survivor->PeekMeasureColumn(0).Get(0), 1.0);
  EXPECT_FALSE(std::ifstream(path_ + ".tmp", std::ios::binary).good());
  std::remove((path_ + ".tmp").c_str());
}

TEST_F(PersistenceTest, ShortWriteIsDetectedOnNextRead) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (COLGRAPH_FAILPOINTS=OFF)";
  }
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}, {1, 2.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  // A lying filesystem persists only 21 bytes but reports success; the
  // footer check catches it on the next load.
  failpoint::Arm("io:short_write",
                 failpoint::Spec{failpoint::Action::kShortWrite, 0, 21});
  ASSERT_TRUE(WriteRelation(rel, path_).ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(ReadRelation(path_).status().IsCorruption());
}

TEST_F(PersistenceTest, FsyncFailureIsIOErrorWithoutPublishing) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (COLGRAPH_FAILPOINTS=OFF)";
  }
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  failpoint::Arm("io:fsync",
                 failpoint::Spec{failpoint::Action::kError, 0, 0});
  EXPECT_TRUE(WriteRelation(rel, path_).IsIOError());
  failpoint::DisarmAll();
  // Nothing published, no tmp litter.
  std::ifstream final_file(path_, std::ios::binary);
  EXPECT_FALSE(final_file.good());
  std::ifstream tmp(path_ + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

}  // namespace
}  // namespace colgraph
