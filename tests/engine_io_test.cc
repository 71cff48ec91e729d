#include "core/engine_io.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "columnstore/persistence.h"
#include "util/failpoint.h"
#include "workload/base_graphs.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

class EngineIoTest : public ::testing::Test {
 protected:
  // Per-test file name: ctest runs each test as its own process, so a
  // shared name would let parallel tests clobber each other.
  std::string path_ =
      ::testing::TempDir() + "colgraph_engine_io_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(EngineIoTest, RoundtripSmallEngine) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2, 3, 4}, {1, 2, 3}).ok());
  ASSERT_TRUE(engine.AddWalk({2, 3, 4}, {4, 5}).ok());
  ASSERT_TRUE(engine.Seal().ok());

  ASSERT_TRUE(WriteEngine(engine, path_).ok());
  auto loaded = ReadEngine(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_records(), 2u);
  EXPECT_EQ(loaded->catalog().size(), engine.catalog().size());
  const GraphQuery q = GraphQuery::FromPath({N(2), N(3), N(4)});
  EXPECT_EQ(loaded->Match(q).ToVector(), engine.Match(q).ToVector());
  auto agg = loaded->RunAggregateQuery(q, AggFn::kSum);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->values[0], (std::vector<double>{5, 9}));
}

TEST_F(EngineIoTest, RoundtripPreservesViews) {
  ColGraphEngine engine;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2, 3, 4}, {1, 2, 3}).ok());
  }
  ASSERT_TRUE(engine.Seal().ok());
  const EdgeId e0 = *engine.catalog().Lookup(Edge{N(1), N(2)});
  const EdgeId e1 = *engine.catalog().Lookup(Edge{N(2), N(3)});
  const EdgeId e2 = *engine.catalog().Lookup(Edge{N(3), N(4)});
  ASSERT_TRUE(engine.MaterializeView(GraphViewDef::Make({e0, e1, e2})).ok());
  AggViewDef agg;
  agg.elements = {e0, e1};
  agg.fn = AggFn::kSum;
  ASSERT_TRUE(engine.MaterializeView(agg).ok());

  ASSERT_TRUE(WriteEngine(engine, path_).ok());
  auto loaded = ReadEngine(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->views().num_graph_views(), 1u);
  EXPECT_EQ(loaded->views().num_agg_views(), 1u);
  // Rewriting works against the restored views: single-bitmap match.
  loaded->stats().Reset();
  const Bitmap m =
      loaded->Match(GraphQuery::FromPath({N(1), N(2), N(3), N(4)}));
  EXPECT_EQ(m.Count(), 5u);
  EXPECT_EQ(loaded->stats().bitmap_columns_fetched, 1u);
}

TEST_F(EngineIoTest, RoundtripRandomizedEngineMatchesQueryForQuery) {
  const DirectedGraph base = MakeRoadNetwork(15, 15);
  auto universe = SelectEdgeUniverse(base, 200, 5);
  ASSERT_TRUE(universe.ok());
  WalkRecordGenerator generator(&*universe, RecordGenOptions{}, 7);
  ColGraphEngine engine;
  std::vector<std::vector<NodeRef>> trunks;
  for (int i = 0; i < 300; ++i) {
    std::vector<NodeRef> trunk;
    ASSERT_TRUE(engine.AddRecord(generator.Next(&trunk)).ok());
    trunks.push_back(std::move(trunk));
  }
  ASSERT_TRUE(engine.Seal().ok());
  QueryGenerator qgen(&trunks, &*universe, 11);
  const auto workload = qgen.UniformWorkload(15, QueryGenOptions{});
  ASSERT_TRUE(engine.SelectAndMaterializeGraphViews(workload, 5).ok());

  ASSERT_TRUE(WriteEngine(engine, path_).ok());
  auto loaded = ReadEngine(path_);
  ASSERT_TRUE(loaded.ok());

  for (const GraphQuery& q : workload) {
    const auto expected = engine.RunGraphQuery(q);
    const auto got = loaded->RunGraphQuery(q);
    ASSERT_TRUE(expected.ok() && got.ok());
    EXPECT_EQ(got->records, expected->records);
    EXPECT_EQ(got->columns, expected->columns);
  }
}

TEST_F(EngineIoTest, UnsealedEngineRejected) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  EXPECT_TRUE(WriteEngine(engine, path_).IsInvalidArgument());
}

TEST_F(EngineIoTest, CorruptFileRejected) {
  std::ofstream out(path_, std::ios::binary);
  out << "garbage";
  out.close();
  EXPECT_TRUE(ReadEngine(path_).status().IsCorruption());
}

// A reloaded engine grows the one way every sealed engine does: the new
// walks become a tail dataset, which is attached and then compacted in.
TEST_F(EngineIoTest, AppendAfterReload) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  ASSERT_TRUE(WriteEngine(engine, path_).ok());

  auto loaded = ReadEngine(path_);
  ASSERT_TRUE(loaded.ok());
  auto record = WalkToRecord({1, 2}, {2.0});
  ASSERT_TRUE(record.ok());
  auto tail = loaded->BuildTailRelation({record.value()});
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_TRUE(loaded
                  ->AttachDataset(std::make_shared<const MasterRelation>(
                      std::move(tail).value()))
                  .ok());
  EXPECT_EQ(loaded->total_records(), 2u);
  EXPECT_EQ(loaded->Match(GraphQuery::FromPath({N(1), N(2)})).Count(), 2u);
  ASSERT_TRUE(loaded->Compact().ok());
  EXPECT_EQ(loaded->num_records(), 2u);
  EXPECT_EQ(loaded->Match(GraphQuery::FromPath({N(1), N(2)})).Count(), 2u);
}

// An engine image holds one relation, so persisting an engine with tails
// attached must refuse until the tails are compacted: writing the primary
// alone would silently drop the tail records.
TEST_F(EngineIoTest, AttachedTailsMustBeCompactedBeforeWrite) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  std::vector<GraphRecord> records;
  for (const double m : {2.0, 3.0}) {
    auto record = WalkToRecord({1, 2}, {m});
    ASSERT_TRUE(record.ok());
    records.push_back(std::move(record).value());
  }
  auto tail = engine.BuildTailRelation(records);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_TRUE(engine
                  .AttachDataset(std::make_shared<const MasterRelation>(
                      std::move(tail).value()))
                  .ok());
  ASSERT_EQ(engine.total_records(), 3u);

  const Status st = WriteEngine(engine, path_);
  ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("Compact()"), std::string::npos)
      << st.message();
  EXPECT_FALSE(std::ifstream(path_, std::ios::binary).good())
      << "a refused write must not publish a file";

  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_TRUE(WriteEngine(engine, path_).ok());
  auto loaded = ReadEngine(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_records(), 3u);
  auto sum = loaded->RunAggregateQuery(GraphQuery::FromPath({N(1), N(2)}),
                                       AggFn::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->values[0], (std::vector<double>{1.0, 2.0, 3.0}));
}

// ---------------------------------------------------------------------------
// Version: the engine codec reads v5 only. Every other version number on
// an otherwise valid image is Corruption (relation images and dataset
// directories: PersistenceTest.FutureVersionRejected and
// DaemonDatasetTest.OtherVersionDatasetFailsStart).

TEST_F(EngineIoTest, FutureVersionRejected) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  ASSERT_TRUE(WriteEngine(engine, path_).ok());

  std::ifstream in(path_, std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  uint32_t written = 0;
  std::memcpy(&written, valid.data() + 4, sizeof(written));
  ASSERT_EQ(written, 5u);

  for (const uint32_t version : {0u, 1u, 2u, 3u, 4u, 6u, 9u, 0xFFFFFFFFu}) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();

    const Status st = ReadEngine(path_).status();
    ASSERT_TRUE(st.IsCorruption()) << "v" << version << ": " << st.ToString();
    EXPECT_NE(st.message().find("version"), std::string::npos);
  }
}

TEST_F(EngineIoTest, RelationSnapshotRejectedByEngineCodec) {
  MasterRelation rel;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  ASSERT_TRUE(WriteRelation(rel, path_).ok());
  EXPECT_TRUE(ReadEngine(path_).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Write-side failures and crash-atomicity.

TEST_F(EngineIoTest, WriteToDirectoryTargetIsIOError) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  const std::string dir = ::testing::TempDir() + "colgraph_engine_io_dir";
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  EXPECT_TRUE(WriteEngine(engine, dir).IsIOError());
  rmdir(dir.c_str());
}

TEST_F(EngineIoTest, CrashBeforeRenameLeavesPreviousSnapshotReadable) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (COLGRAPH_FAILPOINTS=OFF)";
  }
  ColGraphEngine old_engine;
  ASSERT_TRUE(old_engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(old_engine.Seal().ok());
  ASSERT_TRUE(WriteEngine(old_engine, path_).ok());

  ColGraphEngine new_engine;
  ASSERT_TRUE(new_engine.AddWalk({1, 2}, {2.0}).ok());
  ASSERT_TRUE(new_engine.AddWalk({2, 3}, {3.0}).ok());
  ASSERT_TRUE(new_engine.Seal().ok());
  failpoint::Arm("persist:before_rename",
                 failpoint::Spec{failpoint::Action::kCrash, 0, 0});
  EXPECT_TRUE(WriteEngine(new_engine, path_).IsIOError());
  failpoint::DisarmAll();

  auto survivor = ReadEngine(path_);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor->num_records(), 1u);
  std::remove((path_ + ".tmp").c_str());
}

}  // namespace
}  // namespace colgraph
