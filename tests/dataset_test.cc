// Out-of-core dataset storage (ISSUE 9 / DESIGN.md §14): DatasetStore
// seal/load/compact semantics, crash-debris sweeping, the engine's tail
// attachment + copy-on-write snapshot sharing, and the acceptance
// criterion of the whole design — a collection split across >= 3 sealed
// datasets answers every query byte-identically to the same collection
// ingested into a single in-RAM snapshot, before and after compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "columnstore/dataset.h"
#include "columnstore/io_util.h"
#include "columnstore/persistence.h"
#include "core/engine.h"
#include "graph/flatten.h"
#include "util/random.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

// Exact (bitwise) double comparison: byte-identical results means the same
// bits, and NaN != NaN would make operator== lie about identical outputs.
bool BitEqual(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

bool BitEqual(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!BitEqual(a[i][j], b[i][j])) return false;
    }
  }
  return true;
}

bool TablesIdentical(const MeasureTable& a, const MeasureTable& b) {
  return a.records == b.records && a.edges == b.edges &&
         BitEqual(a.columns, b.columns);
}

bool AggResultsIdentical(const PathAggResult& a, const PathAggResult& b) {
  if (a.records != b.records || a.paths.size() != b.paths.size()) return false;
  for (size_t p = 0; p < a.paths.size(); ++p) {
    if (a.paths[p].nodes() != b.paths[p].nodes()) return false;
  }
  return BitEqual(a.values, b.values);
}

// A deterministic batch of walks over node ids 1..8; every engine built
// from the same seed sees identical records in identical order, so catalog
// ids line up across the single-snapshot and split-dataset builds.
std::vector<std::vector<NodeId>> MakeWalks(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> walks;
  walks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<NodeId> walk;
    const size_t hops = 2 + rng.Uniform(0, 3);
    for (size_t h = 0; h <= hops; ++h) {
      walk.push_back(static_cast<NodeId>(rng.Uniform(1, 8)));
    }
    walks.push_back(std::move(walk));
  }
  return walks;
}

std::vector<double> MeasuresFor(const std::vector<NodeId>& walk,
                                uint64_t salt) {
  std::vector<double> m;
  for (size_t h = 0; h + 1 < walk.size(); ++h) {
    m.push_back(0.25 * static_cast<double>(h + 1) +
                static_cast<double>(salt % 7));
  }
  return m;
}

GraphRecord RecordFor(const std::vector<NodeId>& walk, uint64_t salt) {
  GraphRecord record;
  record.elements = WalkToEdges(walk);
  record.measures = MeasuresFor(walk, salt);
  return record;
}

// The query workload the determinism check replays against both builds:
// every ordered node pair plus a band of 3-node paths.
std::vector<GraphQuery> MakeWorkload() {
  std::vector<GraphQuery> queries;
  for (NodeId a = 1; a <= 8; ++a) {
    for (NodeId b = 1; b <= 8; ++b) {
      if (a == b) continue;
      queries.push_back(GraphQuery::FromPath({N(a), N(b)}));
    }
  }
  for (NodeId a = 1; a <= 6; ++a) {
    queries.push_back(GraphQuery::FromPath({N(a), N(a + 1), N(a + 2)}));
  }
  return queries;
}

// One engine holding all `walks` as a single sealed relation.
ColGraphEngine BuildSingle(const std::vector<std::vector<NodeId>>& walks) {
  ColGraphEngine engine;
  for (size_t i = 0; i < walks.size(); ++i) {
    COLGRAPH_CHECK_OK(engine.AddWalk(walks[i], MeasuresFor(walks[i], i)));
  }
  COLGRAPH_CHECK_OK(engine.Seal());
  return engine;
}

// The same walks split into a primary chunk plus `num_tails` attached tail
// datasets (the incremental-ingest shape the daemon produces).
ColGraphEngine BuildSplit(const std::vector<std::vector<NodeId>>& walks,
                          size_t num_tails) {
  const size_t chunk = walks.size() / (num_tails + 1);
  ColGraphEngine engine;
  for (size_t i = 0; i < chunk; ++i) {
    COLGRAPH_CHECK_OK(engine.AddWalk(walks[i], MeasuresFor(walks[i], i)));
  }
  COLGRAPH_CHECK_OK(engine.Seal());
  for (size_t t = 0; t < num_tails; ++t) {
    std::vector<GraphRecord> records;
    const size_t begin = chunk * (t + 1);
    const size_t end = t + 1 == num_tails ? walks.size() : chunk * (t + 2);
    for (size_t i = begin; i < end; ++i) {
      records.push_back(RecordFor(walks[i], i));
    }
    auto tail = engine.BuildTailRelation(records);
    COLGRAPH_CHECK_OK(tail.status());
    COLGRAPH_CHECK_OK(engine.AttachDataset(
        std::make_shared<const MasterRelation>(std::move(tail).value())));
  }
  return engine;
}

// Replays the workload against both engines; every graph query table and
// every kSum path aggregation must be byte-identical.
void ExpectQueryEquivalence(const ColGraphEngine& expected,
                            const ColGraphEngine& actual,
                            const std::string& context) {
  for (const GraphQuery& q : MakeWorkload()) {
    const auto want = expected.RunGraphQuery(q);
    const auto got = actual.RunGraphQuery(q);
    ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    EXPECT_TRUE(TablesIdentical(want.value(), got.value()))
        << context << ": graph query diverged";

    const auto want_agg = expected.RunAggregateQuery(q, AggFn::kSum);
    const auto got_agg = actual.RunAggregateQuery(q, AggFn::kSum);
    ASSERT_TRUE(want_agg.ok()) << context << ": " << want_agg.status().ToString();
    ASSERT_TRUE(got_agg.ok()) << context << ": " << got_agg.status().ToString();
    EXPECT_TRUE(AggResultsIdentical(want_agg.value(), got_agg.value()))
        << context << ": path aggregation diverged";
  }
}

// A small standalone relation for the DatasetStore file-level tests.
MasterRelation MakeRelation(uint64_t seed, size_t num_records) {
  Rng rng(seed);
  MasterRelation rel;
  for (size_t r = 0; r < num_records; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId e = 0; e < 6; ++e) {
      if (rng.Bernoulli(0.4)) record.emplace_back(e, rng.UniformReal(-9, 9));
    }
    COLGRAPH_CHECK_OK(rel.AddRecord(record));
  }
  COLGRAPH_CHECK_OK(rel.Seal());
  return rel;
}

void ExpectRelationsEqual(const MasterRelation& a, const MasterRelation& b,
                          const std::string& context) {
  ASSERT_EQ(a.num_records(), b.num_records()) << context;
  ASSERT_EQ(a.num_edge_columns(), b.num_edge_columns()) << context;
  for (EdgeId e = 0; e < a.num_edge_columns(); ++e) {
    const MeasureColumn& ca = a.PeekMeasureColumn(e);
    const MeasureColumn& cb = b.PeekMeasureColumn(e);
    for (RecordId r = 0; r < a.num_records(); ++r) {
      const auto va = ca.Get(r);
      const auto vb = cb.Get(r);
      ASSERT_EQ(va.has_value(), vb.has_value()) << context;
      if (va.has_value()) {
        ASSERT_TRUE(BitEqual(*va, *vb)) << context;
      }
    }
  }
}

class DatasetStoreTest : public ::testing::Test {
 protected:
  std::string dir_ =
      ::testing::TempDir() + "colgraph_ds_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  void SetUp() override { std::filesystem::remove_all(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteJunk(const std::string& name) {
    std::ofstream out(dir_ + "/" + name, std::ios::binary | std::ios::trunc);
    out << "crash debris";
  }
};

TEST_F(DatasetStoreTest, OpenCreatesEmptyStore) {
  auto store = DatasetStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().num_datasets(), 0u);
  const auto loaded = store.value().LoadAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().empty());
}

TEST_F(DatasetStoreTest, SealThenReopenRoundTrips) {
  const MasterRelation a = MakeRelation(11, 20);
  const MasterRelation b = MakeRelation(22, 35);
  {
    auto store = DatasetStore::Open(dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store.value().Seal(a).ok());
    ASSERT_TRUE(store.value().Seal(b).ok());
    EXPECT_EQ(store.value().num_datasets(), 2u);
  }
  auto reopened = DatasetStore::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value().num_datasets(), 2u);
  const auto loaded = reopened.value().LoadAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  ExpectRelationsEqual(a, loaded.value()[0], "dataset 0");
  ExpectRelationsEqual(b, loaded.value()[1], "dataset 1");
}

// A crash can leave three kinds of debris: a manifest .tmp from a torn
// rewrite, a sealed-but-unpublished dataset file (crash between the file
// write and the manifest commit), and the compaction lock of a dead
// holder. Open() must sweep all three and keep the published datasets.
TEST_F(DatasetStoreTest, OpenSweepsCrashDebris) {
  const MasterRelation a = MakeRelation(33, 12);
  {
    auto store = DatasetStore::Open(dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store.value().Seal(a).ok());
  }
  WriteJunk("MANIFEST.tmp");
  WriteJunk("ds-999999.cgds");
  WriteJunk("ds-999998.cgds.tmp");
  WriteJunk("compact.lock");

  auto reopened = DatasetStore::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().num_datasets(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/MANIFEST.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/ds-999999.cgds"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/ds-999998.cgds.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/compact.lock"));

  const auto loaded = reopened.value().LoadAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 1u);
  ExpectRelationsEqual(a, loaded.value()[0], "surviving dataset");
  // The compaction the stale lock would have blocked is possible again.
  ASSERT_TRUE(reopened.value().Seal(MakeRelation(44, 9)).ok());
  ASSERT_TRUE(reopened.value().CompactAll().ok());
}

TEST_F(DatasetStoreTest, CompactAllMergesInManifestOrderAndRetiresInputs) {
  const std::vector<MasterRelation> inputs = {
      MakeRelation(1, 17), MakeRelation(2, 9), MakeRelation(3, 26)};
  auto store = DatasetStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<std::string> sealed_names;
  for (const MasterRelation& rel : inputs) {
    auto name = store.value().Seal(rel);
    ASSERT_TRUE(name.ok()) << name.status().ToString();
    sealed_names.push_back(std::move(name).value());
  }

  ASSERT_TRUE(store.value().CompactAll().ok());
  ASSERT_EQ(store.value().num_datasets(), 1u);
  for (const std::string& name : sealed_names) {
    EXPECT_FALSE(std::filesystem::exists(store.value().PathFor(name)))
        << name << " should be retired";
  }

  const auto loaded = store.value().LoadAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 1u);
  const MasterRelation& merged = loaded.value()[0];
  size_t base = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const MasterRelation& in = inputs[i];
    for (EdgeId e = 0; e < in.num_edge_columns(); ++e) {
      const MeasureColumn& want = in.PeekMeasureColumn(e);
      const MeasureColumn& got = merged.PeekMeasureColumn(e);
      for (RecordId r = 0; r < in.num_records(); ++r) {
        const auto va = want.Get(r);
        const auto vb = got.Get(base + r);
        ASSERT_EQ(va.has_value(), vb.has_value())
            << "input " << i << " record " << r << " edge " << e;
        if (va.has_value()) {
          ASSERT_TRUE(BitEqual(*va, *vb));
        }
      }
    }
    base += in.num_records();
  }
  EXPECT_EQ(merged.num_records(), base);
}

// A cycle merges only the newest run: the older datasets keep their files
// and ids, and the merged one takes the next id, so the manifest stays
// ascending and a reopen attaches the datasets in the same order.
TEST_F(DatasetStoreTest, CompactNewestMergesOnlyTheNewestRun) {
  const std::vector<MasterRelation> inputs = {
      MakeRelation(1, 17), MakeRelation(2, 9), MakeRelation(3, 26)};
  auto store = DatasetStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const MasterRelation& rel : inputs) {
    ASSERT_TRUE(store.value().Seal(rel).ok());
  }
  const std::string oldest = store.value().dataset_names().front();
  EXPECT_TRUE(store.value().CompactNewest(4).IsInvalidArgument());
  ASSERT_TRUE(store.value().CompactNewest(2).ok());
  EXPECT_EQ(store.value().dataset_names(),
            (std::vector<std::string>{oldest, "ds-000003.cgds"}));

  auto reopened = DatasetStore::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto loaded = reopened.value().LoadAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  ExpectRelationsEqual(inputs[0], loaded.value()[0], "older dataset");
  EXPECT_EQ(loaded.value()[1].num_records(), 9u + 26u);
}

// The manifest's ids must ascend: a permuted list would attach the
// datasets out of order and silently renumber their records.
TEST_F(DatasetStoreTest, OpenRejectsPermutedManifest) {
  {
    auto store = DatasetStore::Open(dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store.value().Seal(MakeRelation(1, 5)).ok());
    ASSERT_TRUE(store.value().Seal(MakeRelation(2, 7)).ok());
  }
  io::Writer out(dir_ + "/MANIFEST", /*"CGMF"*/ 0x43474D46, /*version=*/2);
  out.BeginSection();
  out.WritePod(uint64_t{2});                       // next id
  out.WriteVec(std::vector<uint64_t>{1, 0});       // live ids, permuted
  out.EndSection();
  ASSERT_TRUE(out.Commit().ok());

  const auto reopened = DatasetStore::Open(dir_);
  ASSERT_FALSE(reopened.ok()) << "a permuted manifest opened";
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST_F(DatasetStoreTest, CompactAllIsNoOpBelowThreshold) {
  auto store = DatasetStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value().Seal(MakeRelation(5, 8)).ok());
  const std::string sealed = store.value().dataset_names()[0];
  ASSERT_LT(store.value().num_datasets(), kMinDatasetsToCompact);
  ASSERT_TRUE(store.value().CompactAll().ok());
  // Below the threshold: the one dataset is neither merged nor rewritten.
  EXPECT_EQ(store.value().num_datasets(), 1u);
  EXPECT_EQ(store.value().dataset_names()[0], sealed);
}

TEST_F(DatasetStoreTest, CompactAllContendedLockIsUnavailable) {
  auto store = DatasetStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value().Seal(MakeRelation(7, 8)).ok());
  ASSERT_TRUE(store.value().Seal(MakeRelation(8, 8)).ok());

  auto lock = io::ExclusiveFile::Acquire(dir_ + "/compact.lock");
  ASSERT_TRUE(lock.ok()) << lock.status().ToString();
  const Status contended = store.value().CompactAll();
  ASSERT_FALSE(contended.ok());
  EXPECT_TRUE(contended.IsUnavailable()) << contended.ToString();
  EXPECT_EQ(store.value().num_datasets(), 2u);

  lock.value().Release();
  ASSERT_TRUE(store.value().CompactAll().ok());
  EXPECT_EQ(store.value().num_datasets(), 1u);
}

// A dataset loads through the mapped reader (ReadRelation): every column
// of the sealed relation comes back with the same presence bits and value
// bits.
TEST_F(DatasetStoreTest, LoadReadsEveryColumnThroughTheMappedReader) {
  const MasterRelation rel = MakeRelation(10, 40);
  auto store = DatasetStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value().Seal(rel).ok());
  const auto loaded = store.value().Load(0);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_records(), rel.num_records());
  ASSERT_EQ(loaded.value().num_edge_columns(), rel.num_edge_columns());
  for (EdgeId c = 0; c < rel.num_edge_columns(); ++c) {
    const MeasureColumn& want = rel.PeekMeasureColumn(c);
    const MeasureColumn& got = loaded.value().PeekMeasureColumn(c);
    ASSERT_TRUE(want.presence().bits() == got.presence().bits())
        << "column " << c;
    ASSERT_EQ(want.num_values(), got.num_values()) << "column " << c;
    for (size_t i = 0; i < want.num_values(); ++i) {
      ASSERT_TRUE(BitEqual(want.ValueAtRank(i), got.ValueAtRank(i)))
          << "column " << c;
    }
  }
}

// --- Engine-level tail semantics -----------------------------------------

// The acceptance criterion of DESIGN.md §14: a collection split across
// >= 3 datasets is indistinguishable, result byte for result byte, from
// the same collection as one in-RAM snapshot — before and after the tails
// are compacted back into the primary.
TEST(DatasetEngineTest, SplitAcrossThreeDatasetsIsByteIdentical) {
  const auto walks = MakeWalks(120, 20260808);
  const ColGraphEngine single = BuildSingle(walks);
  ColGraphEngine split = BuildSplit(walks, /*num_tails=*/3);
  ASSERT_EQ(split.tails().size(), 3u);
  ASSERT_EQ(split.total_records(), single.num_records());

  ExpectQueryEquivalence(single, split, "3 tails vs single snapshot");

  ASSERT_TRUE(split.Compact().ok());
  EXPECT_TRUE(split.tails().empty());
  EXPECT_EQ(split.num_records(), single.num_records());
  ExpectQueryEquivalence(single, split, "post-Compact vs single snapshot");
}

// Durable variant: the tails round-trip through DatasetStore files (the
// daemon's restart path) and must still answer identically.
TEST(DatasetEngineTest, TailsReloadedFromStoreAreByteIdentical) {
  const std::string dir = ::testing::TempDir() + "colgraph_ds_reload";
  std::filesystem::remove_all(dir);
  const auto walks = MakeWalks(96, 4242);
  const ColGraphEngine single = BuildSingle(walks);
  ColGraphEngine split = BuildSplit(walks, /*num_tails=*/3);

  auto store = DatasetStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& tail : split.tails()) {
    ASSERT_TRUE(store.value().Seal(*tail).ok());
  }

  auto loaded = store.value().LoadAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 3u);

  // Rebuild from the primary chunk + the sealed files, as a restart would.
  // The catalog is driven through the same records in the same order (so
  // edge ids keep their assignment), but the attached tail relations are
  // the on-disk images, not the in-RAM ones.
  const size_t chunk = walks.size() / 4;
  ColGraphEngine from_disk;
  for (size_t i = 0; i < chunk; ++i) {
    ASSERT_TRUE(from_disk.AddWalk(walks[i], MeasuresFor(walks[i], i)).ok());
  }
  ASSERT_TRUE(from_disk.Seal().ok());
  for (size_t t = 0; t < 3; ++t) {
    std::vector<GraphRecord> records;
    const size_t begin = chunk * (t + 1);
    const size_t end = t + 1 == 3 ? walks.size() : chunk * (t + 2);
    for (size_t i = begin; i < end; ++i) records.push_back(RecordFor(walks[i], i));
    ASSERT_TRUE(from_disk.BuildTailRelation(records).ok());
    ASSERT_TRUE(from_disk
                    .AttachDataset(std::make_shared<const MasterRelation>(
                        std::move(loaded.value()[t])))
                    .ok());
  }
  ExpectQueryEquivalence(single, from_disk, "tails reloaded from store");
  std::filesystem::remove_all(dir);
}

// A compaction cycle swaps only its run: the store's merge of the newest
// two tails replaces exactly those two, the oldest tail stays shared, and
// answers do not change. A replacement that does not hold the replaced
// tails' records is refused and changes nothing.
TEST(DatasetEngineTest, ReplaceTailsSwapsOnlyTheNewestRun) {
  const std::string dir = ::testing::TempDir() + "colgraph_ds_newest_run";
  std::filesystem::remove_all(dir);
  const auto walks = MakeWalks(96, 6060);
  const ColGraphEngine single = BuildSingle(walks);
  ColGraphEngine split = BuildSplit(walks, /*num_tails=*/3);
  const auto oldest = split.tails().front();

  auto store = DatasetStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& tail : split.tails()) {
    ASSERT_TRUE(store.value().Seal(*tail).ok());
  }
  ASSERT_TRUE(store.value().CompactNewest(2).ok());
  auto merged = store.value().Load(1);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto tail = split.BuildTailRelation(std::move(merged).value());
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  const auto shared = std::make_shared<const MasterRelation>(std::move(*tail));

  const Status too_few = split.ReplaceTails(1, {shared});
  EXPECT_TRUE(too_few.IsInternal()) << too_few.ToString();
  EXPECT_TRUE(split.ReplaceTails(4, {shared}).IsInvalidArgument());
  ASSERT_EQ(split.tails().size(), 3u);

  ASSERT_TRUE(split.ReplaceTails(2, {shared}).ok());
  ASSERT_EQ(split.tails().size(), 2u);
  EXPECT_EQ(split.tails()[0], oldest);
  EXPECT_EQ(split.tails()[1], shared);
  ExpectQueryEquivalence(single, split, "newest run swapped in");
  std::filesystem::remove_all(dir);
}

// The daemon swaps in merged view columns, so ReplaceTails checks them
// too: a merge of the newest two tails whose graph view lost one set bit
// holds the same records and edge values, yet is refused as Internal and
// changes nothing. The faithful merge is accepted.
TEST(DatasetEngineTest, ReplaceTailsRefusesAMergeThatLostAViewBit) {
  const auto walks = MakeWalks(96, 3131);
  ColGraphEngine split = BuildSplit(walks, /*num_tails=*/3);
  // Views over the first two edges of a walk in the merged run (the newest
  // two tails) that the primary has columns for, so the graph view has a
  // set bit in the run.
  const size_t primary_columns = split.relation().num_edge_columns();
  std::vector<EdgeId> ids;
  for (size_t w = walks.size(); w-- > walks.size() / 2 && ids.empty();) {
    const std::vector<Edge> path = WalkToEdges(walks[w]);
    const auto first = split.catalog().Lookup(path[0]);
    const auto second = split.catalog().Lookup(path[1]);
    ASSERT_TRUE(first.has_value() && second.has_value());
    if (*first < primary_columns && *second < primary_columns) {
      ids = {*first, *second};
    }
  }
  ASSERT_FALSE(ids.empty()) << "no walk of the run fits the primary's columns";
  ASSERT_TRUE(split.MaterializeView(GraphViewDef::Make(ids)).ok());
  AggViewDef agg;
  agg.elements = ids;
  agg.fn = AggFn::kSum;
  ASSERT_TRUE(split.MaterializeView(agg).ok());
  const auto before = split.tails();

  auto merged = MergeRelations({before[1].get(), before[2].get()},
                               MasterRelationOptions{});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->num_graph_views(), 1u);
  ASSERT_EQ(merged->num_aggregate_views(), 1u);

  // The same columns and aggregate view; graph view 0 minus its last bit.
  std::vector<MeasureColumn> columns;
  for (EdgeId c = 0; c < merged->num_edge_columns(); ++c) {
    columns.push_back(merged->PeekMeasureColumn(c));
  }
  auto lossy = MasterRelation::FromColumns(merged->num_records(),
                                           std::move(columns), {});
  ASSERT_TRUE(lossy.ok()) << lossy.status().ToString();
  Bitmap bits = merged->PeekGraphView(0);
  size_t last = bits.size();
  bits.ForEachSetBit([&](size_t r) { last = r; });
  ASSERT_LT(last, bits.size()) << "the view must match some record";
  bits.Clear(last);
  lossy->AddGraphView(std::move(bits));
  lossy->AddAggregateView(merged->PeekAggregateView(0));

  const Status refused = split.ReplaceTails(
      2, {std::make_shared<const MasterRelation>(std::move(lossy).value())});
  EXPECT_TRUE(refused.IsInternal()) << refused.ToString();
  EXPECT_EQ(split.tails(), before) << "a refused swap changed the tails";

  ASSERT_TRUE(split
                  .ReplaceTails(2, {std::make_shared<const MasterRelation>(
                                       std::move(merged).value())})
                  .ok());
  ASSERT_EQ(split.tails().size(), 2u);
  EXPECT_EQ(split.tails()[0], before[0]);
  ExpectQueryEquivalence(BuildSingle(walks), split,
                         "faithful merge swapped in");
}

TEST(DatasetEngineTest, ViewsSurviveCompaction) {
  const auto walks = MakeWalks(80, 99);
  ColGraphEngine split = BuildSplit(walks, /*num_tails=*/2);
  ASSERT_TRUE(split.MaterializeView(GraphViewDef::Make({0, 1})).ok());
  AggViewDef agg;
  agg.elements = {0, 1};
  agg.fn = AggFn::kSum;
  ASSERT_TRUE(split.MaterializeView(agg).ok());

  const ColGraphEngine single = BuildSingle(walks);
  ExpectQueryEquivalence(single, split, "views + tails");

  ASSERT_TRUE(split.Compact().ok());
  // Compaction lays every segment's view columns end to end, so the
  // merged relation keeps one column per view without materializing it
  // again; queries must keep using them without divergence.
  EXPECT_EQ(split.relation().num_graph_views(), 1u);
  EXPECT_EQ(split.relation().num_aggregate_views(), 1u);
  ExpectQueryEquivalence(single, split, "views merged post-compact");
}

// The two compactions share one column merge (MergeColumn): for the same
// inputs, the file DatasetStore::CompactAll writes and the relation
// ColGraphEngine::Compact builds hold identical columns — byte for byte
// once the engine's relation is encoded too.
TEST(DatasetEngineTest, StoreAndEngineMergesAreIdentical) {
  const std::string dir = ::testing::TempDir() + "colgraph_ds_merge_twins";
  std::filesystem::remove_all(dir);
  const auto walks = MakeWalks(90, 777);
  ColGraphEngine split = BuildSplit(walks, /*num_tails=*/3);
  size_t narrowest = split.relation().num_edge_columns();
  size_t widest = narrowest;
  for (const auto& tail : split.tails()) {
    narrowest = std::min(narrowest, tail->num_edge_columns());
    widest = std::max(widest, tail->num_edge_columns());
  }
  ASSERT_LT(narrowest, widest)
      << "inputs must include a dataset that lacks some merged column";

  auto store = DatasetStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value().Seal(split.relation()).ok());
  for (const auto& tail : split.tails()) {
    ASSERT_TRUE(store.value().Seal(*tail).ok());
  }
  ASSERT_TRUE(store.value().CompactAll().ok());
  ASSERT_EQ(store.value().num_datasets(), 1u);
  ASSERT_TRUE(split.Compact().ok());

  auto loaded = store.value().LoadAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectRelationsEqual(split.relation(), loaded.value()[0],
                       "store merge vs engine merge");

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string engine_path = dir + "/engine_merged.bin";
  ASSERT_TRUE(WriteRelation(split.relation(), engine_path).ok());
  EXPECT_EQ(slurp(store.value().PathFor(store.value().dataset_names()[0])),
            slurp(engine_path));
  std::filesystem::remove_all(dir);
}

// Queries route fetches to the dataset holding each record, so the
// engine's metrics document must sum the primary's FetchStats and every
// tail's.
TEST(DatasetEngineTest, DumpMetricsJsonCountsTailFetches) {
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2, 3}, {1.0, 2.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  auto tail = engine.BuildTailRelation({RecordFor({1, 2, 3}, 1)});
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_TRUE(engine
                  .AttachDataset(std::make_shared<const MasterRelation>(
                      std::move(tail).value()))
                  .ok());

  engine.stats().Reset();
  engine.tails()[0]->stats().Reset();
  const Bitmap m = engine.Match(GraphQuery::FromPath({N(1), N(2), N(3)}));
  ASSERT_EQ(m.Count(), 2u);
  // Two edge bitmaps from the primary, two from the tail.
  ASSERT_EQ(engine.stats().bitmap_columns_fetched, 2u);
  ASSERT_EQ(engine.tails()[0]->stats().bitmap_columns_fetched, 2u);
  const std::string json = engine.DumpMetricsJson();
  EXPECT_NE(json.find("\"fetch_stats\":{\"bitmap_columns_fetched\":4,"),
            std::string::npos)
      << json.substr(0, 400);
}

TEST(DatasetEngineTest, AttachRequiresSealedRelations) {
  const auto walks = MakeWalks(20, 3);
  ColGraphEngine engine = BuildSingle(walks);
  auto unsealed = std::make_shared<MasterRelation>();
  ASSERT_TRUE(unsealed->AddRecord({{0, 1.0}}).ok());
  const Status st = engine.AttachDataset(unsealed);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(engine.AttachDataset(nullptr).IsInvalidArgument());

  // A sealed tail cannot grow a primary that is still taking records.
  ColGraphEngine open_primary;
  ASSERT_TRUE(open_primary.AddWalk(walks[0], MeasuresFor(walks[0], 0)).ok());
  auto tail = open_primary.BuildTailRelation({RecordFor(walks[1], 1)});
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_TRUE(open_primary
                  .AttachDataset(std::make_shared<const MasterRelation>(
                      std::move(tail).value()))
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.tails().empty());
  EXPECT_TRUE(open_primary.tails().empty());
}

// SharedCopy is the daemon's publish primitive: O(catalog + views), and
// the copy must be immune to later mutation of the source: an in-place
// write (copy-on-write clones the shared relation) and growth through a
// tail that is attached and compacted in.
TEST(DatasetEngineTest, SharedCopyIsIsolatedFromLaterMutation) {
  const auto walks = MakeWalks(48, 55);
  ColGraphEngine engine = BuildSingle(walks);
  const GraphQuery q = GraphQuery::FromPath({N(1), N(2)});
  const auto before = engine.RunGraphQuery(q);
  ASSERT_TRUE(before.ok());

  const ColGraphEngine copy = engine.SharedCopy();
  ASSERT_TRUE(engine.MaterializeView(GraphViewDef::Make({0, 1})).ok());
  auto tail = engine.BuildTailRelation(
      {RecordFor({1, 2, 1, 2}, walks.size())});
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_TRUE(engine
                  .AttachDataset(std::make_shared<const MasterRelation>(
                      std::move(tail).value()))
                  .ok());
  ASSERT_TRUE(engine.Compact().ok());

  // The mutated source sees the new record and its view; the shared copy
  // sees neither.
  EXPECT_EQ(engine.num_records(), walks.size() + 1);
  EXPECT_EQ(engine.relation().num_graph_views(), 1u);
  EXPECT_EQ(copy.num_records(), walks.size());
  EXPECT_TRUE(copy.tails().empty());
  EXPECT_EQ(copy.relation().num_graph_views(), 0u);
  const auto after = copy.RunGraphQuery(q);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(TablesIdentical(before.value(), after.value()))
      << "SharedCopy changed under a mutation of its source";
}

}  // namespace
}  // namespace colgraph
