// Durable incremental ingest through the daemon (ISSUE 9 / DESIGN.md §14,
// ctest label: server): every Ingest seals a dataset file before the
// publish, a restart re-attaches the sealed datasets with zero lost
// records, each compaction cycle merges only the newest run of tails,
// size-tiered, and a compaction crashed mid-merge (failpoint
// "compact:crash") leaves the served snapshot and every sealed dataset
// untouched — the retry then merges the same run with identical results.
// A cycle merges the run from the tails it serves and writes the merge in
// place of the run's files, so what it serves must equal what a restart
// loads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "columnstore/persistence.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace colgraph::server {
namespace {

std::string TraceBatch(int round) {
  std::string batch;
  for (int i = 0; i < 3; ++i) {
    batch += "1 2 3 4 | " + std::to_string(round * 10 + i) + " 1 2\n";
  }
  return batch;
}

class DaemonDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    const std::string tag =
        std::to_string(::getpid()) + "_" + std::to_string(instance_++);
    socket_path_ = "/tmp/colgraph_dsd_" + tag + ".sock";
    data_dir_ = ::testing::TempDir() + "colgraph_dsd_" + tag;
    std::filesystem::remove_all(data_dir_);
  }

  void TearDown() override {
    failpoint::DisarmAll();
    daemon_.reset();
    std::filesystem::remove_all(data_dir_);
  }

  // A fresh initial engine; built identically on every (re)start so the
  // edge catalog assigns the same ids before and after a restart.
  static std::shared_ptr<ColGraphEngine> MakeInitial() {
    auto engine = std::make_shared<ColGraphEngine>();
    EXPECT_TRUE(engine->AddWalk({1, 2, 3, 4}, {5, 6, 7}).ok());
    EXPECT_TRUE(engine->AddWalk({2, 3, 4}, {8, 9}).ok());
    EXPECT_TRUE(engine->Seal().ok());
    return engine;
  }

  // Starts over `initial`, or over MakeInitial() when it is null.
  void StartDaemon(size_t compact_after_datasets,
                   std::shared_ptr<const ColGraphEngine> initial = nullptr) {
    DaemonOptions options;
    options.socket_path = socket_path_;
    options.num_workers = 2;
    options.data_dir = data_dir_;
    options.compact_after_datasets = compact_after_datasets;
    auto daemon = Daemon::Start(
        initial != nullptr ? std::move(initial) : MakeInitial(), options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(daemon).value();
  }

  // The full-collection match: both initial walks and every ingested
  // record contain the path 2→3→4, so the body enumerates every live
  // record id — the zero-lost-records check is byte equality of this
  // rendering.
  std::string QueryAll() { return Query("[2,3,4]"); }

  std::string Query(const std::string& body) {
    Request request;
    request.op = RequestOp::kQuery;
    request.body = body;
    const Response response = daemon_->Execute(request);
    EXPECT_TRUE(response.ok()) << response.body;
    return response.body;
  }

  size_t CountDatasetFiles() const {
    size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(data_dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("ds-") && name.ends_with(".cgds")) ++n;
    }
    return n;
  }

  // Every file of the data dir, name to bytes (the manifest included).
  std::map<std::string, std::string> ReadDataDir() const {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(data_dir_)) {
      std::ifstream in(entry.path(), std::ios::binary);
      files[entry.path().filename().string()].assign(
          std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    return files;
  }

  // The dataset files, in id (= manifest) order.
  std::vector<std::filesystem::path> DatasetPaths() const {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(data_dir_)) {
      if (entry.path().extension() == ".cgds") paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
  }

  std::vector<uint64_t> DatasetRecords() const {
    std::vector<uint64_t> records;
    for (const auto& path : DatasetPaths()) {
      auto file = ReadRelation(path.string());
      EXPECT_TRUE(file.ok()) << file.status().ToString();
      records.push_back(file.ok() ? file->num_records() : 0);
    }
    return records;
  }

  uint64_t DatasetBytes() const {
    uint64_t bytes = 0;
    for (const auto& path : DatasetPaths()) {
      bytes += std::filesystem::file_size(path);
    }
    return bytes;
  }

  static int instance_;
  std::string socket_path_;
  std::string data_dir_;
  std::unique_ptr<Daemon> daemon_;
};

int DaemonDatasetTest::instance_ = 0;

TEST_F(DaemonDatasetTest, IngestSealsOneDatasetPerBatch) {
  StartDaemon(/*compact_after_datasets=*/0);
  for (int round = 1; round <= 3; ++round) {
    const auto response = daemon_->Ingest(TraceBatch(round));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(CountDatasetFiles(), static_cast<size_t>(round));
    EXPECT_EQ(daemon_->snapshot_epoch(), static_cast<uint64_t>(round));
  }
  // 2 initial records + 3 batches x 3 records, all matched.
  const std::string body = QueryAll();
  EXPECT_NE(body.find("match 11:"), std::string::npos) << body;
}

TEST_F(DaemonDatasetTest, RestartRestoresEverySealedDataset) {
  StartDaemon(/*compact_after_datasets=*/0);
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(daemon_->Ingest(TraceBatch(round)).ok());
  }
  const std::string before = QueryAll();
  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();

  // A restart sees only the initial engine plus the dataset directory.
  StartDaemon(/*compact_after_datasets=*/0);
  EXPECT_EQ(QueryAll(), before) << "restart lost or reordered records";
  EXPECT_EQ(CountDatasetFiles(), 3u);
}

TEST_F(DaemonDatasetTest, CompactNowMergesWithIdenticalResults) {
  StartDaemon(/*compact_after_datasets=*/0);
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(daemon_->Ingest(TraceBatch(round)).ok());
  }
  const std::string before = QueryAll();
  const uint64_t epoch_before = daemon_->snapshot_epoch();

  // Compaction must be observable end-to-end (DESIGN.md §15): the storage
  // telemetry counters move and the latency histogram records the merge.
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t compactions_before =
      registry.GetCounter("store.compactions").value();
  const uint64_t retired_before =
      registry.GetCounter("store.datasets_retired").value();
  const uint64_t compaction_us_count_before =
      registry.GetHistogram("store.compaction_us").count();
  const uint64_t cycle_us_count_before =
      registry.GetHistogram("server.compaction_us").count();

  ASSERT_TRUE(daemon_->CompactNow().ok());
  EXPECT_EQ(CountDatasetFiles(), 1u) << "inputs must be retired";
  EXPECT_GT(daemon_->snapshot_epoch(), epoch_before);
  EXPECT_EQ(QueryAll(), before) << "compaction changed query results";

  EXPECT_EQ(registry.GetCounter("store.compactions").value(),
            compactions_before + 1);
  EXPECT_EQ(registry.GetCounter("store.datasets_retired").value(),
            retired_before + 3);
  EXPECT_EQ(registry.GetHistogram("store.compaction_us").count(),
            compaction_us_count_before + 1);
  // The daemon's own number: the cycle's whole hold of the writer lock.
  EXPECT_EQ(registry.GetHistogram("server.compaction_us").count(),
            cycle_us_count_before + 1);
  // The daemon's serving gauge tracks the post-compaction tail count: the
  // store's merged dataset, now served as the one tail behind the
  // unchanged primary — the segments a restart loads.
  EXPECT_EQ(registry.GetGauge("server.tail_datasets").value(), 1);

  // And the merged state survives a restart.
  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();
  StartDaemon(/*compact_after_datasets=*/0);
  EXPECT_EQ(QueryAll(), before);
}

// A served answer must not depend on how the records are segmented. An
// aggregate SUM view over the last two edges of 1→2→3→4 makes record 0
// fold 0.1 + (0.2 + 0.3) = 0.59999999999999998, where the atomic fold
// (0.1 + 0.2) + 0.3 gives 0.60000000000000009. Two ingested copies of the
// record must fold through the view too: in their tails, in the store's
// merged dataset after CompactNow, and after a restart that loads it.
TEST_F(DaemonDatasetTest, AggregateViewFoldIsTheSameInEverySegment) {
  const auto make_initial = [] {
    auto engine = std::make_shared<ColGraphEngine>();
    EXPECT_TRUE(engine->AddWalk({1, 2, 3, 4}, {0.1, 0.2, 0.3}).ok());
    EXPECT_TRUE(engine->Seal().ok());
    const auto id_of = [&](NodeId from, NodeId to) {
      return *engine->catalog().Lookup(Edge{NodeRef{from, 0}, NodeRef{to, 0}});
    };
    AggViewDef def;
    def.elements = {id_of(2, 3), id_of(3, 4)};
    def.fn = AggFn::kSum;
    EXPECT_TRUE(engine->MaterializeView(def).ok());
    return engine;
  };
  StartDaemon(/*compact_after_datasets=*/0, make_initial());
  ASSERT_TRUE(daemon_->Ingest("1 2 3 4 | 0.1 0.2 0.3\n").ok());
  ASSERT_TRUE(daemon_->Ingest("1 2 3 4 | 0.1 0.2 0.3\n").ok());
  const std::string before = Query("SUM [1,2,3,4]");
  EXPECT_NE(before.find(": 0.59999999999999998 0.59999999999999998 "
                        "0.59999999999999998\n"),
            std::string::npos)
      << before;

  ASSERT_TRUE(daemon_->CompactNow().ok());
  EXPECT_EQ(CountDatasetFiles(), 1u);
  EXPECT_EQ(Query("SUM [1,2,3,4]"), before) << "after CompactNow";

  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();
  StartDaemon(/*compact_after_datasets=*/0, make_initial());
  EXPECT_EQ(Query("SUM [1,2,3,4]"), before) << "after a restart";
}

// The chaos case of ISSUE 9: a compaction that dies mid-merge must lose
// nothing. The failpoint fires under the compaction lock, after the
// in-memory merge and before the merged file or manifest exist.
TEST_F(DaemonDatasetTest, CompactionCrashMidMergeLosesNoRecords) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  StartDaemon(/*compact_after_datasets=*/0);
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(daemon_->Ingest(TraceBatch(round)).ok());
  }
  const std::string before = QueryAll();
  const uint64_t epoch_before = daemon_->snapshot_epoch();

  failpoint::Arm("compact:crash",
                 failpoint::Spec{failpoint::Action::kCrash, 0, 0});
  const Status crashed = daemon_->CompactNow();
  ASSERT_FALSE(crashed.ok()) << "the armed crash must abort the merge";
  failpoint::DisarmAll();

  // Nothing published, nothing lost: same epoch, same sealed datasets,
  // byte-identical query results from the surviving snapshot.
  EXPECT_EQ(daemon_->snapshot_epoch(), epoch_before);
  EXPECT_EQ(CountDatasetFiles(), 3u);
  EXPECT_EQ(QueryAll(), before);

  // The crash released the compaction lock (in-process failpoint crashes
  // still run destructors; a real crash leaves the lock for Open() to
  // sweep) — the retry merges everything with identical results.
  ASSERT_TRUE(daemon_->CompactNow().ok());
  EXPECT_EQ(CountDatasetFiles(), 1u);
  EXPECT_EQ(QueryAll(), before);

  // A post-crash restart also serves the identical collection.
  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();
  StartDaemon(/*compact_after_datasets=*/0);
  EXPECT_EQ(QueryAll(), before);

  // A crash while merging the newest run: two new batches (6 records)
  // have not outgrown the restored 9-record tier, so the run is the two of
  // them. The crash leaves the older tier, the manifest and the served
  // epoch as they were.
  ASSERT_TRUE(daemon_->Ingest(TraceBatch(4)).ok());
  ASSERT_TRUE(daemon_->Ingest(TraceBatch(5)).ok());
  const std::string grown = QueryAll();
  const uint64_t grown_epoch = daemon_->snapshot_epoch();
  const std::map<std::string, std::string> files = ReadDataDir();
  failpoint::Arm("compact:crash",
                 failpoint::Spec{failpoint::Action::kCrash, 0, 0});
  ASSERT_FALSE(daemon_->CompactNow().ok());
  failpoint::DisarmAll();
  EXPECT_EQ(daemon_->snapshot_epoch(), grown_epoch);
  EXPECT_EQ(ReadDataDir(), files) << "the crash touched the data dir";
  EXPECT_EQ(QueryAll(), grown);

  // The retry merges the run alone, beside the untouched older tier.
  ASSERT_TRUE(daemon_->CompactNow().ok());
  EXPECT_EQ(DatasetRecords(), (std::vector<uint64_t>{9, 6}));
  EXPECT_EQ(QueryAll(), grown);
  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();
  StartDaemon(/*compact_after_datasets=*/0);
  EXPECT_EQ(QueryAll(), grown);
}

// The size-tiered pick over record counts (DESIGN.md §14).
TEST(TieredPickTest, MergesTheNewRunAndEachTierItOutgrows) {
  // Tails ingested since the last cycle always merge, whatever their size.
  EXPECT_EQ(NewestRunToCompact({100, 3, 5}, 1), 2u);
  EXPECT_EQ(NewestRunToCompact({9, 1, 2}, 0), 3u);
  // An older tier joins once the run holds at least its records, and the
  // run keeps extending with what it absorbed.
  EXPECT_EQ(NewestRunToCompact({12, 6, 3, 2}, 2), 2u);   // 5 < 6
  EXPECT_EQ(NewestRunToCompact({12, 6, 3, 3}, 2), 4u);   // 6 -> 12 -> 24
  EXPECT_EQ(NewestRunToCompact({13, 6, 3, 3}, 2), 3u);   // 12 < 13
  EXPECT_EQ(NewestRunToCompact({4, 3}, 1), 1u);          // a run of one
  EXPECT_EQ(NewestRunToCompact({4, 4}, 1), 2u);
  // Restored (or already compacted) tails merge nothing on their own.
  EXPECT_EQ(NewestRunToCompact({96, 48, 24, 12}, 4), 0u);
  EXPECT_EQ(NewestRunToCompact({}, 0), 0u);
}

// Sixty equal batches with a cycle after every fourth merge like a binary
// counter in units of four batches: after fifteen cycles the datasets hold
// 32, 16, 8 and 4 batches, and every answer is unchanged by every cycle
// and by a restart. The merges rewrite about 2.1x the final datasets'
// bytes; merging the whole dir each cycle would rewrite 8x.
TEST_F(DaemonDatasetTest, EqualBatchesMergeLikeABinaryCounter) {
  StartDaemon(/*compact_after_datasets=*/0);
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t bytes_before =
      registry.GetCounter("store.compaction_bytes").value();
  for (int round = 1; round <= 60; ++round) {
    ASSERT_TRUE(daemon_->Ingest(TraceBatch(round)).ok());
    if (round % 4 != 0) continue;
    const std::string all = QueryAll();
    const std::string sum = Query("SUM [1,2,3,4]");
    ASSERT_TRUE(daemon_->CompactNow().ok());
    ASSERT_EQ(QueryAll(), all) << "cycle " << round / 4;
    ASSERT_EQ(Query("SUM [1,2,3,4]"), sum) << "cycle " << round / 4;
  }
  EXPECT_EQ(DatasetRecords(), (std::vector<uint64_t>{96, 48, 24, 12}));
  EXPECT_EQ(registry.GetGauge("server.tail_datasets").value(), 4);
  const uint64_t merged =
      registry.GetCounter("store.compaction_bytes").value() - bytes_before;
  EXPECT_LE(merged, 3 * DatasetBytes());

  const std::string all = QueryAll();
  const std::string sum = Query("SUM [1,2,3,4]");
  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();
  StartDaemon(/*compact_after_datasets=*/0);
  EXPECT_EQ(QueryAll(), all) << "after a restart";
  EXPECT_EQ(Query("SUM [1,2,3,4]"), sum) << "after a restart";

  // Restored tails count as compacted: the first cycle after the restart
  // has nothing to merge and publishes nothing.
  const uint64_t epoch = daemon_->snapshot_epoch();
  ASSERT_TRUE(daemon_->CompactNow().ok());
  EXPECT_EQ(daemon_->snapshot_epoch(), epoch);
  EXPECT_EQ(DatasetRecords().size(), 4u);
  // Four more batches carry through every tier.
  for (int round = 61; round <= 64; ++round) {
    ASSERT_TRUE(daemon_->Ingest(TraceBatch(round)).ok());
  }
  const std::string grown = QueryAll();
  ASSERT_TRUE(daemon_->CompactNow().ok());
  EXPECT_EQ(DatasetRecords(), (std::vector<uint64_t>{192}));
  EXPECT_EQ(QueryAll(), grown);
}

// Three walks per batch over nodes 1..5, rotating through four shapes, so
// every view column holds set and clear bits.
std::string MixedBatch(int round) {
  static const char* const kWalks[] = {"1 2 3 4 | ", "2 3 4 5 | ", "1 2 3 | ",
                                       "3 4 5 | "};
  std::string batch;
  for (int i = 0; i < 3; ++i) {
    const int shape = (round + i) % 4;
    batch += kWalks[shape];
    for (int hop = 0; hop < (shape < 2 ? 3 : 2); ++hop) {
      batch += std::to_string(round * 10 + i) + "." + std::to_string(hop) + " ";
    }
    batch += "\n";
  }
  return batch;
}

std::vector<uint64_t> ValueBits(const MeasureColumn& column) {
  std::vector<uint64_t> bits(column.num_values());
  if (!bits.empty()) {
    std::memcpy(bits.data(), column.values().data(),
                bits.size() * sizeof(double));
  }
  return bits;
}

void ExpectSameColumn(const MeasureColumn& want, const MeasureColumn& got,
                      const std::string& what) {
  EXPECT_EQ(want.presence().size(), got.presence().size()) << what;
  EXPECT_EQ(want.presence().bits().words(), got.presence().bits().words())
      << what;
  EXPECT_EQ(ValueBits(want), ValueBits(got)) << what;
}

// What the daemon serves after a cycle is what a restart loads: the newest
// tail, merged in memory from the served tails with their views, equals
// its dataset file read back and viewed again (BuildTailRelation of the
// store's last dataset) column for column: presence words, value bits,
// graph views and aggregate views. Thirty-two equal batches with a cycle
// after every fourth carry runs through older tiers, as in
// EqualBatchesMergeLikeABinaryCounter.
TEST_F(DaemonDatasetTest, ServedMergeEqualsItsReloadAfterEveryCycle) {
  auto initial = std::make_shared<ColGraphEngine>();
  ASSERT_TRUE(initial->AddWalk({1, 2, 3, 4, 5}, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(initial->AddWalk({1, 2, 3}, {5, 6}).ok());
  ASSERT_TRUE(initial->Seal().ok());
  const auto id_of = [&](NodeId from, NodeId to) {
    return *initial->catalog().Lookup(Edge{NodeRef{from, 0}, NodeRef{to, 0}});
  };
  ASSERT_TRUE(
      initial->MaterializeView(GraphViewDef::Make({id_of(1, 2), id_of(2, 3)}))
          .ok());
  ASSERT_TRUE(
      initial->MaterializeView(GraphViewDef::Make({id_of(3, 4), id_of(4, 5)}))
          .ok());
  AggViewDef agg;
  agg.elements = {id_of(2, 3), id_of(3, 4)};
  agg.fn = AggFn::kSum;
  ASSERT_TRUE(initial->MaterializeView(agg).ok());
  StartDaemon(/*compact_after_datasets=*/0, initial);

  for (int round = 1; round <= 32; ++round) {
    ASSERT_TRUE(daemon_->Ingest(MixedBatch(round)).ok());
    if (round % 4 != 0) continue;
    const std::string cycle = "cycle " + std::to_string(round / 4);
    ASSERT_TRUE(daemon_->CompactNow().ok()) << cycle;
    if (round == 28) {
      ASSERT_EQ(DatasetRecords(), (std::vector<uint64_t>{48, 24, 12}));
    }
    const auto served = daemon_->snapshots().Acquire();
    auto file = ReadRelation(DatasetPaths().back().string());
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto reloaded = served->BuildTailRelation(std::move(file).value());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    const MasterRelation& merged = *served->tails().back();
    ASSERT_EQ(merged.num_records(), reloaded->num_records()) << cycle;
    ASSERT_EQ(merged.num_edge_columns(), reloaded->num_edge_columns())
        << cycle;
    ASSERT_EQ(merged.num_graph_views(), 2u) << cycle;
    ASSERT_EQ(reloaded->num_graph_views(), 2u) << cycle;
    ASSERT_EQ(merged.num_aggregate_views(), 1u) << cycle;
    ASSERT_EQ(reloaded->num_aggregate_views(), 1u) << cycle;
    for (EdgeId c = 0; c < merged.num_edge_columns(); ++c) {
      ExpectSameColumn(merged.PeekMeasureColumn(c),
                       reloaded->PeekMeasureColumn(c),
                       cycle + ", edge column " + std::to_string(c));
    }
    for (size_t v = 0; v < 2; ++v) {
      EXPECT_EQ(merged.PeekGraphView(v).size(),
                reloaded->PeekGraphView(v).size())
          << cycle;
      EXPECT_EQ(merged.PeekGraphView(v).words(),
                reloaded->PeekGraphView(v).words())
          << cycle << ", graph view " << v;
    }
    ExpectSameColumn(merged.PeekAggregateView(0),
                     reloaded->PeekAggregateView(0),
                     cycle + ", aggregate view");
  }
  EXPECT_EQ(DatasetRecords(), (std::vector<uint64_t>{96}));
}

TEST_F(DaemonDatasetTest, BackgroundCompactionTriggersAtThreshold) {
  StartDaemon(/*compact_after_datasets=*/2);
  ASSERT_TRUE(daemon_->Ingest(TraceBatch(1)).ok());
  ASSERT_TRUE(daemon_->Ingest(TraceBatch(2)).ok());
  const std::string expected_tail = " r2 r3 r4 r5 r6 r7";  // 6 new records

  // The second ingest schedules a background compaction; wait for it to
  // merge the directory down to a single dataset file.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (CountDatasetFiles() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(CountDatasetFiles(), 1u) << "background compaction never ran";
  const std::string body = QueryAll();
  EXPECT_NE(body.find("match 8:"), std::string::npos) << body;
  EXPECT_NE(body.find(expected_tail), std::string::npos) << body;
}

// The data dir keeps no edge catalog, so a restart over the same initial
// engine cannot name the edges that ingests added. Serving them anyway
// answered [7,8,9] with "match 0:" after the restart, and the next ingest
// reused the freed ids for other edges; Start refuses instead, naming the
// dataset, its column count and the catalog's size.
TEST_F(DaemonDatasetTest, RestartRefusesEdgesTheCatalogNeverNamed) {
  const auto make_initial = [] {
    auto engine = std::make_shared<ColGraphEngine>();
    EXPECT_TRUE(engine->AddWalk({1, 2, 3}, {1, 2}).ok());
    EXPECT_TRUE(engine->Seal().ok());
    return engine;
  };
  StartDaemon(/*compact_after_datasets=*/0, make_initial());
  ASSERT_TRUE(daemon_->Ingest("7 8 9 | 5 6\n").ok());
  EXPECT_NE(Query("[7,8,9]").find("match 1: r1"), std::string::npos);
  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();

  const std::vector<std::filesystem::path> datasets = DatasetPaths();
  ASSERT_EQ(datasets.size(), 1u);
  const auto dataset = ReadRelation(datasets[0].string());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const size_t catalog_size = make_initial()->catalog().size();
  ASSERT_GT(dataset->num_edge_columns(), catalog_size);

  DaemonOptions options;
  options.socket_path = socket_path_;
  options.num_workers = 2;
  options.data_dir = data_dir_;
  const auto restarted = Daemon::Start(make_initial(), options);
  ASSERT_FALSE(restarted.ok())
      << "the restart served ingest-added edges under this run's ids";
  EXPECT_TRUE(restarted.status().IsNotSupported())
      << restarted.status().ToString();
  const std::string message = restarted.status().message();
  EXPECT_NE(message.find(datasets[0].filename().string()), std::string::npos)
      << message;
  EXPECT_NE(message.find(" has " +
                         std::to_string(dataset->num_edge_columns()) +
                         " edge columns"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("names " + std::to_string(catalog_size) + " edges"),
            std::string::npos)
      << message;
}

// Data dirs from builds with another snapshot version are not read: a
// dataset file carrying any version but v5 fails the restart as
// Corruption (the operator rebuilds the dir from traces) instead of
// serving a partial collection.
TEST_F(DaemonDatasetTest, OtherVersionDatasetFailsStart) {
  StartDaemon(/*compact_after_datasets=*/0);
  ASSERT_TRUE(daemon_->Ingest(TraceBatch(1)).ok());
  ASSERT_TRUE(daemon_->Drain().ok());
  daemon_.reset();
  ASSERT_EQ(CountDatasetFiles(), 1u);
  std::string dataset;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir_)) {
    if (entry.path().extension() == ".cgds") dataset = entry.path().string();
  }
  std::string valid;
  {
    std::ifstream in(dataset, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  DaemonOptions options;
  options.socket_path = socket_path_;
  options.num_workers = 2;
  options.data_dir = data_dir_;
  for (const uint32_t version : {1u, 2u, 3u, 4u, 6u}) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    {
      std::ofstream out(dataset, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto daemon = Daemon::Start(MakeInitial(), options);
    ASSERT_FALSE(daemon.ok()) << "v" << version << " dataset was served";
    EXPECT_TRUE(daemon.status().IsCorruption())
        << "v" << version << ": " << daemon.status().ToString();
  }
}

}  // namespace
}  // namespace colgraph::server
