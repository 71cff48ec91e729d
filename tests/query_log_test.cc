// Query-log capture end-to-end (DESIGN.md §10): binary round-trips through
// writer + reader, engine-level capture of match and path-agg queries
// (structure, chosen views, timings, cardinalities), and the reader's
// structural rejections.
#include "obs/query_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/query_log_reader.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace colgraph {
namespace {

using obs::QueryLogKind;
using obs::QueryLogOptions;
using obs::QueryLogRecord;

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

class QueryLogTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "colgraph_query_log_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

QueryLogRecord SampleRecord(uint64_t cardinality) {
  QueryLogRecord rec;
  rec.kind = QueryLogKind::kPathAgg;
  rec.fn = AggFn::kMax;
  rec.edges = {Edge{N(1), N(2)}, Edge{N(2), N(3)},
               Edge{N(2), N(2)}};  // incl. a node-measure self-edge
  rec.isolated_nodes = {N(9)};
  rec.graph_view_indexes = {0, 2};
  rec.agg_view_indexes = {1};
  for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
    rec.phase_us[p] = 10 * (p + 1);
  }
  rec.total_us = 12345;
  rec.result_cardinality = cardinality;
  return rec;
}

TEST_F(QueryLogTest, WriterReaderRoundtrip) {
  QueryLogOptions options;
  options.path = path_;
  options.flush_bytes = 1;  // flush every record
  auto log = obs::QueryLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (uint64_t i = 0; i < 5; ++i) {
    log.value()->Append(SampleRecord(i));
  }
  EXPECT_EQ(log.value()->records_appended(), 5u);
  ASSERT_TRUE(log.value()->Close().ok());

  const auto records = obs::ReadQueryLog(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    const QueryLogRecord& rec = (*records)[i];
    const QueryLogRecord want = SampleRecord(i);
    EXPECT_EQ(rec.kind, want.kind);
    EXPECT_EQ(rec.fn, want.fn);
    EXPECT_EQ(rec.edges, want.edges);
    EXPECT_EQ(rec.isolated_nodes, want.isolated_nodes);
    EXPECT_EQ(rec.graph_view_indexes, want.graph_view_indexes);
    EXPECT_EQ(rec.agg_view_indexes, want.agg_view_indexes);
    for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
      EXPECT_EQ(rec.phase_us[p], want.phase_us[p]);
    }
    EXPECT_EQ(rec.total_us, want.total_us);
    EXPECT_EQ(rec.result_cardinality, i);
  }
}

TEST_F(QueryLogTest, ToQueryRebuildsStructure) {
  const QueryLogRecord rec = SampleRecord(0);
  const GraphQuery query = rec.ToQuery();
  EXPECT_EQ(query.graph().edges(), rec.edges);
  // The isolated node is present with no incident edge.
  bool found = false;
  for (const NodeRef& n : query.graph().nodes()) {
    if (n == N(9)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(QueryLogTest, EmptyClosedLogIsValid) {
  QueryLogOptions options;
  options.path = path_;
  auto log = obs::QueryLog::Open(options);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Close().ok());
  const auto records = obs::ReadQueryLog(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_TRUE(records->empty());
}

TEST_F(QueryLogTest, CloseIsIdempotentAndAppendsAfterCloseDrop) {
  QueryLogOptions options;
  options.path = path_;
  auto log = obs::QueryLog::Open(options);
  ASSERT_TRUE(log.ok());
  log.value()->Append(SampleRecord(1));
  ASSERT_TRUE(log.value()->Close().ok());
  log.value()->Append(SampleRecord(2));  // dropped
  ASSERT_TRUE(log.value()->Close().ok());
  const auto records = obs::ReadQueryLog(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(QueryLogTest, MissingFileIsIOErrorNotCorruption) {
  const auto records = obs::ReadQueryLog(path_ + ".does_not_exist");
  ASSERT_FALSE(records.ok());
  EXPECT_TRUE(records.status().IsIOError()) << records.status().ToString();
}

TEST_F(QueryLogTest, ReaderRejectsStructuralDamage) {
  // A valid two-record log, mutated in memory.
  // resize+memcpy instead of insert-from-reinterpreted-pointers: the
  // insert form trips GCC 12's -Wstringop-overflow false positive under
  // COLGRAPH_STRICT.
  std::vector<char> valid(8);
  const uint32_t magic = obs::kQueryLogMagic;
  const uint32_t version = obs::kQueryLogVersion;
  std::memcpy(valid.data(), &magic, 4);
  std::memcpy(valid.data() + 4, &version, 4);
  obs::AppendRecordFrame(SampleRecord(1), &valid);
  obs::AppendRecordFrame(SampleRecord(2), &valid);
  // No footer yet: must read as torn.
  auto torn = obs::DecodeQueryLog(valid, "test");
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.status().IsCorruption());
  EXPECT_NE(torn.status().ToString().find("footer"), std::string::npos)
      << torn.status().ToString();

  // Bad magic.
  std::vector<char> bad = valid;
  bad[0] = static_cast<char>(bad[0] ^ 0xFF);
  auto r = obs::DecodeQueryLog(bad, "test");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());

  // Unsupported version.
  bad = valid;
  bad[4] = 99;
  r = obs::DecodeQueryLog(bad, "test");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());

  // Flipped payload byte: CRC catches it.
  bad = valid;
  bad[valid.size() / 2] = static_cast<char>(bad[valid.size() / 2] ^ 0x01);
  r = obs::DecodeQueryLog(bad, "test");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(QueryLogTest, EngineCapturesMatchAndAggregateQueries) {
  EngineOptions options;
  options.query_log.path = path_;
  options.query_log.flush_bytes = 1;
  ColGraphEngine engine(options);
  ASSERT_NE(engine.query_log(), nullptr);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2, 3, 4}, {1, 2, 3}).ok());
  }
  ASSERT_TRUE(engine.Seal().ok());
  ASSERT_TRUE(engine.MaterializeView(GraphViewDef::Make({0, 1})).ok());

  const GraphQuery match = GraphQuery::FromPath({N(1), N(2), N(3)});
  const auto match_result = engine.RunGraphQuery(match);
  ASSERT_TRUE(match_result.ok());
  const auto agg_result = engine.RunAggregateQuery(
      GraphQuery::FromPath({N(2), N(3), N(4)}), AggFn::kSum);
  ASSERT_TRUE(agg_result.ok());
  // Unsatisfiable queries are captured too (cardinality 0): the advisor
  // must see misses.
  const auto unsat = engine.RunGraphQuery(GraphQuery::FromPath({N(7), N(8)}));
  ASSERT_TRUE(unsat.ok());
  ASSERT_TRUE(engine.CloseQueryLog().ok());

  const auto records = obs::ReadQueryLog(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);

  const QueryLogRecord& m = (*records)[0];
  EXPECT_EQ(m.kind, QueryLogKind::kMatch);
  EXPECT_EQ(m.edges, match.graph().edges());
  EXPECT_EQ(m.result_cardinality, match_result->num_rows());
  // The match is covered by the {0,1} graph view (relation view column 0).
  EXPECT_EQ(m.graph_view_indexes, (std::vector<uint32_t>{0}));
  EXPECT_GT(m.total_us, 0u);

  const QueryLogRecord& a = (*records)[1];
  EXPECT_EQ(a.kind, QueryLogKind::kPathAgg);
  EXPECT_EQ(a.fn, AggFn::kSum);
  EXPECT_EQ(a.result_cardinality, agg_result->records.size());

  const QueryLogRecord& u = (*records)[2];
  EXPECT_EQ(u.result_cardinality, 0u);
}

// A record's phase slots are the sums of its query's trace events by phase:
// with a caller trace attached, the events the engine forwards to it are
// exactly the ones the record was built from.
TEST_F(QueryLogTest, PhaseSlotsSumTheForwardedTraceEvents) {
  EngineOptions options;
  options.query_log.path = path_;
  ColGraphEngine engine(options);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2, 3, 4}, {1, 2, 3}).ok());
  }
  ASSERT_TRUE(engine.Seal().ok());

  obs::Trace match_trace;
  QueryOptions match_options;
  match_options.trace = &match_trace;
  ASSERT_TRUE(engine
                  .RunGraphQuery(GraphQuery::FromPath({N(1), N(2), N(3)}),
                                 match_options)
                  .ok());
  obs::Trace agg_trace;
  QueryOptions agg_options;
  agg_options.trace = &agg_trace;
  ASSERT_TRUE(engine
                  .RunAggregateQuery(GraphQuery::FromPath({N(2), N(3), N(4)}),
                                     AggFn::kSum, agg_options)
                  .ok());
  ASSERT_TRUE(engine.CloseQueryLog().ok());

  const auto records = obs::ReadQueryLog(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  const obs::Trace* traces[] = {&match_trace, &agg_trace};
  const obs::Phase last_phase[] = {obs::Phase::kFetch,
                                   obs::Phase::kAggregate};
  for (size_t q = 0; q < 2; ++q) {
    SCOPED_TRACE(q == 0 ? "match" : "aggregate");
    uint64_t sums[obs::kNumQueryPhases] = {};
    size_t counts[obs::kNumQueryPhases] = {};
    for (const obs::TraceEvent& e : traces[q]->events()) {
      const size_t p = static_cast<size_t>(e.phase);
      ASSERT_LT(p, obs::kNumQueryPhases) << obs::PhaseName(e.phase);
      sums[p] += e.duration_us;
      ++counts[p];
    }
    for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      EXPECT_EQ((*records)[q].phase_us[p], sums[p]) << obs::PhaseName(phase);
      // Each query ran resolve, rewrite and the AND, then its own last
      // phase (fetch or aggregate), and nothing else.
      const bool ran = p <= static_cast<size_t>(obs::Phase::kBitmapAnd) ||
                       phase == last_phase[q];
      EXPECT_EQ(counts[p] > 0, ran) << obs::PhaseName(phase);
    }
  }
}

TEST_F(QueryLogTest, BatchEvaluationCapturesEveryQuery) {
  EngineOptions options;
  options.query_log.path = path_;
  options.num_threads = 2;
  ColGraphEngine engine(options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.AddWalk({1, 2, 3, 4}, {1, 2, 3}).ok());
  }
  ASSERT_TRUE(engine.Seal().ok());

  const std::vector<GraphQuery> workload{
      GraphQuery::FromPath({N(1), N(2)}),
      GraphQuery::FromPath({N(2), N(3)}),
      GraphQuery::FromPath({N(1), N(2), N(3), N(4)}),
  };
  ASSERT_TRUE(engine.EvaluateBatch(workload).ok());
  ASSERT_TRUE(engine.CloseQueryLog().ok());

  const auto records = obs::ReadQueryLog(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), workload.size());
}

TEST_F(QueryLogTest, BadPathDegradesToWarningNotFailure) {
  EngineOptions options;
  options.query_log.path = "/nonexistent_dir_for_sure/q.bin";
  ColGraphEngine engine(options);  // must construct fine
  EXPECT_EQ(engine.query_log(), nullptr);
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  EXPECT_TRUE(engine.RunGraphQuery(GraphQuery::FromPath({N(1), N(2)})).ok());
  EXPECT_TRUE(engine.CloseQueryLog().ok());  // OK when no log is attached
}

TEST_F(QueryLogTest, OpenFailpointSurfacesAsError) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  failpoint::Arm("io:open_append",
                 failpoint::Spec{failpoint::Action::kError, 0, 0});
  QueryLogOptions options;
  options.path = path_;
  const auto log = obs::QueryLog::Open(options);
  failpoint::DisarmAll();
  ASSERT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsIOError()) << log.status().ToString();
}

TEST_F(QueryLogTest, WriteFailurePoisonsLogAndSurfacesAtClose) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  QueryLogOptions options;
  options.path = path_;
  options.flush_bytes = 1;
  auto log = obs::QueryLog::Open(options);
  ASSERT_TRUE(log.ok());
  failpoint::Arm("io:short_write",
                 failpoint::Spec{failpoint::Action::kShortWrite, 0, 3});
  log.value()->Append(SampleRecord(1));  // flush fails, poisons the log
  failpoint::DisarmAll();
  log.value()->Append(SampleRecord(2));  // dropped
  const Status close = log.value()->Close();
  EXPECT_FALSE(close.ok());
}

// Disk-full degradation (ISSUE 7): a failed flush must not take the
// process down — the log drops entries, counts every loss (the buffered
// records that went down with the failing write plus everything offered
// afterwards), and mirrors the count into the process-wide
// `query_log.dropped` counter so the degradation is observable.
TEST_F(QueryLogTest, DiskFullDropsEntriesAndCountsThem) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  obs::Counter& dropped =
      obs::MetricsRegistry::Global().GetCounter("query_log.dropped");
  const uint64_t before = dropped.value();

  QueryLogOptions options;
  options.path = path_;
  options.flush_bytes = 1;  // flush every record
  auto log = obs::QueryLog::Open(options);
  ASSERT_TRUE(log.ok());

  log.value()->Append(SampleRecord(1));  // flushed durably
  EXPECT_EQ(log.value()->records_dropped(), 0u);

  failpoint::Arm("io:short_write",
                 failpoint::Spec{failpoint::Action::kShortWrite, 0, 3});
  log.value()->Append(SampleRecord(2));  // its own flush tears: 1 dropped
  failpoint::DisarmAll();
  EXPECT_EQ(log.value()->records_dropped(), 1u);

  log.value()->Append(SampleRecord(3));  // poisoned log: dropped on entry
  log.value()->Append(SampleRecord(4));
  EXPECT_EQ(log.value()->records_dropped(), 3u);
  EXPECT_EQ(dropped.value(), before + 3);

  // The failure still surfaces at Close for callers that check, but no
  // earlier call site had to.
  EXPECT_FALSE(log.value()->Close().ok());
}

}  // namespace
}  // namespace colgraph
