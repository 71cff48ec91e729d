// Determinism tests (ctest label: concurrency): every batch API must
// produce byte-identical results for 1, 2 and 8 worker threads and for an
// injected serial-mode (0-worker) pool, and a batch must count the same
// work (FetchStats) at every thread count. Workloads are seed-driven
// through workload/query_generator.h so every engine sees identical
// inputs; doubles are compared bitwise (operator== would wave NaNs through
// and conflate 0.0 with -0.0).
#include <cstring>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "util/thread_pool.h"
#include "views/materializer.h"
#include "workload/base_graphs.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace colgraph {
namespace {

bool BitEqual(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

::testing::AssertionResult ColumnsBitIdentical(
    const std::vector<std::vector<double>>& a,
    const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "column count " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return ::testing::AssertionFailure()
             << "column " << i << " size " << a[i].size() << " vs "
             << b[i].size();
    }
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!BitEqual(a[i][j], b[i][j])) {
        return ::testing::AssertionFailure()
               << "column " << i << " row " << j << ": " << a[i][j] << " vs "
               << b[i][j] << " differ bitwise";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// The FetchStats counters a batch moves. Every pool thread bumps them, so
// a parallel batch must move each by exactly the serial run's amount.
struct WorkCounts {
  uint64_t bitmaps = 0, columns = 0, values = 0, partitions = 0, joins = 0;

  static WorkCounts Of(const ColGraphEngine& engine) {
    const FetchStats& s = engine.stats();
    return {s.bitmap_columns_fetched, s.measure_columns_fetched,
            s.values_fetched, s.partitions_touched, s.partition_joins};
  }
  WorkCounts operator-(const WorkCounts& o) const {
    return {bitmaps - o.bitmaps, columns - o.columns, values - o.values,
            partitions - o.partitions, joins - o.joins};
  }
  bool operator==(const WorkCounts&) const = default;

  friend std::ostream& operator<<(std::ostream& os, const WorkCounts& c) {
    return os << "{bitmaps " << c.bitmaps << ", columns " << c.columns
              << ", values " << c.values << ", partitions " << c.partitions
              << ", joins " << c.joins << "}";
  }
};

// Runs `batch`, stores the counts it moved on `engine` in *work and
// returns its result.
template <typename Batch>
auto RunCounted(const ColGraphEngine& engine, WorkCounts* work,
                Batch&& batch) {
  const WorkCounts before = WorkCounts::Of(engine);
  auto result = batch();
  *work = WorkCounts::Of(engine) - before;
  return result;
}

struct Workbench {
  DirectedGraph universe;
  std::vector<GraphRecord> records;
  std::vector<GraphQuery> workload;
};

Workbench MakeWorkbench(uint64_t seed) {
  Workbench wb;
  const DirectedGraph base = MakePowerLawNetwork(400, 3, seed);
  auto universe = SelectEdgeUniverse(base, 120, seed + 1);
  COLGRAPH_CHECK_OK(universe.status());
  wb.universe = std::move(universe).value();

  RecordGenOptions rec_options;
  rec_options.min_edges = 6;
  rec_options.max_edges = 18;
  WalkRecordGenerator generator(&wb.universe, rec_options, seed + 2);
  std::vector<std::vector<NodeRef>> trunks;
  for (size_t i = 0; i < 150; ++i) {
    std::vector<NodeRef> trunk;
    wb.records.push_back(generator.Next(&trunk));
    trunks.push_back(std::move(trunk));
  }

  QueryGenerator qgen(&trunks, &wb.universe, seed + 3);
  QueryGenOptions q_options;
  q_options.min_edges = 3;
  q_options.max_edges = 7;
  wb.workload = qgen.UniformWorkload(30, q_options);
  return wb;
}

ColGraphEngine BuildEngine(const Workbench& wb, size_t num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  ColGraphEngine engine(options);
  for (const GraphRecord& r : wb.records) {
    COLGRAPH_CHECK_OK(engine.AddRecord(r));
  }
  COLGRAPH_CHECK_OK(engine.Seal());
  return engine;
}

constexpr size_t kThreadCounts[] = {1, 2, 8};

// Workbench whose per-edge record counts straddle the hybrid density
// threshold (count * 256 <= records): small records over a wide power-law
// universe put the long tail of edges under the threshold while the
// popular head stays word-parallel, so AND plans mix both encodings.
Workbench MakeSparseWorkbench(uint64_t seed) {
  Workbench wb;
  const DirectedGraph base = MakePowerLawNetwork(500, 3, seed);
  auto universe = SelectEdgeUniverse(base, 800, seed + 1);
  COLGRAPH_CHECK_OK(universe.status());
  wb.universe = std::move(universe).value();

  RecordGenOptions rec_options;
  rec_options.min_edges = 2;
  rec_options.max_edges = 5;
  WalkRecordGenerator generator(&wb.universe, rec_options, seed + 2);
  std::vector<std::vector<NodeRef>> trunks;
  for (size_t i = 0; i < 1200; ++i) {
    std::vector<NodeRef> trunk;
    wb.records.push_back(generator.Next(&trunk));
    trunks.push_back(std::move(trunk));
  }

  QueryGenerator qgen(&trunks, &wb.universe, seed + 3);
  QueryGenOptions q_options;
  q_options.min_edges = 2;
  q_options.max_edges = 4;
  wb.workload = qgen.UniformWorkload(40, q_options);
  return wb;
}

ColGraphEngine BuildEngineWithEncoding(const Workbench& wb,
                                       bool hybrid_bitmaps) {
  EngineOptions options;
  options.num_threads = 1;
  options.relation.hybrid_bitmaps = hybrid_bitmaps;
  ColGraphEngine engine(options);
  for (const GraphRecord& r : wb.records) {
    COLGRAPH_CHECK_OK(engine.AddRecord(r));
  }
  COLGRAPH_CHECK_OK(engine.Seal());
  return engine;
}

size_t CountHybridColumns(const MasterRelation& relation) {
  size_t n = 0;
  for (EdgeId e = 0; e < relation.num_edge_columns(); ++e) {
    if (relation.PeekEdgeBitmapHybrid(e) != nullptr) ++n;
  }
  return n;
}

// ISSUE 8 satellite: a fig6-style query mix (materialized graph views +
// uniform workload) evaluated by an EWAH-only engine and a hybrid-enabled
// engine must produce byte-identical responses. The hybrid AND loop is a
// pure encoding change; any drift in records or measure bytes is a bug.
TEST(DeterminismTest, HybridAndEwahEnginesAreByteIdentical) {
  const Workbench wb = MakeSparseWorkbench(500);
  ColGraphEngine ewah_engine = BuildEngineWithEncoding(wb, false);
  ColGraphEngine hybrid_engine = BuildEngineWithEncoding(wb, true);

  // The comparison is only meaningful if the engines actually diverge in
  // encoding: the workbench's long-tail columns must sit under the
  // threshold (and its head above it, so plans mix both encodings).
  ASSERT_EQ(CountHybridColumns(ewah_engine.relation()), 0u);
  const size_t hybrid_columns = CountHybridColumns(hybrid_engine.relation());
  ASSERT_GT(hybrid_columns, hybrid_engine.relation().num_edge_columns() / 4);
  ASSERT_LT(hybrid_columns, hybrid_engine.relation().num_edge_columns());

  // Fig6 shape: materialize graph views on both engines, then evaluate the
  // workload with views enabled — the AND plans mix view and edge bitmaps.
  auto ewah_views = ewah_engine.SelectAndMaterializeGraphViews(wb.workload, 8);
  ASSERT_TRUE(ewah_views.ok()) << ewah_views.status().ToString();
  auto hybrid_views =
      hybrid_engine.SelectAndMaterializeGraphViews(wb.workload, 8);
  ASSERT_TRUE(hybrid_views.ok()) << hybrid_views.status().ToString();
  ASSERT_EQ(*hybrid_views, *ewah_views);

  auto expected = ewah_engine.EvaluateBatch(wb.workload);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto got = hybrid_engine.EvaluateBatch(wb.workload);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*got)[i].records, (*expected)[i].records) << "query " << i;
    EXPECT_EQ((*got)[i].edges, (*expected)[i].edges) << "query " << i;
    EXPECT_TRUE(
        ColumnsBitIdentical((*got)[i].columns, (*expected)[i].columns))
        << "query " << i;
  }

  // Aggregate path too (agg-view bp bitmaps flow through the same loop).
  auto agg_expected = ewah_engine.EvaluatePathAggBatch(wb.workload, AggFn::kSum);
  ASSERT_TRUE(agg_expected.ok()) << agg_expected.status().ToString();
  auto agg_got = hybrid_engine.EvaluatePathAggBatch(wb.workload, AggFn::kSum);
  ASSERT_TRUE(agg_got.ok()) << agg_got.status().ToString();
  ASSERT_EQ(agg_got->size(), agg_expected->size());
  for (size_t i = 0; i < agg_expected->size(); ++i) {
    EXPECT_EQ((*agg_got)[i].records, (*agg_expected)[i].records)
        << "query " << i;
    EXPECT_TRUE(ColumnsBitIdentical((*agg_got)[i].values,
                                    (*agg_expected)[i].values))
        << "query " << i;
  }
}

TEST(DeterminismTest, EvaluateBatchIsByteIdenticalAcrossThreadCounts) {
  const Workbench wb = MakeWorkbench(100);
  const ColGraphEngine reference = BuildEngine(wb, 1);
  WorkCounts expected_work;
  auto expected = RunCounted(reference, &expected_work, [&] {
    return reference.EvaluateBatch(wb.workload);
  });
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->size(), wb.workload.size());
  ASSERT_GT(expected_work.values, 0u);

  for (const size_t threads : kThreadCounts) {
    const ColGraphEngine engine = BuildEngine(wb, threads);
    WorkCounts work;
    auto batch = RunCounted(engine, &work,
                            [&] { return engine.EvaluateBatch(wb.workload); });
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(work, expected_work) << "threads=" << threads;
    ASSERT_EQ(batch->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*batch)[i].records, (*expected)[i].records)
          << "threads=" << threads << " query " << i;
      EXPECT_EQ((*batch)[i].edges, (*expected)[i].edges)
          << "threads=" << threads << " query " << i;
      EXPECT_TRUE(ColumnsBitIdentical((*batch)[i].columns,
                                      (*expected)[i].columns))
          << "threads=" << threads << " query " << i;
    }
  }

  // Injected serial-mode pool: same parallel code path, 0 workers.
  ThreadPool serial_pool(0);
  WorkCounts serial_work;
  auto serial = RunCounted(reference, &serial_work, [&] {
    return reference.query_engine().EvaluateBatch(wb.workload, {},
                                                  &serial_pool);
  });
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial_work, expected_work);
  ASSERT_EQ(serial->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*serial)[i].records, (*expected)[i].records) << "query " << i;
    EXPECT_TRUE(
        ColumnsBitIdentical((*serial)[i].columns, (*expected)[i].columns))
        << "query " << i;
  }
}

TEST(DeterminismTest, EvaluatePathAggBatchIsByteIdenticalAcrossThreadCounts) {
  const Workbench wb = MakeWorkbench(200);
  const ColGraphEngine reference = BuildEngine(wb, 1);
  WorkCounts expected_work;
  auto expected = RunCounted(reference, &expected_work, [&] {
    return reference.EvaluatePathAggBatch(wb.workload, AggFn::kSum);
  });
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected_work.values, 0u);

  for (const size_t threads : kThreadCounts) {
    const ColGraphEngine engine = BuildEngine(wb, threads);
    WorkCounts work;
    auto batch = RunCounted(engine, &work, [&] {
      return engine.EvaluatePathAggBatch(wb.workload, AggFn::kSum);
    });
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(work, expected_work) << "threads=" << threads;
    ASSERT_EQ(batch->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*batch)[i].records, (*expected)[i].records)
          << "threads=" << threads << " query " << i;
      ASSERT_EQ((*batch)[i].paths.size(), (*expected)[i].paths.size());
      for (size_t p = 0; p < (*expected)[i].paths.size(); ++p) {
        EXPECT_EQ((*batch)[i].paths[p].nodes(), (*expected)[i].paths[p].nodes());
      }
      EXPECT_TRUE(
          ColumnsBitIdentical((*batch)[i].values, (*expected)[i].values))
          << "threads=" << threads << " query " << i;
    }
  }

  ThreadPool serial_pool(0);
  WorkCounts serial_work;
  auto serial = RunCounted(reference, &serial_work, [&] {
    return reference.query_engine().EvaluatePathAggBatch(
        wb.workload, AggFn::kSum, {}, &serial_pool);
  });
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial_work, expected_work);
  ASSERT_EQ(serial->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_TRUE(ColumnsBitIdentical((*serial)[i].values, (*expected)[i].values))
        << "query " << i;
  }
}

TEST(DeterminismTest, MaterializedViewBitmapsAreIdenticalAcrossThreadCounts) {
  const Workbench wb = MakeWorkbench(300);

  // Reference: full view-selection pipeline on a single-threaded engine.
  ColGraphEngine reference = BuildEngine(wb, 1);
  auto ref_count = reference.SelectAndMaterializeGraphViews(wb.workload, 16);
  ASSERT_TRUE(ref_count.ok()) << ref_count.status().ToString();
  ASSERT_GT(*ref_count, 0u);

  for (const size_t threads : kThreadCounts) {
    ColGraphEngine engine = BuildEngine(wb, threads);
    auto count = engine.SelectAndMaterializeGraphViews(wb.workload, 16);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    // Same candidate generation, same greedy order, same views.
    ASSERT_EQ(*count, *ref_count) << "threads=" << threads;
    ASSERT_EQ(engine.relation().num_graph_views(),
              reference.relation().num_graph_views());
    const auto& ref_views = reference.views().graph_views();
    const auto& got_views = engine.views().graph_views();
    ASSERT_EQ(got_views.size(), ref_views.size());
    for (size_t v = 0; v < ref_views.size(); ++v) {
      EXPECT_EQ(got_views[v].first.edges, ref_views[v].first.edges)
          << "threads=" << threads << " view " << v;
      EXPECT_EQ(got_views[v].second, ref_views[v].second);
      EXPECT_TRUE(engine.relation().PeekGraphView(got_views[v].second) ==
                  reference.relation().PeekGraphView(ref_views[v].second))
          << "threads=" << threads << " view " << v << ": bitmaps differ";
    }
  }
}

TEST(DeterminismTest, MaterializedAggViewsAreByteIdenticalAcrossThreadCounts) {
  const Workbench wb = MakeWorkbench(400);
  ColGraphEngine reference = BuildEngine(wb, 1);
  auto ref_count =
      reference.SelectAndMaterializeAggViews(wb.workload, AggFn::kSum, 16);
  ASSERT_TRUE(ref_count.ok()) << ref_count.status().ToString();
  ASSERT_GT(*ref_count, 0u);

  for (const size_t threads : kThreadCounts) {
    ColGraphEngine engine = BuildEngine(wb, threads);
    auto count =
        engine.SelectAndMaterializeAggViews(wb.workload, AggFn::kSum, 16);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(*count, *ref_count) << "threads=" << threads;
    ASSERT_EQ(engine.relation().num_aggregate_views(),
              reference.relation().num_aggregate_views());
    for (size_t v = 0; v < reference.relation().num_aggregate_views(); ++v) {
      const MeasureColumn& ref_col = reference.relation().PeekAggregateView(v);
      const MeasureColumn& got_col = engine.relation().PeekAggregateView(v);
      ASSERT_EQ(got_col.num_values(), ref_col.num_values())
          << "threads=" << threads << " view " << v;
      EXPECT_TRUE(got_col.presence().bits() == ref_col.presence().bits())
          << "threads=" << threads << " view " << v;
      for (size_t r = 0; r < ref_col.num_values(); ++r) {
        EXPECT_TRUE(BitEqual(got_col.ValueAtRank(r), ref_col.ValueAtRank(r)))
            << "threads=" << threads << " view " << v << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace colgraph
