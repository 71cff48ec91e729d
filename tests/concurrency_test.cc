// Cross-layer concurrency tests (ctest label: concurrency; CI runs these
// under TSan). N threads hammer the batch query APIs against precomputed
// serial answers, view materialization runs concurrently with view-oblivious
// query evaluation, and a failpoint-injected task failure proves first-error
// propagation as a Status without deadlocking the pool.
//
// tests/ may use raw std::thread to *drive* the library from many callers;
// inside src/ the repo lint bans it in favour of util/thread_pool.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "util/failpoint.h"
#include "views/materializer.h"
#include "workload/base_graphs.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace colgraph {
namespace {

// Exact (bitwise) double comparison: determinism means the same bits, and
// NaN != NaN would make operator== lie about identical outputs.
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

struct Workbench {
  DirectedGraph universe;
  std::vector<GraphRecord> records;
  std::vector<GraphQuery> workload;
};

// Seed-driven dataset + query workload, shared by every test below so all
// engines (any thread count) see identical inputs.
Workbench MakeWorkbench(uint64_t seed) {
  Workbench wb;
  const DirectedGraph base = MakeRoadNetwork(30, 30);
  auto universe = SelectEdgeUniverse(base, 150, seed);
  COLGRAPH_CHECK_OK(universe.status());
  wb.universe = std::move(universe).value();

  RecordGenOptions rec_options;
  rec_options.min_edges = 8;
  rec_options.max_edges = 20;
  WalkRecordGenerator generator(&wb.universe, rec_options, seed + 1);
  std::vector<std::vector<NodeRef>> trunks;
  for (size_t i = 0; i < 200; ++i) {
    std::vector<NodeRef> trunk;
    wb.records.push_back(generator.Next(&trunk));
    trunks.push_back(std::move(trunk));
  }

  QueryGenerator qgen(&trunks, &wb.universe, seed + 2);
  QueryGenOptions q_options;
  q_options.min_edges = 3;
  q_options.max_edges = 8;
  wb.workload = qgen.UniformWorkload(40, q_options);
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

TEST(ConcurrencyTest, ManyThreadsHammerEvaluateBatch) {
  const Workbench wb = MakeWorkbench(4242);
  const ColGraphEngine engine = BuildEngine(wb, /*num_threads=*/4);

  // Serial ground truth through the single-query API.
  std::vector<MeasureTable> expected;
  for (const GraphQuery& q : wb.workload) {
    auto result = engine.RunGraphQuery(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result).value());
  }

  constexpr size_t kCallers = 4;
  constexpr int kIterations = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int it = 0; it < kIterations; ++it) {
        auto batch = engine.EvaluateBatch(wb.workload);
        if (!batch.ok() || batch->size() != expected.size()) {
          mismatches.fetch_add(1);
          return;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          if (!TablesIdentical((*batch)[i], expected[i])) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Copies of an engine share its worker pool: a SharedCopy (the daemon's
// publish path) and a full copy start no threads of their own, and two
// copies' ParallelFor sections run on the one pool at the same time.
TEST(ConcurrencyTest, EngineCopiesShareOnePool) {
  const Workbench wb = MakeWorkbench(5151);
  const ColGraphEngine engine = BuildEngine(wb, /*num_threads=*/2);
  ASSERT_NE(engine.pool(), nullptr);
  const ColGraphEngine shared = engine.SharedCopy();
  const ColGraphEngine copied(engine);  // a full copy, relation included
  EXPECT_EQ(shared.pool(), engine.pool());
  EXPECT_EQ(copied.pool(), engine.pool());

  std::vector<MeasureTable> expected;
  for (const GraphQuery& q : wb.workload) {
    auto result = engine.RunGraphQuery(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result).value());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (const ColGraphEngine* copy : {&shared, &copied}) {
    callers.emplace_back([&, copy] {
      for (int it = 0; it < 3; ++it) {
        auto batch = copy->EvaluateBatch(wb.workload);
        if (!batch.ok() || batch->size() != expected.size()) {
          mismatches.fetch_add(1);
          return;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          if (!TablesIdentical((*batch)[i], expected[i])) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ManyThreadsHammerEvaluatePathAggBatch) {
  const Workbench wb = MakeWorkbench(1717);
  const ColGraphEngine engine = BuildEngine(wb, /*num_threads=*/4);

  std::vector<PathAggResult> expected;
  for (const GraphQuery& q : wb.workload) {
    auto result = engine.RunAggregateQuery(q, AggFn::kSum);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result).value());
  }

  constexpr size_t kCallers = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int it = 0; it < 2; ++it) {
        auto batch = engine.EvaluatePathAggBatch(wb.workload, AggFn::kSum);
        if (!batch.ok() || batch->size() != expected.size()) {
          mismatches.fetch_add(1);
          return;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          if (!AggResultsIdentical((*batch)[i], expected[i])) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, MaterializationRunsConcurrentlyWithViewObliviousQueries) {
  const Workbench wb = MakeWorkbench(9090);
  ColGraphEngine engine = BuildEngine(wb, /*num_threads=*/4);

  // View defs straight from the workload's resolved edge sets.
  std::vector<GraphViewDef> defs;
  for (const GraphQuery& q : wb.workload) {
    const auto resolved = engine.query_engine().Resolve(q);
    if (resolved.satisfiable && !resolved.ids.empty()) {
      defs.push_back(GraphViewDef{resolved.ids});
    }
  }
  ASSERT_FALSE(defs.empty());

  // Ground truth with the views-off plan (the only plan the query threads
  // may use while views are being added: new view columns are not theirs
  // to read until materialization returns — DESIGN.md §8).
  QueryOptions no_views;
  no_views.use_views = false;
  std::vector<MeasureTable> expected;
  for (const GraphQuery& q : wb.workload) {
    auto result = engine.RunGraphQuery(q, no_views);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result).value());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> queriers;
  for (size_t t = 0; t < 3; ++t) {
    queriers.emplace_back([&] {
      for (int it = 0; it < 4; ++it) {
        for (size_t i = 0; i < wb.workload.size(); ++i) {
          auto result = engine.RunGraphQuery(wb.workload[i], no_views);
          if (!result.ok() || !TablesIdentical(*result, expected[i])) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  // Meanwhile: materialize the whole batch into the same relation, using
  // the engine's pool for the per-view bitmap passes.
  ViewCatalog scratch;
  auto columns = MaterializeGraphViews(defs, &engine.mutable_relation(),
                                       &scratch, engine.pool());
  for (std::thread& t : queriers) t.join();

  ASSERT_TRUE(columns.ok()) << columns.status().ToString();
  EXPECT_EQ(columns->size(), defs.size());
  EXPECT_EQ(scratch.num_graph_views(), defs.size());
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, InjectedTaskFailureReturnsStatusWithoutDeadlock) {
  if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
  const Workbench wb = MakeWorkbench(5151);
  const ColGraphEngine engine = BuildEngine(wb, /*num_threads=*/4);

  failpoint::Arm("thread_pool:task", {failpoint::Action::kError, 0, 0});
  auto failed = engine.EvaluateBatch(wb.workload);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_NE(failed.status().ToString().find("thread_pool:task"),
            std::string::npos);
  failpoint::DisarmAll();

  // The failing call returned (no deadlock) and the engine + pool stay
  // fully usable: the next batch matches the serial answers.
  auto batch = engine.EvaluateBatch(wb.workload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), wb.workload.size());
  for (size_t i = 0; i < wb.workload.size(); ++i) {
    auto expected = engine.RunGraphQuery(wb.workload[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(TablesIdentical((*batch)[i], *expected)) << "query " << i;
  }
}

}  // namespace
}  // namespace colgraph
