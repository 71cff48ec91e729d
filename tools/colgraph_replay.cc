// colgraph_replay: replays a captured query log (obs/query_log.h) against
// a persisted engine snapshot, verifies result cardinalities against the
// ones recorded at capture time, and optionally mines the log for view
// advice (views/workload_advisor.h).
//
// Usage:
//   colgraph_replay --engine=ENGINE.snapshot --log=QUERIES.qlog
//                   [--threads=N] [--no-views] [--advise-views=K]
//                   [--metrics-out=FILE] [--timeout-ms=N]
//   colgraph_replay --self-test=DIR
//
// --self-test builds a small engine under DIR, captures a mixed workload
// into a log, snapshots the engine, then replays the snapshot+log through
// the exact production path below — a binary-level capture → persist →
// replay round trip (wired into ctest).
//
// Exit codes: 0 replay clean, 1 cardinality mismatches, 2 usage/IO error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/engine_io.h"
#include "core/replay.h"
#include "obs/query_log_reader.h"
#include "views/workload_advisor.h"

namespace {

using colgraph::AdviseGraphViews;
using colgraph::ColGraphEngine;
using colgraph::ReadEngine;
using colgraph::ReplayOptions;
using colgraph::ReplayQueryLog;
using colgraph::ReplayReport;
using colgraph::WorkloadAdvice;
using colgraph::WorkloadFromQueryLog;
using colgraph::obs::QueryLogRecord;
using colgraph::obs::ReadQueryLog;

struct Args {
  std::string engine_path;
  std::string log_path;
  std::string metrics_out;
  size_t threads = 1;
  size_t advise_views = 0;
  uint64_t timeout_ms = 0;
  bool use_views = true;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --engine=ENGINE.snapshot --log=QUERIES.qlog\n"
               "          [--threads=N] [--no-views] [--advise-views=K]\n"
               "          [--metrics-out=FILE] [--timeout-ms=N]\n"
               "       %s --self-test=DIR\n",
               argv0, argv0);
  return 2;
}

// Builds a small engine with capture on, runs a mixed workload, and leaves
// DIR/selftest.engine + DIR/selftest.qlog for the normal replay path to
// consume. Returns 0 on success, 2 on any setup failure.
int BuildSelfTestArtifacts(const std::string& dir, Args* args) {
  args->engine_path = dir + "/selftest.engine";
  args->log_path = dir + "/selftest.qlog";
  args->advise_views = 2;

  colgraph::EngineOptions options;
  options.query_log.path = args->log_path;
  ColGraphEngine engine(options);
  for (int i = 0; i < 10; ++i) {
    if (!engine.AddWalk({1, 2, 3, 4, 5}, {1, 2, 3, 4}).ok()) return 2;
  }
  for (int i = 0; i < 4; ++i) {
    if (!engine.AddWalk({2, 3, 4}, {5, 6}).ok()) return 2;
  }
  if (!engine.Seal().ok()) return 2;
  if (!engine.MaterializeView(colgraph::GraphViewDef::Make({0, 1})).ok()) {
    return 2;
  }

  using colgraph::GraphQuery;
  using colgraph::NodeRef;
  const std::vector<GraphQuery> workload = {
      GraphQuery::FromPath({NodeRef{1, 0}, NodeRef{2, 0}, NodeRef{3, 0}}),
      GraphQuery::FromPath({NodeRef{2, 0}, NodeRef{3, 0}, NodeRef{4, 0}}),
      GraphQuery::FromPath({NodeRef{8, 0}, NodeRef{9, 0}}),  // unsatisfiable
  };
  for (const GraphQuery& q : workload) {
    auto result = engine.RunGraphQuery(q);
    if (!result.ok()) return 2;
  }
  auto agg = engine.RunAggregateQuery(workload[0], colgraph::AggFn::kSum);
  if (!agg.ok()) return 2;

  if (!engine.CloseQueryLog().ok()) return 2;
  if (!colgraph::WriteEngine(engine, args->engine_path).ok()) return 2;
  std::printf("self-test artifacts under %s\n", dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string self_test_dir;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--self-test=", &self_test_dir)) continue;
    if (ParseFlag(argv[i], "--engine=", &args.engine_path)) continue;
    if (ParseFlag(argv[i], "--log=", &args.log_path)) continue;
    if (ParseFlag(argv[i], "--metrics-out=", &args.metrics_out)) continue;
    if (ParseFlag(argv[i], "--threads=", &value)) {
      args.threads = static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
      continue;
    }
    if (ParseFlag(argv[i], "--advise-views=", &value)) {
      args.advise_views =
          static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
      continue;
    }
    if (ParseFlag(argv[i], "--timeout-ms=", &value)) {
      args.timeout_ms = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (std::strcmp(argv[i], "--no-views") == 0) {
      args.use_views = false;
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return Usage(argv[0]);
  }
  if (!self_test_dir.empty()) {
    const int rc = BuildSelfTestArtifacts(self_test_dir, &args);
    if (rc != 0) {
      std::fprintf(stderr, "self-test setup failed\n");
      return rc;
    }
  }
  if (args.engine_path.empty() || args.log_path.empty()) {
    return Usage(argv[0]);
  }

  auto engine_or = ReadEngine(args.engine_path);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "cannot load engine: %s\n",
                 engine_or.status().ToString().c_str());
    return 2;
  }
  const ColGraphEngine& engine = engine_or.value();

  auto records_or = ReadQueryLog(args.log_path);
  if (!records_or.ok()) {
    std::fprintf(stderr, "cannot read query log: %s\n",
                 records_or.status().ToString().c_str());
    return 2;
  }
  const std::vector<QueryLogRecord>& records = records_or.value();

  ReplayOptions options;
  options.num_threads = args.threads;
  options.use_views = args.use_views;
  options.timeout_ms = args.timeout_ms;
  auto report_or = ReplayQueryLog(engine, records, options);
  if (!report_or.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 report_or.status().ToString().c_str());
    return 2;
  }
  const ReplayReport& report = report_or.value();

  std::printf("replayed %llu queries (%llu match, %llu path-agg) from %s\n",
              static_cast<unsigned long long>(report.queries_replayed),
              static_cast<unsigned long long>(report.match_queries),
              static_cast<unsigned long long>(report.path_agg_queries),
              args.log_path.c_str());
  std::printf("cardinality mismatches: %llu\n",
              static_cast<unsigned long long>(report.cardinality_mismatches));
  for (const ReplayReport::Mismatch& m : report.mismatches) {
    std::printf("  record %zu: logged %llu, replayed %llu\n", m.record_index,
                static_cast<unsigned long long>(m.logged),
                static_cast<unsigned long long>(m.replayed));
  }

  if (args.advise_views > 0) {
    auto advice_or = AdviseGraphViews(WorkloadFromQueryLog(records),
                                      engine.catalog(), args.advise_views);
    if (!advice_or.ok()) {
      std::fprintf(stderr, "view advice failed: %s\n",
                   advice_or.status().ToString().c_str());
      return 2;
    }
    const WorkloadAdvice& advice = advice_or.value();
    std::printf(
        "view advice (budget %zu) over %zu universes, %zu elements:\n",
        args.advise_views, advice.num_universes, advice.total_elements);
    for (size_t i = 0; i < advice.views.size(); ++i) {
      const auto& v = advice.views[i];
      std::printf("  view %zu: %zu edges {", i + 1, v.def.edges.size());
      for (size_t e = 0; e < v.def.edges.size(); ++e) {
        std::printf("%s%u", e == 0 ? "" : ",", v.def.edges[e]);
      }
      std::printf("} used by %zu queries, coverage gain %zu\n",
                  v.supporting_queries, v.coverage_gain);
    }
    std::printf("uncovered elements after selection: %zu\n",
                advice.uncovered_elements);
  }

  if (!args.metrics_out.empty()) {
    std::ofstream out(args.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   args.metrics_out.c_str());
      return 2;
    }
    out << "{\"bench\":\"colgraph_replay\",\"threads\":" << args.threads
        << ",\"engine_metrics\":" << engine.DumpMetricsJson() << "}\n";
  }

  return report.cardinality_mismatches == 0 ? 0 : 1;
}
