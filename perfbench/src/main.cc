// colgraph_perfbench — one seeded run of one benchmark workload.
//
//   colgraph_perfbench --workload W --seed N --seconds S --trace 0|1
//                      --run-dir DIR --out-dir DIR [--commit TEXT]
//
// Prints a provenance line and a diagnostics line (JSON), then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit code
// 0 when the run completed (check failures show as "correct": false),
// 2 on bad arguments, 3 when the program could not be set up.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Gated end-to-end metrics: one definition on every workload (README.md).
constexpr MetricDef kEndToEnd[] = {
    {"qps", "req/s"},
    {"latency_p50_ms", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"rss_mb", "MB"},
    {"setup_s", "s"},
};

// Per-layer metrics of the traced run. A layer a workload does not cross
// reads 0 there (README.md maps each metric to its workloads).
constexpr MetricDef kPerLayer[] = {
    {"server.decode_us", "us"},
    {"server.render_us", "us"},
    {"server.encode_us", "us"},
    {"server.client_decode_us", "us"},
    {"server.response_bytes", "B"},
    {"server.wire_us", "us"},
    {"server.round_trip_p50_ms", "ms"},
    {"server.client_cpu_ms_per_op", "ms"},
    {"server.failed_ops", "count"},
    {"server.retries", "count"},
    {"server.ingest_wait_us", "us"},
    {"server.start_s", "s"},
    {"query.parse_us", "us"},
    {"query.resolve_us", "us"},
    {"query.rewrite_us", "us"},
    {"query.plan_sources", "count"},
    {"query.plan_view_sources", "count"},
    {"query.and_us", "us"},
    {"query.bitmaps_fetched", "count"},
    {"query.result_records", "count"},
    {"query.fetch_us", "us"},
    {"query.values_fetched", "count"},
    {"query.fetch_ns_per_value", "ns"},
    {"query.path_plan_us", "us"},
    {"query.fold_us", "us"},
    {"query.distinct_share", "ratio"},
    {"bitmap.hybrid_operand_share", "ratio"},
    {"bitmap.and_bytes", "B"},
    {"util.pool_efficiency", "ratio"},
    {"workload.parse_traces_us", "us"},
    {"core.build_tail_us", "us"},
    {"columnstore.seal_us", "us"},
    {"core.attach_us", "us"},
    {"columnstore.seal_bytes_per_record", "B"},
    {"columnstore.compact_us", "us"},
    {"core.compact_us", "us"},
    {"columnstore.compactions", "count"},
    {"columnstore.compaction_bytes_per_record", "B"},
    {"core.tails_per_read", "count"},
    {"columnstore.reload_ms", "ms"},
    {"columnstore.reload_minor_faults", "count"},
    {"core.ingest_s", "s"},
    {"views.select_s", "s"},
    {"views.materialize_s", "s"},
    {"views.count", "count"},
    {"proc.minor_faults_per_op", "count"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: colgraph_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --run-dir DIR --out-dir DIR [--commit TEXT]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds < 1 || args.run_dir.empty() ||
      args.out_dir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(args.run_dir);

  Report report;
  if (args.workload == "serve_match") {
    RunServeMatch(args, &report);
  } else if (args.workload == "serve_agg_zipf") {
    RunServeAggZipf(args, &report);
  } else if (args.workload == "serve_ingest") {
    RunServeIngest(args, &report);
  } else if (args.workload == "batch_fetch") {
    RunBatchFetch(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return Usage();
  }

  utsname host{};
  uname(&host);
  report.Fact("workload", args.workload);
  report.Fact("seed", std::to_string(args.seed));
  report.Fact("seconds", std::to_string(args.seconds));
  report.Fact("trace", args.trace ? "1" : "0");
  report.Fact("cpu_model", CpuModel());
  report.Fact("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Fact("kernel", std::string(host.sysname) + " " + host.release);
  report.Fact("compiler", "g++ " __VERSION__);
  report.Fact("build_type", PERFBENCH_BUILD_TYPE);
  report.Fact("commit", commit);

  std::string line = "{\"provenance\":{";
  for (const auto& [key, value] : report.facts()) {
    if (line.back() != '{') line += ",";
    line += JsonString(key) + ":" + JsonString(value);
  }
  std::printf("%s}}\n", line.c_str());
  line = "{\"diagnostics\":{";
  for (const auto& [name, value] : report.diags()) {
    if (line.back() != '{') line += ",";
    line += JsonString(name) + ":{\"value\":" + JsonNumber(value.first) +
            ",\"unit\":" + JsonString(value.second) + "}";
  }
  std::printf("%s}}\n", line.c_str());

  line = "{\"metrics\":{";
  const auto emit = [&](const MetricDef& def, bool required) {
    const auto it = report.metrics().find(def.name);
    if (it == report.metrics().end() && required) {
      report.Fail(std::string("metric ") + def.name + " was not measured");
    }
    if (line.back() != '{') line += ",";
    line += JsonString(def.name) + ":{\"value\":" +
            JsonNumber(it == report.metrics().end() ? 0.0 : it->second) +
            ",\"unit\":" + JsonString(def.unit) + "}";
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) emit(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              line.substr(1).c_str());
  return 0;
}
