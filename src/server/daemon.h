// colgraphd — the fault-tolerant serving daemon (DESIGN.md §12). One
// process serves many concurrent read queries over a local socket while a
// single writer ingests trace batches and atomically publishes new engine
// snapshots. The robustness contract:
//
//   - *Snapshot isolation*: every query runs against the immutable
//     snapshot it acquired; a publish never tears an in-flight result.
//   - *Deadlines*: a request's timeout_ms is armed on a CancellationToken
//     threaded through query evaluation; expiry returns a clean
//     DEADLINE_EXCEEDED instead of occupying a worker forever.
//   - *Admission control*: a bounded accept queue and a bounded in-flight
//     request count; overload is an immediate, retryable
//     RESOURCE_EXHAUSTED, not an unbounded queue.
//   - *Graceful drain*: Drain() stops accepting, lets in-flight requests
//     finish, answers anything new with UNAVAILABLE, flushes and closes
//     the query log, and removes the socket file. colgraphd wires SIGTERM
//     to it.
//   - *Hostile peers*: hung or slow clients hit poll timeouts; malformed
//     or CRC-corrupt frames get an INVALID_ARGUMENT/CORRUPTION response
//     and the connection is closed (the stream can no longer be trusted).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "columnstore/dataset.h"
#include "core/engine.h"
#include "obs/metrics_exporter.h"
#include "obs/request_context.h"
#include "obs/slow_query_log.h"
#include "server/admission.h"
#include "server/net_socket.h"
#include "server/protocol.h"
#include "server/snapshot.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace colgraph::server {

struct DaemonOptions {
  /// AF_UNIX socket path to serve on. Required.
  std::string socket_path;
  /// Concurrent connection workers (each serves one connection at a time).
  size_t num_workers = 8;
  /// Accepted connections allowed to wait for a free worker; beyond this
  /// the accept loop answers RESOURCE_EXHAUSTED and closes immediately.
  size_t max_queued_connections = 64;
  /// Requests allowed to execute concurrently (the admission bound).
  size_t max_in_flight = 32;
  /// Socket read/write budget per frame; a peer stalling longer is
  /// dropped. 0 disables the guard (not recommended outside tests).
  uint64_t io_timeout_ms = 5000;
  /// Cadence of the accept loop's and idle connections' stop-flag checks.
  uint64_t poll_tick_ms = 50;
  /// Deadline applied to requests that do not carry their own timeout_ms;
  /// 0 = none.
  uint64_t default_timeout_ms = 0;
  /// Test hook: sleep this long after arming a request's deadline and
  /// before executing it — makes "deadline fires during the request"
  /// deterministic in tests. 0 (always, in production) disables it.
  uint64_t test_delay_before_execute_ms = 0;
  /// Durable incremental-ingest directory (DESIGN.md §14). When set, every
  /// Ingest seals its batch as an immutable dataset file here before
  /// publishing, and Start() re-attaches the directory's live datasets to
  /// the initial snapshot. Empty = RAM-only tails (nothing survives a
  /// restart beyond what the initial engine carries).
  std::string data_dir;
  /// Number of tail datasets ingested since the last compaction (or the
  /// start) that triggers a background compaction after an ingest publish
  /// (one CompactNow cycle). 0 disables background compaction.
  size_t compact_after_datasets = 4;
  /// Slow-query capture (DESIGN.md §15): requests at or above the
  /// threshold — plus an optional deterministic 1-in-N sample — are
  /// recorded with their full joined trace (server + engine phases, keyed
  /// by the wire request id). Empty path disables capture.
  obs::SlowQueryLogOptions slow_query_log;
  /// Metrics exporter (DESIGN.md §15): periodically writes the daemon's
  /// DumpMetricsJson (plus per-interval counter deltas) to
  /// `<metrics_dir>/metrics.json` via write-tmp + atomic rename. Empty
  /// disables.
  std::string metrics_dir;
  /// Export cadence in milliseconds.
  uint64_t metrics_period_ms = 1000;
};

/// Deterministic text renderings of query results — shared by the daemon
/// and the stress tests, which re-evaluate serially against a retained
/// snapshot and require byte-identical bodies.
std::string RenderMatchResult(const Bitmap& matches);
std::string RenderAggResult(const PathAggResult& result, AggFn fn);

/// Longest rendering of a value: sign, 17 significant digits, the point
/// and a 5-character exponent ("-1.2345678901234567e-308" is 24 bytes).
inline constexpr size_t kMaxValueChars = 24;

/// Writes the bytes of printf's "%.17g" for `v` at `out`, which has room
/// for kMaxValueChars, and returns the end. "%.17g" round-trips every
/// double bit-exactly. A normal value with 1e-4 <= |v| < 1e16 takes an
/// exact fixed-notation kernel, WriteFixed17g (DESIGN.md §12); every value
/// the kernel declines goes through std::to_chars.
char* WriteValue17g(char* out, double v);

/// The kernel alone, exposed so tests can check which values it takes:
/// writes "%.17g" of a normal `v` with 1e-4 <= |v| < 1e16 and returns the
/// end, or writes nothing and returns null for any other value and for an
/// exact tie at the 17th digit (and always in builds without 128-bit
/// integers).
char* WriteFixed17g(char* out, double v);

/// \brief The serving daemon. Construct via Start(); Drain() (idempotent,
/// also run by the destructor) performs the graceful shutdown.
class Daemon {
 public:
  /// Binds the socket and starts the accept loop. `initial` must be a
  /// sealed engine; it becomes snapshot epoch 0.
  [[nodiscard]] static StatusOr<std::unique_ptr<Daemon>> Start(
      std::shared_ptr<const ColGraphEngine> initial, DaemonOptions options);

  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Graceful drain; returns the query-log close status (the log must be
  /// complete on disk when this returns). Safe to call more than once.
  Status Drain();

  /// Executes one request exactly as a connection worker would —
  /// admission, deadline, snapshot acquisition, rendering. Exposed for
  /// the in-process smoke test and unit tests.
  Response Execute(const Request& request);

  /// Single-writer ingest (DESIGN.md §14): shreds the trace records into a
  /// small sealed tail dataset, durably seals it into data_dir when
  /// configured, attaches it behind the shared primary relation, and
  /// publishes the next epoch — O(batch), never a copy of the world.
  /// The body is parsed and flattened before the writer lock; the rest is
  /// serialized internally, and concurrent callers queue on that lock.
  [[nodiscard]] StatusOr<Response> Ingest(const std::string& trace_text);

  /// Runs one compaction cycle inline and republishes. With data_dir it
  /// merges the newest run of tails, size-tiered (NewestRunToCompact): the
  /// tails ingested since the last cycle, plus each older tier holding no
  /// more records than the run so far. The run merges in memory from the
  /// served tails (MergeRelations, views included); the store writes the
  /// merge in place of the run's files (DatasetStore::ReplaceNewest), and
  /// it replaces the run's tails behind the unchanged primary and older
  /// tiers. A cycle with nothing to merge publishes nothing. Without
  /// data_dir, the tails merge into the primary in memory. The background
  /// trigger calls the same body. A failed write leaves everything
  /// untouched.
  [[nodiscard]] Status CompactNow();

  const std::string& socket_path() const { return options_.socket_path; }
  uint64_t snapshot_epoch() const { return snapshots_.epoch(); }
  SnapshotManager& snapshots() { return snapshots_; }
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  /// Telemetry sinks, for tests and the chaos harness; null when the
  /// corresponding option is unset.
  obs::SlowQueryLog* slow_query_log() { return slow_log_.get(); }
  obs::MetricsExporter* metrics_exporter() { return exporter_.get(); }

 private:
  Daemon(DaemonOptions options, std::shared_ptr<const ColGraphEngine> initial,
         UnixListener listener);

  void AcceptLoop();
  void HandleConnection(UnixSocket socket, uint64_t queue_wait_us);
  /// Reads one request frame; Unavailable = clean disconnect or drain,
  /// other errors = drop the connection. `fatal_out` marks protocol
  /// errors that still produce a response but must close the stream.
  /// `ctx` is re-anchored at the request's first byte; the first request
  /// on a connection absorbs `*pending_queue_wait_us` into its trace.
  Status ReadRequest(UnixSocket* socket, Request* request,
                     Response* error_response, bool* fatal_out,
                     obs::RequestContext* ctx,
                     uint64_t* pending_queue_wait_us);
  /// Execute() minus the finalize step (trace echo + slow-query capture):
  /// the socket path finalizes itself so the captured record includes the
  /// encode/write phases.
  Response ExecuteWithContext(const Request& request,
                              obs::RequestContext* ctx);
  Response ExecuteQuery(const Request& request, const CancellationToken& token,
                        obs::RequestContext* ctx);
  /// Trace echo into `response` when the request asked for it.
  void MaybeEchoTrace(const Request& request, const obs::RequestContext& ctx,
                      Response* response) const;
  /// Offers the finished request to the slow-query log (no-op when
  /// capture is off or the admission rules pass on it).
  void MaybeCaptureSlowQuery(const Request& request, obs::RequestContext* ctx,
                             const Response& response);
  Response ErrorResponse(const Status& status) const;

  DaemonOptions options_;
  SnapshotManager snapshots_;
  AdmissionController admission_;
  UnixListener listener_;
  std::atomic<bool> draining_{false};
  std::atomic<size_t> queued_connections_{0};

  /// Serializes writers (Ingest, CompactNow): build → seal → publish.
  Mutex writer_mu_;
  /// Durable dataset directory; null when options_.data_dir is empty.
  std::unique_ptr<DatasetStore> store_ COLGRAPH_GUARDED_BY(writer_mu_);
  /// Served tails counted as compacted: the tiers the last cycle left, or
  /// the tails Start() restored. The trigger and the next cycle's run
  /// count the tails after them.
  size_t compacted_tails_ COLGRAPH_GUARDED_BY(writer_mu_) = 0;
  /// Collapses scheduling so at most one background compaction is queued.
  std::atomic<bool> compaction_queued_{false};

  /// Fallback request-id source for clients that sent no wire context
  /// (old protocol) — every slow-query record stays keyed.
  std::atomic<uint64_t> request_seq_{0};
  /// Slow-query capture; null when options_.slow_query_log.path is empty.
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  /// Periodic metrics export; null when options_.metrics_dir is empty.
  std::unique_ptr<obs::MetricsExporter> exporter_;

  /// One worker dedicated to the accept loop; connection handlers run on
  /// conn_pool_. Destroyed (joined) by Drain in accept-first order so no
  /// handler is scheduled after the connection pool starts draining.
  std::unique_ptr<ThreadPool> conn_pool_;
  std::unique_ptr<ThreadPool> accept_pool_;

  Mutex drain_mu_;
  bool drained_ COLGRAPH_GUARDED_BY(drain_mu_) = false;
  Status drain_status_ COLGRAPH_GUARDED_BY(drain_mu_);
};

}  // namespace colgraph::server
