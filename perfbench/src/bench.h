// Shared pieces of the colgraph end-to-end benchmark: run parameters, the
// result report, clocks and resource probes, the seeded NY-like collection,
// the program's set-up (ingest, Seal, views, Daemon::Start), and the span
// tracer used by traced runs. README.md describes the workloads and every
// metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/graph.h"
#include "server/client.h"
#include "server/daemon.h"

namespace perfbench {

using colgraph::ColGraphEngine;
using colgraph::GraphQuery;

// --- Run parameters and the result report. ---

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Scales the fixed operation count of a run (never a time limit).
  int seconds = 10;
  bool trace = false;
  /// Working directory inside the checkout: sockets and data dirs.
  std::string run_dir;
  /// Where traced runs write their spans and per-layer table.
  std::string out_dir;
};

/// One run's output. Gated metrics go through Set() and must be named in
/// the end-to-end or per-layer catalog (main.cc); everything else is a
/// diagnostic or a provenance fact.
class Report {
 public:
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  void Diag(const std::string& name, double value, const std::string& unit) {
    diags_[name] = {value, unit};
  }
  void Fact(const std::string& key, const std::string& value) {
    facts_[key] = value;
  }
  /// Marks the run incorrect; the reason is printed on stderr.
  void Fail(const std::string& why);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::map<std::string, std::pair<double, std::string>>& diags() const {
    return diags_;
  }
  const std::map<std::string, std::string>& facts() const { return facts_; }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::pair<double, std::string>> diags_;
  std::map<std::string, std::string> facts_;
};

// --- Clocks, resources, statistics. ---

int64_t NowNs();           ///< steady clock
int64_t ProcessCpuNs();    ///< user+sys of every thread of the process
int64_t ThreadCpuNs();     ///< user+sys of the calling thread
/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void ResetPeakRss();
double PeakRssMb();
uint64_t MinorFaults();
/// Returns freed heap pages to the kernel so RSS reflects live data.
void TrimHeap();

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// Median over consecutive fixed-count windows of completion times (ns):
/// each window's rate is `window` completions over the time it spanned.
double MedianWindowRate(std::vector<int64_t> completions_ns, size_t window);
/// Adds p99/max (with sample counts) of `values_ms` as diagnostics.
void TailDiagnostics(const std::string& prefix, const std::vector<double>& ms,
                     Report* report);

/// A 64-bit checksum of `len` bytes, chained from `seed`: four independent
/// multiply-xor lanes over 8-byte words, so checking an answer costs a few
/// µs per 100 KB. Used to check answers without keeping them.
uint64_t Checksum(const void* data, size_t len, uint64_t seed = 0);
inline uint64_t Checksum(const std::string& s) { return Checksum(s.data(), s.size()); }
/// Bytes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);
/// Filesystem type of `path` ("tmpfs", "ext4", ...).
std::string FsType(const std::string& path);

/// Derives an independent seed for one input stream of a run (SplitMix64).
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- The NY-like collection. ---

/// Edges per universe (the paper's default domain size) and records in
/// the primary collection of every workload.
inline constexpr size_t kUniverseEdges = 1000;
inline constexpr size_t kRecords = 50000;
/// The collection (and the Zipf query pool) is one fixed dataset, as the
/// paper's NY dataset is: a run's --seed draws its traffic, not its data,
/// so runs with different seeds measure the same collection.
inline constexpr uint64_t kDatasetSeed = 20140324;

/// A seeded collection of random-walk records over a 1,000-edge
/// sub-universe of the 120x120 grid road network (Table 2's NY shape,
/// 35..100 edges per record). The records are kept in a compact form so
/// the set-up can be repeated without regenerating them.
struct Collection {
  colgraph::DirectedGraph universe;
  /// Record trunks (the walks records grew from): the query source.
  std::vector<std::vector<colgraph::NodeRef>> trunks;
  std::vector<colgraph::Edge> edges;  ///< universe edges; codes index this
  std::vector<uint16_t> codes;        ///< record elements, concatenated
  std::vector<double> measures;
  std::vector<uint32_t> ends;         ///< one past each record's last element

  size_t size() const { return ends.size(); }
  void Decode(size_t i, colgraph::GraphRecord* out) const;
};

Collection MakeCollection(uint64_t seed, size_t num_records);
/// Frees the records and trunks before a measured phase.
void Release(Collection* collection);

// --- The program's set-up. ---

/// Untraced runs set the program up this many times and report the median
/// (traced runs once).
inline constexpr int kSetupRepeats = 5;

/// Seconds the program spent in each set-up step. The benchmark's own
/// input generation is never inside these clocks.
struct SetupClock {
  double ingest_s = 0;       ///< AddRecord loop + Seal
  double select_s = 0;       ///< view selection alone (traced runs only)
  double views_s = 0;        ///< selection + materialization
  double start_s = 0;        ///< Daemon::Start
  size_t views = 0;
  double total() const { return ingest_s + views_s + start_s; }
};

/// Streams the collection into a fresh engine and seals it, timing only
/// the engine's AddRecord and Seal calls.
std::shared_ptr<ColGraphEngine> IngestCollection(
    const Collection& collection, const colgraph::EngineOptions& options,
    SetupClock* clock);

enum class ViewKind { kGraph, kAggregate };
/// Greedy view selection (budget 100) over `training`, materialized through
/// the engine's one-call API. With `time_selection`, the selection step is
/// first run alone to time it (a probe whose result is discarded).
void MaterializeViews(ColGraphEngine* engine,
                      const std::vector<GraphQuery>& training, ViewKind kind,
                      bool time_selection, SetupClock* clock);

/// Reports the set-up metrics: setup_s and its parts, medians over `clocks`.
void ReportSetup(const std::vector<SetupClock>& clocks, Report* report);

/// The text form "[a,b,c]" of a path query.
std::string PathText(const GraphQuery& query);

// --- Tracing (traced runs only). ---

enum class SpanKind : uint8_t {
  kRoot,   ///< one per request: the replica of the program's path
  kLayer,  ///< a call into a program layer; counts toward layer time
  kProbe,  ///< a separate call made only to split a layer's time
  kWire,   ///< the request's round trip through the real socket
};

struct SpanRec {
  const char* name = nullptr;
  SpanKind kind = SpanKind::kLayer;
  int32_t parent = -1;  ///< index in the same tracer, -1 for top level
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread, in-memory span buffer; spans are written out after the run.
class Tracer {
 public:
  void BeginRequest(uint64_t id) { request_ = id; }
  size_t Begin(const char* name, SpanKind kind);
  void End(size_t index);
  /// Appends another tracer's spans, re-basing their parent indexes.
  void Append(const Tracer& other);
  size_t size() const { return spans_.size(); }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<size_t> open_;
  uint64_t request_ = 0;
};

/// A span around a scope; does nothing when `tracer` is null (untraced).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name,
             SpanKind kind = SpanKind::kLayer)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, kind) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t index_;
};

/// Per-request view of the spans: per name, the summed duration and self
/// time (duration minus the children's durations), in ns.
struct RequestView {
  uint64_t request = 0;
  std::map<std::string, int64_t> dur;
  std::map<std::string, int64_t> self;
  int64_t layer_self_ns = 0;  ///< Σ self time of kLayer spans
  int64_t wire_ns = -1;       ///< round trip, -1 when the request had none
  int64_t Dur(const std::string& n) const;
  int64_t Self(const std::string& n) const;
};

/// Duration of the tracer's first span (the request root).
int64_t RootNs(const Tracer& tracer);
/// Σ self time of the tracer's kLayer spans.
int64_t LayerSelfNs(const Tracer& tracer);

/// Checks that every request's spans nest under its root; failures go to
/// `report`. Returns one view per request, in request order.
std::vector<RequestView> AnalyzeSpans(const std::vector<const Tracer*>& tracers,
                                      Report* report);

/// Writes every span (JSON lines) and the per-layer table (self time
/// median/total and count per span name) under args.out_dir, and prints
/// the table on stderr.
void WriteTrace(const Args& args, const std::vector<const Tracer*>& tracers,
                const std::vector<RequestView>& views, const Report& report);

/// Median of `f(view)` over the views, in µs (f returns ns).
template <typename F>
double MedianUs(const std::vector<RequestView>& views, F f) {
  std::vector<double> v;
  v.reserve(views.size());
  for (const RequestView& rv : views) v.push_back(static_cast<double>(f(rv)) / 1e3);
  return Median(std::move(v));
}

// --- Served workloads (serve.cc). ---

/// The engine a daemon serves and the daemon itself.
struct Served {
  std::shared_ptr<const ColGraphEngine> engine;
  std::unique_ptr<colgraph::server::Daemon> daemon;
};

/// Runs the program's served set-up `repeats` times (ingest + Seal, views
/// over `training`, Daemon::Start) and keeps the last; the earlier daemons
/// are drained and dropped. Reports the set-up metrics.
Served SetUpServed(const Collection& collection,
                   const std::vector<GraphQuery>& training, ViewKind kind,
                   const colgraph::server::DaemonOptions& options, int repeats,
                   bool traced, Report* report);

/// What one in-process replica of the daemon's query path produced.
struct ReplicaOut {
  std::string body;              ///< the rendered response body
  uint64_t response_bytes = 0;   ///< the encoded response frame
  uint64_t plan_sources = 0;
  uint64_t plan_view_sources = 0;
  uint64_t hybrid_operands = 0;
  /// Containers of those hybrid operands: arrays, bitsets, runs.
  uint64_t hybrid_containers[3] = {0, 0, 0};
  uint64_t bitmaps_fetched = 0;  ///< FetchStats delta of the executed path
  uint64_t values_fetched = 0;
  uint64_t result_records = 0;
  uint64_t and_bytes = 0;
};

/// FetchStats totals over the primary relation and every tail dataset.
uint64_t BitmapsFetched(const ColGraphEngine& engine);
uint64_t ValuesFetched(const ColGraphEngine& engine);

/// The rewrite step of MatchIds on its own — PlanMatch plus the
/// selectivity sort — as a `query.plan` probe span; fills the plan-shape
/// counts of `out` (sources, view sources, operands with a hybrid sidecar).
void ProbePlan(const ColGraphEngine& engine,
               const std::vector<colgraph::EdgeId>& ids, bool agg_bitmaps,
               Tracer* tracer, ReplicaOut* out);
/// Computed bytes the plain-word AND loop moves for `fetched` operands of
/// the primary relation: the first operand is copied (read + write), each
/// later one is read together with the running result, which is written.
uint64_t AndBytes(const ColGraphEngine& engine, uint64_t fetched);

/// Replays the daemon's handling of one query request through the public
/// functions it calls — request decode, ParseQuery, Resolve, MatchIds or
/// RunAggregateQuery, the renderer, response encode, client decode — on
/// `engine` at `epoch`. With a tracer, each call is a span under a
/// `request` root and the extra probes that split a layer are recorded.
ReplicaOut ReplicaQuery(const ColGraphEngine& engine, uint64_t epoch,
                        const std::string& body, Tracer* tracer);

/// One traced request: the faster of two replica executions (so a stall
/// in one replica does not inflate the layer times), then one round trip
/// through `client` with the request-context trace flag set, so the daemon
/// echoes its own total for this very request. Measured once, never
/// repeated.
struct TracedRequest {
  Tracer spans;
  ReplicaOut out;
  colgraph::StatusOr<colgraph::server::Response> response =
      colgraph::Status::Internal("not sent");
  int64_t round_trip_ns = 0;
  /// The daemon's echoed total_us for the request, in ns; -1 when absent.
  int64_t served_ns = -1;
  int64_t client_cpu_ns = 0;
  uint64_t retries = 0;
};
TracedRequest TraceRequest(const ColGraphEngine& engine, uint64_t epoch,
                           const std::string& body, uint64_t id,
                           colgraph::server::Client* client);

/// The container mix of the plan operands' hybrid sidecars
/// (HybridBitmap::Stats), per operation, as diagnostics.
void ReportContainerMix(const std::vector<ReplicaOut>& outs, Report* report);

/// Largest share of traced query requests whose round trip may be shorter
/// than their replica's layer self time before the run fails (README.md,
/// "Checks").
inline constexpr double kMaxReplicaOverrunShare = 0.25;

/// The remainder checks of traced requests. Per request, the round trip
/// must cover the daemon's own echoed total for that request (`served_ns`,
/// keyed by request id): a negative remainder fails the run. The remainder
/// against the replica's layer self time is reported as the share of
/// requests where it is negative; for query requests (a `request` root)
/// the run fails when that share exceeds kMaxReplicaOverrunShare.
void CheckRemainders(const std::vector<RequestView>& views,
                     const std::map<uint64_t, int64_t>& served_ns,
                     Report* report);

/// Sets the request-context extension on `request`: request id `id`
/// (non-zero) and the trace flag, so the daemon echoes its joined trace.
void RequestTrace(colgraph::server::Request* request, uint64_t id);
/// The daemon's echoed total_us for a traced request, in ns; -1 when the
/// response carries no trace.
int64_t EchoedTotalNs(
    const colgraph::StatusOr<colgraph::server::Response>& response);

/// Per-layer metrics of traced query requests: medians of the layer spans
/// of every request with a `request` root, counts averaged over `outs`.
/// The server.* metrics are set only when the requests went over the wire.
void ReportQueryLayers(const std::vector<RequestView>& views,
                       const std::vector<ReplicaOut>& outs, Report* report);

/// `n` distinct uniform path queries of the fig6 shape (15..40 edges).
std::vector<GraphQuery> UniformQueries(const Collection& collection,
                                       uint64_t seed, size_t n);

// --- Workloads. ---

void RunServeMatch(const Args& args, Report* report);
void RunServeAggZipf(const Args& args, Report* report);
void RunServeIngest(const Args& args, Report* report);
void RunBatchFetch(const Args& args, Report* report);

}  // namespace perfbench
