#include "server/daemon.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "workload/trace_loader.h"

namespace colgraph::server {

namespace {

// Serving metrics (DESIGN.md §12 / README "Metrics"): request and overload
// counters, plus the live gauges DumpMetricsJson exposes.
obs::Counter& RequestCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.requests");
  return c;
}
obs::Counter& OverloadCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.overload_rejections");
  return c;
}
obs::Counter& ConnectionCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.connections");
  return c;
}
obs::Counter& ProtocolErrorCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.protocol_errors");
  return c;
}
obs::Gauge& InFlightGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.in_flight");
  return g;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.queue_depth");
  return g;
}
// Storage shape of the *served* snapshot (DESIGN.md §15): set at every
// publish so the exporter and STATS responses show how fragmented the
// tail is and how much the daemon currently serves.
obs::Gauge& TailDatasetsGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.tail_datasets");
  return g;
}
obs::Gauge& TotalRecordsGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.total_records");
  return g;
}
/// RAII +1/-1 on a gauge.
class GaugeScope {
 public:
  explicit GaugeScope(obs::Gauge* gauge) : gauge_(gauge) { gauge_->Add(1); }
  ~GaugeScope() { gauge_->Add(-1); }
  GaugeScope(const GaugeScope&) = delete;
  GaugeScope& operator=(const GaugeScope&) = delete;

 private:
  obs::Gauge* gauge_;
};

// Writes a count's decimal form straight into the response body, with no
// temporary string per number.
void AppendCount(std::string* out, size_t n) {
  char buffer[24];
  out->append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), n).ptr);
}

#ifdef __SIZEOF_INT128__
// "00", "01", ..., "99": two digits per table load.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (size_t i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

// Writes `v` < 10^8 as exactly eight digits, leading zeros included.
void WriteEightDigits(uint32_t v, char* out) {
  for (size_t i = 8; i > 0; i -= 2) {
    const uint32_t q = v / 100;
    std::memcpy(out + i - 2, &kDigitPairs[2 * (v - q * 100)], 2);
    v = q;
  }
}

// 5^s for s in [0, 20]; 5^20 < 2^47, so a 53-bit significand times any of
// them fits in 100 bits.
constexpr std::array<uint64_t, 21> kPow5 = [] {
  std::array<uint64_t, 21> pow{};
  pow[0] = 1;
  for (size_t s = 1; s < pow.size(); ++s) pow[s] = pow[s - 1] * 5;
  return pow;
}();

// 10^j for j in [-4, 16], at index j + 4. The positive powers are exact.
// Each negative one is the double just above the real 10^j, so for a
// double a, `a >= kPow10[j + 4]` holds exactly when a >= 10^j.
constexpr double kPow10[] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0,  1e1,  1e2,
                             1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,
                             1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16};

constexpr uint64_t kTenTo8 = 100000000;
constexpr uint64_t kTenTo16 = kTenTo8 * kTenTo8;
#endif  // __SIZEOF_INT128__

}  // namespace

#ifdef __SIZEOF_INT128__
// "%.17g" of a normal |v| in [1e-4, 1e16) is its 17 correctly rounded
// significant digits in fixed notation, less trailing fractional zeros and
// a bare point. Ties are left to to_chars, which rounds them half to even.
char* WriteFixed17g(char* out, double v) {
  const double a = std::fabs(v);
  // NaN fails both comparisons; zero, subnormals and infinities fall out.
  if (!(a >= kPow10[0] && a < kPow10[20])) return nullptr;
  uint64_t bits = 0;
  std::memcpy(&bits, &a, sizeof(bits));
  // a = m * 2^e2 with m the 53-bit significand.
  const int e2 = static_cast<int>(bits >> 52) - 1075;
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  // k = floor(log10 a): floor((e2 + 52) * log10 2) is k or k - 1, and one
  // comparison with 10^(k+1) settles which. The range keeps k in [-4, 15].
  int k = ((e2 + 52) * 78913) >> 18;
  if (a >= kPow10[static_cast<size_t>(k + 5)]) ++k;
  // digits = round(a * 10^s), s = 16 - k: m * 5^s * 2^(e2 + s), exactly.
  const int s = 16 - k;
  const unsigned __int128 product =
      static_cast<unsigned __int128>(m) * kPow5[static_cast<size_t>(s)];
  const int shift = e2 + s;
  uint64_t digits = 0;
  if (shift >= 0) {
    digits = static_cast<uint64_t>(product << shift);
  } else {
    const unsigned __int128 one = 1;
    const int right = -shift;
    const unsigned __int128 rem = product & ((one << right) - 1);
    const unsigned __int128 half = one << (right - 1);
    if (rem == half) return nullptr;
    digits = static_cast<uint64_t>(product >> right) + (rem > half ? 1 : 0);
  }
  // Other than 17 digits would mean k was misestimated, or a rounding
  // carry that no double in the range has.
  if (digits < kTenTo16 || digits >= 10 * kTenTo16) return nullptr;

  char d[17];
  d[0] = static_cast<char>('0' + digits / kTenTo16);
  WriteEightDigits(static_cast<uint32_t>(digits / kTenTo8 % kTenTo8), d + 1);
  WriteEightDigits(static_cast<uint32_t>(digits % kTenTo8), d + 9);
  // Fixed notation: "0." and -k-1 zeros before the digits when k < 0, else
  // the point after the (k+1)th digit. Every write stays within the 23
  // bytes of a sign, "0.000" and 17 digits.
  if (v < 0) *out++ = '-';
  if (k < 0) {
    std::memcpy(out, "0.000", 5);  // the digits overwrite any extra zero
    out += 1 - k;
    std::memcpy(out, d, 17);
    out += 17;
  } else {
    const size_t whole = static_cast<size_t>(k) + 1;
    std::memcpy(out, d, 16);  // the point and the fraction overwrite the rest
    out[whole] = '.';
    std::memcpy(out + whole + 1, d + whole, 17 - whole);
    out += 18;
  }
  // Trailing fractional zeros go, then a bare point; d[0] is never '0'.
  while (out[-1] == '0') --out;
  if (out[-1] == '.') --out;
  return out;
}
#else
char* WriteFixed17g(char* /*out*/, double /*v*/) { return nullptr; }
#endif  // __SIZEOF_INT128__

char* WriteValue17g(char* out, double v) {
  if (char* end = WriteFixed17g(out, v); end != nullptr) return end;
  // to_chars in general format at precision 17 writes the bytes of "%.17g".
  const std::to_chars_result written = std::to_chars(
      out, out + kMaxValueChars, v, std::chars_format::general, 17);
  COLGRAPH_DCHECK(written.ec == std::errc{});
  return written.ptr;
}

std::string RenderMatchResult(const Bitmap& matches) {
  const size_t count = matches.Count();
  // " r" and at most as many digits as the record count, per match.
  const size_t per_match = 2 + std::to_string(matches.size()).size();
  std::string out;
  out.reserve(32 + count * per_match);
  out += "match ";
  AppendCount(&out, count);
  out += ':';
  // Room for every match at its longest, then one cursor writes them all
  // and the body is cut back to what was written.
  const size_t start = out.size();
  out.resize(start + count * per_match);
  char* cursor = out.data() + start;
  char* const end = out.data() + out.size();
  matches.ForEachSetBit([&](size_t r) {
    *cursor++ = ' ';
    *cursor++ = 'r';
    const std::to_chars_result written = std::to_chars(cursor, end, r);
    COLGRAPH_DCHECK(written.ec == std::errc{});
    cursor = written.ptr;
  });
  out.resize(static_cast<size_t>(cursor - out.data()));
  out += '\n';
  return out;
}

std::string RenderAggResult(const PathAggResult& result, AggFn fn) {
  size_t values = 0;
  for (const std::vector<double>& path_values : result.values) {
    values += path_values.size();
  }
  std::string out;
  out.reserve(64 + result.paths.size() * 64 + values * (1 + kMaxValueChars));
  out += AggFnName(fn);
  out += " over ";
  AppendCount(&out, result.records.size());
  out += " record(s), ";
  AppendCount(&out, result.paths.size());
  out += " path(s)\n";
  for (size_t p = 0; p < result.paths.size(); ++p) {
    out += "path ";
    out += result.paths[p].ToString();
    out += ':';
    // Room for every value of the path at its longest, then one cursor
    // writes them all and the body is cut back to what was written.
    const size_t start = out.size();
    out.resize(start + result.values[p].size() * (1 + kMaxValueChars));
    char* cursor = out.data() + start;
    for (const double v : result.values[p]) {
      *cursor++ = ' ';
      cursor = WriteValue17g(cursor, v);
    }
    out.resize(static_cast<size_t>(cursor - out.data()));
    out += '\n';
  }
  return out;
}

StatusOr<std::unique_ptr<Daemon>> Daemon::Start(
    std::shared_ptr<const ColGraphEngine> initial, DaemonOptions options) {
  if (initial == nullptr) {
    return Status::InvalidArgument("colgraphd needs an initial engine");
  }
  if (!initial->relation().sealed()) {
    return Status::InvalidArgument(
        "colgraphd serves sealed engines; Seal() the initial snapshot");
  }
  if (options.num_workers == 0) {
    return Status::InvalidArgument("colgraphd needs at least one worker");
  }

  // Durable dataset directory: open it (sweeping any crash debris) and
  // re-attach its live datasets behind the initial snapshot, so records
  // sealed by a previous run survive the restart.
  std::unique_ptr<DatasetStore> store;
  if (!options.data_dir.empty()) {
    DatasetStore::Options store_options;
    store_options.relation = initial->options().relation;
    COLGRAPH_ASSIGN_OR_RETURN(
        DatasetStore opened,
        DatasetStore::Open(options.data_dir, store_options));
    store = std::make_unique<DatasetStore>(std::move(opened));
    if (store->num_datasets() > 0) {
      ColGraphEngine restored = initial->SharedCopy();
      for (size_t i = 0; i < store->num_datasets(); ++i) {
        COLGRAPH_ASSIGN_OR_RETURN(MasterRelation dataset, store->Load(i));
        // The data dir keeps no edge catalog: a dataset whose edges an
        // ingest added to the catalog would be served under whatever
        // those ids name in this run's catalog, and the next ingest would
        // reuse them for other edges. Refuse such a restart.
        if (dataset.num_edge_columns() > initial->catalog().size()) {
          return Status::NotSupported(
              "dataset " + store->PathFor(store->dataset_names()[i]) +
              " has " + std::to_string(dataset.num_edge_columns()) +
              " edge columns but the initial engine's catalog names " +
              std::to_string(initial->catalog().size()) +
              " edges; edges added by ingest are not persisted, so this "
              "restart would serve them under the wrong ids");
        }
        COLGRAPH_ASSIGN_OR_RETURN(
            MasterRelation tail,
            restored.BuildTailRelation(std::move(dataset)));
        COLGRAPH_RETURN_NOT_OK(restored.AttachDataset(
            std::make_shared<const MasterRelation>(std::move(tail))));
      }
      initial = std::make_shared<const ColGraphEngine>(std::move(restored));
    }
  }

  COLGRAPH_ASSIGN_OR_RETURN(
      UnixListener listener,
      UnixListener::Bind(options.socket_path,
                         static_cast<int>(options.max_queued_connections)));
  std::unique_ptr<Daemon> daemon(new Daemon(
      std::move(options), std::move(initial), std::move(listener)));
  if (store != nullptr) {
    const MutexLock writer_lock(daemon->writer_mu_);
    daemon->store_ = std::move(store);
    // Restored tails count as compacted: the first cycle's run starts with
    // the tails this run ingests.
    daemon->compacted_tails_ = daemon->snapshots_.Acquire()->tails().size();
  }

  // Telemetry sinks (DESIGN.md §15). The slow-query log must open or the
  // daemon refuses to start — silently serving without the capture the
  // operator asked for is worse than failing fast. The Daemon destructor
  // drains cleanly if either Open fails here.
  if (!daemon->options_.slow_query_log.path.empty()) {
    COLGRAPH_ASSIGN_OR_RETURN(
        daemon->slow_log_,
        obs::SlowQueryLog::Open(daemon->options_.slow_query_log));
  }
  if (!daemon->options_.metrics_dir.empty()) {
    obs::MetricsExporterOptions exporter_options;
    exporter_options.dir = daemon->options_.metrics_dir;
    exporter_options.period_ms = daemon->options_.metrics_period_ms;
    // Export what a STATS request would answer: the *served* snapshot's
    // DumpMetricsJson (engine + registry), not the bare registry.
    Daemon* raw = daemon.get();
    exporter_options.source = [raw] {
      return raw->snapshots_.Acquire()->DumpMetricsJson();
    };
    COLGRAPH_ASSIGN_OR_RETURN(
        daemon->exporter_,
        obs::MetricsExporter::Start(std::move(exporter_options)));
  }
  return daemon;
}

Daemon::Daemon(DaemonOptions options,
               std::shared_ptr<const ColGraphEngine> initial,
               UnixListener listener)
    : options_(std::move(options)),
      snapshots_(std::move(initial)),
      admission_(options_.max_in_flight),
      listener_(std::move(listener)),
      conn_pool_(std::make_unique<ThreadPool>(options_.num_workers)),
      accept_pool_(std::make_unique<ThreadPool>(1)) {
  // Register the serving gauges now so a kStats response (and any metrics
  // dump) lists them at zero before the first request arrives.
  InFlightGauge();
  QueueDepthGauge();
  {
    const std::shared_ptr<const ColGraphEngine> snapshot =
        snapshots_.Acquire();
    TailDatasetsGauge().Set(static_cast<int64_t>(snapshot->tails().size()));
    TotalRecordsGauge().Set(
        static_cast<int64_t>(snapshot->total_records()));
  }
  accept_pool_->Schedule([this] { AcceptLoop(); });
}

Daemon::~Daemon() {
  const Status s = Drain();
  if (!s.ok()) {
    std::fprintf(stderr, "colgraphd: drain failed: %s\n",
                 s.ToString().c_str());
  }
}

Status Daemon::Drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    // Another caller is (or was) draining; tick until its result lands.
    for (;;) {
      {
        const MutexLock lock(drain_mu_);
        if (drained_) return drain_status_;
      }
      SleepMs(options_.poll_tick_ms);
    }
  }

  // 1. Join the accept loop (it exits on its next poll tick), then close
  //    the listener so the socket file disappears — new connects now fail
  //    fast with UNAVAILABLE at the OS level.
  accept_pool_.reset();
  listener_.Close();

  // 2. Join the connection workers. In-flight requests run to completion;
  //    idle connections notice draining_ on their next tick and close;
  //    queued handlers start, observe draining_, and refuse politely.
  conn_pool_.reset();

  // 3. Flush and close the query log — after this the capture file is
  //    complete and replayable. The log is shared by every published
  //    snapshot (engine copies share the sink), so closing it once here
  //    covers all epochs.
  Status status = Status::OK();
  const std::shared_ptr<const ColGraphEngine> snapshot = snapshots_.Acquire();
  if (snapshot->query_log() != nullptr) {
    status = snapshot->query_log()->Close();
  }

  // 4. Stop telemetry: the exporter writes one final document (so the
  //    last interval's counters land on disk), then the slow-query log is
  //    completed with its footer. Close errors surface through the drain
  //    status like the query log's.
  if (exporter_ != nullptr) exporter_->Stop();
  if (slow_log_ != nullptr) {
    const Status slow = slow_log_->Close();
    if (status.ok()) status = slow;
  }

  {
    const MutexLock lock(drain_mu_);
    drained_ = true;
    drain_status_ = status;
  }
  return status;
}

void Daemon::AcceptLoop() {
  while (!draining()) {
    StatusOr<UnixSocket> accepted = listener_.Accept(options_.poll_tick_ms);
    if (!accepted.ok()) {
      if (accepted.status().IsDeadlineExceeded()) continue;  // stop-flag tick
      if (draining()) break;
      std::fprintf(stderr, "colgraphd: accept failed: %s\n",
                   accepted.status().ToString().c_str());
      SleepMs(options_.poll_tick_ms);
      continue;
    }
    ConnectionCounter().Increment();

    // Bounded handler queue: beyond the cap, shed load at the front door
    // with the retryable overload status instead of queueing invisibly.
    const size_t queued =
        queued_connections_.fetch_add(1, std::memory_order_acq_rel);
    if (queued >= options_.max_queued_connections) {
      queued_connections_.fetch_sub(1, std::memory_order_acq_rel);
      OverloadCounter().Increment();
      Response overload = ErrorResponse(Status::ResourceExhausted(
          "connection rejected: " +
          std::to_string(options_.max_queued_connections) +
          " connections already queued (retry with backoff)"));
      std::vector<char> frame;
      AppendResponseFrame(overload, &frame);
      UnixSocket socket = std::move(accepted).value();
      (void)socket.WriteAll(frame.data(), frame.size(),
                            options_.io_timeout_ms);
      continue;  // socket closes on scope exit
    }
    QueueDepthGauge().Add(1);

    // shared_ptr: std::function requires a copyable callable, and the
    // socket must survive until the (single) invocation runs.
    auto socket =
        std::make_shared<UnixSocket>(std::move(accepted).value());
    const uint64_t enqueued_us = obs::NowMicros();
    conn_pool_->Schedule([this, socket, enqueued_us]() mutable {
      queued_connections_.fetch_sub(1, std::memory_order_acq_rel);
      QueueDepthGauge().Add(-1);
      // The accept queue is timed across threads, so no Span scope exists:
      // the wait is measured here, recorded into its phase's histogram and
      // carried into the first request's trace by ReadRequest.
      const uint64_t dequeued_us = obs::NowMicros();
      const uint64_t wait_us =
          dequeued_us >= enqueued_us ? dequeued_us - enqueued_us : 0;
      obs::PhaseHistogram(obs::Phase::kQueueWait).Record(wait_us);
      HandleConnection(std::move(*socket), wait_us);
    });
  }
}

Status Daemon::ReadRequest(UnixSocket* socket, Request* request,
                           Response* error_response, bool* fatal_out,
                           obs::RequestContext* ctx,
                           uint64_t* pending_queue_wait_us) {
  *fatal_out = false;

  // Idle phase: wait for the first header byte in short ticks so a drain
  // interrupts keep-alive connections promptly. No idle cap — a client may
  // hold a connection open as long as the daemon is serving.
  for (;;) {
    if (draining()) return Status::Unavailable("server draining");
    const Status ready = socket->WaitReadable(options_.poll_tick_ms);
    if (ready.ok()) break;
    if (!ready.IsDeadlineExceeded()) return ready;
  }

  // The request begins now: re-anchor the context so keep-alive idle time
  // is excluded, then let the first request on the connection absorb the
  // accept-queue wait (already counted in the histogram by AcceptLoop).
  ctx->MarkStart();
  if (*pending_queue_wait_us > 0) {
    ctx->trace().Add(obs::Phase::kQueueWait, 0, *pending_queue_wait_us);
    *pending_queue_wait_us = 0;
  }
  const obs::Span decode_span(obs::Phase::kDecode, &ctx->trace());

  // Framed phase: once bytes start flowing the peer must complete the
  // frame within the IO budget or be dropped (hung-client defense).
  char header_bytes[kFrameHeaderBytes];
  COLGRAPH_RETURN_NOT_OK(socket->ReadFull(header_bytes, kFrameHeaderBytes,
                                          options_.io_timeout_ms));
  FrameHeader header;
  Status s = DecodeFrameHeader(header_bytes, &header);
  if (s.ok() && header.type != kRequestFrame) {
    s = Status::InvalidArgument("protocol: expected a request frame");
  }
  if (!s.ok()) {
    // The stream is desynchronized — answer, then hang up.
    ProtocolErrorCounter().Increment();
    *error_response = ErrorResponse(s);
    *fatal_out = true;
    return Status::OK();
  }

  std::vector<char> payload(header.payload_len);
  COLGRAPH_RETURN_NOT_OK(
      socket->ReadFull(payload.data(), payload.size(),
                       options_.io_timeout_ms));
  s = VerifyFrameCrc(header, payload.data(), payload.size());
  if (s.ok()) {
    StatusOr<Request> decoded =
        DecodeRequestPayload(payload.data(), payload.size());
    if (decoded.ok()) {
      *request = std::move(decoded).value();
      if (request->has_context) {
        ctx->AdoptWireContext(request->context.request_id,
                              request->context.trace());
      }
      return Status::OK();
    }
    s = decoded.status();
  }
  ProtocolErrorCounter().Increment();
  *error_response = ErrorResponse(s);
  *fatal_out = true;
  return Status::OK();
}

void Daemon::HandleConnection(UnixSocket socket, uint64_t queue_wait_us) {
  for (;;) {
    Request request;
    Response response;
    bool fatal = false;
    obs::RequestContext ctx;
    const Status read = ReadRequest(&socket, &request, &response, &fatal,
                                    &ctx, &queue_wait_us);
    if (!read.ok()) {
      // Clean disconnect (Unavailable), hung peer (DeadlineExceeded), or
      // torn frame (IOError): nothing to answer, drop the connection.
      return;
    }
    if (!fatal) response = ExecuteWithContext(request, &ctx);

    std::vector<char> frame;
    {
      const obs::Span encode_span(obs::Phase::kEncode, &ctx.trace());
      if (!fatal) MaybeEchoTrace(request, ctx, &response);
      AppendResponseFrame(response, &frame);
    }
    Status written;
    {
      const obs::Span write_span(obs::Phase::kWrite, &ctx.trace());
      written =
          socket.WriteAll(frame.data(), frame.size(), options_.io_timeout_ms);
    }
    // Capture after the write so the record's total covers the full
    // server-side lifetime. The echoed trace (rendered before the encode
    // span closed) necessarily lacks the encode/write events; the
    // slow-query record has them.
    if (!fatal) MaybeCaptureSlowQuery(request, &ctx, response);
    if (!written.ok() || fatal) return;
  }
}

Response Daemon::ErrorResponse(const Status& status) const {
  Response response;
  response.code = WireCodeFromStatus(status);
  response.snapshot_epoch = snapshots_.epoch();
  response.body = status.message();
  return response;
}

Response Daemon::Execute(const Request& request) {
  // Direct (in-process) callers get the same finalize the socket path
  // performs itself: trace echo and slow-query capture, minus the
  // encode/write phases that only exist on a real connection.
  obs::RequestContext ctx;
  if (request.has_context) {
    ctx.AdoptWireContext(request.context.request_id,
                         request.context.trace());
  }
  Response response = ExecuteWithContext(request, &ctx);
  MaybeEchoTrace(request, ctx, &response);
  MaybeCaptureSlowQuery(request, &ctx, response);
  return response;
}

Response Daemon::ExecuteWithContext(const Request& request,
                                    obs::RequestContext* ctx) {
  RequestCounter().Increment();
  if (ctx->request_id() == 0) {
    // Old-protocol client (no wire context): assign a daemon-local id so
    // the trace record and any slow-query capture stay keyed.
    ctx->set_request_id(request_seq_.fetch_add(1, std::memory_order_relaxed) +
                        1);
  }
  if (draining()) {
    return ErrorResponse(
        Status::Unavailable("server draining; no new requests"));
  }

  // The admission span closes as soon as the slot outcome is known; the
  // slot itself stays held for the whole execution.
  auto admission_span =
      std::make_unique<const obs::Span>(obs::Phase::kAdmission, &ctx->trace());
  const AdmissionSlot slot(&admission_, "request");
  admission_span.reset();
  if (!slot.admitted()) {
    OverloadCounter().Increment();
    return ErrorResponse(slot.status());
  }
  const GaugeScope in_flight(&InFlightGauge());

  CancellationToken token;
  const uint64_t timeout_ms = request.timeout_ms > 0
                                  ? request.timeout_ms
                                  : options_.default_timeout_ms;
  if (timeout_ms > 0) token.SetTimeout(timeout_ms);
  if (options_.test_delay_before_execute_ms > 0) {
    SleepMs(options_.test_delay_before_execute_ms);
  }
  if (const Status pre = token.Check(); !pre.ok()) {
    return ErrorResponse(pre);
  }

  const obs::Span evaluate_span(obs::Phase::kEvaluate, &ctx->trace());
  switch (request.op) {
    case RequestOp::kPing: {
      Response response;
      response.snapshot_epoch = snapshots_.epoch();
      response.body = "pong";
      return response;
    }
    case RequestOp::kStats: {
      Response response;
      const std::shared_ptr<const ColGraphEngine> engine =
          snapshots_.Acquire(&response.snapshot_epoch);
      // Body selects the document (old clients send an empty body and get
      // the full dump, unchanged): "registry" returns just the process
      // registry — cheap enough for `stats --watch` to poll every second.
      if (request.body == "registry") {
        response.body = obs::MetricsRegistry::Global().ToJson();
      } else if (request.body.empty() || request.body == "full") {
        response.body = engine->DumpMetricsJson();
      } else {
        return ErrorResponse(Status::InvalidArgument(
            "unknown stats selector: " + request.body +
            " (expected empty, \"full\", or \"registry\")"));
      }
      return response;
    }
    case RequestOp::kQuery:
      return ExecuteQuery(request, token, ctx);
    case RequestOp::kIngest: {
      StatusOr<Response> response = Ingest(request.body);
      if (!response.ok()) return ErrorResponse(response.status());
      return std::move(response).value();
    }
  }
  return ErrorResponse(Status::Internal("unreachable request op"));
}

void Daemon::MaybeEchoTrace(const Request& request,
                            const obs::RequestContext& ctx,
                            Response* response) const {
  if (!request.has_context || !request.context.trace()) return;
  response->has_trace = true;
  response->request_id = ctx.request_id();
  response->trace_json = ctx.ToJson(response->snapshot_epoch);
}

void Daemon::MaybeCaptureSlowQuery(const Request& request,
                                   obs::RequestContext* ctx,
                                   const Response& response) {
  if (slow_log_ == nullptr) return;
  const uint64_t total_us = ctx->ElapsedUs();
  bool sampled = false;
  if (!slow_log_->AdmitForCapture(total_us, &sampled)) return;

  obs::SlowQueryRecord record;
  record.request_id = ctx->request_id();
  record.snapshot_epoch = response.snapshot_epoch;
  record.total_us = total_us;
  record.wire_code = response.code;
  record.op = static_cast<uint8_t>(request.op);
  record.sampled = sampled;
  record.query = request.body;  // Append truncates to the cap
  for (const obs::TraceEvent& event : ctx->trace().events()) {
    record.spans.push_back(obs::SlowQuerySpan{
        obs::PhaseName(event.phase), event.start_us, event.duration_us});
  }
  slow_log_->Append(record);
}

Response Daemon::ExecuteQuery(const Request& request,
                              const CancellationToken& token,
                              obs::RequestContext* ctx) {
  const StatusOr<ParsedQuery> parsed = ParseQuery(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  Response response;
  const std::shared_ptr<const ColGraphEngine> engine =
      snapshots_.Acquire(&response.snapshot_epoch);

  QueryOptions query_options;
  query_options.cancel = &token;
  // The engine's phase spans land in the same trace as the server phases,
  // so one record shows the whole request (the end-to-end join).
  query_options.trace = &ctx->trace();

  if (parsed->kind == ParsedQuery::Kind::kMatch) {
    const Bitmap matches =
        parsed->expr->Evaluate(engine->query_engine(), query_options);
    // Boolean-expression evaluation returns a plain bitmap (no status
    // channel), so the deadline is enforced at the evaluation boundary.
    if (const Status post = token.Check(); !post.ok()) {
      return ErrorResponse(post);
    }
    response.body = RenderMatchResult(matches);
    return response;
  }

  const StatusOr<PathAggResult> result =
      engine->RunAggregateQuery(parsed->query, parsed->fn, query_options);
  if (!result.ok()) return ErrorResponse(result.status());
  response.body = RenderAggResult(*result, parsed->fn);
  return response;
}

StatusOr<Response> Daemon::Ingest(const std::string& trace_text) {
  // Parsing and flattening depend on the body alone, so they run before
  // the writer lock and concurrent ingests parse in parallel.
  COLGRAPH_ASSIGN_OR_RETURN(const std::vector<WalkTrace> traces,
                            ParseTraces(trace_text));
  if (traces.empty()) {
    return Status::InvalidArgument("ingest body contains no trace records");
  }
  std::vector<GraphRecord> records;
  records.reserve(traces.size());
  for (const WalkTrace& trace : traces) {
    COLGRAPH_ASSIGN_OR_RETURN(GraphRecord record,
                              WalkToRecord(trace.walk, trace.measures));
    records.push_back(std::move(record));
  }

  // Single writer: ingests serialize here. Readers never wait — they keep
  // evaluating against the previous snapshot until the publish below.
  const MutexLock writer_lock(writer_mu_);
  const std::shared_ptr<const ColGraphEngine> base = snapshots_.Acquire();
  // Append-a-dataset ingest (DESIGN.md §14): the batch becomes a small
  // sealed tail relation; the primary relation is *shared* with the served
  // snapshot, not copied. A failure anywhere below leaves the served
  // snapshot untouched.
  ColGraphEngine next = base->SharedCopy();
  COLGRAPH_ASSIGN_OR_RETURN(MasterRelation tail,
                            next.BuildTailRelation(records));
  if (store_ != nullptr) {
    // Durability before visibility: the dataset file is sealed (and the
    // manifest rewritten) before any reader can observe the records.
    COLGRAPH_RETURN_NOT_OK(store_->Seal(tail).status());
  }
  COLGRAPH_RETURN_NOT_OK(next.AttachDataset(
      std::make_shared<const MasterRelation>(std::move(tail))));

  const size_t total = next.total_records();
  const size_t num_tails = next.tails().size();
  COLGRAPH_RETURN_NOT_OK(snapshots_.Publish(
      std::make_shared<const ColGraphEngine>(std::move(next))));
  TailDatasetsGauge().Set(static_cast<int64_t>(num_tails));
  TotalRecordsGauge().Set(static_cast<int64_t>(total));

  // Background compaction: once enough small datasets pile up, merge them
  // off the writer path. The flag collapses triggers so at most one task
  // is queued at a time.
  if (options_.compact_after_datasets > 0 &&
      num_tails - compacted_tails_ >= options_.compact_after_datasets &&
      !compaction_queued_.exchange(true, std::memory_order_acq_rel)) {
    conn_pool_->Schedule([this] {
      const Status status = CompactNow();
      // Unavailable is the quiet outcome: drain raced in, or another
      // process holds the compaction lock — both retry naturally.
      if (!status.ok() && !status.IsUnavailable()) {
        std::fprintf(stderr, "colgraphd: background compaction failed: %s\n",
                     status.ToString().c_str());
      }
      compaction_queued_.store(false, std::memory_order_release);
    });
  }

  Response response;
  response.snapshot_epoch = snapshots_.epoch();
  response.body = "ingested " + std::to_string(traces.size()) +
                  " record(s); " + std::to_string(total) +
                  " total; epoch " +
                  std::to_string(response.snapshot_epoch);
  return response;
}

Status Daemon::CompactNow() {
  const MutexLock writer_lock(writer_mu_);
  if (draining()) return Status::Unavailable("server draining");
  // The cycle's whole hold of the writer lock (the in-memory merge, the
  // store's write and the publish): what it costs the ingests queued
  // behind it. The store's write alone is its own phase.
  const obs::Span span(obs::Phase::kServerCompaction, nullptr);

  const std::shared_ptr<const ColGraphEngine> base = snapshots_.Acquire();
  if (base->tails().empty()) return Status::OK();
  ColGraphEngine next = base->SharedCopy();
  if (store_ == nullptr) {
    COLGRAPH_RETURN_NOT_OK(next.Compact());
  } else {
    // The newest run of tails, size-tiered: the tails ingested since the
    // last cycle plus each older tier they have outgrown; a run of one is
    // already merged. The store's datasets are the newest tails, and the
    // served tails hold their records decoded and viewed, so the run
    // merges in memory, views included, and the store writes the merge in
    // place of the run's files. If the write fails (injected crash, lock
    // contention), the manifest still references every sealed dataset and
    // the served snapshot keeps answering from them — zero records lost.
    std::vector<uint64_t> records;
    for (const auto& tail : base->tails()) {
      records.push_back(tail->num_records());
    }
    const size_t k = std::min(NewestRunToCompact(records, compacted_tails_),
                              store_->num_datasets());
    if (k < 2) return Status::OK();
    std::vector<const MasterRelation*> run;
    for (const auto& tail : std::span(base->tails()).last(k)) {
      run.push_back(tail.get());
    }
    COLGRAPH_ASSIGN_OR_RETURN(MasterRelation merged,
                              MergeRelations(run, base->options().relation));
    const auto tail = std::make_shared<const MasterRelation>(std::move(merged));
    COLGRAPH_RETURN_NOT_OK(next.ReplaceTails(k, {tail}));
    COLGRAPH_RETURN_NOT_OK(store_->ReplaceNewest(k, *tail));
  }
  const size_t total = next.total_records();
  const size_t num_tails = next.tails().size();
  COLGRAPH_RETURN_NOT_OK(snapshots_.Publish(
      std::make_shared<const ColGraphEngine>(std::move(next))));
  compacted_tails_ = num_tails;
  TailDatasetsGauge().Set(static_cast<int64_t>(num_tails));
  TotalRecordsGauge().Set(static_cast<int64_t>(total));
  return Status::OK();
}

}  // namespace colgraph::server
