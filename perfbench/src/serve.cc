// serve_match and serve_agg_zipf: closed-loop clients against an
// in-process colgraphd on a real AF_UNIX socket, plus the in-process
// replica of the daemon's query path that checks answers and, in traced
// runs, times each layer.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "bitmap/hybrid_bitmap.h"
#include "graph/path.h"
#include "query/parser.h"
#include "query/rewriter.h"
#include "server/client.h"
#include "server/protocol.h"
#include "util/random.h"
#include "workload/query_generator.h"

namespace perfbench {

namespace srv = colgraph::server;
using colgraph::Bitmap;
using colgraph::BitmapSource;
using colgraph::EdgeId;
using colgraph::MasterRelation;
using colgraph::MatchPlan;
using colgraph::QueryEngine;
using colgraph::QueryOptions;

uint64_t BitmapsFetched(const ColGraphEngine& engine) {
  uint64_t n = engine.relation().stats().bitmap_columns_fetched;
  for (const auto& tail : engine.tails()) n += tail->stats().bitmap_columns_fetched;
  return n;
}

uint64_t ValuesFetched(const ColGraphEngine& engine) {
  uint64_t n = engine.relation().stats().values_fetched;
  for (const auto& tail : engine.tails()) n += tail->stats().values_fetched;
  return n;
}

namespace {

size_t SourceCardinality(const MasterRelation& rel, const BitmapSource& s) {
  switch (s.kind) {
    case BitmapSource::Kind::kEdge:
      return rel.EdgeBitmapCardinality(static_cast<EdgeId>(s.index));
    case BitmapSource::Kind::kGraphView:
      return rel.GraphViewCardinality(s.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return rel.AggViewCardinality(s.index);
  }
  return 0;
}

/// The source's hybrid sidecar, or nullptr when it is plain-encoded.
const colgraph::HybridBitmap* PeekHybrid(const MasterRelation& rel,
                                         const BitmapSource& s) {
  switch (s.kind) {
    case BitmapSource::Kind::kEdge:
      return rel.PeekEdgeBitmapHybrid(static_cast<EdgeId>(s.index));
    case BitmapSource::Kind::kGraphView:
      return rel.PeekGraphViewHybrid(s.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return rel.PeekAggViewBitmapHybrid(s.index);
  }
  return nullptr;
}

}  // namespace

void ProbePlan(const ColGraphEngine& engine,
               const std::vector<EdgeId>& ids, bool agg_bitmaps,
               Tracer* tracer, ReplicaOut* out) {
  const MasterRelation& rel = engine.relation();
  if (ids.empty() ||
      std::any_of(ids.begin(), ids.end(),
                  [&](EdgeId id) { return id >= rel.num_edge_columns(); })) {
    return;  // MatchIds plans nothing here either
  }
  MatchPlan plan;
  {
    const ScopedSpan span(tracer, "query.plan", SpanKind::kProbe);
    plan = colgraph::PlanMatch(ids, &engine.views(), agg_bitmaps);
    std::sort(plan.sources.begin(), plan.sources.end(),
              [&](const BitmapSource& a, const BitmapSource& b) {
                return SourceCardinality(rel, a) < SourceCardinality(rel, b);
              });
  }
  out->plan_sources = plan.sources.size();
  for (const BitmapSource& s : plan.sources) {
    if (s.kind != BitmapSource::Kind::kEdge) ++out->plan_view_sources;
    if (const colgraph::HybridBitmap* hybrid = PeekHybrid(rel, s)) {
      ++out->hybrid_operands;
      const colgraph::HybridBitmap::ContainerStats mix = hybrid->Stats();
      out->hybrid_containers[0] += mix.arrays;
      out->hybrid_containers[1] += mix.bitsets;
      out->hybrid_containers[2] += mix.runs;
    }
  }
}

uint64_t AndBytes(const ColGraphEngine& engine, uint64_t fetched) {
  if (fetched == 0) return 0;
  const uint64_t bytes = (engine.relation().num_records() + 63) / 64 * 8;
  return 2 * bytes + 3 * bytes * (fetched - 1);
}

ReplicaOut ReplicaQuery(const ColGraphEngine& engine, uint64_t epoch,
                        const std::string& body, Tracer* tracer) {
  ReplicaOut out;
  const ScopedSpan root(tracer, "request", SpanKind::kRoot);

  // The client's encode and the daemon's frame decode.
  srv::Request request;
  request.op = srv::RequestOp::kQuery;
  request.body = body;
  std::vector<char> request_frame;
  {
    const ScopedSpan span(tracer, "server.client_encode");
    srv::AppendRequestFrame(request, &request_frame);
  }
  colgraph::StatusOr<srv::Request> decoded = colgraph::Status::OK();
  {
    const ScopedSpan span(tracer, "server.decode");
    srv::FrameHeader header;
    colgraph::Status s = srv::DecodeFrameHeader(request_frame.data(), &header);
    const char* payload = request_frame.data() + srv::kFrameHeaderBytes;
    if (s.ok()) s = srv::VerifyFrameCrc(header, payload, header.payload_len);
    decoded = s.ok() ? srv::DecodeRequestPayload(payload, header.payload_len)
                     : colgraph::StatusOr<srv::Request>(s);
  }
  if (!decoded.ok()) {
    out.body = "replica decode failed: " + decoded.status().ToString();
    return out;
  }

  srv::Response response;
  response.snapshot_epoch = epoch;
  colgraph::StatusOr<colgraph::ParsedQuery> parsed = colgraph::Status::OK();
  {
    const ScopedSpan span(tracer, "query.parse");
    parsed = colgraph::ParseQuery(decoded->body);
  }
  const QueryEngine qe = engine.query_engine();
  const QueryOptions options;  // the daemon's: views on, selectivity order
  const uint64_t primary_before = engine.relation().stats().bitmap_columns_fetched;
  if (!parsed.ok()) {
    response.code = srv::WireCodeFromStatus(parsed.status());
    response.body = parsed.status().message();
  } else if (parsed->kind == colgraph::ParsedQuery::Kind::kMatch) {
    // The workload's match requests are single paths: the daemon's
    // QueryExpr::Evaluate is then exactly Match = Resolve + MatchIds.
    Bitmap matches;
    if (parsed->expr->op() != colgraph::QueryExpr::Op::kLeaf) {
      const ScopedSpan span(tracer, "query.match");
      matches = parsed->expr->Evaluate(qe, options);
    } else {
      QueryEngine::ResolvedQuery resolved;
      {
        const ScopedSpan span(tracer, "query.resolve");
        resolved = qe.Resolve(parsed->expr->query());
      }
      if (!resolved.satisfiable) {
        matches = Bitmap(engine.total_records());
      } else {
        if (tracer != nullptr) ProbePlan(engine, resolved.ids, false, tracer, &out);
        const uint64_t before = BitmapsFetched(engine);
        {
          const ScopedSpan span(tracer, "query.match");
          matches = qe.MatchIds(resolved.ids, options, false);
        }
        out.bitmaps_fetched = BitmapsFetched(engine) - before;
      }
    }
    out.result_records = matches.Count();
    const ScopedSpan span(tracer, "server.render");
    response.body = srv::RenderMatchResult(matches);
  } else {
    const colgraph::GraphQuery& query = parsed->query;
    if (tracer != nullptr) {
      // Probes that split RunAggregateQuery: its resolve, its match (with
      // aggregate-view bitmaps offered, as it does) and its path plans.
      QueryEngine::ResolvedQuery resolved;
      {
        const ScopedSpan span(tracer, "query.resolve", SpanKind::kProbe);
        resolved = qe.Resolve(query);
      }
      if (resolved.satisfiable) {
        ProbePlan(engine, resolved.ids, true, tracer, &out);
        {
          const ScopedSpan span(tracer, "query.match", SpanKind::kProbe);
          (void)qe.MatchIds(resolved.ids, options, true);
        }
        const auto paths = colgraph::MaximalPaths(query.graph());
        std::vector<std::vector<EdgeId>> elements;
        for (const colgraph::Path& path : paths.ok() ? *paths
                                                     : std::vector<colgraph::Path>{}) {
          elements.emplace_back();
          for (const colgraph::Edge& e : path.Elements()) {
            const auto id = engine.catalog().Lookup(e);
            if (id.has_value()) elements.back().push_back(*id);
          }
        }
        const ScopedSpan span(tracer, "query.path_plan", SpanKind::kProbe);
        for (const auto& path_elements : elements) {
          (void)colgraph::PlanPathAggregation(path_elements, parsed->fn,
                                              &engine.views());
        }
      }
    }
    const uint64_t bitmaps_before = BitmapsFetched(engine);
    const uint64_t values_before = ValuesFetched(engine);
    colgraph::StatusOr<colgraph::PathAggResult> result = colgraph::Status::OK();
    {
      const ScopedSpan span(tracer, "query.run_aggregate");
      result = qe.RunAggregateQuery(query, parsed->fn, options);
    }
    out.bitmaps_fetched = BitmapsFetched(engine) - bitmaps_before;
    out.values_fetched = ValuesFetched(engine) - values_before;
    if (!result.ok()) {
      response.code = srv::WireCodeFromStatus(result.status());
      response.body = result.status().message();
    } else {
      out.result_records = result->records.size();
      const ScopedSpan span(tracer, "server.render");
      response.body = srv::RenderAggResult(*result, parsed->fn);
    }
  }
  out.and_bytes =
      AndBytes(engine, engine.relation().stats().bitmap_columns_fetched - primary_before);

  // The daemon's response encode and the client's decode.
  std::vector<char> response_frame;
  {
    const ScopedSpan span(tracer, "server.encode");
    srv::AppendResponseFrame(response, &response_frame);
  }
  out.response_bytes = response_frame.size();
  {
    const ScopedSpan span(tracer, "server.client_decode");
    srv::FrameHeader header;
    colgraph::Status s = srv::DecodeFrameHeader(response_frame.data(), &header);
    const char* payload = response_frame.data() + srv::kFrameHeaderBytes;
    if (s.ok()) s = srv::VerifyFrameCrc(header, payload, header.payload_len);
    colgraph::StatusOr<srv::Response> back =
        s.ok() ? srv::DecodeResponsePayload(payload, header.payload_len)
               : colgraph::StatusOr<srv::Response>(s);
    out.body = back.ok() ? std::move(back->body)
                         : "replica response decode failed: " + back.status().ToString();
  }
  return out;
}

std::vector<GraphQuery> UniformQueries(const Collection& collection,
                                       uint64_t seed, size_t n) {
  colgraph::QueryGenerator qgen(&collection.trunks, &collection.universe, seed);
  colgraph::QueryGenOptions options;
  options.min_edges = 15;
  options.max_edges = 40;
  // Most trunks are shorter than the drawn length, so the generator often
  // returns a whole trunk and repeats itself; keep the first n distinct.
  std::vector<GraphQuery> queries;
  std::set<std::string> seen;
  for (size_t draws = 0; queries.size() < n; ++draws) {
    if (draws == 50 * n) {
      std::fprintf(stderr, "perfbench: fewer than %zu distinct queries\n", n);
      std::exit(3);
    }
    GraphQuery q = qgen.UniformPathQuery(options);
    if (seen.insert(PathText(q)).second) queries.push_back(std::move(q));
  }
  return queries;
}

Served SetUpServed(const Collection& collection,
                   const std::vector<GraphQuery>& training, ViewKind kind,
                   const srv::DaemonOptions& options, int repeats, bool traced,
                   Report* report) {
  std::vector<SetupClock> clocks;
  Served served;
  for (int r = 0; r < repeats; ++r) {
    served = Served();  // drains and drops the previous repetition
    TrimHeap();
    SetupClock clock;
    std::shared_ptr<ColGraphEngine> engine =
        IngestCollection(collection, colgraph::EngineOptions(), &clock);
    MaterializeViews(engine.get(), training, kind, traced, &clock);
    const int64_t t0 = NowNs();
    auto daemon = srv::Daemon::Start(engine, options);
    clock.start_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!daemon.ok()) {
      std::fprintf(stderr, "perfbench: Daemon::Start: %s\n",
                   daemon.status().ToString().c_str());
      std::exit(3);
    }
    served.engine = std::move(engine);
    served.daemon = std::move(daemon).value();
    clocks.push_back(clock);
  }
  ReportSetup(clocks, report);
  return served;
}

void RequestTrace(srv::Request* request, uint64_t id) {
  request->has_context = true;
  request->context.request_id = id;
  request->context.flags = srv::kContextFlagTrace;
}

int64_t EchoedTotalNs(const colgraph::StatusOr<srv::Response>& response) {
  if (!response.ok() || !response->has_trace) return -1;
  const std::string& json = response->trace_json;
  const std::string key = "\"total_us\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return static_cast<int64_t>(std::strtoull(json.c_str() + at + key.size(), nullptr, 10)) * 1000;
}

TracedRequest TraceRequest(const ColGraphEngine& engine, uint64_t epoch,
                           const std::string& body, uint64_t id,
                           srv::Client* client) {
  TracedRequest t;
  Tracer replicas[2];
  ReplicaOut outs[2];
  for (int k = 0; k < 2; ++k) {
    replicas[k].BeginRequest(id);
    outs[k] = ReplicaQuery(engine, epoch, body, &replicas[k]);
  }
  const int best = RootNs(replicas[1]) < RootNs(replicas[0]) ? 1 : 0;
  t.spans = std::move(replicas[best]);
  t.out = std::move(outs[best]);
  if (outs[1 - best].body != t.out.body) t.out.body = "replica bodies differ";

  srv::Request request;
  request.op = srv::RequestOp::kQuery;
  request.body = body;
  RequestTrace(&request, id);
  t.spans.BeginRequest(id);
  const int64_t cpu0 = ThreadCpuNs();
  const size_t span = t.spans.Begin("round_trip", SpanKind::kWire);
  t.response = client->Call(request);
  t.spans.End(span);
  t.client_cpu_ns = ThreadCpuNs() - cpu0;
  t.retries = client->attempts_made() > 0 ? client->attempts_made() - 1 : 0;
  t.round_trip_ns = t.spans.spans()[span].end_ns - t.spans.spans()[span].start_ns;
  t.served_ns = EchoedTotalNs(t.response);
  return t;
}

void ReportContainerMix(const std::vector<ReplicaOut>& outs, Report* report) {
  const char* kinds[3] = {"array", "bitset", "run"};
  for (int k = 0; k < 3; ++k) {
    double total = 0;
    for (const ReplicaOut& o : outs) total += static_cast<double>(o.hybrid_containers[k]);
    report->Diag(std::string("bitmap.hybrid_") + kinds[k] + "_containers_per_op",
                 total / static_cast<double>(std::max<size_t>(outs.size(), 1)), "count");
  }
}

void ReportQueryLayers(const std::vector<RequestView>& views,
                       const std::vector<ReplicaOut>& outs, Report* report) {
  std::vector<RequestView> reads;
  for (const RequestView& v : views) {
    if (v.dur.count("request")) reads.push_back(v);
  }
  double sources = 0, view_sources = 0, hybrid = 0, bitmaps = 0, values = 0,
         records = 0, and_bytes = 0, response_bytes = 0;
  for (const ReplicaOut& o : outs) {
    sources += static_cast<double>(o.plan_sources);
    view_sources += static_cast<double>(o.plan_view_sources);
    hybrid += static_cast<double>(o.hybrid_operands);
    bitmaps += static_cast<double>(o.bitmaps_fetched);
    values += static_cast<double>(o.values_fetched);
    records += static_cast<double>(o.result_records);
    and_bytes += static_cast<double>(o.and_bytes);
    response_bytes += static_cast<double>(o.response_bytes);
  }
  const double n = static_cast<double>(std::max<size_t>(outs.size(), 1));
  const auto self = [&](const char* name) {
    return MedianUs(reads, [name](const RequestView& v) { return v.Self(name); });
  };
  const auto dur = [&](const char* name) {
    return MedianUs(reads, [name](const RequestView& v) { return v.Dur(name); });
  };
  if (!reads.empty() && reads.front().wire_ns >= 0) {
    report->Set("server.decode_us", self("server.decode"));
    report->Set("server.render_us", self("server.render"));
    report->Set("server.encode_us", self("server.encode"));
    report->Set("server.client_decode_us", self("server.client_decode"));
    report->Set("server.wire_us", MedianUs(reads, [](const RequestView& v) {
                  return v.wire_ns - v.layer_self_ns; }));
    report->Set("server.response_bytes", response_bytes / n);
    report->Set("query.parse_us", self("query.parse"));
  }
  report->Set("query.resolve_us", dur("query.resolve"));
  report->Set("query.rewrite_us", dur("query.plan"));
  report->Set("query.and_us", MedianUs(reads, [](const RequestView& v) {
                return v.Dur("query.match") - v.Dur("query.plan"); }));
  report->Set("query.plan_sources", sources / n);
  report->Set("query.plan_view_sources", view_sources / n);
  report->Set("query.bitmaps_fetched", bitmaps / n);
  report->Set("query.result_records", records / n);
  report->Set("query.values_fetched", values / n);
  report->Set("bitmap.hybrid_operand_share", sources > 0 ? hybrid / sources : 0);
  report->Set("bitmap.and_bytes", and_bytes / n);
  ReportContainerMix(outs, report);
  if (!reads.empty() && reads.front().dur.count("query.run_aggregate")) {
    report->Set("query.path_plan_us", dur("query.path_plan"));
    report->Set("query.fold_us", MedianUs(reads, [](const RequestView& v) {
                  return v.Dur("query.run_aggregate") - v.Dur("query.resolve") -
                         v.Dur("query.match") - v.Dur("query.path_plan"); }));
  }
}

namespace {

struct Expect {
  uint64_t hash = 0;
  size_t len = 0;
};

/// Request texts, back to back in one buffer. As separate heap strings
/// they would pin pages among the freed query objects of the input
/// generation, and those pages would count in rss_mb (about 3 KB per
/// serve_match request).
class Texts {
 public:
  void Add(const std::string& text) {
    buffer_ += text;
    ends_.push_back(buffer_.size());
  }
  size_t size() const { return ends_.size(); }
  std::string_view operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(buffer_).substr(begin, ends_[i] - begin);
  }

 private:
  std::string buffer_;
  std::vector<size_t> ends_;
};

/// Reference answers: each distinct request body evaluated once in
/// process on the served snapshot, outside the measured phase.
std::vector<Expect> ReferenceAnswers(const Served& served,
                                     const Texts& bodies) {
  std::unordered_map<std::string_view, size_t> index;
  std::vector<std::string> distinct;
  for (size_t i = 0; i < bodies.size(); ++i) {
    if (index.emplace(bodies[i], distinct.size()).second) distinct.emplace_back(bodies[i]);
  }
  std::vector<Expect> answers(distinct.size());
  uint64_t epoch = 0;
  const auto engine = served.daemon->snapshots().Acquire(&epoch);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < distinct.size();) {
      const ReplicaOut out = ReplicaQuery(*engine, epoch, distinct[i], nullptr);
      answers[i] = {Checksum(out.body), out.body.size()};
    }
  };
  std::thread helpers[2] = {std::thread(work), std::thread(work)};
  work();
  for (std::thread& t : helpers) t.join();
  std::vector<Expect> expect;
  expect.reserve(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) expect.push_back(answers[index.at(bodies[i])]);
  return expect;
}

struct LoopResult {
  std::vector<int64_t> done_ns;
  std::vector<double> latency_ms;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  int64_t check_ns = 0;  ///< the benchmark's answer checks, inside the loop
  std::string first_error;
};

/// Closed loop: each client sends its next request as soon as the previous
/// one returned; requests [begin, end) are handed out in order.
LoopResult ClosedLoop(std::vector<std::unique_ptr<srv::Client>>& clients,
                      const Texts& bodies,
                      const std::vector<Expect>& expect, size_t begin,
                      size_t end) {
  std::atomic<size_t> next{begin};
  std::vector<LoopResult> parts(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      LoopResult& part = parts[c];
      srv::Request request;
      request.op = srv::RequestOp::kQuery;
      for (size_t i; (i = next.fetch_add(1)) < end;) {
        request.body = bodies[i];
        const int64_t t0 = NowNs();
        const auto response = clients[c]->Call(request);
        const int64_t t1 = NowNs();
        part.retries += clients[c]->attempts_made() > 0 ? clients[c]->attempts_made() - 1 : 0;
        ++part.completed;
        std::string error;
        if (!response.ok()) {
          error = response.status().ToString();
        } else if (!response->ok()) {
          error = "error response: " + response->body;
        } else if (response->body.size() != expect[i].len ||
                   Checksum(response->body) != expect[i].hash) {
          error = "answer differs from the in-process answer for request " +
                  std::to_string(i) + ": " + std::string(bodies[i].substr(0, 80));
        }
        part.check_ns += NowNs() - t1;
        if (!error.empty()) {
          ++part.failed;
          if (part.first_error.empty()) part.first_error = error;
          continue;
        }
        part.done_ns.push_back(t1);
        part.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult all;
  for (LoopResult& p : parts) {
    all.done_ns.insert(all.done_ns.end(), p.done_ns.begin(), p.done_ns.end());
    all.latency_ms.insert(all.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    all.completed += p.completed;
    all.failed += p.failed;
    all.retries += p.retries;
    all.check_ns += p.check_ns;
    if (all.first_error.empty()) all.first_error = p.first_error;
  }
  return all;
}

constexpr int kClients = 2;

/// The untraced measured phase: warm-up, then the fixed request sequence
/// over two closed-loop connections. Reports the end-to-end metrics.
void MeasureServed(const Args& args, const Served& served,
                   const Texts& bodies, size_t warmup,
                   Report* report) {
  const std::vector<Expect> expect = ReferenceAnswers(served, bodies);
  std::vector<std::unique_ptr<srv::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    srv::ClientOptions options;
    options.socket_path = served.daemon->socket_path();
    options.jitter_seed = StreamSeed(args.seed, 100 + static_cast<uint64_t>(c));
    clients.push_back(std::make_unique<srv::Client>(options));
  }
  const LoopResult warm = ClosedLoop(clients, bodies, expect, 0, warmup);

  TrimHeap();
  ResetPeakRss();
  const uint64_t faults0 = MinorFaults();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  const LoopResult run = ClosedLoop(clients, bodies, expect, warmup, bodies.size());
  const int64_t elapsed = NowNs() - t0;
  const int64_t cpu = ProcessCpuNs() - cpu0;
  const uint64_t faults = MinorFaults() - faults0;

  report->attempted = warm.completed + run.completed;
  report->failed = warm.failed + run.failed;
  if (report->failed > 0) report->Fail(warm.first_error.empty() ? run.first_error : warm.first_error);
  const double ops = static_cast<double>(std::max<uint64_t>(run.completed, 1));
  report->Set("qps", MedianWindowRate(run.done_ns, std::max<size_t>(50, run.completed / 25)));
  report->Set("latency_p50_ms", Median(run.latency_ms));
  report->Set("cpu_ms_per_op", static_cast<double>(cpu) / 1e6 / ops);
  report->Set("rss_mb", PeakRssMb());
  report->Diag("elapsed_qps", ops / (static_cast<double>(elapsed) / 1e9), "req/s");
  report->Diag("measured_ops", ops, "count");
  report->Diag("warmup_ops", static_cast<double>(warm.completed), "count");
  report->Diag("retries", static_cast<double>(warm.retries + run.retries), "count");
  report->Diag("minor_faults_per_op", static_cast<double>(faults) / ops, "count");
  report->Diag("answer_check_us_per_op", static_cast<double>(run.check_ns) / 1e3 / ops, "us");
  TailDiagnostics("latency", run.latency_ms, report);
}

double Mean(double total, size_t n) { return n == 0 ? 0 : total / static_cast<double>(n); }

/// The traced run: one connection, requests one at a time. Each request
/// runs through TraceRequest, its body must equal the reference answer,
/// and its remainders are checked (CheckRemainders).
void TraceServed(const Args& args, const Served& served,
                 const Texts& bodies, size_t warmup,
                 Report* report) {
  const std::vector<Expect> expect = ReferenceAnswers(served, bodies);
  srv::ClientOptions client_options;
  client_options.socket_path = served.daemon->socket_path();
  client_options.jitter_seed = StreamSeed(args.seed, 100);
  srv::Client client(client_options);
  srv::Request request;
  request.op = srv::RequestOp::kQuery;
  for (size_t i = 0; i < warmup; ++i) {
    request.body = bodies[i];
    if (!client.Call(request).ok()) ++report->failed;
  }

  uint64_t epoch = 0;
  const auto engine = served.daemon->snapshots().Acquire(&epoch);
  Tracer tracer;
  std::vector<ReplicaOut> outs;
  int64_t client_cpu = 0;
  uint64_t retries = 0, failed = 0;
  std::map<uint64_t, int64_t> served_ns;
  std::vector<double> round_trip_ms;
  const uint64_t faults0 = MinorFaults();
  // The client runs on its own thread, as in the untraced run: the main
  // thread's heap grows and trims through brk, which would make the
  // replica's large allocations slower than the daemon workers' own.
  std::thread client_thread([&] {
  for (size_t i = warmup; i < bodies.size(); ++i) {
    TracedRequest t = TraceRequest(*engine, epoch, std::string(bodies[i]), i + 1, &client);
    tracer.Append(t.spans);
    client_cpu += t.client_cpu_ns;
    retries += t.retries;
    served_ns[i + 1] = t.served_ns;
    round_trip_ms.push_back(static_cast<double>(t.round_trip_ns) / 1e6);
    if (!t.response.ok() || !t.response->ok() || t.response->body != t.out.body ||
        t.out.body.size() != expect[i].len || Checksum(t.out.body) != expect[i].hash) {
      ++failed;
      report->Fail("traced request " + std::to_string(i) +
                   ": served body differs from the replica's");
    }
    outs.push_back(std::move(t.out));
  }
  });
  client_thread.join();
  const size_t n = outs.size();
  report->attempted = bodies.size();
  report->failed += failed;

  const std::vector<RequestView> views = AnalyzeSpans({&tracer}, report);
  CheckRemainders(views, served_ns, report);
  ReportQueryLayers(views, outs, report);
  report->Set("server.round_trip_p50_ms", Median(round_trip_ms));
  report->Set("server.client_cpu_ms_per_op", Mean(static_cast<double>(client_cpu) / 1e6, n));
  report->Set("server.failed_ops", static_cast<double>(failed));
  report->Set("server.retries", static_cast<double>(retries));
  std::set<std::string_view> distinct;
  for (size_t i = warmup; i < bodies.size(); ++i) distinct.insert(bodies[i]);
  report->Set("query.distinct_share", Mean(static_cast<double>(distinct.size()), n));
  report->Set("proc.minor_faults_per_op", Mean(static_cast<double>(MinorFaults() - faults0), n));
  WriteTrace(args, {&tracer}, views, *report);
}

void RunServed(const Args& args, bool aggregate, Report* report) {
  Collection collection = MakeCollection(kDatasetSeed, kRecords);
  std::vector<GraphQuery> training;
  Texts bodies;
  size_t warmup = 0;
  if (!aggregate) {
    // Uniform fig6-shaped queries; views come from a separate, fixed
    // sample, so every seed sets up the same views.
    training = UniformQueries(collection, StreamSeed(kDatasetSeed, 2), 100);
    warmup = 300;
    const size_t n = warmup + 2500 * static_cast<size_t>(args.seconds);
    for (const GraphQuery& q : UniformQueries(collection, StreamSeed(args.seed, 3), n)) {
      bodies.Add(PathText(q));
    }
  } else {
    // fig8 shape: SUM over 8..25-edge paths drawn Zipf(1.2) from a fixed
    // pool of 30 (QueryGenerator::ZipfWorkload's scheme, with the pool
    // taken from the dataset). 100 draws of a fixed sampler select the
    // views, so every seed sets up the same views; --seed draws the traffic.
    colgraph::QueryGenerator qgen(&collection.trunks, &collection.universe,
                                  StreamSeed(kDatasetSeed, 4));
    colgraph::QueryGenOptions options;
    options.min_edges = 8;
    options.max_edges = 25;
    const std::vector<GraphQuery> pool = qgen.UniformWorkload(30, options);
    colgraph::ZipfSampler training_zipf(pool.size(), 1.2, StreamSeed(kDatasetSeed, 5));
    for (size_t i = 0; i < 100; ++i) training.push_back(pool[training_zipf.Sample()]);
    colgraph::ZipfSampler zipf(pool.size(), 1.2, StreamSeed(args.seed, 4));
    warmup = 100;
    const size_t n = warmup + 1000 * static_cast<size_t>(args.seconds);
    for (size_t i = 0; i < n; ++i) bodies.Add("SUM " + PathText(pool[zipf.Sample()]));
  }

  srv::DaemonOptions options;  // the daemon's defaults, plus the socket
  options.socket_path = args.run_dir + "/d.sock";
  const Served served =
      SetUpServed(collection, training, aggregate ? ViewKind::kAggregate : ViewKind::kGraph,
                  options, args.trace ? 1 : kSetupRepeats, args.trace, report);
  report->Fact("collection_records", std::to_string(collection.size()));
  report->Fact("load", args.trace ? "1 connection: replica x2 + Client::Call per request"
                                  : "2 closed-loop Client connections");
  report->Fact("requests", std::to_string(bodies.size() - warmup) + " measured + " +
                               std::to_string(warmup) + " warm-up");
  Release(&collection);
  if (args.trace) {
    TraceServed(args, served, bodies, warmup, report);
  } else {
    MeasureServed(args, served, bodies, warmup, report);
  }
  const colgraph::Status drained = served.daemon->Drain();
  if (!drained.ok()) report->Fail("drain: " + drained.ToString());
}

}  // namespace

void RunServeMatch(const Args& args, Report* report) { RunServed(args, false, report); }
void RunServeAggZipf(const Args& args, Report* report) { RunServed(args, true, report); }

}  // namespace perfbench
