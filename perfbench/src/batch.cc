// batch_fetch: in-process EvaluateBatch (match plus FetchMeasures) of
// fig6-shaped uniform queries on the engine's pool, over repeated passes.
#include "bench.h"

namespace perfbench {

namespace {

constexpr size_t kQueries = 1000;
constexpr size_t kPassesPerSecond = 6;  // passes = this x --seconds
/// Pool workers; the caller of EvaluateBatch takes chunks too, so the batch
/// runs on 3 threads, below the 4 vCPUs of the reference machine.
constexpr size_t kWorkers = 2;

/// Chains one result table (record ids and value bits) into digest `h`.
uint64_t Digest(const colgraph::MeasureTable& t, uint64_t h) {
  h = Checksum(t.records.data(), t.records.size() * sizeof(colgraph::RecordId), h);
  for (const auto& column : t.columns) {
    h = Checksum(column.data(), column.size() * sizeof(double), h);
  }
  return h;
}

/// Digest of a batch's result tables, in order.
uint64_t Digest(const std::vector<colgraph::MeasureTable>& tables) {
  uint64_t h = 0;
  for (const colgraph::MeasureTable& t : tables) h = Digest(t, h);
  return h;
}

void Measure(const Args& args, const ColGraphEngine& engine,
             const std::vector<GraphQuery>& queries, Report* report) {
  const size_t passes = kPassesPerSecond * static_cast<size_t>(args.seconds);
  auto warm = engine.EvaluateBatch(queries);
  report->attempted = queries.size();
  if (!warm.ok()) {
    report->Fail("warm-up batch: " + warm.status().ToString());
    report->failed = queries.size();
    return;
  }
  const uint64_t reference = Digest(*warm);
  warm = colgraph::Status::OK();

  TrimHeap();
  ResetPeakRss();
  const uint64_t faults0 = MinorFaults();
  // CPU and wall time cover EvaluateBatch alone; the digest check of each
  // pass runs outside both clocks.
  int64_t cpu = 0;
  std::vector<double> pass_ms, pass_qps;
  for (size_t p = 0; p < passes; ++p) {
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    const auto result = engine.EvaluateBatch(queries);
    const int64_t t1 = NowNs();
    cpu += ProcessCpuNs() - cpu0;
    report->attempted += queries.size();
    if (!result.ok() || Digest(*result) != reference) {
      report->failed += queries.size();
      report->Fail("pass " + std::to_string(p) + " differs from the warm-up pass");
      continue;
    }
    pass_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    pass_qps.push_back(static_cast<double>(queries.size()) /
                       (static_cast<double>(t1 - t0) / 1e9));
  }
  const double ops = static_cast<double>(passes * queries.size());
  report->Set("qps", Median(pass_qps));
  report->Set("latency_p50_ms", Median(pass_ms));
  report->Set("cpu_ms_per_op", static_cast<double>(cpu) / 1e6 / ops);
  report->Set("rss_mb", PeakRssMb());
  report->Diag("passes", static_cast<double>(passes), "count");
  report->Diag("minor_faults_per_op",
               static_cast<double>(MinorFaults() - faults0) / ops, "count");
  TailDiagnostics("pass", pass_ms, report);
}

/// Traced run: every query serially through Resolve, the PlanMatch probe,
/// MatchIds and FetchMeasures, then the whole batch once in EvaluateBatch.
void Trace(const Args& args, const ColGraphEngine& engine,
           const std::vector<GraphQuery>& queries, Report* report) {
  auto warm = engine.EvaluateBatch(queries);
  if (!warm.ok()) report->Fail("warm-up batch: " + warm.status().ToString());
  const colgraph::QueryEngine qe = engine.query_engine();
  const colgraph::QueryOptions options;
  Tracer tracer;
  const uint64_t faults0 = MinorFaults();
  uint64_t serial_digest = 0;
  std::vector<ReplicaOut> outs;
  for (size_t i = 0; i < queries.size(); ++i) {
    tracer.BeginRequest(i + 1);
    const ScopedSpan root(&tracer, "request", SpanKind::kRoot);
    colgraph::QueryEngine::ResolvedQuery resolved;
    {
      const ScopedSpan span(&tracer, "query.resolve");
      resolved = qe.Resolve(queries[i]);
    }
    ReplicaOut out;
    ProbePlan(engine, resolved.ids, false, &tracer, &out);
    const uint64_t bitmaps0 = BitmapsFetched(engine);
    colgraph::Bitmap matches;
    {
      const ScopedSpan span(&tracer, "query.match");
      matches = qe.MatchIds(resolved.ids, options, false);
    }
    out.bitmaps_fetched = BitmapsFetched(engine) - bitmaps0;
    out.and_bytes = AndBytes(engine, out.bitmaps_fetched);
    out.result_records = matches.Count();
    const uint64_t values0 = ValuesFetched(engine);
    colgraph::MeasureTable table;
    {
      const ScopedSpan span(&tracer, "query.fetch");
      table = qe.FetchMeasures(matches, resolved.ids);
    }
    out.values_fetched = ValuesFetched(engine) - values0;
    serial_digest = Digest(table, serial_digest);
    outs.push_back(out);
  }
  // The same queries once more, in parallel on the pool.
  tracer.BeginRequest(0);
  size_t batch_span = 0;
  colgraph::StatusOr<std::vector<colgraph::MeasureTable>> batch = colgraph::Status::OK();
  {
    const ScopedSpan root(&tracer, "batch", SpanKind::kRoot);
    batch_span = tracer.size() - 1;
    batch = engine.EvaluateBatch(queries);
  }
  if (!batch.ok() || Digest(*batch) != serial_digest) {
    report->Fail("EvaluateBatch differs from the serial evaluation");
  }
  const SpanRec& b = tracer.spans()[batch_span];
  const double batch_ns = static_cast<double>(b.end_ns - b.start_ns);

  report->attempted = 3 * queries.size();
  const double n = static_cast<double>(queries.size());
  std::vector<RequestView> views = AnalyzeSpans({&tracer}, report);
  views.erase(views.begin());  // request 0 is the batch
  double serial_ns = 0, fetch_ns = 0, values = 0;
  for (const RequestView& v : views) {
    serial_ns += static_cast<double>(v.Dur("query.resolve") + v.Dur("query.match") +
                                     v.Dur("query.fetch"));
    fetch_ns += static_cast<double>(v.Dur("query.fetch"));
  }
  for (const ReplicaOut& o : outs) values += static_cast<double>(o.values_fetched);
  ReportQueryLayers(views, outs, report);
  report->Set("query.fetch_us", MedianUs(views, [](const RequestView& v) {
                return v.Dur("query.fetch"); }));
  report->Set("query.fetch_ns_per_value", values > 0 ? fetch_ns / values : 0);
  report->Set("query.distinct_share", 1.0 / static_cast<double>(
      kPassesPerSecond * static_cast<size_t>(args.seconds) + 1));
  report->Set("util.pool_efficiency", serial_ns / (batch_ns * (kWorkers + 1)));
  report->Set("proc.minor_faults_per_op",
              static_cast<double>(MinorFaults() - faults0) / (2 * n));
  WriteTrace(args, {&tracer}, views, *report);
}

}  // namespace

void RunBatchFetch(const Args& args, Report* report) {
  Collection collection = MakeCollection(kDatasetSeed, kRecords);
  const std::vector<GraphQuery> training =
      UniformQueries(collection, StreamSeed(kDatasetSeed, 2), 100);
  const std::vector<GraphQuery> queries =
      UniformQueries(collection, StreamSeed(args.seed, 3), kQueries);
  colgraph::EngineOptions options;
  options.num_threads = kWorkers;
  std::vector<SetupClock> clocks;
  std::shared_ptr<ColGraphEngine> engine;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    engine.reset();
    TrimHeap();
    SetupClock clock;
    engine = IngestCollection(collection, options, &clock);
    MaterializeViews(engine.get(), training, ViewKind::kGraph, args.trace, &clock);
    clocks.push_back(clock);
  }
  ReportSetup(clocks, report);
  report->Fact("collection_records", std::to_string(collection.size()));
  report->Fact("load", "EvaluateBatch of " + std::to_string(kQueries) +
                           " queries on a " + std::to_string(kWorkers) +
                           "-worker pool plus the caller");
  Release(&collection);
  if (args.trace) {
    Trace(args, *engine, queries, report);
  } else {
    Measure(args, *engine, queries, report);
  }
}

}  // namespace perfbench
