// serve_ingest: one closed-loop writer streams fixed-size trace batches
// into a durable data dir while one open-loop reader queries at a fixed
// rate; the run ends with a final CompactNow, a drain and a restart over
// the data dir.
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.h"
#include "columnstore/dataset.h"
#include "graph/flatten.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "util/random.h"
#include "workload/trace_loader.h"

namespace perfbench {

namespace srv = colgraph::server;

namespace {

constexpr size_t kWalksPerBatch = 500;
constexpr size_t kBatchesPerSecond = 6;  // batches = this x --seconds
constexpr double kReadsPerSecond = 200;  // the reader's send rate
/// Reads = this x --seconds: at 200 req/s they span about as long as the
/// write stream takes on the reference VM, and their count never depends
/// on how long the writer runs.
constexpr size_t kReadsPerRunSecond = 100;
constexpr size_t kAckWindow = 4;  // one background compaction per window
// Request-id ranges of the traced run's writer spans (reads count from 1).
constexpr uint64_t kIngestIds = uint64_t{1} << 40;
constexpr uint64_t kCompactionIds = uint64_t{2} << 40;

/// Trace batches: walks are trunks of the collection's records (paths that
/// exist in the universe), each with fresh uniform measures.
std::vector<std::string> MakeBatches(const Collection& collection,
                                     uint64_t seed, size_t batches) {
  colgraph::Rng rng(seed);
  std::vector<std::string> texts;
  char measure[32];
  for (size_t b = 0; b < batches; ++b) {
    std::string text;
    for (size_t w = 0; w < kWalksPerBatch; ++w) {
      const auto& trunk =
          collection.trunks[rng.Uniform(0, collection.trunks.size() - 1)];
      for (const colgraph::NodeRef& n : trunk) text += std::to_string(n.base) + " ";
      text += "|";
      for (size_t h = 1; h < trunk.size(); ++h) {
        std::snprintf(measure, sizeof(measure), " %.2f", rng.UniformReal(0, 100));
        text += measure;
      }
      text += "\n";
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

/// The daemon's conversion of parsed traces into records (Daemon::Ingest).
std::vector<colgraph::GraphRecord> ToRecords(
    const std::vector<colgraph::WalkTrace>& traces) {
  std::vector<colgraph::GraphRecord> records;
  records.reserve(traces.size());
  for (const colgraph::WalkTrace& trace : traces) {
    colgraph::GraphRecord record;
    record.elements = colgraph::WalkToEdges(trace.walk);
    record.measures = trace.measures;
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<colgraph::WalkTrace> Parse(const std::string& text) {
  std::istringstream in(text);
  auto traces = colgraph::ParseTraces(in);
  return traces.ok() ? std::move(traces).value() : std::vector<colgraph::WalkTrace>{};
}

uint64_t RegistryCounter(const char* name) {
  return colgraph::obs::MetricsRegistry::Global().GetCounter(name).value();
}

/// The benchmark's own copy of the daemon's writer path, replayed batch by
/// batch with spans: ParseTraces, SharedCopy + BuildTailRelation,
/// DatasetStore::Seal, AttachDataset; and, whenever the copy holds as many
/// tails as the daemon's compaction trigger, CompactAll + Compact.
class WriterReplica {
 public:
  WriterReplica(std::shared_ptr<const ColGraphEngine> initial,
                const std::string& dir, size_t compact_after)
      : engine_(std::move(initial)), compact_after_(compact_after) {
    colgraph::DatasetStoreOptions options;
    options.relation = engine_->options().relation;
    auto store = colgraph::DatasetStore::Open(dir, options);
    if (!store.ok()) {
      std::fprintf(stderr, "perfbench: replica store: %s\n",
                   store.status().ToString().c_str());
      std::exit(3);
    }
    store_ = std::make_unique<colgraph::DatasetStore>(std::move(store).value());
  }

  /// Replays one batch under `tracer`'s open root: ParseTraces, the tail
  /// built on a copy of the replica's engine, Seal, AttachDataset.
  bool Replay(const std::string& text, Tracer* tracer) {
    std::vector<colgraph::WalkTrace> traces;
    {
      const ScopedSpan span(tracer, "workload.parse_traces");
      traces = Parse(text);
    }
    colgraph::StatusOr<colgraph::MasterRelation> tail = colgraph::Status::OK();
    ColGraphEngine next;
    {
      const ScopedSpan span(tracer, "core.build_tail");
      next = engine_->SharedCopy();
      tail = next.BuildTailRelation(ToRecords(traces));
    }
    if (!tail.ok()) return false;
    colgraph::StatusOr<std::string> sealed = colgraph::Status::OK();
    {
      const ScopedSpan span(tracer, "columnstore.seal");
      sealed = store_->Seal(*tail);
    }
    if (!sealed.ok()) return false;
    seal_bytes_ += std::filesystem::file_size(store_->PathFor(*sealed));
    records_ += tail->num_records();
    colgraph::Status attached;
    {
      const ScopedSpan span(tracer, "core.attach");
      attached = next.AttachDataset(
          std::make_shared<const colgraph::MasterRelation>(std::move(tail).value()));
    }
    if (!attached.ok()) return false;
    engine_ = std::make_shared<const ColGraphEngine>(std::move(next));
    return true;
  }

  bool NeedsCompaction() const {
    return compact_after_ > 0 && engine_->tails().size() >= compact_after_;
  }

  /// One compaction cycle, as Daemon::CompactNow runs it.
  bool Compact(Tracer* tracer) {
    colgraph::Status merged;
    {
      const ScopedSpan span(tracer, "columnstore.compact");
      merged = store_->CompactAll();
    }
    if (!merged.ok()) return false;
    ++compactions_;
    compaction_bytes_ += std::filesystem::file_size(
        store_->PathFor(store_->dataset_names().back()));
    ColGraphEngine next = engine_->SharedCopy();
    colgraph::Status compacted;
    {
      const ScopedSpan span(tracer, "core.compact");
      compacted = next.Compact();
    }
    if (!compacted.ok()) return false;
    engine_ = std::make_shared<const ColGraphEngine>(std::move(next));
    return true;
  }

  uint64_t seal_bytes() const { return seal_bytes_; }
  uint64_t records() const { return records_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t compaction_bytes() const { return compaction_bytes_; }

 private:
  std::shared_ptr<const ColGraphEngine> engine_;
  std::unique_ptr<colgraph::DatasetStore> store_;
  size_t compact_after_;
  uint64_t seal_bytes_ = 0;
  uint64_t records_ = 0;
  uint64_t compactions_ = 0;
  uint64_t compaction_bytes_ = 0;
};

struct WriterLog {
  std::vector<int64_t> done_ns;
  std::vector<double> latency_ms;
  uint64_t acked_records = 0;
  uint64_t failed = 0;
  int64_t elapsed_ns = 0;
  std::vector<double> wait_us;  // traced: round trip minus replica layers
  std::map<uint64_t, int64_t> served_ns;  // traced: the daemon's own totals
};

struct ReaderLog {
  std::vector<double> latency_ms;   // from the scheduled send
  std::vector<double> lateness_ms;  // actual send minus scheduled send
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t compared = 0;            // traced: replica and served epochs equal
  std::vector<double> tails;        // traced: tail datasets per read
  std::vector<ReplicaOut> outs;     // traced
  std::vector<double> round_trip_ms;  // traced
  std::map<uint64_t, int64_t> served_ns;  // traced: the daemon's own totals
};

bool IngestAcked(const colgraph::StatusOr<srv::Response>& response) {
  return response.ok() && response->ok() &&
         response->body.rfind("ingested " + std::to_string(kWalksPerBatch) + " record(s)", 0) == 0;
}

}  // namespace

void RunServeIngest(const Args& args, Report* report) {
  Collection collection = MakeCollection(kDatasetSeed, kRecords);
  const std::vector<GraphQuery> training =
      UniformQueries(collection, StreamSeed(kDatasetSeed, 2), 100);
  const size_t num_batches = kBatchesPerSecond * static_cast<size_t>(args.seconds);
  const std::vector<std::string> batches =
      MakeBatches(collection, StreamSeed(args.seed, 5), num_batches);
  std::vector<std::string> reads;
  for (const GraphQuery& q :
       UniformQueries(collection, StreamSeed(args.seed, 3),
                      kReadsPerRunSecond * static_cast<size_t>(args.seconds))) {
    reads.push_back(PathText(q));
  }
  // A check query over ingested walks: the first walk's first ten hops.
  std::string check_query = "[";
  {
    std::istringstream first(batches.front());
    for (int hop = 0; hop <= 10; ++hop) {
      uint64_t node = 0;
      first >> node;
      if (hop > 0) check_query += ",";
      check_query += std::to_string(node);
    }
    check_query += "]";
  }

  const std::string data_dir = args.run_dir + "/data";
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  srv::DaemonOptions options;  // defaults, plus the socket and the data dir
  options.socket_path = args.run_dir + "/d.sock";
  options.data_dir = data_dir;
  Served served = SetUpServed(collection, training, ViewKind::kGraph, options,
                              args.trace ? 1 : kSetupRepeats, args.trace, report);
  const std::shared_ptr<const ColGraphEngine> initial = served.engine;
  report->Fact("collection_records", std::to_string(collection.size()));
  report->Fact("load", "1 closed-loop writer (" + std::to_string(num_batches) + " x " +
                           std::to_string(kWalksPerBatch) +
                           "-walk batches) + 1 open-loop reader (" +
                           std::to_string(reads.size()) + " reads at " +
                           std::to_string(static_cast<int>(kReadsPerSecond)) + " req/s)");
  report->Fact("daemon_options", "defaults (8 workers, compact_after_datasets=" +
                                     std::to_string(options.compact_after_datasets) +
                                     ") + socket + data_dir");
  report->Fact("data_dir_fs", FsType(data_dir));
  report->Fact("flush_policy", "fsync on every seal and manifest rewrite (DatasetStore)");
  Release(&collection);

  std::unique_ptr<WriterReplica> replica;
  Tracer writer_tracer, reader_tracer;
  if (args.trace) {
    const std::string replica_dir = args.run_dir + "/replica";
    std::filesystem::remove_all(replica_dir);
    std::filesystem::create_directories(replica_dir);
    replica = std::make_unique<WriterReplica>(initial, replica_dir,
                                              options.compact_after_datasets);
  }

  const std::string socket = served.daemon->socket_path();
  WriterLog writer;
  ReaderLog reader;
  const uint64_t compactions0 = RegistryCounter("store.compactions");
  TrimHeap();
  ResetPeakRss();
  const uint64_t faults0 = MinorFaults();
  const int64_t cpu0 = ProcessCpuNs();

  std::thread writer_thread([&] {
    srv::ClientOptions client_options;
    client_options.socket_path = socket;
    client_options.jitter_seed = StreamSeed(args.seed, 101);
    srv::Client client(client_options);
    const int64_t start = NowNs();
    for (size_t b = 0; b < batches.size(); ++b) {
      Tracer replay;
      if (replica != nullptr) {
        replay.BeginRequest(kIngestIds + b);
        const ScopedSpan root(&replay, "ingest", SpanKind::kRoot);
        if (!replica->Replay(batches[b], &replay)) ++writer.failed;
      }
      srv::Request request;
      request.op = srv::RequestOp::kIngest;
      request.body = batches[b];
      if (replica != nullptr) RequestTrace(&request, kIngestIds + b);
      const size_t span = replay.Begin("round_trip", SpanKind::kWire);
      const auto response = client.Call(request);
      replay.End(span);
      const int64_t t0 = replay.spans()[span].start_ns;
      const int64_t t1 = replay.spans()[span].end_ns;
      if (replica != nullptr) {
        writer.served_ns[kIngestIds + b] = EchoedTotalNs(response);
        writer.wait_us.push_back(static_cast<double>(t1 - t0 - LayerSelfNs(replay)) / 1e3);
        writer_tracer.Append(replay);
        if (replica->NeedsCompaction()) {
          writer_tracer.BeginRequest(kCompactionIds + b);
          const ScopedSpan root(&writer_tracer, "compaction", SpanKind::kRoot);
          if (!replica->Compact(&writer_tracer)) ++writer.failed;
        }
      }
      if (!IngestAcked(response)) {
        ++writer.failed;
        continue;
      }
      writer.acked_records += kWalksPerBatch;
      writer.done_ns.push_back(t1);
      writer.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    writer.elapsed_ns = NowNs() - start;
  });

  std::thread reader_thread([&] {
    srv::ClientOptions client_options;
    client_options.socket_path = socket;
    client_options.jitter_seed = StreamSeed(args.seed, 102);
    srv::Client client(client_options);
    srv::Request request;
    request.op = srv::RequestOp::kQuery;
    // A plain sleep until each read is due. The default 50 µs timer slack
    // would add to every read's latency, which counts from the due time.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const int64_t start = NowNs();
    const auto interval = static_cast<int64_t>(1e9 / kReadsPerSecond);
    for (size_t k = 0; k < reads.size(); ++k) {
      const int64_t due = start + static_cast<int64_t>(k) * interval;
      const int64_t ahead = due - NowNs();
      if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
      const std::string& body = reads[k];
      const int64_t sent = NowNs();
      bool ok = false;
      if (args.trace) {
        uint64_t epoch = 0;
        const auto engine = served.daemon->snapshots().Acquire(&epoch);
        TracedRequest t = TraceRequest(*engine, epoch, body, k + 1, &client);
        reader_tracer.Append(t.spans);
        reader.served_ns[k + 1] = t.served_ns;
        ok = t.response.ok() && t.response->ok();
        if (ok && t.response->snapshot_epoch == epoch) {
          ++reader.compared;
          ok = t.response->body == t.out.body;
        }
        reader.tails.push_back(static_cast<double>(engine->tails().size()));
        reader.round_trip_ms.push_back(static_cast<double>(t.round_trip_ns) / 1e6);
        reader.outs.push_back(std::move(t.out));
      } else {
        request.body = body;
        const auto response = client.Call(request);
        ok = response.ok() && response->ok() && response->body.rfind("match ", 0) == 0;
      }
      const int64_t done = NowNs();
      ++reader.sent;
      if (!ok) ++reader.failed;
      reader.latency_ms.push_back(static_cast<double>(done - due) / 1e6);
      reader.lateness_ms.push_back(static_cast<double>(sent - due) / 1e6);
    }
  });
  writer_thread.join();
  reader_thread.join();
  // The stream ends with a final compaction, inside the measured phase: it
  // waits for a background compaction still running and merges what is
  // left, so every run ends on the same fully compacted state.
  const colgraph::Status compacted = served.daemon->CompactNow();
  if (!compacted.ok()) report->Fail("final CompactNow: " + compacted.ToString());
  const int64_t cpu = ProcessCpuNs() - cpu0;
  const uint64_t faults = MinorFaults() - faults0;
  const double rss = PeakRssMb();
  const uint64_t compactions = RegistryCounter("store.compactions") - compactions0;

  // The exact disk footprint, and the record count before and after a
  // drain + restart over the data dir.
  const uint64_t disk_bytes = DirBytes(data_dir);
  const size_t expected_total = initial->total_records() + writer.acked_records;
  if (served.daemon->snapshots().Acquire()->total_records() != expected_total) {
    report->Fail("records before restart differ from initial + acknowledged");
  }
  if (const colgraph::Status s = served.daemon->Drain(); !s.ok()) {
    report->Fail("drain: " + s.ToString());
  }
  served.daemon.reset();

  if (args.trace) {
    // The read side of the store: reopen and decode the final dir.
    const uint64_t faults_before = MinorFaults();
    const int64_t t0 = NowNs();
    auto store = colgraph::DatasetStore::Open(data_dir);
    const auto loaded = store.ok() ? store->LoadAll()
                                   : colgraph::StatusOr<std::vector<colgraph::MasterRelation>>(
                                         store.status());
    report->Set("columnstore.reload_ms", static_cast<double>(NowNs() - t0) / 1e6);
    report->Set("columnstore.reload_minor_faults",
                static_cast<double>(MinorFaults() - faults_before));
    if (!loaded.ok()) report->Fail("reload: " + loaded.status().ToString());
  }

  auto restarted = srv::Daemon::Start(initial, options);
  if (!restarted.ok()) {
    report->Fail("restart: " + restarted.status().ToString());
  } else {
    if ((*restarted)->snapshots().Acquire()->total_records() != expected_total) {
      report->Fail("records after restart differ from initial + acknowledged");
    }
    // Reference: the initial engine plus every batch as a tail, compacted.
    ColGraphEngine reference = initial->SharedCopy();
    for (const std::string& text : batches) {
      auto tail = reference.BuildTailRelation(ToRecords(Parse(text)));
      if (!tail.ok() || !reference.AttachDataset(std::make_shared<const colgraph::MasterRelation>(
                             std::move(tail).value())).ok()) {
        report->Fail("reference ingest failed");
      }
    }
    if (!reference.Compact().ok()) report->Fail("reference compaction failed");
    srv::ClientOptions client_options;
    client_options.socket_path = socket;
    srv::Client client(client_options);
    const auto response = client.Query(check_query);
    const ReplicaOut expected = ReplicaQuery(reference, 0, check_query, nullptr);
    if (!response.ok() || !response->ok() || response->body != expected.body ||
        expected.body.rfind("match 0:", 0) == 0) {
      report->Fail("query over ingested walks differs from the in-process answer");
    }
    if (const colgraph::Status s = (*restarted)->Drain(); !s.ok()) {
      report->Fail("drain after restart: " + s.ToString());
    }
  }

  report->attempted = batches.size() + reader.sent;
  report->failed = writer.failed + reader.failed;
  if (report->failed > 0) report->Fail("ingest or read requests failed");
  const double ops = static_cast<double>(batches.size() + reader.sent);
  const double records = static_cast<double>(std::max<uint64_t>(writer.acked_records, 1));
  report->Set("qps", MedianWindowRate(writer.done_ns, kAckWindow));
  report->Set("latency_p50_ms", Median(reader.latency_ms));
  report->Set("cpu_ms_per_op", static_cast<double>(cpu) / 1e6 / ops);
  report->Set("rss_mb", rss);
  report->Diag("ingest_records_per_s",
               records / (static_cast<double>(writer.elapsed_ns) / 1e9), "rec/s");
  report->Diag("ingest_latency_p50_ms", Median(writer.latency_ms), "ms");
  report->Diag("ingest_latency_p90_ms", Quantile(writer.latency_ms, 0.9), "ms");
  TailDiagnostics("ingest_latency", writer.latency_ms, report);
  TailDiagnostics("read_latency", reader.latency_ms, report);
  report->Diag("disk_bytes_per_record", static_cast<double>(disk_bytes) / records, "B");
  report->Diag("reads", static_cast<double>(reader.sent), "count");
  report->Diag("generator_lateness_p50_ms", Median(reader.lateness_ms), "ms");
  report->Diag("generator_lateness_max_ms", Quantile(reader.lateness_ms, 1.0), "ms");
  report->Diag("daemon_compactions", static_cast<double>(compactions), "count");

  if (args.trace) {
    const auto views = AnalyzeSpans({&writer_tracer, &reader_tracer}, report);
    std::map<uint64_t, int64_t> served_ns = writer.served_ns;
    served_ns.insert(reader.served_ns.begin(), reader.served_ns.end());
    CheckRemainders(views, served_ns, report);
    std::vector<RequestView> ingests, compactions_v;
    for (const RequestView& v : views) {
      if (v.dur.count("ingest")) ingests.push_back(v);
      if (v.dur.count("compaction")) compactions_v.push_back(v);
    }
    const auto dur = [](const char* name) {
      return [name](const RequestView& v) { return v.Dur(name); };
    };
    report->Set("workload.parse_traces_us", MedianUs(ingests, dur("workload.parse_traces")));
    report->Set("core.build_tail_us", MedianUs(ingests, dur("core.build_tail")));
    report->Set("columnstore.seal_us", MedianUs(ingests, dur("columnstore.seal")));
    report->Set("core.attach_us", MedianUs(ingests, dur("core.attach")));
    report->Set("server.ingest_wait_us", Median(writer.wait_us));
    report->Set("columnstore.compact_us", MedianUs(compactions_v, dur("columnstore.compact")));
    report->Set("core.compact_us", MedianUs(compactions_v, dur("core.compact")));
    const double replica_records = static_cast<double>(std::max<uint64_t>(replica->records(), 1));
    report->Set("columnstore.seal_bytes_per_record",
                static_cast<double>(replica->seal_bytes()) / replica_records);
    report->Set("columnstore.compactions", static_cast<double>(replica->compactions()));
    report->Set("columnstore.compaction_bytes_per_record",
                static_cast<double>(replica->compaction_bytes()) / replica_records);
    report->Set("core.tails_per_read", Median(reader.tails));
    ReportQueryLayers(views, reader.outs, report);
    report->Set("server.round_trip_p50_ms", Median(reader.round_trip_ms));
    report->Set("proc.minor_faults_per_op", static_cast<double>(faults) / ops);
    report->Diag("reads_compared_same_epoch", static_cast<double>(reader.compared), "count");
    WriteTrace(args, {&writer_tracer, &reader_tracer}, views, *report);
  }
}

}  // namespace perfbench
