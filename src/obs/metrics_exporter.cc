#include "obs/metrics_exporter.h"

#include <utility>

#include "columnstore/io_util.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace colgraph::obs {

namespace {

Counter& ExportsCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("metrics_exporter.exports");
  return c;
}
Counter& FailuresCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("metrics_exporter.failures");
  return c;
}

}  // namespace

MetricsExporter::MetricsExporter(MetricsExporterOptions options)
    : options_(std::move(options)) {}

StatusOr<std::unique_ptr<MetricsExporter>> MetricsExporter::Start(
    MetricsExporterOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("metrics export dir must not be empty");
  }
  if (options.period_ms == 0) {
    return Status::InvalidArgument("metrics export period must be > 0");
  }
  COLGRAPH_RETURN_NOT_OK(io::CreateDirectories(options.dir));
  std::unique_ptr<MetricsExporter> exporter(
      new MetricsExporter(std::move(options)));
  // The first document exists before Start returns; a write failure here
  // is the same degradation as a mid-run one (counted, not fatal).
  (void)exporter->ExportOnce();
  exporter->pool_ = std::make_unique<ThreadPool>(1);
  MetricsExporter* raw = exporter.get();
  exporter->pool_->Schedule([raw] { raw->Run(); });
  return exporter;
}

MetricsExporter::~MetricsExporter() { Stop(); }

void MetricsExporter::Stop() {
  if (stopped_) return;
  stopped_ = true;
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  pool_.reset();  // drains + joins the loop
  // Final export: a process that stops between periods still leaves its
  // last counters behind.
  (void)ExportOnce();
}

void MetricsExporter::Run() {
  for (;;) {
    {
      const MutexLock lock(mu_);
      if (stop_) return;
      (void)cv_.WaitForMs(mu_, options_.period_ms);
      if (stop_) return;
    }
    (void)ExportOnce();
  }
}

std::string MetricsExporter::target_path() const {
  return options_.dir + "/" + options_.file_name;
}

Status MetricsExporter::ExportOnce() {
  const std::string metrics_json = options_.source != nullptr
                                       ? options_.source()
                                       : MetricsRegistry::Global().ToJson();
  const std::map<std::string, uint64_t> counters =
      MetricsRegistry::Global().SnapshotCounters();

  JsonWriter w;
  w.BeginObject();
  {
    const MutexLock lock(mu_);
    w.Key("seq");
    w.Uint(seq_);
    w.Key("period_ms");
    w.Uint(options_.period_ms);
    w.Key("uptime_seconds");
    w.Uint(ProcessUptimeSeconds());
    // Per-interval counter deltas: only counters that moved since the
    // previous export, so a collector reads rates directly. Counters are
    // monotone; a name absent from the previous snapshot delta-reports
    // its full value.
    w.Key("counters_delta");
    w.BeginObject();
    for (const auto& [name, value] : counters) {
      const auto it = last_counters_.find(name);
      const uint64_t prev = it == last_counters_.end() ? 0 : it->second;
      if (value > prev) {
        w.Key(name);
        w.Uint(value - prev);
      }
    }
    w.EndObject();
    w.Key("metrics");
    w.Raw(metrics_json);
    w.EndObject();

    const Status st = io::WriteFileAtomic(target_path(), w.str().data(),
                                          w.str().size());
    if (!st.ok()) {
      FailuresCounter().Increment();
      return st;
    }
    // Only a successful export advances the delta baseline and sequence:
    // after a failed write the next document reports the whole missed
    // interval.
    ++seq_;
    last_counters_ = counters;
  }
  ExportsCounter().Increment();
  return Status::OK();
}

uint64_t MetricsExporter::exports() const { return ExportsCounter().value(); }

uint64_t MetricsExporter::failures() const {
  return FailuresCounter().value();
}

}  // namespace colgraph::obs
