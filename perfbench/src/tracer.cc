#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

size_t Tracer::Begin(const char* name, SpanKind kind) {
  SpanRec span;
  span.name = name;
  span.kind = kind;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  span.request = request_;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  const int64_t now = NowNs();
  if (index < spans_.size()) spans_[index].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Append(const Tracer& other) {
  const auto base = static_cast<int32_t>(spans_.size());
  for (SpanRec span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

int64_t RootNs(const Tracer& tracer) {
  const SpanRec& root = tracer.spans().front();
  return root.end_ns - root.start_ns;
}

int64_t LayerSelfNs(const Tracer& tracer) {
  const std::vector<SpanRec>& spans = tracer.spans();
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  int64_t total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == SpanKind::kLayer) total += self[i];
  }
  return total;
}

int64_t RequestView::Dur(const std::string& n) const {
  const auto it = dur.find(n);
  return it == dur.end() ? 0 : it->second;
}

int64_t RequestView::Self(const std::string& n) const {
  const auto it = self.find(n);
  return it == self.end() ? 0 : it->second;
}

namespace {

const char* KindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRoot: return "root";
    case SpanKind::kLayer: return "layer";
    case SpanKind::kProbe: return "probe";
    case SpanKind::kWire: return "wire";
  }
  return "?";
}

}  // namespace

std::vector<RequestView> AnalyzeSpans(const std::vector<const Tracer*>& tracers,
                                      Report* report) {
  std::map<uint64_t, RequestView> by_request;
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRec>& spans = tracer->spans();
    std::vector<int64_t> children(spans.size(), 0);
    for (const SpanRec& s : spans) {
      if (s.parent >= 0) children[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      RequestView& view = by_request[s.request];
      view.request = s.request;
      const int64_t dur = s.end_ns - s.start_ns;
      if (dur < 0) report->Fail("span " + std::string(s.name) + " never ended");

      // Nesting: a top-level span is a root or a round trip; every other
      // span lies inside its parent, within the same request, and has the
      // request's root among its ancestors.
      if (s.parent < 0) {
        if (s.kind != SpanKind::kRoot && s.kind != SpanKind::kWire) {
          report->Fail("request " + std::to_string(s.request) + ": span " +
                       s.name + " is outside the request root");
        }
      } else {
        const SpanRec& p = spans[static_cast<size_t>(s.parent)];
        if (p.request != s.request || s.start_ns < p.start_ns ||
            s.end_ns > p.end_ns) {
          report->Fail("request " + std::to_string(s.request) + ": span " +
                       s.name + " does not nest in " + p.name);
        }
        const SpanRec* a = &p;
        while (a->parent >= 0) a = &spans[static_cast<size_t>(a->parent)];
        if (a->kind != SpanKind::kRoot) {
          report->Fail("request " + std::to_string(s.request) + ": span " +
                       s.name + " has no request root");
        }
      }

      const int64_t self = dur - children[i];
      view.dur[s.name] += dur;
      view.self[s.name] += self;
      if (s.kind == SpanKind::kLayer) view.layer_self_ns += self;
      if (s.kind == SpanKind::kWire) view.wire_ns = std::max<int64_t>(view.wire_ns, 0) + dur;
    }
  }

  std::vector<RequestView> views;
  views.reserve(by_request.size());
  for (auto& [id, view] : by_request) views.push_back(std::move(view));
  return views;
}

void CheckRemainders(const std::vector<RequestView>& views,
                     const std::map<uint64_t, int64_t>& served_ns,
                     Report* report) {
  size_t queries = 0, query_overruns = 0, others = 0, other_overruns = 0;
  std::vector<double> outside_us;
  for (const RequestView& v : views) {
    if (v.wire_ns < 0) continue;
    const auto served = served_ns.find(v.request);
    if (served == served_ns.end() || served->second < 0) {
      report->Fail("request " + std::to_string(v.request) +
                   ": the daemon echoed no trace total");
      continue;
    }
    if (v.wire_ns < served->second) {
      report->Fail("request " + std::to_string(v.request) + ": round trip " +
                   std::to_string(v.wire_ns) + " ns is shorter than the daemon's own " +
                   std::to_string(served->second) + " ns");
    }
    outside_us.push_back(static_cast<double>(v.wire_ns - served->second) / 1e3);
    const bool overrun = v.wire_ns < v.layer_self_ns;
    if (v.dur.count("request")) {
      ++queries;
      query_overruns += overrun ? 1 : 0;
    } else {
      ++others;
      other_overruns += overrun ? 1 : 0;
    }
  }
  const auto share = [](size_t part, size_t all) {
    return all == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(all);
  };
  report->Diag("trace.outside_daemon_p50_us", Median(outside_us), "us");
  report->Diag("trace.query_replica_overrun_share", share(query_overruns, queries), "ratio");
  if (others > 0) {
    report->Diag("trace.ingest_replica_overrun_share", share(other_overruns, others), "ratio");
  }
  if (share(query_overruns, queries) > kMaxReplicaOverrunShare) {
    report->Fail(std::to_string(query_overruns) + " of " + std::to_string(queries) +
                 " traced query requests had a round trip shorter than their"
                 " replica's layer time");
  }
}

void WriteTrace(const Args& args, const std::vector<const Tracer*>& tracers,
                const std::vector<RequestView>& views, const Report& report) {
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);

  // Every span, one JSON object per line; ids are global across tracers.
  {
    std::ofstream out(stem + ".spans.jsonl");
    size_t base = 0;
    for (const Tracer* tracer : tracers) {
      const std::vector<SpanRec>& spans = tracer->spans();
      for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec& s = spans[i];
        out << "{\"id\":" << base + i << ",\"parent\":"
            << (s.parent < 0 ? -1 : static_cast<long long>(base) + s.parent)
            << ",\"request\":" << s.request << ",\"name\":\"" << s.name
            << "\",\"kind\":\"" << KindName(s.kind)
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << "}\n";
      }
      base += spans.size();
    }
  }

  // Per-layer table: per span name, how many requests ran it and the
  // median and total of its per-request self time.
  std::map<std::string, std::vector<double>> self_us;
  for (const RequestView& v : views) {
    for (const auto& [name, ns] : v.self) {
      self_us[name].push_back(static_cast<double>(ns) / 1e3);
    }
  }
  std::ostringstream table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %10s %14s %14s\n", "span",
                "requests", "self_p50_us", "self_total_ms");
  table << line;
  for (const auto& [name, values] : self_us) {
    double total = 0;
    for (const double v : values) total += v;
    std::snprintf(line, sizeof(line), "%-28s %10zu %14.3f %14.3f\n",
                  name.c_str(), values.size(), Median(values), total / 1e3);
    table << line;
  }
  table << "\nper-layer metrics (medians per operation; counts and ratios)\n";
  for (const auto& [name, value] : report.metrics()) {
    std::snprintf(line, sizeof(line), "%-36s %16.4f\n", name.c_str(), value);
    table << line;
  }
  std::ofstream(stem + ".layers.txt") << table.str();
  std::fprintf(stderr, "%s", table.str().c_str());
}

}  // namespace perfbench
