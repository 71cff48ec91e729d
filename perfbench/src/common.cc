#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "views/aggregate_views.h"
#include "views/candidate_generation.h"
#include "views/set_cover.h"
#include "workload/base_graphs.h"
#include "workload/record_generator.h"

namespace perfbench {

using colgraph::Edge;
using colgraph::NodeRef;

void Report::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  correct = false;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

void TrimHeap() { malloc_trim(0); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (upper + *std::max_element(v.begin(), v.begin() + static_cast<long>(mid))) / 2;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double MedianWindowRate(std::vector<int64_t> completions_ns, size_t window) {
  std::sort(completions_ns.begin(), completions_ns.end());
  std::vector<double> rates;
  for (size_t i = window; i < completions_ns.size(); i += window) {
    const double span_s =
        static_cast<double>(completions_ns[i] - completions_ns[i - window]) / 1e9;
    if (span_s > 0) rates.push_back(static_cast<double>(window) / span_s);
  }
  return Median(std::move(rates));
}

void TailDiagnostics(const std::string& prefix, const std::vector<double>& ms,
                     Report* report) {
  report->Diag(prefix + "_p99_ms", Quantile(ms, 0.99), "ms");
  report->Diag(prefix + "_max_ms",
               ms.empty() ? 0 : *std::max_element(ms.begin(), ms.end()), "ms");
  report->Diag(prefix + "_samples", static_cast<double>(ms.size()), "count");
  // Samples beyond the p99 mark: the tail estimate rests on this many.
  report->Diag(prefix + "_samples_beyond_p99",
               std::floor(static_cast<double>(ms.size()) * 0.01), "count");
}

uint64_t Checksum(const void* data, size_t len, uint64_t seed) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t lane[4] = {seed ^ 0x243f6a8885a308d3ull, seed ^ 0x13198a2e03707344ull,
                      seed ^ 0xa4093822299f31d0ull, seed ^ 0x082efa98ec4e6c89ull};
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    for (int k = 0; k < 4; ++k) {
      uint64_t word;
      std::memcpy(&word, p + i + 8 * k, 8);
      lane[k] = (lane[k] ^ word) * kMul;
    }
  }
  uint64_t h = len;
  for (; i < len; ++i) h = (h ^ p[i]) * kMul;
  for (const uint64_t l : lane) {
    h = (h ^ l ^ (l >> 31)) * kMul;
    h ^= h >> 29;
  }
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string FsType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buffer;
    }
  }
}

// --- Collection. ---

void Collection::Decode(size_t i, colgraph::GraphRecord* out) const {
  const size_t begin = i == 0 ? 0 : ends[i - 1];
  out->elements.clear();
  out->measures.assign(measures.begin() + static_cast<long>(begin),
                       measures.begin() + static_cast<long>(ends[i]));
  for (size_t k = begin; k < ends[i]; ++k) out->elements.push_back(edges[codes[k]]);
}

Collection MakeCollection(uint64_t seed, size_t num_records) {
  Collection c;
  const colgraph::DirectedGraph base = colgraph::MakeRoadNetwork(120, 120);
  auto universe = colgraph::SelectEdgeUniverse(base, kUniverseEdges, seed);
  if (!universe.ok()) {
    std::fprintf(stderr, "perfbench: universe: %s\n",
                 universe.status().ToString().c_str());
    std::exit(3);
  }
  c.universe = std::move(universe).value();
  c.edges = c.universe.edges();
  std::unordered_map<Edge, uint16_t, colgraph::EdgeHash> code_of;
  for (size_t i = 0; i < c.edges.size(); ++i) {
    code_of[c.edges[i]] = static_cast<uint16_t>(i);
  }

  colgraph::RecordGenOptions options;  // Table 2's NY row
  options.min_edges = 35;
  options.max_edges = 100;
  options.size_draws = 3;
  colgraph::WalkRecordGenerator generator(&c.universe, options, seed + 1);
  c.trunks.reserve(num_records);
  c.ends.reserve(num_records);
  for (size_t i = 0; i < num_records; ++i) {
    std::vector<NodeRef> trunk;
    const colgraph::GraphRecord record = generator.Next(&trunk);
    for (size_t k = 0; k < record.elements.size(); ++k) {
      c.codes.push_back(code_of.at(record.elements[k]));
      c.measures.push_back(record.measures[k]);
    }
    c.ends.push_back(static_cast<uint32_t>(c.codes.size()));
    c.trunks.push_back(std::move(trunk));
  }
  return c;
}

void Release(Collection* collection) {
  *collection = Collection();
  TrimHeap();
}

// --- Set-up. ---

namespace {

void Check(const colgraph::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(3);
}

}  // namespace

std::shared_ptr<ColGraphEngine> IngestCollection(
    const Collection& collection, const colgraph::EngineOptions& options,
    SetupClock* clock) {
  auto engine = std::make_shared<ColGraphEngine>(options);
  colgraph::GraphRecord record;
  int64_t spent = 0;
  for (size_t i = 0; i < collection.size(); ++i) {
    collection.Decode(i, &record);
    const int64_t t0 = NowNs();
    const auto added = engine->AddRecord(record);
    spent += NowNs() - t0;
    Check(added.status(), "AddRecord");
  }
  const int64_t t0 = NowNs();
  Check(engine->Seal(), "Seal");
  spent += NowNs() - t0;
  clock->ingest_s = static_cast<double>(spent) / 1e9;
  return engine;
}

void MaterializeViews(ColGraphEngine* engine,
                      const std::vector<GraphQuery>& training, ViewKind kind,
                      bool time_selection, SetupClock* clock) {
  constexpr size_t kBudget = 100;
  if (time_selection) {
    const int64_t t0 = NowNs();
    if (kind == ViewKind::kGraph) {
      std::vector<std::vector<colgraph::EdgeId>> universes;
      for (const GraphQuery& q : training) {
        const auto resolved = engine->query_engine().Resolve(q);
        if (resolved.satisfiable && !resolved.ids.empty()) {
          universes.push_back(resolved.ids);
        }
      }
      colgraph::CandidateGenOptions gen;
      gen.min_support = engine->options().view_min_support;
      gen.pool = engine->pool();
      auto candidates = colgraph::GenerateGraphViewCandidates(universes, gen);
      Check(candidates.status(), "GenerateGraphViewCandidates");
      (void)colgraph::GreedyExtendedSetCover(universes, *candidates, kBudget);
    } else {
      Check(colgraph::SelectAggregateViews(training, colgraph::AggFn::kSum,
                                           engine->catalog(), kBudget)
                .status(),
            "SelectAggregateViews");
    }
    clock->select_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  const int64_t t0 = NowNs();
  const auto views =
      kind == ViewKind::kGraph
          ? engine->SelectAndMaterializeGraphViews(training, kBudget)
          : engine->SelectAndMaterializeAggViews(training, colgraph::AggFn::kSum,
                                                 kBudget);
  clock->views_s = static_cast<double>(NowNs() - t0) / 1e9;
  Check(views.status(), "view selection");
  clock->views = *views;
}

void ReportSetup(const std::vector<SetupClock>& clocks, Report* report) {
  std::vector<double> totals, ingest, views, start, select;
  for (const SetupClock& c : clocks) {
    totals.push_back(c.total());
    ingest.push_back(c.ingest_s);
    views.push_back(c.views_s);
    start.push_back(c.start_s);
    select.push_back(c.select_s);
  }
  report->Set("setup_s", Median(totals));
  report->Set("core.ingest_s", Median(ingest));
  report->Set("views.select_s", Median(select));
  report->Set("views.materialize_s", Median(views) - Median(select));
  report->Set("views.count", static_cast<double>(clocks.front().views));
  report->Set("server.start_s", Median(start));
  report->Diag("setup_repeats", static_cast<double>(clocks.size()), "count");
  report->Diag("setup_min_s", *std::min_element(totals.begin(), totals.end()), "s");
  report->Diag("setup_max_s", *std::max_element(totals.begin(), totals.end()), "s");
}

std::string PathText(const GraphQuery& query) {
  // Walk the path from its single source node.
  const colgraph::DirectedGraph& g = query.graph();
  std::string text = "[";
  for (NodeRef n = g.SourceNodes().front();;) {
    if (text.size() > 1) text += ",";
    text += std::to_string(n.base);
    const auto& out = g.OutNeighbors(n);
    if (out.size() != 1) break;
    n = out.front();
  }
  return text + "]";
}

}  // namespace perfbench
