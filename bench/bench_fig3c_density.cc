// Figure 3(c): execution time of 100 queries as record density grows
// (10% / 20% / 50% of the 1000-edge universe per record). Query graphs are
// constructed for the same density factors. Expected shape: the column
// store stays flat (larger queries are more selective), the baselines grow.
#include <algorithm>

#include "bitmap/hybrid_bitmap.h"
#include "columnstore/column.h"
#include "comparison_util.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace colgraph::bench {
namespace {

void Run(size_t num_threads, const std::string& query_log,
         uint64_t timeout_ms) {
  Title("Figure 3(c) — query time vs record density, NY");
  PaperNote(
      "column store flat across density; row store grows with density "
      "(paper x-axis: 10%, 20%, 50%; 1M records)");
  Row({"density", "Column Store", "Neo4j Store", "Rdf Store", "Row Store"});

  for (const double density : {0.10, 0.20, 0.50}) {
    const size_t record_edges = static_cast<size_t>(density * 1000);
    RecordGenOptions rec_options;
    rec_options.min_edges = record_edges;
    rec_options.max_edges = record_edges;
    const Dataset ds = MakeDataset(MakeNyBase(), "NY", Scaled(5000), 1000,
                                   rec_options, 777);
    QueryGenerator qgen(&ds.trunks, &ds.universe, 17);
    // Query density matches record density (Section 7.2).
    const auto workload = qgen.StructuralWorkload(100, record_edges);

    std::vector<std::string> cells{Fmt(density * 100, 0) + "%"};
    const std::string log_path =
        query_log.empty()
            ? ""
            : query_log + "." + std::to_string(record_edges);
    cells.push_back(Fmt(TimeColumnStore(ds, workload, nullptr, num_threads,
                                        log_path, timeout_ms)) +
                    "s");
    for (const auto& [name, factory] : BaselineFactories()) {
      (void)name;
      cells.push_back(Fmt(TimeBaseline(factory, ds, workload)) + "s");
    }
    Row(cells);
  }
}

// ISSUE 8: hybrid-container sweep at sparse densities. Reproduces the
// engine's MatchIds AND-loop shapes — the fig3a/fig6 hot loop — over
// presence columns sparse enough that seal-time encoding picks hybrid
// containers, and times the pre-hybrid path (word-at-a-time Bitmap::And)
// against the compressed path (HybridBitmap::And + final ToBitmap).
// Per-sample times land in the metrics registry as fig3c.and.ewah_us /
// fig3c.and.hybrid_us so the committed BENCH_fig3c.json baseline gates
// regressions of either path through tools/bench_compare.py. (The
// ewah_us name is historical and kept because the baseline gates it; it
// times the word-at-a-time path.)
void RunHybridSweep() {
  Title("Figure 3(c) supplement — AND loop: hybrid containers vs words");
  PaperNote(
      "0.1% row is inside the 1/256 seal-time threshold (the regime the "
      "engine hybrid-encodes) and feeds the gated histograms; the 1% row "
      "sits above the cutoff and documents why it is where it is");
  Row({"density", "words", "hybrid", "speedup"});

  // Fixed floor keeps the committed baseline comparable across
  // COLGRAPH_SCALE settings: the AND loop cost is set by the bitmap
  // length, not the workload size. 1M records matches the paper's fig3
  // regime — long enough that the word loop's O(num_records) cost
  // dominates the compressed path's per-container overhead.
  const size_t num_records = std::max<size_t>(Scaled(2000000), 1000000);
  constexpr size_t kColumns = 8;
  constexpr size_t kSamples = 24;   // recorded histogram samples per path
  constexpr size_t kBatch = 24;     // ANDs per sample: lifts sample means
                                    // past bench_compare's noise floor
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();

  for (const double density : {0.01, 0.001}) {
    // Histograms only cover the in-regime density: above the cutoff the
    // engine never picks hybrid, so gating that row would track a code
    // path production doesn't run.
    const bool in_regime =
        density * static_cast<double>(BitmapColumn::kHybridDensityDivisor) <=
        1.0;
    Rng rng(20260808);
    std::vector<Bitmap> plain;
    std::vector<HybridBitmap> hybrid;
    for (size_t c = 0; c < kColumns; ++c) {
      Bitmap bits(num_records);
      for (size_t i = 0; i < num_records; ++i) {
        if (rng.Bernoulli(density)) bits.Set(i);
      }
      hybrid.push_back(HybridBitmap::FromBitmap(bits));
      plain.push_back(std::move(bits));
    }

    // Correctness witness outside the timed region: both paths must
    // produce the same conjunction.
    {
      Bitmap expect = plain[0];
      expect.And(plain[1]);
      expect.And(plain[2]);
      expect.And(plain[3]);
      HybridBitmap running = HybridBitmap::And(hybrid[0], hybrid[1]);
      running = HybridBitmap::And(running, hybrid[2]);
      running = HybridBitmap::And(running, hybrid[3]);
      if (!(running.ToBitmap() == expect)) std::abort();
    }

    uint64_t words_total_us = 0;
    uint64_t hybrid_total_us = 0;
    uint64_t sink_words = 0;  // O(1) observable keeps the loops live
    uint64_t sink_hybrid = 0;
    for (size_t s = 0; s < kSamples; ++s) {
      Stopwatch sw;
      for (size_t b = 0; b < kBatch; ++b) {
        const size_t base = (s * kBatch + b) % kColumns;
        Bitmap result = plain[base];
        result.And(plain[(base + 1) % kColumns]);
        result.And(plain[(base + 2) % kColumns]);
        result.And(plain[(base + 3) % kColumns]);
        sink_words += result.words().back();
      }
      const uint64_t words_us = sw.ElapsedMicros();
      if (in_regime) reg.GetHistogram("fig3c.and.ewah_us").Record(words_us);
      words_total_us += words_us;

      sw.Restart();
      for (size_t b = 0; b < kBatch; ++b) {
        const size_t base = (s * kBatch + b) % kColumns;
        HybridBitmap running =
            HybridBitmap::And(hybrid[base], hybrid[(base + 1) % kColumns]);
        running = HybridBitmap::And(running, hybrid[(base + 2) % kColumns]);
        running = HybridBitmap::And(running, hybrid[(base + 3) % kColumns]);
        const Bitmap materialized = running.ToBitmap();
        sink_hybrid += materialized.words().back();
      }
      const uint64_t hybrid_us = sw.ElapsedMicros();
      if (in_regime) reg.GetHistogram("fig3c.and.hybrid_us").Record(hybrid_us);
      hybrid_total_us += hybrid_us;
    }
    // Paired loops over identical operands: any divergence is a bug.
    if (sink_words != sink_hybrid) std::abort();

    const double speedup =
        hybrid_total_us > 0
            ? static_cast<double>(words_total_us) /
                  static_cast<double>(hybrid_total_us)
            : 0.0;
    Row({Fmt(density * 100, 1) + "%",
         Fmt(static_cast<double>(words_total_us) / 1e6) + "s",
         Fmt(static_cast<double>(hybrid_total_us) / 1e6) + "s",
         Fmt(speedup, 1) + "x"});
  }
}

}  // namespace
}  // namespace colgraph::bench

int main(int argc, char** argv) {
  const size_t threads = colgraph::bench::ThreadCount(argc, argv);
  colgraph::bench::Run(threads, colgraph::bench::QueryLogPath(argc, argv),
                       colgraph::bench::TimeoutMs(argc, argv));
  colgraph::bench::RunHybridSweep();
  colgraph::bench::WriteMetricsOut(colgraph::bench::MetricsOutPath(argc, argv),
                                   "fig3c_density", threads);
}
