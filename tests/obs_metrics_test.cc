#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_writer.h"
#include "obs/trace.h"

namespace colgraph::obs {
namespace {

TEST(CounterTest, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(LatencyHistogramTest, PowerOfTwoBuckets) {
  LatencyHistogram h;
  h.Record(0);   // bucket 0: [0,1)
  h.Record(1);   // bucket 1: [1,2)
  h.Record(2);   // bucket 2: [2,4)
  h.Record(3);   // bucket 2
  h.Record(4);   // bucket 3: [4,8)
  h.Record(1000);  // bucket 10: [512,1024)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.total_micros(), 1010u);
  EXPECT_EQ(h.max_micros(), 1000u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
}

TEST(LatencyHistogramTest, HugeValueLandsInLastBucket) {
  LatencyHistogram h;
  h.Record(~uint64_t{0});
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kNumBuckets - 1), 1u);
}

TEST(LatencyHistogramTest, BucketUpperBoundsAreInclusive) {
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(2), 3u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(3), 7u);
}

TEST(LatencyHistogramTest, ApproxQuantiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.ApproxQuantileMicros(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.Record(1);    // bucket 1, le 1
  for (int i = 0; i < 10; ++i) h.Record(100);  // bucket 7, le 127
  EXPECT_EQ(h.ApproxQuantileMicros(0.50), 1u);
  EXPECT_EQ(h.ApproxQuantileMicros(0.90), 1u);
  // Upper quantiles clamp to the observed max: the p99 of {1 x90, 100 x10}
  // must never report 127 (bucket 7's bound), a value no request hit.
  EXPECT_EQ(h.ApproxQuantileMicros(0.99), 100u);
  EXPECT_EQ(h.ApproxQuantileMicros(0.0), 1u);  // clamped to rank 1
  EXPECT_EQ(h.ApproxQuantileMicros(1.0), 100u);
}

TEST(LatencyHistogramTest, QuantileNeverExceedsObservedMax) {
  // Regression: a single sample must report itself — not its bucket's
  // upper bound — at every quantile.
  LatencyHistogram h;
  h.Record(1000);  // bucket le 1023
  EXPECT_EQ(h.ApproxQuantileMicros(0.50), 1000u);
  EXPECT_EQ(h.ApproxQuantileMicros(0.99), 1000u);
  EXPECT_EQ(h.ApproxQuantileMicros(1.0), 1000u);
}

TEST(LatencyHistogramTest, ToJsonEmitsBucketBoundsWithCounts) {
  LatencyHistogram h;
  for (int i = 0; i < 3; ++i) h.Record(2);  // bucket le 3
  h.Record(100);                            // bucket le 127
  const std::string json = h.ToJson();
  // Every occupied bucket pairs its inclusive upper bound with its count —
  // a collector can rebuild the distribution without knowing the bucket
  // layout. Empty buckets are omitted.
  EXPECT_NE(json.find("{\"le_us\":3,\"count\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le_us\":127,\"count\":1}"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"le_us\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_us\":100"), std::string::npos) << json;
}

TEST(LatencyHistogramTest, ResetZeroesEverything) {
  LatencyHistogram h;
  h.Record(10);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.total_micros(), 0u);
  EXPECT_EQ(h.max_micros(), 0u);
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    EXPECT_EQ(h.bucket_count(b), 0u);
  }
}

TEST(MetricsRegistryTest, ReferencesAreStable) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("a");
  // Registering many more metrics must not move `a` (node-based map).
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.GetCounter(name).Increment();
  }
  Counter& a_again = registry.GetCounter("a");
  EXPECT_EQ(&a, &a_again);
  a.Increment();
  EXPECT_EQ(a_again.value(), 1u);
}

TEST(MetricsRegistryTest, ToJsonRendersAllThreeKinds) {
  MetricsRegistry registry;
  registry.GetCounter("queries.count").Add(7);
  registry.GetGauge("pool.size").Set(-2);
  registry.GetHistogram("lat_us").Record(3);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"queries.count\":7}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pool.size\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_us\":{\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"le_us\":3,\"count\":1"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ResetKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("x");
  c.Add(5);
  registry.GetHistogram("h").Record(9);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(registry.GetHistogram("h").count(), 0u);
  EXPECT_EQ(&c, &registry.GetCounter("x"));
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsSafe) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("hot");
  LatencyHistogram& h = registry.GetHistogram("hot_us");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Record(static_cast<uint64_t>(i % 7));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(SpanTest, RecordsIntoHistogramAndTrace) {
  const LatencyHistogram& h = PhaseHistogram(Phase::kMaterialize);
  const uint64_t before = h.count();
  Trace trace;
  { const Span span(Phase::kMaterialize, &trace); }
  { const Span span(Phase::kMaterialize, nullptr); }
  // Every span feeds its phase's histogram; only an attached trace gets
  // the event.
  EXPECT_EQ(h.count(), before + 2);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, Phase::kMaterialize);
}

TEST(TraceTest, EventsAreRelativeToTraceOrigin) {
  Trace trace;
  trace.Add(Phase::kResolve, NowMicros(), 5);
  trace.Add(Phase::kQueueWait, 0, 7);  // before the origin: clamped to 0
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].duration_us, 5u);
  EXPECT_EQ(events[1].start_us, 0u);
  // Started after the trace itself: the relative offset is sane (< 1 min).
  EXPECT_LT(events[0].start_us, 60u * 1000 * 1000);
}

TEST(TraceTest, ToJsonListsEvents) {
  Trace trace;
  trace.Add(Phase::kResolve, NowMicros(), 1);
  trace.Add(Phase::kFetch, NowMicros(), 2);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"resolve\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"fetch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"duration_us\":2"), std::string::npos) << json;
}

TEST(PhaseTest, NamesAndHistogramsAreStable) {
  // The whole taxonomy, in enum order: trace event names (echoed traces,
  // slow-query records) and histogram names (STATS, metric dumps) are read
  // by consumers outside the process and must not drift.
  struct Golden {
    Phase phase;
    const char* name;
    const char* histogram;
  };
  const Golden golden[] = {
      {Phase::kResolve, "resolve", "query.phase.resolve_us"},
      {Phase::kRewrite, "rewrite", "query.phase.rewrite_us"},
      {Phase::kBitmapAnd, "bitmap_and", "query.phase.bitmap_and_us"},
      {Phase::kFetch, "fetch", "query.phase.fetch_us"},
      {Phase::kAggregate, "aggregate", "query.phase.aggregate_us"},
      {Phase::kQueueWait, "queue_wait", "server.phase.queue_wait_us"},
      {Phase::kAdmission, "admission", "server.phase.admission_us"},
      {Phase::kDecode, "decode", "server.phase.decode_us"},
      {Phase::kEvaluate, "evaluate", "server.phase.evaluate_us"},
      {Phase::kEncode, "encode", "server.phase.encode_us"},
      {Phase::kWrite, "write", "server.phase.write_us"},
      {Phase::kGraphQuery, "graph_query", "query.graph.total_us"},
      {Phase::kAggQuery, "agg_query", "query.agg.total_us"},
      {Phase::kBatch, "batch", "query.batch.total_us"},
      {Phase::kMaterialize, "materialize", "views.materialize_us"},
      {Phase::kStoreSeal, "store_seal", "store.seal_us"},
      {Phase::kStoreCompaction, "store_compaction", "store.compaction_us"},
      {Phase::kServerCompaction, "server_compaction", "server.compaction_us"},
      {Phase::kCrcPrefault, "crc_prefault", "io.crc_prefault_us"},
  };
  ASSERT_EQ(std::size(golden), kNumPhases);
  std::set<std::string> names;
  std::set<const LatencyHistogram*> histograms;
  for (size_t p = 0; p < kNumPhases; ++p) {
    SCOPED_TRACE(golden[p].name);
    EXPECT_EQ(static_cast<size_t>(golden[p].phase), p);
    EXPECT_STREQ(PhaseName(golden[p].phase), golden[p].name);
    EXPECT_EQ(&PhaseHistogram(golden[p].phase),
              &MetricsRegistry::Global().GetHistogram(golden[p].histogram));
    names.insert(PhaseName(golden[p].phase));
    histograms.insert(&PhaseHistogram(golden[p].phase));
  }
  EXPECT_EQ(names.size(), kNumPhases);
  EXPECT_EQ(histograms.size(), kNumPhases);
}

TEST(JsonWriterTest, NestedContainersAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.Int(1);
  w.Key("b");
  w.BeginArray();
  w.Uint(2);
  w.String("x");
  w.Bool(false);
  w.BeginObject();
  w.EndObject();
  w.EndArray();
  w.Key("c");
  w.Double(0.5);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[2,\"x\",false,{}],\"c\":0.5}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("quote\"backslash\\");
  w.String("line\nfeed\tcontrol\x01");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"quote\\\"backslash\\\\\":\"line\\nfeed\\tcontrol\\u0001\"}");
}

TEST(JsonWriterTest, RawSplicesPreRenderedJson) {
  JsonWriter w;
  w.BeginObject();
  w.Key("inner");
  w.Raw("{\"n\":1}");
  w.Key("after");
  w.Int(2);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"inner\":{\"n\":1},\"after\":2}");
}

}  // namespace
}  // namespace colgraph::obs
