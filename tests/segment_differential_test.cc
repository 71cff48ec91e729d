// Segment-axis differential: a collection split into 1-4 sealed segments
// (the primary plus tail datasets, DESIGN.md §14) must answer every query
// bit for bit like the same collection in one relation with the same
// views. Views are per-record functions, so per-segment view columns laid
// end to end are the views over the whole collection, and no answer may
// depend on where the segments begin.
//
// Collections are seeded and random: records over node measures and the
// forward edges i->i+1 and i->i+2 of nodes 0..7, with NULL node measures,
// stored NaN payloads, -0.0 and infinities. Graph views and aggregate
// views of every function, some starting mid-path, go in partly before
// and partly after the tails are attached. Segments begin at bases that
// are not multiples of 64; some tails lack columns the primary has, and
// the edge 6->7 and the measures of nodes 6 and 7 first appear in a tail.
//
// Every layout is checked three times: attached, after Compact(), and
// after a store round trip (each tail sealed into a DatasetStore, merged
// by CompactAll, loaded back and swapped in for the tails). Each check runs
// Match, EXPLAIN, RunGraphQuery, FetchMeasures, RunAggregateQuery and
// AggregateAlongPath for every AggFn with views on and off. Results must
// equal the single relation's bit for bit (a NaN result only has to be a
// NaN, as in fold_differential_test), and match sets and EXPLAIN's
// matched_records must equal a naive subset test over the records.
// COLGRAPH_DIFF_ITERS scales the query count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "columnstore/dataset.h"
#include "core/engine.h"
#include "util/random.h"

namespace colgraph {
namespace {

constexpr NodeId kNumNodes = 8;
constexpr AggFn kAllFns[] = {AggFn::kSum, AggFn::kCount, AggFn::kMin,
                             AggFn::kMax, AggFn::kAvg};

size_t IterationsFromEnv(size_t default_iters) {
  const char* s = std::getenv("COLGRAPH_DIFF_ITERS");
  if (s == nullptr) return default_iters;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(v));
  return u;
}

double FromBits(uint64_t u) {
  double v = 0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

NodeRef N(NodeId id) { return NodeRef{id, 0}; }

double RandomValue(Rng& rng) {
  static const uint64_t kSpecial[] = {
      0x8000000000000000ull,  // -0.0
      0x7ff0000000000000ull,  // +inf
      0xfff0000000000000ull,  // -inf
      0x7ff8000000000000ull,  // the quiet NaN a NULL gathers as
      0x7ff8000000000123ull,  // quiet NaN with a payload
  };
  if (rng.Bernoulli(0.05)) {
    return FromBits(kSpecial[rng.Uniform(0, std::size(kSpecial) - 1)]);
  }
  return rng.UniformReal(-100, 100);
}

// Elements that first appear in a tail: no view names them, and the
// primary (in a layout with tails) has no column for them.
bool IsLate(const Edge& e) {
  return e == Edge{N(6), N(6)} || e == Edge{N(7), N(7)} ||
         e == Edge{N(6), N(7)};
}

// A random path of 1..6 nodes along the forward edges.
std::vector<NodeRef> RandomNodes(Rng& rng) {
  std::vector<NodeRef> nodes{
      N(static_cast<NodeId>(rng.Uniform(0, kNumNodes - 1)))};
  const size_t length = rng.Uniform(0, 5);
  while (nodes.size() <= length) {
    const NodeId next = nodes.back().base + (rng.Bernoulli(0.7) ? 1 : 2);
    if (next >= kNumNodes) break;
    nodes.push_back(N(next));
  }
  return nodes;
}

// A seeded collection split into segments, plus the views every engine
// built from it carries.
struct Collection {
  std::vector<GraphRecord> records;
  std::vector<size_t> starts;  // first record of each segment, then the end
  std::vector<GraphViewDef> graph_views;
  std::vector<AggViewDef> agg_views;

  size_t num_segments() const { return starts.size() - 1; }
};

// Segment starts: the primary, then `num_segments - 1` tails of 40-299
// records each, none starting at a multiple of 64.
std::vector<size_t> RandomStarts(Rng& rng, size_t num_segments) {
  std::vector<size_t> starts{0};
  size_t next = 0;
  for (size_t s = 0; s < num_segments; ++s) {
    do {
      next = starts.back() + rng.Uniform(40, 299);
    } while (next % 64 == 0);
    starts.push_back(next);
  }
  return starts;
}

Collection MakeCollection(Rng& rng, size_t num_segments) {
  Collection c;
  c.starts = RandomStarts(rng, num_segments);

  std::vector<Edge> early, late;
  for (NodeId i = 0; i < kNumNodes; ++i) {
    for (const Edge& e : {Edge{N(i), N(i)}, Edge{N(i), N(i + 1)},
                          Edge{N(i), N(i + 2)}}) {
      if (e.to.base >= kNumNodes) continue;
      (IsLate(e) ? late : early).push_back(e);
    }
  }
  rng.Shuffle(&early);
  // Record 0 holds every early element, so edge id i is early[i] in every
  // engine built from the records in order; late elements take the ids
  // after them, in a tail's records.
  const size_t late_segment =
      num_segments == 1 ? 0 : rng.Uniform(1, num_segments - 1);
  for (size_t s = 0; s < num_segments; ++s) {
    // Some tails hold only the lowest-id columns: they lack columns the
    // primary and the views have.
    size_t width = early.size();
    if (s > 0 && rng.Bernoulli(0.4)) width = rng.Uniform(early.size() / 2,
                                                          early.size() - 1);
    const bool with_late = s >= late_segment && width == early.size();
    for (size_t r = c.starts[s]; r < c.starts[s + 1]; ++r) {
      GraphRecord record;
      record.id = r;
      const auto add = [&](const Edge& e) {
        if (r == 0 || rng.Bernoulli(e.IsNode() ? 0.6 : 0.75)) {
          record.elements.push_back(e);
          record.measures.push_back(RandomValue(rng));
        }
      };
      for (size_t i = 0; i < width; ++i) add(early[i]);
      if (with_late && r > 0) {
        for (const Edge& e : late) add(e);
      }
      c.records.push_back(std::move(record));
    }
  }

  // Views name early elements only, by id: their position in record 0.
  const auto id_of = [&](const Edge& e) {
    return static_cast<EdgeId>(
        std::find(early.begin(), early.end(), e) - early.begin());
  };
  for (size_t v = 0; v < 6; ++v) {
    const Path path(RandomNodes(rng));
    std::vector<EdgeId> ids;
    for (const Edge& e : path.Edges()) {
      if (!IsLate(e)) ids.push_back(id_of(e));
    }
    if (!ids.empty()) c.graph_views.push_back(GraphViewDef::Make(ids));
  }
  for (size_t v = 0; v < 12; ++v) {
    const Path path(RandomNodes(rng), rng.Bernoulli(0.5), rng.Bernoulli(0.5));
    std::vector<EdgeId> elements;
    for (const Edge& e : path.Elements()) {
      if (IsLate(e)) break;
      elements.push_back(id_of(e));
    }
    // Half the views start mid-path: the rewrite then folds atoms first.
    const size_t first =
        elements.size() > 2 && rng.Bernoulli(0.5)
            ? rng.Uniform(1, elements.size() - 2)
            : 0;
    if (elements.size() - first < 2) continue;
    AggViewDef def;
    def.elements.assign(elements.begin() + static_cast<ptrdiff_t>(first),
                        elements.end());
    def.fn = kAllFns[rng.Uniform(0, std::size(kAllFns) - 1)];
    c.agg_views.push_back(std::move(def));
  }
  return c;
}

// Materializes the collection's views [from, to) of each kind.
void MaterializeViews(const Collection& c, double from, double to,
                      ColGraphEngine* engine) {
  const auto range = [&](size_t n) {
    return std::make_pair(static_cast<size_t>(from * static_cast<double>(n)),
                          static_cast<size_t>(to * static_cast<double>(n)));
  };
  const auto [g0, g1] = range(c.graph_views.size());
  for (size_t v = g0; v < g1; ++v) {
    ASSERT_TRUE(engine->MaterializeView(c.graph_views[v]).ok());
  }
  const auto [a0, a1] = range(c.agg_views.size());
  for (size_t v = a0; v < a1; ++v) {
    ASSERT_TRUE(engine->MaterializeView(c.agg_views[v]).ok());
  }
}

ColGraphEngine BuildSingle(const Collection& c) {
  ColGraphEngine engine;
  for (const GraphRecord& record : c.records) {
    EXPECT_TRUE(engine.AddRecord(record).ok());
  }
  EXPECT_TRUE(engine.Seal().ok());
  MaterializeViews(c, 0, 1, &engine);
  return engine;
}

// The primary takes half the views before the tails are attached; the
// other half goes to every segment afterwards.
ColGraphEngine BuildSegmented(const Collection& c) {
  ColGraphEngine engine;
  for (size_t r = 0; r < c.starts[1]; ++r) {
    EXPECT_TRUE(engine.AddRecord(c.records[r]).ok());
  }
  EXPECT_TRUE(engine.Seal().ok());
  MaterializeViews(c, 0, 0.5, &engine);
  for (size_t s = 1; s < c.num_segments(); ++s) {
    const std::vector<GraphRecord> records(
        c.records.begin() + static_cast<ptrdiff_t>(c.starts[s]),
        c.records.begin() + static_cast<ptrdiff_t>(c.starts[s + 1]));
    auto tail = engine.BuildTailRelation(records);
    EXPECT_TRUE(tail.ok()) << tail.status().ToString();
    EXPECT_TRUE(engine
                    .AttachDataset(std::make_shared<const MasterRelation>(
                        std::move(tail).value()))
                    .ok());
  }
  MaterializeViews(c, 0.5, 1, &engine);
  return engine;
}

// The store round trip: every tail sealed into a DatasetStore, merged by
// CompactAll, loaded back, given the views and swapped in for the tails.
ColGraphEngine ReloadTails(const ColGraphEngine& segmented,
                           const std::string& dir) {
  std::filesystem::remove_all(dir);
  ColGraphEngine reloaded = segmented.SharedCopy();
  auto store = DatasetStore::Open(dir);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return reloaded;
  for (const auto& tail : segmented.tails()) {
    EXPECT_TRUE(store->Seal(*tail).ok());
  }
  EXPECT_TRUE(store->CompactAll().ok());
  auto loaded = store->LoadAll();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return reloaded;
  std::vector<std::shared_ptr<const MasterRelation>> tails;
  for (MasterRelation& dataset : loaded.value()) {
    auto tail = reloaded.BuildTailRelation(std::move(dataset));
    EXPECT_TRUE(tail.ok()) << tail.status().ToString();
    if (!tail.ok()) return reloaded;
    tails.push_back(std::make_shared<const MasterRelation>(std::move(*tail)));
  }
  EXPECT_EQ(tails.size(), segmented.tails().empty() ? 0u : 1u);
  EXPECT_TRUE(
      reloaded.ReplaceTails(reloaded.tails().size(), std::move(tails)).ok());
  std::filesystem::remove_all(dir);
  return reloaded;
}

// The naive oracle: a record matches when it holds every element the query
// constrains — its edges, and the measure of each isolated node that some
// record has (one that none has is unconstrained, as in Resolve).
std::vector<RecordId> OracleMatch(const Collection& c,
                                  const GraphQuery& query) {
  const DirectedGraph& g = query.graph();
  std::vector<Edge> required = g.edges();
  for (const NodeRef& n : g.nodes()) {
    if (g.OutDegree(n) != 0 || g.InDegree(n) != 0) continue;
    const Edge measure{n, n};
    for (const GraphRecord& r : c.records) {
      if (std::find(r.elements.begin(), r.elements.end(), measure) !=
          r.elements.end()) {
        required.push_back(measure);
        break;
      }
    }
  }
  std::vector<RecordId> matches;
  for (const GraphRecord& r : c.records) {
    bool all = true;
    for (const Edge& e : required) {
      all &= std::find(r.elements.begin(), r.elements.end(), e) !=
             r.elements.end();
    }
    if (all) matches.push_back(r.id);
  }
  return matches;
}

// A query of one path, or of two paths from one node (a DAG with two
// maximal paths).
GraphQuery RandomQuery(Rng& rng) {
  DirectedGraph graph;
  const std::vector<NodeRef> first = RandomNodes(rng);
  for (size_t i = 0; i + 1 < first.size(); ++i) {
    graph.AddEdge(first[i], first[i + 1]);
  }
  if (first.size() == 1) graph.AddNode(first.front());
  if (first.size() >= 2 && rng.Bernoulli(0.4)) {
    const NodeId from = first.front().base;
    if (from + 2 < kNumNodes) {
      const NodeId other = first[1].base == from + 1 ? from + 2 : from + 1;
      graph.AddEdge(first.front(), N(other));
    }
  }
  return GraphQuery(std::move(graph));
}

// Bit for bit, -0.0 included, except that a NaN only has to be a NaN.
void ExpectSameValues(const std::vector<double>& want,
                      const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    ASSERT_EQ(Bits(want[i]), Bits(got[i])) << "row " << i;
  }
}

void ExpectSameTables(const MeasureTable& want, const MeasureTable& got) {
  ASSERT_EQ(want.records, got.records);
  ASSERT_EQ(want.edges, got.edges);
  ASSERT_EQ(want.columns.size(), got.columns.size());
  for (size_t i = 0; i < want.columns.size(); ++i) {
    SCOPED_TRACE("column " + std::to_string(i));
    ExpectSameValues(want.columns[i], got.columns[i]);
  }
}

void ExpectSameAggregates(const StatusOr<PathAggResult>& want,
                          const StatusOr<PathAggResult>& got) {
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(want->records, got->records);
  ASSERT_EQ(want->paths.size(), got->paths.size());
  ASSERT_EQ(want->values.size(), got->values.size());
  for (size_t p = 0; p < want->values.size(); ++p) {
    SCOPED_TRACE("path " + std::to_string(p));
    ExpectSameValues(want->values[p], got->values[p]);
  }
}

void ExpectSameExplains(const obs::ExplainResult& want,
                        const obs::ExplainResult& got) {
  ASSERT_EQ(want.sources.size(), got.sources.size());
  for (size_t i = 0; i < want.sources.size(); ++i) {
    EXPECT_EQ(want.sources[i].source.kind, got.sources[i].source.kind);
    EXPECT_EQ(want.sources[i].source.index, got.sources[i].source.index);
    EXPECT_EQ(want.sources[i].estimated_cardinality,
              got.sources[i].estimated_cardinality);
    EXPECT_EQ(want.sources[i].cumulative_cardinality,
              got.sources[i].cumulative_cardinality);
  }
  EXPECT_EQ(want.matched_records, got.matched_records);
}

// Every query entry point of `got` against the single relation `want` and
// the oracle.
void ExpectSameAnswers(const Collection& c, const ColGraphEngine& want,
                       const ColGraphEngine& got, uint64_t seed,
                       size_t queries) {
  ASSERT_EQ(want.num_records(), got.total_records());
  Rng rng(seed);
  for (size_t q = 0; q < queries; ++q) {
    const GraphQuery query = RandomQuery(rng);
    const Path path(RandomNodes(rng), rng.Bernoulli(0.5), rng.Bernoulli(0.5));
    SCOPED_TRACE("query " + std::to_string(q) + ", path " + path.ToString());
    const std::vector<RecordId> oracle = OracleMatch(c, query);
    for (const bool use_views : {false, true}) {
      SCOPED_TRACE(use_views ? "views on" : "views off");
      QueryOptions options;
      options.use_views = use_views;

      const Bitmap matches = got.Match(query, options);
      ASSERT_EQ(want.Match(query, options), matches);
      ASSERT_EQ(matches.ToVector(), oracle);
      const obs::ExplainResult explain = got.Explain(query, options);
      EXPECT_EQ(explain.matched_records, oracle.size());
      ExpectSameExplains(want.Explain(query, options), explain);

      const auto table = got.RunGraphQuery(query, options);
      const auto want_table = want.RunGraphQuery(query, options);
      ASSERT_TRUE(table.ok() && want_table.ok());
      ExpectSameTables(*want_table, *table);

      // A fetch of any columns, those some segments lack included.
      std::vector<EdgeId> edges;
      for (size_t i = rng.Uniform(0, 4); i > 0; --i) {
        edges.push_back(
            static_cast<EdgeId>(rng.Uniform(0, want.catalog().size() - 1)));
      }
      ExpectSameTables(want.query_engine().FetchMeasures(matches, edges),
                       got.query_engine().FetchMeasures(matches, edges));

      for (const AggFn fn : kAllFns) {
        SCOPED_TRACE(AggFnName(fn));
        ExpectSameAggregates(want.RunAggregateQuery(query, fn, options),
                             got.RunAggregateQuery(query, fn, options));
        ExpectSameAggregates(want.AggregateAlongPath(path, fn, options),
                             got.AggregateAlongPath(path, fn, options));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

class SegmentDifferentialTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(
    Segments, SegmentDifferentialTest, ::testing::Values(1, 2, 3, 4),
    [](const ::testing::TestParamInfo<size_t>& segments) {
      return std::to_string(segments.param) + "Segments";
    });

TEST_P(SegmentDifferentialTest, AnswersEqualOneRelation) {
  const size_t num_segments = GetParam();
  const size_t queries = IterationsFromEnv(12);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 1000 + num_segments);
    const Collection c = MakeCollection(rng, num_segments);
    const ColGraphEngine single = BuildSingle(c);
    const ColGraphEngine segmented = BuildSegmented(c);
    ASSERT_EQ(segmented.tails().size(), num_segments - 1);
    ASSERT_FALSE(::testing::Test::HasFailure());
    {
      SCOPED_TRACE("attached");
      ExpectSameAnswers(c, single, segmented, seed, queries);
    }
    {
      SCOPED_TRACE("compacted");
      ColGraphEngine compacted = segmented.SharedCopy();
      ASSERT_TRUE(compacted.Compact().ok());
      ASSERT_TRUE(compacted.tails().empty());
      ExpectSameAnswers(c, single, compacted, seed, queries);
    }
    {
      SCOPED_TRACE("store round trip");
      const ColGraphEngine reloaded = ReloadTails(
          segmented, ::testing::TempDir() + "colgraph_segment_diff_" +
                         std::to_string(num_segments));
      ExpectSameAnswers(c, single, reloaded, seed, queries);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace colgraph
