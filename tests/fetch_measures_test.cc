// QueryEngine::FetchMeasures against the per-record fetch it replaced, on
// the three relation shapes its paths serve: a primary relation alone, a
// primary plus two tail datasets whose bases are not word-aligned, and a
// vertically partitioned primary (partition_width = 2, Figure 5). The
// reference below is that per-record fetch, kept verbatim in behaviour:
// it routes rows the same way, builds the same per-partition partials and
// bumps the same FetchStats counters. Tables must match bit for bit (NaN
// for NULL, stored -0.0/NaN/inf unchanged) and every counter must move by
// the same amount on every relation. A match that is not a bitmap over
// exactly the collection's records fails a check, however the collection
// is segmented.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "columnstore/master_relation.h"
#include "graph/catalog.h"
#include "query/engine.h"
#include "util/random.h"

namespace colgraph {
namespace {

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

double RandomValue(Rng& rng) {
  static const uint64_t kSpecial[] = {
      0x8000000000000000ull, 0x7ff0000000000000ull, 0xfff0000000000000ull,
      0x7ff8000000000123ull, 0xfff8000000abcdefull, 0x7ff0000000000001ull};
  if (rng.Bernoulli(0.2)) {
    return FromBits(kSpecial[rng.Uniform(0, std::size(kSpecial) - 1)]);
  }
  return rng.UniformReal(-100, 100);
}

// `num_records` records over edge columns [0, num_edges); each edge is
// present with its own density, from never to always.
MasterRelation RandomRelation(Rng& rng, size_t num_records, size_t num_edges,
                              MasterRelationOptions options = {}) {
  std::vector<double> density(num_edges);
  for (double& d : density) {
    static const double kDensities[] = {0.0, 0.05, 0.3, 0.7, 1.0};
    d = kDensities[rng.Uniform(0, std::size(kDensities) - 1)];
  }
  MasterRelation rel(options);
  rel.EnsureColumns(num_edges);
  for (size_t r = 0; r < num_records; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId e = 0; e < num_edges; ++e) {
      if (rng.Bernoulli(density[e])) record.emplace_back(e, RandomValue(rng));
    }
    EXPECT_TRUE(rel.AddRecord(record).ok());
  }
  EXPECT_TRUE(rel.Seal().ok());
  return rel;
}

// The per-record fetch: one Get per value, rows routed to the segment
// that owns them, partitions assembled as separate partials.
MeasureTable ReferenceFetch(const MasterRelation& primary,
                            const std::vector<RelationSegment>& tails,
                            const Bitmap& matches,
                            const std::vector<EdgeId>& edges) {
  constexpr double kNull = std::numeric_limits<double>::quiet_NaN();
  MeasureTable table;
  table.edges = edges;
  matches.AppendSetBits(&table.records);
  table.columns.resize(edges.size());
  if (table.records.empty()) return table;
  FetchStats& stats = primary.stats();

  if (!tails.empty()) {
    std::vector<RelationSegment> segments{{&primary, 0}};
    segments.insert(segments.end(), tails.begin(), tails.end());
    for (auto& column : table.columns) {
      column.assign(table.records.size(), kNull);
    }
    size_t row = 0;
    for (const RelationSegment& seg : segments) {
      const size_t first = row;
      const size_t end = seg.base + seg.relation->num_records();
      while (row < table.records.size() && table.records[row] < end) ++row;
      if (row == first) continue;
      std::map<size_t, size_t> partitions;  // partition -> requested columns
      for (const EdgeId e : edges) ++partitions[seg.relation->PartitionOf(e)];
      stats.partitions_touched += partitions.size();
      if (partitions.size() > 1) stats.partition_joins += partitions.size() - 1;
      for (size_t i = 0; i < edges.size(); ++i) {
        const MeasureColumn* col = seg.relation->FindEdgeColumn(edges[i]);
        if (col == nullptr) continue;
        ++seg.relation->stats().measure_columns_fetched;
        for (size_t r = first; r < row; ++r) {
          const auto v = col->Get(table.records[r] - seg.base);
          if (v.has_value()) table.columns[i][r] = *v;
        }
        stats.values_fetched += row - first;
      }
    }
    return table;
  }

  std::map<size_t, std::vector<size_t>> by_partition;
  for (size_t i = 0; i < edges.size(); ++i) {
    by_partition[primary.PartitionOf(edges[i])].push_back(i);
  }
  stats.partitions_touched += by_partition.size();
  for (const auto& [partition, slots] : by_partition) {
    (void)partition;
    for (const size_t slot : slots) {
      const MeasureColumn& col = primary.PeekMeasureColumn(edges[slot]);
      ++stats.measure_columns_fetched;
      for (const RecordId r : table.records) {
        const auto v = col.Get(r);
        table.columns[slot].push_back(v.has_value() ? *v : kNull);
      }
      stats.values_fetched += table.records.size();
    }
  }
  if (by_partition.size() > 1) stats.partition_joins += by_partition.size() - 1;
  return table;
}

struct StatsSnapshot {
  uint64_t bitmaps, columns, values, partitions, joins;

  static StatsSnapshot Of(const MasterRelation& rel) {
    const FetchStats& s = rel.stats();
    return {s.bitmap_columns_fetched, s.measure_columns_fetched,
            s.values_fetched, s.partitions_touched, s.partition_joins};
  }
  StatsSnapshot Minus(const StatsSnapshot& o) const {
    return {bitmaps - o.bitmaps, columns - o.columns, values - o.values,
            partitions - o.partitions, joins - o.joins};
  }
  bool operator==(const StatsSnapshot& o) const {
    return bitmaps == o.bitmaps && columns == o.columns &&
           values == o.values && partitions == o.partitions &&
           joins == o.joins;
  }
};

std::vector<StatsSnapshot> Snapshot(
    const std::vector<const MasterRelation*>& rels) {
  std::vector<StatsSnapshot> out;
  for (const MasterRelation* rel : rels) out.push_back(StatsSnapshot::Of(*rel));
  return out;
}

std::vector<StatsSnapshot> Delta(const std::vector<StatsSnapshot>& after,
                                 const std::vector<StatsSnapshot>& before) {
  std::vector<StatsSnapshot> out;
  for (size_t i = 0; i < after.size(); ++i) {
    out.push_back(after[i].Minus(before[i]));
  }
  return out;
}

void ExpectTablesBitIdentical(const MeasureTable& want,
                              const MeasureTable& got) {
  ASSERT_EQ(want.records, got.records);
  ASSERT_EQ(want.edges, got.edges);
  ASSERT_EQ(want.columns.size(), got.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    ASSERT_EQ(want.columns[c].size(), got.columns[c].size()) << "column " << c;
    for (size_t r = 0; r < want.columns[c].size(); ++r) {
      ASSERT_EQ(Bits(want.columns[c][r]), Bits(got.columns[c][r]))
          << "column " << c << " row " << r;
    }
  }
}

Bitmap RandomMatches(Rng& rng, size_t num_records) {
  static const double kDensities[] = {0.0, 0.01, 0.2, 0.6, 1.0};
  const double density = kDensities[rng.Uniform(0, std::size(kDensities) - 1)];
  Bitmap matches(num_records);
  for (size_t r = 0; r < num_records; ++r) {
    if (rng.Bernoulli(density)) matches.Set(r);
  }
  return matches;
}

// Random edge lists over [0, num_edges): unsorted, of 0..6 edges.
std::vector<EdgeId> RandomEdges(Rng& rng, size_t num_edges) {
  std::vector<EdgeId> edges;
  const size_t n = rng.Uniform(0, 6);
  for (size_t i = 0; i < n; ++i) {
    edges.push_back(static_cast<EdgeId>(rng.Uniform(0, num_edges - 1)));
  }
  return edges;
}

// Drives `trials` random fetches through both and compares them.
void ExpectFetchesIdentical(Rng& rng, const MasterRelation& primary,
                            const std::vector<RelationSegment>& tails,
                            size_t num_edges, size_t trials) {
  const EdgeCatalog catalog;
  const QueryEngine engine(&primary, &catalog, nullptr, nullptr, &tails);
  std::vector<const MasterRelation*> rels{&primary};
  size_t total = primary.num_records();
  for (const RelationSegment& t : tails) {
    rels.push_back(t.relation);
    total += t.relation->num_records();
  }
  for (size_t trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Bitmap matches = RandomMatches(rng, total);
    const std::vector<EdgeId> edges = RandomEdges(rng, num_edges);

    const auto before_ref = Snapshot(rels);
    const MeasureTable want = ReferenceFetch(primary, tails, matches, edges);
    const auto ref_delta = Delta(Snapshot(rels), before_ref);

    const auto before = Snapshot(rels);
    const MeasureTable got = engine.FetchMeasures(matches, edges);
    const auto delta = Delta(Snapshot(rels), before);

    ExpectTablesBitIdentical(want, got);
    for (size_t i = 0; i < rels.size(); ++i) {
      EXPECT_TRUE(delta[i] == ref_delta[i]) << "FetchStats of relation " << i;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FetchMeasuresTest, PrimaryOnlyMatchesPerRecordFetch) {
  Rng rng(101);
  const MasterRelation primary = RandomRelation(rng, 1003, 12);
  ExpectFetchesIdentical(rng, primary, {}, 12, 200);
}

TEST(FetchMeasuresTest, TailsAtUnalignedBasesMatchPerRecordFetch) {
  Rng rng(202);
  // Bases 301 and 301 + 97: neither is a multiple of 64. The first tail
  // lacks the primary's last columns; the second grew two columns the
  // primary never had.
  const MasterRelation primary = RandomRelation(rng, 301, 10);
  const MasterRelation tail1 = RandomRelation(rng, 97, 7);
  const MasterRelation tail2 = RandomRelation(rng, 150, 12);
  const std::vector<RelationSegment> tails{{&tail1, 301}, {&tail2, 301 + 97}};
  ExpectFetchesIdentical(rng, primary, tails, 12, 200);
}

TEST(FetchMeasuresTest, PartitionedPrimaryMatchesPerRecordFetch) {
  Rng rng(303);
  MasterRelationOptions options;
  options.partition_width = 2;
  const MasterRelation primary = RandomRelation(rng, 517, 9, options);
  ExpectFetchesIdentical(rng, primary, {}, 9, 200);
}

// One bit too many or too few fails the check instead of fetching a row
// for a record that does not exist (or dropping one that does).
void ExpectWrongSizedMatchesDie(const QueryEngine& engine, size_t total) {
  for (const size_t size : {total - 1, total + 1, total + 3}) {
    SCOPED_TRACE("match of " + std::to_string(size) + " bits");
    Bitmap matches(size);
    matches.Set(3);
    matches.Set(size - 1);
    EXPECT_DEATH(engine.FetchMeasures(matches, {0, 1}), "Check failed");
  }
}

TEST(FetchMeasuresDeathTest, WrongSizedMatchFailsOnOneSegment) {
  Rng rng(404);
  const MasterRelation primary = RandomRelation(rng, 10, 3);
  const EdgeCatalog catalog;
  const QueryEngine engine(&primary, &catalog, nullptr);
  ExpectWrongSizedMatchesDie(engine, 10);
}

TEST(FetchMeasuresDeathTest, WrongSizedMatchFailsWithTails) {
  // A 10-record primary and a 5-record tail: an 18-bit match with bit 17
  // set names a record past the collection's 15.
  Rng rng(505);
  const MasterRelation primary = RandomRelation(rng, 10, 3);
  const MasterRelation tail = RandomRelation(rng, 5, 3);
  const std::vector<RelationSegment> tails{{&tail, 10}};
  const EdgeCatalog catalog;
  const QueryEngine engine(&primary, &catalog, nullptr, nullptr, &tails);
  ExpectWrongSizedMatchesDie(engine, 15);
}

}  // namespace
}  // namespace colgraph
