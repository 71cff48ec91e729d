// Differential test of shredding against a reference: the ingest path as
// it stood before flattening numbered visits through a reused flat table
// and MasterRelation::AddRecord found duplicates with a stamp per edge id.
// The reference flattens through a std::unordered_map and checks a record
// for duplicates in a sorted copy of its ids, and it models the catalog
// (ids in first-seen order) and the relation (per column, the records and
// values it took) with plain containers, so it shares no code with the
// engine's ingest.
//
// Random walks of 1-200 nodes over small node alphabets go through
// ColGraphEngine::AddWalk, random GraphRecords with repeated edges through
// ColGraphEngine::AddRecord, and random (edge id, measure) records with
// repeated ids, some past the current column count, through
// MasterRelation::AddRecord. Each call must give the reference's status,
// message and record id; a rejected record must leave the record count
// and the column count as they were; and once sealed, the engine must
// hold the reference's catalog ids in the same order and, per column, the
// same presence bits and value bits. COLGRAPH_DIFF_ITERS scales the
// number of engines and relations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "columnstore/master_relation.h"
#include "core/engine.h"
#include "graph/flatten.h"

namespace colgraph {
namespace {

// --- The reference -------------------------------------------------------

std::vector<NodeRef> ReferenceFlattenWalk(const std::vector<NodeId>& walk) {
  std::vector<NodeRef> refs;
  refs.reserve(walk.size());
  std::unordered_map<NodeId, uint32_t> visits;
  for (NodeId n : walk) {
    uint32_t& count = visits[n];
    refs.push_back(NodeRef{n, count});
    ++count;
  }
  return refs;
}

std::vector<Edge> ReferenceWalkToEdges(const std::vector<NodeId>& walk) {
  const std::vector<NodeRef> refs = ReferenceFlattenWalk(walk);
  std::vector<Edge> edges;
  for (size_t i = 0; i + 1 < refs.size(); ++i) {
    edges.push_back(Edge{refs[i], refs[i + 1]});
  }
  return edges;
}

// A relation as per-column lists of (record, value).
struct ReferenceRelation {
  size_t num_records = 0;
  std::vector<std::vector<std::pair<RecordId, double>>> columns;

  StatusOr<RecordId> Add(
      const std::vector<std::pair<EdgeId, double>>& elements) {
    std::vector<EdgeId> ids;
    for (const auto& element : elements) ids.push_back(element.first);
    std::sort(ids.begin(), ids.end());
    const auto duplicate = std::adjacent_find(ids.begin(), ids.end());
    if (duplicate != ids.end()) {
      return Status::InvalidArgument("duplicate edge id " +
                                     std::to_string(*duplicate) +
                                     " in record; flatten cycles first");
    }
    const RecordId rid = num_records++;
    for (const auto& [id, value] : elements) {
      if (id >= columns.size()) columns.resize(size_t{id} + 1);
      columns[id].emplace_back(rid, value);
    }
    return rid;
  }
};

// The engine's ingest: a first-seen catalog in front of the relation.
struct ReferenceEngine {
  std::vector<Edge> catalog;
  std::map<Edge, EdgeId> ids;
  ReferenceRelation relation;

  StatusOr<RecordId> Shred(const std::vector<Edge>& elements,
                           const std::vector<double>& measures) {
    std::vector<std::pair<EdgeId, double>> shredded;
    for (size_t i = 0; i < elements.size(); ++i) {
      const auto [it, fresh] = ids.emplace(
          elements[i], static_cast<EdgeId>(catalog.size()));
      if (fresh) catalog.push_back(elements[i]);
      shredded.emplace_back(it->second, measures[i]);
    }
    return relation.Add(shredded);
  }

  StatusOr<RecordId> AddRecord(const GraphRecord& record) {
    if (record.elements.size() != record.measures.size()) {
      return Status::InvalidArgument(
          "record elements/measures size mismatch for record " +
          std::to_string(record.id));
    }
    return Shred(record.elements, record.measures);
  }

  StatusOr<RecordId> AddWalk(const std::vector<NodeId>& walk,
                             const std::vector<double>& measures) {
    if (walk.size() < 2) {
      return Status::InvalidArgument("a walk needs at least two nodes");
    }
    if (measures.size() != walk.size() - 1) {
      return Status::InvalidArgument("a walk of n nodes needs n-1 measures");
    }
    return Shred(ReferenceWalkToEdges(walk), measures);
  }
};

// --- Comparison ----------------------------------------------------------

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameResult(const StatusOr<RecordId>& got,
                      const StatusOr<RecordId>& want, const std::string& what) {
  ASSERT_EQ(got.status().code(), want.status().code())
      << what << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  EXPECT_EQ(got.status().message(), want.status().message()) << what;
  if (want.ok()) {
    EXPECT_EQ(*got, *want) << what;
  }
}

// `relation` is sealed.
void ExpectSameColumns(const MasterRelation& relation,
                       const ReferenceRelation& want) {
  ASSERT_EQ(relation.num_records(), want.num_records);
  ASSERT_EQ(relation.num_edge_columns(), want.columns.size());
  for (EdgeId e = 0; e < want.columns.size(); ++e) {
    const MeasureColumn& column = relation.PeekMeasureColumn(e);
    const auto& cells = want.columns[e];
    ASSERT_EQ(column.presence().size(), want.num_records) << "edge " << e;
    ASSERT_EQ(column.presence().Count(), cells.size()) << "edge " << e;
    ASSERT_EQ(column.num_values(), cells.size()) << "edge " << e;
    for (size_t k = 0; k < cells.size(); ++k) {
      EXPECT_TRUE(column.presence().Test(cells[k].first))
          << "edge " << e << " record " << cells[k].first;
      EXPECT_EQ(Bits(column.values()[k]), Bits(cells[k].second))
          << "edge " << e << " value " << k;
    }
  }
}

// --- Inputs --------------------------------------------------------------

size_t Iterations(size_t base) {
  const char* env = std::getenv("COLGRAPH_DIFF_ITERS");
  return env != nullptr ? static_cast<size_t>(std::strtoull(env, nullptr, 10))
                        : base;
}

double RandomMeasure(std::mt19937_64* rng) {
  switch ((*rng)() % 16) {
    case 0:
      return -0.0;
    case 1:
      return std::numeric_limits<double>::quiet_NaN();
    default:
      return std::uniform_real_distribution<double>(-100, 100)(*rng);
  }
}

// 1-200 nodes over an alphabet of 1-12 node ids (so most walks revisit
// nodes), now and then over 1,000 ids or with ids near the NodeId limit.
std::vector<NodeId> RandomWalk(std::mt19937_64* rng) {
  const size_t length = 1 + (*rng)() % 200;
  const size_t pick = (*rng)() % 8;
  const NodeId alphabet =
      pick == 0 ? 1000 : static_cast<NodeId>(1 + (*rng)() % 12);
  const NodeId base = pick == 1 ? ~NodeId{0} - alphabet : 0;
  std::vector<NodeId> walk(length);
  for (NodeId& n : walk) n = base + static_cast<NodeId>((*rng)() % alphabet);
  return walk;
}

std::vector<double> RandomMeasures(std::mt19937_64* rng, size_t walk_nodes) {
  size_t count = walk_nodes - 1;  // walks have at least one node
  switch ((*rng)() % 16) {
    case 0:
      ++count;  // one measure too many
      break;
    case 1:
      if (count > 0) --count;  // one too few
      break;
    default:
      break;
  }
  std::vector<double> measures(count);
  for (double& m : measures) m = RandomMeasure(rng);
  return measures;
}

// Edges among 4 nodes with up to 2 renamed visits each, so a 0-20 element
// record repeats an edge about as often as not, and its new edges grow
// the catalog past the relation's columns.
GraphRecord RandomRecord(std::mt19937_64* rng, RecordId id) {
  const auto node = [rng] {
    return NodeRef{static_cast<NodeId>((*rng)() % 4),
                   static_cast<uint32_t>((*rng)() % 3)};
  };
  GraphRecord record;
  record.id = id;
  const size_t length = (*rng)() % 21;
  for (size_t i = 0; i < length; ++i) {
    const NodeRef from = node();
    record.elements.push_back(Edge{from, (*rng)() % 4 == 0 ? from : node()});
    record.measures.push_back(RandomMeasure(rng));
  }
  if ((*rng)() % 16 == 0) record.measures.push_back(RandomMeasure(rng));
  return record;
}

// 0-20 elements whose ids lie up to 8 past the relation's columns.
std::vector<std::pair<EdgeId, double>> RandomElements(std::mt19937_64* rng,
                                                      size_t num_columns) {
  std::vector<std::pair<EdgeId, double>> elements((*rng)() % 21);
  for (auto& [id, value] : elements) {
    id = static_cast<EdgeId>((*rng)() % (num_columns + 8));
    value = RandomMeasure(rng);
  }
  return elements;
}

// --- Tests ---------------------------------------------------------------

TEST(ShredDifferentialTest, FlatteningMatchesTheMapBasedReference) {
  std::mt19937_64 rng(20140324);
  const size_t iterations = Iterations(400) * 10;
  for (size_t i = 0; i < iterations; ++i) {
    const std::vector<NodeId> walk = RandomWalk(&rng);
    ASSERT_EQ(FlattenWalk(walk), ReferenceFlattenWalk(walk)) << "walk " << i;
    ASSERT_EQ(WalkToEdges(walk), ReferenceWalkToEdges(walk)) << "walk " << i;
  }
}

TEST(ShredDifferentialTest, EngineIngestMatchesTheReference) {
  std::mt19937_64 rng(7);
  const size_t engines = Iterations(400);
  for (size_t round = 0; round < engines; ++round) {
    ColGraphEngine engine;
    ReferenceEngine want;
    const size_t ops = 1 + rng() % 40;
    for (size_t op = 0; op < ops; ++op) {
      const std::string what =
          "round " + std::to_string(round) + " op " + std::to_string(op);
      const size_t records = engine.num_records();
      const size_t columns = engine.relation().num_edge_columns();
      StatusOr<RecordId> got = Status::OK();
      StatusOr<RecordId> expected = Status::OK();
      if (rng() % 2 == 0) {
        const std::vector<NodeId> walk = RandomWalk(&rng);
        const std::vector<double> measures = RandomMeasures(&rng, walk.size());
        got = engine.AddWalk(walk, measures);
        expected = want.AddWalk(walk, measures);
      } else {
        const GraphRecord record = RandomRecord(&rng, op);
        got = engine.AddRecord(record);
        expected = want.AddRecord(record);
      }
      ExpectSameResult(got, expected, what);
      if (!got.ok()) {
        ASSERT_EQ(engine.num_records(), records) << what;
        ASSERT_EQ(engine.relation().num_edge_columns(), columns) << what;
      }
      ASSERT_EQ(engine.catalog().size(), want.catalog.size()) << what;
    }
    for (EdgeId id = 0; id < want.catalog.size(); ++id) {
      ASSERT_EQ(engine.catalog().edge(id), want.catalog[id])
          << "round " << round << " id " << id;
    }
    ASSERT_TRUE(engine.Seal().ok());
    ExpectSameColumns(engine.relation(), want.relation);
    if (HasFatalFailure()) return;
  }
}

TEST(ShredDifferentialTest, RelationAddRecordMatchesTheReference) {
  std::mt19937_64 rng(11);
  const size_t relations = Iterations(400);
  for (size_t round = 0; round < relations; ++round) {
    MasterRelation relation;
    ReferenceRelation want;
    const size_t ops = 1 + rng() % 40;
    for (size_t op = 0; op < ops; ++op) {
      const std::string what =
          "round " + std::to_string(round) + " op " + std::to_string(op);
      const size_t records = relation.num_records();
      const size_t columns = relation.num_edge_columns();
      const auto elements = RandomElements(&rng, columns);
      const StatusOr<RecordId> got = relation.AddRecord(elements);
      ExpectSameResult(got, want.Add(elements), what);
      if (!got.ok()) {
        ASSERT_EQ(relation.num_records(), records) << what;
        ASSERT_EQ(relation.num_edge_columns(), columns) << what;
      }
    }
    ASSERT_TRUE(relation.Seal().ok());
    ExpectSameColumns(relation, want);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace colgraph
