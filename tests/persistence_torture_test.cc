// Corruption torture harness (see ISSUE 2 / DESIGN.md "Durability &
// failure model"): every byte-offset truncation and a seeded storm of
// bit-flip mutations of valid relation and engine snapshots must load as a
// clean Status::Corruption / IOError — never a crash, a hang, or silently
// wrong data. Runs under the ASan+UBSan preset in CI (ctest -L torture).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "columnstore/persistence.h"
#include "core/engine_io.h"
#include "util/random.h"

namespace colgraph {
namespace {

constexpr int kBitFlipMutations = 1000;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

MasterRelation MakeRelation() {
  Rng rng(4242);
  MasterRelation rel;
  for (size_t r = 0; r < 48; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId e = 0; e < 10; ++e) {
      if (rng.Bernoulli(0.3)) record.emplace_back(e, rng.UniformReal(-9, 9));
    }
    EXPECT_TRUE(rel.AddRecord(record).ok());
  }
  EXPECT_TRUE(rel.Seal().ok());
  return rel;
}

// Sparse enough that every presence column falls under the 1/256 hybrid
// threshold (each edge set in exactly one of 300 records), so the writer
// encodes from the hybrid sidecar rather than on the fly. Torture cost is
// quadratic in file size, so the relation stays tiny: this covers the
// array-container codec path; bitset/run payloads are exercised by the
// fuzzer and the differential harness.
MasterRelation MakeSparseHybridRelation() {
  Rng rng(929);
  MasterRelation rel;
  for (size_t r = 0; r < 300; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    if (r < 6) record.emplace_back(static_cast<EdgeId>(r), rng.UniformReal(-9, 9));
    EXPECT_TRUE(rel.AddRecord(record).ok());
  }
  EXPECT_TRUE(rel.Seal().ok());
  return rel;
}

size_t PageBytes() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }

// Packed extents carry no padding, so a multi-page image needs multi-page
// payloads: 40 columns at 30% density over 24 records per KiB of page
// (96 records, about 3.5 pages, on 4 KiB pages).
MasterRelation MakeMultiPageRelation() {
  Rng rng(4243);
  MasterRelation rel;
  for (size_t r = 0; r < 24 * PageBytes() / 1024; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId e = 0; e < 40; ++e) {
      if (rng.Bernoulli(0.3)) record.emplace_back(e, rng.UniformReal(-9, 9));
    }
    EXPECT_TRUE(rel.AddRecord(record).ok());
  }
  EXPECT_TRUE(rel.Seal().ok());
  return rel;
}

ColGraphEngine MakeEngine() {
  ColGraphEngine engine;
  Rng rng(777);
  for (int i = 0; i < 30; ++i) {
    std::vector<NodeId> walk;
    const size_t hops = 2 + rng.Uniform(0, 3);
    for (size_t h = 0; h <= hops; ++h) {
      walk.push_back(static_cast<NodeId>(rng.Uniform(1, 8)));
    }
    std::vector<double> measures(walk.size() - 1, 1.5);
    EXPECT_TRUE(engine.AddWalk(walk, measures).ok());
  }
  EXPECT_TRUE(engine.Seal().ok());
  AggViewDef agg;
  agg.elements = {0, 1};
  agg.fn = AggFn::kSum;
  EXPECT_TRUE(engine.MaterializeView(GraphViewDef::Make({0, 1})).ok());
  EXPECT_TRUE(engine.MaterializeView(agg).ok());
  return engine;
}

// Asserts that loading `path` fails cleanly: a Corruption or IOError
// status, never success (the process not crashing is implicit).
template <typename LoadFn>
void ExpectCleanFailure(const LoadFn& load, const std::string& path,
                        const std::string& context) {
  const Status st = load(path);
  ASSERT_FALSE(st.ok()) << "corrupt snapshot loaded successfully: " << context;
  ASSERT_TRUE(st.IsCorruption() || st.IsIOError())
      << context << ": " << st.ToString();
}

// Truncates the snapshot at every byte offset and bit-flips it
// kBitFlipMutations times; every load must fail cleanly.
template <typename LoadFn>
void TortureFile(const std::string& valid_path, const LoadFn& load) {
  const std::string bytes = ReadFileBytes(valid_path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string mutant_path = valid_path + ".mutant";

  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(mutant_path, bytes.substr(0, len));
    ExpectCleanFailure(load, mutant_path,
                       "truncated to " + std::to_string(len) + " of " +
                           std::to_string(bytes.size()) + " bytes");
  }

  Rng rng(20260806);
  for (int m = 0; m < kBitFlipMutations; ++m) {
    std::string mutant = bytes;
    // 1-3 flips: CRC-32C has Hamming distance >= 4 at these lengths, so
    // every mutation in the checksummed body is detectable by design.
    const uint64_t flips = rng.Uniform(1, 3);
    for (uint64_t f = 0; f < flips; ++f) {
      const size_t byte = static_cast<size_t>(
          rng.Uniform(0, static_cast<uint64_t>(mutant.size()) - 1));
      const int bit = static_cast<int>(rng.Uniform(0, 7));
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
    }
    WriteFileBytes(mutant_path, mutant);
    ExpectCleanFailure(load, mutant_path,
                       "bit-flip mutation #" + std::to_string(m));
  }
  std::remove(mutant_path.c_str());
}

Status LoadRelation(const std::string& path) {
  return ReadRelation(path).status();
}

Status LoadEngine(const std::string& path) {
  return ReadEngine(path).status();
}

class PersistenceTortureTest : public ::testing::Test {
 protected:
  // Per-test file name: ctest runs each test as its own process, so a
  // shared name would let parallel torture tests clobber each other.
  std::string path_ =
      ::testing::TempDir() + "colgraph_torture_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(PersistenceTortureTest, RelationSnapshotNeverLoadsCorrupt) {
  const MasterRelation rel = MakeRelation();
  ASSERT_TRUE(WriteRelation(rel, path_).ok());
  TortureFile(path_, LoadRelation);
}

TEST_F(PersistenceTortureTest, EngineSnapshotNeverLoadsCorrupt) {
  const ColGraphEngine engine = MakeEngine();
  ASSERT_TRUE(WriteEngine(engine, path_).ok());
  TortureFile(path_, LoadEngine);
}

// Every truncation and seeded bit-flip of a snapshot whose columns carry
// hybrid sidecars loads as a clean failure.
TEST_F(PersistenceTortureTest, HybridEncodedSnapshotNeverLoadsCorrupt) {
  const MasterRelation rel = MakeSparseHybridRelation();
  size_t hybrid_columns = 0;
  for (EdgeId e = 0; e < rel.num_edge_columns(); ++e) {
    if (rel.PeekEdgeBitmapHybrid(e) != nullptr) ++hybrid_columns;
  }
  ASSERT_GT(hybrid_columns, 0u)
      << "relation must actually exercise the hybrid codec";
  ASSERT_TRUE(WriteRelation(rel, path_).ok());
  // Baseline: the untouched snapshot round-trips with identical bitmaps.
  const auto loaded = ReadRelation(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (EdgeId e = 0; e < rel.num_edge_columns(); ++e) {
    ASSERT_TRUE(loaded.value().PeekMeasureColumn(e).presence().bits() ==
                rel.PeekMeasureColumn(e).presence().bits());
  }
  TortureFile(path_, LoadRelation);
}

// The mmap'd reader (ReadRelation maps the file, then decodes every column
// through its extent, as a dataset load does) on a multi-page image. The
// fixture's column payloads span several pages of packed extents (the v5
// extent layout), so truncations and bit flips land inside mid-file
// extents, not just in headers — and every one must load as
// Corruption/IOError, never a SIGBUS (the whole-file CRC at open faults in
// every page before any column decode).
TEST_F(PersistenceTortureTest, MappedV4RelationNeverLoadsCorrupt) {
  const MasterRelation rel = MakeMultiPageRelation();
  ASSERT_TRUE(WriteRelation(rel, path_).ok());

  const std::string bytes = ReadFileBytes(path_);
  ASSERT_GE(bytes.size(), 8u);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  ASSERT_EQ(version, 5u) << "WriteRelation must emit the v5 extent layout";
  ASSERT_GT(bytes.size(), 2 * PageBytes())
      << "fixture must span multiple pages so flips hit mid-extent bytes";

  // Baseline: the untouched file loads through the mapped path with
  // columns identical to the source relation.
  const auto mapped = ReadRelation(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped.value().num_edge_columns(), rel.num_edge_columns());
  for (EdgeId e = 0; e < rel.num_edge_columns(); ++e) {
    const MeasureColumn& column = mapped.value().PeekMeasureColumn(e);
    for (RecordId r = 0; r < rel.num_records(); ++r) {
      ASSERT_EQ(column.Get(r), rel.PeekMeasureColumn(e).Get(r));
    }
  }

  TortureFile(path_, LoadRelation);

  // Targeted mid-extent corruption: single-bit flips well past the first
  // page, squarely inside column extents (the seeded storm above hits
  // these regions probabilistically; this pins them deterministically).
  const std::string mutant_path = path_ + ".mutant";
  const size_t page = PageBytes();
  for (const size_t offset :
       {page + 16, page + page / 2, 2 * page + 5, bytes.size() - 32}) {
    ASSERT_LT(offset, bytes.size());
    std::string mutant = bytes;
    mutant[offset] = static_cast<char>(mutant[offset] ^ 0x10);
    WriteFileBytes(mutant_path, mutant);
    ExpectCleanFailure(LoadRelation, mutant_path,
                       "mid-extent flip at offset " + std::to_string(offset));
  }
  std::remove(mutant_path.c_str());
}

}  // namespace
}  // namespace colgraph
