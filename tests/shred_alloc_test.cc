// Heap allocations of shredding. Flattening a walk numbers its visits in
// a table the thread reuses, so a 2- to 200-node walk, with or without
// revisits, allocates its result and nothing per node. AddRecord finds
// duplicates through the relation's stamps and appends without a copy of
// the record, so a record whose columns have room allocates nothing, and
// the engine's AddRecord, which shreds through a reused pair buffer, none
// either once its edges are in the catalog.
//
// This binary replaces the global operator new with a counting one, as
// front_end_alloc_test does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "columnstore/master_relation.h"
#include "core/engine.h"
#include "graph/flatten.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace colgraph {
namespace {

constexpr size_t kLengths[] = {2, 15, 40, 200};

class Counter {
 public:
  Counter() {
    g_allocations.store(0);
    g_counting.store(true);
  }
  size_t Stop() {
    g_counting.store(false);
    return g_allocations.load();
  }
};

// 0, 1, ..., nodes - 1.
std::vector<NodeId> PlainWalk(size_t nodes) {
  std::vector<NodeId> walk(nodes);
  for (size_t i = 0; i < nodes; ++i) walk[i] = static_cast<NodeId>(i);
  return walk;
}

// Nodes 0 and 1 alternately: every node but the first two revisits.
std::vector<NodeId> RevisitingWalk(size_t nodes) {
  std::vector<NodeId> walk(nodes);
  for (size_t i = 0; i < nodes; ++i) walk[i] = static_cast<NodeId>(i % 2);
  return walk;
}

TEST(ShredAllocTest, FlatteningAllocatesOnlyItsResult) {
  (void)WalkToEdges(PlainWalk(2));  // the thread's table, once
  for (const auto make : {PlainWalk, RevisitingWalk}) {
    for (const size_t nodes : kLengths) {
      const std::vector<NodeId> walk = make(nodes);
      size_t edges = 0;
      size_t refs = 0;
      Counter counter;
      edges = WalkToEdges(walk).size();
      refs = FlattenWalk(walk).size();
      EXPECT_EQ(counter.Stop(), 2u) << nodes << " nodes";
      EXPECT_EQ(edges, nodes - 1);
      EXPECT_EQ(refs, nodes);
    }
  }
}

TEST(ShredAllocTest, AddRecordWithRoomAllocatesNothing) {
  // Seven records leave every column's buffers room for an eighth: they
  // grow by doubling (libstdc++ and libc++ alike) to a capacity of 8.
  std::vector<std::pair<EdgeId, double>> record;
  for (EdgeId id = 0; id < 40; ++id) record.emplace_back(id * 3, 1.0);
  MasterRelation relation;
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(relation.AddRecord(record).ok());
  Counter counter;
  const bool added = relation.AddRecord(record).ok();
  EXPECT_EQ(counter.Stop(), 0u);
  EXPECT_TRUE(added);
}

TEST(ShredAllocTest, EngineShredsWithoutPerRecordAllocations) {
  GraphRecord record;
  record.elements = WalkToEdges(RevisitingWalk(41));
  record.measures.assign(record.elements.size(), 2.0);
  // Six records grow the buffers to a capacity of 8: room for the two
  // measured below.
  ColGraphEngine engine;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(engine.AddRecord(record).ok());
  {
    Counter counter;
    const bool added = engine.AddRecord(record).ok();
    EXPECT_EQ(counter.Stop(), 0u);
    EXPECT_TRUE(added);
  }
  // A walk allocates its flattened edge list and nothing more.
  const std::vector<NodeId> walk = RevisitingWalk(41);
  const std::vector<double> measures(walk.size() - 1, 3.0);
  Counter counter;
  const bool added = engine.AddWalk(walk, measures).ok();
  EXPECT_EQ(counter.Stop(), 1u);
  EXPECT_TRUE(added);
}

}  // namespace
}  // namespace colgraph
