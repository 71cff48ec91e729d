// Heap allocations of the query front end: ParseQuery plus Resolve for a
// match, and ParseQuery plus MaximalPaths plus Resolve for a SUM, over
// single-path queries of 2 to 200 edges. The graph is sized once from the
// text and lives in a fixed set of flat vectors, so the count must not
// grow with the path's length.
//
// This binary replaces the global operator new with a counting one; no
// other test binary does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/path.h"
#include "query/parser.h"

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
constexpr size_t kMaxAllocations = 20;

// "[0,1,...,edges]".
std::string PathText(size_t edges) {
  std::string text = "[0";
  for (size_t i = 1; i <= edges; ++i) {
    text += ',';
    text += std::to_string(i);
  }
  text += ']';
  return text;
}

// An engine whose catalog names every edge and node of the longest path.
ColGraphEngine MakeEngine() {
  ColGraphEngine engine;
  std::vector<Edge> universe;
  for (NodeId i = 0; i <= kLengths[3]; ++i) {
    universe.push_back(Edge{NodeRef{i, 0}, NodeRef{i, 0}});
    universe.push_back(Edge{NodeRef{i, 0}, NodeRef{i + 1, 0}});
  }
  engine.RegisterUniverse(universe);
  return engine;
}

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

TEST(FrontEndAllocTest, MatchParseAndResolveAllocateAConstantCount) {
  const ColGraphEngine engine = MakeEngine();
  std::vector<size_t> counts;
  for (const size_t edges : kLengths) {
    const std::string text = PathText(edges);
    size_t resolved = 0;
    Counter counter;
    {
      const StatusOr<ParsedQuery> parsed = ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      resolved = engine.query_engine().Resolve(parsed->expr->query()).ids.size();
    }
    counts.push_back(counter.Stop());
    EXPECT_EQ(resolved, edges);
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0]) << kLengths[i] << " edges";
    EXPECT_LE(counts[i], kMaxAllocations) << kLengths[i] << " edges";
  }
}

TEST(FrontEndAllocTest, SumParsePathsAndResolveAllocateAConstantCount) {
  const ColGraphEngine engine = MakeEngine();
  std::vector<size_t> counts;
  for (const size_t edges : kLengths) {
    std::string text = "SUM ";
    text += PathText(edges);
    size_t path_nodes = 0;
    size_t resolved = 0;
    Counter counter;
    {
      const StatusOr<ParsedQuery> parsed = ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const StatusOr<std::vector<Path>> paths =
          MaximalPaths(parsed->query.graph());
      ASSERT_TRUE(paths.ok()) << paths.status().ToString();
      ASSERT_EQ(paths->size(), 1u);
      path_nodes = paths->front().nodes().size();
      resolved = engine.query_engine().Resolve(parsed->query).ids.size();
    }
    counts.push_back(counter.Stop());
    EXPECT_EQ(path_nodes, edges + 1);
    EXPECT_EQ(resolved, edges);
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0]) << kLengths[i] << " edges";
    EXPECT_LE(counts[i], kMaxAllocations) << kLengths[i] << " edges";
  }
}

}  // namespace
}  // namespace colgraph
