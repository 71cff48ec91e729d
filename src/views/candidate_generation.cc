#include "views/candidate_generation.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "util/thread_pool.h"

namespace colgraph {

namespace {

using EdgeSet = std::vector<EdgeId>;  // sorted ascending

EdgeSet Intersect(const EdgeSet& a, const EdgeSet& b) {
  EdgeSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

bool IsSubset(const EdgeSet& small, const EdgeSet& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

}  // namespace

StatusOr<std::vector<GraphViewDef>> GenerateGraphViewCandidates(
    const std::vector<std::vector<EdgeId>>& query_edge_sets,
    const CandidateGenOptions& options) {
  // Normalize: sorted, deduplicated, non-empty.
  std::vector<EdgeSet> queries;
  queries.reserve(query_edge_sets.size());
  for (const auto& q : query_edge_sets) {
    EdgeSet s = q;
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    if (!s.empty()) queries.push_back(std::move(s));
  }

  // Closure of the query sets under intersection: every non-empty
  // intersection of a subset of queries is reachable by repeatedly
  // intersecting an existing candidate with one query. These are exactly
  // the closed itemsets of the workload.
  std::set<EdgeSet> pool(queries.begin(), queries.end());
  std::vector<EdgeSet> worklist(pool.begin(), pool.end());
  while (!worklist.empty()) {
    const EdgeSet current = std::move(worklist.back());
    worklist.pop_back();
    for (const EdgeSet& q : queries) {
      EdgeSet inter = Intersect(current, q);
      if (inter.empty()) continue;
      if (pool.insert(inter).second) {
        if (pool.size() > options.max_candidates) {
          return Status::OutOfRange(
              "candidate closure exceeded max_candidates; raise min_support "
              "or the cap");
        }
        worklist.push_back(std::move(inter));
      }
    }
  }

  // Support signature: the exact set of queries containing the candidate.
  // Counting support is the hot part (|Cv| × |workload| subset tests) and
  // each candidate's signature is independent, so it fans across the pool
  // into pre-sized slots; the merge below stays serial in candidate order.
  const std::vector<EdgeSet> candidates(pool.begin(), pool.end());
  std::vector<std::vector<uint32_t>> signatures(candidates.size());
  COLGRAPH_RETURN_NOT_OK(ParallelFor(
      options.pool, 0, candidates.size(), /*grain=*/0,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t c = chunk_begin; c < chunk_end; ++c) {
          for (uint32_t qi = 0; qi < queries.size(); ++qi) {
            if (IsSubset(candidates[c], queries[qi])) {
              signatures[c].push_back(qi);
            }
          }
        }
        return Status::OK();
      }));

  // Monotonicity (supersedes) filter: among candidates with identical
  // signatures, only the largest is not superseded; candidates below
  // min_support are dropped entirely.
  std::map<std::vector<uint32_t>, EdgeSet> best_per_signature;
  for (size_t c = 0; c < candidates.size(); ++c) {
    const EdgeSet& cand = candidates[c];
    if (signatures[c].size() < options.min_support) continue;
    auto [it, inserted] =
        best_per_signature.emplace(std::move(signatures[c]), cand);
    if (!inserted && cand.size() > it->second.size()) it->second = cand;
  }

  std::vector<GraphViewDef> result;
  result.reserve(best_per_signature.size());
  for (auto& [sig, cand] : best_per_signature) {
    (void)sig;
    result.push_back(GraphViewDef{std::move(cand)});
  }
  std::sort(result.begin(), result.end(),
            [](const GraphViewDef& a, const GraphViewDef& b) {
              return a.size() != b.size() ? a.size() > b.size()
                                          : a.edges < b.edges;
            });
  return result;
}

std::vector<NodeRef> InterestingNodes(
    const std::vector<std::vector<Path>>& maximal_paths_per_query) {
  std::set<NodeRef> interesting;
  // The distinct traversed edges; their degrees give branch and merge nodes.
  DirectedGraph traversed;
  for (const auto& paths : maximal_paths_per_query) {
    for (const Path& p : paths) {
      if (p.empty()) continue;
      interesting.insert(p.front());  // origin of a maximal path
      interesting.insert(p.back());   // endpoint of a maximal path
      for (const Edge& e : p.Edges()) traversed.AddEdge(e);
    }
  }
  for (size_t i = 0; i < traversed.num_nodes(); ++i) {
    if (traversed.OutDegreeAt(i) >= 2 || traversed.InDegreeAt(i) >= 2) {
      interesting.insert(traversed.nodes()[i]);  // branch or merge node
    }
  }
  return std::vector<NodeRef>(interesting.begin(), interesting.end());
}

StatusOr<std::vector<Path>> GenerateAggViewCandidatePaths(
    const std::vector<std::vector<Path>>& maximal_paths_per_query,
    size_t max_paths) {
  const std::vector<NodeRef> interesting =
      InterestingNodes(maximal_paths_per_query);
  const std::unordered_set<NodeRef, NodeRefHash> anchors(interesting.begin(),
                                                         interesting.end());
  // Every subpath of a maximal path whose endpoints are both interesting
  // and whose length is >= 2 edges. Deduplicate across queries (shared
  // subpaths are the whole point of the candidate set).
  std::set<std::vector<NodeRef>> seen;
  std::vector<Path> result;
  for (const auto& paths : maximal_paths_per_query) {
    for (const Path& p : paths) {
      const auto& nodes = p.nodes();
      std::vector<size_t> anchor_positions;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (anchors.count(nodes[i])) anchor_positions.push_back(i);
      }
      for (size_t a = 0; a < anchor_positions.size(); ++a) {
        for (size_t b = a + 1; b < anchor_positions.size(); ++b) {
          const size_t i = anchor_positions[a];
          const size_t j = anchor_positions[b];
          if (j - i < 2) continue;  // single edges are already stored
          std::vector<NodeRef> sub(nodes.begin() + static_cast<long>(i),
                                   nodes.begin() + static_cast<long>(j + 1));
          if (!seen.insert(sub).second) continue;
          if (result.size() >= max_paths) {
            return Status::OutOfRange(
                "aggregate-view candidate paths exceeded cap");
          }
          result.emplace_back(std::move(sub));
        }
      }
    }
  }
  return result;
}

}  // namespace colgraph
