#include "views/set_cover.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_set>

namespace colgraph {

namespace {

// Uncovered state of one universe: a hash set of still-uncovered edges.
using Uncovered = std::unordered_set<EdgeId>;

size_t GainIn(const GraphViewDef& candidate, const Uncovered& uncovered) {
  size_t gain = 0;
  for (EdgeId e : candidate.edges) gain += uncovered.count(e);
  return gain;
}

// Edge sets as bitmasks over the query's positions: bit i stands for
// query_edges[i], so a gain is the popcount of (view mask & uncovered),
// a few words instead of one hash probe per edge. Masks are sized to the
// query, ceil(|query| / 64) words each.
size_t MaskWords(size_t num_edges) { return (num_edges + 63) / 64; }

// Sets the query positions of `edges` in `mask`; false (mask left
// partial) when some edge is not a query edge, i.e. the view would
// over-constrain the match. Both lists are sorted.
bool MaskInQuery(const std::vector<EdgeId>& query_edges,
                 const std::vector<EdgeId>& edges, uint64_t* mask) {
  auto from = query_edges.begin();
  for (const EdgeId e : edges) {
    from = std::lower_bound(from, query_edges.end(), e);
    if (from == query_edges.end() || *from != e) return false;
    const auto pos = static_cast<size_t>(from - query_edges.begin());
    mask[pos / 64] |= uint64_t{1} << (pos % 64);
    ++from;
  }
  return true;
}

size_t MaskGain(const uint64_t* mask, const uint64_t* uncovered,
                size_t words) {
  size_t gain = 0;
  for (size_t w = 0; w < words; ++w) {
    gain += static_cast<size_t>(__builtin_popcountll(mask[w] & uncovered[w]));
  }
  return gain;
}

}  // namespace

SetCoverSelection GreedyExtendedSetCover(
    const std::vector<std::vector<EdgeId>>& universes,
    const std::vector<GraphViewDef>& candidates, size_t max_views) {
  // Usability is static: candidate c applies to universe u iff c ⊆ u.
  std::vector<std::vector<size_t>> usable_in(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    for (size_t u = 0; u < universes.size(); ++u) {
      if (candidates[c].IsSubsetOf(universes[u])) usable_in[c].push_back(u);
    }
  }

  std::vector<Uncovered> uncovered(universes.size());
  for (size_t u = 0; u < universes.size(); ++u) {
    uncovered[u] = Uncovered(universes[u].begin(), universes[u].end());
  }

  SetCoverSelection result;
  std::vector<bool> picked(candidates.size(), false);
  while (result.selected.size() < max_views) {
    size_t best = candidates.size();
    size_t best_gain = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (picked[c]) continue;
      size_t gain = 0;
      size_t max_universe_gain = 0;
      for (size_t u : usable_in[c]) {
        const size_t g = GainIn(candidates[c], uncovered[u]);
        gain += g;
        max_universe_gain = std::max(max_universe_gain, g);
      }
      // Stopping rule: a view pays for itself only where it replaces ≥ 2
      // atomic bitmaps with one AND. The bar is per universe — a candidate
      // covering one edge each in two queries sums to 2 but never beats
      // the atomic bitmaps that already exist for those edges.
      if (max_universe_gain < 2) continue;
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == candidates.size()) break;
    picked[best] = true;
    result.selected.push_back(best);
    for (size_t u : usable_in[best]) {
      for (EdgeId e : candidates[best].edges) uncovered[u].erase(e);
    }
  }

  for (const auto& u : uncovered) result.uncovered_elements += u.size();
  return result;
}

QueryCover CoverQueryWithViews(const std::vector<EdgeId>& query_edges,
                               const std::vector<const GraphViewDef*>& views) {
  const size_t words = MaskWords(query_edges.size());
  std::vector<uint64_t> uncovered(words, ~uint64_t{0});
  if (query_edges.size() % 64 != 0) {
    uncovered.back() = (uint64_t{1} << (query_edges.size() % 64)) - 1;
  }
  std::vector<uint64_t> masks(views.size() * words, 0);

  // Lazy greedy: gains only shrink as edges get covered (submodularity),
  // so a max-heap of possibly-stale gains is correct — pop, refresh, and
  // accept when the refreshed gain still tops the heap. This touches a
  // handful of views per round instead of rescanning all of them, which
  // matters when many views are materialized and queries are cheap.
  // (gain, view); a view is reinserted only after it is popped, so the
  // heap never holds more than one entry per view.
  std::vector<std::pair<size_t, size_t>> entries;
  entries.reserve(views.size());
  std::priority_queue<std::pair<size_t, size_t>> heap({}, std::move(entries));
  for (size_t v = 0; v < views.size(); ++v) {
    if (!MaskInQuery(query_edges, views[v]->edges, &masks[v * words])) {
      continue;
    }
    const size_t gain = views[v]->edges.size();  // upper bound: all uncovered
    if (gain >= 2) heap.emplace(gain, v);
  }

  QueryCover cover;
  cover.view_indexes.reserve(heap.size());
  cover.residual_edges.reserve(query_edges.size());
  while (!heap.empty()) {
    const auto [stale_gain, v] = heap.top();
    heap.pop();
    if (stale_gain < 2) break;
    const uint64_t* mask = &masks[v * words];
    const size_t gain = MaskGain(mask, uncovered.data(), words);
    if (gain < 2) continue;  // atomic bitmaps are at least as good
    if (!heap.empty() && gain < heap.top().first) {
      heap.emplace(gain, v);  // stale: reinsert with the refreshed gain
      continue;
    }
    cover.view_indexes.push_back(v);
    for (size_t w = 0; w < words; ++w) uncovered[w] &= ~mask[w];
  }

  for (size_t i = 0; i < query_edges.size(); ++i) {
    if (((uncovered[i / 64] >> (i % 64)) & 1) != 0) {
      cover.residual_edges.push_back(query_edges[i]);
    }
  }
  return cover;
}

QueryCover CoverQueryWithViews(const std::vector<EdgeId>& query_edges,
                               const std::vector<GraphViewDef>& views) {
  std::vector<const GraphViewDef*> refs;
  refs.reserve(views.size());
  for (const GraphViewDef& view : views) refs.push_back(&view);
  return CoverQueryWithViews(query_edges, refs);
}

}  // namespace colgraph
