#include "views/workload_advisor.h"

#include <unordered_set>

#include "views/set_cover.h"

namespace colgraph {

std::vector<GraphQuery> WorkloadFromQueryLog(
    const std::vector<obs::QueryLogRecord>& records) {
  std::vector<GraphQuery> workload;
  workload.reserve(records.size());
  for (const obs::QueryLogRecord& r : records) {
    workload.push_back(r.ToQuery());
  }
  return workload;
}

StatusOr<WorkloadAdvice> AdviseGraphViews(
    const std::vector<GraphQuery>& workload, const EdgeCatalog& catalog,
    size_t budget, const CandidateGenOptions& gen_options) {
  WorkloadAdvice advice;

  // Same universe construction as SelectAndMaterializeGraphViews:
  // unsatisfiable or element-free queries contribute nothing to cover.
  std::vector<std::vector<EdgeId>> universes;
  universes.reserve(workload.size());
  for (const GraphQuery& q : workload) {
    const ResolvedGraph resolved = catalog.Resolve(q.graph());
    if (!resolved.satisfiable || resolved.ids.empty()) continue;
    advice.total_elements += resolved.ids.size();
    universes.push_back(resolved.ids);
  }
  advice.num_universes = universes.size();

  COLGRAPH_ASSIGN_OR_RETURN(
      std::vector<GraphViewDef> candidates,
      GenerateGraphViewCandidates(universes, gen_options));

  const SetCoverSelection selection =
      GreedyExtendedSetCover(universes, candidates, budget);
  advice.uncovered_elements = selection.uncovered_elements;

  // Re-walk the picks in order to attribute each one's gain — the greedy's
  // own objective at the moment it chose the view. Same set arithmetic as
  // GreedyExtendedSetCover, so the numbers are exactly what it maximized.
  std::vector<std::unordered_set<EdgeId>> uncovered(universes.size());
  for (size_t u = 0; u < universes.size(); ++u) {
    uncovered[u].insert(universes[u].begin(), universes[u].end());
  }
  for (const size_t c : selection.selected) {
    AdvisedView view;
    view.def = candidates[c];
    for (size_t u = 0; u < universes.size(); ++u) {
      if (!candidates[c].IsSubsetOf(universes[u])) continue;
      ++view.supporting_queries;
      for (EdgeId e : candidates[c].edges) {
        view.coverage_gain += uncovered[u].erase(e);
      }
    }
    advice.views.push_back(std::move(view));
  }
  return advice;
}

}  // namespace colgraph
