#include "graph/path.h"

#include <algorithm>

namespace colgraph {

std::vector<Edge> Path::Elements() const {
  std::vector<Edge> elements;
  if (nodes_.empty()) return elements;
  if (nodes_.size() == 1) {
    // Degenerate node path [A,A]: just the node, unless fully open.
    if (!start_open_ && !end_open_) elements.push_back(Edge{nodes_[0], nodes_[0]});
    return elements;
  }
  if (!start_open_) elements.push_back(Edge{nodes_.front(), nodes_.front()});
  for (size_t i = 0; i + 1 < nodes_.size(); ++i) {
    elements.push_back(Edge{nodes_[i], nodes_[i + 1]});
    if (i + 1 < nodes_.size() - 1) {
      elements.push_back(Edge{nodes_[i + 1], nodes_[i + 1]});
    }
  }
  if (!end_open_) elements.push_back(Edge{nodes_.back(), nodes_.back()});
  return elements;
}

std::vector<Edge> Path::Edges() const {
  std::vector<Edge> edges;
  for (size_t i = 0; i + 1 < nodes_.size(); ++i) {
    edges.push_back(Edge{nodes_[i], nodes_[i + 1]});
  }
  return edges;
}

StatusOr<Path> Path::Join(const Path& other) const {
  if (empty() || other.empty()) {
    return Status::InvalidArgument("path-join with empty path");
  }
  if (!(back() == other.front())) {
    return Status::InvalidArgument("path-join endpoints differ: " +
                                   back().ToString() + " vs " +
                                   other.front().ToString());
  }
  // Exactly one side must be open at the junction so the shared node's
  // measure is counted once.
  if (end_open_ == other.start_open_) {
    return Status::InvalidArgument(
        "path-join requires exactly one open end at the common node " +
        back().ToString());
  }
  std::vector<NodeRef> joined = nodes_;
  joined.insert(joined.end(), other.nodes_.begin() + 1, other.nodes_.end());
  return Path(std::move(joined), start_open_, other.end_open_);
}

bool Path::IsSubpathOf(const Path& other) const {
  if (nodes_.size() > other.nodes_.size()) return false;
  return std::search(other.nodes_.begin(), other.nodes_.end(), nodes_.begin(),
                     nodes_.end()) != other.nodes_.end();
}

std::string Path::ToString() const {
  std::string s = start_open_ ? "(" : "[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) s += ",";
    s += nodes_[i].ToString();
  }
  s += end_open_ ? ")" : "]";
  return s;
}

namespace {

// DFS path enumeration from each start node to any target node. The path
// so far is its own on-path mark: query graphs are small, so a scan of
// `current` is cheaper than a hash set updated at every step.
Status Dfs(const DirectedGraph& graph, const std::vector<NodeRef>& targets,
           std::vector<NodeRef>* current, std::vector<Path>* out,
           size_t max_paths) {
  const NodeRef here = current->back();
  if (std::binary_search(targets.begin(), targets.end(), here)) {
    if (out->size() >= max_paths) {
      return Status::OutOfRange("path enumeration exceeded max_paths");
    }
    out->emplace_back(*current);
  }
  for (const NodeRef& next : graph.OutNeighbors(here)) {
    // Keep paths simple: a road network may have cycles.
    if (std::find(current->begin(), current->end(), next) != current->end()) {
      continue;
    }
    current->push_back(next);
    COLGRAPH_RETURN_NOT_OK(Dfs(graph, targets, current, out, max_paths));
    current->pop_back();
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<Path>> EnumerateCompositePath(
    const DirectedGraph& graph, const std::vector<NodeRef>& from,
    const std::vector<NodeRef>& to, size_t max_paths) {
  std::vector<NodeRef> targets = to;
  std::sort(targets.begin(), targets.end());
  std::vector<Path> result;
  std::vector<NodeRef> current;
  for (const NodeRef& start : from) {
    if (!graph.HasNode(start)) continue;
    current.assign(1, start);
    COLGRAPH_RETURN_NOT_OK(Dfs(graph, targets, &current, &result, max_paths));
  }
  return result;
}

StatusOr<std::vector<Path>> MaximalPaths(const DirectedGraph& graph,
                                         size_t max_paths) {
  if (!graph.IsAcyclic()) {
    return Status::InvalidArgument(
        "path aggregation requires a DAG query; flatten cycles first "
        "(Section 6.2)");
  }
  return EnumerateCompositePath(graph, graph.SourceNodes(),
                                graph.TerminalNodes(), max_paths);
}

}  // namespace colgraph
