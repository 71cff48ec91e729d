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

// DFS over node positions: every simple path from `current`'s last node,
// `here`, on to a node marked in `is_target`. `on_path` marks the nodes
// of `current`, since a road network may have cycles.
Status Dfs(const DirectedGraph& graph, size_t here,
           const std::vector<bool>& is_target, std::vector<bool>* on_path,
           std::vector<NodeRef>* current, std::vector<Path>* out,
           size_t max_paths) {
  if (is_target[here]) {
    if (out->size() >= max_paths) {
      return Status::OutOfRange("path enumeration exceeded max_paths");
    }
    out->emplace_back(*current);
  }
  const DirectedGraph::NeighborRange next = graph.OutNeighborsAt(here);
  for (auto it = next.begin(); it != next.end(); ++it) {
    if ((*on_path)[it.index()]) continue;
    (*on_path)[it.index()] = true;
    current->push_back(*it);
    COLGRAPH_RETURN_NOT_OK(
        Dfs(graph, it.index(), is_target, on_path, current, out, max_paths));
    current->pop_back();
    (*on_path)[it.index()] = false;
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<Path>> EnumerateCompositePath(
    const DirectedGraph& graph, const std::vector<NodeRef>& from,
    const std::vector<NodeRef>& to, size_t max_paths) {
  std::vector<bool> is_target(graph.num_nodes(), false);
  for (const NodeRef& n : to) {
    if (const auto i = graph.IndexOf(n)) is_target[*i] = true;
  }
  std::vector<bool> on_path(graph.num_nodes(), false);
  std::vector<Path> result;
  std::vector<NodeRef> current;
  current.reserve(graph.num_nodes());
  for (const NodeRef& start : from) {
    const auto i = graph.IndexOf(start);
    if (!i.has_value()) continue;
    current.assign(1, start);
    on_path[*i] = true;
    COLGRAPH_RETURN_NOT_OK(
        Dfs(graph, *i, is_target, &on_path, &current, &result, max_paths));
    on_path[*i] = false;
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
