// Cycle flattening (Section 6.2): path aggregation requires DAG records, so
// cyclic traces are renamed via node occurrences (A, A', A'', ...). Walk
// data (the common case: RFID/SCM traces are node sequences) flattens
// exactly; arbitrary graphs are DAG-ified by re-targeting back edges to
// fresh occurrences.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace colgraph {

/// \brief Flattens a node walk into occurrence-annotated refs.
///
/// The i-th visit to base node X becomes NodeRef{X, i-1}: the walk
/// A,B,C,A,D turns into A, B, C, A', D and its edges (A,B), (B,C), (C,A'),
/// (A',D) — exactly the paper's example. Visits are numbered in one pass
/// through a flat table the calling thread reuses, so flattening allocates
/// the result and nothing per node.
std::vector<NodeRef> FlattenWalk(const std::vector<NodeId>& walk);

/// \brief Converts the walk directly into the flattened edge sequence, in
/// the same one pass: the result is the only allocation.
std::vector<Edge> WalkToEdges(const std::vector<NodeId>& walk);

/// \brief The rule every ingest path applies to a walk: InvalidArgument
/// when it has fewer than two nodes or `num_measures != walk.size() - 1`.
Status CheckWalk(const std::vector<NodeId>& walk, size_t num_measures);

/// \brief A walk as a record (CheckWalk, then WalkToEdges, with one
/// measure per hop): the form colgraphd's ingest and the shell's append
/// flatten a batch into before shredding it. `measures` is taken by value
/// so a caller done with its parsed walk moves them in.
StatusOr<GraphRecord> WalkToRecord(const std::vector<NodeId>& walk,
                                   std::vector<double> measures);

/// \brief DAG-ifies an arbitrary directed graph.
///
/// Every back edge (u, v) discovered by DFS is re-targeted to a fresh
/// occurrence of v, mirroring the walk semantics ("the package came *back*
/// to v"). The result is acyclic and preserves all edges (modulo renaming).
DirectedGraph FlattenToDag(const DirectedGraph& graph);

}  // namespace colgraph
