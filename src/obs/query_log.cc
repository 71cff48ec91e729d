#include "obs/query_log.h"

#include "util/frame.h"

namespace colgraph::obs {

const char* QueryLogKindName(QueryLogKind kind) {
  switch (kind) {
    case QueryLogKind::kMatch:
      return "match";
    case QueryLogKind::kPathAgg:
      return "path_agg";
  }
  return "unknown";
}

GraphQuery QueryLogRecord::ToQuery() const {
  DirectedGraph g;
  for (const Edge& e : edges) g.AddEdge(e);
  // Isolated measured nodes must come back as nodes, not self-edges: a
  // self-edge would put a cycle in the structure and break the aggregate
  // path's DAG requirement. Resolve() turns them back into Edge{n,n}
  // catalog lookups, exactly as it did for the live query.
  for (const NodeRef& n : isolated_nodes) g.AddNode(n);
  return GraphQuery(std::move(g));
}

void AppendRecordFrame(const QueryLogRecord& r, std::vector<char>* out) {
  const size_t start = BeginFrame(kLogRecordFrame, 0, out);
  AppendPod(out, static_cast<uint8_t>(r.kind));
  AppendPod(out, static_cast<uint8_t>(r.fn));
  AppendPod(out, uint16_t{0});  // pad: keeps the u32 counts aligned

  AppendPod(out, static_cast<uint32_t>(r.edges.size()));
  for (const Edge& e : r.edges) {
    AppendPod(out, e.from.base);
    AppendPod(out, e.from.occurrence);
    AppendPod(out, e.to.base);
    AppendPod(out, e.to.occurrence);
  }
  AppendPod(out, static_cast<uint32_t>(r.isolated_nodes.size()));
  for (const NodeRef& n : r.isolated_nodes) {
    AppendPod(out, n.base);
    AppendPod(out, n.occurrence);
  }
  AppendPod(out, static_cast<uint32_t>(r.graph_view_indexes.size()));
  for (const uint32_t v : r.graph_view_indexes) AppendPod(out, v);
  AppendPod(out, static_cast<uint32_t>(r.agg_view_indexes.size()));
  for (const uint32_t v : r.agg_view_indexes) AppendPod(out, v);

  for (size_t p = 0; p < kNumQueryPhases; ++p) AppendPod(out, r.phase_us[p]);
  AppendPod(out, r.total_us);
  AppendPod(out, r.result_cardinality);
  EndFrame(start, out);
}

QueryLog::QueryLog(const QueryLogOptions& options, io::AppendFile file)
    : FramedLog(kQueryLogFormat, options.path, options.flush_bytes,
                std::move(file)) {}

StatusOr<std::unique_ptr<QueryLog>> QueryLog::Open(QueryLogOptions options) {
  COLGRAPH_ASSIGN_OR_RETURN(io::AppendFile file,
                            CreateFile(kQueryLogFormat, options.path));
  return std::unique_ptr<QueryLog>(new QueryLog(options, std::move(file)));
}

void QueryLog::Append(const QueryLogRecord& record) {
  // Serialize outside the lock: the buffer enqueue is the only contended
  // part of the hot path.
  std::vector<char> frame;
  AppendRecordFrame(record, &frame);
  Enqueue(frame);
}

}  // namespace colgraph::obs
