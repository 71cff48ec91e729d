#include "obs/query_log_reader.h"

#include "columnstore/io_util.h"
#include "util/frame.h"

namespace colgraph::obs {

namespace {

constexpr const char* kMidField = "record payload ends mid-field";

// Reads the [u32 count] ahead of `element_bytes`-sized elements, bounded
// by the bytes left so a corrupt count cannot drive an oversized resize.
Status ReadCount(FrameCursor* c, size_t element_bytes, const std::string& what,
                 uint32_t* n) {
  if (!c->Read(n)) return LogCorruption(kMidField, what);
  if (*n > c->remaining() / element_bytes) {
    return LogCorruption("record element count exceeds payload size", what);
  }
  return Status::OK();
}

Status ReadU32s(FrameCursor* c, const std::string& what,
                std::vector<uint32_t>* out) {
  uint32_t n = 0;
  COLGRAPH_RETURN_NOT_OK(ReadCount(c, sizeof(uint32_t), what, &n));
  out->resize(n);
  for (uint32_t& v : *out) {
    if (!c->Read(&v)) return LogCorruption(kMidField, what);
  }
  return Status::OK();
}

Status DecodeRecord(FrameCursor* c, const std::string& what,
                    QueryLogRecord* out) {
  uint8_t kind = 0, fn = 0;
  uint16_t pad = 0;
  if (!c->Read(&kind) || !c->Read(&fn) || !c->Read(&pad)) {
    return LogCorruption(kMidField, what);
  }
  if (kind > static_cast<uint8_t>(QueryLogKind::kPathAgg)) {
    return LogCorruption("unknown query kind", what);
  }
  if (fn > static_cast<uint8_t>(AggFn::kAvg)) {
    return LogCorruption("unknown aggregate function", what);
  }
  if (pad != 0) return LogCorruption("nonzero record padding", what);
  out->kind = static_cast<QueryLogKind>(kind);
  out->fn = static_cast<AggFn>(fn);

  uint32_t n = 0;
  COLGRAPH_RETURN_NOT_OK(ReadCount(c, 4 * sizeof(uint32_t), what, &n));
  // Self-edges are legal here: query graphs carry them as node-measure
  // constraints, and capture stores g.edges() verbatim so ToQuery() can
  // rebuild the exact original query.
  out->edges.resize(n);
  for (Edge& e : out->edges) {
    if (!c->Read(&e.from.base) || !c->Read(&e.from.occurrence) ||
        !c->Read(&e.to.base) || !c->Read(&e.to.occurrence)) {
      return LogCorruption(kMidField, what);
    }
  }
  COLGRAPH_RETURN_NOT_OK(ReadCount(c, 2 * sizeof(uint32_t), what, &n));
  out->isolated_nodes.resize(n);
  for (NodeRef& node : out->isolated_nodes) {
    if (!c->Read(&node.base) || !c->Read(&node.occurrence)) {
      return LogCorruption(kMidField, what);
    }
  }
  COLGRAPH_RETURN_NOT_OK(ReadU32s(c, what, &out->graph_view_indexes));
  COLGRAPH_RETURN_NOT_OK(ReadU32s(c, what, &out->agg_view_indexes));

  for (uint64_t& us : out->phase_us) {
    if (!c->Read(&us)) return LogCorruption(kMidField, what);
  }
  if (!c->Read(&out->total_us) || !c->Read(&out->result_cardinality)) {
    return LogCorruption(kMidField, what);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<QueryLogRecord>> DecodeQueryLog(
    const std::vector<char>& data, const std::string& what) {
  std::vector<QueryLogRecord> records;
  COLGRAPH_RETURN_NOT_OK(DecodeFramedLog(
      data, kQueryLogFormat, what, [&](FrameCursor* payload) {
        return DecodeRecord(payload, what, &records.emplace_back());
      }));
  return records;
}

StatusOr<std::vector<QueryLogRecord>> ReadQueryLog(const std::string& path) {
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<char> data,
                            io::ReadFileBytes(path));
  return DecodeQueryLog(data, path);
}

}  // namespace colgraph::obs
