// Durable query-log capture (DESIGN.md §10): an append-only binary log of
// executed queries — structure, chosen views, per-phase timings, result
// cardinality — so a live workload can be replayed (tools/colgraph_replay)
// and mined for view advice (views/workload_advisor.h). The paper's view
// selection (§5.2–§5.4) is driven entirely by the observed workload; this
// log is how a deployment observes one.
//
// The file is a framed log (obs/framed_log.h: preamble, CRC-framed records,
// mandatory footer, buffered and poison-on-failure writes) with magic
// "CGQL", version 1 and footer magic "CGQF". This header adds the record
// payload (AppendRecordFrame); drops are mirrored into `query_log.dropped`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/framed_log.h"
#include "obs/trace.h"
#include "query/agg_fn.h"
#include "util/status.h"

namespace colgraph::obs {

inline constexpr uint32_t kQueryLogMagic = 0x4C514743;   // "CGQL"
inline constexpr uint32_t kQueryLogFooterMagic = 0x46514743;  // "CGQF"
inline constexpr uint32_t kQueryLogVersion = 1;
inline constexpr FramedLogFormat kQueryLogFormat{
    "query log", kQueryLogMagic, kQueryLogVersion, kQueryLogFooterMagic,
    "query_log.dropped"};

/// Per-phase timing slots of a record: the first phases of the taxonomy
/// (obs/trace.h), in log order. The slots are part of the frame format.
inline constexpr size_t kNumQueryPhases = 5;
static_assert(static_cast<size_t>(Phase::kResolve) == 0 &&
                  static_cast<size_t>(Phase::kRewrite) == 1 &&
                  static_cast<size_t>(Phase::kBitmapAnd) == 2 &&
                  static_cast<size_t>(Phase::kFetch) == 3 &&
                  static_cast<size_t>(Phase::kAggregate) ==
                      kNumQueryPhases - 1,
              "the query log's phase slots are the first phases, in order");

/// What kind of query a log record captures.
enum class QueryLogKind : uint8_t { kMatch = 0, kPathAgg = 1 };

const char* QueryLogKindName(QueryLogKind kind);

/// \brief One executed query, as recorded in (or decoded from) the log.
///
/// The structural fields (`edges`, `isolated_nodes`) losslessly rebuild the
/// original GraphQuery via ToQuery(): true edges are re-added as edges and
/// degree-0 measured nodes as isolated nodes, so replay resolves the exact
/// element set the live query did. View indexes, timings, and cardinality
/// are the observed execution facts replay and bench_compare check against.
struct QueryLogRecord {
  QueryLogKind kind = QueryLogKind::kMatch;
  /// Aggregate function (kPathAgg only; ignored and stored as kSum for
  /// match queries).
  AggFn fn = AggFn::kSum;

  /// True edges of the query graph (no self-edges).
  std::vector<Edge> edges;
  /// Degree-0 nodes (measured nodes with no incident true edge).
  std::vector<NodeRef> isolated_nodes;

  /// Relation view indexes the rewriter chose (kGraphView sources).
  std::vector<uint32_t> graph_view_indexes;
  /// Relation aggregate-view indexes whose bp bitmaps the rewriter chose.
  std::vector<uint32_t> agg_view_indexes;

  /// Wall time spent in each query phase (indexed by Phase), µs (zero
  /// for phases not run).
  uint64_t phase_us[kNumQueryPhases] = {};
  /// End-to-end wall time of the query, µs.
  uint64_t total_us = 0;
  /// Result cardinality: matching records (match) or aggregated groups
  /// (path-agg). Zero for unsatisfiable queries — those are logged too;
  /// the advisor must see misses to judge view support honestly.
  uint64_t result_cardinality = 0;

  /// Rebuilds the query graph this record was captured from.
  GraphQuery ToQuery() const;
};

/// \brief Per-engine query-log configuration (EngineOptions::query_log).
struct QueryLogOptions {
  /// Log file path; empty disables capture (the default).
  std::string path;
  /// Buffered bytes before the writer flushes to the file. The floor of 1
  /// effectively means "flush every record" — useful in tests.
  size_t flush_bytes = size_t{64} * 1024;
};

/// \brief Append-only query-log writer (a FramedLog). Thread-safe: batch
/// workers append concurrently. Append is void (hot path): a failed write
/// poisons the log and surfaces at Close(), which must be called for the
/// log to be readable at all.
class QueryLog : public FramedLog {
 public:
  /// Creates (truncating) the log file and writes the header.
  static StatusOr<std::unique_ptr<QueryLog>> Open(QueryLogOptions options);

  /// Serializes one record outside the lock and enqueues it.
  void Append(const QueryLogRecord& record);

 private:
  QueryLog(const QueryLogOptions& options, io::AppendFile file);
};

/// Serializes one record as a complete [type|len|crc|payload] frame,
/// appended to `out`. Exposed for the reader's tests.
void AppendRecordFrame(const QueryLogRecord& record, std::vector<char>* out);

}  // namespace colgraph::obs
