// Text trace loader: ingests walk records from the simple line format
//
//   <node> <node> ... <node> [ | <measure> <measure> ... ]
//
// one record per line; '#' starts a comment; a walk of n nodes takes n-1
// measures (one per hop). Lines without the '|' section get measure 1.0
// per hop (pure structural traces, e.g. click streams). This is the
// ingestion path a deployment would feed from its RFID/workflow logs.
#pragma once

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "util/status.h"

namespace colgraph {

struct WalkTrace {
  std::vector<NodeId> walk;
  std::vector<double> measures;  // one per hop
};

/// Ingest limits: a garbage or hostile trace file must not balloon memory,
/// so lines and walks are capped. Real RFID/workflow traces sit orders of
/// magnitude below both.
inline constexpr size_t kMaxTraceLineBytes = size_t{1} << 20;  // 1 MiB
inline constexpr size_t kMaxTraceWalkNodes = size_t{1} << 16;  // 65536 hops

/// Parses every record in `text`, scanning numbers with std::from_chars.
/// Fails with a line-annotated InvalidArgument on malformed input: garbage
/// tokens (also one that runs to the end of its section), node ids that
/// do not fit NodeId (negative or above 2^32 - 1; never wrapped),
/// measure-count mismatches, non-finite measures (NaN / ±inf), over-long
/// lines, and walks above kMaxTraceWalkNodes are all rejected. Numbers
/// read as operator>> reads them otherwise: a leading '+' is accepted and
/// a measure that underflows reads as a signed zero.
StatusOr<std::vector<WalkTrace>> ParseTraces(std::string_view text);

/// Reads the rest of `in` into memory and parses it with
/// ParseTraces(std::string_view).
StatusOr<std::vector<WalkTrace>> ParseTraces(std::istream& in);

/// Loads a trace file from disk.
StatusOr<std::vector<WalkTrace>> LoadTraceFile(const std::string& path);

/// Parses `path` and ingests every record into `engine` (which must be
/// unsealed). Returns the number of records added. All-or-nothing: the
/// records are staged and committed only after every walk has been
/// validated and applied — on any failure `engine` (records, catalog,
/// universe) is left exactly as it was. Failpoints: "trace:open",
/// "trace:add_walk", "trace:before_commit".
StatusOr<size_t> IngestTraceFile(ColGraphEngine* engine,
                                 const std::string& path);

}  // namespace colgraph
