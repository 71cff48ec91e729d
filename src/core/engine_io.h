// Whole-engine persistence: saves and restores the edge catalog, the
// master relation (base columns), and every materialized view — the full
// state needed to shut an engine down and answer the same workload after a
// restart without re-ingesting or re-materializing.
//
// Snapshot format v5 (checksummed sections + footer, column and view
// payloads in packed extents on 8-byte boundaries, written to
// `<path>.tmp` and atomically renamed — see io_util.h and DESIGN.md §14).
// Reads accept v5 only; any other version, and any corrupt or truncated
// file, loads as Status::Corruption, never as a crash.
#pragma once

#include <string>

#include "core/engine.h"
#include "util/status.h"

namespace colgraph {

/// Writes a sealed engine's complete state to `path`. An engine with tail
/// datasets attached is InvalidArgument: the image holds one relation, so
/// Compact() first.
[[nodiscard]] Status WriteEngine(const ColGraphEngine& engine, const std::string& path);

/// Restores an engine previously written by WriteEngine. The result is
/// sealed, views registered, ready for queries. Sweeps a stale
/// `<path>.tmp` left by a crashed write before opening.
[[nodiscard]] StatusOr<ColGraphEngine> ReadEngine(const std::string& path);

}  // namespace colgraph
