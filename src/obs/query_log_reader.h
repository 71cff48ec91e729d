// Validating reader for the query log defined in obs/query_log.h. The
// framed-log reader (obs/framed_log.h) checks the structure: any byte
// truncation, a missing footer, trailing bytes or a record-count mismatch
// is Status::Corruption. This file decodes the record payloads, bounding
// every count by the bytes present before any allocation. A valid file
// decodes to the exact QueryLogRecord sequence that was appended.
#pragma once

#include <string>
#include <vector>

#include "obs/query_log.h"
#include "util/status.h"

namespace colgraph::obs {

/// Reads and validates a whole query log. Missing file → IOError;
/// structural damage → Corruption. Failpoint: "io:open_read".
StatusOr<std::vector<QueryLogRecord>> ReadQueryLog(const std::string& path);

/// Decodes a log already loaded into memory (torture tests mutate bytes
/// in place). `what` names the source in error messages.
StatusOr<std::vector<QueryLogRecord>> DecodeQueryLog(
    const std::vector<char>& data, const std::string& what);

}  // namespace colgraph::obs
