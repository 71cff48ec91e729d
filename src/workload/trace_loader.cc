#include "workload/trace_loader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <streambuf>
#include <utility>

#include "columnstore/io_util.h"
#include "util/failpoint.h"

namespace colgraph {

namespace {

// The whitespace operator>> skips between numbers (lines end at '\n').
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// operator>> reads one leading '+' before a number and from_chars does
// not, so the scanner steps over it; "+-1" and "++1" stay malformed.
const char* SkipPlus(const char* p, const char* end) {
  if (end - p >= 2 && p[0] == '+' && p[1] != '+' && p[1] != '-') return p + 1;
  return p;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// 10^0 .. 10^22, every power of ten a double holds exactly.
constexpr double kExactPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                  1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                                  1e18, 1e19, 1e20, 1e21, 1e22};

// One measure, read as operator>> reads a double.
//
// Traces write short decimals ("42.17"). When one has no exponent, at
// most 15 significant digits and at most 22 after the point, it is an
// integer below 2^53 divided by an exact power of ten, and that one IEEE
// division is correctly rounded (Clinger's fast path): the same double
// from_chars and strtod produce, at a fraction of their cost.
//
// Everything else goes to from_chars, which reports a magnitude outside
// double's range as out of range; strtod, which operator>> uses, rounds
// an underflow to a signed zero and overflows to infinity (which
// operator>> fails), so only the overflow is an error.
std::from_chars_result ParseMeasure(const char* p, const char* end,
                                    double* value) {
  const char* q = p + (p != end && *p == '-');
  uint64_t mantissa = 0;
  size_t digits = 0;       // all digits read
  size_t significant = 0;  // digits from the first non-zero one on
  size_t fraction = 0;     // digits after the point
  bool point = false;
  for (; q != end; ++q) {
    if (*q == '.' && !point) {
      point = true;
      continue;
    }
    if (!IsDigit(*q)) break;
    ++digits;
    fraction += point;
    significant += mantissa != 0 || *q != '0';
    mantissa = mantissa * 10 + static_cast<uint64_t>(*q - '0');
  }
  if (digits > 0 && significant <= 15 && fraction <= 22 &&
      (q == end || (*q != 'e' && *q != 'E'))) {
    const double magnitude =
        static_cast<double>(mantissa) / kExactPow10[fraction];
    *value = *p == '-' ? -magnitude : magnitude;
    return {q, std::errc{}};
  }

  std::from_chars_result r = std::from_chars(p, end, *value);
  if (r.ec == std::errc::result_out_of_range) {
    const std::string token(p, r.ptr);
    *value = std::strtod(token.c_str(), nullptr);
    if (!std::isinf(*value)) r.ec = std::errc{};
  }
  return r;
}

Status LineError(const std::string& what, size_t line_number) {
  return Status::InvalidArgument(what + " on line " +
                                 std::to_string(line_number));
}

}  // namespace

StatusOr<std::vector<WalkTrace>> ParseTraces(std::string_view text) {
  std::vector<WalkTrace> traces;
  size_t line_number = 0;
  while (!text.empty()) {
    const size_t newline = text.find('\n');
    std::string_view line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    ++line_number;
    if (line.size() > kMaxTraceLineBytes) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " exceeds " +
                                     std::to_string(kMaxTraceLineBytes) +
                                     " bytes");
    }
    line = line.substr(0, line.find('#'));
    const size_t bar = line.find('|');
    const char* p = line.data();
    const char* nodes_end = p + std::min(bar, line.size());

    WalkTrace trace;
    while (true) {
      while (p != nodes_end && IsBlank(*p)) ++p;
      if (p == nodes_end) break;
      // Node ids are unsigned and must fit NodeId: a sign other than '+'
      // or a value past its range is malformed, never wrapped.
      NodeId node = 0;
      const auto [next, ec] =
          std::from_chars(SkipPlus(p, nodes_end), nodes_end, node);
      if (ec != std::errc{}) {
        return LineError("malformed node id", line_number);
      }
      trace.walk.push_back(node);
      if (trace.walk.size() > kMaxTraceWalkNodes) {
        return LineError("walk exceeds " + std::to_string(kMaxTraceWalkNodes) +
                             " nodes",
                         line_number);
      }
      p = next;
    }
    if (trace.walk.empty()) continue;  // blank / comment-only line
    if (trace.walk.size() < 2) {
      return LineError("walk needs at least two nodes", line_number);
    }

    if (bar != std::string_view::npos) {
      trace.measures.reserve(trace.walk.size() - 1);
      p = line.data() + bar + 1;
      const char* end = line.data() + line.size();
      while (true) {
        while (p != end && IsBlank(*p)) ++p;
        if (p == end) break;
        double value = 0;
        const auto [next, ec] = ParseMeasure(SkipPlus(p, end), end, &value);
        if (ec != std::errc{}) {
          return LineError("malformed measure", line_number);
        }
        if (!std::isfinite(value)) {
          return LineError("non-finite measure", line_number);
        }
        trace.measures.push_back(value);
        p = next;
      }
      if (trace.measures.size() != trace.walk.size() - 1) {
        return Status::InvalidArgument(
            "expected " + std::to_string(trace.walk.size() - 1) +
            " measures on line " + std::to_string(line_number) + ", got " +
            std::to_string(trace.measures.size()));
      }
    } else {
      trace.measures.assign(trace.walk.size() - 1, 1.0);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

StatusOr<std::vector<WalkTrace>> ParseTraces(std::istream& in) {
  // One buffer, sized up front when the stream can seek (files and string
  // streams can): growing it as it fills costs more than parsing a
  // 500-walk batch. The loop reads what is left, all of a stream that
  // cannot seek.
  std::streambuf* buf = in.rdbuf();
  std::string text;
  const std::streampos here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  const std::streampos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  if (here != std::streampos(-1) && end != std::streampos(-1) &&
      buf->pubseekpos(here, std::ios::in) == here) {
    text.resize(static_cast<size_t>(end - here));
    text.resize(static_cast<size_t>(
        buf->sgetn(text.data(), static_cast<std::streamsize>(text.size()))));
  }
  char chunk[4096];
  for (std::streamsize n; (n = buf->sgetn(chunk, sizeof(chunk))) > 0;) {
    text.append(chunk, static_cast<size_t>(n));
  }
  return ParseTraces(std::string_view(text));
}

StatusOr<std::vector<WalkTrace>> LoadTraceFile(const std::string& path) {
  COLGRAPH_ASSIGN_OR_RETURN(auto in, io::OpenTextForRead(path));
  return ParseTraces(in);
}

StatusOr<size_t> IngestTraceFile(ColGraphEngine* engine,
                                 const std::string& path) {
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<WalkTrace> traces,
                            LoadTraceFile(path));
  // All-or-nothing: apply every walk to a staged copy first, so a failure
  // mid-file (a rejected walk, an injected fault) cannot leave the live
  // engine with half the records or a partially grown edge catalog.
  ColGraphEngine staged = *engine;
  for (const WalkTrace& t : traces) {
    COLGRAPH_FAILPOINT("trace:add_walk");
    COLGRAPH_RETURN_NOT_OK(staged.AddWalk(t.walk, t.measures).status());
  }
  COLGRAPH_FAILPOINT("trace:before_commit");
  *engine = std::move(staged);
  return traces.size();
}

}  // namespace colgraph
