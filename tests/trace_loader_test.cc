#include "workload/trace_loader.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/failpoint.h"
#include "util/random.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

// The istream parser ParseTraces(std::string_view) replaced, kept as the
// differential reference. With `fixes` off it behaves exactly as before;
// with `fixes` on it also makes the two corrections the from_chars parser
// makes, and nothing else:
//  (a) a node id with a '-' sign or a value above NodeId's range is
//      malformed (operator>> wraps "-5" modulo 2^64, and the cast to
//      NodeId truncated "4294967297" to 1);
//  (b) a malformed token that runs to the end of its node or measure
//      section is malformed (operator>> sets eofbit with failbit there,
//      so the eof() test let "1 2 -" or "| 5 1e999" drop the token).
// Everything else — the leading '+', the underflow to a signed zero,
// numbers run together ("1.2.3" reads 1.2 then .3) — both parsers share.
StatusOr<std::vector<WalkTrace>> IstreamParseTraces(std::istream& in,
                                                    bool fixes) {
  // Offset just past the last value read from `s`, a stream over `text`.
  const auto consumed = [](std::istringstream& s, const std::string& text) {
    return s.eof() ? text.size() : static_cast<size_t>(s.tellg());
  };
  const auto trailing_token = [](const std::string& text, size_t from) {
    return text.find_first_not_of(" \t\r\v\f", from) != std::string::npos;
  };
  std::vector<WalkTrace> traces;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.size() > kMaxTraceLineBytes) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " exceeds " +
                                     std::to_string(kMaxTraceLineBytes) +
                                     " bytes");
    }
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);

    const auto bar = line.find('|');
    const std::string nodes =
        bar == std::string::npos ? line : line.substr(0, bar);
    std::istringstream nodes_in(nodes);

    WalkTrace trace;
    uint64_t node = 0;
    size_t parsed = 0;
    while (!(fixes && (nodes_in >> std::ws).peek() == '-') &&
           nodes_in >> node) {
      if (fixes && node > std::numeric_limits<NodeId>::max()) break;
      trace.walk.push_back(static_cast<NodeId>(node));
      if (trace.walk.size() > kMaxTraceWalkNodes) {
        return Status::InvalidArgument(
            "walk exceeds " + std::to_string(kMaxTraceWalkNodes) +
            " nodes on line " + std::to_string(line_number));
      }
      parsed = consumed(nodes_in, nodes);
    }
    if (!nodes_in.eof() ||
        (fixes && (node > std::numeric_limits<NodeId>::max() ||
                   trailing_token(nodes, parsed)))) {
      return Status::InvalidArgument("malformed node id on line " +
                                     std::to_string(line_number));
    }
    if (trace.walk.empty()) continue;  // blank / comment-only line
    if (trace.walk.size() < 2) {
      return Status::InvalidArgument("walk needs at least two nodes on line " +
                                     std::to_string(line_number));
    }

    if (bar != std::string::npos) {
      const std::string measures = line.substr(bar + 1);
      std::istringstream measures_in(measures);
      double value = 0;
      parsed = 0;
      while (measures_in >> value) {
        if (!std::isfinite(value)) {
          return Status::InvalidArgument("non-finite measure on line " +
                                         std::to_string(line_number));
        }
        trace.measures.push_back(value);
        parsed = consumed(measures_in, measures);
      }
      if (!measures_in.eof() || (fixes && trailing_token(measures, parsed))) {
        return Status::InvalidArgument("malformed measure on line " +
                                       std::to_string(line_number));
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

StatusOr<std::vector<WalkTrace>> IstreamParse(const std::string& text,
                                              bool fixes) {
  std::istringstream in(text);
  return IstreamParseTraces(in, fixes);
}

TEST(TraceLoaderTest, ParsesWalksWithMeasures) {
  std::istringstream in("1 2 3 | 1.5 2.5\n4 5 | 7\n");
  const auto traces = ParseTraces(in);
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->size(), 2u);
  EXPECT_EQ((*traces)[0].walk, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ((*traces)[0].measures, (std::vector<double>{1.5, 2.5}));
  EXPECT_EQ((*traces)[1].measures, (std::vector<double>{7}));
}

TEST(TraceLoaderTest, DefaultsMeasuresToOne) {
  std::istringstream in("1 2 3 4\n");
  const auto traces = ParseTraces(in);
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ((*traces)[0].measures, (std::vector<double>{1, 1, 1}));
}

TEST(TraceLoaderTest, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n1 2\n   # indented comment\n3 4 # tail\n");
  const auto traces = ParseTraces(in);
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ(traces->size(), 2u);
}

TEST(TraceLoaderTest, RejectsMeasureCountMismatch) {
  std::istringstream in("1 2 3 | 1.0\n");
  EXPECT_TRUE(ParseTraces(in).status().IsInvalidArgument());
}

TEST(TraceLoaderTest, RejectsSingleNodeWalk) {
  std::istringstream in("42\n");
  EXPECT_TRUE(ParseTraces(in).status().IsInvalidArgument());
}

TEST(TraceLoaderTest, RejectsGarbage) {
  std::istringstream a("1 banana 3\n");
  EXPECT_TRUE(ParseTraces(a).status().IsInvalidArgument());
  std::istringstream b("1 2 | x\n");
  EXPECT_TRUE(ParseTraces(b).status().IsInvalidArgument());
}

TEST(TraceLoaderTest, ErrorsNameTheLine) {
  std::istringstream in("1 2\n1 2 3 | 9\n");
  const auto traces = ParseTraces(in);
  ASSERT_FALSE(traces.ok());
  EXPECT_NE(traces.status().message().find("line 2"), std::string::npos);
}

TEST(TraceLoaderTest, IngestTraceFileEndToEnd) {
  const std::string path = ::testing::TempDir() + "colgraph_traces_test.txt";
  {
    std::ofstream out(path);
    out << "# delivery traces\n";
    out << "1 2 3 | 10 20\n";
    out << "2 3 4 | 30 40\n";
    out << "1 2 1 | 5 6\n";  // cyclic: flattened at ingest
  }
  ColGraphEngine engine;
  const auto added = IngestTraceFile(&engine, path);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 3u);
  ASSERT_TRUE(engine.Seal().ok());
  EXPECT_EQ(engine.Match(GraphQuery::FromPath({N(2), N(3)})).Count(), 2u);
  // The cycle became 1 -> 2 -> 1'.
  EXPECT_TRUE(engine.catalog().Lookup(Edge{N(2), N(1, 1)}).has_value());
  std::remove(path.c_str());
}

TEST(TraceLoaderTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadTraceFile("/no/such/file.txt").status().IsIOError());
}

// ---------------------------------------------------------------------------
// Input hardening.

TEST(TraceLoaderTest, RejectsNonFiniteMeasures) {
  // Whether the stream rejects the token outright or the finiteness check
  // fires, every spelling must come back as a line-annotated
  // InvalidArgument — a NaN measure must never reach a column.
  for (const char* bad : {"1 2 | nan\n", "1 2 | inf\n", "1 2 | -inf\n",
                          "1 2 | NaN\n", "1 2 3 | 1.0 1e999999\n"}) {
    std::istringstream in(bad);
    const Status st = ParseTraces(in).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << bad << st.ToString();
    EXPECT_NE(st.message().find("line 1"), std::string::npos) << bad;
  }
}

TEST(TraceLoaderTest, RejectsOverlongLine) {
  std::string line(kMaxTraceLineBytes + 1, ' ');
  line += "1 2\n";
  std::istringstream in(line);
  const Status st = ParseTraces(in).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("line 1"), std::string::npos);
}

TEST(TraceLoaderTest, RejectsOverlongWalk) {
  std::string line;
  for (size_t i = 0; i <= kMaxTraceWalkNodes; ++i) line += "1 ";
  line += "\n";
  std::istringstream in(line);
  const Status st = ParseTraces(in).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("exceeds"), std::string::npos);
}

// A node id is an unsigned decimal that fits NodeId. The old parser read a
// uint64_t and cast it, so "4294967297" ingested as node 1 and "-5"
// (which operator>> wraps modulo 2^64) as node 4294967291.
void ExpectMalformedNodeId(const std::string& text, const std::string& line) {
  const Status st = ParseTraces(text).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << text << st.ToString();
  EXPECT_NE(st.message().find("malformed node id on line " + line),
            std::string::npos)
      << text << st.ToString();
}

TEST(TraceLoaderTest, RejectsNodeIdPast32Bits) {
  ExpectMalformedNodeId("4294967297 2 | 1\n", "1");
  ExpectMalformedNodeId("1 2\n3 4294967296\n", "2");
  ExpectMalformedNodeId("1 18446744073709551616 | 1\n", "1");
}

TEST(TraceLoaderTest, RejectsNegativeNodeId) {
  ExpectMalformedNodeId("-5 2 | 1\n", "1");
  ExpectMalformedNodeId("1 2\n1 -0\n", "2");
  ExpectMalformedNodeId("1-5 2\n", "1");
}

TEST(TraceLoaderTest, AcceptsLargestNodeIdAndPlusSign) {
  const auto traces = ParseTraces("4294967295 +7 | +1.5\n");
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  ASSERT_EQ(traces->size(), 1u);
  EXPECT_EQ((*traces)[0].walk, (std::vector<NodeId>{4294967295u, 7}));
  EXPECT_EQ((*traces)[0].measures, (std::vector<double>{1.5}));
}

// operator>> sets eofbit along with failbit when a malformed token runs
// to the end of its section, and the old parser took eof() for a clean
// end: these lines ingested with the token silently dropped.
TEST(TraceLoaderTest, RejectsMalformedTokenAtEndOfSection) {
  for (const char* bad : {"1 2 -\n", "1 2 +| 5\n", "1 2 | 5 -\n",
                          "1 2 | 5 1e\n", "1 2 | 5 1e999\n",
                          "1 2 99999999999999999999\n"}) {
    const auto old = IstreamParse(bad, /*fixes=*/false);
    EXPECT_TRUE(old.ok()) << bad << old.status().ToString();
    const Status st = ParseTraces(bad).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << bad << st.ToString();
    EXPECT_NE(st.message().find("line 1"), std::string::npos) << bad;
  }
}

TEST(TraceLoaderTest, UnderflowReadsAsSignedZero) {
  const auto traces = ParseTraces("1 2 3 | 1e-400 -2e-324\n");
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  const std::vector<double>& m = (*traces)[0].measures;
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], 0.0);
  EXPECT_FALSE(std::signbit(m[0]));
  EXPECT_EQ(m[1], 0.0);
  EXPECT_TRUE(std::signbit(m[1]));
}

// ---------------------------------------------------------------------------
// Differential: ParseTraces against the istream reference with its two
// fixes on, over seeded generated batches and byte-level mutants of them.
// Both must return the same status code and, on success, the same walks
// and the same measure bits.

size_t IterationsFromEnv(size_t default_iters) {
  const char* s = std::getenv("COLGRAPH_DIFF_ITERS");
  if (s == nullptr) return default_iters;
  const long v = std::strtol(s, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

std::string RandomNodeToken(Rng& rng) {
  static const char* kEdge[] = {"0",          "007",        "+7",
                                "4294967295", "4294967296", "4294967297",
                                "-5",         "-0",         "+-3",
                                "18446744073709551615",
                                "18446744073709551616",     "1x"};
  if (rng.Bernoulli(0.03)) return kEdge[rng.Uniform(0, std::size(kEdge) - 1)];
  return std::to_string(rng.Uniform(0, 40));
}

std::string RandomMeasureToken(Rng& rng) {
  static const char* kEdge[] = {
      "1e-400", "-1e-400", "2e-324", "4.9e-324", "1e999", "-1e999", "inf",
      "nan",    "-0",      ".5",     "5.",       "+1.5",  "1.e5",   "1e",
      "-",      "+",       "1.2.3",  "0x1p3",    "1E+05", "-.25",   "++1",
      // Either side of the short-decimal fast path's limits: 15 and 16
      // significant digits, 22 and 23 after the point, 2^53 + 1.
      "123456789.012345", "1234567890.123456", "0.0000000000000000000001",
      "0.00000000000000000000001", "9007199254740993", "-0000000042.50"};
  if (rng.Bernoulli(0.03)) return kEdge[rng.Uniform(0, std::size(kEdge) - 1)];
  char buf[64];
  const double v = rng.UniformReal(-1e6, 1e6);
  switch (rng.Uniform(0, 3)) {
    case 0: std::snprintf(buf, sizeof(buf), "%.17g", v); break;
    case 1: std::snprintf(buf, sizeof(buf), "%.2f", v); break;
    case 2: std::snprintf(buf, sizeof(buf), "%e", v); break;
    default: std::snprintf(buf, sizeof(buf), "%g", v / 1e9); break;
  }
  return buf;
}

std::string RandomBlank(Rng& rng) {
  static const char* kBlanks[] = {" ", " ", " ", "  ", "\t", " \v", "\f "};
  return kBlanks[rng.Uniform(0, std::size(kBlanks) - 1)];
}

std::string RandomBatch(Rng& rng) {
  std::string text;
  const size_t lines = rng.Uniform(0, 12);
  for (size_t l = 0; l < lines; ++l) {
    switch (rng.Uniform(0, 9)) {
      case 0: text += ""; break;
      case 1: text += "# comment " + RandomNodeToken(rng); break;
      case 2: text += RandomBlank(rng) + "| 1 2"; break;
      default: {
        const size_t nodes = rng.Uniform(1, 7);
        if (rng.Bernoulli(0.3)) text += RandomBlank(rng);
        for (size_t n = 0; n < nodes; ++n) {
          if (n > 0) text += RandomBlank(rng);
          text += RandomNodeToken(rng);
        }
        if (rng.Bernoulli(0.8)) {
          text += RandomBlank(rng) + "|";
          // Usually one measure per hop; sometimes one off either way.
          size_t measures = nodes - 1;
          if (rng.Bernoulli(0.1)) measures += rng.Uniform(0, 2);
          if (measures > 0 && rng.Bernoulli(0.05)) --measures;
          for (size_t m = 0; m < measures; ++m) {
            text += RandomBlank(rng) + RandomMeasureToken(rng);
          }
        }
        if (rng.Bernoulli(0.1)) text += " # trailing";
        if (rng.Bernoulli(0.2)) text += RandomBlank(rng);
        break;
      }
    }
    if (rng.Bernoulli(0.1)) text += "\r";
    if (l + 1 < lines || rng.Bernoulli(0.7)) text += "\n";
  }
  return text;
}

// One to three byte edits drawn from the characters the scanner treats
// specially.
std::string Mutate(Rng& rng, std::string text) {
  static const char kAlphabet[] = "0123456789+-.eE|# \t\r\n\vxin";
  const size_t edits = rng.Uniform(1, 3);
  for (size_t i = 0; i < edits; ++i) {
    const char c = kAlphabet[rng.Uniform(0, sizeof(kAlphabet) - 2)];
    const size_t pos = text.empty() ? 0 : rng.Uniform(0, text.size() - 1);
    switch (text.empty() ? 0 : rng.Uniform(0, 2)) {
      case 0: text.insert(text.begin() + static_cast<ptrdiff_t>(pos), c); break;
      case 1: text[pos] = c; break;
      default: text.erase(pos, 1); break;
    }
  }
  return text;
}

bool SameTraces(const std::vector<WalkTrace>& a,
                const std::vector<WalkTrace>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].walk != b[i].walk ||
        a[i].measures.size() != b[i].measures.size()) {
      return false;
    }
    if (!a[i].measures.empty() &&
        std::memcmp(a[i].measures.data(), b[i].measures.data(),
                    a[i].measures.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(TraceLoaderTest, MatchesIstreamReferenceOnGeneratedAndMutatedBatches) {
  const size_t iters = IterationsFromEnv(4000);
  Rng rng(20261018);
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < iters; ++i) {
    std::string text = RandomBatch(rng);
    if (i % 2 == 1) text = Mutate(rng, std::move(text));
    const auto want = IstreamParse(text, /*fixes=*/true);
    const auto got = ParseTraces(text);
    ASSERT_EQ(want.status().code(), got.status().code())
        << "batch " << i << ":\n" << text << "\nreference: "
        << want.status().ToString() << "\nfrom_chars: "
        << got.status().ToString();
    if (got.ok()) {
      ++accepted;
      ASSERT_TRUE(SameTraces(*want, *got)) << "batch " << i << ":\n" << text;
      // The istream overload is a read-then-delegate wrapper.
      std::istringstream in(text);
      const auto wrapped = ParseTraces(in);
      ASSERT_TRUE(wrapped.ok());
      ASSERT_TRUE(SameTraces(*got, *wrapped)) << "batch " << i;
    } else {
      ++rejected;
    }
  }
  // Both outcomes must be well represented, or the comparison is vacuous.
  EXPECT_GT(accepted, iters / 5) << rejected << " rejected";
  EXPECT_GT(rejected, iters / 5);
}

// ---------------------------------------------------------------------------
// All-or-nothing ingest.

class TraceIngestTest : public ::testing::Test {
 protected:
  // Per-test file name: ctest runs each test as its own process, so a
  // shared name would let parallel tests clobber each other.
  std::string path_ =
      ::testing::TempDir() + "colgraph_ingest_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  void TearDown() override { std::remove(path_.c_str()); }
  void WriteTraceFile(const std::string& body) {
    std::ofstream out(path_);
    out << body;
  }
};

TEST_F(TraceIngestTest, SealedEngineIngestLeavesEngineUntouched) {
  // AddRecord grows the edge catalog before the sealed relation rejects
  // the record; the staged-copy commit must shield the live engine from
  // that partial mutation.
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  ASSERT_TRUE(engine.Seal().ok());
  const size_t catalog_before = engine.catalog().size();

  WriteTraceFile("7 8 9 | 1 2\n");
  EXPECT_TRUE(IngestTraceFile(&engine, path_).status().IsInvalidArgument());
  EXPECT_EQ(engine.num_records(), 1u);
  EXPECT_EQ(engine.catalog().size(), catalog_before);
}

TEST_F(TraceIngestTest, MidFileFaultLeavesEngineUntouched) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (COLGRAPH_FAILPOINTS=OFF)";
  }
  ColGraphEngine engine;
  ASSERT_TRUE(engine.AddWalk({1, 2}, {1.0}).ok());
  const size_t catalog_before = engine.catalog().size();

  WriteTraceFile("1 2 3 | 10 20\n4 5 | 30\n6 7 | 40\n");
  // Fault on the second walk: the first walk has already hit the staged
  // copy, and none of it may leak into the live engine.
  ASSERT_TRUE(failpoint::ArmFromSpecString("trace:add_walk=error@1").ok());
  EXPECT_TRUE(IngestTraceFile(&engine, path_).status().IsIOError());
  failpoint::DisarmAll();
  EXPECT_EQ(engine.num_records(), 1u);
  EXPECT_EQ(engine.catalog().size(), catalog_before);

  // With the fault cleared the same file ingests fully.
  const auto added = IngestTraceFile(&engine, path_);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 3u);
  EXPECT_EQ(engine.num_records(), 4u);
}

TEST_F(TraceIngestTest, FaultBeforeCommitLeavesEngineUntouched) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (COLGRAPH_FAILPOINTS=OFF)";
  }
  ColGraphEngine engine;
  WriteTraceFile("1 2 | 5\n2 3 | 6\n");
  // Every walk applies cleanly; the fault hits at the commit boundary.
  ASSERT_TRUE(failpoint::ArmFromSpecString("trace:before_commit=error").ok());
  EXPECT_TRUE(IngestTraceFile(&engine, path_).status().IsIOError());
  failpoint::DisarmAll();
  EXPECT_EQ(engine.num_records(), 0u);
  EXPECT_EQ(engine.catalog().size(), 0u);
}

TEST_F(TraceIngestTest, OpenFaultIsIOError) {
  if (!failpoint::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out (COLGRAPH_FAILPOINTS=OFF)";
  }
  ColGraphEngine engine;
  WriteTraceFile("1 2 | 5\n");
  ASSERT_TRUE(failpoint::ArmFromSpecString("trace:open=error").ok());
  EXPECT_TRUE(IngestTraceFile(&engine, path_).status().IsIOError());
  failpoint::DisarmAll();
  EXPECT_EQ(engine.num_records(), 0u);
}

}  // namespace
}  // namespace colgraph
