// Shells out to tools/lint.py: the known-bad fixture under
// tests/lint_fixtures/bad must trip every rule, and the real repository must
// be clean (the same invariant the colgraph_lint ctest target enforces).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#ifndef COLGRAPH_SOURCE_DIR
#error "COLGRAPH_SOURCE_DIR must be defined by the build"
#endif

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

LintResult RunLint(const std::string& root) {
  const std::string cmd = std::string("python3 ") + COLGRAPH_SOURCE_DIR +
                          "/tools/lint.py --root " + root + " 2>&1";
  LintResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(LintInvariantsTest, KnownBadFixtureTripsEveryRule) {
  const LintResult r = RunLint(std::string(COLGRAPH_SOURCE_DIR) +
                               "/tests/lint_fixtures/bad");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[no-raw-assert]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[no-stdout]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[pragma-once]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[include-hygiene]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[unchecked-status]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[raw-stream]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[no-raw-thread]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[no-raw-mutex]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[no-adhoc-timing]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[no-raw-socket]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[no-raw-mmap]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[raw-frame-crc]"), std::string::npos) << r.output;
  // The CRC rule matches the whole word: the fixture's direct Crc32c call
  // (line 11) trips it, its simd::Crc32cUpdate call (line 15) does not.
  EXPECT_NE(r.output.find("src/obs/bad_frame_crc.cc:11: [raw-frame-crc]"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("src/obs/bad_frame_crc.cc:15:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[phase-registry]"), std::string::npos) << r.output;
  // The registry rule flags a histogram registered outside src/obs/ (line
  // 10), not a phase's histogram or a counter (lines 14-15), and never the
  // phase table's home, src/obs/.
  EXPECT_NE(
      r.output.find("src/views/bad_phase_registry.cc:10: [phase-registry]"),
      std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("src/views/bad_phase_registry.cc:14:"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("src/views/bad_phase_registry.cc:15:"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("phase_table_fixture.cc"), std::string::npos)
      << r.output;
  // The socket rule's one carve-out: src/server/net_* may touch the raw
  // API, so the exempt fixture must never be flagged.
  EXPECT_EQ(r.output.find("net_fixture.cc"), std::string::npos) << r.output;
  // The durable-io rule flags each durable change outside io_util.cc
  // (fsync, std::rename, std::remove(path), unlink, create_directories,
  // std::filesystem::remove on lines 13-18), not the std::remove
  // algorithm or the io_util wrappers (lines 22-24), and never the socket
  // path unlink in src/server/net_socket.cc.
  EXPECT_NE(r.output.find("[durable-io]"), std::string::npos) << r.output;
  for (int line = 13; line <= 18; ++line) {
    EXPECT_NE(r.output.find("src/columnstore/bad_durable_io.cc:" +
                            std::to_string(line) + ": [durable-io]"),
              std::string::npos)
        << "line " << line << "\n" << r.output;
  }
  for (int line = 22; line <= 24; ++line) {
    EXPECT_EQ(r.output.find("src/columnstore/bad_durable_io.cc:" +
                            std::to_string(line) + ":"),
              std::string::npos)
        << "line " << line << "\n" << r.output;
  }
  EXPECT_EQ(r.output.find("src/server/net_socket.cc:"), std::string::npos)
      << r.output;
  // The timing rule covers every instrumented layer, not just src/query/:
  // each layer's fixture must trip it independently.
  EXPECT_NE(r.output.find("src/query/bad_timing.cc"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/views/bad_view_timing.cc"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/core/bad_core_timing.cc"), std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find("src/server/bad_server_timing.cc"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/columnstore/bad_store_timing.cc"),
            std::string::npos)
      << r.output;
}

TEST(LintInvariantsTest, RepositoryIsLintClean) {
  // Exercises every exemption at once — in particular, the real
  // src/columnstore/mem_map.cc calls raw mmap/munmap and must pass as the
  // one sanctioned home of the [no-raw-mmap] rule.
  const LintResult r = RunLint(COLGRAPH_SOURCE_DIR);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintInvariantsTest, MissingSrcDirectoryIsAUsageError) {
  const LintResult r =
      RunLint(std::string(COLGRAPH_SOURCE_DIR) + "/tests/lint_fixtures");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

}  // namespace
