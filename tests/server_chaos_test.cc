// Chaos coverage for the serving daemon (ISSUE 7, label `server`):
// injected connect failures, torn response writes, a writer crash
// mid-publish, malformed and oversized frames, a slow client against the
// IO timeout, and drain with live connections. The contract under every
// fault: no torn snapshot is ever served, failures surface as clean
// retryable statuses, a client retry succeeds end-to-end, and drain
// flushes the query log and removes the socket file. SocketPathTest covers
// what Bind finds at the socket path: a stale socket, a live daemon's
// socket, a regular file.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/engine.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/net_socket.h"
#include "server/protocol.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace colgraph::server {
namespace {

class ServerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kEnabled) GTEST_SKIP() << "failpoints compiled out";
    failpoint::DisarmAll();
    socket_path_ = "/tmp/colgraph_chaos_" + std::to_string(::getpid()) +
                   "_" + std::to_string(instance_++) + ".sock";
    query_log_path_ = testing::TempDir() + "chaos_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(instance_) + ".qlog";

    EngineOptions engine_options;
    engine_options.query_log.path = query_log_path_;
    auto initial = std::make_shared<ColGraphEngine>(engine_options);
    ASSERT_TRUE(initial->AddWalk({1, 2, 3}, {5, 6}).ok());
    ASSERT_TRUE(initial->AddWalk({2, 3, 4}, {7, 8}).ok());
    ASSERT_TRUE(initial->Seal().ok());

    DaemonOptions options;
    options.socket_path = socket_path_;
    options.num_workers = 4;
    options.io_timeout_ms = 200;  // fast hung-client verdicts in tests
    auto daemon = Daemon::Start(std::move(initial), options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(daemon).value();
  }

  void TearDown() override {
    failpoint::DisarmAll();
    daemon_.reset();
    (void)std::remove(query_log_path_.c_str());
  }

  Client MakeClient() {
    ClientOptions options;
    options.socket_path = socket_path_;
    options.backoff_base_ms = 1;  // keep test retries fast
    options.backoff_max_ms = 5;
    return Client(options);
  }

  static int instance_;
  std::string socket_path_;
  std::string query_log_path_;
  std::unique_ptr<Daemon> daemon_;
};

int ServerChaosTest::instance_ = 0;

// Polls `done` every millisecond for up to ten seconds; true once it
// holds. A connection worker captures a request's slow-query record after
// it has written the response, so a client holding its answer can be
// ahead of the capture.
bool Eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 10000 && !done(); ++i) SleepMs(1);
  return done();
}

TEST_F(ServerChaosTest, ConnectFailureRetriesEndToEnd) {
  failpoint::Arm("net:connect",
                 failpoint::Spec{failpoint::Action::kError, 0, 0});
  Client client = MakeClient();
  const auto response = client.Ping();  // attempt 1 fails, attempt 2 lands
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok());
  EXPECT_EQ(client.attempts_made(), 2u);
}

TEST_F(ServerChaosTest, TornResponseWriteRetriesEndToEnd) {
  Client client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());  // connection up, first exchange clean

  // One-shot short write, skipping the client's own request write (hit 1)
  // so it fires on the server's response (hit 2): the client sees a torn
  // frame, reconnects, retries, and the retry succeeds.
  failpoint::Arm("net:short_write",
                 failpoint::Spec{failpoint::Action::kShortWrite, 1, 4});
  const auto response = client.Query("[1,2,3]");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok());
  EXPECT_EQ(response->body, "match 1: r0\n");
  EXPECT_GE(client.attempts_made(), 2u);
}

TEST_F(ServerChaosTest, CrashMidPublishServesUntornSnapshot) {
  Client client = MakeClient();
  const auto before = client.Query("[1,2,3]");
  ASSERT_TRUE(before.ok() && before->ok());
  ASSERT_EQ(before->snapshot_epoch, 0u);

  // The writer "crashes" before the swap: everything it built is
  // abandoned, the epoch does not move, readers keep the old snapshot.
  failpoint::Arm("server:publish",
                 failpoint::Spec{failpoint::Action::kCrash, 0, 0});
  const auto crashed = daemon_->Ingest("1 2 3 | 50 60\n");
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(daemon_->snapshot_epoch(), 0u);

  const auto after = client.Query("[1,2,3]");
  ASSERT_TRUE(after.ok() && after->ok());
  EXPECT_EQ(after->snapshot_epoch, 0u);
  EXPECT_EQ(after->body, before->body);  // byte-identical: nothing torn

  // The writer retries (failpoint consumed): publish lands, epoch bumps,
  // and the new record is visible — recovery end-to-end.
  const auto retried = daemon_->Ingest("1 2 3 | 50 60\n");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  const auto healed = client.Query("[1,2,3]");
  ASSERT_TRUE(healed.ok() && healed->ok());
  EXPECT_EQ(healed->snapshot_epoch, 1u);
  EXPECT_EQ(healed->body, "match 2: r0 r2\n");
}

TEST_F(ServerChaosTest, CorruptFrameGetsErrorResponseAndHangup) {
  auto socket = UnixSocket::Connect(socket_path_, 1000);
  ASSERT_TRUE(socket.ok());

  std::vector<char> frame;
  AppendRequestFrame(Request{}, &frame);
  frame.back() ^= 0x01;  // CRC now wrong
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size(), 1000).ok());

  // The server answers with a decodable error response...
  char header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(socket->ReadFull(header_bytes, kFrameHeaderBytes, 1000).ok());
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, &header).ok());
  ASSERT_EQ(header.type, kResponseFrame);
  std::vector<char> payload(header.payload_len);
  ASSERT_TRUE(
      socket->ReadFull(payload.data(), payload.size(), 1000).ok());
  const auto response = DecodeResponsePayload(payload.data(), payload.size());
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok());
  EXPECT_FALSE(IsRetryableWireCode(response->code));

  // ...then hangs up: the stream is desynchronized and untrustworthy.
  char byte;
  const Status eof = socket->ReadFull(&byte, 1, 1000);
  EXPECT_TRUE(eof.IsUnavailable()) << eof.ToString();

  // The daemon itself is unharmed.
  Client client = MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerChaosTest, OversizedLengthPrefixGetsErrorAndHangup) {
  auto socket = UnixSocket::Connect(socket_path_, 1000);
  ASSERT_TRUE(socket.ok());

  // Hostile header: claims a payload far over the cap. The server must
  // refuse without allocating and close the connection.
  std::vector<char> header(kFrameHeaderBytes, 0);
  header[0] = static_cast<char>(kRequestFrame);
  const uint64_t huge = kMaxFramePayloadBytes * 4;
  std::memcpy(header.data() + 1, &huge, sizeof(huge));
  ASSERT_TRUE(socket->WriteAll(header.data(), header.size(), 1000).ok());

  char reply_header[kFrameHeaderBytes];
  ASSERT_TRUE(
      socket->ReadFull(reply_header, kFrameHeaderBytes, 1000).ok());
  FrameHeader decoded;
  ASSERT_TRUE(DecodeFrameHeader(reply_header, &decoded).ok());
  EXPECT_EQ(decoded.type, kResponseFrame);

  Client client = MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerChaosTest, SlowClientIsDroppedNotServed) {
  auto socket = UnixSocket::Connect(socket_path_, 1000);
  ASSERT_TRUE(socket.ok());

  // Send half a header, then stall past io_timeout_ms (200 in this
  // fixture): the server must drop the connection instead of wedging a
  // worker on the hung peer.
  std::vector<char> frame;
  AppendRequestFrame(Request{}, &frame);
  ASSERT_TRUE(socket->WriteAll(frame.data(), 5, 1000).ok());
  SleepMs(600);

  char byte;
  const Status read = socket->ReadFull(&byte, 1, 1000);
  EXPECT_FALSE(read.ok());  // dropped: EOF/reset, never a served response

  // All workers still free for honest clients.
  Client client = MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerChaosTest, DrainClosesIdleConnectionsAndFlushesLog) {
  Client client = MakeClient();
  ASSERT_TRUE(client.Query("SUM [1,2]").ok());  // captured in the log

  // Drain with the client's keep-alive connection still open: the idle
  // request loop must notice and let drain complete (not block until the
  // client goes away).
  ASSERT_TRUE(daemon_->Drain().ok());
  EXPECT_TRUE(daemon_->draining());

  // The socket file is gone and new calls fail with the retryable
  // UNAVAILABLE after exhausting backoff.
  struct stat st;
  EXPECT_NE(::stat(socket_path_.c_str(), &st), 0);
  client.Disconnect();
  const auto after = client.Ping();
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsUnavailable()) << after.status().ToString();

  // The query log was flushed and footer-closed on drain: it must be
  // readable (a truncated log reads as Corruption).
  struct stat log_st;
  ASSERT_EQ(::stat(query_log_path_.c_str(), &log_st), 0);
  EXPECT_GT(log_st.st_size, 0);
}

TEST_F(ServerChaosTest, AdmissionRejectionIsRetryableAndRecovers) {
  // Rebuild the daemon with a tiny in-flight bound and a test delay so
  // overload is deterministic: one slow request occupies the single slot;
  // a direct Execute during that window is rejected RESOURCE_EXHAUSTED.
  daemon_.reset();
  auto initial = std::make_shared<ColGraphEngine>();
  ASSERT_TRUE(initial->AddWalk({1, 2}, {1}).ok());
  ASSERT_TRUE(initial->Seal().ok());
  DaemonOptions options;
  options.socket_path = socket_path_;
  options.num_workers = 4;
  options.max_in_flight = 1;
  options.test_delay_before_execute_ms = 400;
  auto daemon = Daemon::Start(std::move(initial), options);
  ASSERT_TRUE(daemon.ok());
  daemon_ = std::move(daemon).value();

  // Occupy the slot over the socket; race a direct Execute into the delay
  // window. ThreadPool(1) gives the background request its own thread.
  ThreadPool background(1);
  background.Schedule([this] {
    Client slow = MakeClient();
    (void)slow.Ping();
  });
  SleepMs(100);  // inside the occupier's 400ms execution window
  const Response rejected = daemon_->Execute(Request{});
  EXPECT_EQ(rejected.code, kWireResourceExhausted);
  EXPECT_TRUE(IsRetryableWireCode(rejected.code));

  // A retrying client succeeds once the slot frees (backoff outlives the
  // occupier).
  ClientOptions retry_options;
  retry_options.socket_path = socket_path_;
  retry_options.backoff_base_ms = 100;
  retry_options.backoff_max_ms = 400;
  retry_options.max_attempts = 6;
  Client retrying(retry_options);
  const auto eventually = retrying.Ping();
  ASSERT_TRUE(eventually.ok()) << eventually.status().ToString();
  EXPECT_TRUE(eventually->ok());
}

TEST_F(ServerChaosTest, SlowQueryLogDiskFullDegradesCaptureNotServing) {
  // Rebuild with slow-query capture on (threshold 0: every request is
  // captured; flush_bytes 1: every capture hits the disk immediately) and
  // no query log, so the injected write failure lands on the slow log.
  daemon_.reset();
  auto initial = std::make_shared<ColGraphEngine>();
  ASSERT_TRUE(initial->AddWalk({1, 2, 3}, {5, 6}).ok());
  ASSERT_TRUE(initial->Seal().ok());
  DaemonOptions options;
  options.socket_path = socket_path_;
  options.num_workers = 2;
  options.slow_query_log.path = query_log_path_ + ".sq";
  options.slow_query_log.threshold_us = 0;
  options.slow_query_log.flush_bytes = 1;
  auto daemon = Daemon::Start(std::move(initial), options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  daemon_ = std::move(daemon).value();

  const obs::SlowQueryLog* slow_log = daemon_->slow_query_log();
  ASSERT_NE(slow_log, nullptr);
  Client client = MakeClient();
  ASSERT_TRUE(client.Query("[1,2,3]").ok());  // capture path healthy
  // The healthy capture is on disk before the fault is armed.
  ASSERT_TRUE(Eventually([&] { return slow_log->records_appended() >= 1; }));

  // Disk full at the next slow-log flush. The capture is lost and the log
  // poisons itself — but the request that carried it is served normally,
  // and so is everything after.
  failpoint::Arm("io:short_write",
                 failpoint::Spec{failpoint::Action::kShortWrite, 0, 4});
  const auto during = client.Query("[1,2,3]");
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_TRUE(during->ok());
  // The fault stays armed until the poisoning flush has happened.
  ASSERT_TRUE(Eventually([&] { return slow_log->records_dropped() >= 1; }));
  failpoint::DisarmAll();

  for (int i = 0; i < 5; ++i) {
    const auto after = client.Query("SUM [1,2]");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_TRUE(after->ok());
  }
  // Draining joins the workers, so every capture has been offered; the
  // drain reports the poisoned log's write error.
  EXPECT_FALSE(daemon_->Drain().ok());
  EXPECT_EQ(slow_log->records_dropped(), 6u);
  (void)std::remove((query_log_path_ + ".sq").c_str());
}

TEST_F(ServerChaosTest, MetricsExporterFailureDoesNotAffectServing) {
  // Rebuild with the exporter on a long period so only explicit
  // ExportOnce() calls touch the disk.
  daemon_.reset();
  auto initial = std::make_shared<ColGraphEngine>();
  ASSERT_TRUE(initial->AddWalk({1, 2, 3}, {5, 6}).ok());
  ASSERT_TRUE(initial->Seal().ok());
  DaemonOptions options;
  options.socket_path = socket_path_;
  options.num_workers = 2;
  options.metrics_dir = testing::TempDir() + "chaos_metrics_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(instance_);
  options.metrics_period_ms = 60 * 1000;
  auto daemon = Daemon::Start(std::move(initial), options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  daemon_ = std::move(daemon).value();
  ASSERT_NE(daemon_->metrics_exporter(), nullptr);
  const uint64_t failures_before = daemon_->metrics_exporter()->failures();

  failpoint::Arm("io:open_write",
                 failpoint::Spec{failpoint::Action::kError, 0, 0});
  EXPECT_FALSE(daemon_->metrics_exporter()->ExportOnce().ok());
  EXPECT_EQ(daemon_->metrics_exporter()->failures(), failures_before + 1);

  // Export degraded, serving untouched — while the failpoint is still hot.
  Client client = MakeClient();
  const auto response = client.Query("[1,2,3]");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok());
  failpoint::DisarmAll();

  // Recovery: the next export succeeds and leaves a fresh document.
  EXPECT_TRUE(daemon_->metrics_exporter()->ExportOnce().ok());
  struct stat st;
  EXPECT_EQ(
      ::stat(daemon_->metrics_exporter()->target_path().c_str(), &st), 0);
}

// What Bind may find at the socket path (DESIGN.md §12). A socket a
// crashed listener left behind is replaced; a live daemon's socket and a
// path that is not a socket are refused, and left exactly as they were.
// No failpoints: these run in every build.
class SocketPathTest : public ::testing::Test {
 protected:
  void TearDown() override { (void)std::remove(path_.c_str()); }

  static std::shared_ptr<ColGraphEngine> SealedEngine() {
    auto engine = std::make_shared<ColGraphEngine>();
    EXPECT_TRUE(engine->AddWalk({1, 2, 3}, {5, 6}).ok());
    EXPECT_TRUE(engine->Seal().ok());
    return engine;
  }

  StatusOr<std::unique_ptr<Daemon>> StartDaemon() {
    DaemonOptions options;
    options.socket_path = path_;
    options.num_workers = 1;
    return Daemon::Start(SealedEngine(), options);
  }

  StatusOr<Response> Ping() {
    ClientOptions options;
    options.socket_path = path_;
    options.max_attempts = 1;
    return Client(options).Ping();
  }

  std::string path_ =
      "/tmp/colgraph_bind_" + std::to_string(::getpid()) + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".sock";
};

TEST_F(SocketPathTest, StartOverRegularFileFailsAndKeepsItsBytes) {
  const std::string bytes = "not a socket\n";
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
  const auto daemon = StartDaemon();
  ASSERT_FALSE(daemon.ok()) << "a daemon bound over a regular file";
  EXPECT_NE(daemon.status().ToString().find(path_), std::string::npos)
      << daemon.status().ToString();

  struct stat st;
  ASSERT_EQ(::stat(path_.c_str(), &st), 0);
  EXPECT_TRUE(S_ISREG(st.st_mode));
  std::string kept(bytes.size() + 1, '\0');
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  kept.resize(std::fread(kept.data(), 1, kept.size(), f));
  std::fclose(f);
  EXPECT_EQ(kept, bytes);
}

TEST_F(SocketPathTest, SecondDaemonOnLivePathFailsAndFirstStillAnswers) {
  auto first = StartDaemon();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto second = StartDaemon();
  ASSERT_FALSE(second.ok()) << "two daemons bound one path";
  EXPECT_NE(second.status().ToString().find(path_), std::string::npos)
      << second.status().ToString();

  const auto pong = Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
  ASSERT_TRUE(first.value()->Drain().ok());
}

TEST_F(SocketPathTest, StaleSocketFromClosedListenerIsReplaced) {
  // A listener that dies without unlinking leaves a socket file that
  // refuses connections, as a crashed daemon does.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(fd, 1), 0);
    ::close(fd);
  }
  struct stat st;
  ASSERT_EQ(::stat(path_.c_str(), &st), 0);
  ASSERT_TRUE(S_ISSOCK(st.st_mode));
  ASSERT_FALSE(Ping().ok());

  auto daemon = StartDaemon();
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  const auto pong = Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());

  // The reclaimed path is a live daemon's now: a duplicate restart is
  // refused and the restarted daemon keeps answering.
  EXPECT_FALSE(StartDaemon().ok()) << "a duplicate restart bound the path";
  const auto still = Ping();
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_TRUE(still->ok());
  ASSERT_TRUE(daemon.value()->Drain().ok());
}

}  // namespace
}  // namespace colgraph::server
