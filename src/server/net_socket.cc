#include "server/net_socket.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/failpoint.h"

namespace colgraph::server {

namespace {

// MSG_NOSIGNAL keeps a peer death out of signal land on Linux; macOS
// spells the same thing SO_NOSIGPIPE (set at connect/accept).
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

void SetNoSigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

std::string ErrnoMessage(const std::string& what, int err) {
  return what + ": " + std::strerror(err);
}

/// Waits for `events` on `fd` up to `timeout_ms` (0 = no limit). Returns
/// OK when ready, DeadlineExceeded on timeout, IOError on poll failure.
Status PollFor(int fd, short events, uint64_t timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  const int wait = timeout_ms == 0 ? -1 : static_cast<int>(timeout_ms);
  for (;;) {
    const int rc = ::poll(&pfd, 1, wait);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::DeadlineExceeded("socket wait timed out after " +
                                      std::to_string(timeout_ms) + "ms");
    }
    if (errno == EINTR) continue;
    return Status::IOError(ErrnoMessage("poll", errno));
  }
}

Status FillSockaddr(const std::string& path, struct sockaddr_un* addr) {
  if (path.empty()) {
    return Status::InvalidArgument("socket path must not be empty");
  }
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument(
        "socket path exceeds the AF_UNIX limit of " +
        std::to_string(sizeof(addr->sun_path) - 1) + " bytes: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

/// Clears the way for a bind at `path`. A socket that refuses a connection
/// is what a crashed listener leaves behind, and is removed; nothing at
/// the path is fine. A live listener's socket, or anything that is not a
/// socket, fails with a status naming the path and is left untouched.
Status RemoveStaleSocket(const std::string& path,
                         const struct sockaddr_un& addr) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError(ErrnoMessage("stat " + path, errno));
  }
  if (!S_ISSOCK(st.st_mode)) {
    return Status::AlreadyExists("socket path exists and is not a socket: " +
                                 path);
  }
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) return Status::IOError(ErrnoMessage("socket", errno));
  // Non-blocking, so a live listener with a full backlog answers EAGAIN
  // instead of stalling the probe.
  (void)::fcntl(probe, F_SETFL, O_NONBLOCK);
  int rc;
  do {
    rc = ::connect(probe, reinterpret_cast<const struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  const int err = rc == 0 ? 0 : errno;
  ::close(probe);
  if (err == ECONNREFUSED) {
    (void)::unlink(path.c_str());
    return Status::OK();
  }
  if (err == 0 || err == EAGAIN || err == EINPROGRESS) {
    return Status::AlreadyExists("a listener is live at " + path);
  }
  return Status::IOError(ErrnoMessage("probe " + path, err));
}

}  // namespace

void SleepMs(uint64_t ms) {
  if (ms == 0) return;
  // poll with no fds is a portable, EINTR-restartable sleep.
  uint64_t remaining = ms;
  while (remaining > 0) {
    const int chunk =
        remaining > uint64_t{1} << 30 ? 1 << 30 : static_cast<int>(remaining);
    const int rc = ::poll(nullptr, 0, chunk);
    if (rc == 0) remaining -= static_cast<uint64_t>(chunk);
    // EINTR: re-poll for the full chunk; oversleeping a test delay is fine.
  }
}

UnixSocket::UnixSocket(UnixSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

UnixSocket& UnixSocket::operator=(UnixSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void UnixSocket::Close() {
  if (fd_ >= 0) {
    int rc;
    do {
      rc = ::close(fd_);
    } while (rc < 0 && errno == EINTR);
    fd_ = -1;
  }
}

StatusOr<UnixSocket> UnixSocket::Connect(const std::string& path,
                                         uint64_t timeout_ms) {
  if (failpoint::Hit("net:connect") != failpoint::Action::kOff) {
    return Status::Unavailable("injected connect failure (net:connect)");
  }
  struct sockaddr_un addr;
  COLGRAPH_RETURN_NOT_OK(FillSockaddr(path, &addr));

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoMessage("socket", errno));
  UnixSocket socket(fd);
  SetNoSigpipe(fd);

  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    // No listener / backlog full / stale path: the retryable "server is
    // not up (yet)" signal, not a hard IO failure.
    if (errno == ECONNREFUSED || errno == ENOENT || errno == EAGAIN) {
      return Status::Unavailable(ErrnoMessage("connect to " + path, errno));
    }
    return Status::IOError(ErrnoMessage("connect to " + path, errno));
  }
  // AF_UNIX connect succeeds or fails synchronously; the timeout guards
  // the first write/read instead.
  (void)timeout_ms;
  return socket;
}

Status UnixSocket::WriteAll(const void* data, size_t n, uint64_t timeout_ms) {
  if (!valid()) return Status::IOError("write on closed socket");
  if (failpoint::Hit("net:write_error") != failpoint::Action::kOff) {
    return Status::IOError("injected write failure (net:write_error)");
  }
  uint64_t short_arg = 0;
  size_t limit = n;
  bool injected_short = false;
  if (failpoint::Hit("net:short_write", &short_arg) ==
      failpoint::Action::kShortWrite) {
    // Persist only the first `short_arg` bytes, then report the tear: the
    // peer sees a truncated frame, exactly like a mid-write crash.
    limit = short_arg < n ? static_cast<size_t>(short_arg) : n;
    injected_short = true;
  }

  // Try the call first and poll only when the socket is not ready: a
  // reply usually fits the send buffer, so the poll would find it ready.
  const char* p = static_cast<const char*>(data);
  size_t written = 0;
  while (written < limit) {
    const ssize_t rc = ::send(fd_, p + written, limit - written,
                              kSendFlags | MSG_DONTWAIT);
    if (rc >= 0) {
      written += static_cast<size_t>(rc);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      COLGRAPH_RETURN_NOT_OK(PollFor(fd_, POLLOUT, timeout_ms));
      continue;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::IOError("peer closed connection mid-write");
    }
    return Status::IOError(ErrnoMessage("send", errno));
  }
  if (injected_short) {
    return Status::IOError("injected short write (net:short_write): wrote " +
                           std::to_string(written) + " of " +
                           std::to_string(n) + " bytes");
  }
  return Status::OK();
}

Status UnixSocket::ReadFull(void* buf, size_t n, uint64_t timeout_ms) {
  if (!valid()) return Status::IOError("read on closed socket");
  if (failpoint::Hit("net:read_error") != failpoint::Action::kOff) {
    return Status::IOError("injected read failure (net:read_error)");
  }
  // As in WriteAll: read what is already there, poll only when nothing is.
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd_, p + got, n - got, MSG_DONTWAIT);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (got == 0) {
        return Status::Unavailable("connection closed by peer");
      }
      return Status::IOError("unexpected EOF mid-frame (" +
                             std::to_string(got) + " of " + std::to_string(n) +
                             " bytes read)");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      COLGRAPH_RETURN_NOT_OK(PollFor(fd_, POLLIN, timeout_ms));
      continue;
    }
    if (errno == ECONNRESET) {
      return got == 0 ? Status::Unavailable("connection reset by peer")
                      : Status::IOError("connection reset mid-frame");
    }
    return Status::IOError(ErrnoMessage("recv", errno));
  }
  return Status::OK();
}

Status UnixSocket::WaitReadable(uint64_t timeout_ms) {
  if (!valid()) return Status::IOError("wait on closed socket");
  return PollFor(fd_, POLLIN, timeout_ms);
}

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

void UnixListener::Close() {
  if (fd_ >= 0) {
    int rc;
    do {
      rc = ::close(fd_);
    } while (rc < 0 && errno == EINTR);
    fd_ = -1;
    (void)::unlink(path_.c_str());
    path_.clear();
  }
}

StatusOr<UnixListener> UnixListener::Bind(const std::string& path,
                                          int backlog) {
  struct sockaddr_un addr;
  COLGRAPH_RETURN_NOT_OK(FillSockaddr(path, &addr));
  COLGRAPH_RETURN_NOT_OK(RemoveStaleSocket(path, addr));

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoMessage("socket", errno));
  // The listener owns (and Close unlinks) the path only once bound: a
  // failed bind must leave whatever is there untouched.
  UnixListener listener(fd, "");
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(ErrnoMessage("bind " + path, errno));
  }
  listener.path_ = path;
  if (::listen(fd, backlog) < 0) {
    return Status::IOError(ErrnoMessage("listen " + path, errno));
  }
  return listener;
}

StatusOr<UnixSocket> UnixListener::Accept(uint64_t timeout_ms) {
  if (!valid()) return Status::IOError("accept on closed listener");
  COLGRAPH_RETURN_NOT_OK(PollFor(fd_, POLLIN, timeout_ms));
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    // The connection can vanish between poll and accept; treat transient
    // errno as a timeout tick so the accept loop just re-polls.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return Status::DeadlineExceeded("accept raced a vanished connection");
    }
    return Status::IOError(ErrnoMessage("accept", errno));
  }
  SetNoSigpipe(fd);
  return UnixSocket(fd);
}

}  // namespace colgraph::server
