#include "transport/socket_io.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <netinet/in.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "bitstream/byte_io.h"
#include "telemetry/metrics.h"

namespace primacy::transport {
namespace {

// Upper bound on a single poll() slice. Deadlines are re-checked against
// the ServiceClock between slices, so a VirtualClock expiry is observed
// within one slice even though poll itself waits in wall time.
constexpr int kPollSliceMs = 100;

// Back-off after accept() fails for want of a descriptor. The pending
// connection stays queued and the listen socket stays readable, so polling
// it again at once would spin; the wait watches only the wake pipe, so a
// stop stays immediate.
constexpr int kAcceptExhaustedBackoffMs = 10;

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool SetNonBlockingCloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  const int fd_flags = ::fcntl(fd, F_GETFD, 0);
  return fd_flags >= 0 && ::fcntl(fd, F_SETFD, fd_flags | FD_CLOEXEC) >= 0;
}

/// Waits until `fd` is ready for `events` (POLLIN/POLLOUT), the deadline
/// expires, or the wake pipe fires. POLLERR/POLLHUP count as ready: the
/// next send/recv surfaces the real condition.
IoStatus PollFor(int fd, short events, const IoDeadline& deadline,
                 int wake_fd) {
  for (;;) {
    if (deadline.Expired()) return IoStatus::kTimeout;
    int timeout_ms = -1;
    if (!deadline.Never()) {
      const std::uint64_t now = deadline.clock->NowNs();
      const std::uint64_t remaining =
          deadline.deadline_ns > now ? deadline.deadline_ns - now : 0;
      const std::uint64_t remaining_ms = remaining / 1000000u + 1;
      timeout_ms = remaining_ms < static_cast<std::uint64_t>(kPollSliceMs)
                       ? static_cast<int>(remaining_ms)
                       : kPollSliceMs;
    }
    pollfd fds[2];
    fds[0].fd = fd;
    fds[0].events = events;
    fds[0].revents = 0;
    nfds_t nfds = 1;
    if (wake_fd >= 0) {
      fds[1].fd = wake_fd;
      fds[1].events = POLLIN;
      fds[1].revents = 0;
      nfds = 2;
    }
    const int rc = ::poll(fds, nfds, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (wake_fd >= 0 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP))) {
      return IoStatus::kStopped;
    }
    if (rc > 0 && (fds[0].revents & (events | POLLERR | POLLHUP))) {
      return IoStatus::kOk;
    }
    // rc == 0: slice elapsed; loop re-checks the deadline on the clock.
  }
}

/// Waits for a connection on `listen_fd` or a byte on `wake_fd`. Returns
/// kOk with `*conn_fd` set (non-blocking, close-on-exec), kStopped if the
/// wake pipe fired first, kError otherwise; EMFILE/ENFILE back off and
/// retry (see Acceptor).
IoStatus AcceptWithWake(int listen_fd, int wake_fd, int* conn_fd) {
  for (;;) {
    const IoStatus ready =
        PollFor(listen_fd, POLLIN, IoDeadline::None(), wake_fd);
    if (ready != IoStatus::kOk) return ready;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn >= 0) {
      if (!SetNonBlockingCloexec(conn)) {
        ::close(conn);
        return IoStatus::kError;
      }
      *conn_fd = conn;
      return IoStatus::kOk;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;  // Raced with a disconnect or a signal; wait again.
    }
    if (errno == EMFILE || errno == ENFILE) {
      // Out of descriptors: transient, since closing connections free them.
      telemetry::MetricsRegistry::Global()
          .GetCounter("primacy_transport_errors_total",
                      "kind=\"accept_exhausted\"")
          .Increment();
      pollfd wake{wake_fd, POLLIN, 0};
      if (::poll(&wake, 1, kAcceptExhaustedBackoffMs) > 0) {
        return IoStatus::kStopped;
      }
      continue;
    }
    return IoStatus::kError;
  }
}

}  // namespace

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool WakePipe::Open(std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    if (error) *error = ErrnoMessage("pipe");
    return false;
  }
  if (!SetNonBlockingCloexec(fds[0]) || !SetNonBlockingCloexec(fds[1])) {
    if (error) *error = ErrnoMessage("fcntl");
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  Close();
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  return true;
}

void WakePipe::Wake() {
  if (write_fd_ < 0) return;
  const char byte = 'w';
  // A full pipe (EAGAIN) already holds a pending wake; nothing to do.
  [[maybe_unused]] const ssize_t n = ::write(write_fd_, &byte, 1);
}

void WakePipe::Drain() {
  if (read_fd_ < 0) return;
  char buffer[64];
  while (::read(read_fd_, buffer, sizeof buffer) > 0) {
  }
}

void WakePipe::Close() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
  read_fd_ = -1;
  write_fd_ = -1;
}

const char* IoStatusName(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kEof:
      return "eof";
    case IoStatus::kTimeout:
      return "timeout";
    case IoStatus::kStopped:
      return "stopped";
    case IoStatus::kMalformed:
      return "malformed";
    case IoStatus::kError:
      return "error";
  }
  return "unknown";
}

IoDeadline IoDeadline::After(service::ServiceClock& clock,
                             std::uint64_t budget_ns) {
  if (budget_ns == service::kNoDeadlineNs) return IoDeadline{};
  IoDeadline deadline;
  deadline.clock = &clock;
  const std::uint64_t now = clock.NowNs();
  // Saturate instead of wrapping when the budget is near the max.
  deadline.deadline_ns = now > service::kNoDeadlineNs - budget_ns
                             ? service::kNoDeadlineNs - 1
                             : now + budget_ns;
  return deadline;
}

int ListenUnixSocket(const std::string& path, int backlog,
                     std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    if (error) {
      *error = "socket path empty or longer than " +
               std::to_string(sizeof(addr.sun_path) - 1) + " bytes: " + path;
    }
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid() || !SetNonBlockingCloexec(fd.get())) {
    if (error) *error = ErrnoMessage("socket");
    return -1;
  }
  // The caller owns the path; a stale socket left by a crashed daemon is
  // replaced rather than failing startup.
  ::unlink(path.c_str());
  if (::bind(fd.get(), (const sockaddr*)&addr, sizeof addr) != 0) {
    if (error) *error = ErrnoMessage("bind");
    return -1;
  }
  if (::listen(fd.get(), backlog) != 0) {
    if (error) *error = ErrnoMessage("listen");
    return -1;
  }
  return fd.Release();
}

int ConnectUnixSocket(const std::string& path, const IoDeadline& deadline,
                      std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    if (error) *error = "socket path empty or too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid() || !SetNonBlockingCloexec(fd.get())) {
    if (error) *error = ErrnoMessage("socket");
    return -1;
  }
  if (::connect(fd.get(), (const sockaddr*)&addr, sizeof addr) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      if (error) *error = ErrnoMessage("connect");
      return -1;
    }
    const IoStatus ready = PollFor(fd.get(), POLLOUT, deadline, -1);
    if (ready != IoStatus::kOk) {
      if (error) {
        *error = std::string("connect: ") + IoStatusName(ready);
      }
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      if (error) {
        *error = std::string("connect: ") +
                 std::strerror(so_error != 0 ? so_error : errno);
      }
      return -1;
    }
  }
  return fd.Release();
}

int ListenTcpLoopback(int port, int* bound_port, std::string* error) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid() || !SetNonBlockingCloexec(fd.get())) {
    if (error) *error = ErrnoMessage("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t addr_len = sizeof addr;
  if (::bind(fd.get(), (const sockaddr*)&addr, sizeof addr) != 0 ||
      ::listen(fd.get(), 16) != 0 ||
      ::getsockname(fd.get(), (sockaddr*)&addr, &addr_len) != 0) {
    if (error) *error = ErrnoMessage("bind/listen");
    return -1;
  }
  if (bound_port) *bound_port = ntohs(addr.sin_port);
  return fd.Release();
}

bool Acceptor::Start(UniqueFd listen_fd, Handler handler,
                     std::string* error) {
  if (thread_.joinable()) {
    if (error) *error = "acceptor already running";
    return false;
  }
  if (!wake_.Open(error)) return false;
  listen_fd_ = std::move(listen_fd);
  handler_ = std::move(handler);
  stopping_.store(false, std::memory_order_relaxed);
  // Dedicated thread, not a pool task: it blocks in poll() for the
  // server's whole lifetime, which would starve the shared pool (see the
  // pool-containment allowlist note in tools/primacy_lint).
  thread_ = std::thread(&Acceptor::Loop, this);
  return true;
}

void Acceptor::Stop() {
  if (thread_.joinable()) {
    stopping_.store(true, std::memory_order_release);
    wake_.Wake();
    thread_.join();
  }
  listen_fd_.Reset();
  wake_.Close();
  handler_ = nullptr;
}

void Acceptor::Loop() {
  for (;;) {
    int conn = -1;
    const IoStatus status =
        AcceptWithWake(listen_fd_.get(), wake_.read_fd(), &conn);
    if (status == IoStatus::kStopped) return;
    if (status != IoStatus::kOk) {
      if (!stopping_.load(std::memory_order_acquire)) {
        telemetry::MetricsRegistry::Global()
            .GetCounter("primacy_transport_errors_total", "kind=\"accept\"")
            .Increment();
      }
      return;
    }
    UniqueFd conn_fd(conn);
    if (stopping_.load(std::memory_order_acquire)) return;
    handler_(std::move(conn_fd), wake_.read_fd());
  }
}

IoStatus SendAll(int fd, ByteSpan data, const IoDeadline& deadline,
                 int wake_fd) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const IoStatus ready = PollFor(fd, POLLOUT, deadline, wake_fd);
      if (ready != IoStatus::kOk) return ready;
      continue;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus RecvExact(int fd, MutableByteSpan out, const IoDeadline& deadline,
                   int wake_fd, std::size_t* received) {
  std::size_t got = 0;
  if (received) *received = 0;
  while (got < out.size()) {
    const ssize_t n = ::recv(fd, out.data() + got, out.size() - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      if (received) *received = got;
      continue;
    }
    if (n == 0) {
      // Clean close before the first byte is a boundary EOF; mid-read it
      // means the peer tore a frame.
      return got == 0 ? IoStatus::kEof : IoStatus::kMalformed;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const IoStatus ready = PollFor(fd, POLLIN, deadline, wake_fd);
      if (ready != IoStatus::kOk) return ready;
      continue;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus RecvSome(int fd, MutableByteSpan out, std::size_t* received,
                  const IoDeadline& deadline, int wake_fd) {
  *received = 0;
  if (out.empty()) return IoStatus::kOk;
  for (;;) {
    const ssize_t n = ::recv(fd, out.data(), out.size(), 0);
    if (n > 0) {
      *received = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const IoStatus ready = PollFor(fd, POLLIN, deadline, wake_fd);
      if (ready != IoStatus::kOk) return ready;
      continue;
    }
    return IoStatus::kError;
  }
}

IoStatus SendFrame(int fd, ByteSpan frame, const IoDeadline& deadline,
                   int wake_fd) {
  Bytes prefixed;
  prefixed.reserve(frame.size() + 4);
  PutU32(prefixed, static_cast<std::uint32_t>(frame.size()));
  AppendBytes(prefixed, frame);
  // One buffer, one SendAll: the length prefix and body cannot be torn by
  // a partial write between two calls.
  return SendAll(fd, ByteSpan(prefixed), deadline, wake_fd);
}

IoStatus RecvFrame(int fd, Bytes* frame, std::uint32_t max_frame_bytes,
                   service::ServiceClock& clock,
                   std::uint64_t first_byte_budget_ns,
                   std::uint64_t frame_budget_ns, int wake_fd) {
  // Idle wait: a pooled server-side connection may sit quiet indefinitely;
  // a client waiting for its reply bounds this phase too.
  const IoStatus ready = PollFor(
      fd, POLLIN, IoDeadline::After(clock, first_byte_budget_ns), wake_fd);
  if (ready != IoStatus::kOk) return ready;
  // From the first byte on, the peer must deliver the whole frame within
  // the budget.
  const IoDeadline deadline = IoDeadline::After(clock, frame_budget_ns);
  Bytes prefix(4);
  std::size_t got = 0;
  const IoStatus head =
      RecvExact(fd, MutableByteSpan(prefix), deadline, wake_fd, &got);
  if (head != IoStatus::kOk) return head;
  ByteReader reader{ByteSpan(prefix)};
  const std::uint32_t length = reader.GetU32();
  if (length == 0 || length > max_frame_bytes) return IoStatus::kMalformed;
  frame->resize(length);
  const IoStatus body =
      RecvExact(fd, MutableByteSpan(*frame), deadline, wake_fd, &got);
  if (body == IoStatus::kEof) return IoStatus::kMalformed;
  return body;
}

}  // namespace primacy::transport
