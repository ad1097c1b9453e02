// Robust socket I/O and the one accept loop (Acceptor), shared by the
// transport subsystem and the telemetry HTTP exporter.
//
// This is the only place in the tree (together with the rest of
// src/transport/) allowed to name raw socket syscalls — the
// `transport-containment` lint rule enforces it. Everything else works in
// terms of these helpers, which fold in the paper cuts that naive
// `::send`/`::recv` loops get wrong: EINTR retry, short-transfer
// resumption, per-operation deadlines, and cooperative interruption via a
// wake pipe.
//
// All fds created here are non-blocking and close-on-exec; the helpers
// poll() for readiness in bounded slices and re-check the deadline against
// a ServiceClock between slices. Deadlines are therefore *evaluated* on the
// clock seam (a VirtualClock test can expire one deterministically) while
// the underlying readiness wait remains event-driven — a helper blocked on
// a socket wakes the instant bytes or a wake byte arrive, never by
// sleeping.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "service/clock.h"
#include "util/bytes.h"

namespace primacy::transport {

/// RAII file descriptor (closes on destruction; move-only).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) Reset(other.Release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the current fd (if any) and adopts `fd`.
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Self-pipe used to interrupt blocking waits (accept loops, frame reads)
/// from another thread or from an async signal handler. Wake() is
/// async-signal-safe.
class WakePipe {
 public:
  WakePipe() = default;
  ~WakePipe() { Close(); }
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  /// Creates the pipe (both ends non-blocking, close-on-exec).
  bool Open(std::string* error);
  /// Makes read_fd() readable. Safe from signal handlers; a full pipe is
  /// fine (the wake is already pending).
  void Wake();
  /// Consumes any pending wake bytes so the pipe can be reused.
  void Drain();
  void Close();

  int read_fd() const { return read_fd_; }
  /// Exposed for async signal handlers that must write() directly.
  int write_fd() const { return write_fd_; }
  bool valid() const { return read_fd_ >= 0; }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// Outcome of a robust I/O operation.
enum class IoStatus {
  kOk = 0,
  /// Peer closed cleanly at an operation boundary.
  kEof,
  /// The deadline expired before the operation completed.
  kTimeout,
  /// The wake pipe fired before the operation completed.
  kStopped,
  /// The peer violated framing (oversized length prefix, EOF mid-frame).
  kMalformed,
  /// errno-level failure (reset, broken pipe, ...).
  kError,
};

const char* IoStatusName(IoStatus status);

/// A deadline evaluated against a ServiceClock. A default-constructed (or
/// None()) deadline never expires. `clock == nullptr` also means "never".
struct IoDeadline {
  service::ServiceClock* clock = nullptr;
  std::uint64_t deadline_ns = service::kNoDeadlineNs;

  static IoDeadline None() { return IoDeadline{}; }
  /// Deadline `budget_ns` from now on `clock`; kNoDeadlineNs means never.
  static IoDeadline After(service::ServiceClock& clock,
                          std::uint64_t budget_ns);
  bool Never() const {
    return clock == nullptr || deadline_ns == service::kNoDeadlineNs;
  }
  bool Expired() const {
    return !Never() && clock->NowNs() >= deadline_ns;
  }
};

/// Binds + listens on a Unix domain socket at `path` (unlinking any stale
/// socket first). Returns the listening fd, or -1 with `*error` set.
int ListenUnixSocket(const std::string& path, int backlog, std::string* error);

/// Connects to the Unix domain socket at `path`. Returns the connected fd,
/// or -1 with `*error` set.
int ConnectUnixSocket(const std::string& path, const IoDeadline& deadline,
                      std::string* error);

/// Loopback TCP listener (IPv4 127.0.0.1). `port` 0 picks an ephemeral
/// port; the bound port is returned via `*bound_port`.
int ListenTcpLoopback(int port, int* bound_port, std::string* error);

/// The one accept loop, shared by every server in the tree (the daemon's
/// TransportServer, the metrics endpoint's HttpServer): it owns a listening
/// socket, a wake pipe and one accept thread, and hands each connection to
/// a handler on that thread. The thread waits on the socket and the pipe
/// together, so Stop() interrupts it at once. Running out of descriptors
/// (EMFILE/ENFILE) is not fatal: each such failure counts in
/// primacy_transport_errors_total{kind="accept_exhausted"} and the accept
/// is retried after a 10 ms wait on the wake pipe. Any other failed accept
/// counts in {kind="accept"} and ends the loop: the listening socket is
/// gone, and retrying would spin.
class Acceptor {
 public:
  /// Runs on the accept thread once per connection (non-blocking,
  /// close-on-exec), which it then owns; the next accept waits for it to
  /// return. `stop_fd` becomes readable at Stop() and stays so: pass it as
  /// the wake fd of the handler's waits, so a stalled peer cannot hold
  /// Stop(). Must not throw.
  using Handler = std::function<void(UniqueFd conn, int stop_fd)>;

  Acceptor() = default;
  ~Acceptor() { Stop(); }
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Adopts `listen_fd` and starts the accept thread. Returns false with
  /// `*error` set, and `listen_fd` closed, if the acceptor is already
  /// running or the wake pipe cannot be opened.
  bool Start(UniqueFd listen_fd, Handler handler, std::string* error);

  /// Wakes the accept thread, joins it and closes the listening socket.
  /// Idempotent; a stopped acceptor may be started again.
  void Stop();

 private:
  void Loop();

  UniqueFd listen_fd_;
  WakePipe wake_;
  Handler handler_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Writes all of `data`, retrying EINTR and short writes, polling for
/// POLLOUT between attempts. Returns kOk, kTimeout, kStopped, or kError.
IoStatus SendAll(int fd, ByteSpan data, const IoDeadline& deadline,
                 int wake_fd = -1);

/// Reads exactly `out.size()` bytes. `*received` (optional) reports how
/// many bytes landed regardless of outcome; kEof means the peer closed
/// before the first byte, kMalformed that it closed mid-read.
IoStatus RecvExact(int fd, MutableByteSpan out, const IoDeadline& deadline,
                   int wake_fd = -1, std::size_t* received = nullptr);

/// Reads at least one byte, at most `out.size()`, into `out`. Returns kOk
/// with `*received` > 0, or kEof / kTimeout / kStopped / kError.
IoStatus RecvSome(int fd, MutableByteSpan out, std::size_t* received,
                  const IoDeadline& deadline, int wake_fd = -1);

/// Sends a u32 little-endian length prefix followed by `frame`.
IoStatus SendFrame(int fd, ByteSpan frame, const IoDeadline& deadline,
                   int wake_fd = -1);

/// Receives one length-prefixed frame into `*frame`. Waits up to
/// `first_byte_budget_ns` (kNoDeadlineNs = indefinitely, wake-
/// interruptible — an idle server connection is not an error) for the
/// first byte, then applies `frame_budget_ns` on `clock` to the remainder,
/// so a peer that starts a frame must finish it within the budget
/// (slow-loris guard). A length prefix above `max_frame_bytes` yields
/// kMalformed without allocating. kEof = peer closed between frames
/// (clean).
IoStatus RecvFrame(int fd, Bytes* frame, std::uint32_t max_frame_bytes,
                   service::ServiceClock& clock,
                   std::uint64_t first_byte_budget_ns,
                   std::uint64_t frame_budget_ns, int wake_fd = -1);

}  // namespace primacy::transport
