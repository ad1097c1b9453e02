// Graceful-termination seam: SIGINT/SIGTERM via the self-pipe trick.
//
// A process that serves requests must not die mid-request when the operator
// presses Ctrl-C. ShutdownSignal installs handlers for SIGINT and SIGTERM
// that do only async-signal-safe work — set an atomic flag and write one
// byte into a WakePipe — so the serving loop can observe the request either
// by polling Requested() between work items or by including wake_fd() in a
// poll() set, and then run the same drain path it uses for programmatic
// shutdown. It is the process's one stop latch: the observability hub's
// opt-in `/quitquitquit` trips it too (Trigger), so primacyd and
// `primacy_inspect --serve` wait on nothing else.
//
// Signal dispositions are process-global state, hence the singleton. A
// second signal while draining keeps the flag set (idempotent); the default
// disposition is NOT restored, so a wedged drain requires SIGKILL — that is
// deliberate, a third of the way through a batch is the worst moment for
// default termination.
#pragma once

#include <cstdint>
#include <string>

namespace primacy::transport {

class ShutdownSignal {
 public:
  /// Process-wide instance.
  static ShutdownSignal& Instance();

  ShutdownSignal(const ShutdownSignal&) = delete;
  ShutdownSignal& operator=(const ShutdownSignal&) = delete;

  /// Installs the SIGINT/SIGTERM handlers. Idempotent; returns false with
  /// `*error` set if the pipe or sigaction fails.
  bool Install(std::string* error);

  /// True once any handled signal has been delivered (or Trigger called).
  bool Requested() const;

  /// Readable when a shutdown has been requested; -1 before Install.
  /// Include in poll() sets alongside other wake sources.
  int wake_fd() const;

  /// Blocks up to `timeout_ns` (at most 1,000 s per call) for a shutdown
  /// request; returns Requested(). Returns at once before Install.
  bool WaitRequested(std::uint64_t timeout_ns);

  /// Programmatic trigger sharing the signal path (used by tests and by
  /// the hub's /quitquitquit, for identical drain behavior).
  void Trigger();

 private:
  ShutdownSignal() = default;
};

}  // namespace primacy::transport
