// TransportClient: the in-process library side of the PRIMACY daemon
// boundary.
//
// Synchronous request/response over pooled Unix-domain-socket connections.
// Each call checks a connection out of the pool (connecting if none is
// idle), sends one request frame, waits for the matching reply, and
// returns the connection for reuse. Calls are thread-safe: concurrent
// callers use distinct connections.
//
// Retry discipline (the part worth reading twice):
//  - Exponential backoff with deterministic jitter between attempts, waited
//    on the ServiceClock seam — under a VirtualClock, tests advance time
//    explicitly and nothing wall-sleeps.
//  - A server error frame with kRejectedQuota / kRejectedInflight /
//    kTooManyConnections is the server *asserting the request was not
//    executed*, so it is retryable for every op, and the frame's
//    `retry_after_ns` is honored as a floor under the computed backoff.
//  - A transport-level failure (connect refused, send/recv error, timeout,
//    torn frame) is ambiguous: the request may have executed. It is
//    retried only for idempotent ops (Decompress, DecompressRange, Ping,
//    Stats) — or for any op when the failure happened before a single
//    request byte was sent. Compress after a partial exchange is NOT
//    retried; the caller decides.
//  - kShuttingDown, kBadFrame, kVersionSkew, kCancelled, and kError are
//    never retried.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/clock.h"
#include "transport/socket_io.h"
#include "transport/wire.h"
#include "util/bytes.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::transport {

struct RetryPolicy {
  /// Total tries including the first; 1 disables retries.
  std::size_t max_attempts = 4;
  std::uint64_t initial_backoff_ns = 1'000'000;  // 1 ms
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_ns = 1'000'000'000;  // 1 s
  /// Each wait is base * (1 + jitter_fraction * u) with u in [0, 1) drawn
  /// from a SplitMix64 stream with a fixed seed — deterministic for tests,
  /// no global RNG state. 0 disables jitter.
  double jitter_fraction = 0.25;
};

struct TransportClientOptions {
  std::string socket_path;
  /// Idle connections kept for reuse; beyond this, returns close instead.
  std::size_t max_pooled_connections = 4;
  RetryPolicy retry;
  /// Time source for deadlines and backoff waits; null = system clock.
  service::ServiceClock* clock = nullptr;
};

/// Outcome of one logical call (after any retries).
struct TransportResult {
  WireStatus status = WireStatus::kError;
  /// Response payload; meaningful when ok().
  Bytes payload;
  /// Server hint from the final error frame (0 if none).
  std::uint64_t retry_after_ns = 0;
  std::string error;
  /// Attempts consumed, 1 = no retry.
  std::uint32_t attempts = 1;

  bool ok() const { return status == WireStatus::kOk; }
};

struct TransportClientStats {
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t connects = 0;
};

class TransportClient {
 public:
  explicit TransportClient(TransportClientOptions options);
  ~TransportClient();

  TransportClient(const TransportClient&) = delete;
  TransportClient& operator=(const TransportClient&) = delete;

  TransportResult Compress(std::string_view tenant, ByteSpan payload);
  TransportResult Decompress(std::string_view tenant, ByteSpan stream);
  /// Decodes elements [first_element, first_element + element_count) of a
  /// PRIMACY stream without materializing the rest.
  TransportResult DecompressRange(std::string_view tenant, ByteSpan stream,
                                  std::uint64_t first_element,
                                  std::uint64_t element_count);
  /// Liveness probe; the payload (if any) is echoed back.
  TransportResult Ping(ByteSpan payload = {});
  /// Returns the daemon's service StatusJson() as the payload.
  TransportResult Stats();

  TransportClientStats ClientStats() const;
  const TransportClientOptions& options() const { return options_; }

 private:
  struct AttemptOutcome {
    TransportResult result;
    /// Failed below the protocol (connect/send/recv/decode), as opposed to
    /// a well-formed error frame.
    bool transport_failure = false;
    /// At least one request byte may have reached the server.
    bool sent = false;
  };

  TransportResult Execute(Op op, std::string_view tenant, ByteSpan payload,
                          std::uint64_t first_element,
                          std::uint64_t element_count);
  AttemptOutcome ExecuteOnce(Op op, std::string_view tenant, ByteSpan payload,
                             std::uint64_t first_element,
                             std::uint64_t element_count);
  /// Pops an idle pooled fd or opens a new connection (-1 on failure).
  int CheckoutConnection(std::string* error);
  void ReturnConnection(int fd);
  /// Blocks `wait_ns` on the clock seam (VirtualClock-deterministic).
  void SleepNs(std::uint64_t wait_ns);
  /// Next jitter draw in [0, 1).
  double NextJitter();

  const TransportClientOptions options_;
  service::ServiceClock* clock_;  // never null after construction
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> connects_{0};

  mutable primacy::Mutex mu_;
  // Pairs with mu_: woken by VirtualClock::Advance during backoff waits
  // (never signaled otherwise — backoff has no early-exit path).
  primacy::CondVar cv_;
  std::vector<int> pool_ PRIMACY_GUARDED_BY(mu_);
  std::uint64_t jitter_state_ PRIMACY_GUARDED_BY(mu_);
};

}  // namespace primacy::transport
