// TransportClient retry/backoff discipline, pinned deterministically.
//
// Every timed wait the client takes goes through the ServiceClock seam, so
// a RecordingClock can satisfy each backoff instantly while logging its
// exact duration — the whole suite runs with zero wall-clock sleeps, and
// the backoff schedule (exponential growth, cap, jitter bounds, the
// retry_after floor) is asserted as a concrete sequence of nanosecond
// values rather than observed timing.
#include "transport/client.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/clock.h"
#include "service/service.h"
#include "transport/server.h"
#include "transport/socket_io.h"
#include "transport/wire.h"
#include "util/bytes.h"

namespace primacy::transport {
namespace {

/// Satisfies every timed wait instantly by advancing its own time to the
/// deadline, recording the wait length. Single-threaded use only (the
/// client call under test runs on the test thread).
class RecordingClock final : public service::ServiceClock {
 public:
  std::uint64_t NowNs() const override {
    return now_ns_.load(std::memory_order_acquire);
  }

  void WaitUntil(primacy::Mutex& mu, primacy::CondVar& cv,
                 std::uint64_t deadline_ns) override PRIMACY_REQUIRES(mu) {
    (void)mu;
    (void)cv;
    if (deadline_ns == service::kNoDeadlineNs) return;
    const std::uint64_t now = now_ns_.load(std::memory_order_acquire);
    waits_ns.push_back(deadline_ns > now ? deadline_ns - now : 0);
    if (deadline_ns > now) {
      now_ns_.store(deadline_ns, std::memory_order_release);
    }
  }

  std::vector<std::uint64_t> waits_ns;

 private:
  std::atomic<std::uint64_t> now_ns_{0};
};

std::string MissingSocketPath() {
  return "/tmp/primacy_retry_nowhere_" + std::to_string(::getpid()) + ".sock";
}

TransportClientOptions BaseOptions(RecordingClock& clock,
                                   const std::string& path) {
  TransportClientOptions options;
  options.socket_path = path;
  options.clock = &clock;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_ns = 1'000'000;  // 1 ms
  options.retry.backoff_multiplier = 2.0;
  options.retry.max_backoff_ns = 1'000'000'000;
  options.retry.jitter_fraction = 0.0;
  return options;
}

// ---------------------------------------------------------------------------

TEST(TransportRetry, ConnectFailureBackoffIsPinnedWithoutJitter) {
  RecordingClock clock;
  TransportClient client(BaseOptions(clock, MissingSocketPath()));

  const TransportResult result = client.Ping();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.attempts, 4u);
  // Three waits between four attempts: 1ms, 2ms, 4ms — exactly.
  ASSERT_EQ(clock.waits_ns,
            (std::vector<std::uint64_t>{1'000'000, 2'000'000, 4'000'000}));
  EXPECT_EQ(client.ClientStats().retries, 3u);
}

TEST(TransportRetry, BackoffIsCappedAtMaxBackoff) {
  RecordingClock clock;
  TransportClientOptions options = BaseOptions(clock, MissingSocketPath());
  options.retry.backoff_multiplier = 10.0;
  options.retry.max_backoff_ns = 4'000'000;  // 4 ms cap
  TransportClient client(std::move(options));

  const TransportResult result = client.Ping();
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(clock.waits_ns,
            (std::vector<std::uint64_t>{1'000'000, 4'000'000, 4'000'000}));
}

TEST(TransportRetry, JitterStaysWithinFractionAndIsDeterministic) {
  RecordingClock clock_a;
  TransportClientOptions options = BaseOptions(clock_a, MissingSocketPath());
  options.retry.jitter_fraction = 0.25;
  TransportClientOptions options_copy = options;
  TransportClient client_a(std::move(options_copy));
  EXPECT_FALSE(client_a.Ping().ok());

  ASSERT_EQ(clock_a.waits_ns.size(), 3u);
  const std::uint64_t bases[] = {1'000'000, 2'000'000, 4'000'000};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(clock_a.waits_ns[i], bases[i]) << "wait " << i;
    EXPECT_LT(clock_a.waits_ns[i], bases[i] + bases[i] / 4) << "wait " << i;
  }

  // Same seed, same schedule: the jitter stream is deterministic state, not
  // a global RNG.
  RecordingClock clock_b;
  options.clock = &clock_b;
  TransportClient client_b(std::move(options));
  EXPECT_FALSE(client_b.Ping().ok());
  EXPECT_EQ(clock_a.waits_ns, clock_b.waits_ns);
}

TEST(TransportRetry, SingleAttemptPolicyNeverWaits) {
  RecordingClock clock;
  TransportClientOptions options = BaseOptions(clock, MissingSocketPath());
  options.retry.max_attempts = 1;
  TransportClient client(std::move(options));
  const TransportResult result = client.Ping();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_TRUE(clock.waits_ns.empty());
}

// ---------------------------------------------------------------------------
// Scripted peers: a fake server whose transport::Acceptor hands each
// connection to a handler; the connection closes when the handler returns.

class FakeServer {
 public:
  /// `serve(index, fd, wake_fd)` runs once per accepted connection; `index`
  /// counts connections from 0.
  using Handler = std::function<void(std::uint64_t index, int fd, int wake_fd)>;

  explicit FakeServer(Handler serve) : serve_(std::move(serve)) {
    path_ = "/tmp/primacy_retry_fake_" + std::to_string(::getpid()) + "_" +
            std::to_string(++instance_counter_) + ".sock";
    std::string error;
    const int fd = ListenUnixSocket(path_, 8, &error);
    EXPECT_GE(fd, 0) << error;
    EXPECT_TRUE(acceptor_.Start(
        UniqueFd(fd),
        [this](UniqueFd conn, int stop_fd) {
          serve_(connections_.fetch_add(1, std::memory_order_relaxed),
                 conn.get(), stop_fd);
        },
        &error))
        << error;
  }

  ~FakeServer() { ::unlink(path_.c_str()); }

  const std::string& path() const { return path_; }
  std::uint64_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<int> instance_counter_{0};
  Handler serve_;
  std::string path_;
  std::atomic<std::uint64_t> connections_{0};
  // Last, so it stops before the members its handler uses are destroyed.
  Acceptor acceptor_;
};

constexpr std::uint64_t kFakeServerBudgetNs = 5'000'000'000ull;

/// Reads one request frame off `fd`; false if none arrived.
bool ReadRequest(int fd, int wake_fd, Bytes* frame) {
  return RecvFrame(fd, frame, kMaxFrameBytes,
                   service::SystemServiceClock::Instance(),
                   kFakeServerBudgetNs, kFakeServerBudgetNs,
                   wake_fd) == IoStatus::kOk;
}

void Reply(int fd, const Bytes& frame) {
  SendFrame(fd, ByteSpan(frame),
            IoDeadline::After(service::SystemServiceClock::Instance(),
                              kFakeServerBudgetNs));
}

// Idempotency discipline against a half-open peer: the server reads the
// request and closes the connection without replying, making every attempt
// an ambiguous transport failure *after* bytes were sent.
void ReadThenClose(std::uint64_t, int fd, int wake_fd) {
  Bytes frame;
  ReadRequest(fd, wake_fd, &frame);
}

TEST(TransportRetry, CompressIsNotRetriedAfterAmbiguousFailure) {
  FakeServer server(ReadThenClose);
  RecordingClock clock;
  TransportClient client(BaseOptions(clock, server.path()));

  const Bytes payload = BytesFromString("do not compress twice");
  const TransportResult result = client.Compress("default", ByteSpan(payload));
  EXPECT_FALSE(result.ok());
  // The request may have executed server-side; a non-idempotent op must
  // surface the failure instead of re-submitting.
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_TRUE(clock.waits_ns.empty());
  EXPECT_EQ(server.connections(), 1u);
}

TEST(TransportRetry, DecompressIsRetriedAfterAmbiguousFailure) {
  FakeServer server(ReadThenClose);
  RecordingClock clock;
  TransportClient client(BaseOptions(clock, server.path()));

  const Bytes stream = BytesFromString("idempotent: safe to resend");
  const TransportResult result =
      client.Decompress("default", ByteSpan(stream));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.attempts, 4u);
  EXPECT_EQ(clock.waits_ns.size(), 3u);
  EXPECT_EQ(server.connections(), 4u);
}

TEST(TransportRetry, ConnectionLimitRefusalRetriesOnAFreshConnection) {
  // The first connection is refused the way TransportServer refuses one
  // past its cap: a connection-scoped kTooManyConnections error frame
  // (request id 0), then a close. Later connections echo the payload back.
  FakeServer server([](std::uint64_t index, int fd, int wake_fd) {
    Bytes frame;
    if (!ReadRequest(fd, wake_fd, &frame)) return;
    if (index == 0) {
      ErrorFrame refusal;
      refusal.status = WireStatus::kTooManyConnections;
      refusal.message = "connection limit reached";
      Reply(fd, EncodeErrorFrame(refusal));
      return;
    }
    const RequestFrame request = DecodeFrame(ByteSpan(frame)).request;
    ResponseFrame response;
    response.request_id = request.request_id;
    response.op = request.op;
    response.payload = request.payload;
    Reply(fd, EncodeResponseFrame(response));
  });
  RecordingClock clock;
  TransportClientOptions options = BaseOptions(clock, server.path());
  options.retry.max_attempts = 2;
  TransportClient client(std::move(options));

  // The refusal asserts the request never ran, so even Compress retries, and
  // the retry must dial a new connection: the refused one is closed.
  const Bytes payload = BytesFromString("refused once, then served");
  const TransportResult result = client.Compress("default", ByteSpan(payload));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.payload, payload);
  EXPECT_EQ(client.ClientStats().connects, 2u);
  EXPECT_EQ(server.connections(), 2u);
}

// ---------------------------------------------------------------------------
// Server-asserted rejections through a real daemon.

TEST(TransportRetry, RetryAfterHintFloorsTheBackoff) {
  service::ServiceOptions service_options;
  service_options.batch.flush_timeout_ns = 0;
  service::CompressionService service(std::move(service_options));
  service::TenantConfig tenant;
  tenant.name = "throttled";
  tenant.quota_bytes_per_sec = 100;  // refilling 50 bytes takes 500 ms
  tenant.quota_burst_bytes = 100;
  service.AddTenant(tenant);

  TransportServerOptions server_options;
  server_options.socket_path = "/tmp/primacy_retry_quota_" +
                               std::to_string(::getpid()) + ".sock";
  TransportServer server(service, server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Drain the burst with an admitted request so the one under test is
  // rejected with a real refill hint rather than an empty bucket edge case.
  {
    RecordingClock drain_clock;
    TransportClientOptions drain_options =
        BaseOptions(drain_clock, server_options.socket_path);
    drain_options.retry.max_attempts = 1;
    TransportClient drain_client(std::move(drain_options));
    const Bytes burst(100, std::byte{0x11});
    ASSERT_TRUE(drain_client.Compress("throttled", ByteSpan(burst)).ok());
  }

  RecordingClock clock;
  TransportClientOptions options =
      BaseOptions(clock, server_options.socket_path);
  options.retry.max_attempts = 3;
  TransportClient client(std::move(options));

  const Bytes payload(50, std::byte{0x55});
  // A kRejectedQuota error frame asserts the request was NOT executed, so
  // even the non-idempotent Compress is safe to retry — and each wait must
  // be floored by the server's hint (~500 ms to refill 50 bytes at
  // 100 B/s), far above the 1–2 ms computed backoff. The retries are
  // wall-instant (RecordingClock satisfies waits without sleeping), so the
  // bucket stays drained across attempts.
  const TransportResult result =
      client.Compress("throttled", ByteSpan(payload));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, WireStatus::kRejectedQuota);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_GT(result.retry_after_ns, 0u);
  ASSERT_EQ(clock.waits_ns.size(), 2u);
  for (const std::uint64_t wait : clock.waits_ns) {
    EXPECT_GE(wait, 100'000'000ull) << "backoff not floored by retry_after";
    EXPECT_LE(wait, 500'000'000ull);
  }
  server.Shutdown();
}

TEST(TransportRetry, RequestScopedErrorIsNotRetried) {
  service::ServiceOptions service_options;
  service_options.batch.flush_timeout_ns = 0;
  service::CompressionService service(std::move(service_options));
  service.AddTenant({.name = "default"});

  TransportServerOptions server_options;
  server_options.socket_path = "/tmp/primacy_retry_err_" +
                               std::to_string(::getpid()) + ".sock";
  TransportServer server(service, server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  RecordingClock clock;
  TransportClient client(BaseOptions(clock, server_options.socket_path));
  // Unknown tenant: a definitive kError frame — retrying cannot help.
  const TransportResult result =
      client.Decompress("ghost", ByteSpan(Bytes(8, std::byte{1})));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, WireStatus::kError);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_TRUE(clock.waits_ns.empty());
  server.Shutdown();
}

}  // namespace
}  // namespace primacy::transport
