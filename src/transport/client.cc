#include "transport/client.h"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.h"

namespace primacy::transport {
namespace {

/// Budget for connecting to the daemon's socket.
constexpr std::uint64_t kConnectTimeoutNs = 5'000'000'000ull;
/// Budget for a reply to start arriving and for the frame to complete.
constexpr std::uint64_t kReadDeadlineNs = 60'000'000'000ull;
/// Budget for writing one request frame.
constexpr std::uint64_t kWriteDeadlineNs = 30'000'000'000ull;
/// Seed of the SplitMix64 stream behind the retry jitter.
constexpr std::uint64_t kJitterSeed = 0x9E3779B97F4A7C15ull;

bool IsIdempotent(Op op) {
  switch (op) {
    case Op::kCompress:
      // Compressing twice is semantically harmless but charges quota and
      // occupies in-flight slots twice; after an ambiguous failure the
      // caller, not the client, decides.
      return false;
    case Op::kDecompress:
    case Op::kDecompressRange:
    case Op::kPing:
    case Op::kStats:
      return true;
  }
  return false;
}

/// Error-frame statuses where the server asserts the request was not
/// admitted — safe to retry regardless of op.
bool IsRetryableStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kRejectedQuota:
    case WireStatus::kRejectedInflight:
    case WireStatus::kTooManyConnections:
      return true;
    default:
      return false;
  }
}

/// Statuses the service returns for one request on a healthy connection
/// (the wire block that mirrors service::ServiceStatus). Everything else is
/// a transport-block status, sent on a connection the server then closes.
bool IsPerRequestStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kRejectedQuota:
    case WireStatus::kRejectedInflight:
    case WireStatus::kCancelled:
    case WireStatus::kError:
    case WireStatus::kShuttingDown:
      return true;
    default:
      return false;
  }
}

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

TransportClient::TransportClient(TransportClientOptions options)
    : options_(std::move(options)),
      jitter_state_(kJitterSeed) {
  clock_ = options_.clock != nullptr ? options_.clock
                                     : &service::SystemServiceClock::Instance();
  clock_->RegisterWaiter(&mu_, &cv_);
}

TransportClient::~TransportClient() {
  clock_->UnregisterWaiter(&cv_);
  primacy::MutexLock lock(mu_);
  for (const int fd : pool_) {
    UniqueFd closer(fd);  // closes on scope exit
  }
  pool_.clear();
}

TransportResult TransportClient::Compress(std::string_view tenant,
                                          ByteSpan payload) {
  return Execute(Op::kCompress, tenant, payload, 0, 0);
}

TransportResult TransportClient::Decompress(std::string_view tenant,
                                            ByteSpan stream) {
  return Execute(Op::kDecompress, tenant, stream, 0, 0);
}

TransportResult TransportClient::DecompressRange(std::string_view tenant,
                                                 ByteSpan stream,
                                                 std::uint64_t first_element,
                                                 std::uint64_t element_count) {
  return Execute(Op::kDecompressRange, tenant, stream, first_element,
                 element_count);
}

TransportResult TransportClient::Ping(ByteSpan payload) {
  return Execute(Op::kPing, {}, payload, 0, 0);
}

TransportResult TransportClient::Stats() {
  return Execute(Op::kStats, {}, {}, 0, 0);
}

TransportClientStats TransportClient::ClientStats() const {
  TransportClientStats stats;
  stats.requests = requests_.load();
  stats.retries = retries_.load();
  stats.connects = connects_.load();
  return stats;
}

TransportResult TransportClient::Execute(Op op, std::string_view tenant,
                                         ByteSpan payload,
                                         std::uint64_t first_element,
                                         std::uint64_t element_count) {
  requests_.fetch_add(1);
  const RetryPolicy& retry = options_.retry;
  const std::size_t max_attempts = std::max<std::size_t>(1, retry.max_attempts);
  std::uint64_t backoff_ns = retry.initial_backoff_ns;
  for (std::size_t attempt = 1;; ++attempt) {
    AttemptOutcome outcome =
        ExecuteOnce(op, tenant, payload, first_element, element_count);
    outcome.result.attempts = static_cast<std::uint32_t>(attempt);
    if (outcome.result.ok() || attempt >= max_attempts) {
      return outcome.result;
    }
    const bool retryable =
        outcome.transport_failure
            ? (!outcome.sent || IsIdempotent(op))
            : IsRetryableStatus(outcome.result.status);
    if (!retryable) return outcome.result;
    retries_.fetch_add(1);
    telemetry::MetricsRegistry::Global()
        .GetCounter("primacy_transport_retries_total",
                    std::string("op=\"") + OpName(op) + "\"")
        .Increment();
    // Jittered exponential backoff, floored by the server's explicit hint.
    std::uint64_t wait_ns = backoff_ns;
    if (retry.jitter_fraction > 0.0) {
      wait_ns = static_cast<std::uint64_t>(
          static_cast<double>(wait_ns) *
          (1.0 + retry.jitter_fraction * NextJitter()));
    }
    wait_ns = std::min(wait_ns, retry.max_backoff_ns);
    wait_ns = std::max(wait_ns, outcome.result.retry_after_ns);
    SleepNs(wait_ns);
    const double next =
        static_cast<double>(backoff_ns) * retry.backoff_multiplier;
    backoff_ns = next >= static_cast<double>(retry.max_backoff_ns)
                     ? retry.max_backoff_ns
                     : static_cast<std::uint64_t>(next);
  }
}

TransportClient::AttemptOutcome TransportClient::ExecuteOnce(
    Op op, std::string_view tenant, ByteSpan payload,
    std::uint64_t first_element, std::uint64_t element_count) {
  AttemptOutcome outcome;
  std::string error;
  UniqueFd fd(CheckoutConnection(&error));
  if (!fd.valid()) {
    outcome.transport_failure = true;
    outcome.result.status = WireStatus::kError;
    outcome.result.error = "connect: " + error;
    return outcome;
  }
  RequestFrame request;
  request.request_id = next_request_id_.fetch_add(1);
  request.op = op;
  request.tenant.assign(tenant);
  request.first_element = first_element;
  request.element_count = element_count;
  request.payload = ToBytes(payload);
  const Bytes encoded = EncodeRequestFrame(request);
  outcome.sent = true;  // conservative: a partial send still counts
  const IoStatus send_status =
      SendFrame(fd.get(), ByteSpan(encoded),
                IoDeadline::After(*clock_, kWriteDeadlineNs));
  if (send_status != IoStatus::kOk) {
    outcome.transport_failure = true;
    outcome.result.status = WireStatus::kError;
    outcome.result.error =
        std::string("send: ") + IoStatusName(send_status);
    return outcome;  // fd closes: a half-written frame poisons the stream
  }
  Bytes reply;
  const IoStatus recv_status =
      RecvFrame(fd.get(), &reply, kMaxFrameBytes, *clock_, kReadDeadlineNs,
                kReadDeadlineNs);
  if (recv_status != IoStatus::kOk) {
    outcome.transport_failure = true;
    outcome.result.status = WireStatus::kError;
    outcome.result.error =
        std::string("recv: ") + IoStatusName(recv_status);
    return outcome;
  }
  DecodedFrame decoded;
  try {
    decoded = DecodeFrame(ByteSpan(reply));
  } catch (const WireFormatError& e) {
    outcome.transport_failure = true;
    outcome.result.status = WireStatus::kError;
    outcome.result.error = e.what();
    return outcome;
  }
  if (decoded.kind == FrameKind::kResponse) {
    if (decoded.response.request_id != request.request_id) {
      outcome.transport_failure = true;
      outcome.result.status = WireStatus::kError;
      outcome.result.error = "response for unexpected request id";
      return outcome;  // stream out of sync; drop the connection
    }
    outcome.result.status = WireStatus::kOk;
    outcome.result.payload = std::move(decoded.response.payload);
    ReturnConnection(fd.Release());
    return outcome;
  }
  if (decoded.kind == FrameKind::kError) {
    const ErrorFrame& err = decoded.error;
    // id 0 = connection-scoped error (bad frame, version skew, limits).
    if (err.request_id != 0 && err.request_id != request.request_id) {
      outcome.transport_failure = true;
      outcome.result.status = WireStatus::kError;
      outcome.result.error = "error frame for unexpected request id";
      return outcome;
    }
    outcome.result.status = err.status;
    outcome.result.retry_after_ns = err.retry_after_ns;
    outcome.result.error = err.message;
    // The server closes after connection-scoped errors (the transport
    // block, kTooManyConnections included); only the service's per-request
    // statuses leave the stream reusable, so a retry after any other status
    // dials a fresh connection.
    if (IsPerRequestStatus(err.status)) ReturnConnection(fd.Release());
    return outcome;
  }
  outcome.transport_failure = true;
  outcome.result.status = WireStatus::kError;
  outcome.result.error = "unexpected request frame from server";
  return outcome;
}

int TransportClient::CheckoutConnection(std::string* error) {
  {
    primacy::MutexLock lock(mu_);
    if (!pool_.empty()) {
      const int fd = pool_.back();
      pool_.pop_back();
      return fd;
    }
  }
  connects_.fetch_add(1);
  return ConnectUnixSocket(options_.socket_path,
                           IoDeadline::After(*clock_, kConnectTimeoutNs),
                           error);
}

void TransportClient::ReturnConnection(int fd) {
  if (fd < 0) return;
  primacy::MutexLock lock(mu_);
  if (pool_.size() < options_.max_pooled_connections) {
    pool_.push_back(fd);
    return;
  }
  UniqueFd closer(fd);  // pool full: close
}

void TransportClient::SleepNs(std::uint64_t wait_ns) {
  if (wait_ns == 0) return;
  primacy::MutexLock lock(mu_);
  const std::uint64_t now = clock_->NowNs();
  const std::uint64_t deadline =
      now > service::kNoDeadlineNs - wait_ns ? service::kNoDeadlineNs - 1
                                             : now + wait_ns;
  while (clock_->NowNs() < deadline) {
    clock_->WaitUntil(mu_, cv_, deadline);
  }
}

double TransportClient::NextJitter() {
  primacy::MutexLock lock(mu_);
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(SplitMix64(jitter_state_) >> 11) * 0x1.0p-53;
}

}  // namespace primacy::transport
