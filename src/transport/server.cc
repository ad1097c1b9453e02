#include "transport/server.h"

#include <unistd.h>

#include <array>
#include <deque>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "telemetry/metrics.h"
#include "util/error.h"

namespace primacy::transport {
namespace {

constexpr std::array<double, 9> kLatencySecondsBounds = {
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0};

/// Budget for the remainder of a frame once its first byte arrived
/// (slow-loris guard).
constexpr std::uint64_t kFrameReadDeadlineNs = 30'000'000'000ull;
/// Budget for writing one reply frame.
constexpr std::uint64_t kWriteDeadlineNs = 30'000'000'000ull;

std::string OpLabel(Op op) {
  return std::string("op=\"") + OpName(op) + "\"";
}

std::string KindLabel(const char* kind) {
  return std::string("kind=\"") + kind + "\"";
}

void CountError(const char* kind) {
  telemetry::MetricsRegistry::Global()
      .GetCounter("primacy_transport_errors_total", KindLabel(kind))
      .Increment();
}

}  // namespace

/// Per-connection state. The reader and writer threads share the reply
/// queue; everything mutable is under `mu` except the fds (fixed after
/// construction) and `done` (the writer's last store, read by the reaper).
struct TransportServer::Connection {
  explicit Connection(int conn_fd) : fd(conn_fd) {}

  /// One reply-to-be, queued in arrival order. Either `frame` is already
  /// encoded (`ready`, used for Ping/Stats and error frames) or `future`
  /// holds the service's pending answer.
  struct PendingReply {
    bool ready = false;
    Bytes frame;
    std::uint64_t request_id = 0;
    Op op = Op::kPing;
    std::uint64_t start_ns = 0;
    std::future<service::ServiceResponse> future;
  };

  UniqueFd fd;
  /// Interrupts the reader's idle poll (server drain or writer failure).
  WakePipe stop;
  std::atomic<bool> done{false};

  primacy::Mutex mu;
  // Pairs with `mu`: signaled on every queue transition (push, pop,
  // reader_done, dead) for both the writer and a cap-paused reader.
  primacy::CondVar cv;
  std::deque<PendingReply> queue PRIMACY_GUARDED_BY(mu);
  bool reader_done PRIMACY_GUARDED_BY(mu) = false;
  bool dead PRIMACY_GUARDED_BY(mu) = false;

  std::thread reader;
  std::thread writer;
};

TransportServer::TransportServer(service::CompressionService& service,
                                 TransportServerOptions options)
    : service_(service), options_(std::move(options)) {
  clock_ = options_.clock != nullptr ? options_.clock
                                     : service_.options().clock;
  if (clock_ == nullptr) clock_ = &service::SystemServiceClock::Instance();
}

TransportServer::~TransportServer() { Shutdown(); }

bool TransportServer::Start(std::string* error) {
  if (started_.exchange(true)) {
    if (error) *error = "TransportServer::Start called twice";
    return false;
  }
  const int fd = ListenUnixSocket(options_.socket_path, 128, error);
  if (fd < 0) return false;
  return acceptor_.Start(
      UniqueFd(fd),
      [this](UniqueFd conn_fd, int stop_fd) {
        Accept(std::move(conn_fd), stop_fd);
      },
      error);
}

void TransportServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) return;
  // Stop accepting first, so no new connection can appear while we drain
  // the existing ones.
  acceptor_.Stop();
  // Drain: wake every reader (no new requests), let writers flush every
  // queued reply, then join and close.
  ReapConnections(/*all=*/true);
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

TransportServerStats TransportServer::Stats() const {
  TransportServerStats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_rejected = connections_rejected_.load();
  stats.connections_active = connections_active_.load();
  stats.requests = requests_.load();
  stats.errors = errors_.load();
  return stats;
}

void TransportServer::Accept(UniqueFd conn_fd, int stop_fd) {
  auto& reg = telemetry::MetricsRegistry::Global();
  ReapConnections(/*all=*/false);
  if (connections_active_.load() >= options_.max_connections) {
    connections_rejected_.fetch_add(1);
    reg.GetCounter("primacy_transport_connections_rejected_total").Increment();
    ErrorFrame reject;
    reject.status = WireStatus::kTooManyConnections;
    reject.retry_after_ns = options_.reject_retry_after_ns;
    reject.message = "connection limit (" +
                     std::to_string(options_.max_connections) + ") reached";
    // Best-effort courtesy reply; the close is the real answer.
    SendFrame(conn_fd.get(), EncodeErrorFrame(reject),
              IoDeadline::After(*clock_, kWriteDeadlineNs), stop_fd);
    return;
  }
  auto conn = std::make_unique<Connection>(conn_fd.Release());
  std::string wake_error;
  if (!conn->stop.Open(&wake_error)) {
    errors_.fetch_add(1);
    CountError("wake_pipe");
    return;
  }
  connections_accepted_.fetch_add(1);
  connections_active_.fetch_add(1);
  reg.GetCounter("primacy_transport_connections_total").Increment();
  reg.GetGauge("primacy_transport_connections_active").Add(1);
  Connection& ref = *conn;
  ref.reader = std::thread(&TransportServer::ReaderLoop, this, std::ref(ref));
  ref.writer = std::thread(&TransportServer::WriterLoop, this, std::ref(ref));
  primacy::MutexLock lock(mu_);
  connections_.push_back(std::move(conn));
}

void TransportServer::ReaderLoop(Connection& conn) {
  auto& reg = telemetry::MetricsRegistry::Global();
  for (;;) {
    {
      primacy::MutexLock lock(conn.mu);
      // Pipeline cap: pausing here stops draining the socket, so kernel
      // buffers fill and the client feels backpressure.
      while (conn.queue.size() >= options_.max_pipelined_requests &&
             !conn.dead) {
        conn.cv.Wait(conn.mu);
      }
      if (conn.dead) break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    Bytes frame;
    const IoStatus status =
        RecvFrame(conn.fd.get(), &frame, kMaxFrameBytes, *clock_,
                  service::kNoDeadlineNs, kFrameReadDeadlineNs,
                  conn.stop.read_fd());
    if (status == IoStatus::kOk) {
      reg.GetCounter("primacy_transport_bytes_read_total")
          .Increment(frame.size() + 4);
      if (!HandleFrame(conn, ByteSpan(frame))) break;
      continue;
    }
    if (status == IoStatus::kEof || status == IoStatus::kStopped) break;
    errors_.fetch_add(1);
    if (status == IoStatus::kTimeout) {
      CountError("read_timeout");
      ErrorFrame err;
      err.status = WireStatus::kBadFrame;
      err.message = "frame read deadline exceeded";
      EnqueueReady(conn, EncodeErrorFrame(err));
    } else if (status == IoStatus::kMalformed) {
      CountError("malformed_frame");
      ErrorFrame err;
      err.status = WireStatus::kBadFrame;
      err.message = "malformed frame (bad length prefix or torn frame)";
      EnqueueReady(conn, EncodeErrorFrame(err));
    } else {
      CountError("read");
    }
    break;
  }
  {
    primacy::MutexLock lock(conn.mu);
    conn.reader_done = true;
  }
  conn.cv.NotifyAll();
}

bool TransportServer::HandleFrame(Connection& conn, ByteSpan frame) {
  auto& reg = telemetry::MetricsRegistry::Global();
  DecodedFrame decoded;
  try {
    decoded = DecodeFrame(frame);
  } catch (const VersionSkewError& e) {
    errors_.fetch_add(1);
    CountError("version_skew");
    ErrorFrame err;
    err.request_id = e.request_id();
    err.status = WireStatus::kVersionSkew;
    err.message = e.what();
    EnqueueReady(conn, EncodeErrorFrame(err));
    return false;  // Nothing after a skewed frame can be trusted.
  } catch (const WireFormatError& e) {
    errors_.fetch_add(1);
    CountError("bad_frame");
    ErrorFrame err;
    err.status = WireStatus::kBadFrame;
    err.message = e.what();
    EnqueueReady(conn, EncodeErrorFrame(err));
    return false;
  }
  if (decoded.kind != FrameKind::kRequest) {
    errors_.fetch_add(1);
    CountError("bad_frame");
    ErrorFrame err;
    err.status = WireStatus::kBadFrame;
    err.message = "expected a request frame";
    EnqueueReady(conn, EncodeErrorFrame(err));
    return false;
  }
  RequestFrame& req = decoded.request;
  requests_.fetch_add(1);
  reg.GetCounter("primacy_transport_requests_total", OpLabel(req.op))
      .Increment();
  const std::uint64_t start_ns = clock_->NowNs();
  switch (req.op) {
    case Op::kPing: {
      ResponseFrame resp;
      resp.request_id = req.request_id;
      resp.op = Op::kPing;
      resp.payload = std::move(req.payload);  // echo for RTT checks
      reg.GetHistogram("primacy_transport_request_seconds",
                       kLatencySecondsBounds, OpLabel(req.op))
          .Observe(static_cast<double>(clock_->NowNs() - start_ns) * 1e-9);
      EnqueueReady(conn, EncodeResponseFrame(resp));
      return true;
    }
    case Op::kStats: {
      ResponseFrame resp;
      resp.request_id = req.request_id;
      resp.op = Op::kStats;
      resp.payload = BytesFromString(service_.StatusJson());
      reg.GetHistogram("primacy_transport_request_seconds",
                       kLatencySecondsBounds, OpLabel(req.op))
          .Observe(static_cast<double>(clock_->NowNs() - start_ns) * 1e-9);
      EnqueueReady(conn, EncodeResponseFrame(resp));
      return true;
    }
    case Op::kCompress:
    case Op::kDecompress:
    case Op::kDecompressRange: {
      Connection::PendingReply pending;
      pending.request_id = req.request_id;
      pending.op = req.op;
      pending.start_ns = start_ns;
      try {
        if (req.op == Op::kCompress) {
          pending.future =
              service_.SubmitCompress(req.tenant, std::move(req.payload));
        } else if (req.op == Op::kDecompress) {
          pending.future =
              service_.SubmitDecompress(req.tenant, std::move(req.payload));
        } else {
          pending.future = service_.SubmitDecompressRange(
              req.tenant, std::move(req.payload), req.first_element,
              req.element_count);
        }
      } catch (const Error& e) {
        // Unknown tenant / bad argument: the connection survives, the
        // request gets an error frame.
        errors_.fetch_add(1);
        CountError("submit");
        ErrorFrame err;
        err.request_id = req.request_id;
        err.op = req.op;
        err.status = WireStatus::kError;
        err.message = e.what();
        EnqueueReady(conn, EncodeErrorFrame(err));
        return true;
      }
      primacy::MutexLock lock(conn.mu);
      if (!conn.dead) {
        conn.queue.push_back(std::move(pending));
        conn.cv.NotifyAll();
      }
      return true;
    }
  }
  // Unreachable: DecodeFrame validated the op.
  errors_.fetch_add(1);
  CountError("unknown_op");
  ErrorFrame err;
  err.request_id = req.request_id;
  err.status = WireStatus::kUnknownOp;
  err.message = "unhandled op";
  EnqueueReady(conn, EncodeErrorFrame(err));
  return false;
}

void TransportServer::EnqueueReady(Connection& conn, Bytes frame) {
  Connection::PendingReply reply;
  reply.ready = true;
  reply.frame = std::move(frame);
  primacy::MutexLock lock(conn.mu);
  if (conn.dead) return;
  conn.queue.push_back(std::move(reply));
  conn.cv.NotifyAll();
}

void TransportServer::WriterLoop(Connection& conn) {
  auto& reg = telemetry::MetricsRegistry::Global();
  for (;;) {
    Connection::PendingReply reply;
    {
      primacy::MutexLock lock(conn.mu);
      while (conn.queue.empty() && !conn.reader_done) {
        conn.cv.Wait(conn.mu);
      }
      if (conn.queue.empty()) break;  // reader finished and queue drained
      reply = std::move(conn.queue.front());
      conn.queue.pop_front();
    }
    conn.cv.NotifyAll();  // free a pipeline slot for a paused reader
    Bytes encoded;
    if (reply.ready) {
      encoded = std::move(reply.frame);
    } else {
      service::ServiceResponse response;
      try {
        response = reply.future.get();
      } catch (const std::exception& e) {
        response.status = service::ServiceStatus::kError;
        response.error = e.what();
      }
      reg.GetHistogram("primacy_transport_request_seconds",
                       kLatencySecondsBounds, OpLabel(reply.op))
          .Observe(static_cast<double>(clock_->NowNs() - reply.start_ns) *
                   1e-9);
      if (response.status == service::ServiceStatus::kOk) {
        ResponseFrame resp;
        resp.request_id = reply.request_id;
        resp.op = reply.op;
        resp.payload = std::move(response.payload);
        encoded = EncodeResponseFrame(resp);
      } else {
        CountError(WireStatusName(FromServiceStatus(response.status)));
        ErrorFrame err;
        err.request_id = reply.request_id;
        err.op = reply.op;
        err.status = FromServiceStatus(response.status);
        err.retry_after_ns = response.retry_after_ns;
        err.message = response.error;
        encoded = EncodeErrorFrame(err);
      }
    }
    const IoStatus status =
        SendFrame(conn.fd.get(), ByteSpan(encoded),
                  IoDeadline::After(*clock_, kWriteDeadlineNs));
    if (status != IoStatus::kOk) {
      errors_.fetch_add(1);
      CountError(status == IoStatus::kTimeout ? "write_timeout" : "write");
      {
        primacy::MutexLock lock(conn.mu);
        conn.dead = true;
        conn.queue.clear();  // pending futures are dropped, not delivered
      }
      conn.cv.NotifyAll();
      conn.stop.Wake();  // kick the reader out of its poll
      break;
    }
    reg.GetCounter("primacy_transport_bytes_written_total")
        .Increment(encoded.size() + 4);
  }
  // Wait for the reader before declaring the connection reapable: `done`
  // means both threads are past touching the fd.
  {
    primacy::MutexLock lock(conn.mu);
    while (!conn.reader_done) {
      conn.stop.Wake();
      conn.cv.Wait(conn.mu);
    }
  }
  // Close now rather than at reap time so the peer observes EOF the moment
  // the conversation is over (e.g. right after a protocol-violation error
  // frame), not whenever the next accept happens to trigger a reap.
  conn.fd.Reset();
  connections_active_.fetch_sub(1);
  reg.GetGauge("primacy_transport_connections_active").Add(-1);
  conn.done.store(true, std::memory_order_release);
}

void TransportServer::ReapConnections(bool all) {
  std::vector<std::unique_ptr<Connection>> reaped;
  {
    primacy::MutexLock lock(mu_);
    if (all) {
      reaped.swap(connections_);
    } else {
      auto keep = connections_.begin();
      for (auto& conn : connections_) {
        if (conn->done.load(std::memory_order_acquire)) {
          reaped.push_back(std::move(conn));
        } else {
          *keep++ = std::move(conn);
        }
      }
      connections_.erase(keep, connections_.end());
    }
  }
  for (auto& conn : reaped) {
    if (all) conn->stop.Wake();
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
}

}  // namespace primacy::transport
