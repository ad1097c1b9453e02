#include "telemetry/exporter/http_server.h"

#include <cstdio>
#include <string>
#include <utility>

#include "service/clock.h"
#include "transport/socket_io.h"
#include "util/bytes.h"

namespace primacy::telemetry {
namespace {

// Per-connection I/O budgets. A scrape is a handful of header lines and a
// metrics page; a peer that cannot finish either side in 5 seconds is
// wedged, and a wedged scraper must not pin the accept loop forever.
constexpr std::uint64_t kReadDeadlineNs = 5'000'000'000ull;
constexpr std::uint64_t kWriteDeadlineNs = 5'000'000'000ull;

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "OK";
  }
}

/// Request target from "GET /path HTTP/1.x"; empty on malformed input.
std::string ParseRequestPath(const std::string& request) {
  const std::size_t first = request.find(' ');
  if (first == std::string::npos) return {};
  const std::size_t second = request.find(' ', first + 1);
  if (second == std::string::npos || second == first + 1) return {};
  std::string path = request.substr(first + 1, second - first - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

/// Serves one request on `fd`. Every wait also watches `stop_fd`, so
/// Stop() never waits out a stalled peer's deadlines.
void ServeConnection(int fd, int stop_fd, const HttpHandler& handler) {
  auto& clock = service::SystemServiceClock::Instance();
  // Scrape requests are a handful of header lines; cap the head read so a
  // garbage client cannot grow the buffer unboundedly. RecvSome retries
  // EINTR and polls under the read deadline, so a stalled peer times out
  // instead of wedging the accept loop.
  const transport::IoDeadline read_deadline =
      transport::IoDeadline::After(clock, kReadDeadlineNs);
  std::string request;
  std::byte buffer[1024];
  while (request.size() < 16 * 1024 &&
         request.find("\r\n\r\n") == std::string::npos) {
    std::size_t received = 0;
    const transport::IoStatus status = transport::RecvSome(
        fd, MutableByteSpan(buffer), &received, read_deadline, stop_fd);
    if (status == transport::IoStatus::kStopped) return;
    if (status != transport::IoStatus::kOk) break;
    request.append(StringFromBytes(ByteSpan(buffer, received)));
  }
  const std::string path = ParseRequestPath(request);
  HttpResponse response;
  if (path.empty()) {
    response.status = 400;
    response.body = "bad request\n";
  } else {
    response = handler(path);
  }
  char head[192];
  std::snprintf(head, sizeof head,
                "HTTP/1.0 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                response.status, StatusText(response.status),
                response.content_type.c_str(), response.body.size());
  std::string out = head;
  out += response.body;
  // SendAll retries EINTR-interrupted and short writes under the
  // per-connection write deadline: a /metrics page is many kilobytes.
  transport::SendAll(fd, AsBytes(std::span<const char>(out.data(), out.size())),
                     transport::IoDeadline::After(clock, kWriteDeadlineNs),
                     stop_fd);
}

}  // namespace

struct HttpServer::Impl {
  transport::Acceptor acceptor;
  int port = -1;
};

HttpServer::HttpServer() : impl_(new Impl()) {}

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::Start(int port, HttpHandler handler) {
  Impl& state = *impl_;
  if (state.port >= 0 || port < 0 || port > 65535) return false;
  int bound_port = -1;
  transport::UniqueFd fd(
      transport::ListenTcpLoopback(port, &bound_port, nullptr));
  if (!fd.valid()) return false;
  const bool started = state.acceptor.Start(
      std::move(fd),
      [handler = std::move(handler)](transport::UniqueFd conn, int stop_fd) {
        ServeConnection(conn.get(), stop_fd, handler);
      },
      nullptr);
  if (started) state.port = bound_port;
  return started;
}

void HttpServer::Stop() {
  impl_->acceptor.Stop();
  impl_->port = -1;
}

int HttpServer::Port() const { return impl_->port; }

}  // namespace primacy::telemetry
