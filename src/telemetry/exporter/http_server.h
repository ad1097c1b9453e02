// Dependency-free embedded HTTP/1.0 server for the observability endpoints.
//
// Scope is deliberately tiny: loopback-only (binds 127.0.0.1), GET-shaped
// requests, one response per connection, Connection: close. That is exactly
// what a Prometheus scrape or a curl from CI needs, and nothing the service
// traffic path could ever be confused with — this is not a transport.
//
// Connections arrive through the tree's one accept loop, transport::Acceptor
// (transport/socket_io.h), which owns the accept thread, the wake pipe and
// the EMFILE back-off. Each request is served inline on that thread, and
// its reads and writes also wait on the acceptor's stop pipe, so Stop()
// interrupts a stalled scrape at once instead of waiting out its 5 s
// deadlines. Endpoint bodies are rendered by the caller's handler
// (ObservabilityHub::HandleRequest), which is also callable directly in
// tests without any socket.
//
// Lock discipline: this class holds no mutex at all. Start()/Stop() order
// with the accept thread through thread creation/join, so nothing here
// appears in the thread-safety-annotation layer
// (util/thread_annotations.h): there is no capability to annotate.
#pragma once

#include <functional>
#include <memory>
#include <string>

namespace primacy::telemetry {

/// One rendered response.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Maps a request path ("/metrics") to a response; query strings are
/// stripped before dispatch.
using HttpHandler = std::function<HttpResponse(const std::string& path)>;

class HttpServer {
 public:
  HttpServer();
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, read back
  /// with Port()) and starts the accept thread. Returns false — with no
  /// thread started and no socket left open — if the bind fails.
  bool Start(int port, HttpHandler handler);

  /// Stops accepting, interrupts a request in progress (its peer may get no
  /// response), joins the accept thread, closes the socket. Idempotent.
  void Stop();

  /// Bound port after a successful Start(); -1 otherwise.
  int Port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace primacy::telemetry
