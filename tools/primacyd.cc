// primacyd: the PRIMACY compression daemon.
//
// Hosts one multi-tenant CompressionService behind a Unix-domain-socket
// TransportServer (src/transport), turning the in-process service into a
// real multi-process server: any number of client processes connect with
// TransportClient (or the primacy_client CLI) and get responses that are
// byte-identical to direct library calls.
//
//   ./primacyd --socket /run/primacy.sock
//       --tenant plasma,rate=64m,burst=128m,inflight=32,cache_share=0.5
//       --tenant batch,policy=block
//       --cache-bytes 256m --max-connections 128
//
// Observability: with PRIMACY_METRICS_PORT set, the process serves
// /metrics, /statusz (including the service's per-tenant JSON), /healthz,
// and /quitquitquit on 127.0.0.1 — see telemetry/exporter.
//
// Shutdown: SIGINT, SIGTERM, and GET /quitquitquit all funnel into the
// same graceful drain — stop accepting, finish every in-flight request,
// flush replies, close, exit 0.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "service/service.h"
#include "telemetry/exporter/observability_hub.h"
#include "transport/server.h"
#include "transport/shutdown_signal.h"
#include "util/error.h"

namespace {

using namespace primacy;

constexpr const char* kUsage = R"(usage: primacyd --socket PATH [options]

Serve a multi-tenant PRIMACY compression service over a Unix domain socket.

options:
  --socket PATH         socket path to bind (required)
  --tenant SPEC         register a tenant; repeatable. SPEC is
                        name[,key=value...] with keys:
                          rate=BYTES        quota bytes/sec (0 = unlimited)
                          burst=BYTES       quota burst (0 = 1s of rate)
                          inflight=N        max in-flight requests (0 = off)
                          policy=reject|block  backpressure policy
                          cache_share=F     fraction of --cache-bytes [0,1]
                          memo=BYTES        compress-result memo budget
                        default when omitted: one unlimited tenant "default"
  --cache-bytes BYTES   decoded-block cache budget split by cache_share (0)
  --max-connections N   concurrent connection cap (64)
  --max-pipelined N     queued replies per connection before the reader
                        pauses (128)
  --slow-slo-ms N       slow-request watchdog SLO in milliseconds (0 = off)
  --help                print this and exit

BYTES accepts k/m/g suffixes (KiB/MiB/GiB). Set PRIMACY_METRICS_PORT to
serve /metrics, /statusz, and /quitquitquit on 127.0.0.1.
)";

/// "64m" -> 64 MiB. Exits with a message on garbage.
std::uint64_t ParseBytes(const std::string& text, const char* what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  std::uint64_t scale = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = 1ull << 10; ++end; break;
      case 'm': case 'M': scale = 1ull << 20; ++end; break;
      case 'g': case 'G': scale = 1ull << 30; ++end; break;
      default: break;
    }
  }
  if (end == nullptr || *end != '\0' || end == text.c_str()) {
    std::fprintf(stderr, "primacyd: bad %s value '%s'\n", what, text.c_str());
    std::exit(2);
  }
  return value * scale;
}

/// "name,rate=64m,policy=block" -> TenantConfig. Exits on unknown keys so a
/// typo'd quota never silently becomes an unlimited tenant.
service::TenantConfig ParseTenantSpec(const std::string& spec) {
  service::TenantConfig config;
  std::size_t start = 0;
  bool first = true;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(start, comma - start);
    start = comma + 1;
    if (first) {
      config.name = field;
      first = false;
      continue;
    }
    const std::size_t eq = field.find('=');
    const std::string key = field.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : field.substr(eq + 1);
    if (key == "rate") {
      config.quota_bytes_per_sec = ParseBytes(value, "rate");
    } else if (key == "burst") {
      config.quota_burst_bytes = ParseBytes(value, "burst");
    } else if (key == "inflight") {
      config.max_inflight =
          static_cast<std::size_t>(ParseBytes(value, "inflight"));
    } else if (key == "policy") {
      if (value == "reject") {
        config.on_pressure = service::BackpressurePolicy::kReject;
      } else if (value == "block") {
        config.on_pressure = service::BackpressurePolicy::kBlock;
      } else {
        std::fprintf(stderr, "primacyd: bad policy '%s' in tenant spec\n",
                     value.c_str());
        std::exit(2);
      }
    } else if (key == "cache_share") {
      config.cache_share = std::atof(value.c_str());
    } else if (key == "memo") {
      config.memo_bytes = static_cast<std::size_t>(ParseBytes(value, "memo"));
    } else {
      std::fprintf(stderr, "primacyd: unknown tenant key '%s' in '%s'\n",
                   key.c_str(), spec.c_str());
      std::exit(2);
    }
  }
  if (config.name.empty()) {
    std::fprintf(stderr, "primacyd: tenant spec '%s' has no name\n",
                 spec.c_str());
    std::exit(2);
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::vector<service::TenantConfig> tenants;
  std::uint64_t cache_bytes = 0;
  std::size_t max_connections = 64;
  std::size_t max_pipelined = 128;
  std::uint64_t slow_slo_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "primacyd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--tenant") {
      tenants.push_back(ParseTenantSpec(next()));
    } else if (arg == "--cache-bytes") {
      cache_bytes = ParseBytes(next(), "--cache-bytes");
    } else if (arg == "--max-connections") {
      max_connections =
          static_cast<std::size_t>(ParseBytes(next(), "--max-connections"));
    } else if (arg == "--max-pipelined") {
      max_pipelined =
          static_cast<std::size_t>(ParseBytes(next(), "--max-pipelined"));
    } else if (arg == "--slow-slo-ms") {
      slow_slo_ms = ParseBytes(next(), "--slow-slo-ms");
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "primacyd: unknown flag '%s'\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "primacyd: --socket is required\n%s", kUsage);
    return 2;
  }
  if (tenants.empty()) tenants.push_back({.name = "default"});

  // Install the signal handlers before any serving thread exists so an
  // early Ctrl-C still runs the drain path instead of default termination.
  auto& shutdown = primacy::transport::ShutdownSignal::Instance();
  std::string error;
  if (!shutdown.Install(&error)) {
    std::fprintf(stderr, "primacyd: signal install failed: %s\n",
                 error.c_str());
    return 1;
  }

  service::ServiceOptions service_options;
  service_options.cache_capacity_bytes =
      static_cast<std::size_t>(cache_bytes);
  service_options.slow_request_slo_ns = slow_slo_ms * 1'000'000ull;
  service::CompressionService compression(service_options);
  try {
    for (const auto& tenant : tenants) compression.AddTenant(tenant);
  } catch (const Error& e) {
    std::fprintf(stderr, "primacyd: bad tenant config: %s\n", e.what());
    return 2;
  }

  // PRIMACY_METRICS_PORT / PRIMACY_TRACE_DIR / PRIMACY_PROFILE_HZ make the
  // daemon scrapeable; the hub's /quitquitquit trips the same ShutdownSignal
  // as SIGINT and SIGTERM, which the drain loop below waits on.
  telemetry::ObservabilityHub* hub = telemetry::MaybeStartHubFromEnv();
  if (hub != nullptr) {
    hub->AddStatusSource("service",
                         [&compression] { return compression.StatusJson(); });
  }

  transport::TransportServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.max_connections = max_connections;
  server_options.max_pipelined_requests = max_pipelined;
  transport::TransportServer server(compression, server_options);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "primacyd: %s\n", error.c_str());
    return 1;
  }
  std::printf("primacyd: serving %zu tenant%s on %s\n", tenants.size(),
              tenants.size() == 1 ? "" : "s", socket_path.c_str());
  if (hub != nullptr && hub->HttpPort() >= 0) {
    std::printf("primacyd: observability on 127.0.0.1:%d\n", hub->HttpPort());
  }
  std::fflush(stdout);

  // All three stop sources trip the one latch and share the drain below.
  while (!shutdown.WaitRequested(service::kNoDeadlineNs)) {
  }

  std::printf("primacyd: draining\n");
  std::fflush(stdout);
  server.Shutdown();
  if (hub != nullptr) hub->Stop();
  const auto stats = server.Stats();
  std::printf("primacyd: served %llu requests over %llu connections\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections_accepted));
  return 0;
}
