// Closed-loop load generator for the multi-tenant compression service:
// replays mixed compress/decompress traffic (~4 KiB requests sliced from
// the paper datasets) from several tenants, each keeping a fixed window of
// requests outstanding, and hash-verifies EVERY response against the
// output of a direct library call — throughput numbers from a service that
// returns wrong bytes are worthless.
//
// The traffic models a serving workload: each tenant owns a bounded hot
// working set of objects (at most kHotPieces 4 KiB slices of its dataset)
// replayed round-robin, so objects repeat — the pattern the service's
// tenant cache partition (decompress) and compress-result memo exist for.
// Every mode replays the exact same request sequence.
//
// Modes compared:
//   direct_dispatch   one pool task per request, fresh codec state per
//                     request, no caching — what per-request dispatch
//                     against the bare library costs.
//   service_unbatched the service with flush-on-every-push (batching
//                     disabled), isolating admission + caching from
//                     batch coalescing.
//   service_batched   the real configuration: requests coalesce into
//                     batches executed across the pool's workers.
//   transport_uds     service_batched's service behind a TransportServer
//                     on a Unix domain socket: each tenant's window is
//                     kWindow synchronous callers sharing one pooled
//                     TransportClient (wire encode + checksum + two socket
//                     hops per request) — the cost of the process boundary.
//
// Emits BENCH_service.json with per-mode cache/memo hit counts (so the
// source of any speedup is visible), per-stage p50/p95/p99 latencies, and
// the transport floor: transport_uds must hold at least half of
// service_batched's requests/s on this ~4 KiB mix (`target_met`), or the
// boundary is eating the service. Exits nonzero if any response failed
// verification.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "service/service.h"
#include "telemetry/metrics.h"
#include "telemetry/stage_stack.h"
#include "transport/client.h"
#include "transport/server.h"
#include "util/checksum.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace primacy::bench {
namespace {

constexpr std::size_t kRequestDoubles = 512;  // ~4 KiB per request
constexpr std::size_t kWindow = 8;            // outstanding per tenant
constexpr std::size_t kHotPieces = 128;       // hot objects per tenant

const std::vector<std::string>& TenantDatasets() {
  static const std::vector<std::string> datasets = {
      "num_plasma", "num_brain", "obs_info", "flash_velx"};
  return datasets;
}

struct Request {
  Bytes payload;
  bool decompress = false;
  std::uint64_t expected_hash = 0;
};

// Per-tenant request table: alternating compress/decompress over 4 KiB
// slices of the tenant's dataset, with expected hashes from direct calls.
struct TenantWorkload {
  std::string tenant;
  std::vector<Request> requests;
  std::size_t total_bytes = 0;
};

std::vector<TenantWorkload> BuildWorkloads(std::size_t requests_per_tenant) {
  PrimacyOptions direct;
  direct.threads = 1;
  const PrimacyCompressor compressor(direct);
  std::vector<TenantWorkload> workloads;
  for (std::size_t t = 0; t < TenantDatasets().size(); ++t) {
    const std::vector<double>& values = DatasetValues(TenantDatasets()[t]);
    const std::size_t pieces =
        std::min(values.size() / kRequestDoubles, kHotPieces);
    std::vector<Bytes> inputs;
    std::vector<Bytes> streams;
    for (std::size_t p = 0; p < pieces; ++p) {
      const auto* begin =
          reinterpret_cast<const std::byte*>(values.data() + p * kRequestDoubles);
      inputs.push_back(ToBytes(ByteSpan(begin, kRequestDoubles * 8)));
      streams.push_back(compressor.CompressBytes(inputs.back()));
    }
    TenantWorkload workload;
    workload.tenant = "tenant_" + TenantDatasets()[t];
    for (std::size_t r = 0; r < requests_per_tenant; ++r) {
      const std::size_t p = r % pieces;
      Request request;
      request.decompress = (r % 2) == 1;  // 50/50 mix
      if (request.decompress) {
        request.payload = streams[p];
        request.expected_hash = Xxh64(ByteSpan(inputs[p]));
      } else {
        request.payload = inputs[p];
        request.expected_hash = Xxh64(ByteSpan(streams[p]));
      }
      workload.total_bytes += request.payload.size();
      workload.requests.push_back(std::move(request));
    }
    workloads.push_back(std::move(workload));
  }
  return workloads;
}

struct ModeResult {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  std::size_t payload_bytes = 0;

  double RequestsPerSec() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
  double MBps() const {
    return seconds > 0
               ? static_cast<double>(payload_bytes) / (1024.0 * 1024.0) / seconds
               : 0.0;
  }
};

bool Verified(const Request& request, const Bytes& response) {
  return Xxh64(ByteSpan(response)) == request.expected_hash;
}
bool Verified(const Request& request,
              const service::ServiceResponse& response) {
  return response.ok() && Verified(request, response.payload);
}
bool Verified(const Request& request,
              const transport::TransportResult& response) {
  return response.ok() && Verified(request, response.payload);
}

/// Runs `drive(workload)` on one thread per tenant, each returning its
/// tenant's mismatch count, and times the whole closed loop.
template <typename Drive>
ModeResult RunTenants(const std::vector<TenantWorkload>& workloads,
                      Drive drive) {
  ModeResult result;
  std::vector<std::uint64_t> mismatches(workloads.size(), 0);
  WallTimer timer;
  std::vector<std::thread> drivers;
  for (std::size_t t = 0; t < workloads.size(); ++t) {
    drivers.emplace_back([&, t] { mismatches[t] = drive(workloads[t]); });
  }
  for (auto& driver : drivers) driver.join();
  result.seconds = timer.Seconds();
  for (const TenantWorkload& workload : workloads) {
    result.requests += workload.requests.size();
    result.payload_bytes += workload.total_bytes;
  }
  for (const std::uint64_t m : mismatches) result.mismatches += m;
  return result;
}

/// One tenant's closed loop over futures: `submit(request)` returns a
/// future, and once kWindow are outstanding the oldest is awaited and
/// verified before the next submit. Returns the mismatch count.
template <typename Submit>
std::uint64_t DriveWindow(const TenantWorkload& workload, Submit submit) {
  using Future = std::invoke_result_t<Submit, const Request&>;
  std::deque<std::pair<const Request*, Future>> window;
  std::uint64_t mismatches = 0;
  auto drain_one = [&] {
    auto [request, future] = std::move(window.front());
    window.pop_front();
    if (!Verified(*request, future.get())) ++mismatches;
  };
  for (const Request& request : workload.requests) {
    window.emplace_back(&request, submit(request));
    if (window.size() >= kWindow) drain_one();
  }
  while (!window.empty()) drain_one();
  return mismatches;
}

// Baseline: every request is its own pool task constructing fresh codec
// state — what per-request dispatch without the service costs.
ModeResult RunDirectDispatch(const std::vector<TenantWorkload>& workloads) {
  return RunTenants(workloads, [](const TenantWorkload& workload) {
    return DriveWindow(workload, [](const Request& request) {
      return SharedThreadPool().Submit([&request]() -> Bytes {
        PrimacyOptions options;
        options.threads = 1;
        if (request.decompress) {
          return PrimacyDecompressor(options).DecompressBytes(
              request.payload);
        }
        return PrimacyCompressor(options).CompressBytes(request.payload);
      });
    });
  });
}

/// Counters a service mode reports beside its throughput.
struct ServiceCounts {
  std::uint64_t cache_hits = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t server_connections = 0;
};

/// One tenant's window over the socket: kWindow synchronous callers share
/// one pooled client, the same kWindow-outstanding closed loop as the
/// in-process futures.
std::uint64_t DriveOverUds(const TenantWorkload& workload,
                           const std::string& socket_path) {
  transport::TransportClientOptions client_options;
  client_options.socket_path = socket_path;
  client_options.max_pooled_connections = kWindow;
  transport::TransportClient client(std::move(client_options));
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> slots;
  for (std::size_t w = 0; w < kWindow; ++w) {
    slots.emplace_back([&, w] {
      for (std::size_t r = w; r < workload.requests.size(); r += kWindow) {
        const Request& request = workload.requests[r];
        const ByteSpan payload(request.payload);
        const transport::TransportResult response =
            request.decompress ? client.Decompress(workload.tenant, payload)
                               : client.Compress(workload.tenant, payload);
        if (!Verified(request, response)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& slot : slots) slot.join();
  return mismatches.load();
}

/// Runs the workloads through a service batching by `batch`: in process
/// through Submit* futures, or, with `over_uds`, behind a TransportServer.
ModeResult RunService(const std::vector<TenantWorkload>& workloads,
                      const service::BatchOptions& batch, bool over_uds,
                      ServiceCounts& counts) {
  service::ServiceOptions options;
  options.batch = batch;
  options.cache_capacity_bytes = 64ull << 20;  // split across the tenants
  service::CompressionService svc(options);
  for (const TenantWorkload& workload : workloads) {
    service::TenantConfig config;
    config.name = workload.tenant;
    config.cache_share = 1.0 / static_cast<double>(workloads.size());
    config.memo_bytes = 8ull << 20;  // covers the hot working set
    svc.AddTenant(config);
  }
  ModeResult result;
  if (over_uds) {
    transport::TransportServerOptions server_options;
    server_options.socket_path =
        "/tmp/primacy_service_load_" + std::to_string(::getpid()) + ".sock";
    server_options.max_connections = workloads.size() * kWindow + 4;
    transport::TransportServer server(svc, server_options);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "service_load: server start failed: %s\n",
                   error.c_str());
      std::exit(1);
    }
    result = RunTenants(workloads, [&](const TenantWorkload& workload) {
      return DriveOverUds(workload, server_options.socket_path);
    });
    const transport::TransportServerStats stats = server.Stats();
    counts.server_requests = stats.requests;
    counts.server_connections = stats.connections_accepted;
    server.Shutdown();
  } else {
    result = RunTenants(workloads, [&](const TenantWorkload& workload) {
      return DriveWindow(workload, [&](const Request& request) {
        return request.decompress
                   ? svc.SubmitDecompress(workload.tenant, request.payload)
                   : svc.SubmitCompress(workload.tenant, request.payload);
      });
    });
  }
  for (const TenantWorkload& workload : workloads) {
    const service::TenantStatsSnapshot stats = svc.TenantStats(workload.tenant);
    counts.cache_hits += stats.cache_hits;
    counts.memo_hits += stats.memo_hits;
  }
  return result;
}

BenchReport::Entry& Report(BenchReport& report, const std::string& mode,
                           const ModeResult& result) {
  std::printf("  %-18s %8.0f req/s  %7.1f MB/s  %6.3f s  %s\n", mode.c_str(),
              result.RequestsPerSec(), result.MBps(), result.seconds,
              result.mismatches == 0 ? "all verified"
                                     : "VERIFICATION FAILED");
  return report.AddEntry(mode)
      .Set("requests", static_cast<std::size_t>(result.requests))
      .Set("seconds", result.seconds)
      .Set("requests_per_sec", result.RequestsPerSec())
      .Set("mb_per_sec", result.MBps())
      .Set("mismatches", static_cast<std::size_t>(result.mismatches))
      .Set("verified", result.mismatches == 0);
}

namespace tel = primacy::telemetry;

/// Per-stage duration histograms at one instant, encode stages then decode
/// stages. Captured around each mode so DeltaSince isolates that mode's
/// distribution even though the registry accumulates across the process.
using StageSnapshots =
    std::array<tel::HistogramSnapshot, 2 * tel::kStageCount>;

StageSnapshots CaptureStages() {
  StageSnapshots snapshots;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    snapshots[i] = tel::StageSecondsHistogram(
                       static_cast<tel::Pipeline>(i / tel::kStageCount),
                       static_cast<tel::Stage>(i % tel::kStageCount))
                       .Snapshot();
  }
  return snapshots;
}

/// Adds p50/p95/p99 per-chunk stage latencies for every stage run since
/// `mark` (flat keys, e.g. p99_encode_solver_s) to the mode's entry, then
/// advances `mark` to now.
void AddStagePercentiles(BenchReport::Entry& entry, StageSnapshots& mark) {
  const StageSnapshots now = CaptureStages();
  for (std::size_t i = 0; i < now.size(); ++i) {
    const tel::HistogramSnapshot delta = now[i].DeltaSince(mark[i]);
    if (delta.count == 0) continue;
    const auto stage = static_cast<tel::Stage>(i % tel::kStageCount);
    const std::string key = (i < tel::kStageCount ? "encode_" : "decode_") +
                            std::string(tel::StageName(stage));
    entry.Set("p50_" + key + "_s", delta.Quantile(0.50))
        .Set("p95_" + key + "_s", delta.Quantile(0.95))
        .Set("p99_" + key + "_s", delta.Quantile(0.99));
  }
  mark = now;
}

}  // namespace
}  // namespace primacy::bench

int main(int argc, char** argv) {
  using namespace primacy::bench;
  Init(argc, argv);
  PrintHeader("Multi-tenant service throughput (closed-loop, hash-verified)",
              "service layer; batching vs per-request dispatch vs the UDS "
              "daemon");

  const std::size_t requests_per_tenant = Quick() ? 256 : 2048;
  const auto workloads = BuildWorkloads(requests_per_tenant);
  std::printf("tenants=%zu  requests/tenant=%zu  window=%zu  payload=%zu B\n",
              workloads.size(), requests_per_tenant, kWindow,
              kRequestDoubles * 8);
  PrintRule();

  BenchReport report("service");

  StageSnapshots stage_mark = CaptureStages();
  const ModeResult direct = RunDirectDispatch(workloads);
  AddStagePercentiles(Report(report, "direct_dispatch", direct), stage_mark);

  primacy::service::BatchOptions unbatched;
  unbatched.flush_timeout_ns = 0;  // flush on every push: no coalescing
  ServiceCounts unbatched_counts;
  const ModeResult service_unbatched =
      RunService(workloads, unbatched, /*over_uds=*/false, unbatched_counts);
  AddStagePercentiles(Report(report, "service_unbatched", service_unbatched),
                      stage_mark);

  primacy::service::BatchOptions batched;
  batched.flush_bytes = 32 * 1024;     // ~8 requests
  batched.flush_requests = 8;
  batched.flush_timeout_ns = 100'000;  // 100 us tail-latency bound
  ServiceCounts batched_counts;
  const ModeResult service_batched =
      RunService(workloads, batched, /*over_uds=*/false, batched_counts);
  AddStagePercentiles(Report(report, "service_batched", service_batched),
                      stage_mark);

  ServiceCounts uds_counts;
  const ModeResult transport_uds =
      RunService(workloads, batched, /*over_uds=*/true, uds_counts);
  AddStagePercentiles(
      Report(report, "transport_uds", transport_uds)
          .Set("server_requests",
               static_cast<std::size_t>(uds_counts.server_requests))
          .Set("server_connections",
               static_cast<std::size_t>(uds_counts.server_connections)),
      stage_mark);
  std::printf("  service hit counts: unbatched cache=%llu memo=%llu | "
              "batched cache=%llu memo=%llu\n",
              static_cast<unsigned long long>(unbatched_counts.cache_hits),
              static_cast<unsigned long long>(unbatched_counts.memo_hits),
              static_cast<unsigned long long>(batched_counts.cache_hits),
              static_cast<unsigned long long>(batched_counts.memo_hits));

  const auto ratio = [](const ModeResult& num, const ModeResult& den) {
    return den.RequestsPerSec() > 0
               ? num.RequestsPerSec() / den.RequestsPerSec()
               : 0.0;
  };
  const double speedup_vs_direct = ratio(service_batched, direct);
  const double speedup_vs_unbatched = ratio(service_batched, service_unbatched);
  // The boundary budget: wire framing + checksums + two socket hops must
  // not cost more than half the throughput on this ~4 KiB request mix.
  constexpr double kTransportFloor = 0.5;
  const double throughput_ratio = ratio(transport_uds, service_batched);
  const bool target_met = throughput_ratio >= kTransportFloor;
  PrintRule();
  std::printf("batched speedup: %.2fx vs direct dispatch, %.2fx vs unbatched "
              "service\n",
              speedup_vs_direct, speedup_vs_unbatched);
  std::printf("transport/in-process throughput ratio: %.2fx (target >= %.2fx"
              " — %s)\n",
              throughput_ratio, kTransportFloor,
              target_met ? "met" : "MISSED");

  const std::uint64_t total_mismatches =
      direct.mismatches + service_unbatched.mismatches +
      service_batched.mismatches + transport_uds.mismatches;
  report.AddEntry("summary")
      .Set("speedup_batched_vs_direct", speedup_vs_direct)
      .Set("speedup_batched_vs_unbatched", speedup_vs_unbatched)
      .Set("service_unbatched_cache_hits",
           static_cast<std::size_t>(unbatched_counts.cache_hits))
      .Set("service_unbatched_memo_hits",
           static_cast<std::size_t>(unbatched_counts.memo_hits))
      .Set("service_batched_cache_hits",
           static_cast<std::size_t>(batched_counts.cache_hits))
      .Set("service_batched_memo_hits",
           static_cast<std::size_t>(batched_counts.memo_hits))
      .Set("throughput_ratio", throughput_ratio)
      .Set("target_ratio", kTransportFloor)
      .Set("target_met", target_met)
      .Set("verified", total_mismatches == 0);
  report.Write();
  if (total_mismatches != 0) {
    std::fprintf(stderr, "service_load: %llu responses failed verification\n",
                 static_cast<unsigned long long>(total_mismatches));
    return 1;
  }
  return 0;
}
