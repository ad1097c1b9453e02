#include "service/service.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <utility>

#include "cache/block_cache.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace primacy::service {

namespace {

/// Retry hint for in-flight rejections: there is no refill schedule to
/// compute from (capacity frees when some request completes), so the hint
/// is one batch timeout — the horizon at which queued work must have been
/// dispatched.
std::uint64_t InflightRetryHintNs(const BatchOptions& batch) {
  return batch.flush_timeout_ns != 0 ? batch.flush_timeout_ns : 1'000'000;
}

bool ValidTenantName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == '-')) {
      return false;
    }
  }
  return true;
}

/// Shards per tenant cache partition.
constexpr std::size_t kTenantCacheShards = 4;

/// Requests are small by design (batching is the parallelism axis), and the
/// serial per-request path keeps responses byte-identical to serial library
/// calls trivially.
ServiceOptions WithSerialCodec(ServiceOptions options) {
  options.codec.threads = 1;
  return options;
}

constexpr std::array<double, 8> kFillRatioBounds = {
    0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};
constexpr std::array<double, 7> kLatencySecondsBounds = {
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};

const char* ResultLabel(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kRejectedQuota: return "rejected_quota";
    case ServiceStatus::kRejectedInflight: return "rejected_inflight";
    case ServiceStatus::kCancelled: return "cancelled";
    case ServiceStatus::kError: return "error";
    case ServiceStatus::kShuttingDown: return "shutdown";
  }
  return "unknown";
}

/// `reason` label on primacy_service_rejections_total, or null for
/// statuses that are not admission refusals. The label set is closed —
/// quota, inflight, draining — and pinned by the service test suite.
const char* RejectReason(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kRejectedQuota: return "quota";
    case ServiceStatus::kRejectedInflight: return "inflight";
    case ServiceStatus::kShuttingDown: return "draining";
    default: return nullptr;
  }
}

void AppendJsonField(std::string& out, const char* key, std::uint64_t value,
                     bool* first) {
  if (!*first) out += ", ";
  *first = false;
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(value);
}

}  // namespace

namespace internal {

/// Per-tenant telemetry handles, resolved once at AddTenant.
struct TenantMetrics {
  telemetry::Counter* admitted_bytes = nullptr;
  telemetry::Counter* rejected_bytes = nullptr;
  telemetry::Counter* memo_hits = nullptr;
  telemetry::Gauge* inflight = nullptr;
};

/// One compress-result memo entry. The full input is retained as the real
/// key: a hit requires byte equality, so a 64-bit hash collision degrades
/// to a miss instead of serving another payload's stream.
struct MemoEntry {
  Bytes input;
  Bytes stream;
  std::uint64_t last_used = 0;
};

struct Tenant {
  Tenant(TenantConfig cfg, PrimacyOptions codec, std::uint64_t now_ns)
      : config(std::move(cfg)),
        decompressor(std::move(codec)),
        bucket(config.quota_bytes_per_sec, config.quota_burst_bytes, now_ns) {}

  const TenantConfig config;
  /// Serves every decompress request of this tenant, through its private
  /// decoded-block cache partition (decompressor.cache(); null when the
  /// tenant has no cache share). Decode is const, so batch slots share it.
  const PrimacyDecompressor decompressor;
  // bucket, inflight, cancel_epoch, and stats are guarded by the OWNING
  // SERVICE's mu_, not a tenant-local lock — admission decisions read
  // several tenants' state under one critical section. The analysis cannot
  // express a guard living in another object (GUARDED_BY needs a member or
  // global expression), so the contract is documented here and every access
  // in service.cc sits inside a CompressionService mu_ section.
  TokenBucket bucket;
  std::size_t inflight = 0;
  /// Bumped by DrainTenant; a request whose admission epoch is older
  /// resolves kCancelled instead of executing.
  std::uint64_t cancel_epoch = 0;
  TenantStatsSnapshot stats;
  TenantMetrics metrics;

  /// Compress-result memo (TenantConfig::memo_bytes). Guarded by its own
  /// mutex because batch workers consult it while holding no service locks;
  /// eviction is an O(n) oldest-scan, fine at hot-working-set sizes.
  /// Lock order: the service's mu_ may be held when taking memo_mu
  /// (TenantStats), never the reverse.
  primacy::Mutex memo_mu;
  std::unordered_map<std::uint64_t, MemoEntry> memo
      PRIMACY_GUARDED_BY(memo_mu);
  std::uint64_t memo_tick PRIMACY_GUARDED_BY(memo_mu) = 0;
  std::size_t memo_bytes_used PRIMACY_GUARDED_BY(memo_mu) = 0;
  std::uint64_t memo_hits PRIMACY_GUARDED_BY(memo_mu) = 0;

  bool MemoLookup(ByteSpan payload, Bytes& stream_out)
      PRIMACY_EXCLUDES(memo_mu) {
    if (config.memo_bytes == 0) return false;
    const std::uint64_t key = Xxh64(payload);
    primacy::MutexLock lock(memo_mu);
    const auto it = memo.find(key);
    if (it == memo.end() || it->second.input.size() != payload.size() ||
        !std::equal(payload.begin(), payload.end(),
                    it->second.input.begin())) {
      return false;
    }
    it->second.last_used = ++memo_tick;
    ++memo_hits;
    metrics.memo_hits->Increment();
    stream_out = it->second.stream;
    return true;
  }

  void MemoInsert(ByteSpan payload, const Bytes& stream)
      PRIMACY_EXCLUDES(memo_mu) {
    if (config.memo_bytes == 0) return;
    const std::size_t charge = payload.size() + stream.size() + 64;
    if (charge > config.memo_bytes) return;  // would never fit
    const std::uint64_t key = Xxh64(payload);
    primacy::MutexLock lock(memo_mu);
    const auto it = memo.find(key);
    if (it != memo.end()) {
      // Same hash: refresh (same payload) or replace (collision) in place.
      memo_bytes_used -= it->second.input.size() + it->second.stream.size() + 64;
      memo.erase(it);
    }
    while (memo_bytes_used + charge > config.memo_bytes && !memo.empty()) {
      auto oldest = memo.begin();
      for (auto cur = memo.begin(); cur != memo.end(); ++cur) {
        if (cur->second.last_used < oldest->second.last_used) oldest = cur;
      }
      memo_bytes_used -=
          oldest->second.input.size() + oldest->second.stream.size() + 64;
      memo.erase(oldest);
    }
    MemoEntry entry;
    entry.input = ToBytes(payload);
    entry.stream = stream;
    entry.last_used = ++memo_tick;
    memo.emplace(key, std::move(entry));
    memo_bytes_used += charge;
  }
};

}  // namespace internal

// --- CompressionService ----------------------------------------------------

CompressionService::CompressionService(ServiceOptions options)
    : options_(WithSerialCodec(std::move(options))),
      clock_(options_.clock != nullptr ? options_.clock
                                       : &SystemServiceClock::Instance()),
      compressor_(options_.codec) {
  clock_->RegisterWaiter(&mu_, &cv_);
  queue_ = std::make_unique<BatchQueue>(
      options_.batch, clock_,
      [this](BatchQueue::Batch&& batch) { DispatchBatch(std::move(batch)); });
}

CompressionService::~CompressionService() {
  {
    primacy::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();  // blocked submitters resolve kShuttingDown
  queue_->Stop();   // flush pending items; late pushes self-dispatch
  {
    primacy::MutexLock lock(mu_);
    while (outstanding_batches_ != 0 || active_submitters_ != 0) {
      cv_.Wait(mu_);
    }
  }
  clock_->UnregisterWaiter(&cv_);
}

void CompressionService::AddTenant(const TenantConfig& config) {
  if (!ValidTenantName(config.name)) {
    throw InvalidArgumentError(
        "CompressionService: tenant name must match [A-Za-z0-9_.-]+ (it is "
        "rendered into telemetry labels): '" +
        config.name + "'");
  }
  if (config.cache_share < 0.0 || config.cache_share > 1.0) {
    throw InvalidArgumentError(
        "CompressionService: cache_share must be in [0, 1]");
  }
  primacy::MutexLock lock(mu_);
  if (tenants_.contains(config.name)) {
    throw InvalidArgumentError("CompressionService: duplicate tenant '" +
                               config.name + "'");
  }
  double total_share = config.cache_share;
  for (const auto& [name, tenant] : tenants_) {
    total_share += tenant->config.cache_share;
  }
  if (total_share > 1.0 + 1e-9) {
    throw InvalidArgumentError(
        "CompressionService: tenant cache shares exceed the cache budget "
        "(sum > 1)");
  }
  PrimacyOptions codec = options_.codec;
  const std::size_t partition_bytes = static_cast<std::size_t>(
      config.cache_share * static_cast<double>(options_.cache_capacity_bytes));
  if (partition_bytes > 0) {
    codec.block_cache = std::make_shared<DecodedBlockCache>(
        partition_bytes, kTenantCacheShards);
  }
  auto tenant = std::make_unique<internal::Tenant>(config, std::move(codec),
                                                   clock_->NowNs());
  auto& registry = telemetry::MetricsRegistry::Global();
  const std::string label = "tenant=\"" + config.name + "\"";
  tenant->metrics.admitted_bytes =
      &registry.GetCounter("primacy_service_admitted_bytes_total", label);
  tenant->metrics.rejected_bytes =
      &registry.GetCounter("primacy_service_rejected_bytes_total", label);
  tenant->metrics.memo_hits =
      &registry.GetCounter("primacy_service_memo_hits_total", label);
  tenant->metrics.inflight =
      &registry.GetGauge("primacy_service_inflight", label);
  tenants_.emplace(config.name, std::move(tenant));
}

std::future<ServiceResponse> CompressionService::SubmitCompress(
    std::string_view tenant, Bytes payload) {
  return Submit(RequestType::kCompress, tenant, std::move(payload));
}

std::future<ServiceResponse> CompressionService::SubmitDecompress(
    std::string_view tenant, Bytes stream) {
  return Submit(RequestType::kDecompress, tenant, std::move(stream));
}

std::future<ServiceResponse> CompressionService::SubmitDecompressRange(
    std::string_view tenant, Bytes stream, std::uint64_t first_element,
    std::uint64_t element_count) {
  return Submit(RequestType::kDecompressRange, tenant, std::move(stream),
                first_element, element_count);
}

std::size_t CompressionService::DrainTenant(std::string_view tenant_name) {
  internal::Tenant& tenant = FindTenant(tenant_name);
  std::size_t inflight = 0;
  {
    primacy::MutexLock lock(mu_);
    ++tenant.cancel_epoch;
    inflight = tenant.inflight;
  }
  // Flush so the cancellations resolve promptly instead of waiting for the
  // batch timeout.
  queue_->Drain();
  return inflight;
}

void CompressionService::Flush() { queue_->Drain(); }

ServiceStatsSnapshot CompressionService::Stats() const {
  ServiceStatsSnapshot snapshot;
  {
    primacy::MutexLock lock(mu_);
    snapshot = stats_;
  }
  snapshot.batch = queue_->stats();
  return snapshot;
}

TenantStatsSnapshot CompressionService::TenantStats(
    std::string_view tenant_name) const {
  internal::Tenant& tenant = FindTenant(tenant_name);
  primacy::MutexLock lock(mu_);
  // Refresh the bucket so the snapshot reflects time that has passed since
  // the last admission attempt (logical constness: accounting only).
  tenant.bucket.Refill(clock_->NowNs());
  TenantStatsSnapshot snapshot = tenant.stats;
  snapshot.inflight = tenant.inflight;
  snapshot.quota_available_bytes =
      tenant.bucket.unlimited() ? ~std::uint64_t{0} : tenant.bucket.available();
  if (tenant.decompressor.cache() != nullptr) {
    const CacheStatsSnapshot cache = tenant.decompressor.cache()->Stats();
    snapshot.cache_hits = cache.hits;
    snapshot.cache_misses = cache.misses;
  }
  {
    primacy::MutexLock memo_lock(tenant.memo_mu);
    snapshot.memo_hits = tenant.memo_hits;
    snapshot.memo_bytes_used = tenant.memo_bytes_used;
  }
  return snapshot;
}

std::vector<SlowRequestEvent> CompressionService::SlowRequests() const {
  primacy::MutexLock lock(mu_);
  return {slow_requests_.begin(), slow_requests_.end()};
}

std::string CompressionService::StatusJson() const {
  std::vector<std::string> names;
  std::vector<SlowRequestEvent> slow;
  {
    primacy::MutexLock lock(mu_);
    names.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) names.push_back(name);
    slow.assign(slow_requests_.begin(), slow_requests_.end());
  }
  std::sort(names.begin(), names.end());

  std::string out = "{\"tenants\": {";
  bool first_tenant = true;
  for (const std::string& name : names) {
    // Tenant snapshots are taken one at a time (TenantStats re-locks): the
    // document is per-tenant consistent, which is all a status page needs.
    const TenantStatsSnapshot stats = TenantStats(name);
    if (!first_tenant) out += ", ";
    first_tenant = false;
    out += '"';
    out += name;  // validated [A-Za-z0-9_.-]+, no JSON escaping needed
    out += "\": {";
    bool first = true;
    AppendJsonField(out, "admitted_requests", stats.admitted_requests, &first);
    AppendJsonField(out, "admitted_bytes", stats.admitted_bytes, &first);
    AppendJsonField(out, "rejected_quota", stats.rejected_quota, &first);
    AppendJsonField(out, "rejected_inflight", stats.rejected_inflight, &first);
    AppendJsonField(out, "completed", stats.completed, &first);
    AppendJsonField(out, "cancelled", stats.cancelled, &first);
    AppendJsonField(out, "failed", stats.failed, &first);
    AppendJsonField(out, "inflight", stats.inflight, &first);
    if (stats.quota_available_bytes != ~std::uint64_t{0}) {
      AppendJsonField(out, "quota_available_bytes",
                      stats.quota_available_bytes, &first);
    }
    AppendJsonField(out, "cache_hits", stats.cache_hits, &first);
    AppendJsonField(out, "cache_misses", stats.cache_misses, &first);
    AppendJsonField(out, "memo_hits", stats.memo_hits, &first);
    AppendJsonField(out, "memo_bytes_used", stats.memo_bytes_used, &first);
    out += '}';
  }
  out += "}, ";
  out += "\"queue_depth\": ";
  out += std::to_string(queue_->Depth());
  out += ", \"slow_requests\": [";
  bool first_event = true;
  for (const SlowRequestEvent& event : slow) {
    if (!first_event) out += ", ";
    first_event = false;
    out += "{\"tenant\": \"";
    out += event.tenant;
    out += "\", \"type\": \"";
    out += event.type;
    out += "\", \"result\": \"";
    out += ResultLabel(event.status);
    out += "\", ";
    bool first = true;
    AppendJsonField(out, "bytes", event.bytes, &first);
    AppendJsonField(out, "admit_ns", event.admit_ns, &first);
    AppendJsonField(out, "latency_ns", event.latency_ns, &first);
    AppendJsonField(out, "slo_ns", event.slo_ns, &first);
    AppendJsonField(out, "queue_depth", event.queue_depth, &first);
    AppendJsonField(out, "tenant_inflight", event.tenant_inflight, &first);
    out += '}';
  }
  out += "]}";
  return out;
}

internal::Tenant& CompressionService::FindTenant(
    std::string_view name) const {
  primacy::MutexLock lock(mu_);
  const auto it = tenants_.find(std::string(name));
  if (it == tenants_.end()) {
    throw InvalidArgumentError("CompressionService: unknown tenant '" +
                               std::string(name) + "'");
  }
  return *it->second;
}

std::future<ServiceResponse> CompressionService::Submit(
    RequestType type, std::string_view tenant_name, Bytes payload,
    std::uint64_t first_element, std::uint64_t element_count) {
  internal::Tenant& tenant = FindTenant(tenant_name);
  auto promise = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> future = promise->get_future();
  const std::size_t bytes = payload.size();
  auto& registry = telemetry::MetricsRegistry::Global();
  const auto resolve_now = [&](ServiceStatus status,
                               std::uint64_t retry_after_ns) {
    registry
        .GetCounter("primacy_service_requests_total",
                    "tenant=\"" + tenant.config.name + "\",result=\"" +
                        ResultLabel(status) + "\"")
        .Increment();
    if (const char* reason = RejectReason(status)) {
      registry
          .GetCounter("primacy_service_rejections_total",
                      "tenant=\"" + tenant.config.name + "\",reason=\"" +
                          reason + "\"")
          .Increment();
    }
    ServiceResponse response;
    response.status = status;
    response.retry_after_ns = retry_after_ns;
    promise->set_value(std::move(response));
    return std::move(future);
  };

  // The destructor must not tear the service down under a submitter that is
  // blocked (or mid-resolve) inside this function: it drains this count
  // after waking everyone, so every early-return path below finishes with
  // the service's members still alive.
  {
    primacy::MutexLock lock(mu_);
    ++active_submitters_;
  }
  struct SubmitterGuard {
    CompressionService* service;
    ~SubmitterGuard() {
      // Notify under the lock: the destructor waiting in cv_.Wait cannot
      // observe the decremented count and tear cv_ down until we release
      // mu_, which happens after the notify.
      primacy::MutexLock lock(service->mu_);
      --service->active_submitters_;
      service->cv_.NotifyAll();
    }
  } submitter_guard{this};

  std::uint64_t admit_epoch = 0;
  std::uint64_t admit_ns = 0;
  // Manual Lock/Unlock (not a scoped MutexLock): the loop has three
  // distinct exits — reject paths that must resolve the promise outside
  // the lock, blocking waits that release it inside WaitUntil, and the
  // admission fallthrough — and the analysis tracks the capability through
  // each branch. Nothing in the locked region throws (bucket arithmetic,
  // integer stats, atomic counters).
  mu_.Lock();
  for (;;) {
    if (stopping_) {
      mu_.Unlock();
      return resolve_now(ServiceStatus::kShuttingDown, 0);
    }
    tenant.bucket.Refill(clock_->NowNs());
    if (tenant.config.max_inflight != 0 &&
        tenant.inflight >= tenant.config.max_inflight) {
      if (tenant.config.on_pressure == BackpressurePolicy::kReject) {
        ++tenant.stats.rejected_inflight;
        tenant.stats.rejected_bytes += bytes;
        ++stats_.rejected_inflight;
        stats_.rejected_bytes += bytes;
        tenant.metrics.rejected_bytes->Increment(bytes);
        mu_.Unlock();
        return resolve_now(ServiceStatus::kRejectedInflight,
                           InflightRetryHintNs(options_.batch));
      }
      // kBlock: capacity frees on a completion, which notifies cv_.
      clock_->WaitUntil(mu_, cv_, kNoDeadlineNs);
      continue;
    }
    if (!tenant.bucket.TryCharge(bytes)) {
      const std::uint64_t retry = tenant.bucket.RetryAfterNs(bytes);
      const bool oversized =
          !tenant.bucket.unlimited() && bytes > tenant.bucket.burst();
      if (tenant.config.on_pressure == BackpressurePolicy::kReject ||
          oversized) {
        // Oversized requests (payload > burst) can never be admitted, so
        // they reject under both policies rather than blocking forever.
        ++tenant.stats.rejected_quota;
        tenant.stats.rejected_bytes += bytes;
        ++stats_.rejected_quota;
        stats_.rejected_bytes += bytes;
        tenant.metrics.rejected_bytes->Increment(bytes);
        mu_.Unlock();
        return resolve_now(ServiceStatus::kRejectedQuota, retry);
      }
      clock_->WaitUntil(mu_, cv_, clock_->NowNs() + retry);
      continue;
    }
    break;
  }
  admit_epoch = tenant.cancel_epoch;
  admit_ns = clock_->NowNs();
  ++tenant.inflight;
  ++tenant.stats.admitted_requests;
  tenant.stats.admitted_bytes += bytes;
  ++stats_.admitted_requests;
  stats_.admitted_bytes += bytes;
  mu_.Unlock();
  tenant.metrics.admitted_bytes->Increment(bytes);
  tenant.metrics.inflight->Add(1);
  registry.GetGauge("primacy_service_queue_depth").Add(1);
  registry.GetGauge("primacy_service_queue_bytes")
      .Add(static_cast<std::int64_t>(bytes));

  queue_->Push(bytes, [this, &tenant, admit_epoch, admit_ns, type,
                       first_element, element_count,
                       payload = std::move(payload),
                       promise]() mutable {
    ServiceResponse response;
    bool cancelled = false;
    {
      primacy::MutexLock lock(mu_);
      cancelled = tenant.cancel_epoch != admit_epoch;
    }
    if (cancelled) {
      response.status = ServiceStatus::kCancelled;
    } else {
      try {
        if (type == RequestType::kCompress) {
          if (!tenant.MemoLookup(payload, response.payload)) {
            response.payload = compressor_.CompressBytes(payload);
            tenant.MemoInsert(payload, response.payload);
          }
        } else if (type == RequestType::kDecompressRange) {
          response.payload = tenant.decompressor.DecompressBytesRange(
              payload, first_element, element_count);
        } else {
          response.payload = tenant.decompressor.DecompressBytes(payload);
        }
        response.status = ServiceStatus::kOk;
      } catch (const std::exception& e) {
        response.status = ServiceStatus::kError;
        response.error = e.what();
      }
    }
    const std::uint64_t latency_ns = clock_->NowNs() - admit_ns;
    const bool slow = options_.slow_request_slo_ns != 0 &&
                      latency_ns > options_.slow_request_slo_ns;
    // Queue depth is read before mu_: BatchQueue has its own lock and is
    // never acquired while holding the service mutex.
    const std::size_t queue_depth = slow ? queue_->Depth() : 0;
    {
      primacy::MutexLock lock(mu_);
      --tenant.inflight;
      switch (response.status) {
        case ServiceStatus::kOk:
          ++tenant.stats.completed;
          ++stats_.completed;
          break;
        case ServiceStatus::kCancelled:
          ++tenant.stats.cancelled;
          ++stats_.cancelled;
          break;
        default:
          ++tenant.stats.failed;
          ++stats_.failed;
          break;
      }
      if (slow) {
        SlowRequestEvent event;
        event.tenant = tenant.config.name;
        event.type = type == RequestType::kCompress        ? "compress"
                     : type == RequestType::kDecompressRange
                         ? "decompress_range"
                         : "decompress";
        event.status = response.status;
        event.bytes = payload.size();
        event.admit_ns = admit_ns;
        event.latency_ns = latency_ns;
        event.slo_ns = options_.slow_request_slo_ns;
        event.queue_depth = queue_depth;
        event.tenant_inflight = tenant.inflight;
        slow_requests_.push_back(std::move(event));
        while (slow_requests_.size() > options_.slow_request_log_capacity) {
          slow_requests_.pop_front();
        }
      }
    }
    cv_.NotifyAll();  // completions free in-flight capacity
    tenant.metrics.inflight->Add(-1);
    auto& reg = telemetry::MetricsRegistry::Global();
    reg.GetCounter("primacy_service_requests_total",
                   "tenant=\"" + tenant.config.name + "\",result=\"" +
                       ResultLabel(response.status) + "\"")
        .Increment();
    reg.GetHistogram("primacy_service_batch_latency_seconds",
                     kLatencySecondsBounds)
        .Observe(static_cast<double>(latency_ns) * 1e-9);
    if (slow) {
      reg.GetCounter("primacy_slow_requests_total",
                     "tenant=\"" + tenant.config.name + "\"")
          .Increment();
      // Instant marker in the trace so the SLO breach is visible next to
      // the spans that caused it.
      telemetry::TraceSpan slow_span("primacy.slow_request", "latency_ns",
                                     latency_ns);
    }
    promise->set_value(std::move(response));
  });
  return future;
}

void CompressionService::DispatchBatch(BatchQueue::Batch&& batch) {
  if (batch.items.empty()) return;
  auto& registry = telemetry::MetricsRegistry::Global();
  const char* trigger = "drain";
  switch (batch.trigger) {
    case FlushTrigger::kSize: trigger = "size"; break;
    case FlushTrigger::kCount: trigger = "count"; break;
    case FlushTrigger::kTimeout: trigger = "timeout"; break;
    case FlushTrigger::kDrain: trigger = "drain"; break;
  }
  registry
      .GetCounter("primacy_service_batches_total",
                  std::string("trigger=\"") + trigger + "\"")
      .Increment();
  registry.GetCounter("primacy_service_batch_items_total")
      .Increment(batch.items.size());
  registry.GetGauge("primacy_service_queue_depth")
      .Add(-static_cast<std::int64_t>(batch.items.size()));
  registry.GetGauge("primacy_service_queue_bytes")
      .Add(-static_cast<std::int64_t>(batch.bytes));
  double fill = 1.0;
  if (options_.batch.flush_requests != 0 || options_.batch.flush_bytes != 0) {
    const double by_count =
        options_.batch.flush_requests == 0
            ? 0.0
            : static_cast<double>(batch.items.size()) /
                  static_cast<double>(options_.batch.flush_requests);
    const double by_bytes =
        options_.batch.flush_bytes == 0
            ? 0.0
            : static_cast<double>(batch.bytes) /
                  static_cast<double>(options_.batch.flush_bytes);
    fill = std::min(1.0, std::max(by_count, by_bytes));
  }
  registry.GetHistogram("primacy_service_batch_fill_ratio", kFillRatioBounds)
      .Observe(fill);

  {
    primacy::MutexLock lock(mu_);
    ++outstanding_batches_;
  }
  auto shared = std::make_shared<BatchQueue::Batch>(std::move(batch));
  SharedThreadPool().Submit([this, shared] {
    try {
      ExecuteBatch(*shared);
    } catch (...) {
      // Item work never throws (it catches codec errors into the response);
      // anything surfacing here is resource exhaustion mid-batch. The
      // outstanding count must still drop or the destructor deadlocks.
    }
    {
      primacy::MutexLock lock(mu_);
      --outstanding_batches_;
      // Notify while still holding mu_: the destructor destroys cv_ the
      // moment it observes outstanding_batches_ == 0, and it can only
      // observe that after this lock drops — so the notify is guaranteed
      // to finish on a live condition variable.
      cv_.NotifyAll();
    }
  });
}

void CompressionService::ExecuteBatch(BatchQueue::Batch& batch) {
  // Items run in parallel across every pool worker plus the caller; a
  // one-item batch runs on the caller. Items share no state: each compress
  // builds its encoder in CompressBytes, over the compressor's one solver.
  SharedThreadPool().ParallelForSlots(
      batch.items.size(), 0,
      [&](std::size_t, std::size_t i) { batch.items[i].work(); });
}

}  // namespace primacy::service
