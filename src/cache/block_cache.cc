#include "cache/block_cache.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "telemetry/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace primacy {
namespace internal {
namespace {

/// Per-shard-index telemetry series, resolved once per index and shared by
/// every cache instance in the process (series aggregate across caches —
/// the gauge is updated with deltas, never Set). Same leaked-instance idiom
/// as PoolMetrics::Get: registry references must outlive every cache.
struct CacheShardMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& evictions;
  telemetry::Gauge& bytes;

  static CacheShardMetrics* ForShard(std::size_t shard) {
    static std::mutex mutex;
    static std::unordered_map<std::size_t, CacheShardMetrics*>* instances =
        new std::unordered_map<std::size_t, CacheShardMetrics*>();
    std::lock_guard<std::mutex> lock(mutex);
    auto it = instances->find(shard);
    if (it != instances->end()) return it->second;
    const std::string labels = "shard=\"" + std::to_string(shard) + "\"";
    auto& registry = telemetry::MetricsRegistry::Global();
    auto* metrics = new CacheShardMetrics{
        registry.GetCounter("primacy_cache_hits_total", labels),
        registry.GetCounter("primacy_cache_misses_total", labels),
        registry.GetCounter("primacy_cache_evictions_total", labels),
        registry.GetGauge("primacy_cache_bytes", labels),
    };
    instances->emplace(shard, metrics);
    return metrics;
  }
};

/// Unlabeled cross-shard series: the hit-ratio gauge (percent, aggregated
/// over every cache in the process) and the fill/evict latency histograms.
struct CacheGlobalMetrics {
  telemetry::Gauge& hit_ratio_pct;
  telemetry::Histogram& fill_us;
  telemetry::Histogram& evict_us;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};

  static CacheGlobalMetrics& Get() {
    static constexpr std::array<double, 7> kLatencyBoundsUs = {
        10.0, 100.0, 1000.0, 10000.0, 100000.0, 1e6, 1e7};
    auto& registry = telemetry::MetricsRegistry::Global();
    static CacheGlobalMetrics* metrics = new CacheGlobalMetrics{
        registry.GetGauge("primacy_cache_hit_ratio_pct"),
        registry.GetHistogram("primacy_cache_fill_us", kLatencyBoundsUs),
        registry.GetHistogram("primacy_cache_evict_us", kLatencyBoundsUs),
    };
    return *metrics;
  }

  void RecordLookup(bool hit) {
    const std::uint64_t h =
        hits.fetch_add(hit ? 1 : 0, std::memory_order_relaxed) + (hit ? 1 : 0);
    const std::uint64_t m =
        misses.fetch_add(hit ? 0 : 1, std::memory_order_relaxed) +
        (hit ? 0 : 1);
    hit_ratio_pct.Set(
        static_cast<std::int64_t>((100 * h) / (h + m)));  // h + m >= 1
  }
};

/// 64-bit mix (splitmix64 finalizer) — drives both shard selection and the
/// in-shard hash table so neither degrades on sequential chunk indexes.
std::uint64_t MixKey(std::uint64_t stream_id, std::uint64_t chunk_index) {
  std::uint64_t x = stream_id ^ (chunk_index * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

struct CacheKey {
  std::uint64_t stream_id = 0;
  std::uint64_t chunk_index = 0;

  bool operator==(const CacheKey& other) const {
    return stream_id == other.stream_id && chunk_index == other.chunk_index;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(MixKey(key.stream_id, key.chunk_index));
  }
};

}  // namespace

struct CacheEntry {
  std::uint64_t stream_id = 0;
  std::uint64_t chunk_index = 0;
  Bytes data;
  /// Outstanding Handles; guarded by the OWNING SHARD's mutex (a cross-
  /// object guard the analysis cannot express — entries live inside the
  /// shard's list, so every access already sits in a shard.mutex section).
  /// A pinned entry is never evicted (and std::list nodes never move), so
  /// Handle::data() stays valid without holding the lock.
  std::uint32_t pins = 0;
};

struct CacheShard {
  mutable primacy::Mutex mutex;
  /// front = most recently used. Erasure skips pinned entries.
  std::list<CacheEntry> lru PRIMACY_GUARDED_BY(mutex);
  std::unordered_map<CacheKey, std::list<CacheEntry>::iterator, CacheKeyHash>
      index PRIMACY_GUARDED_BY(mutex);
  std::size_t bytes PRIMACY_GUARDED_BY(mutex) = 0;
  CacheStatsSnapshot stats PRIMACY_GUARDED_BY(mutex);
  // Resolved once at construction, then immutable (null when telemetry is
  // off); the Counter/Gauge sinks themselves are atomics.
  CacheShardMetrics* metrics = nullptr;
};

}  // namespace internal

ByteSpan DecodedBlockCache::Handle::data() const { return entry_->data; }

void DecodedBlockCache::Handle::Release() {
  if (entry_ == nullptr) return;
  primacy::MutexLock lock(shard_->mutex);
  --entry_->pins;
  entry_ = nullptr;
  shard_ = nullptr;
}

DecodedBlockCache::DecodedBlockCache(std::size_t capacity_bytes,
                                     std::size_t shard_count) {
  shard_count = std::max<std::size_t>(shard_count, 1);
  shard_budget_ = capacity_bytes / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<internal::CacheShard>();
    shard->metrics = internal::CacheShardMetrics::ForShard(i);
    shards_.push_back(std::move(shard));
  }
}

DecodedBlockCache::~DecodedBlockCache() {
  // The registry gauge outlives this cache; give back this instance's
  // resident bytes so concurrent caches keep aggregating correctly.
  for (const auto& shard : shards_) {
    primacy::MutexLock lock(shard->mutex);
    shard->metrics->bytes.Add(-static_cast<std::int64_t>(shard->bytes));
  }
}

internal::CacheShard& DecodedBlockCache::ShardFor(
    std::uint64_t stream_id, std::uint64_t chunk_index) const {
  // Upper bits: the table hash below uses the same mix, and unordered_map
  // implementations commonly reduce by modulus over the low bits.
  const std::uint64_t mixed = internal::MixKey(stream_id, chunk_index);
  return *shards_[static_cast<std::size_t>(mixed >> 32) % shards_.size()];
}

DecodedBlockCache::Handle DecodedBlockCache::Lookup(std::uint64_t stream_id,
                                                    std::uint64_t chunk_index) {
  internal::CacheShard& shard = ShardFor(stream_id, chunk_index);
  primacy::MutexLock lock(shard.mutex);
  const auto it = shard.index.find({stream_id, chunk_index});
  const bool hit = it != shard.index.end();
  (hit ? shard.metrics->hits : shard.metrics->misses).Increment();
  internal::CacheGlobalMetrics::Get().RecordLookup(hit);
  if (!hit) {
    ++shard.stats.misses;
    return Handle();
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++it->second->pins;
  return Handle(&shard, &*it->second);
}

bool DecodedBlockCache::Insert(std::uint64_t stream_id,
                               std::uint64_t chunk_index, Bytes data) {
  internal::CacheShard& shard = ShardFor(stream_id, chunk_index);
  WallTimer fill_timer;
  primacy::MutexLock lock(shard.mutex);
  if (data.size() > shard_budget_ ||
      shard.index.count({stream_id, chunk_index}) != 0) {
    ++shard.stats.rejected;
    return false;
  }
  // Make room BEFORE linking the new entry so it can never be the eviction
  // victim. If every resident entry is pinned the shard overshoots its
  // budget instead of blocking (eviction defers until the pins drop).
  const std::size_t target = shard_budget_ - data.size();
  if (shard.bytes > target) {
    WallTimer evict_timer;
    auto it = shard.lru.end();
    while (shard.bytes > target && it != shard.lru.begin()) {
      --it;
      if (it->pins > 0) continue;
      shard.bytes -= it->data.size();
      shard.metrics->evictions.Increment();
      shard.metrics->bytes.Add(-static_cast<std::int64_t>(it->data.size()));
      ++shard.stats.evictions;
      shard.index.erase({it->stream_id, it->chunk_index});
      it = shard.lru.erase(it);
    }
    internal::CacheGlobalMetrics::Get().evict_us.Observe(
        static_cast<double>(evict_timer.ElapsedNs()) / 1e3);
  }
  const std::size_t size = data.size();
  shard.lru.push_front(internal::CacheEntry{stream_id, chunk_index,
                                            std::move(data), /*pins=*/0});
  shard.index.emplace(internal::CacheKey{stream_id, chunk_index},
                      shard.lru.begin());
  shard.bytes += size;
  ++shard.stats.insertions;
  shard.metrics->bytes.Add(static_cast<std::int64_t>(size));
  internal::CacheGlobalMetrics::Get().fill_us.Observe(
      static_cast<double>(fill_timer.ElapsedNs()) / 1e3);
  return true;
}

bool DecodedBlockCache::Contains(std::uint64_t stream_id,
                                 std::uint64_t chunk_index) const {
  const internal::CacheShard& shard = ShardFor(stream_id, chunk_index);
  primacy::MutexLock lock(shard.mutex);
  return shard.index.count({stream_id, chunk_index}) != 0;
}

CacheStatsSnapshot DecodedBlockCache::Stats() const {
  CacheStatsSnapshot totals;
  for (const auto& shard : shards_) {
    primacy::MutexLock lock(shard->mutex);
    totals.hits += shard->stats.hits;
    totals.misses += shard->stats.misses;
    totals.insertions += shard->stats.insertions;
    totals.evictions += shard->stats.evictions;
    totals.rejected += shard->stats.rejected;
    totals.bytes += shard->bytes;
    totals.entries += shard->lru.size();
  }
  return totals;
}

}  // namespace primacy
