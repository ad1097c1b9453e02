// Sharded decoded-chunk cache for the PRIMACY read path.
//
// The read path re-pays full chunk decode (ID-unmap + solver + ISOBAR merge)
// on every call; serving-style workloads are dominated by repeated
// overlapping range reads over the same hot variables, where that work is
// pure waste. DecodedBlockCache keeps recently decoded chunk bytes keyed by
// (stream identity, chunk index) so a second read of the same chunk is a
// memcpy instead of a decompression.
//
// Concurrency model: the key space is split across N shards, each guarded
// by its own mutex — concurrent readers on different shards never contend.
// Within a shard, entries form an LRU list under a byte budget
// (capacity_bytes / shard_count). A Lookup pins its entry (refcount under
// the shard lock) and returns an RAII Handle; eviction skips pinned
// entries, so a reader's view can never be freed underneath it. If every
// entry in a shard is pinned the shard temporarily overshoots its budget
// rather than blocking — eviction is deferred, never forced.
//
// Callers build one instance and pass it as PrimacyOptions::block_cache;
// a null block_cache decodes everything. All mutation goes through
// Lookup/Insert; the shard internals are private to this module (enforced
// by the `cache-containment` lint rule).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/bytes.h"

namespace primacy {

namespace internal {
struct CacheShard;  // mutex + map + LRU list (block_cache.cc)
struct CacheEntry;  // one decoded chunk + pin count (block_cache.cc)
}  // namespace internal

/// Counters snapshot from DecodedBlockCache::Stats. Maintained under the
/// shard locks, so the snapshot is exact (the registry series are relaxed
/// atomics).
struct CacheStatsSnapshot {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Inserts rejected because the entry alone exceeds a shard's budget (or
  /// the budget is zero).
  std::uint64_t rejected = 0;
  std::size_t bytes = 0;    // decoded bytes currently resident
  std::size_t entries = 0;  // chunks currently resident

  double HitRatio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class DecodedBlockCache {
 public:
  /// RAII pin over one cached chunk. The entry cannot be evicted while a
  /// Handle references it; data() stays valid for the handle's lifetime.
  /// Handles are short-lived (the span of one memcpy) and must not outlive
  /// the cache they came from.
  class Handle {
   public:
    Handle() = default;
    ~Handle() { Release(); }
    Handle(Handle&& other) noexcept
        : shard_(other.shard_), entry_(other.entry_) {
      other.shard_ = nullptr;
      other.entry_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Release();
        shard_ = other.shard_;
        entry_ = other.entry_;
        other.shard_ = nullptr;
        other.entry_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    /// True for a hit (the handle references a pinned entry).
    explicit operator bool() const { return entry_ != nullptr; }

    /// The cached decoded chunk bytes; valid only while the handle lives.
    ByteSpan data() const;

   private:
    friend class DecodedBlockCache;
    Handle(internal::CacheShard* shard, internal::CacheEntry* entry)
        : shard_(shard), entry_(entry) {}
    void Release();

    internal::CacheShard* shard_ = nullptr;
    internal::CacheEntry* entry_ = nullptr;
  };

  /// `capacity_bytes` is the decoded-byte budget across all shards (0
  /// behaves like a passthrough: every Lookup misses, every Insert is
  /// rejected). `shard_count` independently locked shards (clamped to >= 1):
  /// more shards mean less contention and slightly worse LRU fidelity, as
  /// eviction is per shard.
  explicit DecodedBlockCache(std::size_t capacity_bytes,
                             std::size_t shard_count = 8);
  ~DecodedBlockCache();

  DecodedBlockCache(const DecodedBlockCache&) = delete;
  DecodedBlockCache& operator=(const DecodedBlockCache&) = delete;

  /// Pins and returns the entry for (stream_id, chunk_index), bumping it to
  /// most-recently-used; an empty Handle on miss.
  Handle Lookup(std::uint64_t stream_id, std::uint64_t chunk_index);

  /// Caches `data` as the decoded bytes of (stream_id, chunk_index),
  /// evicting LRU unpinned entries from the target shard until it fits.
  /// Returns false when rejected: the key is already resident (first write
  /// wins — the bytes are identical by construction) or the entry alone
  /// exceeds the shard budget.
  bool Insert(std::uint64_t stream_id, std::uint64_t chunk_index, Bytes data);

  /// True when the key is resident, without pinning or touching LRU order.
  bool Contains(std::uint64_t stream_id, std::uint64_t chunk_index) const;

  CacheStatsSnapshot Stats() const;

 private:
  internal::CacheShard& ShardFor(std::uint64_t stream_id,
                                 std::uint64_t chunk_index) const;

  std::size_t shard_budget_ = 0;  // capacity_bytes / shard count
  std::vector<std::unique_ptr<internal::CacheShard>> shards_;
};

}  // namespace primacy
