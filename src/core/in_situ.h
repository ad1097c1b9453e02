// In-situ parallel compression driver: compresses a large double array as
// independent shards across a thread pool, the way each compute node runs
// PRIMACY on its own data while the simulation is resident in memory
// (paper Sections I and II-A). Shards are self-contained PRIMACY streams,
// so decompression can also proceed shard-parallel.
#pragma once

#include <vector>

#include "core/primacy_codec.h"
#include "util/thread_pool.h"

namespace primacy {

struct InSituResult {
  /// One self-contained PRIMACY stream per shard, in input order.
  std::vector<Bytes> shards;
  PrimacyStats totals;

  std::size_t TotalCompressedBytes() const;
};

struct InSituOptions {
  /// Decode-side note: primacy.block_cache is the decoded-block cache every
  /// shard task of every decompress call reads through.
  PrimacyOptions primacy;
  /// Elements per shard; defaults to four chunks' worth.
  std::size_t shard_elements = 4 * (3 * 1024 * 1024 / 8);
  std::size_t threads = 0;  // 0 = hardware concurrency
};

/// Shard-parallel decompression output: the restored array plus aggregated
/// per-shard decode accounting (chunks decoded, index loads, ...).
struct InSituDecodeResult {
  std::vector<double> values;
  PrimacyDecodeStats totals;
};

/// Compresses `values` shard-parallel.
InSituResult InSituCompress(std::span<const double> values,
                            const InSituOptions& options = {});

/// Decompresses shards (in order) back into one array. Shards decode in
/// parallel on the shared pool (`options.threads`; 0 = hardware
/// concurrency, matching InSituCompress).
std::vector<double> InSituDecompress(const std::vector<Bytes>& shards,
                                     const InSituOptions& options = {});

/// As InSituDecompress, but also returns the decode stats summed across
/// shards instead of dropping them.
InSituDecodeResult InSituDecompressWithStats(const std::vector<Bytes>& shards,
                                             const InSituOptions& options = {});

/// Partial restore: decodes elements [first_element, first_element + count)
/// of the sharded array, touching only the shards — and within each shard,
/// via PrimacyDecompressor::DecompressRange, only the chunks — that cover
/// the range. Shards must be v2+ (one-shot or streamed) or stored streams
/// of doubles; a v1 shard throws InvalidArgumentError.
InSituDecodeResult InSituDecompressRange(const std::vector<Bytes>& shards,
                                         std::uint64_t first_element,
                                         std::uint64_t count,
                                         const InSituOptions& options = {});

}  // namespace primacy
