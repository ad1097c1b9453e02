#include "core/in_situ.h"

#include <algorithm>
#include <numeric>

#include "core/stream_format.h"
#include "telemetry/trace.h"
#include "util/error.h"

namespace primacy {
namespace {

/// Element count of a self-contained shard stream, read from its header or
/// directory without decoding any payload. Range reads need a directory (or
/// a stored payload), so a v1 shard is rejected here.
std::uint64_t ShardElements(ByteSpan shard) {
  const internal::OpenedStream opened =
      internal::OpenStream(shard, /*verify=*/false);
  if (!opened.directory && !opened.header.stored) {
    throw InvalidArgumentError(
        "InSituDecompressRange: v1 shard has no chunk directory");
  }
  CheckElementWidth(sizeof(double), opened.header.width);
  return opened.total_elements();
}

}  // namespace

std::size_t InSituResult::TotalCompressedBytes() const {
  return std::accumulate(
      shards.begin(), shards.end(), std::size_t{0},
      [](std::size_t sum, const Bytes& shard) { return sum + shard.size(); });
}

InSituResult InSituCompress(std::span<const double> values,
                            const InSituOptions& options) {
  if (options.shard_elements == 0) {
    throw InvalidArgumentError("InSituCompress: shard_elements must be > 0");
  }
  const std::size_t shard_count =
      values.empty() ? 0
                     : (values.size() + options.shard_elements - 1) /
                           options.shard_elements;

  InSituResult result;
  result.shards.resize(shard_count);
  std::vector<PrimacyStats> stats(shard_count);

  const PrimacyCompressor compressor(options.primacy);
  SharedThreadPool().ParallelForSlots(
      shard_count, options.threads, [&](std::size_t, std::size_t shard) {
        telemetry::TraceSpan span("primacy.insitu_compress_shard", "shard",
                                  static_cast<std::uint64_t>(shard));
        const std::size_t first = shard * options.shard_elements;
        const std::size_t count =
            std::min(options.shard_elements, values.size() - first);
        result.shards[shard] =
            compressor.Compress(values.subspan(first, count), &stats[shard]);
      });

  for (const PrimacyStats& s : stats) result.totals.Accumulate(s);
  return result;
}

InSituDecodeResult InSituDecompressWithStats(const std::vector<Bytes>& shards,
                                             const InSituOptions& options) {
  // Shard-parallel on the shared pool; each shard decodes serially inside
  // (the outer fan-out already saturates the requested concurrency).
  PrimacyOptions shard_options = options.primacy;
  shard_options.threads = 1;
  const PrimacyDecompressor decompressor(std::move(shard_options));
  std::vector<std::vector<double>> pieces(shards.size());
  std::vector<PrimacyDecodeStats> stats(shards.size());
  SharedThreadPool().ParallelForSlots(
      shards.size(), options.threads, [&](std::size_t, std::size_t shard) {
        telemetry::TraceSpan span("primacy.insitu_decode_shard", "shard",
                                  static_cast<std::uint64_t>(shard));
        pieces[shard] = decompressor.Decompress(shards[shard], &stats[shard]);
      });

  InSituDecodeResult result;
  std::size_t total = 0;
  for (const auto& piece : pieces) total += piece.size();
  result.values.reserve(total);
  for (const auto& piece : pieces) {
    result.values.insert(result.values.end(), piece.begin(), piece.end());
  }
  for (const PrimacyDecodeStats& s : stats) result.totals.Accumulate(s);
  return result;
}

std::vector<double> InSituDecompress(const std::vector<Bytes>& shards,
                                     const InSituOptions& options) {
  return InSituDecompressWithStats(shards, options).values;
}

InSituDecodeResult InSituDecompressRange(const std::vector<Bytes>& shards,
                                         std::uint64_t first_element,
                                         std::uint64_t count,
                                         const InSituOptions& options) {
  // Map the global element range onto shard-local ranges from the headers
  // alone, then range-read only the overlapping shards.
  std::vector<std::uint64_t> starts(shards.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    starts[i] = total;
    total += ShardElements(shards[i]);
  }
  if (first_element > total || count > total - first_element) {
    throw InvalidArgumentError("InSituDecompressRange: range out of bounds");
  }

  struct ShardRange {
    std::size_t shard;
    std::uint64_t local_first;
    std::uint64_t local_count;
    std::uint64_t result_offset;
  };
  std::vector<ShardRange> ranges;
  for (std::size_t i = 0; i < shards.size() && count > 0; ++i) {
    const std::uint64_t shard_end =
        i + 1 < shards.size() ? starts[i + 1] : total;
    const std::uint64_t overlap_first = std::max(starts[i], first_element);
    const std::uint64_t overlap_end =
        std::min(shard_end, first_element + count);
    if (overlap_first >= overlap_end) continue;
    ranges.push_back({i, overlap_first - starts[i],
                      overlap_end - overlap_first,
                      overlap_first - first_element});
  }

  InSituDecodeResult result;
  result.values.resize(static_cast<std::size_t>(count));
  PrimacyOptions shard_options = options.primacy;
  shard_options.threads = 1;
  const PrimacyDecompressor decompressor(std::move(shard_options));
  std::vector<PrimacyDecodeStats> stats(ranges.size());
  SharedThreadPool().ParallelForSlots(
      ranges.size(), options.threads, [&](std::size_t, std::size_t r) {
        const ShardRange& range = ranges[r];
        telemetry::TraceSpan span("primacy.insitu_decode_shard", "shard",
                                  static_cast<std::uint64_t>(range.shard));
        const std::vector<double> piece = decompressor.DecompressRange(
            shards[range.shard], range.local_first, range.local_count,
            &stats[r]);
        PRIMACY_CHECK(piece.size() == range.local_count);
        std::copy(piece.begin(), piece.end(),
                  result.values.begin() +
                      static_cast<std::ptrdiff_t>(range.result_offset));
      });
  for (const PrimacyDecodeStats& s : stats) result.totals.Accumulate(s);
  return result;
}

}  // namespace primacy
