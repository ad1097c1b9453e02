#include "core/chunk_pipeline.h"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/id_mapper.h"
#include "isobar/partitioned_codec.h"
#include "kernels/kernels.h"
#include "telemetry/metrics.h"
#include "telemetry/stage_stack.h"
#include "util/byte_matrix.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {
namespace {

constexpr std::size_t kHighWidth = 2;
/// Frequency-vector correlation above which kReuseWhenCorrelated keeps the
/// previous chunk's index.
constexpr double kIndexReuseCorrelation = 0.95;

/// Registry handles for the encode/decode pipelines, resolved once. The
/// per-stage histograms are StageTimer's (telemetry/stage_stack.h).
struct PipelineMetrics {
  telemetry::Counter& encode_chunks;
  telemetry::Counter& encode_input_bytes;
  telemetry::Counter& encode_output_bytes;
  telemetry::Counter& decode_chunks;
  telemetry::Counter& decode_output_bytes;
  telemetry::Histogram& encode_chunk_bytes;

  static PipelineMetrics& Get() {
    static PipelineMetrics* metrics = [] {
      // Record-size buckets from 1 KiB to 16 MiB, one per factor of 4.
      static constexpr std::array<double, 7> kChunkBytesBounds = {
          1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0};
      auto& registry = telemetry::MetricsRegistry::Global();
      return new PipelineMetrics{
          registry.GetCounter("primacy_encode_chunks_total"),
          registry.GetCounter("primacy_encode_input_bytes_total"),
          registry.GetCounter("primacy_encode_output_bytes_total"),
          registry.GetCounter("primacy_decode_chunks_total"),
          registry.GetCounter("primacy_decode_output_bytes_total"),
          registry.GetHistogram("primacy_encode_chunk_bytes",
                                kChunkBytesBounds)};
    }();
    return *metrics;
  }
};

double FrequencyCorrelation(const PairFrequency& a, const PairFrequency& b) {
  std::vector<std::uint64_t> va(a.counts.begin(), a.counts.end());
  std::vector<std::uint64_t> vb(b.counts.begin(), b.counts.end());
  return PearsonCorrelation(va, vb);
}

/// TopByteFrequency of a chunk's high bytes and of its ID bytes, from its
/// pair counts instead of two passes over the bytes: each sequence that
/// occurs counts toward both of its bytes, and toward both bytes of its ID.
/// The index maps every sequence that occurs, so its ID list covers them.
std::pair<double, double> TopByteFrequencies(const PairFrequency& freq,
                                             const IdIndex& index,
                                             std::size_t elements) {
  std::array<std::uint64_t, 256> before{};
  std::array<std::uint64_t, 256> after{};
  for (std::size_t id = 0; id < index.size(); ++id) {
    const std::uint16_t sequence = index.SequenceOf(id);
    const std::uint64_t n = freq.counts[sequence];
    before[sequence >> 8] += n;
    before[sequence & 0xff] += n;
    after[id >> 8] += n;
    after[id & 0xff] += n;
  }
  const auto top = [elements](const std::array<std::uint64_t, 256>& bins) {
    return static_cast<double>(*std::max_element(bins.begin(), bins.end())) /
           static_cast<double>(elements * kHighWidth);
  };
  return {top(before), top(after)};
}

}  // namespace

ChunkEncoder::ChunkEncoder(const PrimacyOptions& options, const Codec& solver)
    : options_(options), solver_(solver) {}

ChunkRecordStats ChunkEncoder::EncodeChunk(ByteSpan chunk, Bytes& out) {
  const std::size_t width = ElementWidth(options_.precision);
  if (chunk.empty() || chunk.size() % width != 0) {
    throw InvalidArgumentError("ChunkEncoder: chunk size must be a non-zero "
                               "multiple of the element width");
  }
  const std::size_t record_start = out.size();
  const std::size_t count = chunk.size() / width;
  ChunkRecordStats stats;
  stats.elements = count;
  telemetry::StageTimer timer(telemetry::Pipeline::kEncode,
                              telemetry::Stage::kSplit, "primacy.encode_chunk",
                              "elements", static_cast<std::uint64_t>(count));

  // 1. Big-endian byte significance, then the high/low split.
  Bytes rows = ToBytes(chunk);
  SwapBigEndianRows(rows, width);
  const SplitBytes split = SplitHighLow(rows, width);
  timer.Lap(telemetry::Stage::kFrequency);

  // 2. Frequency analysis + index selection. Under kReuseWhenCorrelated, a
  // chunk whose frequency vector correlates with the previous chunk's keeps
  // the previous ID assignment; unseen sequences are appended as a small
  // delta (paper Section II-F's "more intelligent indexing scheme"). Old IDs
  // never change, so decoding stays in lockstep.
  AnalyzePairFrequencyInto(split.high, freq_scratch_);
  const PairFrequency& freq = freq_scratch_;
  enum class IndexAction { kFresh, kReuse, kDelta };
  IndexAction action = IndexAction::kFresh;
  std::vector<std::uint16_t> delta;
  if (options_.index_mode == IndexMode::kReuseWhenCorrelated &&
      prev_index_.has_value() && prev_freq_.has_value() &&
      FrequencyCorrelation(*prev_freq_, freq) >= kIndexReuseCorrelation) {
    delta = prev_index_->MissingSequences(freq);
    if (delta.empty()) {
      action = IndexAction::kReuse;
    } else if (delta.size() <= prev_index_->size() / 4 + 16) {
      action = IndexAction::kDelta;
    }
  }
  if (action == IndexAction::kFresh) {
    prev_index_ = IdIndex::FromFrequency(freq);
  } else if (action == IndexAction::kDelta) {
    prev_index_ = prev_index_->Extended(delta);
  }
  // Swap (not copy) the counts into prev_freq_; next chunk's analyze will
  // overwrite freq_scratch_ anyway, so nothing is lost and no 256 KiB copy
  // happens per chunk.
  if (!prev_freq_.has_value()) prev_freq_.emplace();
  std::swap(prev_freq_->counts, freq_scratch_.counts);
  const IdIndex& index = *prev_index_;
  std::tie(stats.top_byte_frequency_before, stats.top_byte_frequency_after) =
      TopByteFrequencies(*prev_freq_, index, count);
  timer.Lap(telemetry::Stage::kIdMap);

  // 3-4. ID mapping, linearization, solver compression.
  const Bytes id_bytes = MapToIds(split.high, index, options_.linearization);
  timer.Lap(telemetry::Stage::kSolver);
  // Column linearization hands the solver two columns: the high ID bytes,
  // then the low ones.
  const Bytes id_compressed = solver_.CompressAdaptive(
      id_bytes, options_.linearization == Linearization::kColumn ? count : 0);
  timer.Lap(telemetry::Stage::kIsobar);

  // 5. ISOBAR on the mantissa matrix.
  const IsobarCompressed mantissa =
      IsobarCompress(split.low, width - kHighWidth, solver_, options_.isobar);
  timer.Lap(telemetry::Stage::kSerialize);

  // 6. Chunk record.
  PutVarint(out, count);
  switch (action) {
    case IndexAction::kReuse:
      PutU8(out, 0);
      break;
    case IndexAction::kFresh: {
      PutU8(out, 1);
      const Bytes serialized_index = SerializeIndex(index);
      stats.index_bytes = serialized_index.size();
      stats.emitted_full_index = true;
      PutBlock(out, serialized_index);
      break;
    }
    case IndexAction::kDelta: {
      PutU8(out, 2);
      const Bytes serialized_delta = SerializeSequenceList(delta);
      stats.index_bytes = serialized_delta.size();
      stats.emitted_delta_index = true;
      PutBlock(out, serialized_delta);
      break;
    }
  }
  PutBlock(out, id_compressed);
  PutBlock(out, mantissa.stream);

  stats.record_bytes = out.size() - record_start;
  stats.id_compressed_bytes = id_compressed.size();
  stats.mantissa_stream_bytes = mantissa.stream.size();
  stats.mantissa_raw_bytes = mantissa.raw_bytes;
  stats.compressible_fraction = mantissa.plan.CompressibleFraction();
  stats.stage = timer.Commit();

  PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.encode_chunks.Increment();
  metrics.encode_input_bytes.Increment(chunk.size());
  metrics.encode_output_bytes.Increment(stats.record_bytes);
  metrics.encode_chunk_bytes.Observe(static_cast<double>(stats.record_bytes));
  return stats;
}

ChunkDecoder::ChunkDecoder(const Codec& solver, Linearization linearization,
                           std::size_t element_width)
    : solver_(solver), linearization_(linearization), width_(element_width) {
  if (width_ != 4 && width_ != 8) {
    throw InvalidArgumentError("ChunkDecoder: unsupported element width");
  }
}

bool ChunkDecoder::VerifyRecord(ByteSpan record, std::uint64_t expected) {
  telemetry::StageTimer timer(telemetry::Pipeline::kDecode,
                              telemetry::Stage::kChecksum,
                              "primacy.verify_record", "bytes", record.size());
  if (Xxh64(record) != expected) return false;
  stage_.Accumulate(timer.Commit());
  return true;
}

void ChunkDecoder::DecodeChunkInto(ByteReader& reader, std::uint64_t count,
                                   std::uint64_t first, MutableByteSpan out) {
  if (count == 0) {
    throw CorruptStreamError("primacy: bad chunk element count");
  }
  // Division, not multiplication: `count` comes off the wire, and a wrapped
  // count * width_ could match a small buffer. The window starts at an
  // element of the chunk.
  const std::size_t window = out.size() / width_;
  if (out.size() % width_ != 0 || first >= count || window > count - first) {
    throw CorruptStreamError("primacy: chunk element count mismatch");
  }
  telemetry::StageTimer timer(telemetry::Pipeline::kDecode,
                              telemetry::Stage::kFrequency,
                              "primacy.decode_chunk", "elements", count);
  const std::uint8_t index_flag = reader.GetU8();
  if (index_flag == 1) {
    index_ = DeserializeIndex(reader.GetBlock());
  } else if (index_flag == 2) {
    if (!index_.has_value()) {
      throw CorruptStreamError("primacy: delta without a base index");
    }
    index_ = index_->Extended(DeserializeSequenceList(reader.GetBlock()));
  } else if (index_flag != 0 || !index_.has_value()) {
    throw CorruptStreamError("primacy: missing index");
  }
  // Index deserialization restores the frequency-ranked ID table, so it is
  // charged to the frequency stage (its encode-side dual).
  timer.Lap(telemetry::Stage::kSolver);
  // Both inflates get the window, so a solver may leave out the bytes
  // outside it: under kColumn the IDs are two columns of `count` bytes,
  // under kRow one run of ID pairs; ISOBAR's planes are columns of `count`.
  // A count too large for these offsets fails the ID byte count check.
  const auto n = static_cast<std::size_t>(count);
  const auto skip = static_cast<std::size_t>(first);
  const bool columns = linearization_ == Linearization::kColumn;
  const Bytes id_bytes =
      columns ? solver_.DecompressWindow(reader.GetBlock(), n, skip, window)
              : solver_.DecompressWindow(reader.GetBlock(), 0,
                                         kHighWidth * skip,
                                         kHighWidth * window);
  timer.Lap(telemetry::Stage::kIsobar);
  if (id_bytes.size() % kHighWidth != 0 ||
      id_bytes.size() / kHighWidth != count) {
    throw CorruptStreamError("primacy: ID byte count mismatch");
  }
  const IsobarPlanes low =
      IsobarDecompress(reader.GetBlock(), solver_, skip, window);
  if (low.elements != count || low.plan.width != width_ - kHighWidth) {
    throw CorruptStreamError("primacy: mantissa byte count mismatch");
  }
  timer.Lap(telemetry::Stage::kMerge);

  // One kernel call unmaps the window's IDs and interleaves them with its
  // mantissa planes into native elements. Past the checks above, every
  // plane holds `count` bytes.
  const std::size_t stride = columns ? 1 : kHighWidth;
  const std::byte* hi = id_bytes.data() + skip * stride;
  const std::byte* lo = hi + (columns ? n : 1);
  std::array<const std::byte*, 6> planes{};
  for (std::size_t c = 0; c < width_ - kHighWidth; ++c) {
    planes[c] = low.columns[c] + skip;
  }
  const kernels::KernelTable& k = kernels::Active();
  if (!(width_ == 8 ? k.assemble_w8 : k.assemble_w4)(
          hi, lo, stride, planes.data(), window,
          index_->sequences_u32().data(),
          static_cast<std::uint32_t>(index_->size()), out.data())) {
    throw CorruptStreamError("MapFromIds: ID beyond index");
  }
  stage_.Accumulate(timer.Commit());

  // The chunk's whole extent, window or not: the per-KiB stage figures
  // divide by this counter, so a window that leaves blocks out reads as
  // fewer ns per KiB of the chunks it touched.
  PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.decode_chunks.Increment();
  metrics.decode_output_bytes.Increment(n * width_);
}

}  // namespace primacy
