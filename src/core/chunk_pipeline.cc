#include "core/chunk_pipeline.h"

#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/id_mapper.h"
#include "isobar/partitioned_codec.h"
#include "telemetry/metrics.h"
#include "telemetry/stage_stack.h"
#include "util/byte_matrix.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {
namespace {

constexpr std::size_t kHighWidth = 2;

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

Bytes ToBigEndianRows(ByteSpan chunk, std::size_t width) {
  if (width == 8) return DoublesToBigEndianRows(FromBytes<double>(chunk));
  PRIMACY_CHECK(width == 4);
  return FloatsToBigEndianRows(FromBytes<float>(chunk));
}

double FrequencyCorrelation(const PairFrequency& a, const PairFrequency& b) {
  std::vector<std::uint64_t> va(a.counts.begin(), a.counts.end());
  std::vector<std::uint64_t> vb(b.counts.begin(), b.counts.end());
  return PearsonCorrelation(va, vb);
}

}  // namespace

ChunkEncoder::ChunkEncoder(const PrimacyOptions& options, const Codec& solver)
    : options_(options), solver_(solver) {}

void ChunkEncoder::Reset() {
  prev_freq_.reset();
  prev_index_.reset();
}

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
  const Bytes rows = ToBigEndianRows(chunk, width);
  const SplitBytes split = SplitHighLow(rows, width, kHighWidth);
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
      FrequencyCorrelation(*prev_freq_, freq) >=
          options_.index_reuse_correlation) {
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
  timer.Lap(telemetry::Stage::kIdMap);

  // 3-4. ID mapping, linearization, solver compression.
  const Bytes id_bytes = MapToIds(split.high, index, options_.linearization);
  timer.Lap(telemetry::Stage::kSolver);
  const Bytes id_compressed = solver_.CompressAdaptive(id_bytes);
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
  stats.top_byte_frequency_before = TopByteFrequency(split.high);
  stats.top_byte_frequency_after = TopByteFrequency(id_bytes);
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

void ChunkDecoder::DecodeChunk(ByteReader& reader, std::uint64_t count,
                               Bytes& out) {
  if (count == 0) {
    throw CorruptStreamError("primacy: bad chunk element count");
  }
  const std::size_t old_size = out.size();
  // Overflow-safe: a tampered count must not wrap the byte extent and
  // shrink the buffer the decode loop then writes past.
  if (count > (std::numeric_limits<std::size_t>::max() - old_size) / width_) {
    throw CorruptStreamError("primacy: chunk element count overflows");
  }
  out.resize(old_size + static_cast<std::size_t>(count) * width_);
  DecodeChunkInto(reader, count, MutableByteSpan(out).subspan(old_size));
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
                                   MutableByteSpan out) {
  if (count == 0) {
    throw CorruptStreamError("primacy: bad chunk element count");
  }
  // Division, not multiplication: `count` comes off the wire, and a wrapped
  // count * width_ could alias a small buffer while the merge loop below
  // iterates the unwrapped count.
  if (out.size() % width_ != 0 || out.size() / width_ != count) {
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
  const Bytes id_bytes = solver_.Decompress(reader.GetBlock());
  timer.Lap(telemetry::Stage::kIdMap);
  if (id_bytes.size() != count * kHighWidth) {
    throw CorruptStreamError("primacy: ID byte count mismatch");
  }
  const Bytes high = MapFromIds(id_bytes, *index_, linearization_);
  timer.Lap(telemetry::Stage::kIsobar);
  const Bytes low = IsobarDecompress(reader.GetBlock(), solver_);
  timer.Lap(telemetry::Stage::kMerge);
  const std::size_t low_width = width_ - kHighWidth;
  if (low.size() != count * low_width) {
    throw CorruptStreamError("primacy: mantissa byte count mismatch");
  }
  // Fused high/low merge + big-endian-rows -> native conversion, writing
  // each element once. The old path materialized the merged row matrix, a
  // native value vector, and a byte copy of it before appending — three
  // full-size temporaries per chunk that this loop eliminates.
  const std::size_t n = static_cast<std::size_t>(count);
  for (std::size_t i = 0; i < n; ++i) {
    const std::byte* hi = high.data() + i * kHighWidth;
    const std::byte* lo = low.data() + i * low_width;
    std::byte* dst = out.data() + i * width_;
    if (width_ == 8) {
      std::uint64_t bits = 0;
      bits = (bits << 8) | static_cast<std::uint64_t>(hi[0]);
      bits = (bits << 8) | static_cast<std::uint64_t>(hi[1]);
      for (std::size_t b = 0; b < 6; ++b) {
        bits = (bits << 8) | static_cast<std::uint64_t>(lo[b]);
      }
      const double value = std::bit_cast<double>(bits);
      std::memcpy(dst, &value, 8);
    } else {
      std::uint32_t bits = 0;
      bits = (bits << 8) | static_cast<std::uint32_t>(hi[0]);
      bits = (bits << 8) | static_cast<std::uint32_t>(hi[1]);
      for (std::size_t b = 0; b < low_width; ++b) {
        bits = (bits << 8) | static_cast<std::uint32_t>(lo[b]);
      }
      const float value = std::bit_cast<float>(bits);
      std::memcpy(dst, &value, 4);
    }
  }
  stage_.Accumulate(timer.Commit());

  PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.decode_chunks.Increment();
  metrics.decode_output_bytes.Increment(out.size());
}

}  // namespace primacy
