// The per-chunk encode/decode pipeline shared by the one-shot
// PrimacyCompressor/PrimacyDecompressor and the streaming writer/reader.
//
// A ChunkEncoder carries the cross-chunk state (previous frequency vector +
// index for IndexMode::kReuseWhenCorrelated) and turns one chunk of
// *native-layout element bytes* into one self-delimiting chunk record; a
// ChunkDecoder mirrors it. Each serves one thread at a time; the encoders
// and decoders of one codec call share one solver. The surrounding stream
// framing (header, tail block, directory, footer) and the per-stream stats
// fold live in internal::StreamAssembler (stream_format.h).
#pragma once

#include <memory>
#include <optional>

#include "bitstream/byte_io.h"
#include "compress/codec.h"
#include "core/frequency.h"
#include "core/primacy_codec.h"
#include "telemetry/stage.h"

namespace primacy {

/// Accounting for a single encoded chunk.
struct ChunkRecordStats {
  std::size_t elements = 0;
  std::size_t record_bytes = 0;
  std::size_t index_bytes = 0;
  bool emitted_full_index = false;
  bool emitted_delta_index = false;
  std::size_t id_compressed_bytes = 0;
  std::size_t mantissa_stream_bytes = 0;
  std::size_t mantissa_raw_bytes = 0;
  double compressible_fraction = 0.0;
  double top_byte_frequency_before = 0.0;
  double top_byte_frequency_after = 0.0;
  /// Per-stage encode time for this chunk (zero when telemetry is off).
  telemetry::StageBreakdown stage;
};

class ChunkEncoder {
 public:
  /// `solver` must outlive the encoder; `options` is copied (so a temporary
  /// is fine — ASan caught a dangling reference from exactly that).
  ChunkEncoder(const PrimacyOptions& options, const Codec& solver);

  /// Encodes one chunk (native element layout, size = multiple of the
  /// precision's element width) and appends its record to `out`.
  ChunkRecordStats EncodeChunk(ByteSpan chunk, Bytes& out);

 private:
  const PrimacyOptions options_;
  const Codec& solver_;
  // Reused across chunks: each EncodeChunk analyzes into freq_scratch_ and
  // then swaps its counts with prev_freq_'s, so two 256 KiB counts buffers
  // alternate instead of one being allocated per chunk. A one-chunk encode
  // allocates one.
  PairFrequency freq_scratch_;
  std::optional<PairFrequency> prev_freq_;
  std::optional<IdIndex> prev_index_;
};

class ChunkDecoder {
 public:
  ChunkDecoder(const Codec& solver, Linearization linearization,
               std::size_t element_width);

  /// Decodes one chunk record body of `count` elements from `reader`, whose
  /// leading element-count varint the caller has already consumed, and
  /// writes the restored elements [first, first + out.size() /
  /// element_width) of the chunk straight into `out`, where `first` <
  /// count; `first` = 0 with `out` of count * element_width bytes is the
  /// whole chunk. The whole record is read and its planes checked, but the
  /// solver's two inflates get the window (Codec::DecompressWindow), so
  /// they may leave out the bytes outside it, and only the window is
  /// assembled. Each chunk's output position is known from the stream's
  /// directory, so workers decode into disjoint slices of one preallocated
  /// buffer, and an uncached range read decodes its edge chunks' windows
  /// straight into the caller's output.
  void DecodeChunkInto(ByteReader& reader, std::uint64_t count,
                       std::uint64_t first, MutableByteSpan out);

  /// Seeds the cross-chunk index state. Range reads resolve the index chain
  /// (nearest full index plus deltas) out-of-band and prime the decoder with
  /// the result before decoding the covering chunks.
  void SetIndex(IdIndex index) { index_ = std::move(index); }

  /// Per-stage decode time accumulated across every chunk this decoder has
  /// decoded (zero when telemetry is off).
  const telemetry::StageBreakdown& stage_breakdown() const { return stage_; }

  /// Checks a v3 chunk record's bytes against their directory XXH64 and
  /// returns whether they match. A matching pass is charged to this
  /// decoder's checksum stage, registry included.
  bool VerifyRecord(ByteSpan record, std::uint64_t expected);

 private:
  const Codec& solver_;
  Linearization linearization_;
  std::size_t width_;
  std::optional<IdIndex> index_;
  telemetry::StageBreakdown stage_;
};

}  // namespace primacy
