// Incremental (streaming) PRIMACY interfaces for in-situ use, where a
// simulation produces data in bursts and the compressed checkpoint must be
// emitted without ever materializing the whole input or output:
//
//  * PrimacyStreamWriter::Append accepts arbitrarily-sized batches of
//    values; whole chunks are encoded and handed to the sink as soon as
//    they are full. Finish() flushes the remainder, the tail block, the
//    chunk directory and the footer.
//  * PrimacyStreamReader::NextChunk yields the decoded values one chunk at
//    a time, bounding peak memory at one chunk regardless of stream size.
//
// The writer frames its stream through the same internal::StreamAssembler
// as PrimacyCompressor, so the two differ only in the header's total: a
// streaming writer cannot know it up front and stores the kStreamingTotal
// sentinel there, and readers take the totals from the v3 directory. Its
// records and their checksums equal a one-shot stream's, and it gets the
// same range reads and parallel decode. PrimacyStreamReader and
// PrimacyDecompressor read both, and the v1 streamed streams older writers
// emitted.
#pragma once

#include <memory>
#include <ranges>
#include <span>
#include <vector>

#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"

namespace primacy {

class PrimacyStreamWriter {
 public:
  /// `sink` receives the stream bytes in order (header, chunk records, then
  /// tail block, directory and footer); it is called from the constructor,
  /// Append and Finish on the caller's thread.
  using Sink = internal::StreamAssembler::Sink;

  explicit PrimacyStreamWriter(Sink sink, PrimacyOptions options = {});

  /// Appends float or double values; their width must match the options'
  /// precision.
  template <std::ranges::contiguous_range Values>
    requires FloatElement<std::ranges::range_value_t<Values>>
  void Append(const Values& values) {
    using T = std::ranges::range_value_t<Values>;
    CheckElementWidth(sizeof(T), ElementWidth(options_.precision));
    AppendBytes(AsBytes(std::span<const T>(values)));
  }

  /// Appends raw native-layout bytes (any size; a trailing partial element
  /// is only allowed immediately before Finish()).
  void AppendBytes(ByteSpan data);

  /// Flushes the final partial chunk, the tail block, the directory and the
  /// footer. No Append may follow. Returns the cumulative stats.
  PrimacyStats Finish();

  /// Stats of the stream emitted so far (input still pending a whole chunk
  /// is not counted until it is encoded).
  const PrimacyStats& stats() const { return assembler_.stats(); }

 private:
  void EncodeBufferedChunks(bool flush_partial);

  PrimacyOptions options_;  // first: validated before the header is emitted
  std::shared_ptr<const Codec> solver_;
  ChunkEncoder encoder_;
  internal::StreamAssembler assembler_;
  Bytes pending_;  // not-yet-encoded input bytes
  bool finished_ = false;
};

class PrimacyStreamReader {
 public:
  /// Reads from an in-memory stream view (the common in-situ case: the
  /// staged buffer); the view must outlive the reader. The stream is opened
  /// up front (internal::OpenStream): a v2/v3 directory is validated and
  /// drives the chunk order, and v3 records are verified against their
  /// checksums before decoding (disable with `verify_checksums` for raw
  /// speed). v1 streams carry neither and are scanned sequentially.
  explicit PrimacyStreamReader(ByteSpan stream, bool verify_checksums = true);

  /// Element width of the stream (4 or 8).
  std::size_t element_width() const { return opened_.header.width; }

  /// Decodes the next chunk into `out` (appending native-layout bytes).
  /// Returns false when the stream is exhausted — at which point the tail
  /// bytes (if any) have been appended too. A failing chunk throws
  /// CorruptStreamError naming the chunk and its record offset.
  bool NextChunk(Bytes& out);

  /// Convenience: drain the remaining chunks as doubles.
  std::vector<double> ReadAllDoubles();

  /// Chunk records decoded so far.
  std::size_t chunks_decoded() const { return chunk_index_; }

  /// Per-stage decode time accumulated over the chunks read so far (zero
  /// when telemetry is off).
  const telemetry::StageBreakdown& stage_breakdown() const;

 private:
  /// End of stream: appends the last bytes (tail block or stored payload).
  bool Finish(Bytes& out, ByteSpan last);

  internal::OpenedStream opened_;
  ByteReader reader_;  // v1 record cursor
  std::unique_ptr<const Codec> solver_;
  std::unique_ptr<ChunkDecoder> decoder_;
  std::size_t chunk_index_ = 0;
  std::uint64_t decoded_bytes_ = 0;  // v1 records decoded so far
  bool saw_trailer_ = false;
};

}  // namespace primacy
