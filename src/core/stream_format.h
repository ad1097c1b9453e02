// PRIMACY stream framing: the header, the v2/v3 seekable chunk directory,
// StreamAssembler (the one writer, behind the one-shot codec and the
// streaming writer), and OpenStream — everything a reader learns before it
// touches a chunk record. Internal API (namespace primacy::internal).
//
// Version history:
//   v1 — header, chunk records, tail block. Decoding is a sequential scan.
//   v2 — identical payload, then a chunk directory (per-chunk record byte
//        offset, element count, index flag) and a fixed-size footer locating
//        it, so a reader can jump to any chunk without scanning.
//   v3 — v2 plus integrity data: a 64-bit XXH64 checksum per chunk record
//        (carried in the directory entry), a checksum of the header + tail
//        block, and a checksum of the directory payload itself in the
//        footer. Every byte before the footer is covered by exactly one
//        checksum, so any single flipped bit is detected, and a range read
//        can verify just the chunks it touches. Every writer emits v3
//        through StreamAssembler. A streamed v3 stream (unknown size up
//        front) carries the kStreamingTotal sentinel in its header and
//        takes its totals from the directory. Readers accept all three
//        versions, and v1 streamed streams (sentinel header, records ended
//        by a 0 count, tail block, real total) from older writers.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/byte_io.h"
#include "compress/codec.h"
#include "core/primacy_codec.h"
#include "util/checksum.h"
#include "util/error.h"

namespace primacy {

class ChunkDecoder;        // chunk_pipeline.h
struct ChunkRecordStats;  // chunk_pipeline.h

/// Header total-byte sentinel marking a streamed (unknown-size) stream.
inline constexpr std::uint64_t kStreamingTotal = ~std::uint64_t{0};

}  // namespace primacy

namespace primacy::internal {

inline constexpr std::uint8_t kFormatVersion1 = 1;
inline constexpr std::uint8_t kFormatVersion2 = 2;
inline constexpr std::uint8_t kFormatVersion3 = 3;

/// Trailing checksum of a v3 stored-fallback stream (XXH64 of every
/// preceding byte); stored streams have no directory to carry one.
inline constexpr std::size_t kStoredChecksumBytes = 8;

struct StreamHeader {
  std::uint8_t version = kFormatVersion3;
  Linearization linearization = Linearization::kColumn;
  bool stored = false;  // whole-stream raw fallback (adversarial input)
  std::size_t width = 8;
  std::string solver_name;
  std::uint64_t total_bytes = 0;
};

/// One chunk's directory entry: where its record starts, how many elements
/// it decodes to, its index flag (0 = reuse, 1 = full index, 2 = delta),
/// and — v3 — the XXH64 of its record bytes, so a reader can plan parallel
/// decode groups, range reads, and integrity checks from the directory
/// alone.
struct ChunkDirectoryEntry {
  std::uint64_t offset = 0;    // record start, absolute from stream start
  std::uint64_t elements = 0;  // element count the record decodes to
  std::uint8_t index_flag = 0;
  std::uint64_t checksum = 0;  // XXH64 of the record bytes (v3 only)
};

struct ChunkDirectory {
  std::vector<ChunkDirectoryEntry> chunks;
  /// Absolute offset of the tail block (= end of the last chunk record).
  std::uint64_t tail_offset = 0;
  /// Absolute offset of the directory payload (= end of the tail block).
  /// Filled by ReadChunkDirectory; ignored by AppendChunkDirectory.
  std::uint64_t directory_offset = 0;
  /// True for v3 directories: entry checksums and header_tail_checksum are
  /// populated.
  bool has_checksums = false;
  /// XXH64 of the stream header bytes followed by the tail-block bytes —
  /// everything before the footer that the per-chunk checksums do not cover
  /// (v3 only). StreamAssembler takes it as the stream is framed.
  std::uint64_t header_tail_checksum = 0;
};

/// Appends the stream header: magic, version, flags (bit 0 = column
/// linearization, bit 1 = stored fallback), element width, solver name,
/// total byte count.
void WriteStreamHeader(Bytes& out, const PrimacyOptions& options,
                       std::uint64_t total_bytes, bool stored = false,
                       std::uint8_t version = kFormatVersion3);

/// Parses and validates a stream header (including solver availability).
/// Accepts versions 1, 2 and 3.
StreamHeader ReadStreamHeader(ByteReader& reader);

/// Appends the chunk directory and its footer for a v2 or v3 stream. For v3
/// the entries' record checksums and header_tail_checksum are written as
/// given (taken while the stream was framed, so no stream prefix needs to be
/// held), and the directory payload is checksummed here. Layout:
///   varint chunk_count
///   per chunk: varint offset_delta (first entry: from stream start;
///              later entries: from the previous record start),
///              varint elements, u8 index_flag,
///              [v3] u64 record checksum
///   varint tail_offset_delta (tail block offset relative to the last
///                             record start, or to stream start if empty)
///   [v3] u64 header+tail checksum
///   footer, fixed size, read from the end:
///     v2 (12 bytes): u32 directory_bytes, u32 chunk_count, u32 magic "PRD2"
///     v3 (20 bytes): u64 directory_checksum, u32 directory_bytes,
///                    u32 chunk_count, u32 magic "PRD3"
void AppendChunkDirectory(Bytes& out, const ChunkDirectory& directory,
                          std::uint8_t version = kFormatVersion3);

/// Reads and validates the chunk directory of a v2/v3 stream from its
/// trailing footer; the footer magic must match `version`. `chunks_begin`
/// is the offset of the first chunk record (= header size); offsets must be
/// strictly increasing and in bounds. For v3 the directory payload is
/// verified against the footer checksum unconditionally (the directory
/// drives every later bounds computation). Throws CorruptStreamError on any
/// inconsistency.
ChunkDirectory ReadChunkDirectory(ByteSpan stream, std::size_t chunks_begin,
                                  std::uint8_t version);

/// XXH64 over the byte ranges header_tail_checksum covers: [0, chunks_begin)
/// followed by [tail_offset, directory_offset).
std::uint64_t ComputeHeaderTailChecksum(ByteSpan stream,
                                        const ChunkDirectory& directory,
                                        std::size_t chunks_begin);

/// Everything a reader learns about a stream before it touches a chunk
/// record. Produced by OpenStream; views into the stream, which must outlive
/// it.
struct OpenedStream {
  ByteSpan stream;
  StreamHeader header;
  /// Offset of the first chunk record (= header size).
  std::size_t chunks_begin = 0;
  /// The decoded byte count: the header's total, or — under a
  /// kStreamingTotal header — the v3 directory's (its element counts plus
  /// the tail block). 0 for a v1 streamed stream, whose total trails its
  /// records.
  std::uint64_t total_bytes = 0;
  /// A v1 streamed stream: records run until a zero element count, followed
  /// by the tail block and the real total.
  bool streamed = false;
  /// Stored fallback: the raw payload (header.total_bytes bytes).
  ByteSpan stored;
  /// v2/v3 streams only (unset for v1 and stored streams): the validated
  /// directory, each chunk's first element index, and the tail block's
  /// bytes.
  std::optional<ChunkDirectory> directory;
  std::vector<std::uint64_t> starts;
  ByteSpan tail;
  /// Chunk records must match their directory checksums (a v3 directory and
  /// verification requested).
  bool verify_records = false;

  std::uint64_t total_elements() const { return total_bytes / header.width; }
  /// Chunk `c`'s record bytes, bounded by the next record or the tail block.
  ByteSpan Record(std::size_t c) const;
};

/// Parses and validates everything outside the chunk records: the header,
/// the stored payload (and, v3 with `verify`, its trailing checksum), the
/// v2/v3 directory, the header/tail checksum (v3 with `verify`), the
/// per-chunk element starts against the header total (or, under the
/// kStreamingTotal sentinel, which only v1 and v3 headers may carry, the
/// totals the directory implies), and the tail block. Throws
/// CorruptStreamError on any inconsistency.
OpenedStream OpenStream(ByteSpan stream, bool verify);

/// The one stream writer, behind PrimacyCompressor::CompressBytes and
/// PrimacyStreamWriter: emits a v3 header, then each chunk record as it is
/// appended, taking its directory entry (offset, element count, index flag,
/// XXH64) and folding its stats on the way, then the tail block, the chunk
/// directory and the footer. Bytes reach the sink as soon as they are
/// framed; only the directory stays resident.
class StreamAssembler {
 public:
  using Sink = std::function<void(ByteSpan)>;

  /// Emits the header. `total_bytes` is the input size, or kStreamingTotal
  /// when it is not known up front (readers then take it from the
  /// directory).
  StreamAssembler(const PrimacyOptions& options, std::uint64_t total_bytes,
                  Sink sink);

  /// Emits one encoded chunk record.
  void AppendRecord(ByteSpan record, const ChunkRecordStats& chunk);

  /// Emits the tail block (the bytes beyond a whole number of elements), the
  /// directory and the footer. Nothing may be appended afterwards.
  void Finish(ByteSpan tail);

  /// Stats of the stream emitted so far: input and output bytes count what
  /// has been framed, and the per-chunk means fold one chunk at a time
  /// through PrimacyStats::Accumulate.
  const PrimacyStats& stats() const { return stats_; }

 private:
  void Emit(ByteSpan data);

  Sink sink_;
  std::size_t width_;
  ChunkDirectory directory_;
  Xxh64State header_tail_;  // the header bytes, then the tail block
  PrimacyStats stats_;
};

/// Re-throws a chunk-local decode failure as CorruptStreamError carrying the
/// chunk index and record byte offset — the context a restart tool needs to
/// localize damage in a checkpoint.
[[noreturn]] void ThrowChunkError(std::size_t chunk, std::uint64_t offset,
                                  const std::string& what);

/// Runs `fn`, re-throwing stream damage through ThrowChunkError. Library
/// invariant failures (InternalError) keep their type.
template <typename Fn>
decltype(auto) WithChunkContext(std::size_t chunk, std::uint64_t offset,
                                Fn&& fn) {
  try {
    return fn();
  } catch (const InternalError&) {
    throw;
  } catch (const Error& e) {
    ThrowChunkError(chunk, offset, e.what());
  }
}

/// Decodes one directory chunk record into `out` (exactly the chunk's
/// extent): the record checksum first (when `verify`), then its element
/// count against the directory entry, then the payload. Every failure is
/// rethrown with the chunk's context. Returns whether the checksum was
/// verified.
bool DecodeChunkRecord(ChunkDecoder& decoder, ByteSpan record,
                       std::size_t chunk, const ChunkDirectoryEntry& entry,
                       bool verify, MutableByteSpan out);

/// Registers builtin codecs and instantiates the named solver.
std::shared_ptr<const Codec> ResolveSolver(const std::string& name);

}  // namespace primacy::internal
