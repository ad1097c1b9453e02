#include "core/stream_format.h"

#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/chunk_pipeline.h"
#include "util/checksum.h"
#include "util/error.h"

namespace primacy::internal {
namespace {
constexpr std::uint32_t kMagic = 0x31595250;            // "PRY1"
constexpr std::uint32_t kDirectoryMagicV2 = 0x32445250;  // "PRD2"
constexpr std::uint32_t kDirectoryMagicV3 = 0x33445250;  // "PRD3"
constexpr std::size_t kFooterBytesV2 = 12;
constexpr std::size_t kFooterBytesV3 = 20;

std::size_t FooterBytes(std::uint8_t version) {
  return version >= kFormatVersion3 ? kFooterBytesV3 : kFooterBytesV2;
}
}  // namespace

void WriteStreamHeader(Bytes& out, const PrimacyOptions& options,
                       std::uint64_t total_bytes, bool stored,
                       std::uint8_t version) {
  PutU32(out, kMagic);
  PutU8(out, version);
  std::uint8_t flags =
      options.linearization == Linearization::kColumn ? 1 : 0;
  if (stored) flags |= 2;
  PutU8(out, flags);
  PutU8(out, static_cast<std::uint8_t>(ElementWidth(options.precision)));
  PutBlock(out, BytesFromString(options.solver));
  PutVarint(out, total_bytes);
}

StreamHeader ReadStreamHeader(ByteReader& reader) {
  if (reader.GetU32() != kMagic) {
    throw CorruptStreamError("primacy: bad magic");
  }
  const std::uint8_t version = reader.GetU8();
  if (version < kFormatVersion1 || version > kFormatVersion3) {
    throw CorruptStreamError("primacy: unsupported version");
  }
  const std::uint8_t flags = reader.GetU8();
  if (flags > 3) {
    throw CorruptStreamError("primacy: bad header flags");
  }
  StreamHeader header;
  header.version = version;
  header.linearization =
      (flags & 1) != 0 ? Linearization::kColumn : Linearization::kRow;
  header.stored = (flags & 2) != 0;
  const std::uint8_t width = reader.GetU8();
  if (width != 4 && width != 8) {
    throw CorruptStreamError("primacy: unsupported element width");
  }
  header.width = width;
  header.solver_name = StringFromBytes(reader.GetBlock());
  RegisterBuiltinCodecs();
  if (!CodecRegistry::Global().Contains(header.solver_name)) {
    throw CorruptStreamError("primacy: unknown solver " + header.solver_name);
  }
  header.total_bytes = reader.GetVarint();
  return header;
}

void AppendChunkDirectory(Bytes& out, const ChunkDirectory& directory,
                          std::uint8_t version) {
  const bool checksums = version >= kFormatVersion3;
  Bytes payload;
  PutVarint(payload, directory.chunks.size());
  std::uint64_t prev_offset = 0;
  for (const ChunkDirectoryEntry& entry : directory.chunks) {
    PutVarint(payload, entry.offset - prev_offset);
    PutVarint(payload, entry.elements);
    PutU8(payload, entry.index_flag);
    if (checksums) PutU64(payload, entry.checksum);
    prev_offset = entry.offset;
  }
  PutVarint(payload, directory.tail_offset - prev_offset);
  if (checksums) PutU64(payload, directory.header_tail_checksum);
  AppendBytes(out, payload);
  if (checksums) {
    PutU64(out, Xxh64(payload));
  }
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, static_cast<std::uint32_t>(directory.chunks.size()));
  PutU32(out, checksums ? kDirectoryMagicV3 : kDirectoryMagicV2);
}

ChunkDirectory ReadChunkDirectory(ByteSpan stream, std::size_t chunks_begin,
                                  std::uint8_t version) {
  const bool checksums = version >= kFormatVersion3;
  const std::size_t footer_bytes = FooterBytes(version);
  if (stream.size() < chunks_begin + footer_bytes) {
    throw CorruptStreamError("primacy: stream too small for a directory");
  }
  ByteReader footer(stream.subspan(stream.size() - footer_bytes));
  const std::uint64_t directory_checksum = checksums ? footer.GetU64() : 0;
  const std::uint32_t payload_bytes = footer.GetU32();
  const std::uint32_t footer_count = footer.GetU32();
  if (footer.GetU32() !=
      (checksums ? kDirectoryMagicV3 : kDirectoryMagicV2)) {
    throw CorruptStreamError("primacy: bad directory magic");
  }
  if (payload_bytes > stream.size() - chunks_begin - footer_bytes) {
    throw CorruptStreamError("primacy: directory size out of range");
  }
  const std::size_t directory_begin =
      stream.size() - footer_bytes - payload_bytes;
  const ByteSpan payload = stream.subspan(directory_begin, payload_bytes);
  if (checksums && Xxh64(payload) != directory_checksum) {
    throw CorruptStreamError("primacy: directory checksum mismatch");
  }
  ByteReader reader(payload);
  const std::uint64_t count = reader.GetVarint();
  if (count != footer_count) {
    throw CorruptStreamError("primacy: directory chunk count mismatch");
  }
  ChunkDirectory directory;
  directory.has_checksums = checksums;
  directory.chunks.reserve(count);
  std::uint64_t prev_offset = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ChunkDirectoryEntry entry;
    const std::uint64_t delta = reader.GetVarint();
    // Overflow-safe: every record offset must land inside
    // [chunks_begin, directory_begin), so the delta may never exceed the
    // room left before the directory.
    if (delta > directory_begin - prev_offset) {
      throw CorruptStreamError("primacy: directory offset out of range");
    }
    entry.offset = prev_offset + delta;
    entry.elements = reader.GetVarint();
    entry.index_flag = reader.GetU8();
    if (checksums) entry.checksum = reader.GetU64();
    if (i == 0) {
      if (entry.offset != chunks_begin) {
        throw CorruptStreamError("primacy: directory first offset mismatch");
      }
    } else if (delta == 0) {
      throw CorruptStreamError("primacy: directory offsets not increasing");
    }
    if (entry.elements == 0) {
      throw CorruptStreamError("primacy: directory chunk with zero elements");
    }
    if (entry.index_flag > 2) {
      throw CorruptStreamError("primacy: bad directory index flag");
    }
    prev_offset = entry.offset;
    directory.chunks.push_back(entry);
  }
  const std::uint64_t tail_delta = reader.GetVarint();
  if (tail_delta > directory_begin - prev_offset) {
    throw CorruptStreamError("primacy: directory tail offset out of range");
  }
  directory.tail_offset = prev_offset + tail_delta;
  directory.directory_offset = directory_begin;
  if (checksums) directory.header_tail_checksum = reader.GetU64();
  if (!directory.chunks.empty() && directory.chunks.front().index_flag != 1) {
    throw CorruptStreamError("primacy: first chunk lacks a full index");
  }
  if (!directory.chunks.empty() && directory.tail_offset <= prev_offset) {
    throw CorruptStreamError("primacy: directory tail offset out of range");
  }
  if (directory.tail_offset > directory_begin ||
      directory.tail_offset < chunks_begin) {
    throw CorruptStreamError("primacy: directory tail offset out of range");
  }
  if (!reader.AtEnd()) {
    throw CorruptStreamError("primacy: trailing directory bytes");
  }
  return directory;
}

std::uint64_t ComputeHeaderTailChecksum(ByteSpan stream,
                                        const ChunkDirectory& directory,
                                        std::size_t chunks_begin) {
  Xxh64State state;
  state.Update(stream.first(chunks_begin));
  state.Update(stream.subspan(
      static_cast<std::size_t>(directory.tail_offset),
      static_cast<std::size_t>(directory.directory_offset -
                               directory.tail_offset)));
  return state.Digest();
}

ByteSpan OpenedStream::Record(std::size_t c) const {
  const std::uint64_t begin = directory->chunks[c].offset;
  const std::uint64_t end = c + 1 < directory->chunks.size()
                                ? directory->chunks[c + 1].offset
                                : directory->tail_offset;
  return stream.subspan(static_cast<std::size_t>(begin),
                        static_cast<std::size_t>(end - begin));
}

OpenedStream OpenStream(ByteSpan stream, bool verify) {
  OpenedStream opened;
  opened.stream = stream;
  ByteReader reader(stream);
  opened.header = ReadStreamHeader(reader);
  const StreamHeader& header = opened.header;
  opened.chunks_begin = reader.Offset();
  opened.total_bytes = header.total_bytes;
  if (header.stored) {
    opened.stored = reader.GetBlock();
    if (opened.stored.size() != header.total_bytes) {
      throw CorruptStreamError("primacy: stored payload size mismatch");
    }
    if (header.version >= kFormatVersion3) {
      // v3 stored streams end with an XXH64 of every preceding byte.
      const std::size_t covered = reader.Offset();
      const std::uint64_t checksum = reader.GetU64();
      if (verify && Xxh64(stream.first(covered)) != checksum) {
        throw CorruptStreamError("primacy: stored stream checksum mismatch");
      }
    }
    return opened;
  }
  // The sentinel leaves the total to what follows the records: the v1
  // trailer, or the v3 directory. v2 writers never streamed.
  const bool streamed = header.total_bytes == kStreamingTotal;
  if (header.version < kFormatVersion2) {
    opened.streamed = streamed;
    if (streamed) opened.total_bytes = 0;
    return opened;
  }
  if (streamed && header.version < kFormatVersion3) {
    throw CorruptStreamError("primacy: streamed total in a v2 header");
  }

  opened.directory =
      ReadChunkDirectory(stream, opened.chunks_begin, header.version);
  const ChunkDirectory& directory = *opened.directory;
  opened.verify_records = verify && directory.has_checksums;
  // The header and tail block are small; verifying them keeps every byte a
  // range read depends on covered without hashing untouched chunk records.
  if (opened.verify_records &&
      ComputeHeaderTailChecksum(stream, directory, opened.chunks_begin) !=
          directory.header_tail_checksum) {
    throw CorruptStreamError("primacy: header/tail checksum mismatch");
  }
  // A streamed total is bounded only so that its byte count cannot wrap.
  const std::uint64_t total_elements =
      streamed ? kStreamingTotal / header.width - 1
               : header.total_bytes / header.width;
  opened.starts.resize(directory.chunks.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < directory.chunks.size(); ++i) {
    opened.starts[i] = sum;
    // Overflow-safe running total: a tampered entry may not push the sum
    // past the header's element count (the wrapped sum could otherwise land
    // back on the expected total and drive out-of-bounds output slices).
    if (directory.chunks[i].elements > total_elements - sum) {
      throw CorruptStreamError("primacy: directory element total mismatch");
    }
    sum += directory.chunks[i].elements;
  }
  if (!streamed && sum != total_elements) {
    throw CorruptStreamError("primacy: directory element total mismatch");
  }
  // The tail block (bytes beyond a whole number of elements) sits between
  // the last chunk record and the directory.
  ByteReader tail(stream.subspan(
      static_cast<std::size_t>(directory.tail_offset),
      static_cast<std::size_t>(directory.directory_offset -
                               directory.tail_offset)));
  opened.tail = tail.GetBlock();
  if (!tail.AtEnd()) {
    throw CorruptStreamError("primacy: bytes between tail and directory");
  }
  if (opened.tail.size() >= header.width) {
    throw CorruptStreamError("primacy: tail size mismatch");
  }
  opened.total_bytes = sum * header.width + opened.tail.size();
  if (!streamed && opened.total_bytes != header.total_bytes) {
    throw CorruptStreamError("primacy: tail size mismatch");
  }
  return opened;
}

StreamAssembler::StreamAssembler(const PrimacyOptions& options,
                                 std::uint64_t total_bytes, Sink sink)
    : sink_(std::move(sink)), width_(ElementWidth(options.precision)) {
  Bytes header;
  WriteStreamHeader(header, options, total_bytes);
  header_tail_.Update(header);
  Emit(header);
}

void StreamAssembler::Emit(ByteSpan data) {
  stats_.output_bytes += data.size();
  sink_(data);
}

void StreamAssembler::AppendRecord(ByteSpan record,
                                   const ChunkRecordStats& chunk) {
  const std::uint8_t index_flag =
      chunk.emitted_full_index ? 1 : (chunk.emitted_delta_index ? 2 : 0);
  directory_.chunks.push_back(
      {stats_.output_bytes, chunk.elements, index_flag, Xxh64(record)});
  PrimacyStats one;
  one.chunks = 1;
  one.indexes_emitted = chunk.emitted_full_index ? 1 : 0;
  one.delta_indexes = chunk.emitted_delta_index ? 1 : 0;
  one.input_bytes = chunk.elements * width_;
  one.index_bytes = chunk.index_bytes;
  one.id_compressed_bytes = chunk.id_compressed_bytes;
  one.mantissa_stream_bytes = chunk.mantissa_stream_bytes;
  one.mantissa_raw_bytes = chunk.mantissa_raw_bytes;
  one.mean_compressible_fraction = chunk.compressible_fraction;
  one.top_byte_frequency_before = chunk.top_byte_frequency_before;
  one.top_byte_frequency_after = chunk.top_byte_frequency_after;
  one.stage = chunk.stage;
  stats_.Accumulate(one);
  Emit(record);
}

void StreamAssembler::Finish(ByteSpan tail) {
  directory_.tail_offset = stats_.output_bytes;
  Bytes out;
  PutBlock(out, tail);
  header_tail_.Update(out);
  directory_.header_tail_checksum = header_tail_.Digest();
  stats_.input_bytes += tail.size();
  AppendChunkDirectory(out, directory_);
  Emit(out);
}

void ThrowChunkError(std::size_t chunk, std::uint64_t offset,
                     const std::string& what) {
  throw CorruptStreamError("primacy: chunk " + std::to_string(chunk) +
                           " (record at byte " + std::to_string(offset) +
                           "): " + what);
}

bool DecodeChunkRecord(ChunkDecoder& decoder, ByteSpan record,
                       std::size_t chunk, const ChunkDirectoryEntry& entry,
                       bool verify, MutableByteSpan out) {
  if (verify && !decoder.VerifyRecord(record, entry.checksum)) {
    ThrowChunkError(chunk, entry.offset, "checksum mismatch");
  }
  WithChunkContext(chunk, entry.offset, [&] {
    ByteReader reader(record);
    if (reader.GetVarint() != entry.elements) {
      throw CorruptStreamError("primacy: directory element count mismatch");
    }
    decoder.DecodeChunkInto(reader, entry.elements, out);
  });
  return verify;
}

std::shared_ptr<const Codec> ResolveSolver(const std::string& name) {
  RegisterBuiltinCodecs();
  return std::shared_ptr<const Codec>(CreateCodec(name));
}

}  // namespace primacy::internal
