#include "core/streaming.h"

#include "compress/registry.h"
#include "telemetry/trace.h"
#include "util/checksum.h"
#include "util/error.h"

namespace primacy {

PrimacyStreamWriter::PrimacyStreamWriter(Sink sink, PrimacyOptions options)
    : sink_(std::move(sink)),
      options_(std::move(options)),
      solver_(internal::ResolveSolver(options_.solver)),
      encoder_(options_, *solver_) {
  if (!sink_) {
    throw InvalidArgumentError("PrimacyStreamWriter: null sink");
  }
  if (options_.chunk_bytes < ElementWidth(options_.precision)) {
    throw InvalidArgumentError("PrimacyStreamWriter: chunk_bytes too small");
  }
  Bytes header;
  // Streaming mode: the total byte count is unknown up front; the header
  // stores the sentinel and the real count follows the end-of-chunks
  // sentinel in the trailer. Streamed streams stay v1: the writer cannot
  // seek back to plant a directory, and the reader is sequential anyway.
  internal::WriteStreamHeader(header, options_, kStreamingTotal,
                              /*stored=*/false, internal::kFormatVersion1);
  Emit(header);
}

void PrimacyStreamWriter::Emit(ByteSpan data) {
  stats_.output_bytes += data.size();
  sink_(data);
}

void PrimacyStreamWriter::Append(std::span<const double> values) {
  if (options_.precision != Precision::kDouble) {
    throw InvalidArgumentError(
        "PrimacyStreamWriter: double input requires Precision::kDouble");
  }
  AppendBytes(AsBytes(values));
}

void PrimacyStreamWriter::Append(std::span<const float> values) {
  if (options_.precision != Precision::kSingle) {
    throw InvalidArgumentError(
        "PrimacyStreamWriter: float input requires Precision::kSingle");
  }
  AppendBytes(AsBytes(values));
}

void PrimacyStreamWriter::AppendBytes(ByteSpan data) {
  if (finished_) {
    throw InvalidArgumentError("PrimacyStreamWriter: Append after Finish");
  }
  primacy::AppendBytes(pending_, data);
  stats_.input_bytes += data.size();
  EncodeBufferedChunks(/*flush_partial=*/false);
}

void PrimacyStreamWriter::EncodeBufferedChunks(bool flush_partial) {
  const std::size_t width = ElementWidth(options_.precision);
  const std::size_t chunk_bytes =
      (options_.chunk_bytes / width) * width;  // whole elements per chunk
  std::size_t offset = 0;
  Bytes records;
  while (pending_.size() - offset >= chunk_bytes) {
    telemetry::TraceSpan span("primacy.stream_encode_chunk", "chunk",
                              static_cast<std::uint64_t>(stats_.chunks));
    AccumulateChunkStats(
        stats_, encoder_.EncodeChunk(
                    ByteSpan(pending_).subspan(offset, chunk_bytes), records));
    offset += chunk_bytes;
  }
  if (flush_partial) {
    const std::size_t remaining = pending_.size() - offset;
    const std::size_t whole = (remaining / width) * width;
    if (whole > 0) {
      AccumulateChunkStats(
          stats_, encoder_.EncodeChunk(
                      ByteSpan(pending_).subspan(offset, whole), records));
      offset += whole;
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(offset));
  if (!records.empty()) Emit(records);
}

PrimacyStats PrimacyStreamWriter::Finish() {
  if (finished_) {
    throw InvalidArgumentError("PrimacyStreamWriter: double Finish");
  }
  finished_ = true;
  EncodeBufferedChunks(/*flush_partial=*/true);

  Bytes trailer;
  PutVarint(trailer, 0);  // end-of-chunks sentinel (chunk counts are >= 1)
  PutBlock(trailer, pending_);  // partial-element tail bytes
  PutVarint(trailer, stats_.input_bytes);
  pending_.clear();
  Emit(trailer);

  FinalizeChunkStatMeans(stats_);
  return stats_;
}

PrimacyStreamReader::PrimacyStreamReader(ByteSpan stream,
                                         bool verify_checksums)
    : stream_(stream),
      reader_(stream),
      header_(internal::ReadStreamHeader(reader_)) {
  solver_ = CreateCodec(header_.solver_name);
  decoder_ = std::make_unique<ChunkDecoder>(*solver_, header_.linearization,
                                            header_.width);
  if (header_.version >= internal::kFormatVersion3 && !header_.stored &&
      header_.total_bytes != kStreamingTotal) {
    // One-shot v3: the directory at the end holds the record checksums. It
    // is always loaded (its own checksum is verified inside
    // ReadChunkDirectory — corrupt bounds must never be trusted); the
    // per-record and header/tail checks respect `verify_checksums`.
    directory_ = internal::ReadChunkDirectory(stream_, reader_.Offset(),
                                              header_.version);
    verify_ = verify_checksums;
    if (verify_ &&
        internal::ComputeHeaderTailChecksum(stream_, *directory_,
                                            reader_.Offset()) !=
            directory_->header_tail_checksum) {
      throw CorruptStreamError("primacy: header/tail checksum mismatch");
    }
  } else if (header_.version >= internal::kFormatVersion3) {
    verify_ = verify_checksums;
  }
}

const telemetry::StageBreakdown& PrimacyStreamReader::stage_breakdown() const {
  return decoder_->stage_breakdown();
}

bool PrimacyStreamReader::NextChunk(Bytes& out) {
  if (saw_trailer_) return false;
  telemetry::TraceSpan span("primacy.stream_next_chunk", "chunk",
                            static_cast<std::uint64_t>(chunk_index_));
  if (header_.stored) {
    const ByteSpan raw = reader_.GetBlock();
    if (raw.size() != header_.total_bytes) {
      throw CorruptStreamError("primacy: stored payload size mismatch");
    }
    if (header_.version >= internal::kFormatVersion3) {
      // v3 stored streams end with an XXH64 of every preceding byte.
      const std::size_t covered = reader_.Offset();
      const std::uint64_t stored_checksum = reader_.GetU64();
      if (verify_ && Xxh64(stream_.first(covered)) != stored_checksum) {
        throw CorruptStreamError("primacy: stored stream checksum mismatch");
      }
    }
    AppendBytes(out, raw);
    decoded_bytes_ += raw.size();
    saw_trailer_ = true;
    return false;
  }
  if (header_.total_bytes != kStreamingTotal) {
    // One-shot stream: chunk records until total_bytes are produced.
    const std::uint64_t total_elements = header_.total_bytes / header_.width;
    if (decoded_bytes_ / header_.width >= total_elements) {
      const ByteSpan tail = reader_.GetBlock();
      if (decoded_bytes_ + tail.size() != header_.total_bytes) {
        throw CorruptStreamError("primacy: tail size mismatch");
      }
      AppendBytes(out, tail);
      decoded_bytes_ += tail.size();
      saw_trailer_ = true;
      return false;
    }
    if (verify_ && directory_.has_value()) {
      if (chunk_index_ >= directory_->chunks.size()) {
        throw CorruptStreamError(
            "primacy: more chunk records than directory entries");
      }
      const internal::ChunkDirectoryEntry& entry =
          directory_->chunks[chunk_index_];
      const std::uint64_t end = chunk_index_ + 1 < directory_->chunks.size()
                                    ? directory_->chunks[chunk_index_ + 1].offset
                                    : directory_->tail_offset;
      if (reader_.Offset() != entry.offset) {
        throw CorruptStreamError("primacy: chunk record offset mismatch");
      }
      const ByteSpan record = stream_.subspan(
          static_cast<std::size_t>(entry.offset),
          static_cast<std::size_t>(end - entry.offset));
      if (!decoder_->VerifyRecord(record, entry.checksum)) {
        throw CorruptStreamError(
            "primacy: chunk " + std::to_string(chunk_index_) +
            " (record at byte " + std::to_string(entry.offset) +
            "): checksum mismatch");
      }
    }
    const std::uint64_t count = reader_.GetVarint();
    if (count == 0 ||
        decoded_bytes_ / header_.width + count > total_elements) {
      throw CorruptStreamError("primacy: bad chunk element count");
    }
    decoder_->DecodeChunk(reader_, count, out);
    decoded_bytes_ += count * header_.width;
    ++chunk_index_;
    return true;
  }
  // Streaming stream: records until the 0 sentinel, then tail + total.
  const std::uint64_t count = reader_.GetVarint();
  if (count == 0) {
    const ByteSpan tail = reader_.GetBlock();
    AppendBytes(out, tail);
    decoded_bytes_ += tail.size();
    const std::uint64_t declared_total = reader_.GetVarint();
    if (declared_total != decoded_bytes_) {
      throw CorruptStreamError("primacy: trailer total mismatch");
    }
    saw_trailer_ = true;
    return false;
  }
  decoder_->DecodeChunk(reader_, count, out);
  decoded_bytes_ += count * header_.width;
  return true;
}

std::vector<double> PrimacyStreamReader::ReadAllDoubles() {
  if (header_.width != 8) {
    throw InvalidArgumentError(
        "PrimacyStreamReader: stream holds single-precision data");
  }
  Bytes out;
  while (NextChunk(out)) {
  }
  if (out.size() % 8 != 0) {
    throw CorruptStreamError("primacy: stream is not a whole double array");
  }
  return FromBytes<double>(out);
}

}  // namespace primacy
