#include "core/streaming.h"

#include "compress/registry.h"
#include "telemetry/trace.h"
#include "util/error.h"

namespace primacy {
namespace {

/// Rejects a writer configuration before its header reaches the sink.
PrimacyOptions Validated(const PrimacyStreamWriter::Sink& sink,
                         PrimacyOptions options) {
  if (!sink) {
    throw InvalidArgumentError("PrimacyStreamWriter: null sink");
  }
  if (options.chunk_bytes < ElementWidth(options.precision)) {
    throw InvalidArgumentError("PrimacyStreamWriter: chunk_bytes too small");
  }
  return options;
}

}  // namespace

PrimacyStreamWriter::PrimacyStreamWriter(Sink sink, PrimacyOptions options)
    : options_(Validated(sink, std::move(options))),
      solver_(internal::ResolveSolver(options_.solver)),
      encoder_(options_, *solver_),
      assembler_(options_, kStreamingTotal, std::move(sink)) {}

void PrimacyStreamWriter::AppendBytes(ByteSpan data) {
  if (finished_) {
    throw InvalidArgumentError("PrimacyStreamWriter: Append after Finish");
  }
  primacy::AppendBytes(pending_, data);
  EncodeBufferedChunks(/*flush_partial=*/false);
}

void PrimacyStreamWriter::EncodeBufferedChunks(bool flush_partial) {
  const std::size_t width = ElementWidth(options_.precision);
  const std::size_t chunk_bytes =
      (options_.chunk_bytes / width) * width;  // whole elements per chunk
  std::size_t offset = 0;
  Bytes record;
  const auto encode = [&](std::size_t bytes) {
    record.clear();
    const ChunkRecordStats chunk = encoder_.EncodeChunk(
        ByteSpan(pending_).subspan(offset, bytes), record);
    assembler_.AppendRecord(record, chunk);
    offset += bytes;
  };
  while (pending_.size() - offset >= chunk_bytes) {
    telemetry::TraceSpan span("primacy.stream_encode_chunk", "chunk",
                              static_cast<std::uint64_t>(stats().chunks));
    encode(chunk_bytes);
  }
  const std::size_t whole = (pending_.size() - offset) / width * width;
  if (flush_partial && whole > 0) encode(whole);
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(offset));
}

PrimacyStats PrimacyStreamWriter::Finish() {
  if (finished_) {
    throw InvalidArgumentError("PrimacyStreamWriter: double Finish");
  }
  finished_ = true;
  EncodeBufferedChunks(/*flush_partial=*/true);
  assembler_.Finish(pending_);  // partial-element tail bytes
  pending_.clear();
  return stats();
}

PrimacyStreamReader::PrimacyStreamReader(ByteSpan stream,
                                         bool verify_checksums)
    : opened_(internal::OpenStream(stream, verify_checksums)),
      reader_(stream) {
  reader_.GetRaw(opened_.chunks_begin);  // v1 records follow the header
  solver_ = CreateCodec(opened_.header.solver_name);
  decoder_ = std::make_unique<ChunkDecoder>(
      *solver_, opened_.header.linearization, opened_.header.width);
}

const telemetry::StageBreakdown& PrimacyStreamReader::stage_breakdown() const {
  return decoder_->stage_breakdown();
}

bool PrimacyStreamReader::Finish(Bytes& out, ByteSpan last) {
  AppendBytes(out, last);
  saw_trailer_ = true;
  return false;
}

bool PrimacyStreamReader::NextChunk(Bytes& out) {
  if (saw_trailer_) return false;
  telemetry::TraceSpan span("primacy.stream_next_chunk", "chunk",
                            static_cast<std::uint64_t>(chunk_index_));
  const internal::StreamHeader& header = opened_.header;
  if (header.stored) return Finish(out, opened_.stored);
  if (opened_.directory) {
    // v2/v3: the directory locates each record and its element count.
    const auto& chunks = opened_.directory->chunks;
    if (chunk_index_ == chunks.size()) return Finish(out, opened_.tail);
    const internal::ChunkDirectoryEntry& entry = chunks[chunk_index_];
    const std::size_t old_size = out.size();
    out.resize(old_size +
               static_cast<std::size_t>(entry.elements * header.width));
    internal::DecodeChunkRecord(*decoder_, opened_.Record(chunk_index_),
                                chunk_index_, entry, opened_.verify_records,
                                MutableByteSpan(out).subspan(old_size));
    ++chunk_index_;
    return true;
  }
  // v1: records until total_bytes are produced (one-shot) or until the 0
  // sentinel (streamed), then the tail block (and, streamed, the total).
  const std::uint64_t total_elements = opened_.total_elements();
  if (!opened_.streamed && decoded_bytes_ / header.width >= total_elements) {
    const ByteSpan tail = reader_.GetBlock();
    if (decoded_bytes_ + tail.size() != header.total_bytes) {
      throw CorruptStreamError("primacy: tail size mismatch");
    }
    return Finish(out, tail);
  }
  const bool decoded = internal::WithChunkContext(
      chunk_index_, reader_.Offset(), [&] {
        const std::uint64_t count = reader_.GetVarint();
        if (count == 0 && opened_.streamed) return false;
        if (!opened_.streamed &&
            (count == 0 ||
             decoded_bytes_ / header.width + count > total_elements)) {
          throw CorruptStreamError("primacy: bad chunk element count");
        }
        decoder_->DecodeChunk(reader_, count, out);
        decoded_bytes_ += count * header.width;
        return true;
      });
  if (decoded) {
    ++chunk_index_;
    return true;
  }
  // The total ends the stream: bytes after it (such as the directory of a
  // streamed v3 stream whose version byte was rewritten to 1) are damage.
  const ByteSpan tail = reader_.GetBlock();
  if (reader_.GetVarint() != decoded_bytes_ + tail.size() ||
      !reader_.AtEnd()) {
    throw CorruptStreamError("primacy: trailer total mismatch");
  }
  return Finish(out, tail);
}

std::vector<double> PrimacyStreamReader::ReadAllDoubles() {
  CheckElementWidth(sizeof(double), opened_.header.width);
  Bytes out;
  while (NextChunk(out)) {
  }
  if (out.size() % 8 != 0) {
    throw CorruptStreamError("primacy: stream is not a whole double array");
  }
  return FromBytes<double>(out);
}

}  // namespace primacy
