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
      solver_(CreateCodec(opened_.header.solver_name)),
      decoder_(std::make_unique<ChunkDecoder>(
          *solver_, opened_.header.linearization, opened_.header.width)) {}

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
  if (opened_.header.stored) return Finish(out, opened_.stored);
  // The directory locates each record and its element count.
  const auto& chunks = opened_.directory->chunks;
  if (chunk_index_ == chunks.size()) return Finish(out, opened_.tail);
  const internal::ChunkDirectoryEntry& entry = chunks[chunk_index_];
  const std::size_t old_size = out.size();
  out.resize(old_size +
             static_cast<std::size_t>(entry.elements * opened_.header.width));
  internal::DecodeChunkRecord(*decoder_, opened_.Record(chunk_index_),
                              chunk_index_, entry, opened_.verify_records, 0,
                              MutableByteSpan(out).subspan(old_size));
  ++chunk_index_;
  return true;
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
