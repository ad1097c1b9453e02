#include "core/primacy_codec.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "bitstream/byte_io.h"
#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/chunk_pipeline.h"
#include "core/stream_format.h"
#include "core/streaming.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace primacy {
namespace {

/// Effective slot count for a threads knob (0 = hardware concurrency:
/// every pool worker plus the calling thread).
std::size_t EffectiveSlots(std::size_t threads_option) {
  return threads_option == 0 ? SharedThreadPool().num_threads() + 1
                             : threads_option;
}

/// Per-chunk element offsets within the decoded output; validates the
/// directory's element total against the header.
std::vector<std::uint64_t> ElementStarts(
    const internal::ChunkDirectory& directory, std::uint64_t total_elements) {
  std::vector<std::uint64_t> starts(directory.chunks.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < directory.chunks.size(); ++i) {
    starts[i] = sum;
    // Overflow-safe running total: a tampered entry may not push the sum
    // past the header's element count (the wrapped sum could otherwise land
    // back on the expected total and drive out-of-bounds output slices).
    if (directory.chunks[i].elements > total_elements - sum) {
      throw CorruptStreamError("primacy: directory element total mismatch");
    }
    sum += directory.chunks[i].elements;
  }
  if (sum != total_elements) {
    throw CorruptStreamError("primacy: directory element total mismatch");
  }
  return starts;
}

/// Re-throws a chunk-local decode failure as CorruptStreamError carrying
/// the chunk index and record byte offset — the context a restart tool
/// needs to localize damage in a checkpoint.
[[noreturn]] void ThrowChunkError(std::size_t chunk, std::uint64_t offset,
                                  const std::string& what) {
  throw CorruptStreamError("primacy: chunk " + std::to_string(chunk) +
                           " (record at byte " + std::to_string(offset) +
                           "): " + what);
}

/// Verifies chunk `c`'s record bytes against its directory checksum (v3
/// streams with verification enabled).
void VerifyChunkChecksum(ByteSpan record,
                         const internal::ChunkDirectory& directory,
                         std::size_t c, bool verify) {
  if (!verify || !directory.has_checksums) return;
  if (Xxh64(record) != directory.chunks[c].checksum) {
    ThrowChunkError(c, directory.chunks[c].offset, "checksum mismatch");
  }
}

/// View of chunk `c`'s record bytes, bounded by the next record (or the
/// tail block).
ByteSpan RecordSpan(ByteSpan stream, const internal::ChunkDirectory& directory,
                    std::size_t c) {
  const std::uint64_t begin = directory.chunks[c].offset;
  const std::uint64_t end = c + 1 < directory.chunks.size()
                                ? directory.chunks[c + 1].offset
                                : directory.tail_offset;
  return stream.subspan(static_cast<std::size_t>(begin),
                        static_cast<std::size_t>(end - begin));
}

/// Decodes chunk `c` through `decoder` into `out` (exactly the chunk's
/// extent), cross-checking the record's element count against the directory
/// and (v3 + verify) the record bytes against their checksum first. Any
/// decode failure is rethrown with the chunk index and byte offset.
/// Returns true when the record checksum was verified.
bool DecodeDirectoryChunk(ByteSpan stream,
                          const internal::ChunkDirectory& directory,
                          std::size_t c, ChunkDecoder& decoder,
                          MutableByteSpan out, bool verify) {
  const ByteSpan record = RecordSpan(stream, directory, c);
  const bool verified = verify && directory.has_checksums;
  if (verified && !decoder.VerifyRecord(record, directory.chunks[c].checksum)) {
    ThrowChunkError(c, directory.chunks[c].offset, "checksum mismatch");
  }
  try {
    ByteReader reader(record);
    const std::uint64_t count = reader.GetVarint();
    if (count != directory.chunks[c].elements) {
      throw CorruptStreamError("primacy: directory element count mismatch");
    }
    decoder.DecodeChunkInto(reader, count, out);
  } catch (const InternalError&) {
    throw;  // library invariant failure, not stream damage — keep the type
  } catch (const Error& e) {
    ThrowChunkError(c, directory.chunks[c].offset, e.what());
  }
  return verified;
}

/// Reads only the index block of chunk `c`'s record (for range-read index
/// chain resolution), validating the flag against the directory and (v3 +
/// verify) the record checksum.
ByteSpan ReadIndexBlock(ByteSpan stream,
                        const internal::ChunkDirectory& directory,
                        std::size_t c, bool verify) {
  const ByteSpan record = RecordSpan(stream, directory, c);
  VerifyChunkChecksum(record, directory, c, verify);
  try {
    ByteReader reader(record);
    reader.GetVarint();  // element count
    const std::uint8_t flag = reader.GetU8();
    if (flag != directory.chunks[c].index_flag) {
      throw CorruptStreamError("primacy: directory index flag mismatch");
    }
    return reader.GetBlock();
  } catch (const InternalError&) {
    throw;
  } catch (const Error& e) {
    ThrowChunkError(c, directory.chunks[c].offset, e.what());
  }
}

/// Content-derived 64-bit identity of a seekable stream: the stream half of
/// the decoded-block cache key. Hashes the header bytes plus the directory
/// payload and footer — for v3 the directory embeds every record's content
/// checksum, so the identity is a function of all payload bytes. v2
/// directories carry only structure (offsets/counts/flags), so a bounded
/// sample of each record's bytes is mixed in as well. Streams with equal
/// content hash equal (correct: their decoded chunks are identical);
/// distinct streams colliding requires a 64-bit XXH64 collision.
std::uint64_t StreamCacheIdentity(ByteSpan stream,
                                  const internal::ChunkDirectory& directory,
                                  std::size_t chunks_begin) {
  Xxh64State state;
  state.Update(stream.first(chunks_begin));
  state.Update(
      stream.subspan(static_cast<std::size_t>(directory.directory_offset)));
  if (!directory.has_checksums) {
    for (std::size_t c = 0; c < directory.chunks.size(); ++c) {
      const ByteSpan record = RecordSpan(stream, directory, c);
      const std::size_t sample = std::min<std::size_t>(record.size(), 16);
      state.Update(record.first(sample));
      state.Update(record.last(sample));
    }
  }
  return state.Digest();
}

/// Seeds `decoder` with the cross-chunk index state chunk `c` decodes
/// under: a no-op for a full-index chunk, otherwise the
/// kReuseWhenCorrelated chain is resolved — walk back to the nearest full
/// index, then replay the delta extensions up to (but not including) `c`.
/// Only index blocks are read (counted in accounting.index_loads); no chunk
/// payload is decoded.
void PrimeDecoderIndex(ByteSpan stream,
                       const internal::ChunkDirectory& directory,
                       std::size_t c, ChunkDecoder& decoder, bool verify,
                       PrimacyDecodeStats& accounting) {
  if (directory.chunks[c].index_flag == 1) return;
  std::size_t base = c;
  while (base > 0 && directory.chunks[base].index_flag != 1) --base;
  if (directory.chunks[base].index_flag != 1) {
    ThrowChunkError(c, directory.chunks[c].offset,
                    "no full index precedes chunk");
  }
  IdIndex index =
      DeserializeIndex(ReadIndexBlock(stream, directory, base, verify));
  ++accounting.index_loads;
  for (std::size_t i = base + 1; i < c; ++i) {
    if (directory.chunks[i].index_flag == 2) {
      index = index.Extended(DeserializeSequenceList(
          ReadIndexBlock(stream, directory, i, verify)));
      ++accounting.index_loads;
    }
  }
  decoder.SetIndex(std::move(index));
}

/// Sentinel for CachedChunkReader::state_for: the decoder's index state is
/// not known to match any chunk.
constexpr std::size_t kNoIndexState = static_cast<std::size_t>(-1);

/// Decodes directory chunks through the decoded-block cache: a hit is a
/// memcpy of the cached bytes, a miss decodes and inserts the result. With
/// a null cache this degenerates to exactly the uncached sequential decode
/// (every chunk a plain DecodeDirectoryChunk, no lookups, no priming beyond
/// what the caller's first chunk needs).
///
/// The subtlety is IndexMode::kReuseWhenCorrelated: skipping a chunk whose
/// record would have (re)built the decoder's index (flag 1 or 2) leaves the
/// decoder's cross-chunk state stale for the next miss. `state_for` tracks
/// which chunk the state is currently valid for; a miss on a reuse/delta
/// chunk whose state is stale re-primes via PrimeDecoderIndex first.
struct CachedChunkReader {
  ByteSpan stream;
  const internal::ChunkDirectory& directory;
  DecodedBlockCache* cache;  // null = uncached
  std::uint64_t stream_id;
  bool verify;
  std::size_t state_for;  // chunk the decoder's index state decodes

  /// Decodes chunk `c` into `out`, which must be exactly the chunk's
  /// decoded extent. Returns true when the record checksum was verified
  /// (always false for a cache hit — the bytes never re-enter the decoder).
  bool DecodeChunk(std::size_t c, ChunkDecoder& decoder, MutableByteSpan out,
                   PrimacyDecodeStats& accounting) {
    if (cache != nullptr) {
      if (DecodedBlockCache::Handle handle = cache->Lookup(stream_id, c)) {
        if (handle.data().size() != out.size()) {
          ThrowChunkError(c, directory.chunks[c].offset,
                          "cached chunk size mismatch");
        }
        std::memcpy(out.data(), handle.data().data(), out.size());
        ++accounting.cache_hits;
        if (directory.chunks[c].index_flag == 0) {
          // A reuse chunk leaves the index untouched: state valid for c is
          // equally valid for c + 1. Full/delta chunks rebuild state their
          // record carries — skipping them leaves the decoder stale.
          if (state_for == c) state_for = c + 1;
        } else {
          state_for = kNoIndexState;
        }
        return false;
      }
      ++accounting.cache_misses;
    }
    if (directory.chunks[c].index_flag != 1 && state_for != c) {
      PrimeDecoderIndex(stream, directory, c, decoder, verify, accounting);
    }
    const bool verified =
        DecodeDirectoryChunk(stream, directory, c, decoder, out, verify);
    state_for = c + 1;
    ++accounting.chunks_decoded;
    if (cache != nullptr) cache->Insert(stream_id, c, ToBytes(ByteSpan(out)));
    return verified;
  }
};

/// Best-effort adjacent-chunk prefetch after a range read: decodes up to
/// `prefetch_chunks` chunks past `clast` on the shared pool and inserts
/// them into `cache`, so a sequential scan's next range call finds them
/// warm. Only full-index chunks qualify (reuse/delta chunks would need the
/// caller's chain state), already-resident chunks are skipped, and each
/// task owns a copy of its record bytes — the caller's stream span may
/// dangle once the range call returns. Failures (corrupt record, solver
/// error) are swallowed: the chunk just stays cold, and the demand path
/// re-verifies and reports there.
void PrefetchAdjacentChunks(ByteSpan stream,
                            const internal::ChunkDirectory& directory,
                            const internal::StreamHeader& header,
                            const std::shared_ptr<DecodedBlockCache>& cache,
                            std::uint64_t stream_id, std::size_t clast,
                            std::size_t prefetch_chunks, bool verify,
                            PrimacyDecodeStats& accounting) {
  const std::size_t after = directory.chunks.size() - clast - 1;
  const std::size_t limit = clast + 1 + std::min(prefetch_chunks, after);
  for (std::size_t c = clast + 1; c < limit; ++c) {
    if (directory.chunks[c].index_flag != 1) continue;
    if (cache->Contains(stream_id, c)) continue;
    Bytes record = ToBytes(RecordSpan(stream, directory, c));
    SharedThreadPool().Submit(
        [record = std::move(record), cache, stream_id, c,
         solver_name = header.solver_name,
         linearization = header.linearization, width = header.width,
         elements = directory.chunks[c].elements,
         checksum = directory.chunks[c].checksum, verify] {
          try {
            if (verify && Xxh64(record) != checksum) return;
            const auto solver = CreateCodec(solver_name);
            ChunkDecoder decoder(*solver, linearization, width);
            ByteReader reader(record);
            const std::uint64_t n = reader.GetVarint();
            if (n != elements) return;
            Bytes decoded(static_cast<std::size_t>(n * width));
            decoder.DecodeChunkInto(reader, n, decoded);
            cache->Insert(stream_id, c, std::move(decoded));
          } catch (...) {
            // Best effort by contract; the demand path surfaces errors.
          }
        });
    ++accounting.prefetch_issued;
    if constexpr (telemetry::kEnabled) {
      static telemetry::Counter& prefetch_total =
          telemetry::MetricsRegistry::Global().GetCounter(
              "primacy_cache_prefetch_total");
      prefetch_total.Increment();
    }
  }
}

/// The tail block of a v2 stream (bytes beyond a whole number of elements),
/// which sits between the last chunk record and the directory.
ByteSpan ReadV2Tail(ByteSpan stream, const internal::ChunkDirectory& directory,
                    std::uint64_t expected_element_bytes,
                    std::uint64_t total_bytes) {
  ByteReader reader(stream.subspan(
      static_cast<std::size_t>(directory.tail_offset),
      static_cast<std::size_t>(directory.directory_offset -
                               directory.tail_offset)));
  const ByteSpan tail = reader.GetBlock();
  if (!reader.AtEnd()) {
    throw CorruptStreamError("primacy: bytes between tail and directory");
  }
  if (expected_element_bytes + tail.size() != total_bytes) {
    throw CorruptStreamError("primacy: tail size mismatch");
  }
  return tail;
}

/// Maximal runs of chunks starting at a full index: within a group chunks
/// depend on the running index state (flags 0/2); across groups they are
/// independent, which is the unit of parallel decode. Under kPerChunk every
/// chunk is flag 1 and thus its own group.
std::vector<std::pair<std::size_t, std::size_t>> IndexGroups(
    const internal::ChunkDirectory& directory) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t c = 0; c < directory.chunks.size(); ++c) {
    if (directory.chunks[c].index_flag == 1 || groups.empty()) {
      groups.emplace_back(c, 1);
    } else {
      ++groups.back().second;
    }
  }
  return groups;
}

/// Directory-driven decode of a v2/v3 stream body (everything but the
/// header). For v3 with verification on, the header/tail checksum is
/// checked up front and every chunk record against its directory checksum
/// before decoding.
Bytes DecodeSeekable(ByteSpan stream, const internal::StreamHeader& header,
                     std::size_t chunks_begin, const PrimacyOptions& options,
                     DecodedBlockCache* cache,
                     PrimacyDecodeStats& accounting) {
  const std::size_t threads_option = options.threads;
  const internal::ChunkDirectory directory =
      internal::ReadChunkDirectory(stream, chunks_begin, header.version);
  accounting.used_directory = true;
  const bool verify = options.verify_checksums && directory.has_checksums;
  if (verify &&
      internal::ComputeHeaderTailChecksum(stream, directory, chunks_begin) !=
          directory.header_tail_checksum) {
    throw CorruptStreamError("primacy: header/tail checksum mismatch");
  }
  const std::uint64_t total_elements = header.total_bytes / header.width;
  const std::vector<std::uint64_t> starts =
      ElementStarts(directory, total_elements);
  const std::uint64_t element_bytes = total_elements * header.width;
  const ByteSpan tail =
      ReadV2Tail(stream, directory, element_bytes, header.total_bytes);
  const std::uint64_t stream_id =
      cache != nullptr ? StreamCacheIdentity(stream, directory, chunks_begin)
                       : 0;

  Bytes out(static_cast<std::size_t>(header.total_bytes));
  const auto groups = IndexGroups(directory);
  // Per-group accounting (chunks decoded/verified, cache hits/misses),
  // folded in after the (possibly parallel) decode — workers never touch
  // shared counters.
  std::vector<PrimacyDecodeStats> per_group(groups.size());
  const auto decode_group = [&](ChunkDecoder& decoder, std::size_t g) {
    const auto [first, n] = groups[g];
    // state_for starts at the group's first chunk: groups begin at a full
    // index (or chunk 0), so the decoder needs no priming there, and a
    // corrupt flag-0 chunk 0 must fail in the decoder as it always has.
    CachedChunkReader chunks{stream, directory, cache,
                             stream_id, verify, first};
    for (std::size_t c = first; c < first + n; ++c) {
      per_group[g].chunks_verified += chunks.DecodeChunk(
          c, decoder,
          MutableByteSpan(out).subspan(
              static_cast<std::size_t>(starts[c] * header.width),
              static_cast<std::size_t>(directory.chunks[c].elements *
                                       header.width)),
          per_group[g]);
    }
  };

  const std::size_t slots =
      std::min(EffectiveSlots(threads_option), std::max<std::size_t>(
                                                   groups.size(), 1));
  if (slots > 1 && groups.size() > 1) {
    // One solver + decoder per slot, reused across that slot's groups
    // instead of constructed per chunk. Slots never run two groups at once,
    // so the per-slot state needs no locking.
    struct Slot {
      std::unique_ptr<const Codec> solver;
      std::optional<ChunkDecoder> decoder;
    };
    std::vector<Slot> slot_state(slots);
    SharedThreadPool().ParallelForSlots(
        groups.size(), threads_option, [&](std::size_t slot, std::size_t g) {
          Slot& s = slot_state[slot];
          if (!s.decoder) {
            s.solver = CreateCodec(header.solver_name);
            s.decoder.emplace(*s.solver, header.linearization, header.width);
          }
          decode_group(*s.decoder, g);
        });
    accounting.threads_used = slots;
    // Stage times fold after the barrier — workers never share counters.
    for (const Slot& s : slot_state) {
      if (s.decoder) accounting.stage.Accumulate(s.decoder->stage_breakdown());
    }
  } else {
    const auto solver = CreateCodec(header.solver_name);
    ChunkDecoder decoder(*solver, header.linearization, header.width);
    for (std::size_t g = 0; g < groups.size(); ++g) decode_group(decoder, g);
    accounting.stage.Accumulate(decoder.stage_breakdown());
  }
  for (const PrimacyDecodeStats& g : per_group) {
    accounting.chunks_decoded += g.chunks_decoded;
    accounting.chunks_verified += g.chunks_verified;
    accounting.cache_hits += g.cache_hits;
    accounting.cache_misses += g.cache_misses;
    accounting.index_loads += g.index_loads;
  }

  if (!tail.empty()) {
    std::memcpy(out.data() + element_bytes, tail.data(), tail.size());
  }
  return out;
}

}  // namespace

PrimacyCompressor::PrimacyCompressor(PrimacyOptions options)
    : options_(std::move(options)),
      solver_(internal::ResolveSolver(options_.solver)) {
  if (options_.chunk_bytes < ElementWidth(options_.precision)) {
    throw InvalidArgumentError("PrimacyCompressor: chunk_bytes too small");
  }
}

Bytes PrimacyCompressor::Compress(std::span<const double> values,
                                  PrimacyStats* stats) const {
  if (options_.precision != Precision::kDouble) {
    throw InvalidArgumentError(
        "PrimacyCompressor: double input requires Precision::kDouble");
  }
  return CompressBytes(AsBytes(values), stats);
}

Bytes PrimacyCompressor::Compress(std::span<const float> values,
                                  PrimacyStats* stats) const {
  if (options_.precision != Precision::kSingle) {
    throw InvalidArgumentError(
        "PrimacyCompressor: float input requires Precision::kSingle");
  }
  return CompressBytes(AsBytes(values), stats);
}

Bytes PrimacyCompressor::CompressBytes(ByteSpan data,
                                       PrimacyStats* stats) const {
  return CompressBytesImpl(data, /*reuse=*/nullptr, stats);
}

Bytes PrimacyCompressor::CompressBytesWith(ChunkEncoder& encoder,
                                           ByteSpan data,
                                           PrimacyStats* stats) const {
  return CompressBytesImpl(data, &encoder, stats);
}

Bytes PrimacyCompressor::CompressBytesImpl(ByteSpan data, ChunkEncoder* reuse,
                                           PrimacyStats* stats) const {
  telemetry::TraceSpan span("primacy.compress", "bytes",
                            static_cast<std::uint64_t>(data.size()));
  const std::size_t width = ElementWidth(options_.precision);
  const std::size_t tail_bytes = data.size() % width;
  const ByteSpan body = data.first(data.size() - tail_bytes);
  const std::size_t chunk_elements = options_.chunk_bytes / width;

  Bytes out;
  internal::WriteStreamHeader(out, options_, data.size());

  PrimacyStats accounting;
  accounting.input_bytes = data.size();

  const std::size_t total_elements = body.size() / width;
  const std::size_t chunk_count =
      total_elements == 0
          ? 0
          : (total_elements + chunk_elements - 1) / chunk_elements;
  std::vector<ChunkRecordStats> chunk_stats(chunk_count);
  internal::ChunkDirectory directory;
  directory.chunks.resize(chunk_count);

  // A caller-supplied encoder pins the serial path: reuse exists to keep
  // one worker's scratch hot, and its output must stay byte-identical to a
  // fresh serial encode.
  const bool parallel = reuse == nullptr && options_.threads != 1 &&
                        options_.index_mode == IndexMode::kPerChunk &&
                        chunk_count > 1;
  if (parallel) {
    // Chunks are independent under kPerChunk indexing: encode them into
    // per-chunk buffers across the shared pool, then concatenate in order.
    // Each *slot* (not each chunk) owns a solver + encoder instance, reused
    // for every chunk that slot claims.
    std::vector<Bytes> records(chunk_count);
    struct Slot {
      std::unique_ptr<const Codec> solver;
      std::optional<ChunkEncoder> encoder;
    };
    std::vector<Slot> slots(
        std::min(EffectiveSlots(options_.threads), chunk_count));
    SharedThreadPool().ParallelForSlots(
        chunk_count, options_.threads, [&](std::size_t slot, std::size_t i) {
          Slot& s = slots[slot];
          if (!s.encoder) {
            s.solver = CreateCodec(options_.solver);
            s.encoder.emplace(options_, *s.solver);
          }
          const std::size_t first = i * chunk_elements;
          const std::size_t count =
              std::min(chunk_elements, total_elements - first);
          chunk_stats[i] = s.encoder->EncodeChunk(
              body.subspan(first * width, count * width), records[i]);
        });
    for (std::size_t i = 0; i < chunk_count; ++i) {
      directory.chunks[i].offset = out.size();
      AppendBytes(out, records[i]);
    }
  } else {
    std::optional<ChunkEncoder> local;
    ChunkEncoder* encoder = reuse;
    if (encoder == nullptr) {
      local.emplace(options_, *solver_);
      encoder = &*local;
    } else {
      encoder->Reset();  // clear cross-chunk index state from prior streams
    }
    for (std::size_t i = 0; i < chunk_count; ++i) {
      const std::size_t first = i * chunk_elements;
      const std::size_t count =
          std::min(chunk_elements, total_elements - first);
      directory.chunks[i].offset = out.size();
      chunk_stats[i] =
          encoder->EncodeChunk(body.subspan(first * width, count * width), out);
    }
  }

  for (std::size_t i = 0; i < chunk_count; ++i) {
    const ChunkRecordStats& cs = chunk_stats[i];
    directory.chunks[i].elements = cs.elements;
    directory.chunks[i].index_flag =
        cs.emitted_full_index ? 1 : (cs.emitted_delta_index ? 2 : 0);
    AccumulateChunkStats(accounting, cs);
  }
  FinalizeChunkStatMeans(accounting);

  directory.tail_offset = out.size();
  PutBlock(out, data.subspan(data.size() - tail_bytes, tail_bytes));
  internal::AppendChunkDirectory(out, directory);

  // Whole-stream stored fallback: adversarial inputs (near-unique high-order
  // pairs) would otherwise pay index metadata with no compression to show
  // for it. A stored stream is header + one raw block + a trailing checksum
  // of both (no directory: the payload is already randomly accessible).
  if (out.size() > data.size() + 64) {
    Bytes stored;
    internal::WriteStreamHeader(stored, options_, data.size(),
                                /*stored=*/true);
    PutBlock(stored, data);
    PutU64(stored, Xxh64(stored));
    accounting = PrimacyStats{};
    accounting.input_bytes = data.size();
    out = std::move(stored);
  }

  if (stats != nullptr) {
    accounting.output_bytes = out.size();
    *stats = accounting;
  }
  return out;
}

PrimacyDecompressor::PrimacyDecompressor(PrimacyOptions options)
    : options_(std::move(options)),
      cache_(options_.block_cache != nullptr ? options_.block_cache
                                             : MakeBlockCache(options_.cache)) {
  RegisterBuiltinCodecs();
}

Bytes PrimacyDecompressor::DecompressBytes(ByteSpan stream,
                                           PrimacyDecodeStats* stats) const {
  telemetry::TraceSpan span("primacy.decompress", "bytes",
                            static_cast<std::uint64_t>(stream.size()));
  PrimacyDecodeStats accounting;
  ByteReader reader(stream);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  if (header.total_bytes == ~std::uint64_t{0}) {
    throw CorruptStreamError(
        "primacy: streamed stream; use PrimacyStreamReader");
  }
  Bytes out;
  if (header.stored) {
    const ByteSpan raw = reader.GetBlock();
    if (raw.size() != header.total_bytes) {
      throw CorruptStreamError("primacy: stored payload size mismatch");
    }
    if (header.version >= internal::kFormatVersion3) {
      const std::size_t covered = reader.Offset();
      const std::uint64_t checksum = reader.GetU64();
      if (options_.verify_checksums &&
          Xxh64(stream.first(covered)) != checksum) {
        throw CorruptStreamError("primacy: stored stream checksum mismatch");
      }
    }
    out = ToBytes(raw);
  } else if (header.version >= internal::kFormatVersion2) {
    out = DecodeSeekable(stream, header, reader.Offset(), options_,
                         cache_.get(), accounting);
  } else {
    const auto solver = CreateCodec(header.solver_name);
    const std::uint64_t total_elements = header.total_bytes / header.width;
    out.reserve(std::min<std::uint64_t>(header.total_bytes, 1u << 26));
    ChunkDecoder decoder(*solver, header.linearization, header.width);
    std::uint64_t decoded_elements = 0;
    while (decoded_elements < total_elements) {
      const std::size_t record_offset = reader.Offset();
      try {
        const std::uint64_t count = reader.GetVarint();
        if (count == 0 || decoded_elements + count > total_elements) {
          throw CorruptStreamError("primacy: bad chunk element count");
        }
        decoder.DecodeChunk(reader, count, out);
        decoded_elements += count;
      } catch (const InternalError&) {
        throw;
      } catch (const Error& e) {
        ThrowChunkError(accounting.chunks_decoded, record_offset, e.what());
      }
      ++accounting.chunks_decoded;
    }
    accounting.stage.Accumulate(decoder.stage_breakdown());
    const ByteSpan tail = reader.GetBlock();
    if (out.size() + tail.size() != header.total_bytes) {
      throw CorruptStreamError("primacy: tail size mismatch");
    }
    AppendBytes(out, tail);
  }
  if (stats != nullptr) {
    accounting.output_bytes = out.size();
    *stats = accounting;
  }
  return out;
}

std::vector<double> PrimacyDecompressor::Decompress(
    ByteSpan stream, PrimacyDecodeStats* stats) const {
  const Bytes raw = DecompressBytes(stream, stats);
  if (raw.size() % 8 != 0) {
    throw CorruptStreamError("primacy: stream is not a whole double array");
  }
  return FromBytes<double>(raw);
}

std::vector<float> PrimacyDecompressor::DecompressSingle(
    ByteSpan stream, PrimacyDecodeStats* stats) const {
  const Bytes raw = DecompressBytes(stream, stats);
  if (raw.size() % 4 != 0) {
    throw CorruptStreamError("primacy: stream is not a whole float array");
  }
  return FromBytes<float>(raw);
}

Bytes PrimacyDecompressor::DecompressRangeImpl(ByteSpan stream,
                                               std::uint64_t first_element,
                                               std::uint64_t count,
                                               std::size_t expected_width,
                                               PrimacyDecodeStats* stats) const {
  telemetry::TraceSpan span("primacy.range_read", "elements", count);
  PrimacyDecodeStats accounting;
  ByteReader reader(stream);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  if (header.total_bytes == ~std::uint64_t{0}) {
    throw CorruptStreamError(
        "primacy: streamed stream; use PrimacyStreamReader");
  }
  if (expected_width != 0 && header.width != expected_width) {
    throw InvalidArgumentError(
        "primacy: stream element width does not match the requested type");
  }
  const std::uint64_t width = header.width;
  const std::uint64_t total_elements = header.total_bytes / width;
  if (first_element > total_elements ||
      count > total_elements - first_element) {
    throw InvalidArgumentError("primacy: element range out of bounds");
  }
  const auto finish = [&](Bytes result) {
    if (stats != nullptr) {
      accounting.output_bytes = result.size();
      *stats = accounting;
    }
    return result;
  };
  if (count == 0) return finish(Bytes{});

  if (header.stored) {
    const ByteSpan raw = reader.GetBlock();
    if (raw.size() != header.total_bytes) {
      throw CorruptStreamError("primacy: stored payload size mismatch");
    }
    return finish(ToBytes(
        raw.subspan(static_cast<std::size_t>(first_element * width),
                    static_cast<std::size_t>(count * width))));
  }
  if (header.version < internal::kFormatVersion2) {
    throw InvalidArgumentError(
        "primacy: DecompressRange requires a v2+ stream with a chunk "
        "directory (v1 streams decode sequentially only)");
  }

  const internal::ChunkDirectory directory =
      internal::ReadChunkDirectory(stream, reader.Offset(), header.version);
  accounting.used_directory = true;
  const bool verify = options_.verify_checksums && directory.has_checksums;
  // The header and tail block are small; verifying them keeps every byte a
  // range read depends on covered without hashing untouched chunk records.
  if (verify && internal::ComputeHeaderTailChecksum(stream, directory,
                                                    reader.Offset()) !=
                    directory.header_tail_checksum) {
    throw CorruptStreamError("primacy: header/tail checksum mismatch");
  }
  const std::vector<std::uint64_t> starts =
      ElementStarts(directory, total_elements);
  // total_elements >= count > 0, so there is at least one chunk.
  const auto chunk_of = [&](std::uint64_t element) {
    return static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), element) -
        starts.begin() - 1);
  };
  const std::size_t cfirst = chunk_of(first_element);
  const std::size_t clast = chunk_of(first_element + count - 1);
  const std::uint64_t stream_id =
      cache_ != nullptr ? StreamCacheIdentity(stream, directory,
                                              reader.Offset())
                        : 0;

  const auto solver = CreateCodec(header.solver_name);
  ChunkDecoder decoder(*solver, header.linearization, header.width);
  // state_for starts unknown: the first decoded chunk primes the decoder's
  // index chain (a no-op when it carries a full index).
  CachedChunkReader chunks{stream,    directory, cache_.get(),
                           stream_id, verify,    kNoIndexState};

  Bytes result(static_cast<std::size_t>(count * width));
  Bytes scratch;
  for (std::size_t c = cfirst; c <= clast; ++c) {
    const std::uint64_t chunk_first = starts[c];
    const std::uint64_t chunk_count = directory.chunks[c].elements;
    const bool fully_inside = chunk_first >= first_element &&
                              chunk_first + chunk_count <=
                                  first_element + count;
    if (fully_inside) {
      accounting.chunks_verified += chunks.DecodeChunk(
          c, decoder,
          MutableByteSpan(result).subspan(
              static_cast<std::size_t>((chunk_first - first_element) * width),
              static_cast<std::size_t>(chunk_count * width)),
          accounting);
    } else {
      scratch.resize(static_cast<std::size_t>(chunk_count * width));
      accounting.chunks_verified +=
          chunks.DecodeChunk(c, decoder, scratch, accounting);
      const std::uint64_t overlap_first =
          std::max(chunk_first, first_element);
      const std::uint64_t overlap_end =
          std::min(chunk_first + chunk_count, first_element + count);
      std::memcpy(
          result.data() + (overlap_first - first_element) * width,
          scratch.data() + (overlap_first - chunk_first) * width,
          static_cast<std::size_t>((overlap_end - overlap_first) * width));
    }
  }
  accounting.stage.Accumulate(decoder.stage_breakdown());
  if (cache_ != nullptr && options_.cache.prefetch_chunks > 0) {
    PrefetchAdjacentChunks(stream, directory, header, cache_, stream_id,
                           clast, options_.cache.prefetch_chunks, verify,
                           accounting);
  }
  return finish(std::move(result));
}

Bytes PrimacyDecompressor::DecompressBytesRange(
    ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  return DecompressRangeImpl(stream, first_element, count, /*expected_width=*/0,
                             stats);
}

std::vector<double> PrimacyDecompressor::DecompressRange(
    ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  return FromBytes<double>(
      DecompressRangeImpl(stream, first_element, count, 8, stats));
}

std::vector<float> PrimacyDecompressor::DecompressRangeSingle(
    ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  return FromBytes<float>(
      DecompressRangeImpl(stream, first_element, count, 4, stats));
}

StreamVerifyResult VerifyStream(ByteSpan stream) {
  StreamVerifyResult result;
  try {
    ByteReader reader(stream);
    const internal::StreamHeader header = internal::ReadStreamHeader(reader);
    result.version = header.version;
    if (header.stored) {
      const ByteSpan raw = reader.GetBlock();
      if (raw.size() != header.total_bytes) {
        throw CorruptStreamError("primacy: stored payload size mismatch");
      }
      if (header.version >= internal::kFormatVersion3) {
        result.has_checksums = true;
        const std::size_t covered = reader.Offset();
        if (Xxh64(stream.first(covered)) != reader.GetU64()) {
          throw CorruptStreamError("primacy: stored stream checksum mismatch");
        }
      }
      result.ok = true;
      return result;
    }
    if (header.version >= internal::kFormatVersion3 &&
        header.total_bytes != kStreamingTotal) {
      // Hash-only pass: every byte before the footer is covered by a
      // checksum, so no decompression is needed.
      result.has_checksums = true;
      const std::size_t chunks_begin = reader.Offset();
      const internal::ChunkDirectory directory =
          internal::ReadChunkDirectory(stream, chunks_begin, header.version);
      (void)ElementStarts(directory, header.total_bytes / header.width);
      if (internal::ComputeHeaderTailChecksum(stream, directory,
                                              chunks_begin) !=
          directory.header_tail_checksum) {
        throw CorruptStreamError("primacy: header/tail checksum mismatch");
      }
      for (std::size_t c = 0; c < directory.chunks.size(); ++c) {
        VerifyChunkChecksum(RecordSpan(stream, directory, c), directory, c,
                            /*verify=*/true);
        ++result.chunks_checked;
      }
      result.ok = true;
      return result;
    }
    if (header.total_bytes == kStreamingTotal) {
      // Streamed v1: sequential structural decode, one chunk resident.
      PrimacyStreamReader stream_reader(stream);
      Bytes sink;
      while (stream_reader.NextChunk(sink)) {
        sink.clear();
        ++result.chunks_checked;
      }
    } else {
      // v1/v2 one-shot: no checksums to hash, so the only integrity signal
      // is a clean full decode.
      PrimacyDecodeStats stats;
      PrimacyDecompressor().DecompressBytes(stream, &stats);
      result.chunks_checked = stats.chunks_decoded;
    }
    result.ok = true;
  } catch (const Error& e) {
    result.error = e.what();
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

PrimacyCodec::PrimacyCodec(PrimacyOptions options)
    : compressor_(options), decompressor_(std::move(options)) {}

Bytes PrimacyCodec::Compress(ByteSpan data) const {
  return compressor_.CompressBytes(data);
}

Bytes PrimacyCodec::Decompress(ByteSpan data) const {
  return decompressor_.DecompressBytes(data);
}

}  // namespace primacy
