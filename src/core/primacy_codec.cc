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

/// Reads only the index block of chunk `c`'s record (for range-read index
/// chain resolution), validating the flag against the directory and (v3 +
/// verify) the record checksum.
ByteSpan ReadIndexBlock(const internal::OpenedStream& opened, std::size_t c) {
  const internal::ChunkDirectoryEntry& entry = opened.directory->chunks[c];
  const ByteSpan record = opened.Record(c);
  if (opened.verify_records && Xxh64(record) != entry.checksum) {
    internal::ThrowChunkError(c, entry.offset, "checksum mismatch");
  }
  return internal::WithChunkContext(c, entry.offset, [&] {
    ByteReader reader(record);
    reader.GetVarint();  // element count
    if (reader.GetU8() != entry.index_flag) {
      throw CorruptStreamError("primacy: directory index flag mismatch");
    }
    return reader.GetBlock();
  });
}

/// Content-derived 64-bit identity of a seekable stream: the stream half of
/// the decoded-block cache key. Hashes the header bytes plus the directory
/// payload and footer — for v3 the directory embeds every record's content
/// checksum, so the identity is a function of all payload bytes. v2
/// directories carry only structure (offsets/counts/flags), so a bounded
/// sample of each record's bytes is mixed in as well. Streams with equal
/// content hash equal (correct: their decoded chunks are identical);
/// distinct streams colliding requires a 64-bit XXH64 collision.
std::uint64_t StreamCacheIdentity(const internal::OpenedStream& opened) {
  const internal::ChunkDirectory& directory = *opened.directory;
  Xxh64State state;
  state.Update(opened.stream.first(opened.chunks_begin));
  state.Update(opened.stream.subspan(
      static_cast<std::size_t>(directory.directory_offset)));
  if (!directory.has_checksums) {
    for (std::size_t c = 0; c < directory.chunks.size(); ++c) {
      const ByteSpan record = opened.Record(c);
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
void PrimeDecoderIndex(const internal::OpenedStream& opened, std::size_t c,
                       ChunkDecoder& decoder, PrimacyDecodeStats& accounting) {
  const auto& chunks = opened.directory->chunks;
  if (chunks[c].index_flag == 1) return;
  std::size_t base = c;
  while (base > 0 && chunks[base].index_flag != 1) --base;
  if (chunks[base].index_flag != 1) {
    internal::ThrowChunkError(c, chunks[c].offset,
                              "no full index precedes chunk");
  }
  IdIndex index = DeserializeIndex(ReadIndexBlock(opened, base));
  ++accounting.index_loads;
  for (std::size_t i = base + 1; i < c; ++i) {
    if (chunks[i].index_flag == 2) {
      index =
          index.Extended(DeserializeSequenceList(ReadIndexBlock(opened, i)));
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
/// (every chunk a plain DecodeChunkRecord, no lookups, no priming beyond
/// what the first chunk needs).
///
/// The subtlety is IndexMode::kReuseWhenCorrelated: skipping a chunk whose
/// record would have (re)built the decoder's index (flag 1 or 2) leaves the
/// decoder's cross-chunk state stale for the next miss. `state_for` tracks
/// which chunk the state is currently valid for; a miss on a reuse/delta
/// chunk whose state is stale re-primes via PrimeDecoderIndex first.
struct CachedChunkReader {
  const internal::OpenedStream& opened;
  DecodedBlockCache* cache;  // null = uncached
  std::uint64_t stream_id;
  std::size_t state_for = kNoIndexState;  // chunk the index state decodes

  /// Decodes chunk `c` into `out`, which must be exactly the chunk's
  /// decoded extent. A cache hit never re-enters the decoder, so it is
  /// neither decoded nor verified.
  void DecodeChunk(std::size_t c, ChunkDecoder& decoder, MutableByteSpan out,
                   PrimacyDecodeStats& accounting) {
    const internal::ChunkDirectoryEntry& entry = opened.directory->chunks[c];
    if (cache != nullptr) {
      if (DecodedBlockCache::Handle handle = cache->Lookup(stream_id, c)) {
        if (handle.data().size() != out.size()) {
          internal::ThrowChunkError(c, entry.offset,
                                    "cached chunk size mismatch");
        }
        std::memcpy(out.data(), handle.data().data(), out.size());
        ++accounting.cache_hits;
        if (entry.index_flag == 0) {
          // A reuse chunk leaves the index untouched: state valid for c is
          // equally valid for c + 1. Full/delta chunks rebuild state their
          // record carries — skipping them leaves the decoder stale.
          if (state_for == c) state_for = c + 1;
        } else {
          state_for = kNoIndexState;
        }
        return;
      }
      ++accounting.cache_misses;
    }
    if (entry.index_flag != 1 && state_for != c) {
      PrimeDecoderIndex(opened, c, decoder, accounting);
    }
    accounting.chunks_verified += internal::DecodeChunkRecord(
        decoder, opened.Record(c), c, entry, opened.verify_records, out);
    state_for = c + 1;
    ++accounting.chunks_decoded;
    if (cache != nullptr) cache->Insert(stream_id, c, ToBytes(ByteSpan(out)));
  }
};

/// Best-effort adjacent-chunk prefetch after the last covered chunk
/// `clast`: decodes up to `prefetch_chunks` chunks past it on the shared
/// pool and inserts them into `cache`, so a sequential scan's next range
/// call finds them warm. Only full-index chunks qualify (reuse/delta chunks
/// would need the caller's chain state), already-resident chunks are
/// skipped, and each task owns a copy of its record bytes — the caller's
/// stream span may dangle once the call returns. Failures (corrupt record,
/// solver error) are swallowed: the chunk just stays cold, and the demand
/// path re-verifies and reports there.
void PrefetchAdjacentChunks(const internal::OpenedStream& opened,
                            const std::shared_ptr<DecodedBlockCache>& cache,
                            std::uint64_t stream_id, std::size_t clast,
                            std::size_t prefetch_chunks,
                            PrimacyDecodeStats& accounting) {
  const auto& chunks = opened.directory->chunks;
  const std::size_t after = chunks.size() - clast - 1;
  const std::size_t limit = clast + 1 + std::min(prefetch_chunks, after);
  for (std::size_t c = clast + 1; c < limit; ++c) {
    if (chunks[c].index_flag != 1) continue;
    if (cache->Contains(stream_id, c)) continue;
    SharedThreadPool().Submit(
        [record = ToBytes(opened.Record(c)), cache, stream_id, c,
         entry = chunks[c], solver_name = opened.header.solver_name,
         linearization = opened.header.linearization,
         width = opened.header.width, verify = opened.verify_records] {
          try {
            const auto solver = CreateCodec(solver_name);
            ChunkDecoder decoder(*solver, linearization, width);
            Bytes decoded(static_cast<std::size_t>(entry.elements * width));
            internal::DecodeChunkRecord(decoder, record, c, entry, verify,
                                        decoded);
            cache->Insert(stream_id, c, std::move(decoded));
          } catch (...) {
            // Best effort by contract; the demand path surfaces errors.
          }
        });
    ++accounting.prefetch_issued;
    static telemetry::Counter& prefetch_total =
        telemetry::MetricsRegistry::Global().GetCounter(
            "primacy_cache_prefetch_total");
    prefetch_total.Increment();
  }
}

/// Maximal runs of chunks in [cfirst, clast] starting at a full index (or
/// at cfirst): within a group chunks depend on the running index state
/// (flags 0/2); across groups they are independent, which is the unit of
/// parallel decode. Under kPerChunk every chunk is flag 1 and thus its own
/// group.
std::vector<std::pair<std::size_t, std::size_t>> IndexGroups(
    const internal::ChunkDirectory& directory, std::size_t cfirst,
    std::size_t clast) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t c = cfirst; c <= clast; ++c) {
    if (directory.chunks[c].index_flag == 1 || groups.empty()) {
      groups.emplace_back(c, 1);
    } else {
      ++groups.back().second;
    }
  }
  return groups;
}

/// The one directory decoder, behind full decodes and range reads alike:
/// decodes elements [first, first + count) of a v2/v3 stream into `out`
/// (exactly count elements). Only the covering chunks are decoded, as index
/// groups — in parallel when `options.threads` allows, with one solver and
/// one decoder per slot. Chunks wholly inside the range decode straight
/// into `out`; a range read's partial edge chunks go through a scratch
/// buffer. Prefetch (cache configured) runs after the last covered chunk.
void DecodeElements(const internal::OpenedStream& opened, std::uint64_t first,
                    std::uint64_t count, const PrimacyOptions& options,
                    const std::shared_ptr<DecodedBlockCache>& cache,
                    MutableByteSpan out, PrimacyDecodeStats& accounting) {
  accounting.used_directory = true;
  if (count == 0) return;
  const internal::StreamHeader& header = opened.header;
  const auto& chunks = opened.directory->chunks;
  const std::vector<std::uint64_t>& starts = opened.starts;
  const std::uint64_t width = header.width;
  const auto chunk_of = [&](std::uint64_t element) {
    return static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), element) -
        starts.begin() - 1);
  };
  const std::size_t clast = chunk_of(first + count - 1);
  const auto groups = IndexGroups(*opened.directory, chunk_of(first), clast);
  const std::uint64_t stream_id =
      cache != nullptr ? StreamCacheIdentity(opened) : 0;

  // Per-group accounting (chunks decoded/verified, cache hits/misses, index
  // loads), folded in after the (possibly parallel) decode — workers never
  // touch shared counters.
  std::vector<PrimacyDecodeStats> per_group(groups.size());
  const auto decode_group = [&](ChunkDecoder& decoder, Bytes& scratch,
                                std::size_t g) {
    const auto [begin, n] = groups[g];
    CachedChunkReader reader{opened, cache.get(), stream_id};
    for (std::size_t c = begin; c < begin + n; ++c) {
      const std::uint64_t chunk_first = starts[c];
      const std::uint64_t lo = std::max(chunk_first, first);
      const std::uint64_t hi =
          std::min(chunk_first + chunks[c].elements, first + count);
      const MutableByteSpan dest =
          out.subspan(static_cast<std::size_t>((lo - first) * width),
                      static_cast<std::size_t>((hi - lo) * width));
      if (hi - lo == chunks[c].elements) {
        reader.DecodeChunk(c, decoder, dest, per_group[g]);
        continue;
      }
      scratch.resize(static_cast<std::size_t>(chunks[c].elements * width));
      reader.DecodeChunk(c, decoder, scratch, per_group[g]);
      std::memcpy(dest.data(),
                  scratch.data() + (lo - chunk_first) * width, dest.size());
    }
  };

  const std::size_t slots =
      std::min(EffectiveSlots(options.threads), groups.size());
  if (slots > 1) {
    // One solver + decoder (+ edge-chunk scratch) per slot, reused across
    // that slot's groups instead of constructed per chunk. Slots never run
    // two groups at once, so the per-slot state needs no locking.
    struct Slot {
      std::unique_ptr<const Codec> solver;
      std::optional<ChunkDecoder> decoder;
      Bytes scratch;
    };
    std::vector<Slot> slot_state(slots);
    SharedThreadPool().ParallelForSlots(
        groups.size(), options.threads, [&](std::size_t slot, std::size_t g) {
          Slot& s = slot_state[slot];
          if (!s.decoder) {
            s.solver = CreateCodec(header.solver_name);
            s.decoder.emplace(*s.solver, header.linearization, header.width);
          }
          decode_group(*s.decoder, s.scratch, g);
        });
    accounting.threads_used = slots;
    // Stage times fold after the barrier — workers never share counters.
    for (const Slot& s : slot_state) {
      if (s.decoder) accounting.stage.Accumulate(s.decoder->stage_breakdown());
    }
  } else {
    const auto solver = CreateCodec(header.solver_name);
    ChunkDecoder decoder(*solver, header.linearization, header.width);
    Bytes scratch;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      decode_group(decoder, scratch, g);
    }
    accounting.stage.Accumulate(decoder.stage_breakdown());
  }
  for (const PrimacyDecodeStats& g : per_group) accounting.Accumulate(g);
  if (cache != nullptr && options.cache.prefetch_chunks > 0) {
    PrefetchAdjacentChunks(opened, cache, stream_id, clast,
                           options.cache.prefetch_chunks, accounting);
  }
}

}  // namespace

void CheckElementWidth(std::size_t element_size, std::size_t width) {
  if (element_size != width) {
    throw InvalidArgumentError(
        "primacy: element type is " + std::to_string(element_size) +
        " bytes wide, but the stream or options hold " +
        std::to_string(width) + "-byte elements");
  }
}

void PrimacyStats::Accumulate(const PrimacyStats& other) {
  const std::size_t total = chunks + other.chunks;
  if (total > 0) {
    const auto weighted = [&](double mine, double theirs) {
      return (mine * static_cast<double>(chunks) +
              theirs * static_cast<double>(other.chunks)) /
             static_cast<double>(total);
    };
    mean_compressible_fraction = weighted(mean_compressible_fraction,
                                          other.mean_compressible_fraction);
    top_byte_frequency_before =
        weighted(top_byte_frequency_before, other.top_byte_frequency_before);
    top_byte_frequency_after =
        weighted(top_byte_frequency_after, other.top_byte_frequency_after);
  }
  chunks = total;
  indexes_emitted += other.indexes_emitted;
  delta_indexes += other.delta_indexes;
  input_bytes += other.input_bytes;
  output_bytes += other.output_bytes;
  index_bytes += other.index_bytes;
  id_compressed_bytes += other.id_compressed_bytes;
  mantissa_stream_bytes += other.mantissa_stream_bytes;
  mantissa_raw_bytes += other.mantissa_raw_bytes;
  stage.Accumulate(other.stage);
}

void PrimacyDecodeStats::Accumulate(const PrimacyDecodeStats& other) {
  chunks_decoded += other.chunks_decoded;
  index_loads += other.index_loads;
  output_bytes += other.output_bytes;
  used_directory = used_directory || other.used_directory;
  chunks_verified += other.chunks_verified;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  prefetch_issued += other.prefetch_issued;
  stage.Accumulate(other.stage);
}

PrimacyCompressor::PrimacyCompressor(PrimacyOptions options)
    : options_(std::move(options)),
      solver_(internal::ResolveSolver(options_.solver)) {
  if (options_.chunk_bytes < ElementWidth(options_.precision)) {
    throw InvalidArgumentError("PrimacyCompressor: chunk_bytes too small");
  }
}

Bytes PrimacyCompressor::CompressBytes(ByteSpan data, PrimacyStats* stats,
                                       ChunkEncoder* encoder) const {
  telemetry::TraceSpan span("primacy.compress", "bytes",
                            static_cast<std::uint64_t>(data.size()));
  const std::size_t width = ElementWidth(options_.precision);
  const std::size_t tail_bytes = data.size() % width;
  const ByteSpan body = data.first(data.size() - tail_bytes);
  const std::size_t chunk_elements = options_.chunk_bytes / width;
  const std::size_t total_elements = body.size() / width;
  const std::size_t chunk_count =
      total_elements == 0
          ? 0
          : (total_elements + chunk_elements - 1) / chunk_elements;
  const auto chunk = [&](std::size_t i) {
    const std::size_t first = i * chunk_elements;
    const std::size_t count = std::min(chunk_elements, total_elements - first);
    return body.subspan(first * width, count * width);
  };

  Bytes out;
  internal::StreamAssembler assembler(
      options_, data.size(),
      [&out](ByteSpan bytes) { AppendBytes(out, bytes); });

  // A caller-supplied encoder pins the serial path: reuse exists to keep
  // one worker's scratch hot, and its output must stay byte-identical to a
  // fresh serial encode.
  const bool parallel = encoder == nullptr && options_.threads != 1 &&
                        options_.index_mode == IndexMode::kPerChunk &&
                        chunk_count > 1;
  if (parallel) {
    // Chunks are independent under kPerChunk indexing: encode them into
    // per-chunk buffers across the shared pool, then append them in order.
    // Each *slot* (not each chunk) owns a solver + encoder instance, reused
    // for every chunk that slot claims.
    std::vector<Bytes> records(chunk_count);
    std::vector<ChunkRecordStats> chunk_stats(chunk_count);
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
          chunk_stats[i] = s.encoder->EncodeChunk(chunk(i), records[i]);
        });
    for (std::size_t i = 0; i < chunk_count; ++i) {
      assembler.AppendRecord(records[i], chunk_stats[i]);
    }
  } else {
    std::optional<ChunkEncoder> local;
    if (encoder == nullptr) {
      local.emplace(options_, *solver_);
      encoder = &*local;
    } else {
      encoder->Reset();  // clear cross-chunk index state from prior streams
    }
    Bytes record;
    for (std::size_t i = 0; i < chunk_count; ++i) {
      record.clear();
      const ChunkRecordStats encoded = encoder->EncodeChunk(chunk(i), record);
      assembler.AppendRecord(record, encoded);
    }
  }
  assembler.Finish(data.last(tail_bytes));
  PrimacyStats accounting = assembler.stats();

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
  return Decode(stream, std::nullopt, /*element_size=*/0, stats);
}

Bytes PrimacyDecompressor::DecompressBytesRange(
    ByteSpan stream, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  return Decode(stream, ElementRange{first_element, count},
                /*element_size=*/0, stats);
}

Bytes PrimacyDecompressor::Decode(ByteSpan stream,
                                  std::optional<ElementRange> range,
                                  std::size_t element_size,
                                  PrimacyDecodeStats* stats) const {
  telemetry::TraceSpan span(range ? "primacy.range_read" : "primacy.decompress",
                            range ? "elements" : "bytes",
                            range ? range->count : stream.size());
  const internal::OpenedStream opened =
      internal::OpenStream(stream, options_.verify_checksums);
  const internal::StreamHeader& header = opened.header;
  if (element_size != 0) CheckElementWidth(element_size, header.width);
  const std::uint64_t total_elements = opened.total_elements();
  const std::uint64_t first = range ? range->first : 0;
  const std::uint64_t count = range ? range->count : total_elements;
  if (first > total_elements || count > total_elements - first) {
    throw InvalidArgumentError("primacy: element range out of bounds");
  }
  const std::uint64_t width = header.width;
  PrimacyDecodeStats accounting;
  Bytes out;
  if (range && count == 0) {
    // An empty range reads nothing.
  } else if (header.stored) {
    out = ToBytes(range ? opened.stored.subspan(
                              static_cast<std::size_t>(first * width),
                              static_cast<std::size_t>(count * width))
                        : opened.stored);
  } else if (opened.directory) {
    // A full decode is the element range [0, total) plus the tail block.
    out.resize(static_cast<std::size_t>(range ? count * width
                                              : opened.total_bytes));
    const MutableByteSpan elements =
        MutableByteSpan(out).first(static_cast<std::size_t>(count * width));
    DecodeElements(opened, first, count, options_, cache_, elements,
                   accounting);
    if (!range && !opened.tail.empty()) {
      std::memcpy(out.data() + elements.size(), opened.tail.data(),
                  opened.tail.size());
    }
  } else if (range) {
    throw InvalidArgumentError(
        "primacy: DecompressRange requires a v2+ stream with a chunk "
        "directory (v1 streams decode sequentially only)");
  } else {
    // v1, one-shot or streamed: no directory, so drain the sequential
    // reader (a streamed total is unknown, so nothing is reserved for it).
    PrimacyStreamReader reader(stream, options_.verify_checksums);
    out.reserve(std::min<std::uint64_t>(opened.total_bytes, 1u << 26));
    while (reader.NextChunk(out)) {
    }
    accounting.chunks_decoded = reader.chunks_decoded();
    accounting.stage.Accumulate(reader.stage_breakdown());
  }
  if (element_size != 0 && !range && out.size() % header.width != 0) {
    throw CorruptStreamError("primacy: stream is not a whole element array");
  }
  if (stats != nullptr) {
    accounting.output_bytes = out.size();
    *stats = accounting;
  }
  return out;
}

StreamVerifyResult VerifyStream(ByteSpan stream) {
  StreamVerifyResult result;
  try {
    ByteReader reader(stream);
    const internal::StreamHeader header = internal::ReadStreamHeader(reader);
    result.version = header.version;
    result.has_checksums = header.version >= internal::kFormatVersion3;
    // OpenStream verifies a v3 stored payload or header/tail block itself.
    const internal::OpenedStream opened =
        internal::OpenStream(stream, /*verify=*/true);
    if (opened.verify_records) {
      // Hash-only pass: every chunk record has a directory checksum, so no
      // decompression is needed.
      const auto& chunks = opened.directory->chunks;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        if (Xxh64(opened.Record(c)) != chunks[c].checksum) {
          internal::ThrowChunkError(c, chunks[c].offset, "checksum mismatch");
        }
        ++result.chunks_checked;
      }
    } else if (!header.stored) {
      // v1/v2: no checksums to hash, so the only integrity signal is a
      // clean full decode.
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
