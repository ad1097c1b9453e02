// The "solver" abstraction of the PRIMACY pipeline: a general-purpose
// lossless byte compressor. PRIMACY is a *preconditioner* — it rewrites data
// so that any Codec implementing this interface compresses it better
// (paper Section II-E). The pipeline calls CompressAdaptive, so a codec may
// fit its parse to each call; Compress is the vanilla codec.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace primacy {

/// A lossless byte-stream compressor. Implementations own their container
/// format; Decompress(Compress(x)) == x for every input x, and Decompress
/// throws CorruptStreamError on malformed input rather than returning
/// garbage.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable identifier used by the registry and in serialized frames.
  virtual std::string_view name() const = 0;

  /// Compresses `data`. The output embeds everything needed to decompress,
  /// including the original size.
  virtual Bytes Compress(ByteSpan data) const = 0;

  /// Compresses `data` for one of PRIMACY's solver calls (the ID bytes and
  /// ISOBAR's compressible columns). A codec may choose its strategy per
  /// call from the data here, so the bytes may differ from Compress's;
  /// Compress stays a fixed function of the codec's settings, which is what
  /// the comparator rows measure. Decompress inverts both. Default: Compress.
  virtual Bytes CompressAdaptive(ByteSpan data) const { return Compress(data); }

  /// Exact inverse of Compress.
  virtual Bytes Decompress(ByteSpan data) const = 0;
};

/// Measured single-shot codec performance; feeds the Section III model
/// parameters (Tcomp, compression ratios) and the Table III columns.
struct CodecMeasurement {
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;

  /// Paper Eq. (1): original / compressed.
  double CompressionRatio() const;
  /// Paper Eq. (2): original bytes / runtime, in MB/s.
  double CompressMBps() const;
  double DecompressMBps() const;
};

/// Runs one compress+decompress cycle, validates the roundtrip, and returns
/// timings. Throws InternalError if the roundtrip mismatches.
CodecMeasurement MeasureCodec(const Codec& codec, ByteSpan data);

}  // namespace primacy
