// The "solver" abstraction of the PRIMACY pipeline: a general-purpose
// lossless byte compressor. PRIMACY is a *preconditioner* — it rewrites data
// so that any Codec implementing this interface compresses it better
// (paper Section II-E). The pipeline calls CompressAdaptive, so a codec may
// fit its parse to each byte column of a call; Compress is the vanilla codec.
// On the way back, DecompressWindow lets a range read ask for only the part
// of each column it returns.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace primacy {

/// A lossless byte-stream compressor. Implementations own their container
/// format; Decompress(Compress(x)) == x for every input x, and Decompress
/// throws CorruptStreamError on malformed input rather than returning
/// garbage. The const methods may run concurrently on one instance: the
/// chunk-parallel encode and decode share one solver across their slots.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable identifier used by the registry and in serialized frames.
  virtual std::string_view name() const = 0;

  /// Compresses `data`. The output embeds everything needed to decompress,
  /// including the original size.
  virtual Bytes Compress(ByteSpan data) const = 0;

  /// Compresses `data` for one of PRIMACY's solver calls (the ID bytes and
  /// ISOBAR's compressible columns). `data` is a run of byte columns of
  /// `column_bytes` each (0: one column), and a codec may choose its
  /// strategy per column from the data here, so the bytes may differ from
  /// Compress's; Compress stays a fixed function of the codec's settings,
  /// which is what the comparator rows measure. Decompress inverts both.
  /// Default: Compress, whatever the column length.
  virtual Bytes CompressAdaptive(ByteSpan data,
                                 std::size_t /*column_bytes*/) const {
    return Compress(data);
  }

  /// Exact inverse of Compress.
  virtual Bytes Decompress(ByteSpan data) const = 0;

  /// Inflates `data` for a read that needs only a window of each byte
  /// column, the decode twin of CompressAdaptive. The result has
  /// Decompress's size and equals it inside [c·column_bytes + first,
  /// c·column_bytes + first + count) of every column c (column_bytes 0: the
  /// one window [first, first + count)). Its other bytes are unspecified,
  /// and a codec may leave out the work only they need: malformed input
  /// throws CorruptStreamError as in Decompress, unless the damage lies
  /// only in data left unread. Default: Decompress.
  virtual Bytes DecompressWindow(ByteSpan data, std::size_t /*column_bytes*/,
                                 std::size_t /*first*/,
                                 std::size_t /*count*/) const {
    return Decompress(data);
  }
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
