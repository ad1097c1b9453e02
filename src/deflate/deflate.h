// Deflate-class codec: LZ77 parsing + dynamic canonical Huffman coding of
// literal/length and distance symbols, using deflate's standard extra-bit
// tables. This is the library's zlib stand-in — the byte-level entropy-based
// "solver" the PRIMACY preconditioner targets (paper Sections II-C/II-E).
//
// Compress always runs the LZ parse of the codec's LzParams: it is the
// vanilla comparator (zlib -6 for the defaults). DeflateCodec's
// CompressAdaptive, which PRIMACY's solver calls use, first probes a sample
// and takes literal-only Huffman (zlib's Z_HUFFMAN_ONLY) where the parse
// would not pay, as on noisy mantissa columns. Both write the same
// container, and Decompress reads either.
//
// The container format is our own (not RFC 1950/1951 compatible):
//   varint original_size, then blocks:
//     u8 block_type (0 = stored, 1 = huffman)
//     stored : varint byte_count, raw bytes
//     huffman: varint token_count,
//              block(serialized litlen code lengths),
//              block(serialized distance code lengths),
//              block(bit-packed token stream)
#pragma once

#include "compress/codec.h"
#include "lz77/lz77.h"

namespace primacy {

class DeflateCodec final : public Codec {
 public:
  explicit DeflateCodec(LzParams params = LzParams::Default())
      : params_(params) {}

  std::string_view name() const override { return "deflate"; }
  Bytes Compress(ByteSpan data) const override;
  Bytes CompressAdaptive(ByteSpan data) const override;
  Bytes Decompress(ByteSpan data) const override;

  /// Literal-only Huffman, the path CompressAdaptive takes where LZ does
  /// not pay: the bytes DeflateCodec(LzParams{0, 3, false}).Compress
  /// writes, coded straight from each block's byte histogram.
  static Bytes CompressLiterals(ByteSpan data);

 private:
  LzParams params_;
};

/// "deflate-fast": weaker parse, higher throughput (zlib level-1 analogue).
class DeflateFastCodec final : public Codec {
 public:
  std::string_view name() const override { return "deflate-fast"; }
  Bytes Compress(ByteSpan data) const override;
  Bytes Decompress(ByteSpan data) const override;
};

}  // namespace primacy
