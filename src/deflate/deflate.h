// Deflate-class codec: LZ77 parsing + dynamic canonical Huffman coding of
// literal/length and distance symbols, using deflate's standard extra-bit
// tables. This is the library's zlib stand-in — the byte-level entropy-based
// "solver" the PRIMACY preconditioner targets (paper Sections II-C/II-E).
//
// Compress always runs the LZ parse of the codec's LzParams: it is the
// vanilla comparator (zlib -6 for the defaults). DeflateCodec's
// CompressAdaptive, which PRIMACY's solver calls use, probes a sample of each
// byte column and takes literal-only Huffman (zlib's Z_HUFFMAN_ONLY) where
// the parse would not pay, as on noisy mantissa columns and the rank column
// of the ID bytes. Where columns disagree, one call's blocks switch between
// the two at column boundaries, and an LZ column's matches may reach back
// into the columns before it. Both write the same container, and Decompress
// reads either.
//
// Decompress sizes its output per block and writes through a pointer. A
// Huffman block that codes no length symbol and no distance is literal-only:
// it writes exactly its token count, checked once against the declared size,
// through HuffmanDecoder::DecodeBytes. Other blocks resolve tokens one by
// one and copy a match with memset at distance 1, in 8-byte steps at
// distance 8 or more, and byte by byte otherwise.
//
// DecompressWindow runs the same loop for a read that needs only a window of
// each column. Since a literal-only block's header gives its output size, a
// block wholly outside the window is checked but not Huffman-decoded, unless
// it ends within the 32 KiB match window before a later LZ block, which then
// decodes it first. Stored and LZ blocks are always processed: an LZ block's
// header does not give its output size. Decompress is the whole window.
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

#include <string>
#include <utility>

#include "compress/codec.h"
#include "lz77/lz77.h"

namespace primacy {

class DeflateCodec final : public Codec {
 public:
  /// `name` is the registry name frames record: "deflate" for the defaults,
  /// "deflate-fast" for LzParams::Fast() (zlib level-1 analogue).
  explicit DeflateCodec(LzParams params = LzParams::Default(),
                        std::string name = "deflate")
      : params_(params), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  Bytes Compress(ByteSpan data) const override;
  /// One decision per column of at least 16 KiB (one probe window); a call
  /// with shorter columns, or with `column_bytes` 0, decides once. Columns
  /// that all agree give the whole-call bytes of Compress or
  /// CompressLiterals. Throws InvalidArgumentError if a nonzero
  /// `column_bytes` does not divide `data.size()`.
  Bytes CompressAdaptive(ByteSpan data,
                         std::size_t column_bytes) const override;
  Bytes Decompress(ByteSpan data) const override;
  Bytes DecompressWindow(ByteSpan data, std::size_t column_bytes,
                         std::size_t first,
                         std::size_t count) const override;

  /// Literal-only Huffman, the path CompressAdaptive takes where LZ does
  /// not pay: the bytes DeflateCodec(LzParams{0, 3, false}).Compress
  /// writes, coded straight from each block's byte histogram.
  static Bytes CompressLiterals(ByteSpan data);

 private:
  LzParams params_;
  std::string name_;
};

}  // namespace primacy
