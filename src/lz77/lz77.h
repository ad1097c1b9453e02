// LZ77 parsing: hash-chain match finder with optional one-step lazy
// evaluation, in the zlib mold. Produces a token stream consumed by the
// Deflate codec's entropy stage.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace primacy {

/// One parsed token: either a literal byte (length == 0) or a back-reference
/// of `length` bytes at `distance` back from the current position.
struct LzToken {
  std::uint8_t literal = 0;
  std::uint16_t length = 0;    // 0 = literal; otherwise in [kMinMatch, kMaxMatch]
  std::uint16_t distance = 0;  // in [1, window], valid when length != 0

  bool IsLiteral() const { return length == 0; }
};

inline constexpr std::size_t kLzMinMatch = 3;
inline constexpr std::size_t kLzMaxMatch = 258;
inline constexpr std::size_t kLzWindowBits = 15;
inline constexpr std::size_t kLzWindowSize = 1u << kLzWindowBits;  // 32 KiB

/// Tuning knobs, loosely mirroring zlib's level presets.
struct LzParams {
  std::size_t max_chain = 128;   // hash-chain probes per position
  std::size_t nice_length = 128; // stop probing once a match this long found
  bool lazy = true;              // one-step lazy matching

  /// Fast preset (zlib level ~1) and default preset (~6).
  static LzParams Fast() { return {8, 16, false}; }
  static LzParams Default() { return {128, 128, true}; }
  static LzParams Thorough() { return {1024, kLzMaxMatch, true}; }
};

/// Parses data[start, end) into tokens, with data[0, start) as history its
/// matches may reach back into, like zlib's preset dictionary. The
/// concatenated expansion of the returned tokens reproduces data[start, end)
/// when it follows the history bytes, so with start 0 it reproduces `data`
/// exactly (property-tested).
std::vector<LzToken> LzParse(ByteSpan data, const LzParams& params,
                             std::size_t start = 0);

/// Expands a token stream back into bytes: the tests' reference expander.
/// The Deflate decompressor resolves its tokens on its own.
Bytes LzExpand(std::span<const LzToken> tokens, std::size_t expected_size);

}  // namespace primacy
