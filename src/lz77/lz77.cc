#include "lz77/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "util/error.h"

namespace primacy {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::uint32_t kNoPos = 0xffffffffu;

/// Multiplicative hash over the next 3 bytes.
std::uint32_t HashAt(const std::byte* p) {
  const std::uint32_t v = (static_cast<std::uint32_t>(p[0]) << 16) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          static_cast<std::uint32_t>(p[2]);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

/// Length of the common prefix of a and b, up to `limit`.
std::size_t MatchLength(const std::byte* a, const std::byte* b,
                        std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, a + len, 8);
    std::memcpy(&wb, b + len, 8);
    if (wa != wb) {
      return len + static_cast<std::size_t>(
                       std::countr_zero(wa ^ wb)) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Hash-chain dictionary over the sliding window.
class MatchFinder {
 public:
  // prev_ is indexed by pos & (prev_.size() - 1), a power of two. Once it
  // holds min(window, n) entries no two live positions share a slot, so a
  // short input gets a short table and the same chains. head_ keeps its
  // size: kHashBits is part of the hash.
  explicit MatchFinder(ByteSpan data)
      : data_(data),
        head_(kHashSize, kNoPos),
        prev_(std::min(kLzWindowSize, std::bit_ceil(data.size())), kNoPos) {}

  /// Inserts position `pos` into the dictionary.
  void Insert(std::size_t pos) {
    if (pos + kLzMinMatch > data_.size()) return;
    const std::uint32_t h = HashAt(data_.data() + pos);
    prev_[pos & (prev_.size() - 1)] = head_[h];
    head_[h] = static_cast<std::uint32_t>(pos);
  }

  struct Match {
    std::size_t length = 0;
    std::size_t distance = 0;
  };

  /// Best match at `pos` subject to the chain budget.
  Match FindBest(std::size_t pos, const LzParams& params) const {
    Match best;
    if (pos + kLzMinMatch > data_.size()) return best;
    const std::size_t limit =
        std::min(kLzMaxMatch, data_.size() - pos);
    const std::byte* const cur = data_.data() + pos;
    std::uint32_t candidate = head_[HashAt(cur)];
    std::size_t probes = params.max_chain;
    while (candidate != kNoPos && probes-- > 0) {
      const std::size_t cpos = candidate;
      if (cpos >= pos || pos - cpos > kLzWindowSize) break;
      // Quick reject: check the byte just past the current best.
      if (best.length == 0 ||
          data_[cpos + best.length] == cur[best.length]) {
        const std::size_t len =
            MatchLength(data_.data() + cpos, cur, limit);
        if (len > best.length) {
          best.length = len;
          best.distance = pos - cpos;
          if (len >= params.nice_length || len == limit) break;
        }
      }
      candidate = prev_[cpos & (prev_.size() - 1)];
    }
    if (best.length < kLzMinMatch) return Match{};
    return best;
  }

 private:
  ByteSpan data_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> prev_;
};

}  // namespace

std::vector<LzToken> LzParse(ByteSpan data, const LzParams& params,
                             std::size_t start) {
  if (start > data.size()) {
    throw InvalidArgumentError("LzParse: start is past the end");
  }
  std::vector<LzToken> tokens;
  if (start == data.size()) return tokens;
  tokens.reserve((data.size() - start) / 4);

  MatchFinder finder(data);
  for (std::size_t pos = 0; pos < start; ++pos) finder.Insert(pos);

  std::size_t pos = start;
  // The lazy step's FindBest(pos + 1) when it chose the literal: nothing is
  // inserted before the next iteration asks for the same position, so the
  // result carries over unchanged.
  std::optional<MatchFinder::Match> lookahead;
  while (pos < data.size()) {
    const MatchFinder::Match match =
        lookahead ? *lookahead : finder.FindBest(pos, params);
    lookahead.reset();
    if (params.lazy && match.length >= kLzMinMatch &&
        match.length < params.nice_length && pos + 1 < data.size()) {
      // One-step lazy matching: if the next position holds a strictly longer
      // match, emit a literal here instead.
      finder.Insert(pos);
      const MatchFinder::Match next = finder.FindBest(pos + 1, params);
      if (next.length > match.length) {
        tokens.push_back(
            LzToken{static_cast<std::uint8_t>(data[pos]), 0, 0});
        lookahead = next;
        ++pos;
        continue;
      }
      // Keep the current match; pos was already inserted.
      tokens.push_back(LzToken{0, static_cast<std::uint16_t>(match.length),
                               static_cast<std::uint16_t>(match.distance)});
      for (std::size_t i = 1; i < match.length; ++i) {
        finder.Insert(pos + i);
      }
      pos += match.length;
      continue;
    }
    if (match.length >= kLzMinMatch) {
      tokens.push_back(LzToken{0, static_cast<std::uint16_t>(match.length),
                               static_cast<std::uint16_t>(match.distance)});
      for (std::size_t i = 0; i < match.length; ++i) finder.Insert(pos + i);
      pos += match.length;
    } else {
      tokens.push_back(LzToken{static_cast<std::uint8_t>(data[pos]), 0, 0});
      finder.Insert(pos);
      ++pos;
    }
  }
  return tokens;
}

Bytes LzExpand(std::span<const LzToken> tokens, std::size_t expected_size) {
  Bytes out;
  out.reserve(expected_size);
  for (const LzToken& token : tokens) {
    if (token.IsLiteral()) {
      out.push_back(static_cast<std::byte>(token.literal));
      continue;
    }
    if (token.distance == 0 || token.distance > out.size()) {
      throw CorruptStreamError("LzExpand: distance exceeds produced output");
    }
    if (token.length < kLzMinMatch || token.length > kLzMaxMatch) {
      throw CorruptStreamError("LzExpand: bad match length");
    }
    // Byte-by-byte copy: overlapping matches (distance < length) replicate.
    std::size_t src = out.size() - token.distance;
    for (std::size_t i = 0; i < token.length; ++i) {
      out.push_back(out[src + i]);
    }
  }
  if (out.size() != expected_size) {
    throw CorruptStreamError("LzExpand: size mismatch");
  }
  return out;
}

}  // namespace primacy
