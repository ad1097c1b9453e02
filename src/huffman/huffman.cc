#include "huffman/huffman.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "bitstream/byte_io.h"
#include "util/error.h"

namespace primacy {
namespace {

std::uint16_t ReverseBits(std::uint16_t value, unsigned width) {
  std::uint16_t out = 0;
  for (unsigned i = 0; i < width; ++i) {
    out = static_cast<std::uint16_t>((out << 1) | ((value >> i) & 1));
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> BuildCodeLengths(
    std::span<const std::uint64_t> frequencies, unsigned max_length) {
  if (max_length == 0 || max_length > kMaxHuffmanCodeLength) {
    throw InvalidArgumentError("BuildCodeLengths: bad max_length");
  }
  // Symbols are carried as u32 throughout package-merge; reject alphabets
  // the index type cannot represent before the loop below wraps.
  if (frequencies.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgumentError("BuildCodeLengths: alphabet too large");
  }
  std::vector<std::uint8_t> lengths(frequencies.size(), 0);

  std::vector<std::uint32_t> active;
  for (std::uint32_t i = 0; i < frequencies.size(); ++i) {
    if (frequencies[i] != 0) active.push_back(i);
  }
  if (active.empty()) return lengths;
  if (active.size() == 1) {
    lengths[active[0]] = 1;
    return lengths;
  }
  if (active.size() > (1ULL << max_length)) {
    throw InvalidArgumentError(
        "BuildCodeLengths: alphabet too large for max_length");
  }

  // Package-merge on weights alone. Level 0 is the leaf list, sorted by
  // weight with ties in symbol order. Each further level merges the leaf
  // list with the pairwise packages of the level before it, a leaf ahead of
  // a package of equal weight; the first 2n-2 items of the last level
  // determine the lengths. Leaves enter every level's list in sorted order,
  // so only the merge outcome (leaf or package) of each item is kept: the
  // items a level selects are some prefix of the sorted leaves plus its
  // first p packages, which select the first 2p items one level down.
  const std::size_t n = active.size();
  std::stable_sort(active.begin(), active.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return frequencies[a] < frequencies[b];
                   });
  std::vector<std::uint64_t> leaf_weight(n);
  for (std::size_t i = 0; i < n; ++i) leaf_weight[i] = frequencies[active[i]];
  const std::size_t row = 2 * n;  // a level holds at most 2n - 1 items
  std::vector<std::uint8_t> is_package(max_length * row, 0);
  std::vector<std::uint64_t> current(leaf_weight);
  std::vector<std::uint64_t> next;
  current.reserve(row);
  next.reserve(row);
  for (unsigned level = 1; level < max_length; ++level) {
    std::uint8_t* const flags = is_package.data() + level * row;
    const std::size_t packages = current.size() / 2;
    std::size_t leaf = 0;
    std::size_t package = 0;
    next.clear();
    while (leaf < n || package < packages) {
      const std::uint64_t package_weight =
          package < packages ? current[2 * package] + current[2 * package + 1]
                             : 0;
      if (package == packages ||
          (leaf < n && leaf_weight[leaf] <= package_weight)) {
        next.push_back(leaf_weight[leaf++]);
      } else {
        flags[next.size()] = 1;
        next.push_back(package_weight);
        ++package;
      }
    }
    std::swap(current, next);
  }

  std::size_t take = 2 * n - 2;
  PRIMACY_CHECK(current.size() >= take);
  for (unsigned level = max_length; level-- > 0;) {
    const std::uint8_t* const flags = is_package.data() + level * row;
    std::size_t packages = 0;
    for (std::size_t i = 0; i < take; ++i) packages += flags[i];
    for (std::size_t i = 0; i < take - packages; ++i) ++lengths[active[i]];
    take = 2 * packages;
  }

  // Sanity: Kraft sum must be exactly 1 for an optimal complete code.
  std::uint64_t kraft = 0;
  for (const std::uint8_t len : lengths) {
    if (len != 0) kraft += 1ULL << (max_length - len);
  }
  PRIMACY_CHECK(kraft == (1ULL << max_length));
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths)
    : lengths_(lengths.begin(), lengths.end()) {
  codes_.assign(lengths_.size(), 0);

  // Canonical assignment: count codes per length, derive the first code of
  // each length, then hand out codes in symbol order.
  std::array<std::uint32_t, kMaxHuffmanCodeLength + 1> count{};
  for (const std::uint8_t len : lengths_) {
    if (len > kMaxHuffmanCodeLength) {
      throw InvalidArgumentError("HuffmanEncoder: length > max");
    }
    ++count[len];
  }
  count[0] = 0;
  std::array<std::uint32_t, kMaxHuffmanCodeLength + 2> next_code{};
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxHuffmanCodeLength; ++len) {
    code = (code + count[len - 1]) << 1;
    next_code[len] = code;
  }
  for (std::size_t symbol = 0; symbol < lengths_.size(); ++symbol) {
    const unsigned len = lengths_[symbol];
    if (len == 0) continue;
    const std::uint32_t canonical = next_code[len]++;
    if (canonical >= (1ULL << len)) {
      throw InvalidArgumentError("HuffmanEncoder: oversubscribed lengths");
    }
    codes_[symbol] =
        ReverseBits(static_cast<std::uint16_t>(canonical), len);
  }
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  // Table entries store the symbol as u16; a larger alphabet would decode
  // to silently-truncated symbols. The lengths come off the wire, so this
  // is a stream-validity error, not a programming error.
  if (lengths.size() > std::numeric_limits<std::uint16_t>::max() + 1u) {
    throw CorruptStreamError("HuffmanDecoder: alphabet too large");
  }
  for (const std::uint8_t len : lengths) {
    if (len > kMaxHuffmanCodeLength) {
      throw CorruptStreamError("HuffmanDecoder: length > max");
    }
    max_length_ = std::max<unsigned>(max_length_, len);
  }
  if (max_length_ == 0) {
    throw CorruptStreamError("HuffmanDecoder: empty code");
  }
  table_.assign(1ULL << max_length_, Entry{});

  // Recompute canonical codes exactly as the encoder does, then stamp every
  // window whose low `len` bits equal the (bit-reversed) code.
  std::array<std::uint32_t, kMaxHuffmanCodeLength + 1> count{};
  for (const std::uint8_t len : lengths) ++count[len];
  count[0] = 0;
  std::array<std::uint32_t, kMaxHuffmanCodeLength + 2> next_code{};
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxHuffmanCodeLength; ++len) {
    code = (code + count[len - 1]) << 1;
    next_code[len] = code;
  }
  for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
    const unsigned len = lengths[symbol];
    if (len == 0) continue;
    const std::uint32_t canonical = next_code[len]++;
    if (canonical >= (1ULL << len)) {
      throw CorruptStreamError("HuffmanDecoder: oversubscribed lengths");
    }
    const std::uint16_t reversed =
        ReverseBits(static_cast<std::uint16_t>(canonical), len);
    const std::size_t stride = 1ULL << len;
    for (std::size_t window = reversed; window < table_.size();
         window += stride) {
      table_[window] =
          Entry{static_cast<std::uint16_t>(symbol), static_cast<std::uint8_t>(len)};
    }
  }
}

std::size_t HuffmanDecoder::Decode(BitReader& reader) const {
  const std::uint64_t window = reader.PeekBits(max_length_);
  const Entry entry = table_[window];
  if (entry.length == 0) {
    throw CorruptStreamError("HuffmanDecoder: invalid code word");
  }
  reader.SkipBits(entry.length);
  return entry.symbol;
}

Bytes SerializeCodeLengths(std::span<const std::uint8_t> lengths) {
  // Simple byte-level RLE: varint run count, then (value u8, run varint)
  // pairs. Length vectors are dominated by runs of zeros and of the modal
  // length, so this stays small without a second Huffman layer.
  Bytes out;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> runs;
  for (const std::uint8_t len : lengths) {
    if (!runs.empty() && runs.back().first == len) {
      ++runs.back().second;
    } else {
      runs.emplace_back(len, 1);
    }
  }
  PutVarint(out, runs.size());
  for (const auto& [value, run] : runs) {
    PutU8(out, value);
    PutVarint(out, run);
  }
  return out;
}

std::vector<std::uint8_t> DeserializeCodeLengths(ByteSpan data,
                                                 std::size_t alphabet_size) {
  ByteReader reader(data);
  const std::uint64_t run_count = reader.GetVarint();
  std::vector<std::uint8_t> lengths;
  lengths.reserve(alphabet_size);
  for (std::uint64_t i = 0; i < run_count; ++i) {
    const std::uint8_t value = reader.GetU8();
    const std::uint64_t run = reader.GetVarint();
    if (lengths.size() + run > alphabet_size) {
      throw CorruptStreamError("DeserializeCodeLengths: overlong runs");
    }
    lengths.insert(lengths.end(), run, value);
  }
  if (lengths.size() != alphabet_size) {
    throw CorruptStreamError("DeserializeCodeLengths: size mismatch");
  }
  return lengths;
}

}  // namespace primacy
