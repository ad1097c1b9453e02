#include "bwt/suffix_array.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace primacy {

std::vector<std::int32_t> BuildSuffixArray(ByteSpan text) {
  if (text.size() > static_cast<std::size_t>(1) << 30) {
    throw InvalidArgumentError("BuildSuffixArray: input too large");
  }
  const std::size_t n = text.size() + 1;  // + sentinel
  // Suffix-array entries are suffix start offsets; index rank arrays by them.
  const auto at = [](std::int32_t suffix) {
    return static_cast<std::size_t>(suffix);
  };
  std::vector<std::int32_t> sa(n), rank(n), next_rank(n);
  std::iota(sa.begin(), sa.end(), 0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rank[i] = static_cast<std::int32_t>(text[i]) + 1;
  }
  rank[n - 1] = 0;  // sentinel: unique smallest

  for (std::size_t k = 1;; k <<= 1) {
    const auto key = [&](std::int32_t suffix) {
      const std::size_t i = at(suffix);
      return std::pair<std::int32_t, std::int32_t>(
          rank[i], i + k < n ? rank[i + k] : -1);
    };
    std::sort(sa.begin(), sa.end(),
              [&](std::int32_t a, std::int32_t b) { return key(a) < key(b); });
    next_rank[at(sa[0])] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      next_rank[at(sa[i])] =
          next_rank[at(sa[i - 1])] + (key(sa[i - 1]) < key(sa[i]) ? 1 : 0);
    }
    rank.swap(next_rank);
    if (at(rank[at(sa[n - 1])]) == n - 1) break;  // all ranks distinct
  }
  PRIMACY_CHECK(at(sa[0]) == n - 1);
  return sa;
}

}  // namespace primacy
