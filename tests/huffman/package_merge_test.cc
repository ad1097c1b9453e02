// Optimality properties of the package-merge construction, checked against
// a reference unconstrained Huffman cost computed with a priority queue, and
// its exact identity with the textbook leaf-list formulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <queue>
#include <vector>

#include "huffman/huffman.h"
#include "util/rng.h"

namespace primacy {
namespace {

/// Total encoded cost (sum over symbols of freq * length).
std::uint64_t Cost(std::span<const std::uint64_t> freq,
                   std::span<const std::uint8_t> lengths) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    total += freq[s] * lengths[s];
  }
  return total;
}

/// Reference: unconstrained Huffman cost = sum of all internal-node weights
/// produced by the classic two-smallest merge.
std::uint64_t ReferenceHuffmanCost(std::span<const std::uint64_t> freq) {
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>> heap;
  for (const std::uint64_t f : freq) {
    if (f != 0) heap.push(f);
  }
  if (heap.size() < 2) return heap.size();  // degenerate: 1 bit per symbol
  std::uint64_t cost = 0;
  while (heap.size() > 1) {
    const std::uint64_t a = heap.top();
    heap.pop();
    const std::uint64_t b = heap.top();
    heap.pop();
    cost += a + b;
    heap.push(a + b);
  }
  return cost;
}

TEST(PackageMergeOptimalityTest, MatchesUnconstrainedHuffmanWhenDepthFits) {
  // Frequencies within a 2x band keep the optimal depth near log2(n), far
  // below the 15-bit cap, so the constrained optimum equals the Huffman
  // optimum exactly.
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint64_t> freq(256);
    for (auto& f : freq) f = 100 + rng.NextBelow(100);
    const auto lengths = BuildCodeLengths(freq);
    EXPECT_EQ(Cost(freq, lengths), ReferenceHuffmanCost(freq))
        << "trial " << trial;
  }
}

TEST(PackageMergeOptimalityTest, ConstrainedCostNeverBelowUnconstrained) {
  // With wildly skewed frequencies the 15-bit cap may bind; the constrained
  // cost must then be >= the unconstrained optimum (and still decodable,
  // which BuildCodeLengths' Kraft check enforces).
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freq(64);
    std::uint64_t value = 1;
    for (auto& f : freq) {
      f = value;
      value = value * 2 > 1000000 ? 1 : value * 2;  // exponential bands
    }
    // Shuffle so symbol order is not depth order.
    for (std::size_t i = freq.size(); i > 1; --i) {
      std::swap(freq[i - 1], freq[rng.NextBelow(i)]);
    }
    const auto lengths = BuildCodeLengths(freq);
    EXPECT_GE(Cost(freq, lengths), ReferenceHuffmanCost(freq));
  }
}

TEST(PackageMergeOptimalityTest, CostMonotoneInLengthBudget) {
  // A tighter cap can only cost more.
  Rng rng(44);
  std::vector<std::uint64_t> freq(200);
  for (auto& f : freq) f = 1 + rng.NextSkewed(100000, 0.999);
  std::uint64_t previous = ~std::uint64_t{0};
  for (unsigned cap : {8u, 10u, 12u, 15u}) {
    const auto lengths = BuildCodeLengths(freq, cap);
    const std::uint64_t cost = Cost(freq, lengths);
    EXPECT_LE(cost, previous) << "cap " << cap;
    previous = cost;
  }
}

/// Textbook package-merge, each package carrying the leaves it covers: the
/// construction BuildCodeLengths used before it kept only weights and merge
/// outcomes. Callers pass at least two non-zero frequencies.
std::vector<std::uint8_t> LeafListCodeLengths(
    std::span<const std::uint64_t> frequencies, unsigned max_length) {
  struct Package {
    std::uint64_t weight = 0;
    std::vector<std::uint32_t> leaves;
  };
  const auto weight_less = [](const Package& a, const Package& b) {
    return a.weight < b.weight;
  };
  std::vector<Package> leaf_list;
  for (std::uint32_t symbol = 0; symbol < frequencies.size(); ++symbol) {
    if (frequencies[symbol] != 0) {
      leaf_list.push_back(Package{frequencies[symbol], {symbol}});
    }
  }
  std::stable_sort(leaf_list.begin(), leaf_list.end(), weight_less);
  std::vector<Package> current = leaf_list;
  for (unsigned level = 1; level < max_length; ++level) {
    std::vector<Package> packaged;
    for (std::size_t i = 0; i + 1 < current.size(); i += 2) {
      Package merged{current[i].weight + current[i + 1].weight,
                     current[i].leaves};
      merged.leaves.insert(merged.leaves.end(), current[i + 1].leaves.begin(),
                           current[i + 1].leaves.end());
      packaged.push_back(std::move(merged));
    }
    std::vector<Package> next;
    std::merge(leaf_list.begin(), leaf_list.end(), packaged.begin(),
               packaged.end(), std::back_inserter(next), weight_less);
    current = std::move(next);
  }
  std::vector<std::uint8_t> lengths(frequencies.size(), 0);
  for (std::size_t i = 0; i < 2 * leaf_list.size() - 2; ++i) {
    for (const std::uint32_t symbol : current[i].leaves) ++lengths[symbol];
  }
  return lengths;
}

TEST(PackageMergeIdentityTest, MatchesLeafListConstructionExactly) {
  // Alphabets of 2..320 symbols and every cap from 9 to 15, over frequency
  // shapes that stress the merge order: heavy ties (a handful of distinct
  // values), exponential skews that make the cap bind, sparse alphabets
  // with zeros, and wide uniform spreads.
  Rng rng(0x9a11);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t alphabet = 2 + rng.NextBelow(319);
    const unsigned max_length = 9 + static_cast<unsigned>(rng.NextBelow(7));
    std::vector<std::uint64_t> freq(alphabet);
    switch (trial % 4) {
      case 0:
        for (auto& f : freq) f = 1 + rng.NextBelow(3);
        break;
      case 1:
        for (auto& f : freq) f = std::uint64_t{1} << rng.NextBelow(40);
        break;
      case 2:
        for (auto& f : freq) f = rng.NextBool(0.5) ? 0 : rng.NextBelow(50);
        break;
      default:
        for (auto& f : freq) f = 1 + rng.NextBelow(1000000);
        break;
    }
    ++freq.front();  // at least two live symbols
    ++freq.back();
    ASSERT_EQ(BuildCodeLengths(freq, max_length),
              LeafListCodeLengths(freq, max_length))
        << "trial " << trial << " alphabet " << alphabet << " cap "
        << max_length;
  }
}

}  // namespace
}  // namespace primacy
