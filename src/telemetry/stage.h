// Pipeline stage taxonomy shared by the chunk encoder/decoder, the metrics
// registry, and the model-validation bench.
//
// The stages are the measurable units of the paper's performance model
// (Section III): split + frequency + id_map + serialize make up the
// preconditioner (T_prec, Eqs. 7-8), solver + isobar the solver passes
// (T_comp, Eqs. 9-10); on the read path solver + isobar are T_decomp and
// frequency (index restore) + id_map + merge the inverse preconditioner.
// checksum is the v3 integrity pass, outside the paper's model.
//
// StageBreakdown is plain data; StageTimer (stage_stack.h) is the
// collection primitive that fills it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace primacy::telemetry {

enum class Stage : std::uint8_t {
  kSplit = 0,   // big-endian rows + high/low byte split (encode only)
  kFrequency,   // pair-frequency analysis + index build/extend/deserialize
  kIdMap,       // MapToIds / MapFromIds, including linearization
  kSolver,      // solver codec over the ID bytes
  kIsobar,      // ISOBAR partition compress/decompress of the mantissa
  kChecksum,    // XXH64 verification (v3 decode paths)
  kMerge,       // decode-side fused high/low merge to native layout
  kSerialize,   // record framing: varints, blocks, index serialization
};
inline constexpr std::size_t kStageCount = 8;

/// Which chunk pipeline a stage runs in; selects the
/// primacy_{encode,decode}_stage_seconds family a lap is published to.
enum class Pipeline : std::uint8_t { kEncode = 0, kDecode };

constexpr std::string_view StageName(Stage stage) {
  constexpr std::array<std::string_view, kStageCount> kNames = {
      "split",  "frequency", "id_map", "solver",
      "isobar", "checksum",  "merge",  "serialize"};
  return kNames[static_cast<std::size_t>(stage)];
}

/// Per-stage elapsed nanoseconds, accumulated across chunks (and, for
/// parallel runs, across workers — so totals are CPU seconds, not wall).
struct StageBreakdown {
  std::array<std::uint64_t, kStageCount> ns{};

  std::uint64_t& operator[](Stage stage) {
    return ns[static_cast<std::size_t>(stage)];
  }
  std::uint64_t operator[](Stage stage) const {
    return ns[static_cast<std::size_t>(stage)];
  }

  double Seconds(Stage stage) const {
    return static_cast<double>((*this)[stage]) * 1e-9;
  }

  std::uint64_t TotalNs() const {
    std::uint64_t total = 0;
    for (const std::uint64_t v : ns) total += v;
    return total;
  }

  void Accumulate(const StageBreakdown& other) {
    for (std::size_t i = 0; i < kStageCount; ++i) ns[i] += other.ns[i];
  }
};

}  // namespace primacy::telemetry
