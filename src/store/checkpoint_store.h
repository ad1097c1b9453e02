// Named-variable checkpoint container: the adoption surface a simulation
// code actually wants. A checkpoint holds any number of named double/float
// arrays, each compressed as an independent PRIMACY stream (so variables
// restore independently and in parallel), with a footer index for O(1)
// lookup without scanning the file.
//
// File format:
//   u32 magic "PCK1", u8 version
//   per variable: the raw PRIMACY stream bytes (self-describing)
//   footer: varint variable_count,
//           per variable: block(name), u8 element_width, varint elements,
//                         varint stream_offset, varint stream_bytes
//   varint footer_size, u32 magic again (footer locator, read from the end)
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/primacy_codec.h"

namespace primacy {

/// Footer entry describing one stored variable.
struct VariableInfo {
  std::string name;
  std::size_t element_width = 8;  // 8 = double, 4 = float
  std::size_t elements = 0;
  std::size_t stream_offset = 0;
  std::size_t stream_bytes = 0;

  double CompressionRatio() const {
    return stream_bytes == 0 ? 0.0
                             : static_cast<double>(elements * element_width) /
                                   static_cast<double>(stream_bytes);
  }
};

/// One variable's outcome from CheckpointReader::VerifyAll.
struct VariableVerifyResult {
  std::string name;
  StreamVerifyResult stream;
};

/// Builds a checkpoint in memory; variables are compressed on Add.
class CheckpointWriter {
 public:
  /// `options` sets the default compression configuration; per-variable
  /// overrides can be passed to Add.
  explicit CheckpointWriter(PrimacyOptions options = {});

  /// Adds a named double array. Names must be unique and non-empty.
  void Add(const std::string& name, std::span<const double> values,
           std::optional<PrimacyOptions> override_options = std::nullopt);
  /// Adds a named float array.
  void Add(const std::string& name, std::span<const float> values,
           std::optional<PrimacyOptions> override_options = std::nullopt);

  /// Finalizes the container (appends the footer). The writer is spent.
  Bytes Finish();

  std::size_t variable_count() const { return variables_.size(); }

 private:
  void AddStream(const std::string& name, std::size_t element_width,
                 std::size_t elements, Bytes stream);

  PrimacyOptions options_;
  Bytes body_;
  std::vector<VariableInfo> variables_;
  bool finished_ = false;
};

/// Reads a checkpoint container. Lookup is footer-driven: nothing is
/// decompressed until a variable is requested.
class CheckpointReader {
 public:
  /// `file` must outlive the reader. `decode_options` carries the decode-side
  /// knobs (threads: within-variable parallel decode for the single-variable
  /// reads, variable-parallel fan-out for ReadAllRaw; block_cache: when set,
  /// every read path of this reader decodes through that one cache, so
  /// repeated range reads over the same variable skip the chunk decode).
  /// The variable directory, the name-lookup index, and the decompressor
  /// state are all built here, once, not per read call.
  explicit CheckpointReader(ByteSpan file, PrimacyOptions decode_options = {});

  const std::vector<VariableInfo>& variables() const { return variables_; }

  /// Metadata for `name`; throws InvalidArgumentError if absent.
  const VariableInfo& Find(const std::string& name) const;

  /// Decompress one variable.
  std::vector<double> ReadDoubles(const std::string& name,
                                  PrimacyDecodeStats* stats = nullptr) const;
  std::vector<float> ReadFloats(const std::string& name,
                                PrimacyDecodeStats* stats = nullptr) const;

  /// Partial restore: elements [first_element, first_element + count) of one
  /// variable, decoding only the chunks that cover the range (a stored
  /// variable is sliced). Every stream version reads by range.
  std::vector<double> ReadDoublesRange(const std::string& name,
                                       std::uint64_t first_element,
                                       std::uint64_t count,
                                       PrimacyDecodeStats* stats = nullptr) const;
  std::vector<float> ReadFloatsRange(const std::string& name,
                                     std::uint64_t first_element,
                                     std::uint64_t count,
                                     PrimacyDecodeStats* stats = nullptr) const;

  /// Decompresses every variable, variable-parallel on the shared pool
  /// (decode_options.threads; 0 = hardware concurrency). Returns the raw
  /// element bytes per variable in footer order; `stats` (optional) receives
  /// the decode accounting summed across variables.
  std::vector<Bytes> ReadAllRaw(PrimacyDecodeStats* stats = nullptr) const;

  /// Integrity check without materializing any variable: runs VerifyStream
  /// over every variable's stream (hash-only for v3 streams, structural
  /// decode for v1/v2), variable-parallel on the shared pool. Never throws
  /// on corrupt variables — each failure is reported in its result entry,
  /// in footer order.
  std::vector<VariableVerifyResult> VerifyAll() const;

  /// The decoded-block cache shared by this reader's decode paths
  /// (decode_options.block_cache; null = uncached).
  const std::shared_ptr<DecodedBlockCache>& cache() const {
    return decompressor_.cache();
  }

 private:
  ByteSpan StreamOf(const VariableInfo& info) const;

  ByteSpan file_;
  PrimacyOptions decode_options_;
  std::vector<VariableInfo> variables_;
  /// Footer-order index by name (duplicate names keep the first entry, as
  /// the old linear scan did).
  std::unordered_map<std::string, std::size_t> by_name_;
  /// Hoisted decode state, built once in the constructor instead of per
  /// read call: a decompressor with the reader's options and a serial
  /// (threads = 1) twin for the variable-parallel fan-out paths. Both share
  /// decode_options_.block_cache.
  PrimacyDecompressor decompressor_;
  PrimacyDecompressor serial_decompressor_;
};

}  // namespace primacy
