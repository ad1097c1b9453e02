#include "store/checkpoint_store.h"

#include <algorithm>

#include "bitstream/byte_io.h"
#include "telemetry/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace primacy {
namespace {
constexpr std::uint32_t kMagic = 0x314b4350;  // "PCK1"
constexpr std::uint8_t kVersion = 1;

/// Materializes the reader's shared decoded-block cache: an explicit
/// block_cache instance passes through untouched, otherwise one is built
/// from the cache knobs (null when disabled). Every decompressor the
/// reader constructs from these options then shares the same instance.
PrimacyOptions WithMaterializedCache(PrimacyOptions options) {
  if (options.block_cache == nullptr) {
    options.block_cache = MakeBlockCache(options.cache);
  }
  return options;
}

PrimacyOptions SerialOptions(PrimacyOptions options) {
  options.threads = 1;
  return options;
}

}  // namespace

CheckpointWriter::CheckpointWriter(PrimacyOptions options)
    : options_(std::move(options)) {
  PutU32(body_, kMagic);
  PutU8(body_, kVersion);
}

void CheckpointWriter::AddStream(const std::string& name,
                                 std::size_t element_width,
                                 std::size_t elements, Bytes stream) {
  telemetry::TraceSpan span("primacy.checkpoint_add", "variable",
                            static_cast<std::uint64_t>(variables_.size()));
  if (finished_) {
    throw InvalidArgumentError("CheckpointWriter: Add after Finish");
  }
  if (name.empty()) {
    throw InvalidArgumentError("CheckpointWriter: empty variable name");
  }
  if (std::any_of(variables_.begin(), variables_.end(),
                  [&](const VariableInfo& v) { return v.name == name; })) {
    throw InvalidArgumentError("CheckpointWriter: duplicate variable " + name);
  }
  VariableInfo info;
  info.name = name;
  info.element_width = element_width;
  info.elements = elements;
  info.stream_offset = body_.size();
  info.stream_bytes = stream.size();
  AppendBytes(body_, stream);
  variables_.push_back(std::move(info));
}

void CheckpointWriter::Add(const std::string& name,
                           std::span<const double> values,
                           std::optional<PrimacyOptions> override_options) {
  PrimacyOptions options = override_options.value_or(options_);
  options.precision = Precision::kDouble;
  AddStream(name, 8, values.size(),
            PrimacyCompressor(options).Compress(values));
}

void CheckpointWriter::Add(const std::string& name,
                           std::span<const float> values,
                           std::optional<PrimacyOptions> override_options) {
  PrimacyOptions options = override_options.value_or(options_);
  options.precision = Precision::kSingle;
  AddStream(name, 4, values.size(),
            PrimacyCompressor(options).Compress(values));
}

Bytes CheckpointWriter::Finish() {
  if (finished_) {
    throw InvalidArgumentError("CheckpointWriter: double Finish");
  }
  finished_ = true;
  Bytes footer;
  PutVarint(footer, variables_.size());
  for (const VariableInfo& info : variables_) {
    PutBlock(footer, BytesFromString(info.name));
    PutU8(footer, static_cast<std::uint8_t>(info.element_width));
    PutVarint(footer, info.elements);
    PutVarint(footer, info.stream_offset);
    PutVarint(footer, info.stream_bytes);
  }
  AppendBytes(body_, footer);
  // Fixed-width footer locator so the reader can seek from the end.
  PutU32(body_, static_cast<std::uint32_t>(footer.size()));
  PutU32(body_, kMagic);
  return std::move(body_);
}

CheckpointReader::CheckpointReader(ByteSpan file, PrimacyOptions decode_options)
    : file_(file),
      decode_options_(WithMaterializedCache(std::move(decode_options))),
      decompressor_(decode_options_),
      serial_decompressor_(SerialOptions(decode_options_)) {
  if (file.size() < 13) {
    throw CorruptStreamError("checkpoint: file too small");
  }
  {
    ByteReader head(file.first(5));
    if (head.GetU32() != kMagic || head.GetU8() != kVersion) {
      throw CorruptStreamError("checkpoint: bad header");
    }
  }
  ByteReader locator(file.subspan(file.size() - 8));
  const std::uint32_t footer_size = locator.GetU32();
  if (locator.GetU32() != kMagic) {
    throw CorruptStreamError("checkpoint: bad footer magic");
  }
  // Subtraction, not addition: footer_size + 13 can wrap in 32 bits and a
  // wrapped sum would pass the check with an out-of-range subspan below.
  if (footer_size > file.size() - 13) {
    throw CorruptStreamError("checkpoint: footer size out of range");
  }
  ByteReader footer(file.subspan(file.size() - 8 - footer_size, footer_size));
  const std::uint64_t count = footer.GetVarint();
  for (std::uint64_t i = 0; i < count; ++i) {
    VariableInfo info;
    info.name = StringFromBytes(footer.GetBlock());
    info.element_width = footer.GetU8();
    if (info.element_width != 4 && info.element_width != 8) {
      throw CorruptStreamError("checkpoint: bad element width");
    }
    info.elements = footer.GetVarint();
    info.stream_offset = footer.GetVarint();
    info.stream_bytes = footer.GetVarint();
    const std::size_t body_end = file.size() - 8 - footer_size;
    if (info.stream_offset < 5 || info.stream_offset > body_end ||
        info.stream_bytes > body_end - info.stream_offset) {
      throw CorruptStreamError("checkpoint: variable extent out of range");
    }
    variables_.push_back(std::move(info));
  }
  if (!footer.AtEnd()) {
    throw CorruptStreamError("checkpoint: trailing footer bytes");
  }
  by_name_.reserve(variables_.size());
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    by_name_.emplace(variables_[i].name, i);  // first entry wins
  }
}

const VariableInfo& CheckpointReader::Find(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw InvalidArgumentError("checkpoint: no variable named " + name);
  }
  return variables_[it->second];
}

ByteSpan CheckpointReader::StreamOf(const VariableInfo& info) const {
  return file_.subspan(info.stream_offset, info.stream_bytes);
}

std::vector<double> CheckpointReader::ReadDoubles(
    const std::string& name, PrimacyDecodeStats* stats) const {
  const VariableInfo& info = Find(name);
  if (info.element_width != 8) {
    throw InvalidArgumentError("checkpoint: " + name + " is single precision");
  }
  std::vector<double> values = decompressor_.Decompress(StreamOf(info), stats);
  if (values.size() != info.elements) {
    throw CorruptStreamError("checkpoint: element count mismatch for " + name);
  }
  return values;
}

std::vector<float> CheckpointReader::ReadFloats(const std::string& name,
                                                PrimacyDecodeStats* stats) const {
  const VariableInfo& info = Find(name);
  if (info.element_width != 4) {
    throw InvalidArgumentError("checkpoint: " + name + " is double precision");
  }
  std::vector<float> values =
      decompressor_.Decompress<float>(StreamOf(info), stats);
  if (values.size() != info.elements) {
    throw CorruptStreamError("checkpoint: element count mismatch for " + name);
  }
  return values;
}

std::vector<double> CheckpointReader::ReadDoublesRange(
    const std::string& name, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  const VariableInfo& info = Find(name);
  if (info.element_width != 8) {
    throw InvalidArgumentError("checkpoint: " + name + " is single precision");
  }
  return decompressor_.DecompressRange(StreamOf(info), first_element, count,
                                       stats);
}

std::vector<float> CheckpointReader::ReadFloatsRange(
    const std::string& name, std::uint64_t first_element, std::uint64_t count,
    PrimacyDecodeStats* stats) const {
  const VariableInfo& info = Find(name);
  if (info.element_width != 4) {
    throw InvalidArgumentError("checkpoint: " + name + " is double precision");
  }
  return decompressor_.DecompressRange<float>(StreamOf(info), first_element,
                                              count, stats);
}

std::vector<Bytes> CheckpointReader::ReadAllRaw(
    PrimacyDecodeStats* stats) const {
  // Variable-parallel restore; each stream decodes serially inside (the
  // outer fan-out already uses the requested concurrency).
  std::vector<Bytes> raw(variables_.size());
  std::vector<PrimacyDecodeStats> per_variable(variables_.size());
  SharedThreadPool().ParallelForSlots(
      variables_.size(), decode_options_.threads,
      [&](std::size_t, std::size_t v) {
        telemetry::TraceSpan span("primacy.checkpoint_read", "variable",
                                  static_cast<std::uint64_t>(v));
        const VariableInfo& info = variables_[v];
        raw[v] =
            serial_decompressor_.DecompressBytes(StreamOf(info), &per_variable[v]);
        if (raw[v].size() != info.elements * info.element_width) {
          throw CorruptStreamError("checkpoint: element count mismatch for " +
                                   info.name);
        }
      });
  if (stats != nullptr) {
    PrimacyDecodeStats totals;
    for (const PrimacyDecodeStats& s : per_variable) totals.Accumulate(s);
    *stats = totals;
  }
  return raw;
}

std::vector<VariableVerifyResult> CheckpointReader::VerifyAll() const {
  std::vector<VariableVerifyResult> results(variables_.size());
  SharedThreadPool().ParallelForSlots(
      variables_.size(), decode_options_.threads,
      [&](std::size_t, std::size_t v) {
        results[v].name = variables_[v].name;
        results[v].stream = VerifyStream(StreamOf(variables_[v]));
      });
  return results;
}

}  // namespace primacy
