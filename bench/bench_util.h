// Shared helpers for the paper-reproduction benches: dataset materialization
// at a bench-friendly size, codec measurement with warmup, table formatting,
// and the BENCH_<name>.json machine-readable report every bench emits.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec.h"
#include "core/primacy_codec.h"
#include "datasets/datasets.h"

namespace primacy::bench {

/// Parses the shared bench flags; call first in every bench main():
///   --quick        CI smoke mode: shrink datasets to 16384 elements
///   --elements N   explicit dataset size (wins over --quick and the env)
/// Unknown flags abort with a usage message. Must run before the first
/// BenchElements()/DatasetValues() call (dataset sizing is resolved once).
void Init(int argc, char** argv);

/// True when Init saw --quick.
bool Quick();

/// Elements per dataset for bench runs. Precedence: --elements, then the
/// PRIMACY_BENCH_ELEMENTS environment variable, then 16384 under --quick,
/// then the 256 Ki default.
std::size_t BenchElements();

/// Dataset values cached per (name, elements) within a process.
const std::vector<double>& DatasetValues(const std::string& name);

/// Raw little-endian bytes of DatasetValues.
ByteSpan DatasetBytes(const std::string& name);

/// One measured PRIMACY run: stream stats plus wall-clock timings.
struct PrimacyMeasurement {
  PrimacyStats stats;
  PrimacyDecodeStats decode_stats;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
  std::size_t compressed_bytes = 0;

  double CompressionRatio() const;
  double CompressMBps() const;
  double DecompressMBps() const;
};

PrimacyMeasurement MeasurePrimacy(std::span<const double> values,
                                  const PrimacyOptions& options = {});

/// Banner + rule printers so every bench reads the same.
void PrintHeader(const std::string& title, const std::string& paper_ref);
void PrintRule(int width = 100);

/// Machine-readable bench output: accumulates labeled rows of key/value
/// fields and writes them as BENCH_<name>.json in the working directory.
/// Every file carries the bench name, a unix timestamp, the dataset size,
/// and the quick flag, so runs are comparable across machines and commits.
/// Non-finite doubles serialize as null (the file must always parse).
class BenchReport {
 public:
  /// One row (e.g. one dataset x codec measurement). Values render to JSON
  /// immediately; insertion order is preserved.
  class Entry {
   public:
    Entry& Set(const std::string& key, double value);
    Entry& Set(const std::string& key, std::size_t value);
    Entry& Set(const std::string& key, int value);
    Entry& Set(const std::string& key, bool value);
    Entry& Set(const std::string& key, const std::string& value);
    /// Distinct overload: without it a string literal binds to bool.
    Entry& Set(const std::string& key, const char* value);

   private:
    friend class BenchReport;
    std::vector<std::pair<std::string, std::string>> fields_;  // key, JSON
  };

  explicit BenchReport(std::string name);
  /// Writes the file on destruction unless Write() already ran.
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Adds a row; the returned reference stays valid until the next AddEntry.
  Entry& AddEntry(const std::string& label);

  /// Writes BENCH_<name>.json and prints its path. Idempotent.
  void Write();

 private:
  std::string name_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

}  // namespace primacy::bench
