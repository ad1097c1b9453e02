// Quickstart: compress a double array with PRIMACY, inspect the per-stage
// statistics, decompress, and verify bit-exactness.
//
//   ./quickstart [dataset-name] [elements]
//
// Dataset names are the Table III profiles (gts_phi_l, num_plasma, ...).
#include <cstdio>
#include <string>

#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "num_plasma";
  const std::size_t elements =
      argc > 2 ? static_cast<std::size_t>(std::stoull(argv[2])) : 1u << 20;

  std::printf("Generating %zu doubles of synthetic dataset '%s'...\n",
              elements, dataset.c_str());
  const std::vector<double> values =
      primacy::GenerateDatasetByName(dataset, elements);
  const std::size_t raw_bytes = values.size() * sizeof(double);

  // Compress with the default options: 3 MB chunks, deflate-class solver,
  // column linearization, a fresh ID index per chunk.
  primacy::PrimacyCompressor compressor;
  primacy::PrimacyStats stats;
  primacy::WallTimer timer;
  const primacy::Bytes stream = compressor.Compress(values, &stats);
  const double compress_seconds = timer.Seconds();

  timer.Reset();
  primacy::PrimacyDecompressor decompressor;
  const std::vector<double> restored = decompressor.Decompress(stream);
  const double decompress_seconds = timer.Seconds();

  if (restored != values) {
    std::printf("ERROR: roundtrip mismatch!\n");
    return 1;
  }

  const auto mb = [](std::size_t bytes) {
    return static_cast<double>(bytes) / 1e6;
  };
  std::printf("\nRoundtrip OK (bit-exact).\n\n");
  std::printf("  input               : %10.2f MB\n", mb(raw_bytes));
  std::printf("  compressed          : %10.2f MB\n", mb(stream.size()));
  std::printf("  compression ratio   : %10.3f\n", stats.CompressionRatio());
  std::printf("  compress throughput : %10.1f MB/s\n",
              primacy::ThroughputMBps(raw_bytes, compress_seconds));
  std::printf("  decompress throughput: %9.1f MB/s\n",
              primacy::ThroughputMBps(raw_bytes, decompress_seconds));
  std::printf("\nPer-stage breakdown:\n");
  std::printf("  chunks              : %10zu\n", stats.chunks);
  std::printf("  index metadata      : %10.2f KB\n",
              static_cast<double>(stats.index_bytes) / 1e3);
  std::printf("  compressed ID bytes : %10.2f MB\n",
              mb(stats.id_compressed_bytes));
  std::printf("  mantissa stream     : %10.2f MB (%.2f MB stored raw)\n",
              mb(stats.mantissa_stream_bytes), mb(stats.mantissa_raw_bytes));
  std::printf("  ISOBAR compressible : %10.1f %% of mantissa columns\n",
              100.0 * stats.mean_compressible_fraction);
  std::printf("  top-byte frequency  : %10.3f -> %.3f (ID mapping gain)\n",
              stats.top_byte_frequency_before, stats.top_byte_frequency_after);
  return 0;
}
