// Multi-variable checkpoint store: a simulation state with several named
// fields of mixed precision is packed into one self-describing checkpoint
// file; the restart reads back only the variables it needs, lazily.
//
//   ./multivar_checkpoint [elements-per-field]
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "datasets/datasets.h"
#include "store/checkpoint_store.h"
#include "util/error.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  const std::size_t elements =
      argc > 1 ? static_cast<std::size_t>(std::stoull(argv[1])) : 1u << 19;

  // A plausible fusion-simulation state: two double fields, one float field.
  const auto phi = primacy::GenerateDatasetByName("gts_phi_l", elements);
  const auto density = primacy::GenerateDatasetByName("num_plasma", elements);
  std::vector<float> diagnostics(elements / 4);
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    diagnostics[i] = static_cast<float>(phi[i * 4]);
  }
  const std::size_t raw_bytes =
      phi.size() * 8 + density.size() * 8 + diagnostics.size() * 4;

  primacy::PrimacyOptions options;
  options.index_mode = primacy::IndexMode::kReuseWhenCorrelated;

  primacy::WallTimer timer;
  primacy::CheckpointWriter writer(options);
  writer.Add("phi", std::span(phi));
  writer.Add("density", std::span(density));
  writer.Add("diagnostics", std::span(diagnostics));
  const primacy::Bytes file = writer.Finish();
  const double write_seconds = timer.Seconds();

  const auto path =
      std::filesystem::temp_directory_path() / "primacy_multivar.pck";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }

  std::printf("checkpoint: %zu variables, %.2f MB raw -> %.2f MB (%.3fx) in %.2fs\n\n",
              static_cast<std::size_t>(3), static_cast<double>(raw_bytes) / 1e6,
              static_cast<double>(file.size()) / 1e6,
              static_cast<double>(raw_bytes) / static_cast<double>(file.size()),
              write_seconds);

  const primacy::CheckpointReader reader(file);
  std::printf("%-14s %8s %12s %14s %8s\n", "variable", "width", "elements",
              "compressed", "ratio");
  for (const primacy::VariableInfo& info : reader.variables()) {
    std::printf("%-14s %8zu %12zu %14zu %8.3f\n", info.name.c_str(),
                info.element_width, info.elements, info.stream_bytes,
                info.CompressionRatio());
  }

  // Partial restart: an analysis job only needs `density`.
  timer.Reset();
  const auto restored = reader.ReadDoubles("density");
  std::printf("\npartial restore of 'density': %.1f MB/s, %s\n",
              primacy::ThroughputMBps(restored.size() * 8, timer.Seconds()),
              restored == density ? "bit-exact" : "MISMATCH");
  std::filesystem::remove(path);
  return restored == density ? 0 : 1;
}
