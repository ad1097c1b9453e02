// Checkpoint & restart pipeline: the paper's motivating workload.
//
// A simulated compute node produces a large double-precision state array
// every "timestep"; a CheckpointWriter compresses it chunk-parallel across
// the thread pool into a checkpoint file, and a restart reads the file back
// and restores the state through a CheckpointReader. Timings for every
// phase are printed so the compression-vs-I/O trade is visible.
//
//   ./checkpoint_pipeline [dataset] [elements] [timesteps]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "datasets/datasets.h"
#include "store/checkpoint_store.h"
#include "util/error.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "gts_chkp_zeon";
  const std::size_t elements =
      argc > 2 ? static_cast<std::size_t>(std::stoull(argv[2])) : 1u << 21;
  const int timesteps = argc > 3 ? std::stoi(argv[3]) : 3;

  const auto path = std::filesystem::temp_directory_path() /
                    "primacy_checkpoint.pck";
  // Chunk-parallel on every hardware thread; kPerChunk indexing (the
  // default) keeps the chunks independent, so the output is byte-identical
  // to a serial run.
  primacy::PrimacyOptions options;
  options.threads = 0;

  std::printf("Checkpoint pipeline: dataset=%s, %zu doubles, %d timesteps\n",
              dataset.c_str(), elements, timesteps);
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "timestep", "compress(s)",
              "write(s)", "read(s)", "restore(s)", "ratio");

  for (int step = 0; step < timesteps; ++step) {
    // Each timestep perturbs the seed so content evolves between steps.
    primacy::DatasetSpec spec = primacy::FindDataset(dataset);
    spec.seed += static_cast<std::uint64_t>(step);
    const std::vector<double> state = primacy::GenerateDataset(spec, elements);

    primacy::WallTimer timer;
    primacy::CheckpointWriter writer(options);
    writer.Add("state", state);
    const primacy::Bytes checkpoint = writer.Finish();
    const double compress_s = timer.Seconds();

    timer.Reset();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(checkpoint.data()),
                static_cast<std::streamsize>(checkpoint.size()));
      if (!out) throw primacy::Error("checkpoint write failed");
    }
    const double write_s = timer.Seconds();

    timer.Reset();
    std::ifstream in(path, std::ios::binary);
    const std::string raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    const primacy::Bytes file = primacy::BytesFromString(raw);
    const double read_s = timer.Seconds();

    timer.Reset();
    const primacy::CheckpointReader reader(file, options);
    const std::vector<double> restored = reader.ReadDoubles("state");
    const double restore_s = timer.Seconds();

    if (restored != state) {
      std::printf("ERROR: restart mismatch at timestep %d\n", step);
      return 1;
    }
    std::printf("%-10d %12.3f %12.3f %12.3f %12.3f %10.3f\n", step,
                compress_s, write_s, read_s, restore_s,
                reader.Find("state").CompressionRatio());
  }
  std::filesystem::remove(path);
  std::printf("\nAll restarts verified bit-exact.\n");
  return 0;
}
