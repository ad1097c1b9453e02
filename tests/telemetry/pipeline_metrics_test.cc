// End-to-end checks that the pipeline's telemetry agrees with itself: the
// PrimacyStats/PrimacyDecodeStats stage breakdowns must match the registry's
// per-stage histograms and the trace exactly (one StageTimer feeds all
// three), and serial vs parallel decode must produce identical
// data-dependent stats and metric deltas (only timing and threads_used may
// differ).
#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/streaming.h"
#include "datasets/datasets.h"
#include "telemetry/metrics.h"
#include "telemetry/stage.h"
#include "telemetry/stage_stack.h"
#include "telemetry/trace.h"

namespace primacy {
namespace {

using telemetry::HistogramSnapshot;
using telemetry::kStageCount;
using telemetry::MetricsRegistry;
using telemetry::Pipeline;
using telemetry::Stage;
using telemetry::StageName;

std::uint64_t CounterValue(const char* name, std::string labels = {}) {
  return MetricsRegistry::Global().GetCounter(name, labels).Value();
}

using StageSnapshots = std::array<HistogramSnapshot, kStageCount>;

StageSnapshots StageHistograms(Pipeline pipeline) {
  StageSnapshots snapshots;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    snapshots[s] =
        telemetry::StageSecondsHistogram(pipeline, static_cast<Stage>(s))
            .Snapshot();
  }
  return snapshots;
}

/// Per stage, the histogram gained one observation per chunk that ran it
/// and its _sum grew by the stats' seconds (to within double rounding).
void ExpectStagesMatchRegistry(Pipeline pipeline, const StageSnapshots& before,
                               const telemetry::StageBreakdown& stage,
                               std::size_t chunks) {
  EXPECT_NE(stage.TotalNs(), 0u);
  const StageSnapshots after = StageHistograms(pipeline);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const HistogramSnapshot delta = after[s].DeltaSince(before[s]);
    const Stage id = static_cast<Stage>(s);
    EXPECT_EQ(delta.count, stage[id] == 0 ? 0u : chunks) << StageName(id);
    EXPECT_NEAR(delta.sum, stage.Seconds(id),
                1e-9 * static_cast<double>(chunks))
        << StageName(id);
  }
}

std::vector<double> TestValues() {
  return GenerateDatasetByName("num_plasma", 1u << 16);
}

PrimacyOptions SmallChunkOptions() {
  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;  // 8 chunks at 1<<16 doubles
  return options;
}

TEST(PipelineMetricsTest, EncodeStageStatsMatchRegistryExactly) {
  const std::vector<double> values = TestValues();
  const StageSnapshots before = StageHistograms(Pipeline::kEncode);
  const std::uint64_t chunks_before =
      CounterValue("primacy_encode_chunks_total");
  const std::uint64_t input_before =
      CounterValue("primacy_encode_input_bytes_total");

  PrimacyStats stats;
  PrimacyCompressor(SmallChunkOptions()).Compress(values, &stats);

  ExpectStagesMatchRegistry(Pipeline::kEncode, before, stats.stage,
                            stats.chunks);
  EXPECT_EQ(CounterValue("primacy_encode_chunks_total") - chunks_before,
            stats.chunks);
  EXPECT_EQ(CounterValue("primacy_encode_input_bytes_total") - input_before,
            stats.input_bytes);
}

TEST(PipelineMetricsTest, DecodeStageStatsMatchRegistryExactly) {
  const std::vector<double> values = TestValues();
  const Bytes stream = PrimacyCompressor(SmallChunkOptions()).Compress(values);

  const StageSnapshots before = StageHistograms(Pipeline::kDecode);
  PrimacyDecodeStats stats;
  const std::vector<double> restored =
      PrimacyDecompressor(SmallChunkOptions()).Decompress(stream, &stats);

  ASSERT_EQ(restored, values);
  ExpectStagesMatchRegistry(Pipeline::kDecode, before, stats.stage,
                            stats.chunks_decoded);
}

TEST(PipelineMetricsTest, DecodeChecksumTimeReachesTheHistogram) {
  // Regression: checksum time used to miss the decode stage histogram.
  const Bytes stream =
      PrimacyCompressor(SmallChunkOptions()).Compress(TestValues());
  const telemetry::Histogram& checksum =
      telemetry::StageSecondsHistogram(Pipeline::kDecode, Stage::kChecksum);

  const std::uint64_t count0 = checksum.Count();
  PrimacyDecodeStats stats;
  PrimacyDecompressor(SmallChunkOptions()).DecompressBytes(stream, &stats);
  const std::uint64_t count1 = checksum.Count();
  PrimacyStreamReader reader(stream);
  Bytes out;
  std::size_t reader_chunks = 0;
  while (reader.NextChunk(out)) ++reader_chunks;

  ASSERT_GT(stats.chunks_verified, 1u);
  ASSERT_EQ(reader_chunks, stats.chunks_verified);
  EXPECT_EQ(count1 - count0, reader_chunks);
  EXPECT_EQ(checksum.Count() - count1, reader_chunks);
  EXPECT_NE(reader.stage_breakdown()[Stage::kChecksum], 0u);
}

TEST(PipelineMetricsTest, TraceSpansEqualTheChunkStageLaps) {
  RegisterBuiltinCodecs();
  const auto solver = CreateCodec("deflate");
  const std::vector<double> values = TestValues();
  telemetry::ClearTraceBuffers();
  telemetry::SetTracingEnabled(true);
  Bytes record;
  const ChunkRecordStats stats =
      ChunkEncoder(SmallChunkOptions(), *solver)
          .EncodeChunk(AsBytes(std::span<const double>(values).first(8192)),
                       record);
  telemetry::SetTracingEnabled(false);

  // One child span per non-zero stage, lasting exactly its lap (encode laps
  // run in Stage order), then the chunk span covering them all.
  std::vector<std::string> expected_names;
  std::vector<std::uint64_t> expected_ns;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (stats.stage.ns[s] == 0) continue;
    expected_names.push_back("primacy.stage." +
                             std::string(StageName(static_cast<Stage>(s))));
    expected_ns.push_back(stats.stage.ns[s]);
  }
  expected_names.emplace_back("primacy.encode_chunk");
  expected_ns.push_back(stats.stage.TotalNs());
  std::vector<std::string> names;
  std::vector<std::uint64_t> durations;
  for (const telemetry::TraceEvent& e : telemetry::SnapshotTraceEvents()) {
    names.emplace_back(e.name);
    durations.push_back(e.dur_ns);
  }
  EXPECT_EQ(names, expected_names);
  EXPECT_EQ(durations, expected_ns);
}

TEST(PipelineMetricsTest, SerialAndParallelDecodeIdenticalStatsAndMetrics) {
  const std::vector<double> values = TestValues();
  const Bytes stream = PrimacyCompressor(SmallChunkOptions()).Compress(values);

  PrimacyOptions serial_options = SmallChunkOptions();
  serial_options.threads = 1;
  PrimacyOptions parallel_options = SmallChunkOptions();
  parallel_options.threads = 4;

  const std::uint64_t chunks0 = CounterValue("primacy_decode_chunks_total");
  const std::uint64_t bytes0 =
      CounterValue("primacy_decode_output_bytes_total");
  PrimacyDecodeStats serial_stats;
  const auto serial_out =
      PrimacyDecompressor(serial_options).Decompress(stream, &serial_stats);
  const std::uint64_t chunks1 = CounterValue("primacy_decode_chunks_total");
  const std::uint64_t bytes1 =
      CounterValue("primacy_decode_output_bytes_total");
  PrimacyDecodeStats parallel_stats;
  const auto parallel_out =
      PrimacyDecompressor(parallel_options)
          .Decompress(stream, &parallel_stats);
  const std::uint64_t chunks2 = CounterValue("primacy_decode_chunks_total");
  const std::uint64_t bytes2 =
      CounterValue("primacy_decode_output_bytes_total");

  EXPECT_EQ(serial_out, parallel_out);
  EXPECT_EQ(serial_out, values);

  // Data-dependent stats are mode-independent.
  EXPECT_EQ(serial_stats.chunks_decoded, parallel_stats.chunks_decoded);
  EXPECT_EQ(serial_stats.output_bytes, parallel_stats.output_bytes);
  EXPECT_EQ(serial_stats.used_directory, parallel_stats.used_directory);
  EXPECT_EQ(serial_stats.chunks_verified, parallel_stats.chunks_verified);
  EXPECT_GT(serial_stats.chunks_decoded, 1u);

  // Both runs publish identical metric deltas (timing counters aside).
  EXPECT_EQ(chunks1 - chunks0, chunks2 - chunks1);
  EXPECT_EQ(bytes1 - bytes0, bytes2 - bytes1);
  EXPECT_EQ(chunks1 - chunks0, serial_stats.chunks_decoded);
  EXPECT_EQ(bytes1 - bytes0, serial_stats.output_bytes);
  // Both modes run the same decode stages; the heavy ones must register
  // time in each (exact ns differ — they are timings, not byte counts).
  for (const telemetry::Stage s :
       {telemetry::Stage::kSolver, telemetry::Stage::kIsobar,
        telemetry::Stage::kMerge}) {
    EXPECT_GT(serial_stats.stage[s], 0u) << StageName(s);
    EXPECT_GT(parallel_stats.stage[s], 0u) << StageName(s);
  }
  // Encode-only stages stay untouched on the decode path.
  EXPECT_EQ(serial_stats.stage[telemetry::Stage::kSplit], 0u);
  EXPECT_EQ(parallel_stats.stage[telemetry::Stage::kSplit], 0u);
}

TEST(PipelineMetricsTest, StatsMeansSurviveStreamingAccumulation) {
  // The assembler folds chunk stats through PrimacyStats::Accumulate: the
  // mean fields reported for a multi-chunk stream must be averages, not
  // sums.
  const std::vector<double> values = TestValues();
  PrimacyStats stats;
  PrimacyCompressor(SmallChunkOptions()).Compress(values, &stats);
  EXPECT_GT(stats.chunks, 1u);
  EXPECT_GE(stats.mean_compressible_fraction, 0.0);
  EXPECT_LE(stats.mean_compressible_fraction, 1.0);
  EXPECT_GE(stats.top_byte_frequency_before, 0.0);
  EXPECT_LE(stats.top_byte_frequency_before, 1.0);
  EXPECT_GE(stats.top_byte_frequency_after, 0.0);
  EXPECT_LE(stats.top_byte_frequency_after, 1.0);
}

}  // namespace
}  // namespace primacy
