#include "store/checkpoint_store.h"

#include <gtest/gtest.h>

#include <memory>

#include "datasets/datasets.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

std::vector<float> Floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) {
    v = static_cast<float>(rng.NextGaussian());
  }
  return out;
}

TEST(CheckpointStoreTest, MultiVariableRoundTrip) {
  const auto phi = GenerateDatasetByName("gts_phi_l", 30000);
  const auto temp = GenerateDatasetByName("obs_temp", 20000);
  const auto vel = Floats(15000, 1);

  CheckpointWriter writer;
  writer.Add("phi", std::span(phi));
  writer.Add("temp", std::span(temp));
  writer.Add("velocity_x", std::span(vel));
  const Bytes file = writer.Finish();

  const CheckpointReader reader(file);
  ASSERT_EQ(reader.variables().size(), 3u);
  EXPECT_EQ(reader.ReadDoubles("phi"), phi);
  EXPECT_EQ(reader.ReadDoubles("temp"), temp);
  EXPECT_EQ(reader.ReadFloats("velocity_x"), vel);
}

TEST(CheckpointStoreTest, FooterMetadataIsAccurate) {
  const auto phi = GenerateDatasetByName("num_plasma", 25000);
  CheckpointWriter writer;
  writer.Add("phi", std::span(phi));
  const Bytes file = writer.Finish();
  const CheckpointReader reader(file);
  const VariableInfo& info = reader.Find("phi");
  EXPECT_EQ(info.elements, phi.size());
  EXPECT_EQ(info.element_width, 8u);
  EXPECT_GT(info.CompressionRatio(), 1.0);
}

TEST(CheckpointStoreTest, PerVariableOptionsHonored) {
  const auto data = GenerateDatasetByName("obs_info", 20000);
  PrimacyOptions fast;
  fast.solver = "lzfast";
  CheckpointWriter writer;
  writer.Add("default", std::span(data));
  writer.Add("fast", std::span(data), fast);
  const Bytes file = writer.Finish();
  const CheckpointReader reader(file);
  // Solver is embedded per stream, so both restore through one reader.
  EXPECT_EQ(reader.ReadDoubles("default"), data);
  EXPECT_EQ(reader.ReadDoubles("fast"), data);
  // The lzfast stream should be larger (weaker solver) on this dataset.
  EXPECT_GE(reader.Find("fast").stream_bytes,
            reader.Find("default").stream_bytes);
}

TEST(CheckpointStoreTest, EmptyCheckpointRoundTrips) {
  CheckpointWriter writer;
  const Bytes file = writer.Finish();
  const CheckpointReader reader(file);
  EXPECT_TRUE(reader.variables().empty());
}

TEST(CheckpointStoreTest, EmptyVariableAllowed) {
  CheckpointWriter writer;
  writer.Add("nothing", std::span<const double>{});
  const Bytes file = writer.Finish();
  EXPECT_TRUE(CheckpointReader(file).ReadDoubles("nothing").empty());
}

TEST(CheckpointStoreTest, DuplicateNameRejected) {
  const std::vector<double> data(10, 1.0);
  CheckpointWriter writer;
  writer.Add("x", std::span(data));
  EXPECT_THROW(writer.Add("x", std::span(data)), InvalidArgumentError);
  EXPECT_THROW(writer.Add("", std::span(data)), InvalidArgumentError);
}

TEST(CheckpointStoreTest, AddAfterFinishRejected) {
  const std::vector<double> data(10, 1.0);
  CheckpointWriter writer;
  writer.Finish();
  EXPECT_THROW(writer.Add("x", std::span(data)), InvalidArgumentError);
  EXPECT_THROW(writer.Finish(), InvalidArgumentError);
}

TEST(CheckpointStoreTest, UnknownVariableRejected) {
  CheckpointWriter writer;
  const Bytes file = writer.Finish();
  EXPECT_THROW(CheckpointReader(file).ReadDoubles("ghost"),
               InvalidArgumentError);
}

TEST(CheckpointStoreTest, PrecisionMismatchRejected) {
  const std::vector<double> doubles(10, 1.0);
  CheckpointWriter writer;
  writer.Add("d", std::span(doubles));
  const Bytes file = writer.Finish();
  const CheckpointReader reader(file);
  EXPECT_THROW(reader.ReadFloats("d"), InvalidArgumentError);
}

TEST(CheckpointStoreTest, CorruptFooterDetected) {
  const auto data = GenerateDatasetByName("obs_info", 5000);
  CheckpointWriter writer;
  writer.Add("x", std::span(data));
  Bytes file = writer.Finish();
  file[file.size() - 1] = 0_b;  // break the footer magic
  EXPECT_THROW(CheckpointReader reader(file), CorruptStreamError);
}

TEST(CheckpointStoreTest, TruncationDetected) {
  const auto data = GenerateDatasetByName("obs_info", 5000);
  CheckpointWriter writer;
  writer.Add("x", std::span(data));
  Bytes file = writer.Finish();
  file.resize(file.size() / 2);
  EXPECT_THROW(CheckpointReader reader(file), CorruptStreamError);
}

TEST(CheckpointStoreTest, RangeReadsRestorePartialVariables) {
  const auto phi = GenerateDatasetByName("gts_phi_l", 40000);
  const auto vel = Floats(30000, 2);
  PrimacyOptions small;
  small.chunk_bytes = 64 * 1024;  // 8192 doubles / 16384 floats per chunk
  CheckpointWriter writer(small);
  writer.Add("phi", std::span(phi));
  writer.Add("velocity_x", std::span(vel));
  const Bytes file = writer.Finish();
  const CheckpointReader reader(file);

  PrimacyDecodeStats stats;
  const auto phi_slice = reader.ReadDoublesRange("phi", 10000, 5000, &stats);
  EXPECT_EQ(phi_slice,
            std::vector<double>(phi.begin() + 10000, phi.begin() + 15000));
  EXPECT_EQ(stats.chunks_decoded, 1u);  // [10000, 15000) sits in chunk 1

  const auto vel_slice = reader.ReadFloatsRange("velocity_x", 100, 200);
  EXPECT_EQ(vel_slice,
            std::vector<float>(vel.begin() + 100, vel.begin() + 300));

  EXPECT_THROW(reader.ReadDoublesRange("phi", 40000, 1),
               InvalidArgumentError);
  EXPECT_THROW(reader.ReadFloatsRange("phi", 0, 1), InvalidArgumentError);
}

TEST(CheckpointStoreTest, ReadAllRawRestoresEveryVariableInParallel) {
  const auto phi = GenerateDatasetByName("gts_phi_l", 30000);
  const auto temp = GenerateDatasetByName("obs_temp", 20000);
  const auto vel = Floats(15000, 1);
  CheckpointWriter writer;
  writer.Add("phi", std::span(phi));
  writer.Add("temp", std::span(temp));
  writer.Add("velocity_x", std::span(vel));
  const Bytes file = writer.Finish();

  PrimacyOptions decode;
  decode.threads = 4;
  const CheckpointReader reader(file, decode);
  PrimacyDecodeStats stats;
  const std::vector<Bytes> raw = reader.ReadAllRaw(&stats);
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(FromBytes<double>(raw[0]), phi);
  EXPECT_EQ(FromBytes<double>(raw[1]), temp);
  EXPECT_EQ(FromBytes<float>(raw[2]), vel);
  EXPECT_EQ(stats.output_bytes,
            phi.size() * 8 + temp.size() * 8 + vel.size() * 4);
}

TEST(CheckpointStoreTest, ThreadedReaderMatchesSerialReader) {
  const auto phi = GenerateDatasetByName("num_plasma", 60000);
  PrimacyOptions small;
  small.chunk_bytes = 32 * 1024;
  CheckpointWriter writer(small);
  writer.Add("phi", std::span(phi));
  const Bytes file = writer.Finish();

  PrimacyOptions threaded;
  threaded.threads = 4;
  EXPECT_EQ(CheckpointReader(file, threaded).ReadDoubles("phi"),
            CheckpointReader(file).ReadDoubles("phi"));
}

TEST(CheckpointStoreTest, DefaultReaderHasNoCache) {
  const auto data = GenerateDatasetByName("obs_info", 10000);
  CheckpointWriter writer;
  writer.Add("x", std::span(data));
  const Bytes file = writer.Finish();
  const CheckpointReader reader(file);
  EXPECT_EQ(reader.cache(), nullptr);
  PrimacyDecodeStats stats;
  EXPECT_EQ(reader.ReadDoubles("x", &stats), data);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST(CheckpointStoreTest, CachedReaderServesWarmRangeReads) {
  const auto phi = GenerateDatasetByName("gts_phi_l", 40000);
  PrimacyOptions small;
  small.chunk_bytes = 64 * 1024;  // 8192 doubles per chunk
  CheckpointWriter writer(small);
  writer.Add("phi", std::span(phi));
  const Bytes file = writer.Finish();

  PrimacyOptions decode;
  decode.block_cache = std::make_shared<DecodedBlockCache>(8 * 1024 * 1024);
  const CheckpointReader reader(file, decode);
  ASSERT_EQ(reader.cache(), decode.block_cache);

  PrimacyDecodeStats cold;
  const auto first = reader.ReadDoublesRange("phi", 10000, 5000, &cold);
  EXPECT_EQ(first,
            std::vector<double>(phi.begin() + 10000, phi.begin() + 15000));
  EXPECT_EQ(cold.chunks_decoded, 1u);
  EXPECT_EQ(cold.cache_misses, 1u);

  // A range spanning chunks 0 and 1: chunk 0 is cold (decoded), chunk 1 is
  // already resident from the first read.
  PrimacyDecodeStats warm;
  const auto second = reader.ReadDoublesRange("phi", 7000, 2000, &warm);
  EXPECT_EQ(second,
            std::vector<double>(phi.begin() + 7000, phi.begin() + 9000));
  EXPECT_EQ(warm.chunks_decoded, 1u);  // chunk 0
  EXPECT_EQ(warm.cache_hits, 1u);      // chunk 1

  PrimacyDecodeStats third;
  const auto again = reader.ReadDoublesRange("phi", 10000, 5000, &third);
  EXPECT_EQ(again, first);
  EXPECT_EQ(third.chunks_decoded, 0u);
  EXPECT_EQ(third.cache_hits, 1u);
}

TEST(CheckpointStoreTest, FullReadWarmsRangeReadsThroughSharedCache) {
  const auto phi = GenerateDatasetByName("num_plasma", 40000);
  PrimacyOptions small;
  small.chunk_bytes = 64 * 1024;
  CheckpointWriter writer(small);
  writer.Add("phi", std::span(phi));
  const Bytes file = writer.Finish();

  PrimacyOptions decode;
  decode.threads = 2;
  decode.block_cache = std::make_shared<DecodedBlockCache>(8 * 1024 * 1024);
  const CheckpointReader reader(file, decode);

  // ReadAllRaw decodes through the serial twin; it must share the same
  // cache instance, so a later range read is already warm.
  PrimacyDecodeStats full;
  const std::vector<Bytes> raw = reader.ReadAllRaw(&full);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(FromBytes<double>(raw[0]), phi);
  EXPECT_GT(full.cache_misses, 0u);

  PrimacyDecodeStats warm;
  const auto slice = reader.ReadDoublesRange("phi", 20000, 1000, &warm);
  EXPECT_EQ(slice,
            std::vector<double>(phi.begin() + 20000, phi.begin() + 21000));
  EXPECT_EQ(warm.chunks_decoded, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
}

TEST(CheckpointStoreTest, LazyDecompression) {
  // Reading one variable must not require decompressing the others; this is
  // observable through timing only indirectly, so assert the structural
  // property instead: extents are disjoint and within the body.
  const auto a = GenerateDatasetByName("gts_phi_l", 40000);
  const auto b = GenerateDatasetByName("obs_temp", 40000);
  CheckpointWriter writer;
  writer.Add("a", std::span(a));
  writer.Add("b", std::span(b));
  const Bytes file = writer.Finish();
  const CheckpointReader reader(file);
  const VariableInfo& va = reader.Find("a");
  const VariableInfo& vb = reader.Find("b");
  EXPECT_EQ(va.stream_offset + va.stream_bytes, vb.stream_offset);
  EXPECT_EQ(reader.ReadDoubles("b"), b);  // read out of order
  EXPECT_EQ(reader.ReadDoubles("a"), a);
}

}  // namespace
}  // namespace primacy
