#include "isobar/partitioned_codec.h"

#include <gtest/gtest.h>

#include "bitstream/byte_io.h"
#include "deflate/deflate.h"
#include "lzfast/lzfast.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

Bytes MixedMatrix(std::size_t n, std::uint64_t seed) {
  // 6-byte elements: 2 skewed columns, 4 random (a mantissa-like profile).
  Rng rng(seed);
  Bytes rows(n * 6);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i * 6 + 0] = static_cast<std::byte>(rng.NextSkewed(16, 0.5));
    rows[i * 6 + 1] = static_cast<std::byte>(rng.NextSkewed(64, 0.7));
    for (std::size_t c = 2; c < 6; ++c) {
      rows[i * 6 + c] = static_cast<std::byte>(rng.NextBelow(256));
    }
  }
  return rows;
}

/// The decoded planes scattered back into a row-linearized matrix.
Bytes Rows(const IsobarPlanes& planes) {
  const std::size_t width = planes.columns.size();
  Bytes rows(planes.elements * width);
  for (std::size_t c = 0; c < width; ++c) {
    for (std::size_t i = 0; i < planes.elements; ++i) {
      rows[i * width + c] = planes.columns[c][i];
    }
  }
  return rows;
}

TEST(IsobarPartitionedTest, RoundTripsMixedMatrix) {
  const Bytes rows = MixedMatrix(20000, 1);
  const DeflateCodec solver;
  const IsobarCompressed compressed = IsobarCompress(rows, 6, solver);
  EXPECT_EQ(Rows(IsobarDecompress(compressed.stream, solver)), rows);
}

TEST(IsobarPartitionedTest, OnlyCompressibleColumnsGoThroughSolver) {
  const Bytes rows = MixedMatrix(20000, 2);
  const DeflateCodec solver;
  const IsobarCompressed compressed = IsobarCompress(rows, 6, solver);
  EXPECT_EQ(compressed.plan.CompressibleColumns().size(), 2u);
  EXPECT_EQ(compressed.raw_bytes, 4u * 20000u);
  // The solver output must actually be smaller than the 2 skewed columns.
  EXPECT_LT(compressed.compressed_bytes, 2u * 20000u);
}

TEST(IsobarPartitionedTest, BeatsWholesaleCompressionOnMixedData) {
  // The point of ISOBAR: skipping noise both shrinks nothing *and* costs
  // nothing; the partitioned stream must not be bigger than compressing
  // everything (within framing overhead).
  const Bytes rows = MixedMatrix(50000, 3);
  const DeflateCodec solver;
  const IsobarCompressed partitioned = IsobarCompress(rows, 6, solver);
  const Bytes wholesale = solver.Compress(rows);
  EXPECT_LT(partitioned.stream.size(),
            wholesale.size() + wholesale.size() / 10);
}

TEST(IsobarPartitionedTest, AllRandomMatrixStoredNearlyRaw) {
  Rng rng(4);
  Bytes rows(6 * 30000);
  for (auto& b : rows) b = static_cast<std::byte>(rng.NextBelow(256));
  const DeflateCodec solver;
  const IsobarCompressed compressed = IsobarCompress(rows, 6, solver);
  EXPECT_EQ(compressed.plan.CompressibleColumns().size(), 0u);
  EXPECT_LE(compressed.stream.size(), rows.size() + 64);
  EXPECT_EQ(Rows(IsobarDecompress(compressed.stream, solver)), rows);
}

TEST(IsobarPartitionedTest, AllConstantMatrixFullyCompressed) {
  const Bytes rows(6 * 10000, 5_b);
  const DeflateCodec solver;
  const IsobarCompressed compressed = IsobarCompress(rows, 6, solver);
  EXPECT_EQ(compressed.plan.CompressibleColumns().size(), 6u);
  EXPECT_EQ(compressed.raw_bytes, 0u);
  EXPECT_LT(compressed.stream.size(), 1000u);
  EXPECT_EQ(Rows(IsobarDecompress(compressed.stream, solver)), rows);
}

TEST(IsobarPartitionedTest, WorksWithDifferentSolvers) {
  const Bytes rows = MixedMatrix(10000, 5);
  const LzFastCodec solver;
  const IsobarCompressed compressed = IsobarCompress(rows, 6, solver);
  EXPECT_EQ(Rows(IsobarDecompress(compressed.stream, solver)), rows);
}

TEST(IsobarPartitionedTest, ExplicitPlanIsHonored) {
  const Bytes rows = MixedMatrix(5000, 6);
  const DeflateCodec solver;
  IsobarPlan plan = AnalyzeColumns(rows, 6);
  // Force every column raw.
  for (auto& col : plan.columns) col.compressible = false;
  const IsobarCompressed compressed = IsobarCompress(rows, 6, plan, solver);
  EXPECT_EQ(compressed.raw_bytes, rows.size());
  EXPECT_EQ(Rows(IsobarDecompress(compressed.stream, solver)), rows);
}

TEST(IsobarPartitionedTest, PlanWidthMismatchRejected) {
  const Bytes rows = MixedMatrix(100, 7);
  const DeflateCodec solver;
  const IsobarPlan plan = AnalyzeColumns(rows, 6);
  EXPECT_THROW(IsobarCompress(rows, 3, plan, solver), InvalidArgumentError);
}

TEST(IsobarPartitionedTest, EmptyMatrixRoundTrips) {
  const DeflateCodec solver;
  const IsobarCompressed compressed = IsobarCompress({}, 6, solver);
  const IsobarPlanes planes = IsobarDecompress(compressed.stream, solver);
  EXPECT_EQ(planes.elements, 0u);
  EXPECT_EQ(planes.columns.size(), 6u);
}

TEST(IsobarPartitionedTest, CorruptStreamDetected) {
  const Bytes rows = MixedMatrix(5000, 8);
  const DeflateCodec solver;
  IsobarCompressed compressed = IsobarCompress(rows, 6, solver);
  compressed.stream.resize(compressed.stream.size() / 3);
  EXPECT_THROW(IsobarDecompress(compressed.stream, solver),
               CorruptStreamError);
}

TEST(IsobarPartitionedTest, RawColumnsArePlanesOfTheStream) {
  // Incompressible columns are not copied: their planes lie in the stream.
  const Bytes rows = MixedMatrix(20000, 9);
  const DeflateCodec solver;
  const IsobarCompressed compressed = IsobarCompress(rows, 6, solver);
  const IsobarPlanes planes = IsobarDecompress(compressed.stream, solver);
  const std::byte* begin = compressed.stream.data();
  const std::byte* end = begin + compressed.stream.size();
  for (const std::size_t c : planes.plan.IncompressibleColumns()) {
    EXPECT_GE(planes.columns[c], begin) << c;
    EXPECT_LE(planes.columns[c] + planes.elements, end) << c;
  }
  EXPECT_EQ(planes.raw.size(),
            planes.plan.IncompressibleColumns().size() * 20000u);
}

TEST(IsobarPartitionedTest, PlanWithoutEveryColumnRejected) {
  // A plan of width 6 that lists 5 columns leaves one column without a
  // plane; no encoder writes it.
  IsobarPlan plan;
  plan.width = 6;
  plan.columns.resize(5);
  const DeflateCodec solver;
  Bytes stream;
  PutVarint(stream, 100);
  PutBlock(stream, SerializePlan(plan));
  PutBlock(stream, solver.Compress({}));
  PutBlock(stream, Bytes(5 * 100));
  EXPECT_THROW(IsobarDecompress(stream, solver), CorruptStreamError);
}

}  // namespace
}  // namespace primacy
