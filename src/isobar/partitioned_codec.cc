#include "isobar/partitioned_codec.h"

#include "bitstream/byte_io.h"
#include "util/byte_matrix.h"
#include "util/error.h"

namespace primacy {

IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const IsobarPlan& plan, const Codec& solver) {
  if (plan.width != width || plan.columns.size() != width) {
    throw InvalidArgumentError("IsobarCompress: plan does not match width");
  }
  const std::size_t n = width == 0 ? 0 : rows.size() / width;
  if (width == 0 || rows.size() % width != 0) {
    throw InvalidArgumentError("IsobarCompress: bad matrix shape");
  }

  // Gather compressible columns (column-linearized) and raw columns.
  Bytes compressible;
  Bytes raw;
  for (const ColumnAnalysis& col : plan.columns) {
    Bytes column(n);
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = rows[i * width + col.column];
    }
    AppendBytes(col.compressible ? compressible : raw, column);
  }

  IsobarCompressed result;
  result.plan = plan;
  const Bytes solved = solver.CompressAdaptive(compressible);
  result.compressed_bytes = solved.size();
  result.raw_bytes = raw.size();

  Bytes& out = result.stream;
  PutVarint(out, n);
  PutBlock(out, SerializePlan(plan));
  PutBlock(out, solved);
  PutBlock(out, raw);
  return result;
}

IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const Codec& solver,
                                const IsobarOptions& options) {
  return IsobarCompress(rows, width, AnalyzeColumns(rows, width, options),
                        solver);
}

Bytes IsobarDecompress(ByteSpan stream, const Codec& solver) {
  ByteReader reader(stream);
  const std::uint64_t n = reader.GetVarint();
  const IsobarPlan plan = DeserializePlan(reader.GetBlock());
  const Bytes compressible = solver.Decompress(reader.GetBlock());
  const ByteSpan raw = reader.GetBlock();

  const auto comp_cols = plan.CompressibleColumns();
  const auto raw_cols = plan.IncompressibleColumns();
  // Overflow-safe consistency checks: division instead of multiplication,
  // since n comes from an untrusted varint.
  const auto column_count_matches = [n](std::size_t bytes,
                                        std::size_t columns) {
    if (columns == 0) return bytes == 0;
    return bytes % columns == 0 && bytes / columns == n;
  };
  if (!column_count_matches(compressible.size(), comp_cols.size()) ||
      !column_count_matches(raw.size(), raw_cols.size())) {
    throw CorruptStreamError("IsobarDecompress: column sizes inconsistent");
  }
  if (plan.width != 0 && n > (compressible.size() + raw.size())) {
    throw CorruptStreamError("IsobarDecompress: element count inconsistent");
  }

  Bytes rows(n * plan.width);
  for (std::size_t c = 0; c < comp_cols.size(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      rows[i * plan.width + comp_cols[c]] = compressible[c * n + i];
    }
  }
  for (std::size_t c = 0; c < raw_cols.size(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      rows[i * plan.width + raw_cols[c]] = raw[c * n + i];
    }
  }
  return rows;
}

}  // namespace primacy
