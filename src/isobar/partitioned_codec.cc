#include "isobar/partitioned_codec.h"

#include "bitstream/byte_io.h"
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

  // Gather compressible columns (column-linearized) and raw columns, each
  // column straight into its place: the inverse of the decoder's scatter.
  const auto gather = [&](const std::vector<std::size_t>& columns) {
    Bytes out(columns.size() * n);
    for (std::size_t c = 0; c < columns.size(); ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        out[c * n + i] = rows[i * width + columns[c]];
      }
    }
    return out;
  };
  const Bytes compressible = gather(plan.CompressibleColumns());
  const Bytes raw = gather(plan.IncompressibleColumns());

  IsobarCompressed result;
  result.plan = plan;
  const Bytes solved = solver.CompressAdaptive(compressible, n);
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

IsobarPlanes IsobarDecompress(ByteSpan stream, const Codec& solver,
                              std::size_t first, std::size_t count) {
  ByteReader reader(stream);
  IsobarPlanes planes;
  const std::uint64_t n = reader.GetVarint();
  planes.plan = DeserializePlan(reader.GetBlock());
  // The encoder passed n as the column length; the checks below reject a
  // stream whose n is not the planes' length.
  planes.compressible = solver.DecompressWindow(
      reader.GetBlock(), static_cast<std::size_t>(n), first, count);
  planes.raw = reader.GetBlock();
  const IsobarPlan& plan = planes.plan;

  const auto comp_cols = plan.CompressibleColumns();
  const auto raw_cols = plan.IncompressibleColumns();
  // Overflow-safe consistency checks: division instead of multiplication,
  // since n comes from an untrusted varint. Every column of the width needs
  // a plane.
  const auto column_count_matches = [n](std::size_t bytes,
                                        std::size_t columns) {
    if (columns == 0) return bytes == 0;
    return bytes % columns == 0 && bytes / columns == n;
  };
  if (!column_count_matches(planes.compressible.size(), comp_cols.size()) ||
      !column_count_matches(planes.raw.size(), raw_cols.size()) ||
      plan.columns.size() != plan.width) {
    throw CorruptStreamError("IsobarDecompress: column sizes inconsistent");
  }
  if (plan.width != 0 &&
      n > planes.compressible.size() + planes.raw.size()) {
    throw CorruptStreamError("IsobarDecompress: element count inconsistent");
  }

  planes.elements = static_cast<std::size_t>(n);
  planes.columns.resize(plan.width);
  for (std::size_t c = 0; c < comp_cols.size(); ++c) {
    planes.columns[comp_cols[c]] = planes.compressible.data() + c * n;
  }
  for (std::size_t c = 0; c < raw_cols.size(); ++c) {
    planes.columns[raw_cols[c]] = planes.raw.data() + c * n;
  }
  return planes;
}

}  // namespace primacy
