// Section II-C ablation: frequency-ranked ID assignment vs an identity-order
// assignment (sequences mapped to IDs by ascending value, ignoring
// frequency). Isolates the contribution of the probabilistic ranking: the
// paper credits it with a ~15% average gain in top-byte repeatability.
#include <algorithm>

#include "bench_util.h"
#include "core/frequency.h"
#include "core/id_mapper.h"
#include "deflate/deflate.h"
#include "util/byte_matrix.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace primacy;
  bench::Init(argc, argv);
  bench::PrintHeader(
      "Ablation: frequency-ranked vs identity ID assignment",
      "Shah et al., CLUSTER 2012, Section II-C");
  std::printf("%-15s %10s %10s %10s | %10s %10s %10s\n", "dataset", "rawTop",
              "identTop", "freqTop", "rawIDsz", "identIDsz", "freqIDsz");
  bench::PrintRule();

  const DeflateCodec solver;
  bench::BenchReport report("ablation_idmap");
  double repeatability_gain_sum = 0.0;
  for (const DatasetSpec& spec : AllDatasets()) {
    const auto& values = bench::DatasetValues(spec.name);
    const Bytes rows = DoublesToBigEndianRows(values);
    const SplitBytes split = SplitHighLow(rows, 8);
    const PairFrequency freq = AnalyzePairFrequency(split.high);

    // Frequency-ranked index (PRIMACY) vs identity-order index (sequences
    // sorted ascending — still bijective, but ignores frequency).
    const IdIndex freq_index = IdIndex::FromFrequency(freq);
    std::vector<std::uint16_t> ascending = freq_index.sequences();
    std::sort(ascending.begin(), ascending.end());
    const IdIndex ident_index = IdIndex::FromSequences(ascending);

    const Bytes freq_ids =
        MapToIds(split.high, freq_index, Linearization::kColumn);
    const Bytes ident_ids =
        MapToIds(split.high, ident_index, Linearization::kColumn);
    const Bytes raw_cols = RowToColumn(split.high);

    const double raw_top = TopByteFrequency(raw_cols);
    const double ident_top = TopByteFrequency(ident_ids);
    const double freq_top = TopByteFrequency(freq_ids);
    repeatability_gain_sum += freq_top - raw_top;

    const std::size_t raw_size = solver.Compress(raw_cols).size();
    const std::size_t ident_size = solver.Compress(ident_ids).size();
    const std::size_t freq_size = solver.Compress(freq_ids).size();
    std::printf("%-15s %10.3f %10.3f %10.3f | %10zu %10zu %10zu\n",
                spec.name.c_str(), raw_top, ident_top, freq_top, raw_size,
                ident_size, freq_size);
    report.AddEntry(spec.name)
        .Set("raw_top_frequency", raw_top)
        .Set("identity_top_frequency", ident_top)
        .Set("ranked_top_frequency", freq_top)
        .Set("raw_compressed_bytes", raw_size)
        .Set("identity_compressed_bytes", ident_size)
        .Set("ranked_compressed_bytes", freq_size);
  }

  bench::PrintRule();
  std::printf(
      "mean top-byte repeatability gain over raw: %+.1f%% (paper: ~15%%)\n",
      100.0 * repeatability_gain_sum / 20.0);
  return 0;
}
