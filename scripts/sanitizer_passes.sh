#!/usr/bin/env bash
# The named sanitizer passes, and the one list of them: CI's `sanitize` job
# runs this once per flavor, run_sanitizers.sh after each tier-1 run. Each
# suite runs again by name, so a filter typo in the full run cannot skip it.
# Usage: scripts/sanitizer_passes.sh BUILD_DIR [ctest args...] (-N: list)
set -euo pipefail
BUILD_DIR="${1:?usage: $0 BUILD_DIR [ctest args...]}"
shift
pass() {  # pass NAME REGEX [ctest args...]
  echo "--- $1 ---"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$2" "${@:3}"
}
# 10k stream mutations: the highest-value target for the sanitizers.
pass "Corruption harness" "CorruptionFuzz" "$@"
# Deflate's LZ and literal-only compress paths, the bit writer and reader,
# package-merge, ISOBAR's partitioner, and the one inflate loop (bulk
# literals, match copies, windowed inflate) over hand-built containers and
# truncation and byte-change sweeps of every block kind.
pass "Codec core" "Deflate|BuildCodeLengths|CodeLengthSerialization|PackageMerge|Huffman|Lz|BitIo|CodecRoundTrip|CodecCorruption|Isobar|Analyzer|PlanSerialization" "$@"
# TSan targets: registry registration, range reads sharing one reader,
# parallel full decodes, compresses sharing one compressor, cache
# eviction/pin churn, a tenant drained mid-run.
pass "Concurrency stress tests" "Stress|MetricsRegistry" "$@"
# The VirtualClock service harness (batch cut races, quota edges, blocked
# submitters): the most lock/cv traffic in the tree, and sleep-free.
pass "Service suite" "Service" "$@"
# Full, range and parallel decodes over the one directory and chunk decoder
# (and the chunk pipeline called directly), chunk-parallel encodes whose
# slots share one solver, the block cache, both writers' framing, and every
# golden stream version.
pass "Decode paths" "DecompressRange|ParallelDecode|ParallelCompression|StreamV2|StreamV3|CacheDecode|BlockCache|SinglePrecision|Streaming|GoldenCorpus|ChunkDecoder|ChunkPipeline" "$@"
# Every kernel x ISA x tail length keeps its vector stores in bounds; with
# dispatch, the corpus under every ISA, the ID mapper and conversions.
pass "Kernel identity suite" "KernelIdentity|KernelDispatch|DecodesUnderEveryKernelIsa|IdMapper|SplitHighLowTest|LinearizationTest|DoubleConversionTest|FloatConversionTest|SwapBigEndianRowsTest" "$@"
# The VirtualClock exporter, ExporterStress (producers racing scrapes), and
# the live endpoint's accept lifecycle (EMFILE back-off, stop).
pass "Observability exporter suite" "Exporter|StageStack" "$@"
# Wire sweeps, live UDS servers racing pipelined requests against drain
# behind the one acceptor, and the retry schedule on a recording clock.
pass "Transport suite" "Transport" "$@"
