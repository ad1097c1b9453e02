#!/usr/bin/env bash
# ThreadSanitizer pass over the chunk-parallel compress/decompress paths.
# Configures a separate build tree with PRIMACY_SANITIZE=thread and runs the
# tests that exercise the shared thread pool with threads > 1.
# Usage: scripts/run_tsan.sh [build-dir] (default: build-tsan)
set -euo pipefail
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPRIMACY_SANITIZE=thread \
  -DPRIMACY_BUILD_BENCH=OFF \
  -DPRIMACY_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Concurrency-heavy suites: the pool itself, parallel encode/decode (groups,
# range reads), the variable-parallel store, and the TSan-targeted stress
# tests (registry registration races, concurrent range reads sharing one
# reader).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|ParallelDecode|StreamV2|DecompressRange|CheckpointStore|Stress|MetricsRegistry'
echo "TSan pass complete."
