#!/usr/bin/env bash
# Local reproduction of CI's sanitizer matrix: one build tree per flavor
# (address, undefined, thread), each running the tier-1 suite and then the
# named passes of the CI `sanitize` job (scripts/sanitizer_passes.sh, the
# one list CI runs too).
#
# --thread-safety adds the compile-time lock-discipline pass (the CI
# `thread-safety` job): a Clang build with -Wthread-safety promoted to
# errors via -DPRIMACY_THREAD_SAFETY=ON, then the tier-1 suite. It is not a
# sanitizer — no runtime instrumentation — so it lives behind a flag rather
# than in the default flavor list, and it requires clang++ on PATH.
# Usage: scripts/run_sanitizers.sh [--thread-safety] [flavor...]
#        (default flavors: address undefined thread)
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_THREAD_SAFETY=0
FLAVORS=()
for arg in "$@"; do
  if [ "$arg" = "--thread-safety" ]; then
    RUN_THREAD_SAFETY=1
  else
    FLAVORS+=("$arg")
  fi
done
if [ "${#FLAVORS[@]}" -eq 0 ] && [ "$RUN_THREAD_SAFETY" -eq 0 ]; then
  FLAVORS=(address undefined thread)
fi

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

for flavor in "${FLAVORS[@]+"${FLAVORS[@]}"}"; do
  case "$flavor" in
    address|undefined|thread) ;;
    *) echo "unknown sanitizer flavor: $flavor" >&2; exit 2 ;;
  esac
  build_dir="build-$flavor"
  echo "=== $flavor ($build_dir) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPRIMACY_SANITIZE="$flavor" \
    -DPRIMACY_BUILD_BENCH=OFF \
    -DPRIMACY_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  scripts/sanitizer_passes.sh "$build_dir"
done

if [ "$RUN_THREAD_SAFETY" -eq 1 ]; then
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "--thread-safety requires clang++ (the analysis is Clang-only;" \
         "on other compilers the annotations compile to no-ops)" >&2
    exit 2
  fi
  build_dir="build-thread-safety"
  echo "=== thread-safety ($build_dir) ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_C_COMPILER=clang \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=Release \
    -DPRIMACY_THREAD_SAFETY=ON
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
fi

DONE=("${FLAVORS[@]+"${FLAVORS[@]}"}")
if [ "$RUN_THREAD_SAFETY" -eq 1 ]; then DONE+=(thread-safety); fi
echo "sanitizer matrix complete: ${DONE[*]}"
