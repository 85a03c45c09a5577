#!/usr/bin/env sh
# CI-style check: build with ThreadSanitizer (-DTLC_SANITIZE=thread) and run
# the concurrency-sensitive tests — everything carrying the `sweep` ctest
# label: the parallel-vs-serial determinism test, the sweep fan-out,
# exception-propagation and stop-after-failure tests, and the
# concurrent-testbed registry-isolation test. Any data race in the sweep
# engine (workers claiming slots from one shared atomic cursor and writing
# results by slot), the thread-local scratch buffers, or the log-hook
# globals fails the run.
#
# Self-configuring: a missing or unconfigured build dir is created from the
# `tsan` preset (or a plain configure when a custom dir is given), so the
# script behaves identically on a clean CI checkout and a developer tree.
#
# Benchmarks and examples are excluded to keep the instrumented build small.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  if [ "$build_dir" = "$repo_root/build-tsan" ]; then
    (cd "$repo_root" && cmake --preset tsan >/dev/null)
  else
    cmake -S "$repo_root" -B "$build_dir" \
      -DTLC_SANITIZE=thread \
      -DTLC_BUILD_BENCH=OFF \
      -DTLC_BUILD_EXAMPLES=OFF \
      >/dev/null
  fi
fi

cmake --build "$build_dir" -j "$(nproc)"

ctest --test-dir "$build_dir" -L sweep --output-on-failure

echo "OK: sweep-labelled tests are race-free under ThreadSanitizer."
