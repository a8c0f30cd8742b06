#!/usr/bin/env bash
# Full correctness gate: pacon-analyze (the mandatory static-analysis pass,
# scripts/analyze.sh), markdown link check, clang-tidy
# (when available), the repository benchmark's self-test
# (benchmark/test_bench.py: every workload runs, prints every BENCHMARK.json
# metric with its unit, and repeats its virtual-time metrics for a seed),
# then the sanitizer matrix -- ASan+UBSan and TSan builds with -Werror and the
# coroutine-lifetime detector compiled in, each running the entire ctest
# suite (including the coroutine-detector unit tests and the determinism
# checker) followed by an explicit `ctest -L faults` pass over the
# failure-injection suites (Pacon, IndexFS, DFS, fault-topology unit tests;
# every fault test carries a per-test TIMEOUT so a wedged retry loop fails
# fast) and a `ctest -L mega` pass over the scaled-down mega-scalability
# smoke, and finally observability validation:
# a real paconsim_cli run exported as Chrome trace JSON plus a flight-
# recorder timeline, run through pacon-trace's latency attribution, with
# all three artifacts held to scripts/trace_validate.py's invariants.
# See DESIGN.md "Correctness tooling" and section 11 "Observability".
#
# Usage: scripts/check.sh [--fast] [--jobs N]
#   --fast   only the ASan+UBSan leg of the matrix (half the wall clock)
#   --jobs N parallel build/test jobs (default: nproc)
#
# Host time is not gated here: compare a change against its parent with
# scripts/ab.py (benchmark/README.md).
#
# Build trees land in build-check-<mode>/ and are reused incrementally on
# re-runs, so the second invocation is much cheaper than the first.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"
modes=(address thread)

while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) modes=(address); shift ;;
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

echo "==== [1/6] pacon-analyze ====================================================="
# The mandatory static-analysis gate (DESIGN.md section 12): determinism,
# coroutine-lifetime, and hygiene rules over src/tests/bench/examples/tools,
# held to scripts/analyze_baseline.txt. Runs first because it is the
# cheapest gate and catches whole bug classes the sanitizers only hit with
# the right schedule.
"$root/scripts/analyze.sh"

echo "==== [2/6] markdown links ===================================================="
"$root/scripts/check_markdown.sh" "$root"

echo "==== [3/6] clang-tidy ========================================================"
"$root/scripts/tidy.sh"

echo "==== [4/6] benchmark self-test ==============================================="
# Small-scale runs of every BENCHMARK.json workload from the benchmark's own
# Release build tree (build-check-bench/, reused across runs).
CARGO_TARGET_DIR="$root/build-check-bench" python3 "$root/benchmark/test_bench.py"

echo "==== [5/6] sanitizer matrix: ${modes[*]} ====="
for mode in "${modes[@]}"; do
  build="$root/build-check-$mode"
  echo "---- PACON_SANITIZE=$mode: configure ($build)"
  cmake -B "$build" -S "$root" -G Ninja \
    -DPACON_SANITIZE="$mode" \
    -DPACON_WERROR=ON \
    -DPACON_DEBUG_COROS=ON >/dev/null
  echo "---- PACON_SANITIZE=$mode: build"
  cmake --build "$build" -j "$jobs"
  echo "---- PACON_SANITIZE=$mode: ctest"
  # Timeouts matter: protocol bugs in this codebase hang rather than fail.
  # halt_on_error: a sanitizer report must fail the test, not just print.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$build" --output-on-failure --timeout 300 -j "$jobs"
  echo "---- PACON_SANITIZE=$mode: failure suites (ctest -L faults)"
  # Explicit gate over the failure-injection suites: the three per-system
  # scenario suites plus the fault-topology unit tests must pass under every
  # sanitizer in the matrix (the TSan leg exercises them too). Fault tests
  # carry their own 120s TIMEOUT property, so a hung retry loop fails fast.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$build" -L faults --output-on-failure --timeout 120 -j "$jobs"
  echo "---- PACON_SANITIZE=$mode: mega smoke (ctest -L mega)"
  # Scaled-down run of the million-client scenario: every sanitizer leg must
  # see wave-spawned client reaping and the path-interner arena under
  # instrumentation.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$build" -L mega --output-on-failure --timeout 300 -j "$jobs"
done

echo "==== [6/6] trace + timeline validation ======================================="
# Generate a real trace and flight-recorder timeline with the last sanitizer
# tree's CLI, run the trace through pacon-trace's latency attribution, and
# hold all three artifacts to scripts/trace_validate.py's invariants:
# balanced begin/end and enclosing parents for the trace, ring accounting
# and strictly increasing frames for the timeline, ordered percentiles and
# present critical paths for the analysis.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
"$build/examples/paconsim_cli" --system pacon --nodes 4 --clients-per-node 2 \
  --window-ms 20 --trace "$tracedir/trace.json" \
  --timeline "$tracedir/timeline.json" >/dev/null
"$build/tools/trace/pacon-trace" "$tracedir/trace.json" \
  --json "$tracedir/analysis.json" --quiet
python3 "$root/scripts/trace_validate.py" "$tracedir/trace.json" \
  "$tracedir/timeline.json" "$tracedir/analysis.json"

echo "check.sh: all gates passed (analyze, markdown, tidy, benchmark, sanitizer matrix: ${modes[*]}, trace)"
