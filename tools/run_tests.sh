#!/usr/bin/env sh
# Build the repository and run the full verification suite as a sequence of
# named passes, printing a PASS/FAIL summary table at the end and exiting
# non-zero if any pass failed (the table and the exit message name the
# failing passes).
#
# Release passes:
#   release-build      configure + build the default (Release) tree
#   ctest-threads-1/4  full suite with the pool forced serial and at 4
#                      threads — pool size never changes results
#                      (docs/ARCHITECTURE.md, parallel_determinism_test)
#   obs-smoke          traced + telemetered training run; the emitted
#                      Chrome-trace JSON must parse, and the telemetry must
#                      pass the --telemetry schema check and hold the
#                      gemm.calls counter and the setup and watchdog phase
#                      buckets, but no flatten bucket (docs/OBSERVABILITY.md)
#   serve-smoke        bench_serve --smoke closed/open-loop sweep; the
#                      emitted JSON must pass the --serve schema check
#                      (docs/SERVING.md)
#   ctest-isa-scalar   full suite with the runtime ISA dispatch capped at
#                      the scalar tier (MOCOGRAD_SIMD_ISA=scalar) — one
#                      binary carries every tier and each must reproduce
#                      the same bits (docs/SIMD.md "Runtime dispatch")
#   ctest-isa-sse      same cap at the SSE tier (the x86-64 baseline
#                      vector path; falls back to scalar elsewhere)
#   ctest-gemm-block   full suite under deliberately tiny, ragged GEMM
#                      blocking, widest and scalar tiers — blocking is a
#                      loop-order choice, never a results choice
#   simd-diff          training stdout byte-identical on the widest tier and
#                      with MOCOGRAD_SIMD_ISA=scalar
#   bench-mtl-smoke    bench_mtl/run_benchmark.sh --smoke (~20 s): every
#                      benchmark workload briefly, plain and traced, with
#                      its checks — pool-1 replica bitwise equal to the
#                      pool-4 trainer, every served row bitwise equal to its
#                      single-row reference, metric names against
#                      BENCHMARK.json (bench_mtl/README.md)
#   analyze            tools/mg_analyze call-graph-aware invariant analyzer
#                      over the tree (docs/CORRECTNESS.md)
#   thread-safety      Clang build with -Wthread-safety promoted to error —
#                      proves the base/mutex.h lock annotations
#                      (skipped when clang is not installed; CI's release
#                      leg always runs it)
#   clang-tidy         bugprone-*/performance-*/concurrency-* checks over
#                      src/ via compile_commands.json (skipped when
#                      clang-tidy is not installed)
#   docs-links         markdown cross-reference checker
#
# Sanitizer passes (skipped with --fast; see docs/CORRECTNESS.md):
#   asan-build/ctest/smoke   AddressSanitizer + UBSan build in build-asan:
#                            full suite serial, the determinism tests at
#                            pools 2 and 8, and a trainer smoke run
#   tsan-build/ctest/smoke   ThreadSanitizer build in build-tsan: same
#                            shape, pools stress the fork-join contract
#
# Usage: tools/run_tests.sh [--fast] [build-dir]   (default: build)
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

fast=0
if [ "${1:-}" = "--fast" ]; then
  fast=1
  shift
fi
build_dir=${1:-"$repo_root/build"}
asan_dir="$repo_root/build-asan"
tsan_dir="$repo_root/build-tsan"

# Sanitizer runtime options: fail hard on any finding, with usable stacks.
# Suppression files under tools/sanitizers/ are picked up when present —
# each entry there must carry a justifying comment (docs/CORRECTNESS.md).
ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
if [ -f "$repo_root/tools/sanitizers/asan.supp" ]; then
  ASAN_OPTIONS="$ASAN_OPTIONS:suppressions=$repo_root/tools/sanitizers/asan.supp"
fi
if [ -f "$repo_root/tools/sanitizers/ubsan.supp" ]; then
  UBSAN_OPTIONS="$UBSAN_OPTIONS:suppressions=$repo_root/tools/sanitizers/ubsan.supp"
fi
if [ -f "$repo_root/tools/sanitizers/tsan.supp" ]; then
  TSAN_OPTIONS="$TSAN_OPTIONS:suppressions=$repo_root/tools/sanitizers/tsan.supp"
fi
export ASAN_OPTIONS UBSAN_OPTIONS TSAN_OPTIONS

results=""   # newline-separated "status name" records, in run order
failed=""    # space-separated names of failing passes

# run_pass <name> <function> — runs the pass, records PASS/FAIL, and keeps
# going so the summary table covers every pass even after a failure.
run_pass() {
  pass_name=$1
  echo ""
  echo "==> pass: $pass_name"
  if "$2"; then
    results="${results}PASS $pass_name
"
  else
    results="${results}FAIL $pass_name
"
    failed="$failed $pass_name"
  fi
}

# skip_pass <name> <why> — records a skip without running anything.
skip_pass() {
  echo ""
  echo "==> pass: $1 (skipped: $2)"
  results="${results}SKIP $1
"
}

# --- Release passes ---------------------------------------------------------

pass_release_build() {
  cmake -B "$build_dir" -S "$repo_root" &&
    cmake --build "$build_dir" -j
}

pass_ctest_threads_1() {
  (cd "$build_dir" && MOCOGRAD_NUM_THREADS=1 ctest --output-on-failure -j)
}

pass_ctest_threads_4() {
  (cd "$build_dir" && MOCOGRAD_NUM_THREADS=4 ctest --output-on-failure -j)
}

pass_obs_smoke() {
  trace_json="$build_dir/obs_smoke_trace.json"
  telemetry_jsonl="$build_dir/obs_smoke_telemetry.jsonl"
  rm -f "$trace_json" "$telemetry_jsonl"
  MOCOGRAD_TRACE="$trace_json" MOCOGRAD_TELEMETRY="$telemetry_jsonl" \
    "$build_dir/examples/example_quickstart" > /dev/null || return 1
  test -s "$trace_json" ||
    { echo "no trace written to $trace_json"; return 1; }
  test -s "$telemetry_jsonl" ||
    { echo "no telemetry written to $telemetry_jsonl"; return 1; }
  grep -q '"gemm.calls"' "$telemetry_jsonl" ||
    { echo "no gemm.calls counter in $telemetry_jsonl"; return 1; }
  # The phase buckets partition the step: no busy-time flatten bucket.
  grep -q '"setup":' "$telemetry_jsonl" &&
    grep -q '"watchdog":' "$telemetry_jsonl" &&
    ! grep -q '"flatten":' "$telemetry_jsonl" ||
    { echo "want setup+watchdog phases, no flatten"; return 1; }
  "$build_dir/tools/validate_json" "$trace_json" &&
    "$build_dir/tools/validate_json" --telemetry "$telemetry_jsonl"
}

pass_serve_smoke() {
  serve_json="$build_dir/serve_smoke_bench.json"
  rm -f "$serve_json"
  "$build_dir/bench/bench_serve" --smoke "$serve_json" > /dev/null || return 1
  test -s "$serve_json" ||
    { echo "no serving results written to $serve_json"; return 1; }
  "$build_dir/tools/validate_json" --serve "$serve_json"
}

pass_ctest_isa_scalar() {
  (cd "$build_dir" && MOCOGRAD_SIMD_ISA=scalar ctest --output-on-failure -j)
}

pass_ctest_isa_sse() {
  (cd "$build_dir" && MOCOGRAD_SIMD_ISA=sse ctest --output-on-failure -j)
}

pass_ctest_gemm_block() {
  (cd "$build_dir" &&
    MOCOGRAD_GEMM_BLOCK=10,24,32 ctest --output-on-failure -j) &&
  (cd "$build_dir" &&
    MOCOGRAD_GEMM_BLOCK=10,24,32 MOCOGRAD_SIMD_ISA=scalar \
      ctest --output-on-failure -j)
}

pass_simd_diff() {
  simd_on="$build_dir/simd_smoke_on.txt"
  simd_off="$build_dir/simd_smoke_off.txt"
  "$build_dir/examples/example_quickstart" > "$simd_on" || return 1
  MOCOGRAD_SIMD_ISA=scalar "$build_dir/examples/example_quickstart" \
    > "$simd_off" || return 1
  diff "$simd_on" "$simd_off" || {
    echo "training output differs between the widest and the scalar tier"
    return 1
  }
}

pass_bench_mtl_smoke() {
  bash "$repo_root/bench_mtl/run_benchmark.sh" --smoke
}

pass_analyze() {
  "$build_dir/tools/mg_analyze" "$repo_root"
}

# Clang-only passes. The annotations in base/mutex.h are no-ops under GCC;
# a Clang build with thread-safety warnings promoted to errors is what
# actually proves the lock discipline, so run it whenever clang is around.
clang_thread_safety_dir="$repo_root/build-clang-tsafety"

pass_thread_safety() {
  cmake -B "$clang_thread_safety_dir" -S "$repo_root" \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ &&
    cmake --build "$clang_thread_safety_dir" -j
}

pass_clang_tidy() {
  # compile_commands.json is exported by the main build configure.
  test -f "$build_dir/compile_commands.json" ||
    { echo "no compile_commands.json in $build_dir"; return 1; }
  find "$repo_root/src" -name '*.cc' | sort |
    xargs clang-tidy -p "$build_dir" --quiet --warnings-as-errors='*'
}

pass_docs_links() {
  "$repo_root/tools/check_docs_links.sh"
}

# --- Sanitizer passes -------------------------------------------------------
# Each sanitizer gets its own build tree; ASan+UBSan and TSan are mutually
# exclusive instrumentations. The ctest passes run the full suite with the
# pool forced serial, then re-run the determinism integration tests at
# pools 2 and 8 — the configurations where the fork-join and SIMD
# determinism contracts can actually break.

sanitizer_ctest() {
  dir=$1
  (cd "$dir" && MOCOGRAD_NUM_THREADS=1 ctest --output-on-failure -j) &&
  (cd "$dir" &&
    MOCOGRAD_NUM_THREADS=2 ctest -R determinism --output-on-failure -j) &&
  (cd "$dir" &&
    MOCOGRAD_NUM_THREADS=8 ctest -R determinism --output-on-failure -j)
}

pass_asan_build() {
  cmake -B "$asan_dir" -S "$repo_root" \
    -DMOCOGRAD_SANITIZE=address,undefined &&
    cmake --build "$asan_dir" -j
}

pass_asan_ctest() {
  sanitizer_ctest "$asan_dir"
}

pass_asan_smoke() {
  "$asan_dir/examples/example_quickstart" > /dev/null
}

pass_tsan_build() {
  cmake -B "$tsan_dir" -S "$repo_root" -DMOCOGRAD_SANITIZE=thread &&
    cmake --build "$tsan_dir" -j
}

pass_tsan_ctest() {
  sanitizer_ctest "$tsan_dir"
}

pass_tsan_smoke() {
  MOCOGRAD_NUM_THREADS=4 "$tsan_dir/examples/example_quickstart" > /dev/null
}

# --- Drive ------------------------------------------------------------------

run_pass release-build pass_release_build
run_pass ctest-threads-1 pass_ctest_threads_1
run_pass ctest-threads-4 pass_ctest_threads_4
run_pass obs-smoke pass_obs_smoke
run_pass serve-smoke pass_serve_smoke
run_pass ctest-isa-scalar pass_ctest_isa_scalar
run_pass ctest-isa-sse pass_ctest_isa_sse
run_pass ctest-gemm-block pass_ctest_gemm_block
run_pass simd-diff pass_simd_diff
run_pass bench-mtl-smoke pass_bench_mtl_smoke
run_pass analyze pass_analyze
if command -v clang++ >/dev/null 2>&1; then
  run_pass thread-safety pass_thread_safety
else
  skip_pass thread-safety "clang not installed"
fi
if command -v clang-tidy >/dev/null 2>&1; then
  run_pass clang-tidy pass_clang_tidy
else
  skip_pass clang-tidy "clang-tidy not installed"
fi
run_pass docs-links pass_docs_links

if [ "$fast" = 1 ]; then
  skip_pass asan-build "--fast"
  skip_pass asan-ctest "--fast"
  skip_pass asan-smoke "--fast"
  skip_pass tsan-build "--fast"
  skip_pass tsan-ctest "--fast"
  skip_pass tsan-smoke "--fast"
else
  run_pass asan-build pass_asan_build
  run_pass asan-ctest pass_asan_ctest
  run_pass asan-smoke pass_asan_smoke
  run_pass tsan-build pass_tsan_build
  run_pass tsan-ctest pass_tsan_ctest
  run_pass tsan-smoke pass_tsan_smoke
fi

echo ""
echo "== run_tests.sh summary =="
printf '%s' "$results" | while IFS=' ' read -r status name; do
  printf '  %-4s  %s\n' "$status" "$name"
done

if [ -n "$failed" ]; then
  echo ""
  echo "FAIL: failing passes:$failed"
  exit 1
fi
echo "OK: all passes green"
