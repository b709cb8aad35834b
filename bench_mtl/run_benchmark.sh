#!/usr/bin/env bash
# End-to-end benchmark of the mocograd trainer and serving stack; see
# bench_mtl/README.md.
#
#   bash bench_mtl/run_benchmark.sh [--seed N] [--out FILE]
#       every workload in its own process, plain and traced; fails if any
#       run's output was incorrect
#   bash bench_mtl/run_benchmark.sh --workload NAME --seed N --trace 0|1 \
#       [--out FILE]
#       one run; the last line of output is its JSON result. A run lasts
#       BENCHMARK.json's run_seconds unless --seconds S says otherwise.
#   bash bench_mtl/run_benchmark.sh --compare A.jsonl B.jsonl
#   bash bench_mtl/run_benchmark.sh --smoke
#
# The first call builds bench_mtl and the library from this checkout's
# sources into .bench_build; build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run_benchmark.sh: library sources not found under $root/src;" \
       "run from a full source checkout" >&2
  exit 2
fi
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/bench_mtl" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target bench_mtl -j 4
} >&2
bin="$build/bench_mtl"

for arg in "$@"; do
  case "$arg" in
    --workload* | --compare | --smoke | --list)
      exec "$bin" --bench-json "$root/BENCHMARK.json" "$@"
      ;;
  esac
done

status=0
for workload in $("$bin" --list | cut -f1); do
  for trace in 0 1; do
    out="$("$bin" --bench-json "$root/BENCHMARK.json" \
      --workload "$workload" --trace "$trace" "$@")" || status=1
    printf '%s\n' "$out" | sed '$d'
    case "$(printf '%s\n' "$out" | tail -n 1)" in
      '{"correct":true,'*) ;;
      *)
        echo "run_benchmark.sh: $workload (trace $trace): incorrect output" >&2
        status=1
        ;;
    esac
  done
done
exit "$status"
