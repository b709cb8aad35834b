#!/usr/bin/env bash
# mg_report end-to-end smoke: trains two small runs (MoCoGrad vs PCGrad)
# with the conflict-telemetry channel on, schema-validates both JSONL
# files, checks that a malformed record and an untyped line are rejected,
# renders the single-run HTML report and the A/B diff, and fails on
# watchdog events. Registered as the `mg_report_smoke` ctest; the CI job
# uploads the HTML artifacts.
#
# usage: mg_report_smoke.sh <build_dir> [out_dir]
set -euo pipefail

build_dir=${1:?usage: mg_report_smoke.sh <build_dir> [out_dir]}
out_dir=${2:-"$build_dir/mg_report_smoke"}
mkdir -p "$out_dir"
rm -f "$out_dir"/moco.jsonl "$out_dir"/pcgrad.jsonl

demo="$build_dir/examples/example_telemetry_demo"
validate="$build_dir/tools/validate_json"
report="$build_dir/tools/mg_report"

"$demo" mocograd "$out_dir/moco.jsonl" 60 > /dev/null
"$demo" pcgrad "$out_dir/pcgrad.jsonl" 60 > /dev/null

"$validate" --telemetry "$out_dir/moco.jsonl" "$out_dir/pcgrad.jsonl"

"$report" --out "$out_dir/report.html" --fail-on-watchdog \
  "$out_dir/moco.jsonl"
"$report" --out "$out_dir/diff.html" --fail-on-watchdog \
  "$out_dir/moco.jsonl" "$out_dir/pcgrad.jsonl"

# Negative cases: a kernel summary with p50 > p99 fails the schema, and a
# line without a "type" is a parse error for mg_report.
bad="$out_dir/bad.jsonl"
step='{"type":"step","step":0,"method":"m","losses":[1],'
step+='"gcd":{"mean":0,"max":0,"conflicting_pairs":0,"pairs":0},'
echo "$step"'"kernels":{"k":{"count":1,"p50":1,"p99":2}}}' > "$bad"
"$validate" --telemetry "$bad"  # the well-formed control passes
echo "$step"'"kernels":{"k":{"count":1,"p50":2,"p99":1}}}' > "$bad"
if "$validate" --telemetry "$bad" 2> /dev/null; then
  echo "mg_report_smoke: validate_json accepted p50 > p99"; exit 1
fi
echo '{"step":0,"loss_0":1}' > "$bad"
status=0
"$report" --out "$out_dir/bad.html" "$bad" 2> /dev/null || status=$?
if [ "$status" -ne 1 ]; then
  echo "mg_report_smoke: untyped line exited $status, want 1"; exit 1
fi
rm -f "$bad" "$out_dir/bad.html"

# The reports must be non-trivial self-contained HTML with rendered charts.
for f in "$out_dir/report.html" "$out_dir/diff.html"; do
  grep -q "<svg" "$f" || { echo "mg_report_smoke: no SVG in $f"; exit 1; }
  grep -q "watchdog" "$f" || { echo "mg_report_smoke: no watchdog section in $f"; exit 1; }
done
grep -q "run diff" "$out_dir/diff.html" || {
  echo "mg_report_smoke: diff.html is missing the A/B section"; exit 1; }

echo "mg_report_smoke: OK ($out_dir)"
