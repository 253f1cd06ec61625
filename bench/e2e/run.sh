#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a checkout.
#
#   bash bench/e2e/run.sh --seed N [--workload W] [--trace 0|1]
#
# Without --workload every workload named in BENCHMARK.json runs in turn.
# Every run measures for BENCHMARK.json's run_seconds, the one place the
# run length is set; `--seconds S` is accepted only with that value. Each
# run prints one line per metric as "name workload value unit (median,
# pXX, n)" and then its JSON result line; without --workload a combined
# JSON line closes the output. Full results (and, with --trace 1, Chrome
# traces) go to .bench_build/out/. Exits non-zero when the build or an
# output check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

usage() {
  echo "usage: bash bench/e2e/run.sh --seed N [--workload W] [--trace 0|1]" >&2
  exit 2
}

read -r run_seconds all_workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))') || true
[ -n "${run_seconds:-}" ] || { echo "run.sh: cannot read BENCHMARK.json" >&2; exit 2; }

workload=""
seed=""
trace=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds)
      [ "$2" = "$run_seconds" ] ||
        { echo "run.sh: runs last run_seconds = $run_seconds (BENCHMARK.json), not $2" >&2; exit 2; } ;;
    --trace) trace="$2" ;;
    *) usage ;;
  esac
  shift 2
done
[ -n "$seed" ] || usage

# Inherited SPC_* settings (ISA clamps, schedules, tiling, tune cache...)
# would change what is measured.
while read -r var; do
  unset "$var"
done < <(compgen -e | grep '^SPC_' || true)

build=.bench_build/e2e
out=.bench_build/out
mkdir -p .bench_build "$out"
{
  [ -f "$build/CMakeCache.txt" ] || cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(nproc)" --target spc_e2e
} >&2

tmp="$(mktemp -d .bench_build/tmp.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
# Nothing may write the repository's own tune cache.
export SPC_TUNE_CACHE="$tmp/tune_cache.jsonl"
if sha="$(git rev-parse --short=12 HEAD 2>/dev/null)"; then
  export SPC_GIT_SHA="$sha"
fi

run_one() {
  "$build/spc_e2e" --workload "$1" --seed "$seed" --seconds "$run_seconds" \
    --trace "$trace" --out "$out" --tmp "$tmp"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit
fi

status=0
lines="$tmp/lines"
for w in $all_workloads; do
  run_one "$w" | tee "$tmp/$w.out" || status=1
  printf '%s\t%s\n' "$w" "$(tail -n 1 "$tmp/$w.out")" >> "$lines"
done
python3 - "$lines" <<'EOF'
import json, sys
merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
for line in open(sys.argv[1]):
    w, _, js = line.rstrip("\n").partition("\t")
    try:
        r = json.loads(js)
    except ValueError:
        merged["correct"] = False
        continue
    merged["correct"] &= r["correct"]
    merged["attempted"] += r["attempted"]
    merged["failed"] += r["failed"]
    for k, v in r["metrics"].items():
        merged["metrics"][w + "/" + k] = v
print(json.dumps(merged))
EOF
exit "$status"
