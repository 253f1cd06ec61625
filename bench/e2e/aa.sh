#!/usr/bin/env bash
# A/A runs of the end-to-end benchmark: the same code, run repeatedly.
#
#   bash bench/e2e/aa.sh N [--distinct] [--trace] [--workload W]
#
# Runs every workload of BENCHMARK.json (or just W) N times, with seeds
# alternating 1, 2, ... (--distinct: seeds 1..N), then prints each
# end-to-end metric's median, IQR and max-min spread against its bound.
# --trace adds one traced run per seed used, for the tracing overhead.
# Result lines are kept under .bench_build/aa/<time>/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

usage() {
  echo "usage: bash bench/e2e/aa.sh N [--distinct] [--trace] [--workload W]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
n="$1"
shift
[[ "$n" =~ ^[0-9]+$ ]] && [ "$n" -ge 2 ] || usage
distinct=0
trace=0
workloads="$(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
while [ $# -gt 0 ]; do
  case "$1" in
    --distinct) distinct=1; shift ;;
    --trace) trace=1; shift ;;
    --workload) [ $# -ge 2 ] || usage; workloads="$2"; shift 2 ;;
    *) usage ;;
  esac
done

dir=".bench_build/aa/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$dir"
seeds=()
for i in $(seq 1 "$n"); do
  if [ "$distinct" = 1 ]; then seeds+=("$i"); else seeds+=($(( (i - 1) % 2 + 1 ))); fi
done

for seed in "${seeds[@]}"; do
  for w in $workloads; do
    bash bench/e2e/run.sh --workload "$w" --seed "$seed" 2>/dev/null | tail -n 1 >> "$dir/$w.jsonl"
    echo "ran $w seed $seed" >&2
  done
done

if [ "$trace" = 1 ]; then
  for seed in $(printf '%s\n' "${seeds[@]}" | sort -un); do
    for w in $workloads; do
      bash bench/e2e/run.sh --workload "$w" --seed "$seed" --trace 1 >/dev/null 2>&1
      python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))["e2e"]))' \
        ".bench_build/out/result-$w-seed$seed-trace.json" >> "$dir/$w.trace.jsonl"
      echo "traced $w seed $seed" >&2
    done
  done
fi

echo "results: $dir" >&2
python3 bench/e2e/summarize.py BENCHMARK.json "$dir"
