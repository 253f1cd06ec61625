#!/usr/bin/env python3
"""Summarises repeated runs of the end-to-end benchmark against its bounds.

usage: python3 bench/e2e/summarize.py BENCHMARK.json DIR [DIR2]

DIR holds <workload>.jsonl, one result line per untraced run, and may hold
<workload>.trace.jsonl, the end-to-end values measured by traced runs.
For every end-to-end metric the table gives the median, the interquartile
range and the max-min spread (both as a share of the median, quartiles as
Python's statistics.quantiles(n=4) gives them) against the metric's
bound. With DIR2 it adds DIR2's median and how much worse it is than
DIR's, in the metric's direction. With traced runs it adds the tracing
overhead: traced median against untraced median.
"""
import json
import os
import statistics
import sys


def load(path):
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def stats(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med, (max(vals) - min(vals)) / med


def worse_by(metric, base, new):
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    bench = json.load(open(argv[1]))
    dirs = argv[2:]
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        sets = [load(os.path.join(d, name + ".jsonl")) for d in dirs]
        traced = load(os.path.join(dirs[0], name + ".trace.jsonl"))
        if not sets[0]:
            continue
        failed = sum(r["failed"] for s in sets for r in s)
        wrong = sum(not r["correct"] for s in sets for r in s)
        print(f"\n### {name}: {len(sets[0])} runs"
              + (f" + {len(sets[1])} runs" if len(sets) > 1 else "")
              + f", failed ops {failed}, incorrect runs {wrong}\n")
        head = "| metric | unit | bound | median | IQR/med | (max-min)/med |"
        rule = "|---|---|---|---|---|---|"
        if len(sets) > 1:
            head += " median 2 | worse by |"
            rule += "---|---|"
        if traced:
            head += " traced | overhead |"
            rule += "---|---|"
        print(head)
        print(rule)
        for m in bench["end_to_end"]:
            vals = values(sets[0], m["name"])
            if len(vals) < 2:
                continue
            med, iqr, spread = stats(vals)
            bound = m["bound"]
            flag = "" if iqr <= bound else " **over**"
            ok &= flag == ""
            row = (f"| {m['name']} | {m['unit']} | {bound:.2f} | {med:.6g} "
                   f"| {iqr:.3f}{flag} | {spread:.3f} |")
            if len(sets) > 1:
                vals2 = values(sets[1], m["name"])
                med2 = statistics.median(vals2)
                wb = worse_by(m, med, med2)
                flag2 = " **over**" if wb > bound else ""
                ok &= flag2 == ""
                row += f" {med2:.6g} | {wb:+.3f}{flag2} |"
            if traced:
                tvals = values(traced, m["name"])
                if tvals:
                    tmed = statistics.median(tvals)
                    row += f" {tmed:.6g} | {worse_by(m, med, tmed):+.3f} |"
                else:
                    row += " | |"
            print(row)
    print("\nall spreads and median shifts within bounds" if ok
          else "\nsome spread or median shift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
