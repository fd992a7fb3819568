"""Steadiness of the benchmark on one commit.

    python3 perfbench/steady.py --workload NAME [--sets 1|2]

Runs the benchmark once per seed (seeds 1..10; a second set uses 11..20),
then prints, for every end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and its bound
from BENCHMARK.json.  With two sets it also prints how far the second
median moved from the first, as a share of the first, and whether the
share of failed operations is the same in both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10   # runs per set


def one_set(bench: dict, workload: str, seeds, seconds: int) -> list[dict]:
    lines = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        lines.append(line)
        print(f"  seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
              + f" failed {line['failed']}/{line['attempted']}", flush=True)
    return lines


def report(bench: dict, sets: list[list[dict]]) -> bool:
    ok = True
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for lines in sets:
            values = [line["metrics"][name]["value"] for line in lines]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            flag = "" if spread <= bound else "  OVER BOUND"
            ok &= not flag
            print(f"{name:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} {bound:6.2f}{flag}")
        if len(medians) == 2:
            moved = (medians[1] - medians[0]) / medians[0]
            worse = moved > bound if m["better"] == "lower" else -moved > bound
            ok &= not worse
            print(f"{'':14s} second median moved {moved:+.3f}" + ("  WORSE THAN BOUND" if worse else ""))
    shares = {(sum(x["failed"] for x in s), sum(x["attempted"] for x in s)) for s in sets}
    ratios = {f / a for f, a in shares}
    print(f"failed share per set: {sorted(shares)}" + ("" if len(ratios) == 1 else "  DIFFERS"))
    return ok and len(ratios) == 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sets = []
    for k in range(args.sets):
        seeds = range(1 + k * SEEDS, 1 + (k + 1) * SEEDS)
        print(f"set {k + 1}, {args.workload}, seeds {seeds.start}..{seeds.stop - 1}", flush=True)
        sets.append(one_set(bench, args.workload, seeds, bench["run_seconds"]))
    with open(os.path.join(ROOT, "perfbench", "results", f"steady-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(sets, fh, indent=1)
    return 0 if report(bench, sets) else 1


if __name__ == "__main__":
    sys.exit(main())
