"""Compare two result sets of the benchmark, e.g. a parent and a change.

    python3 benchmarks/run.py --workload certify --seed 7 --seconds 30 --trace 0 --save a.jsonl
    (the same seed in the other tree, --save b.jsonl; alternate the trees)
    python3 benchmarks/compare.py a.jsonl b.jsonl

For every workload and metric it prints each side's median and quartiles,
the share of seed-matched pairs that side B wins (ties count for neither)
and a verdict.  A metric whose spread (interquartile range over median) on
either side exceeds its bound in BENCHMARK.json is ``unresolved``, unless
every run of B is better than every run of A.  "better" needs B to win
nine in ten of at least ten pairs, and the medians to differ by more than
A's interquartile range; "worse" means B's median is worse than A's by
more than the bound.  Per-layer metrics (records
made with ``--trace 1``) have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], lower: bool, bound: float, wins: int, pairs: int) -> str:
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    if min(len(a), len(b)) < 2:
        return "unresolved (fewer than 2 runs)"
    if max(spread(a), spread(b)) > bound:
        if all(better(y, x) for x in a for y in b):
            return "better (every run)"
        return "unresolved"
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    worse = change if lower else -change
    if worse > bound:
        return f"worse by {worse:.1%} (bound {bound:.0%})"
    if wins >= 0.9 * pairs and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        if pairs < MIN_PAIRS:
            return f"better by {-worse:.1%}? only {pairs} pairs, {MIN_PAIRS} needed"
        return f"better by {-worse:.1%}"
    return "no change beyond bound"


def compare(a_path: str, b_path: str, trace: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [[r for r in load(p) if r["trace"] == trace] for p in (a_path, b_path)]
    for label, recs in zip("AB", sides):
        shas = sorted({str(r["header"].get("git_sha")) for r in recs})
        print(f"{label}: {len(recs)} runs, git {', '.join(shas)}")
    workloads = sorted({r["workload"] for recs in sides for r in recs})
    print(f"{'workload':<16} {'metric':<42} {'A q1/median/q3':>30} {'B q1/median/q3':>30} "
          f"{'B wins':>7}  verdict")
    for wl in workloads:
        runs = [[r for r in recs if r["workload"] == wl] for recs in sides]
        if not (runs[0] and runs[1]):
            print(f"{wl:<16} (runs on one side only)")
            continue
        ratios = [sum(r["result"]["failed"] for r in side) / sum(r["result"]["attempted"] for r in side)
                  for side in runs]
        print(f"{wl:<16} {'failed_ratio':<42} {ratios[0]:>30.4g} {ratios[1]:>30.4g}")
        # pairs: the i-th run of A and the i-th run of B on the same seed
        by_seed = [{}, {}]
        for side, runs_of_side in zip(by_seed, runs):
            for r in runs_of_side:
                side.setdefault(r["seed"], []).append(r["result"]["metrics"])
        pairs = [pair for seed in sorted(by_seed[0].keys() & by_seed[1].keys())
                 for pair in zip(by_seed[0][seed], by_seed[1][seed])]
        names = [n for n in defs if all(n in r["result"]["metrics"] for side in runs for r in side)]
        for name in names:
            a, b = ([r["result"]["metrics"][name]["value"] for r in side] for side in runs)
            lower = defs[name]["better"] == "lower"
            wins = sum(
                (mb[name]["value"] < ma[name]["value"]) if lower
                else (mb[name]["value"] > ma[name]["value"])
                for ma, mb in pairs
            )
            qa, qb = quartiles(a), quartiles(b)
            line = (f"{wl:<16} {name:<42} {'/'.join(f'{q:.4g}' for q in qa):>30} "
                    f"{'/'.join(f'{q:.4g}' for q in qb):>30} {wins:>3}/{len(pairs):<3}")
            if "bound" in defs[name]:
                line += "  " + verdict(a, b, lower, defs[name]["bound"], wins, len(pairs))
            print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="result set A (JSONL written by run.py --save)")
    parser.add_argument("b", help="result set B")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="compare end-to-end (0) or per-layer (1) records")
    args = parser.parse_args(argv)
    return compare(args.a, args.b, args.trace)


if __name__ == "__main__":
    sys.exit(main())
