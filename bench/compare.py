"""Compare two benchmark result files written by ``bench/sweep.py``.

    python3 bench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both sides' median and
quartiles, the ratio NEW/BASE, how many seeds NEW won, and a verdict:

    better              NEW wins at least nine tenths of the seeds and its
                        median beats BASE's by more than BASE's own spread
                        (or, when spreads are wide, every NEW run beats
                        every BASE run)
    worse beyond bound  NEW's median is worse by more than the metric's
                        bound in BENCHMARK.json
    unresolved          a spread is wider than the bound, so the medians
                        cannot be told apart
    within bound        none of the above

Spread is the distance between the first and third quartiles as a share
of the median.  Per-layer metrics from traced runs follow, side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def by_seed(data: dict, workload: str, trace: int) -> dict[int, dict]:
    return {r["seed"]: r["result"] for r in data["runs"]
            if r["workload"] == workload and r["trace"] == trace
            and r["result"] is not None}


def verdict(base: list[float], new: list[float], wins: int, pairs: int,
            bound: float, lower: bool) -> str:
    sign = 1 if lower else -1

    def better(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (n_med - b_med) / b_med
    every_run_better = all(better(n, b) for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if every_run_better else "unresolved"
    if worse_by > bound:
        return "worse beyond bound"
    if -worse_by > spread(base) and pairs and wins >= 0.9 * pairs:
        return "better"
    return "within bound"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare_end_to_end(base: dict, new: dict, workload: str,
                       config: dict) -> None:
    b_runs, n_runs = by_seed(base, workload, 0), by_seed(new, workload, 0)
    if not b_runs or not n_runs:
        return
    bad = [f"{label} {sum(not r['correct'] for r in runs.values())}"
           for label, runs in (("base", b_runs), ("new", n_runs))]
    print(f"\n== {workload}: {len(b_runs)} base runs, {len(n_runs)} new runs;"
          f" incorrect runs: {', '.join(bad)}")
    print(f"  {'metric':14s} {'base median [q1, q3]':30s} "
          f"{'new median [q1, q3]':30s} {'new/base':>8s} {'wins':>6s}  verdict")
    for m in config["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [b_runs[s]["metrics"][name]["value"] for s in sorted(b_runs)]
        n = [n_runs[s]["metrics"][name]["value"] for s in sorted(n_runs)]
        # pairs: the same seed on both sides, or else runs in seed order
        pairs = list(zip(b, n))
        wins = sum(x != y and (y < x) == lower for x, y in pairs)
        ratio = statistics.median(n) / statistics.median(b)
        print(f"  {name:14s} {fmt(b):30s} {fmt(n):30s} {ratio:8.3f} "
              f"{wins:>3d}/{len(pairs):<2d}  "
              f"{verdict(b, n, wins, len(pairs), m['bound'], lower)}")


def compare_per_layer(base: dict, new: dict, workload: str) -> None:
    b_runs = list(by_seed(base, workload, 1).values())
    n_runs = list(by_seed(new, workload, 1).values())
    if not b_runs or not n_runs:
        return
    print(f"\n-- {workload} per layer: median of {len(b_runs)} base and "
          f"{len(n_runs)} new traced runs")
    names = sorted(set(b_runs[0]["metrics"]) | set(n_runs[0]["metrics"]))
    for name in names:
        b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
        unit = (b_runs[0]["metrics"].get(name)
                or n_runs[0]["metrics"][name])["unit"]
        bm = statistics.median(b) if b else float("nan")
        nm = statistics.median(n) if n else float("nan")
        ratio = f"{nm / bm:8.3f}" if b and n and bm else f"{'-':>8s}"
        print(f"  {name:36s} {bm:14.6g} {nm:14.6g} {ratio} {unit}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"base: {argv[0]} ({base.get('label', '')}, "
          f"{base['machine'].get('python')})")
    print(f"new:  {argv[1]} ({new.get('label', '')}, "
          f"{new['machine'].get('python')})")
    for w in config["workloads"]:
        compare_end_to_end(base, new, w["name"], config)
    for w in config["workloads"]:
        compare_per_layer(base, new, w["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
