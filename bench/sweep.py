"""Run the benchmark over several seeds and save every result to one file.

    python3 bench/sweep.py --out results.json [--label NAME]
        [--workloads learn,chain,check,deep] [--seeds 10] [--first-seed 1]
        [--trace 0|1|both]

Runs ``bench/run.py`` once per workload, seed and trace setting, one after
another, and writes a result file that ``bench/compare.py`` reads.  For
each end-to-end metric it prints the median and the spread, the distance
between the first and third quartiles as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "stack_limit": resource.getrlimit(resource.RLIMIT_STACK)[0],
    }


def main() -> int:
    config = load_config()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="result file to write")
    ap.add_argument("--label", default="")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in config["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="how many seeds")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = ap.parse_args()

    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    runs = []
    for workload in args.workloads.split(","):
        for trace in traces:
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                started = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(config["run_seconds"]),
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True,
                    timeout=RUN_TIMEOUT_S)
                wall = time.monotonic() - started
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1]) if lines else None
                except ValueError:
                    result = None
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "exit": proc.returncode,
                             "wall_s": wall, "result": result})
                ok = bool(result and result["correct"])
                print(f"{workload} seed {seed} trace {trace}: exit "
                      f"{proc.returncode}, correct {ok}, {wall:.1f}s",
                      file=sys.stderr)
                if proc.returncode != 0 or not ok:
                    sys.stderr.write(proc.stderr[-2000:])

    Path(args.out).write_text(json.dumps({
        "label": args.label, "seconds": config["run_seconds"],
        "machine": machine_info(), "runs": runs}, indent=1) + "\n",
        encoding="utf-8")

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workloads.split(","):
        results = [r["result"] for r in runs if r["workload"] == workload
                   and r["trace"] == 0 and r["result"]]
        if len(results) < 2:
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            flag = "ok" if s < bound / 3 else "WIDE"
            print(f"{workload:6s} {name:12s} median {statistics.median(values):.6g}"
                  f"  spread {s:.4f}  bound/3 {bound / 3:.4f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
