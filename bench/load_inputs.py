"""Set-up cost of a benchmark workload, measured in a fresh process.

Imports milsem from the given source tree and loads the workload's inputs
through the public loaders.  Prints two numbers: the seconds that took,
less the calibration rounds run meanwhile, and the mean round time (see
calibrate.py).  Python's own start-up is not included.

    python3 bench/load_inputs.py SRC [--scenario NAME] [--program FILE]
                                     [--corpus FILE] [--term TEXT]

Each option may be repeated.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from calibrate import Calibrator, calibration_round

EXTRA_ROUNDS = 5  # before and after, so that a short set-up has enough


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("src")
    ap.add_argument("--scenario", action="append", default=[])
    ap.add_argument("--program", action="append", default=[])
    ap.add_argument("--corpus", action="append", default=[])
    ap.add_argument("--term", action="append", default=[])
    args = ap.parse_args()

    calibrator = Calibrator()
    calibrator.rounds.extend(timed_rounds())
    first = len(calibrator.rounds)
    with calibrator:
        started = time.perf_counter()
        sys.path.insert(0, args.src)
        import milsem

        for name in args.scenario:
            milsem.builtin_scenario(name)
        for path in args.program:
            milsem.parse_clauses(Path(path).read_text(encoding="utf-8"))
        for path in args.corpus:
            milsem.load_corpus(path)
        for text in args.term:
            milsem.parse_term(text)
        elapsed = time.perf_counter() - started
    elapsed -= sum(calibrator.rounds[first:])
    calibrator.rounds.extend(timed_rounds())
    print(elapsed, statistics.mean(calibrator.rounds))
    return 0


def timed_rounds() -> list[float]:
    out = []
    for _ in range(EXTRA_ROUNDS):
        t0 = time.perf_counter()
        calibration_round()
        out.append(time.perf_counter() - t0)
    return out


if __name__ == "__main__":
    sys.exit(main())
