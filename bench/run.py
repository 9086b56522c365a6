"""The milsem benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload learn --seed 1 --seconds 20 --trace 0

Every operation is a ``milsem.cli.main([..., "--json"])`` call made in this
process, so the command line and its parsing stay in the measured path.
Each output is checked against an expected answer: the committed clauses
under ``bench/expected/`` for learning, the reference interpreter for
``check`` and ``run``.  A pass is one round of the workload's operations;
passes repeat until ``--seconds`` have gone by, and the first one is a
warm-up left out of the timings.

With ``--trace 0`` the metrics are end to end: the median pass time, the
median set-up time of several fresh processes, and this process's peak
resident memory.  With ``--trace 1`` the same passes run with the per-layer
wrappers of ``tracer.py`` installed, and the metrics are per layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected"
WORK_PARENT = ROOT / ".bench_build"

sys.path.insert(0, str(BENCH_DIR))
from calibrate import NOMINAL_ROUND_S, Calibrator  # noqa: E402
from tracer import SCENARIOS, Tracer  # noqa: E402

CHAIN = ("lazy_eager", "pairs", "lists", "conditionals")
CORPUS_KINDS = ("pairs", "lists", "conditionals", "lazy_eager", "mixed")
STRATEGIES = ("lazy", "eager")
CHECK_TERMS_PER_KIND = 300

LOOP = "app(lam(x,app(var(x),var(x))),lam(x,app(var(x),var(x))))"
LOOP_DEPTH = 8000
ADD_CHAIN_LEN = 120
ADD_DEPTH = 10000
PROBE_DEPTH = 100000
PROBE_EXPECTED_EXIT = 3

SETUP_REPEATS = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120

perf_counter = time.perf_counter


def import_milsem():
    """milsem from this checkout's ``src/``, never from anywhere else."""
    if not (SRC / "milsem" / "__init__.py").is_file():
        raise SystemExit(f"bench: no milsem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import milsem
    import milsem.cli

    if Path(milsem.__file__).resolve().parent != SRC / "milsem":
        raise SystemExit(f"bench: imported milsem from {milsem.__file__}, "
                         f"not from {SRC}")
    return milsem


def clause_text(clauses: list[str]) -> str:
    return "".join(c + "\n" for c in clauses)


_ANON = re.compile(r"\b_G\d+\b")


def anon_canonical(text: str) -> str:
    """Number anonymous variables by first appearance.  The printer names
    them after a process-wide counter, so the same program prints with
    different ``_G<n>`` names depending on what was parsed before it."""
    names: dict[str, str] = {}
    return _ANON.sub(
        lambda m: names.setdefault(m.group(), f"_G#{len(names)}"), text)


def add_chain(n: int) -> str:
    """A left-nested sum of ``n`` literals: add(add(lit(1),lit(2)),lit(3))..."""
    text = "lit(1)"
    for i in range(2, n + 1):
        text = f"add({text},lit({i % 10}))"
    return text


# ============================================================
# Workloads
# ============================================================


class Workload:
    """A fixed list of CLI operations, the checks on their outputs, and the
    inputs a fresh process loads before it can run them."""

    name = ""
    ops: list[list[str]]

    def __init__(self, milsem, seed: int, work: Path) -> None:
        self.milsem = milsem
        # stats blocks of learn/chain outputs in the current pass, by task
        self.reported: dict[str, tuple[int, int, int]] = {}

    def load_args(self) -> list[str]:
        raise NotImplementedError

    def check(self, argv: list[str], code: int, out: dict) -> Optional[str]:
        """None when the output is the expected answer, else why not."""
        raise NotImplementedError

    def after_pass(self) -> None:
        """Work each pass does outside the timed region."""

    def probe_fail_ratio(self) -> float:
        return 0.0

    def final_checks(self) -> list[tuple[str, Optional[str]]]:
        """Checks run once, after timing, as (what, error or None)."""
        return []

    def _record_stats(self, payload: dict) -> None:
        s = payload["stats"]
        self.reported[payload["scenario"]] = (
            s["meta_steps"], s["metasubs_tried"], s["candidates"])

    def _conformance(self, program_clauses,
                     scenario: str) -> tuple[str, Optional[str]]:
        m = self.milsem
        report = m.conformance_check(m.Program(tuple(program_clauses)),
                                     m.builtin_corpus(scenario))
        error = None if report.ok else (
            f"{report.passed}/{report.total}, first failure "
            f"{report.failures[:1]}")
        return f"conformance on corpus {scenario}", error


class LearnWorkload(Workload):
    """Each bundled scenario learned on its own."""

    name = "learn"

    def __init__(self, milsem, seed, work) -> None:
        super().__init__(milsem, seed, work)
        self.ops = [["learn", s, "--json"] for s in SCENARIOS]
        self.expected = {s: (EXPECTED / f"{s}.pl").read_text(encoding="utf-8")
                         for s in SCENARIOS}
        self.learned: dict[str, str] = {}

    def load_args(self) -> list[str]:
        return [f"--scenario={s}" for s in SCENARIOS]

    def check(self, argv, code, out):
        name = argv[1]
        if code != 0 or out.get("status") != "found":
            return f"exit {code}, status {out.get('status')}"
        self._record_stats(out)
        text = clause_text(out["clauses"])
        self.learned[name] = text
        if text != self.expected[name]:
            return f"clauses differ from expected/{name}.pl:\n{text}"
        return None

    def final_checks(self):
        m = self.milsem
        return [self._conformance(
                    m.builtin_scenario(s).bk
                    + tuple(m.parse_clauses(self.learned[s])), s)
                for s in SCENARIOS]


class ChainWorkload(Workload):
    """The README's chain; each task's background grows with the
    inductions before it."""

    name = "chain"

    def __init__(self, milsem, seed, work) -> None:
        super().__init__(milsem, seed, work)
        self.out_file = work / "chain.pl"
        self.ops = [["chain", *CHAIN, "--json", "--out", str(self.out_file)]]
        self.expected = (EXPECTED / "chain.pl").read_text(encoding="utf-8")
        self.combined = ""

    def load_args(self) -> list[str]:
        return [f"--scenario={s}" for s in CHAIN]

    def check(self, argv, code, out):
        tasks = out.get("tasks", [])
        if code != 0 or [t["status"] for t in tasks] != ["found"] * len(CHAIN):
            return f"exit {code}, tasks {[t['status'] for t in tasks]}"
        for t in tasks:
            self._record_stats(t)
        combined = self.out_file.read_text(encoding="utf-8")
        self.combined = combined
        induced = clause_text(out["induced"])
        if not self.expected.endswith(induced):
            return f"induced clauses differ from expected/chain.pl:\n{induced}"
        if anon_canonical(combined) != anon_canonical(self.expected):
            return f"combined program differs from expected/chain.pl:\n{combined}"
        return None

    def final_checks(self):
        clauses = self.milsem.parse_clauses(self.combined)
        return [self._conformance(clauses, s) for s in CHAIN]


class CheckWorkload(Workload):
    """The committed chain program checked on seeded corpora, every kind
    under both strategies.  No learner."""

    name = "check"

    def __init__(self, milsem, seed, work) -> None:
        super().__init__(milsem, seed, work)
        oracle = milsem.OracleConfig
        self.program = EXPECTED / "chain.pl"
        self.sizes: dict[str, int] = {}
        self.corpora: list[Path] = []
        self.ops = []
        for i, kind in enumerate(CORPUS_KINDS):
            terms = milsem.generate_corpus(kind, CHECK_TERMS_PER_KIND,
                                           seed=seed * len(CORPUS_KINDS) + i)
            # the corpus contract: every term has a value under both
            # strategies, so a conforming program passes every term
            for t in terms:
                for s in STRATEGIES:
                    v = milsem.reference_eval(t, oracle(strategy=s))
                    if not isinstance(v, (milsem.Compound, milsem.Int)):
                        raise SystemExit(f"bench: corpus term without a "
                                         f"{s} value: {milsem.print_term(t)}")
            path = work / f"{kind}.terms"
            milsem.save_corpus(str(path), terms, header=f"{kind}, seed {seed}")
            self.corpora.append(path)
            self.sizes[str(path)] = len(terms)
            for s in STRATEGIES:
                self.ops.append(["check", str(self.program), str(path),
                                 "--strategy", s, "--json"])

    def load_args(self) -> list[str]:
        return ([f"--program={self.program}"]
                + [f"--corpus={p}" for p in self.corpora])

    def check(self, argv, code, out):
        n = self.sizes[argv[2]]
        got = (code, out.get("total"), out.get("passed"), out.get("failures"))
        if got != (0, n, n, []):
            return f"expected {n}/{n} conforming, got {got}"
        return None


class DeepWorkload(Workload):
    """A few very deep derivations, and an out-of-process probe of a depth
    the solver should report as exhausted."""

    name = "deep"

    def __init__(self, milsem, seed, work) -> None:
        super().__init__(milsem, seed, work)
        self.add_term = add_chain(ADD_CHAIN_LEN)
        self.ops = [
            ["run", "--depth", str(LOOP_DEPTH), LOOP, "--json"],
            ["run", "--depth", str(ADD_DEPTH), self.add_term, "--json"],
        ]
        # expected answers from the reference interpreter: the loop
        # diverges, so the solver must run out of depth
        self.expected = {}
        for argv in self.ops:
            v = milsem.reference_eval(milsem.parse_term(argv[3]))
            if v is sys.modules["milsem.objectlang"].BOTTOM:
                self.expected[argv[3]] = (3, "depth_exceeded", None)
            else:
                self.expected[argv[3]] = (0, "proved", milsem.print_term(v))
        self.probe_runs = 0
        self.probe_failures = 0
        self.probe_exits: set[int] = set()

    def load_args(self) -> list[str]:
        return [f"--term={LOOP}", f"--term={self.add_term}"]

    def check(self, argv, code, out):
        got = (code, out.get("verdict"), out.get("value"))
        want = self.expected[argv[3]]
        return None if got == want else f"expected {want}, got {got}"

    def after_pass(self) -> None:
        code = run_probe()
        self.probe_runs += 1
        self.probe_exits.add(code)
        if code != PROBE_EXPECTED_EXIT:
            self.probe_failures += 1

    def probe_fail_ratio(self) -> float:
        return self.probe_failures / self.probe_runs

    def probe_report(self) -> str:
        verdict = ("ok" if not self.probe_failures
                   else "KNOWN DEFECT, not counted in failed")
        return (f"deep probe: milsem run --depth {PROBE_DEPTH} <loop> exited "
                f"{sorted(self.probe_exits)} in {self.probe_runs} runs, "
                f"expected {PROBE_EXPECTED_EXIT}: {verdict}")


WORKLOADS = {w.name: w for w in (LearnWorkload, ChainWorkload,
                                  CheckWorkload, DeepWorkload)}


# ============================================================
# Child processes
# ============================================================


def _no_core_dump() -> None:
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_probe() -> int:
    """Exit status of the deep probe, a signal N reported as 128+N."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from milsem.cli import main; "
            "sys.exit(main(['run', '--depth', sys.argv[2], sys.argv[3]]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(PROBE_DEPTH), LOOP],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=_no_core_dump, timeout=CHILD_TIMEOUT_S)
    rc = proc.returncode
    return 128 - rc if rc < 0 else rc


def measure_setup(wl: Workload) -> float:
    """Median set-up time of fresh processes that import milsem and load the
    workload's inputs, in seconds at the nominal calibration round time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "load_inputs.py"), str(SRC),
             *wl.load_args()],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S)
        seconds, round_s = map(float, proc.stdout.split())
        times.append(seconds * NOMINAL_ROUND_S / round_s)
    return statistics.median(times)


# ============================================================
# Passes
# ============================================================


class Runner:
    """Runs passes of a workload and tallies checked operations."""

    def __init__(self, wl: Workload,
                 calibrator: Optional[Calibrator] = None) -> None:
        self.cli = sys.modules["milsem.cli"]
        self.wl = wl
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0

    def verdict(self, what: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAIL {self.wl.name}: {what}: {error}", file=sys.stderr)

    def run_pass(self) -> tuple[float, list[float]]:
        """Seconds spent inside ``cli.main`` over one pass, less the
        calibration rounds run meanwhile, and those rounds' durations."""
        self.wl.reported.clear()
        total = 0.0
        first_round = len(self.calibrator.rounds) if self.calibrator else 0
        for argv in self.wl.ops:
            buf = io.StringIO()
            with contextlib.ExitStack() as stack:
                if self.calibrator:
                    stack.enter_context(self.calibrator)
                stack.enter_context(contextlib.redirect_stdout(buf))
                t0 = perf_counter()
                code = self.cli.main(argv)
                total += perf_counter() - t0
            try:
                out = json.loads(buf.getvalue())
            except ValueError:
                self.verdict(argv[0], f"exit {code}, output is not JSON")
                continue
            self.verdict(" ".join(argv[:2]), self.wl.check(argv, code, out))
        self.wl.after_pass()
        rounds = self.calibrator.rounds[first_round:] if self.calibrator else []
        return total - sum(rounds), rounds

    def timed_passes(self, seconds: float,
                     at_least: int) -> list[tuple[float, list[float]]]:
        """At least ``at_least`` passes, and more while another fits in
        ``seconds``; a first, warm-up pass is checked like the rest but
        left out of the result."""
        passes = []
        walls: list[float] = []
        started = perf_counter()
        while len(passes) <= at_least or fits(started, walls, seconds):
            t0 = perf_counter()
            passes.append(self.run_pass())
            walls.append(perf_counter() - t0)
        return passes[1:]

    def final_checks(self) -> None:
        for what, error in self.wl.final_checks():
            self.verdict(what, error)


def fits(started: float, walls: list[float], seconds: float) -> bool:
    """Whether one more pass, as long as the median so far, ends within
    ``seconds`` of ``started``."""
    return perf_counter() - started + statistics.median(walls) <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner, seconds: float) -> dict:
    passes = runner.timed_passes(seconds, MIN_PASSES)
    cost = statistics.median(t / statistics.mean(rounds) for t, rounds in passes)
    return {"pass_cal": (cost, "cal")}


def per_layer(runner: Runner, seconds: float) -> dict:
    """Traced passes; counts must repeat exactly from pass to pass and the
    learner counts must equal the stats the CLI printed."""
    untraced = [t for t, _ in runner.timed_passes(0, MIN_TRACED_PASSES)]
    tracer = Tracer()
    tracer.install()
    try:
        traced: list[float] = []
        walls: list[float] = []
        passes: list[dict] = []
        counts: list[dict] = []
        started = perf_counter()
        while (len(traced) < MIN_TRACED_PASSES
               or fits(started, walls, seconds)):
            tracer.reset()
            t0 = perf_counter()
            traced.append(runner.run_pass()[0])
            walls.append(perf_counter() - t0)
            passes.append(tracer.metrics())
            counts.append(tracer.count_snapshot())
            runner.verdict("tracer stats match CLI stats",
                           None if tracer.learn_stats == runner.wl.reported
                           else f"{tracer.learn_stats} != {runner.wl.reported}")
    finally:
        tracer.uninstall()
    runner.verdict("counts repeat across traced passes",
                   None if all(c == counts[0] for c in counts)
                   else "counts differ between traced passes")
    # counts are the same in every pass; times are medians
    metrics = {name: (statistics.median(p[name][0] for p in passes)
                      if unit == "s" else value, unit)
               for name, (value, unit) in passes[0].items()}
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    metrics["wall.pass_s"] = (untraced_s, "s")
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    milsem = import_milsem()
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_PARENT))
    try:
        wl = WORKLOADS[workload](milsem, seed, work)
        runner = Runner(wl, None if trace else Calibrator())
        if trace:
            metrics = per_layer(runner, seconds)
            metrics["deep.probe_fail_ratio"] = (wl.probe_fail_ratio(), "share")
        else:
            setup_s = measure_setup(wl)
            metrics = end_to_end(runner, seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        runner.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if isinstance(wl, DeepWorkload):
        print(wl.probe_report())
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
