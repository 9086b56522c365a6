"""Per-layer counters and spans for a traced benchmark pass.

The tracer wraps public milsem functions from outside the package, at the
names their callers look them up by: a function imported with
``from .x import f`` is rebound in the importing module, a method is
replaced on its class.  Nothing under ``src/`` is edited.

Every wrapped call is a span.  A span adds its duration to the inclusive
time of its own name (``terms.unify``) and its self time (duration minus the
spans nested inside it) to its layer (``terms``), so the layer self times
of a pass add up to the time spent inside milsem.  Counts are exact and
repeat from run to run; times do not.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

# Layer names in the order reports list them.
LAYERS = ("cli", "io", "learn", "metarules", "solver", "objectlang", "terms")

SCENARIOS = ("pairs", "lists", "conditionals", "lazy_eager")
MAX_CAP = 8  # the bundled scenarios' max_clauses


class Tracer:
    """Installs wrappers around milsem's public calls and aggregates them."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.span_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.cap_s: defaultdict = defaultdict(float)
        self.learn_stats: dict = {}
        self._child = [0.0]  # child-span time of each open span
        self._patches: list = []

    # ---- bookkeeping ----

    def reset(self) -> None:
        self.counts.clear()
        self.span_s.clear()
        self.self_s.clear()
        self.cap_s.clear()
        self.learn_stats.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _span(self, span: str, fn, on_result=None, reentrant: bool = True):
        """Wrap ``fn`` as a span; ``on_result`` sees each call's result.

        With ``reentrant=False`` only the outermost call of a recursion is
        a span, so a function that recurses through its global name is
        counted once per external call."""
        layer = span.split(".", 1)[0]
        counts, span_s, self_s, child = (self.counts, self.span_s,
                                         self.self_s, self._child)
        calls = span + "_calls"
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            if not reentrant:
                active[0] = True
            t0 = perf_counter()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                inner = child.pop()
                child[-1] += d
                span_s[span] += d
                self_s[layer] += d - inner
                active[0] = False
            counts[calls] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _generator_span(self, span: str, fn, per_item: str):
        """Wrap a generator-returning ``fn``; each resumption is a span, so
        the consumer's work between items is not charged to it."""
        layer = span.split(".", 1)[0]
        counts, span_s, self_s, child = (self.counts, self.span_s,
                                         self.self_s, self._child)
        calls = span + "_calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            inner_gen = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                child.append(0.0)
                try:
                    item = next(inner_gen)
                except StopIteration:
                    return
                finally:
                    d = perf_counter() - t0
                    inner = child.pop()
                    child[-1] += d
                    span_s[span] += d
                    self_s[layer] += d - inner
                counts[per_item] += 1
                yield item

        return wrapper

    # ---- hooks ----

    def _count_if(self, key: str, pred):
        counts = self.counts

        def hook(result) -> None:
            if pred(result):
                counts[key] += 1
        return hook

    def _solve_hook(self, verdict_cls):
        counts = self.counts
        exceeded = verdict_cls.DEPTH_EXCEEDED

        def hook(out) -> None:
            counts["solver.steps"] += out.steps
            if out.verdict is exceeded:
                counts["solver.depth_exceeded"] += 1
        return hook

    def _learn_wrapper(self, fn):
        """``learn`` with a trace callback that timestamps each size cap,
        and a hook recording the stats of every scenario or chain task."""
        counts, cap_s, stats = self.counts, self.cap_s, self.learn_stats

        def traced_learn(spec, **kwargs):
            caps: list = []
            outer = kwargs.get("trace")

            def on_line(line: str) -> None:
                if line.startswith("size cap "):
                    caps.append((int(line[len("size cap "):]), perf_counter()))
                if outer is not None:
                    outer(line)

            kwargs["trace"] = on_line
            res = fn(spec, **kwargs)
            end = perf_counter()
            for i, (n, t) in enumerate(caps):
                nxt = caps[i + 1][1] if i + 1 < len(caps) else end
                cap_s[n] += nxt - t
            s = res.stats
            counts["learn.found"] += res.ok
            counts["learn.candidates_total"] += s.candidates
            for field in ("meta_steps", "metasubs_tried", "candidates"):
                counts[f"learn.{field}.{spec.name}"] += getattr(s, field)
            stats[spec.name] = (s.meta_steps, s.metasubs_tried, s.candidates)
            return res

        return self._span("learn.learn", traced_learn)

    # ---- installation ----

    def install(self) -> None:
        cli = sys.modules["milsem.cli"]
        # the package re-exports the function `learn`, which shadows the
        # submodule attribute, so the module comes from sys.modules
        learn_mod = sys.modules["milsem.learn"]
        solver = sys.modules["milsem.solver"]
        objectlang = sys.modules["milsem.objectlang"]
        terms = sys.modules["milsem.terms"]

        self._patch(cli, "main", self._span("cli.main", cli.main))

        self._patch(cli, "builtin_scenario",
                    self._span("io.scenario_load", cli.builtin_scenario))
        self._patch(cli, "load_scenario",
                    self._span("io.scenario_load", cli.load_scenario))
        self._patch(cli, "parse_clauses",
                    self._span("io.parse", cli.parse_clauses))
        self._patch(cli, "parse_term", self._span("io.parse", cli.parse_term))
        self._patch(cli, "load_corpus",
                    self._span("io.corpus_load", cli.load_corpus))

        learn_fn = self._learn_wrapper(learn_mod.learn)
        self._patch(learn_mod, "learn", learn_fn)
        self._patch(cli, "learn", learn_fn)
        self._patch(cli, "learn_seq", self._span("learn.seq", cli.learn_seq))
        self._patch(learn_mod, "check_example",
                    self._span("learn.check", learn_mod.check_example))

        self._patch(learn_mod, "match_head", self._span(
            "metarules.match_head", learn_mod.match_head,
            self._count_if("metarules.match_head_hits",
                           lambda r: r is not None)))
        self._patch(learn_mod, "enumerate_bindings", self._generator_span(
            "metarules.bindings", learn_mod.enumerate_bindings,
            "metarules.bindings_yielded"))
        self._patch(learn_mod, "apply_metasub",
                    self._span("metarules.apply", learn_mod.apply_metasub))

        solve_fn = self._span("solver.solve", solver.solve,
                              self._solve_hook(solver.Verdict))
        for owner in (learn_mod, objectlang, cli):
            self._patch(owner, "solve", solve_fn)

        self._patch(cli, "conformance_check", self._span(
            "objectlang.conformance", cli.conformance_check))
        self._patch(objectlang, "reference_eval", self._span(
            "objectlang.reference_eval", objectlang.reference_eval))
        self._patch(objectlang, "substitute", self._span(
            "objectlang.substitute", objectlang.substitute, reentrant=False))

        self._patch(terms.Store, "unify_atoms", self._span(
            "terms.unify", terms.Store.unify_atoms,
            self._count_if("terms.unify_hits", bool)))
        rename_fn = self._span("terms.rename", terms.rename_apart)
        for owner in (learn_mod, solver):
            self._patch(owner, "rename_apart", rename_fn)

    # ---- report ----

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        c, s = self.counts, self.span_s

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        learn_s = s["learn.learn"]
        out = {
            "terms.unify_calls": (c["terms.unify_calls"], "count"),
            "terms.unify_hit_ratio": (ratio("terms.unify_hits",
                                            "terms.unify_calls"), "share"),
            "terms.unify_s": (s["terms.unify"], "s"),
            "terms.rename_calls": (c["terms.rename_calls"], "count"),
            "terms.rename_s": (s["terms.rename"], "s"),
            "metarules.match_head_calls": (c["metarules.match_head_calls"],
                                           "count"),
            "metarules.match_head_hit_ratio": (
                ratio("metarules.match_head_hits",
                      "metarules.match_head_calls"), "share"),
            "metarules.bindings_yielded": (c["metarules.bindings_yielded"],
                                           "count"),
            "metarules.apply_calls": (c["metarules.apply_calls"], "count"),
            "metarules.s": (s["metarules.match_head"] + s["metarules.bindings"]
                            + s["metarules.apply"], "s"),
            "learn.accept_ratio": (ratio("learn.found",
                                         "learn.candidates_total"), "share"),
            "learn.check_calls": (c["learn.check_calls"], "count"),
            "learn.check_s": (s["learn.check"], "s"),
            "learn.proof_s": (max(learn_s - s["learn.check"], 0.0), "s"),
            "solver.solve_calls": (c["solver.solve_calls"], "count"),
            "solver.solve_s": (s["solver.solve"], "s"),
            "solver.steps": (c["solver.steps"], "count"),
            "solver.depth_exceeded": (c["solver.depth_exceeded"], "count"),
            "objectlang.reference_eval_calls": (
                c["objectlang.reference_eval_calls"], "count"),
            "objectlang.reference_eval_s": (s["objectlang.reference_eval"], "s"),
            "objectlang.substitute_calls": (c["objectlang.substitute_calls"],
                                            "count"),
            "objectlang.conformance_s": (s["objectlang.conformance"], "s"),
            "scenario.load_s": (s["io.scenario_load"], "s"),
            "textio.parse_s": (s["io.parse"], "s"),
            "corpus.load_s": (s["io.corpus_load"], "s"),
            "cli.main_s": (s["cli.main"], "s"),
        }
        for name in SCENARIOS:
            for field in ("meta_steps", "metasubs_tried", "candidates"):
                key = f"learn.{field}.{name}"
                out[key] = (c[key], "count")
        for n in range(1, MAX_CAP + 1):
            out[f"learn.cap_s.{n}"] = (self.cap_s[n], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def count_snapshot(self) -> dict:
        """The deterministic part of a pass: every count, no times."""
        return dict(self.counts)
