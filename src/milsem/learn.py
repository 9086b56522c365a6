"""Hypothesis search: meta-interpretive learning of rule programs.

The learner proves the positive examples with the solver's own `Resolver`,
given a clause source that may, where ordinary clause selection fails,
conjure a new clause by instantiating a metarule against the current goal
and add it to the growing hypothesis.  Alternatives at a goal are tried in
a fixed order: builtins, background clauses, then hypothesis clauses
already adopted, and only then fresh metarule instantiations.  The clause
source returns them as the solver's ``(bucket, tail)`` pair: the bucket
is the background's first-argument bucket for the goal followed by the
adopted clauses whose first-argument key matches, and the resolver tries
their heads itself; the tail is a generator of metarule instances, or
None where no metarule may apply.  An instantiation is tried like any
clause: its unrenamed head is unified with the goal through a frame, and
only when that succeeds is it adopted and its body renamed through the
frame.  A probe for a depth cut adopts nothing.  A predicate
metavariable in a rule body may be bound to a predicate that does not
exist yet, which is how auxiliary ``pred_<n>`` predicates are invented;
the branch then has to define them or die.

Minimality comes from iterative deepening on hypothesis size: `learn` tries
caps 1, 2, ... up to ``max_clauses`` and returns the first hypothesis that
proves every positive and survives the remaining examples, so no strictly
smaller hypothesis can.  Negative and non-terminating examples are checked
with the published solver on background plus candidate: a negative must
finitely fail and a non-terminating example must exhaust the depth budget,
the latter being how a single tagged example can separate evaluation
strategies that agree on all finite behaviour.

One engine serves a whole `learn` or `meta_prove` call and is re-run at
each size cap; its resolver, renamed goals, statistics and negative cores
carry over from cap to cap.  Each example is proved under a fresh depth
budget.  The meta-proof is the solver's resolution with a different clause
source, so budget, step count and taint work as in `solve`: a hypothesis
found here proves its examples under `solve` as well, and when no
hypothesis turns up but the depth bound cut the meta-proof, `learn`
reports ``depth_exceeded`` rather than ``exhausted``.

Definite programs are monotone: a clause set that proves a goal within the
depth budget still proves it with clauses added.  So when a candidate is
rejected because it *proves* a negative example, `learn` shrinks it to a
*negative core*, a subset that still proves that example and from which
no single clause can be dropped, and from then on the meta-proof, at this
size cap and every later one, never adopts the metasub that would
complete a core: every hypothesis containing one is rejected anyway, so
the first hypothesis accepted is the one the unpruned search accepts.
Only a negative example that is ``PROVED`` yields a core, and the core
is shrunk by asking whether it still proves that goal.  A positive that
is not proved, or a non-terminating example that fails finitely, may be
mended by adding clauses, so those rejections say nothing about larger
hypotheses.  A negative cut by the depth bound under ``reject``, and a
non-terminating example that is proved, would stay rejected with clauses
added too, but they record no core.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .metarules import (
    Metasub,
    apply_metasub,
    enumerate_bindings,
    match_head,
)
from .objectlang import default_builtins
from .scenario import Example, ScenarioSpec
from .solver import (
    DEFAULT_DEPTH,
    BuiltinTable,
    Outcome,
    Resolver,
    SolveConfig,
    Tail,
    Verdict,
    solve,
)
from .terms import (
    Clause,
    Compound,
    FreshVars,
    IndexEntry,
    Program,
    Symbol,
    Term,
    index_entry,
    index_key,
    rename_apart,
    rename_term,
)
from .textio import print_clause

Trace = Optional[Callable[[str], None]]

_INVENTED = re.compile(r"^pred_(\d+)$")


class _SearchTimeout(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Hypothesis:
    """An ordered set of metarule instantiations and their clauses."""

    metasubs: tuple[Metasub, ...]
    clauses: tuple[Clause, ...]

    @property
    def size(self) -> int:
        return len(self.clauses)

    def program(self, bk: Sequence[Clause]) -> Program:
        return Program(tuple(bk) + self.clauses)

    def __str__(self) -> str:
        return "\n".join(print_clause(c) for c in self.clauses)


@dataclass(slots=True)
class LearnStats:
    size_reached: int = 0
    meta_steps: int = 0
    metasubs_tried: int = 0
    candidates: int = 0
    pruned: int = 0  # instantiations skipped because they completed a core
    elapsed: float = 0.0


@dataclass(slots=True)
class LearnResult:
    status: str  # found | exhausted | depth_exceeded | timeout
    hypothesis: Optional[Hypothesis]
    stats: LearnStats

    @property
    def ok(self) -> bool:
        return self.status == "found"


def invented_base(clauses: Sequence[Clause]) -> int:
    """Highest ``pred_<n>`` already taken, so invention continues after it."""
    hi = 0
    for c in clauses:
        for a in (c.head, *c.body):
            m = _INVENTED.match(a.functor.name)
            if m:
                hi = max(hi, int(m.group(1)))
    return hi


def check_example(program: Program, example: Example, *,
                  depth_limit: int = DEFAULT_DEPTH,
                  neg_depth_policy: str = "reject",
                  builtins: Optional[BuiltinTable] = None,
                  ) -> tuple[bool, Outcome]:
    """Whether the program treats one example as its tag demands."""
    if builtins is None:
        builtins = default_builtins()
    out = solve(program, example.goal, SolveConfig(depth_limit=depth_limit),
                builtins)
    if example.tag == "pos":
        return out.proved, out
    if example.tag == "neg":
        if out.verdict is Verdict.PROVED:
            return False, out
        if out.verdict is Verdict.FINITE_FAILURE:
            return True, out
        return neg_depth_policy == "accept", out
    # nonterm: only running out of depth will do; finite failure means the
    # program stops where it should run forever
    return out.verdict is Verdict.DEPTH_EXCEEDED, out


def _negative_core(bk: Sequence[Clause], candidate: Hypothesis, goal: Compound,
                   depth_limit: int, builtins: BuiltinTable,
                   ) -> list[tuple[Metasub, Clause]]:
    """A subset of a candidate that still proves a negative example's goal,
    found by dropping each clause in turn for good when the rest still
    prove it.  By monotonicity no single clause of the result can be
    dropped: a subset of a set that failed to prove the goal fails too."""
    core = list(zip(candidate.metasubs, candidate.clauses))
    config = SolveConfig(depth_limit=depth_limit)
    for pair in list(core):
        rest = [p for p in core if p is not pair]
        program = Program(tuple(bk) + tuple(c for _, c in rest))
        if solve(program, goal, config, builtins).proved:
            core = rest
    return core


# ============================================================
# The engine
# ============================================================


class _Engine:
    """The meta-proof of one `learn` or `meta_prove` call, built once and
    re-run at each size cap."""

    __slots__ = ("spec", "resolver", "store", "background",
                 "pools", "head_preds", "goals", "deadline", "trace",
                 "size_cap", "hypothesis", "adopted", "invented",
                 "invent_from", "cores", "stats", "_ticks")

    def __init__(self, spec: ScenarioSpec, goals: Sequence[Compound],
                 deadline: Optional[float] = None, trace: Trace = None) -> None:
        self.spec = spec
        self.resolver = Resolver(default_builtins(), FreshVars())
        self.store = self.resolver.store
        self.background = Program(spec.bk).bucket
        self.pools = spec.pools()
        self.head_preds = frozenset(self.pools.head_preds)
        # examples must not share variables with each other or the program
        self.goals = [rename_term(g, {}, self.resolver.counter) for g in goals]
        self.deadline = deadline
        self.trace = trace
        self.size_cap = 0
        self.hypothesis: dict[Metasub, Clause] = {}
        # index entries of the adopted clauses, by head predicate
        self.adopted: dict[Symbol, list[IndexEntry]] = {}
        self.invented: dict[Symbol, None] = {}
        self.invent_from = invented_base(spec.bk)
        # metasub -> the rest of each negative core holding it
        self.cores: dict[Metasub, list[frozenset[Metasub]]] = {}
        # meta_steps is the resolver's step count, read at the end
        self.stats = LearnStats()
        self._ticks = 0

    # ---- bookkeeping ----

    def _tick(self) -> None:
        self._ticks += 1
        if (self._ticks & 0x3FF) == 0 and self.deadline is not None:
            if time.monotonic() > self.deadline:
                raise _SearchTimeout

    def _adopt(self, msub: Metasub, clause: Clause, frame: dict[int, Term],
               tentative: Optional[str]) -> Iterator[Sequence[Compound]]:
        """The renamed body of a metarule instance whose head unified with
        the goal, the instance adopted into the hypothesis while the body
        is being proved."""
        new_preds = tuple(dict.fromkeys(
            b for _n, b in msub.bindings
            if isinstance(b, Symbol) and b.name == tentative))
        self.stats.metasubs_tried += 1
        self.hypothesis[msub] = clause
        adopted = self.adopted.setdefault(clause.head.functor, [])
        adopted.append(index_entry(clause))
        self.invented.update(dict.fromkeys(new_preds))
        if self.trace:
            self.trace("  + " + print_clause(clause))
        try:
            yield rename_apart(clause, frame, self.resolver.counter)
            if self.trace:
                self.trace("  - backtrack")
        finally:
            # also when the search is abandoned inside the body
            self.hypothesis.popitem()
            adopted.pop()
            for p in new_preds:
                del self.invented[p]

    # ---- the clause source ----

    def clauses(self, goal: Compound) -> tuple[Sequence[Clause], Tail]:
        """Alternatives for a goal: the bucket of background and adopted
        clauses, and the tail of fresh metarule instantiations, each
        adopted into the hypothesis while its body is being proved."""
        self._tick()
        pred = goal.functor
        key = index_key(self.store.walk(goal.args[0])) if goal.args else None
        bucket = self.background(pred, key)
        adopted = self.adopted.get(pred)
        if adopted:
            bucket = bucket + tuple([c for c, k in adopted
                                     if k is None or key is None or k == key])
        if (len(self.hypothesis) >= self.size_cap
                or pred not in self.head_preds and pred not in self.invented):
            return bucket, None
        return bucket, self._instances(goal)

    def _instances(self, goal: Compound) -> Iterator[Sequence[Compound]]:
        """The renamed bodies of the metarule instances whose heads unify
        with the goal, each adopted while it is being proved."""
        resolver, store, stats = self.resolver, self.store, self.stats
        counter = resolver.counter
        tentative = (f"pred_{self.invent_from + len(self.invented) + 1}"
                     if len(self.hypothesis) + 1 < self.size_cap else None)
        for m in self.spec.metarules:
            restr = match_head(m, goal, store)
            if restr is None:
                continue
            for binding in enumerate_bindings(m, restr, self.pools,
                                              self.invented, tentative):
                msub = Metasub(m.name, tuple((d.name, binding[d.name])
                                             for d in m.decls))
                if msub in self.hypothesis:
                    continue  # identical clause already adopted, reuse covers it
                if any(rest <= self.hypothesis.keys()
                       for rest in self.cores.get(msub, ())):
                    stats.pruned += 1  # would complete a negative core
                    continue
                clause = apply_metasub(m, binding)
                frame: dict[int, Term] = {}
                mark = store.mark()
                if store.unify_atoms(clause.head, goal, frame, counter):
                    if resolver.probing:
                        # a depth probe asks only whether an instance
                        # applies and never enters the body, so nothing is
                        # adopted, counted or traced
                        yield ()
                    else:
                        yield from self._adopt(msub, clause, frame, tentative)
                store.undo(mark)

    # ---- the search ----

    def hypotheses(self, caps: Iterable[int]) -> Iterator[Hypothesis]:
        """The hypothesis in force at each complete proof of the goals, cap
        by cap, in search order.  Each goal is proved under a fresh depth
        budget, backtracking across them."""
        depth = self.spec.options.depth_limit

        def prove(i: int) -> Iterator[Hypothesis]:
            if i == len(self.goals):
                yield Hypothesis(tuple(self.hypothesis),
                                 tuple(self.hypothesis.values()))
                return
            for _ in self.resolver.run([self.goals[i]], depth, self.clauses):
                yield from prove(i + 1)

        # each cap probes for a depth cut afresh; after the last cap the
        # resolver's flag says whether the bound cut any of them
        cut = False
        for n in caps:
            self.size_cap = self.stats.size_reached = n
            if self.trace:
                self.trace(f"size cap {n}")
            self.resolver.tainted = False
            yield from prove(0)
            cut = cut or self.resolver.tainted
        self.resolver.tainted = cut

    def accepts(self, candidate: Hypothesis) -> bool:
        """Whether a candidate treats every example as its tag demands.  A
        negative example that it proves leaves its core behind, when new."""
        spec, opts = self.spec, self.spec.options
        builtins = self.resolver.builtins
        self.stats.candidates += 1
        program = candidate.program(spec.bk)
        for i, e in enumerate(spec.examples):
            ok, out = check_example(program, e, depth_limit=opts.depth_limit,
                                    neg_depth_policy=opts.neg_depth_policy,
                                    builtins=builtins)
            if not ok:
                break
        else:
            return True
        if e.tag == "neg" and out.verdict is Verdict.PROVED:
            core = _negative_core(spec.bk, candidate, e.goal,
                                  opts.depth_limit, builtins)
            key = frozenset(ms for ms, _ in core)
            if key and not any(key - {ms} in self.cores.get(ms, ())
                               for ms in key):
                for ms in key:
                    self.cores.setdefault(ms, []).append(key - {ms})
                if self.trace:
                    self.trace(f"  core from example {i} ({e.tag}): "
                               + " ".join(print_clause(c) for _, c in core))
        if self.trace:
            self.trace("  rejected by examples")
        return False


# ============================================================
# Public surface
# ============================================================


def meta_prove(spec: ScenarioSpec,
               goals: Union[Compound, Sequence[Compound]], *,
               size_cap: Optional[int] = None) -> Iterator[Hypothesis]:
    """Meta-prove goals against a scenario's background, growing a
    hypothesis as needed; the hypothesis in force at each complete proof,
    in search order."""
    engine = _Engine(spec, [goals] if isinstance(goals, Compound) else goals)
    yield from engine.hypotheses(
        [spec.options.max_clauses if size_cap is None else size_cap])


def learn(spec: ScenarioSpec, *, trace: Trace = None) -> LearnResult:
    """Search for the smallest hypothesis consistent with every example,
    within the limits of ``spec.options``.

    Deepens on hypothesis size, so the result is minimal in clause count.
    A candidate clause set already checked, reached again under a
    different derivation order or at a larger size cap, is skipped, and so
    is every partial hypothesis that contains a negative core.
    """
    opts = spec.options
    started = time.monotonic()
    engine = _Engine(spec, [e.goal for e in spec.positives()],
                     started + opts.timeout if opts.timeout > 0 else None,
                     trace)
    seen: set[frozenset[Metasub]] = set()
    found: Optional[Hypothesis] = None
    try:
        for candidate in engine.hypotheses(range(1, opts.max_clauses + 1)):
            key = frozenset(candidate.metasubs)
            if key not in seen:
                seen.add(key)
                if engine.accepts(candidate):
                    found = candidate
                    break
        status = ("found" if found is not None
                  else "depth_exceeded" if engine.resolver.tainted
                  else "exhausted")
    except _SearchTimeout:
        status = "timeout"
    if found is not None and trace:
        trace(f"found at size {found.size}")
    stats = engine.stats
    stats.meta_steps = engine.resolver.steps
    stats.elapsed = time.monotonic() - started
    return LearnResult(status, found, stats)


@dataclass(slots=True)
class SeqResult:
    """Outcome of learning a chain of scenarios, each building on the last."""

    results: tuple[tuple[str, LearnResult], ...]
    induced: tuple[Clause, ...]
    combined: Optional[Program]
    elapsed: float

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for _, r in self.results)


def learn_seq(specs: Sequence[ScenarioSpec], *,
              trace: Trace = None) -> SeqResult:
    """Learn scenarios in order, feeding each hypothesis to the next task
    as background.  The combined program is the first scenario's background
    plus everything induced along the way."""
    started = time.monotonic()
    induced: list[Clause] = []
    results: list[tuple[str, LearnResult]] = []
    for spec in specs:
        grown = replace(spec, bk=spec.bk + tuple(induced))
        if trace:
            trace(f"task {spec.name}")
        res = learn(grown, trace=trace)
        results.append((spec.name, res))
        if not res.ok:
            break
        induced.extend(res.hypothesis.clauses)
    elapsed = time.monotonic() - started
    combined: Optional[Program] = None
    if specs and results and all(r.ok for _, r in results) \
            and len(results) == len(specs):
        combined = Program(tuple(specs[0].bk) + tuple(induced))
    return SeqResult(tuple(results), tuple(induced), combined, elapsed)
