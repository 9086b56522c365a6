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
None where no metarule may apply: where the hypothesis is full, where the
predicate is neither a head predicate nor invented, and where no
metarule's head fits the goal's predicate and first argument, so such a
goal builds no generator.  An instantiation is tried like any clause: its
unrenamed head is unified with the goal through a frame, and only when
that succeeds is it adopted and its body renamed through the frame.  A
probe for a depth cut adopts nothing.  A predicate metavariable in a rule
body may be bound to a predicate that does not exist yet, which is how
auxiliary ``pred_<n>`` predicates are invented; the branch then has to
define them or die.

Minimality comes from iterative deepening on hypothesis size: `learn` tries
caps 1, 2, ... up to ``max_clauses`` and returns the first hypothesis that
proves every positive and survives the remaining examples, so no strictly
smaller hypothesis can.  Negative and non-terminating examples are checked
with the published solver on background plus candidate: a negative must
finitely fail and a non-terminating example must exhaust the depth budget,
the latter being how a single tagged example can separate evaluation
strategies that agree on all finite behaviour.

One engine serves a whole `learn` or `meta_prove` call and is re-run at
each size cap; its resolver, renamed goals, statistics and cores
carry over from cap to cap.  Each example is proved under a fresh depth
budget.  The engine also keeps the metarule instances it builds, keyed by
metarule, the metavariables the goal pins, the invented predicates and the
tentative name for the next one, so a goal met again, at this cap or a
later one, reuses them, each with its head key and the invented
predicates its adoption needs; the memo is the engine's, so each call
starts empty and frees it on return.
The meta-proof is the solver's resolution with a different clause
source, so budget, step count and taint work as in `solve`: a hypothesis
found here proves its examples under `solve` as well.  The engine's
resolver stops at ``max_steps`` meta-steps over all caps, and `learn`
then reports ``budget``.  When no hypothesis turns up but the depth
bound cut the meta-proof, or cut the check that rejected some candidate
or the check of its core, `learn` reports ``depth_exceeded`` rather than
``exhausted``: a larger bound may yet find one.

Definite programs are monotone: a clause set that proves a goal within the
depth budget still proves it with clauses added, and a search the depth
bound cut is still cut, or ends in a proof, with clauses added.  So three
rejections hold for every superset of the candidate: a negative example
that is proved, a negative whose check the depth bound cut, and a
non-terminating example that is proved.  After any of them `learn`
shrinks the candidate to a *core*, a subset that the same example still
rejects in one of those ways and from which no single clause can be
dropped, and from then on the meta-proof, at this size cap and every
later one, never adopts the metasub that would complete a core: every
hypothesis containing one is rejected anyway, so the first hypothesis
accepted is the one the unpruned search accepts.  The shrink asks the
rejection's question of the same example, narrowed to "is it still
proved?" when the candidate was proved: such a core holds at every depth
bound, not only where the bound cut it.  A positive that is
not proved, or a non-terminating example that fails finitely, may be
mended by adding clauses, so those rejections say nothing about larger
hypotheses and leave no core.

The meta-proof proves the positives one after another, and at each size
cap it keeps a table, in the manner of OLDT resolution (Tamaki & Sato,
1986) but of failures only: each goal index ``i`` and set of adopted
metasubs from which the search of goals ``i`` onwards ended with no
hypothesis and the step budget not spent.  Reaching a pair in the table
again at that cap, it skips the search.  The skip is exact, for four
reasons.  The examples are renamed apart and adopted clauses hold no
store variables, so the search from goal ``i`` on depends only on the cap
and the clause set, which also fixes the invented predicates and the
tentative name.  The order the clauses were adopted in changes only the
order of that exhaustive search, not whether it yields anything.  Cores
only grow, and a new core only prunes.  And within a cap the taint flag
only turns on, so a search that set it left it set, and the skip that
stands for it need not set it again.
"""

from __future__ import annotations

import re
import sys
import time
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

from .metarules import (
    Binding,
    Metarule,
    Metasub,
    apply_metasub,
    enumerate_bindings,
    fits_key,
    match_head,
)
from .objectlang import default_builtins
from .scenario import DEMANDS, Example, ScenarioError, ScenarioSpec
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
    Program,
    Symbol,
    Term,
    index_key,
    rename_apart,
    rename_term,
)
from .textio import print_clause

Trace = Optional[Callable[[str], None]]

_INVENTED = re.compile(r"^pred_(\d+)$")

# a metarule instance as the engine's memo and adopted lists keep it: its
# metasub, its clause, the `index_key` of the clause head's first argument
# (None where the head has none) and the invented predicates it introduces
Instance = tuple[Metasub, Clause, object, tuple[Symbol, ...]]


class Hypothesis(NamedTuple):
    """An ordered set of metarule instantiations and their clauses."""

    metasubs: tuple[Metasub, ...]
    clauses: tuple[Clause, ...]

    @property
    def size(self) -> int:
        return len(self.clauses)

    def program(self, bk: Sequence[Clause]) -> Program:
        return Program(tuple(bk) + self.clauses)


class LearnStats:
    __slots__ = ("size_reached", "meta_steps", "metasubs_tried", "candidates",
                 "pruned", "elapsed")

    def __init__(self) -> None:
        self.size_reached = 0
        self.meta_steps = 0
        self.metasubs_tried = 0
        self.candidates = 0
        self.pruned = 0  # instantiations skipped because they completed a core
        self.elapsed = 0.0


class LearnResult(NamedTuple):
    status: str  # found | exhausted | depth_exceeded | budget
    hypothesis: Optional[Hypothesis]
    stats: LearnStats

    @property
    def ok(self) -> bool:
        return self.status == "found"


def invented_base(clauses: Sequence[Clause]) -> int:
    """Highest ``pred_<n>`` already taken, so invention continues after it.
    A number written with as many digits as `int` converts to a string, or
    more, is a ScenarioError: the names after it could not be written."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    hi = 0
    for c in clauses:
        for a in (c.head, *c.body):
            m = _INVENTED.match(a.functor.name)
            if m:
                digits = m.group(1)
                if limit and len(digits) >= limit:
                    raise ScenarioError(
                        f"predicate pred_{digits[:8]}.../{a.functor.arity} "
                        f"has a {len(digits)}-digit number, too long to "
                        f"invent predicates after")
                hi = max(hi, int(digits))
    return hi


def check_example(program: Program, example: Example, *,
                  depth_limit: int = DEFAULT_DEPTH,
                  builtins: Optional[BuiltinTable] = None,
                  ) -> tuple[bool, Outcome]:
    """Whether the program treats one example as its tag demands: a
    positive must be proved, a negative must fail finitely, and a
    non-terminating example must run out of depth."""
    if builtins is None:
        builtins = default_builtins()
    out = solve(program, example.goal, SolveConfig(depth_limit=depth_limit),
                builtins)
    return out.verdict is DEMANDS[example.tag], out


def _monotone(example: Example, out: Outcome) -> bool:
    """Whether an outcome rejects every superset of the program too: a
    negative that does not fail finitely, or a non-terminating example
    that is proved."""
    return (out.verdict is not Verdict.FINITE_FAILURE if example.tag == "neg"
            else example.tag == "nonterm" and out.verdict is Verdict.PROVED)


def _core(bk: Sequence[Clause], candidate: Hypothesis, example: Example,
          out: Outcome, depth_limit: int, builtins: BuiltinTable,
          ) -> tuple[list[tuple[Metasub, Clause]], Outcome]:
    """A subset of a candidate that an example still rejects monotonely,
    and the outcome that rejects it, found by dropping each clause in turn
    for good when the rest still get the candidate's verdict or a proof:
    for a monotone rejection, a rejection again.  A candidate rejected by
    a proof keeps only subsets that are still proved, so its core holds at
    every depth bound rather than being one the bound merely cut.  By
    monotonicity no single clause of the result can be dropped: a subset
    of a set that escaped the rejection escapes it too."""
    keep = (out.verdict, Verdict.PROVED)
    core = list(zip(candidate.metasubs, candidate.clauses))
    for pair in list(core):
        rest = [p for p in core if p is not pair]
        program = Program(tuple(bk) + tuple(c for _, c in rest))
        _, rest_out = check_example(program, example, depth_limit=depth_limit,
                                    builtins=builtins)
        if rest_out.verdict in keep:
            core, out = rest, rest_out
    return core, out


# ============================================================
# The engine
# ============================================================


def _instance(m: Metarule, binding: dict[str, Binding],
              tentative: Optional[str]) -> Instance:
    """The instance of a metarule under a full binding, given in
    declaration order, with the invented predicates it introduces: those
    named ``tentative``."""
    clause = apply_metasub(m, binding)
    new_preds = tuple(dict.fromkeys(
        b for b in binding.values()
        if isinstance(b, Symbol) and b.name == tentative))
    key = index_key(clause.head.args[0]) if clause.head.args else None
    return Metasub(m.name, tuple(binding.items())), clause, key, new_preds


class _Engine:
    """The meta-proof of one `learn` or `meta_prove` call, built once and
    re-run at each size cap.

    Its clause source's tail is None where no metarule's head fits the
    goal's predicate and first argument, so such a goal builds no
    generator; the instances in its memo carry their adoption data, and
    its adopted lists hold those same records."""

    __slots__ = ("spec", "resolver", "store", "background",
                 "pools", "head_preds", "goals", "trace",
                 "size_cap", "hypothesis", "adopted", "invented",
                 "invent_from", "cores", "depth_rejected", "stats",
                 "by_key", "memo", "failed")

    def __init__(self, spec: ScenarioSpec, goals: Sequence[Compound],
                 trace: Trace = None) -> None:
        self.spec = spec
        self.resolver = Resolver(default_builtins(), FreshVars())
        self.resolver.max_steps = spec.options.max_steps
        self.store = self.resolver.store
        self.pools = spec.pools()
        self.head_preds = frozenset(self.pools.head_preds)
        # a hypothesis gives clauses to the head predicates
        self.background = Program(spec.bk, self.head_preds).select
        # examples must not share variables with each other or the program
        self.goals = [rename_term(g, {}, self.resolver.counter) for g in goals]
        self.trace = trace
        self.size_cap = 0
        self.hypothesis: dict[Metasub, Clause] = {}
        # the adopted instances, by head predicate
        self.adopted: dict[Symbol, list[Instance]] = {}
        self.invented: dict[Symbol, None] = {}
        try:
            self.invent_from = invented_base(spec.bk)
        except ScenarioError as exc:
            raise ScenarioError(f"scenario {spec.name}: {exc}") from None
        # metasub -> the rest of each core holding it
        self.cores: dict[Metasub, list[frozenset[Metasub]]] = {}
        # whether a candidate was rejected by a check the depth bound cut
        self.depth_rejected = False
        # meta_steps is the resolver's step count, read at the end
        self.stats = LearnStats()
        # (goal predicate, index key of its first argument) -> the
        # metarules, with their spec positions, whose head can match its
        # goals; filled as keys are met
        self.by_key: dict[tuple[Symbol, object],
                          tuple[tuple[int, Metarule], ...]] = {}
        # (metarule position, pins, invented, tentative) -> the instances
        # `enumerate_bindings` gives for them
        self.memo: dict[tuple, list[Instance]] = {}
        # (goal index, adopted metasubs) of each search from that goal on
        # that found nothing at this size cap
        self.failed: set[tuple[int, frozenset[Metasub]]] = set()

    # ---- the clause source ----

    def clauses(self, goal: Compound) -> tuple[Sequence[Clause], Tail]:
        """Alternatives for a goal: the bucket of background and adopted
        clauses, and the tail of fresh metarule instantiations, each
        adopted into the hypothesis while its body is being proved."""
        pred = goal.functor
        bucket = self.background(goal, self.store.bindings)
        adopted = self.adopted.get(pred)
        may_grow = (len(self.hypothesis) < self.size_cap
                    and (pred in self.head_preds or pred in self.invented))
        if not (adopted or may_grow):
            return bucket, None
        key = index_key(self.store.walk(goal.args[0])) if goal.args else None
        if adopted:
            bucket = bucket + tuple([c for _, c, k, _ in adopted
                                     if k is None or key is None or k == key])
        rules = self._metarules(pred, key) if may_grow else ()
        return bucket, self._instances(goal, rules) if rules else None

    def _metarules(self, pred: Symbol,
                   key: object) -> tuple[tuple[int, Metarule], ...]:
        """The metarules, in spec order and with their positions, that
        `fits_key` lays over a goal of ``pred`` whose first argument has
        index key ``key``: the only ones `match_head` can apply."""
        rules = self.by_key.get((pred, key))
        if rules is None:
            rules = self.by_key[pred, key] = tuple(
                (i, m) for i, m in enumerate(self.spec.metarules)
                if fits_key(m, pred, key))
        return rules

    def _instances(self, goal: Compound, rules: Sequence[tuple[int, Metarule]],
                   ) -> Iterator[Sequence[Compound]]:
        """The renamed bodies of the instances of ``rules`` whose heads
        unify with the goal, each adopted here, into the hypothesis, its
        predicate's adopted list and the invented predicates, while its
        body is being proved.

        The pools are fixed for the engine, so a metarule's instances are
        fixed by the metavariables `match_head` pins, the invented
        predicates and the tentative name: they are built once per such
        key and kept in the engine's memo.  The memo is per engine because
        another call has other pools, and because a module-level one would
        hold memory after the call and make a repeated call do less work
        than the first.  Whether an instance is already adopted, or would
        complete a core, depends on the hypothesis and is asked
        at each use."""
        resolver, store, stats = self.resolver, self.store, self.stats
        counter, cores = resolver.counter, self.cores
        invented = tuple(self.invented)
        tentative = (f"pred_{self.invent_from + len(invented) + 1}"
                     if len(self.hypothesis) + 1 < self.size_cap else None)
        for i, m in rules:
            restr = match_head(m, goal, store)
            if restr is None:
                continue
            key = (i, tuple(restr.items()), invented, tentative)
            instances = self.memo.get(key)
            if instances is None:
                instances = self.memo[key] = [
                    _instance(m, binding, tentative)
                    for binding in enumerate_bindings(m, restr, self.pools,
                                                      invented, tentative)]
            for inst in instances:
                msub, clause, _, new_preds = inst
                if msub in self.hypothesis:
                    continue  # identical clause already adopted, reuse covers it
                if msub in cores and any(rest <= self.hypothesis.keys()
                                         for rest in cores[msub]):
                    stats.pruned += 1  # would complete a core
                    continue
                frame: dict[int, Term] = {}
                mark = store.mark()
                if store.unify_atoms(clause.head, goal, frame, counter):
                    if resolver.probing:
                        # a depth probe asks only whether an instance
                        # applies and never enters the body, so nothing is
                        # adopted, counted or traced
                        yield ()
                    else:
                        stats.metasubs_tried += 1
                        self.hypothesis[msub] = clause
                        adopted = self.adopted.setdefault(goal.functor, [])
                        adopted.append(inst)
                        if new_preds:
                            self.invented.update(dict.fromkeys(new_preds))
                        if self.trace:
                            self.trace("  + " + print_clause(clause))
                        try:
                            yield rename_apart(clause, frame, counter)
                            if self.trace:
                                self.trace("  - backtrack")
                        finally:
                            # also when the search is abandoned inside the body
                            self.hypothesis.popitem()
                            adopted.pop()
                            for p in new_preds:
                                del self.invented[p]
                store.undo(mark)

    # ---- the search ----

    def hypotheses(self, caps: Iterable[int]) -> Iterator[Hypothesis]:
        """The hypothesis in force at each complete proof of the goals, cap
        by cap, in search order, until the step budget is spent.  Each goal
        is proved under a fresh depth budget, backtracking across them."""
        # each cap probes for a depth cut afresh; after the last cap the
        # resolver's flag says whether the bound cut any of them
        cut = False
        for n in caps:
            self.size_cap = self.stats.size_reached = n
            if self.trace:
                self.trace(f"size cap {n}")
            self.resolver.tainted = False
            self.failed.clear()
            yield from self._prove(0)
            cut = cut or self.resolver.tainted
            if self.resolver.stopped:
                break  # so size_reached is the cap the budget ran out at
        self.resolver.tainted = cut

    def _prove(self, i: int) -> Iterator[Hypothesis]:
        """The hypotheses that prove goals ``i`` onwards.  A method, not a
        closure: a closure that calls itself is a reference cycle, and it
        would keep the engine alive after `learn` returns."""
        if i == len(self.goals):
            yield Hypothesis(tuple(self.hypothesis),
                             tuple(self.hypothesis.values()))
            return
        resolver = self.resolver
        key = (i, frozenset(self.hypothesis))
        if key in self.failed:
            if self.trace:
                self.trace(f"  no proof from positive {i} on, as before")
            return
        found = False
        for _ in resolver.run([self.goals[i]],
                              self.spec.options.depth_limit, self.clauses):
            for h in self._prove(i + 1):
                found = True
                yield h
            if resolver.stopped:
                return  # the budget is spent: resume no choice point
        if not (found or resolver.stopped):
            self.failed.add(key)

    def accepts(self, candidate: Hypothesis) -> bool:
        """Whether a candidate treats every example as its tag demands.  A
        rejection that every superset shares leaves its core behind, when
        new; one cut by the depth bound marks the search as cut."""
        spec, opts = self.spec, self.spec.options
        builtins = self.resolver.builtins
        self.stats.candidates += 1
        program = candidate.program(spec.bk)
        for i, e in enumerate(spec.examples):
            ok, out = check_example(program, e, depth_limit=opts.depth_limit,
                                    builtins=builtins)
            if not ok:
                break
        else:
            return True
        if _monotone(e, out):
            core, out = _core(spec.bk, candidate, e, out, opts.depth_limit,
                              builtins)
            key = frozenset(ms for ms, _ in core)
            if key and not any(key - {ms} in self.cores.get(ms, ())
                               for ms in key):
                for ms in key:
                    self.cores.setdefault(ms, []).append(key - {ms})
                if self.trace:
                    self.trace(f"  core from example {i} ({e.tag}): "
                               + " ".join(print_clause(c) for _, c in core))
        # the outcome is the core's, if one was shrunk: a depth cut there
        # prunes what a larger bound may accept
        if out.verdict is Verdict.DEPTH_EXCEEDED:
            self.depth_rejected = True
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
    in search order, within the scenario's step budget."""
    engine = _Engine(spec, [goals] if isinstance(goals, Compound) else goals)
    yield from engine.hypotheses(
        [spec.options.max_clauses if size_cap is None else size_cap])


def learn(spec: ScenarioSpec, *, trace: Trace = None) -> LearnResult:
    """Search for the smallest hypothesis consistent with every example,
    within the limits of ``spec.options``, the step budget among them.

    Deepens on hypothesis size, so the result is minimal in clause count.
    A candidate clause set already checked, reached again under a
    different derivation order or at a larger size cap, is skipped, and so
    is every partial hypothesis that contains a core.
    """
    started = time.monotonic()
    engine = _Engine(spec, [e.goal for e in spec.positives()], trace)
    resolver = engine.resolver
    seen: set[frozenset[Metasub]] = set()
    found: Optional[Hypothesis] = None
    for candidate in engine.hypotheses(range(1, spec.options.max_clauses + 1)):
        key = frozenset(candidate.metasubs)
        if key not in seen:
            seen.add(key)
            if engine.accepts(candidate):
                found = candidate
                break
    status = ("found" if found is not None
              else "budget" if resolver.stopped
              else "depth_exceeded" if resolver.tainted or engine.depth_rejected
              else "exhausted")
    if found is not None and trace:
        trace(f"found at size {found.size}")
    stats = engine.stats
    stats.meta_steps = resolver.steps
    stats.elapsed = time.monotonic() - started
    return LearnResult(status, found, stats)


class SeqResult(NamedTuple):
    """Outcome of learning a chain of scenarios, each building on the last."""

    results: tuple[tuple[str, LearnResult], ...]
    induced: tuple[Clause, ...]
    combined: Optional[Program]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.combined is not None


def learn_seq(specs: Sequence[ScenarioSpec], *,
              trace: Trace = None) -> SeqResult:
    """Learn scenarios in order, feeding each hypothesis to the next task
    as background.  The combined program is the first scenario's background
    plus everything induced along the way."""
    started = time.monotonic()
    induced: list[Clause] = []
    results: list[tuple[str, LearnResult]] = []
    for spec in specs:
        grown = spec._replace(bk=spec.bk + tuple(induced))
        if trace:
            trace(f"task {spec.name}")
        res = learn(grown, trace=trace)
        results.append((spec.name, res))
        if not res.ok:
            break
        induced.extend(res.hypothesis.clauses)
    elapsed = time.monotonic() - started
    # the loop stops at the first failure, so the last task is the one
    # that can have failed
    combined = (Program(tuple(specs[0].bk) + tuple(induced))
                if results and results[-1][1].ok else None)
    return SeqResult(tuple(results), tuple(induced), combined, elapsed)
