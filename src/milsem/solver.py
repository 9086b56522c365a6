"""Depth-bounded SLD resolution over definite programs.

Goals are selected left to right and clauses tried in program order with
chronological backtracking.  The depth budget counts clause applications
plus builtin calls along a single derivation branch; it threads through
conjunctions, so it bounds the size of any one derivation rather than the
nesting of calls.  Three verdicts come out of a query:

    PROVED           a derivation within budget succeeded
    FINITE_FAILURE   the whole search space was exhausted within budget
    DEPTH_EXCEEDED   no proof found and at least one branch was cut short

The cut-short test is exact for clause-defined predicates: a branch only
taints the result when some clause head actually unifies with the goal the
budget could not pay for.  Builtin calls taint conservatively at budget
zero since their behaviour cannot be probed without running them.

One `Resolver` does all resolution in the package.  It keeps the goal
continuation as a linked list and its choice points on an explicit stack,
so derivation depth costs heap, not Python frames.  Clauses come from a
*clause source*: a function from a goal to a pair ``(bucket, tail)``.
The bucket is a sequence of clauses, the program's first-argument bucket
for the goal (`Program.bucket`); the resolver tries their heads itself,
in order, unifying each unrenamed head with the goal through a fresh
frame (`Store.unify_atoms`) and renaming the body of the one that
unifies through the same frame (`rename_apart`).  The tail is None or an
iterator of further bodies, already renamed, drawn once the bucket is
spent and resumed with the bindings of the previous one undone.  `solve`
uses `Resolver.program_source`, whose tail is always None; the learner's
tail instantiates metarules.  While the resolver only probes a tail for
a depth cut, ``probing`` is set: the body it yields then is never
entered.

A choice point is a record, a tuple: the goal, its bucket, the index of
the next bucket clause, the tail, the continuation after the goal, the
budget left for the body, and the trail mark to undo to before the next
alternative.  Taking an alternative costs one step, whichever it is.  A
choice point is popped as soon as the alternative taken is its last, that
is when no bucket clause is left and there is no tail, so a derivation in
which the first argument picks one clause at each step holds no choice
point at all.

Builtins are deterministic.  One receives the store plus the unresolved
goal arguments, makes its bindings through the store, so backtracking
undoes them, and returns a bool: True when it succeeded, with its
bindings made, and False when it failed.  It leaves no choice point.  A
builtin whose arguments are too uninstantiated to ever make sense should
raise BuiltinError; that aborts the whole query, it is a program bug
rather than a failed branch.

`solve` is the one query entry point.  It collects answers in proof order
up to ``SolveConfig.max_solutions``: the default 1 stops at the first
proof, None runs the search to exhaustion.  An exhaustive search answers
ground questions too, by the lifting lemma: a proof of ``q(t, w)`` within
the budget is an instance of a proof of ``q(t, R)`` of the same length,
so when the search is complete and every answer binds ``R`` to a ground
term, ``q(t, w)`` is provable exactly when ``w`` is one of them.  So an
exhaustive search stops, incomplete, at the first answer that still
holds a variable (a cyclic binding, which `restrict` leaves as a
variable, among them): such an answer stands for infinitely many ground
ones and answers no ground question.  An unbound ``R`` prunes no branch
that a ground ``w`` would, so such a search can also be far larger than
the ground ones it stands for; ``SolveConfig.step_ratio`` stops it once
it has taken that many times the steps its first proof took.

`objectlang.conformance_check` decides both distractors of a term from
the one search that finds its value, and falls back to one ground `solve`
per distractor when that search is incomplete or raises BuiltinError,
which a ground query may not.
"""

from __future__ import annotations

import enum
import inspect
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .terms import (
    Clause,
    Compound,
    FreshVars,
    Program,
    Store,
    Subst,
    Symbol,
    Term,
    index_key,
    rename_apart,
    restrict,
    term_vars,
)


class Verdict(enum.Enum):
    PROVED = "proved"
    FINITE_FAILURE = "finite_failure"
    DEPTH_EXCEEDED = "depth_exceeded"

    def __str__(self) -> str:
        return self.value


class BuiltinError(Exception):
    """A builtin was called with arguments it can never handle, or a
    program defines a builtin predicate with clauses."""


BuiltinFn = Callable[[Store, tuple[Term, ...]], bool]
Bucket = Sequence[Clause]
Tail = Optional[Iterator[Sequence[Compound]]]
ClauseSource = Callable[[Compound], tuple[Bucket, Tail]]

DEFAULT_DEPTH = 300  # wherever no depth bound is given, scenarios included


class BuiltinTable:
    def __init__(self) -> None:
        self._fns: dict[Symbol, BuiltinFn] = {}

    def register(self, sym: Symbol, fn: BuiltinFn) -> None:
        if sym in self._fns:
            raise ValueError(f"builtin {sym.name}/{sym.arity} already registered")
        if inspect.isgeneratorfunction(fn):
            # its generator would be truthy and pass as a success unrun
            raise ValueError(f"builtin {sym}: a builtin returns a bool")
        self._fns[sym] = fn

    def get(self, sym: Symbol) -> Optional[BuiltinFn]:
        return self._fns.get(sym)

    def predicates(self) -> frozenset[Symbol]:
        return frozenset(self._fns)


@dataclass(frozen=True, slots=True)
class SolveConfig:
    depth_limit: int = DEFAULT_DEPTH
    # None: every answer within budget, up to the first that is not ground
    max_solutions: Optional[int] = 1
    # stop once the search has taken this many times the steps of its
    # first proof
    step_ratio: Optional[int] = None


@dataclass(slots=True)
class Outcome:
    verdict: Verdict
    answers: list[Subst]  # query-variable bindings, one per proof, in order
    complete: bool  # the search ran out: no more answers, no branch cut
    steps: int

    @property
    def answer(self) -> Optional[Subst]:
        return self.answers[0] if self.answers else None

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED


class Resolver:
    """Iterative SLD resolution with a step count and the taint flag.

    ``steps`` counts clause applications and builtin calls; ``tainted``
    records whether the budget cut some branch whose goal could have
    continued.  Both accumulate over every `run` on the same resolver.
    A `run` takes no clause step once ``steps`` reaches ``max_steps``: it
    ends there, tainted, as if the depth budget had run out.
    """

    __slots__ = ("builtins", "store", "counter", "steps", "tainted",
                 "probing", "max_steps")

    def __init__(self, builtins: Optional[BuiltinTable],
                 counter: FreshVars) -> None:
        self.builtins = builtins or BuiltinTable()
        self.store = Store()
        self.counter = counter
        self.steps = 0
        self.tainted = False
        self.probing = False
        self.max_steps = sys.maxsize

    def program_source(self, program: Program) -> ClauseSource:
        """The program's bucket for each goal's first argument, no tail."""
        walk, bucket = self.store.walk, program.bucket

        def clauses(goal: Compound) -> tuple[Bucket, None]:
            key = index_key(walk(goal.args[0])) if goal.args else None
            return bucket(goal.functor, key), None

        return clauses

    def run(self, goals: Sequence[Compound], budget: int,
            source: ClauseSource) -> Iterator[None]:
        """Prove the conjunction; yields once per proof, with the answer
        bindings in the store until resumed.  Once exhausted, it leaves
        the store as it found it."""
        store, builtins, counter = self.store, self.builtins, self.counter
        entry = store.mark()
        cont = None  # goals still to prove, as nested (goal, rest) pairs
        for g in reversed(goals):
            cont = (g, cont)
        # choice points: (goal, bucket, next bucket index, tail, rest,
        # budget for the body, trail mark)
        stack: list[tuple] = []
        max_steps = self.max_steps
        while True:
            if cont is None:
                yield
                max_steps = self.max_steps  # the caller may have moved it
            else:
                goal, rest = cont
                fn = builtins.get(goal.functor)
                if fn is not None:
                    if budget < 1:
                        self.tainted = True
                    else:
                        self.steps += 1
                        if fn(store, goal.args):
                            cont = rest
                            budget -= 1
                            continue
                elif budget >= 1:
                    bucket, tail = source(goal)
                    stack.append((goal, bucket, 0, tail, rest, budget - 1,
                                  store.mark()))
                elif not self.tainted:
                    self.tainted = self._applies(goal, *source(goal))
            # resume the newest choice point that has an alternative left
            while stack:
                goal, bucket, i, tail, rest, budget, mark = stack[-1]
                store.undo(mark)
                n = len(bucket)
                while i < n:
                    clause = bucket[i]
                    i += 1
                    frame: dict[int, Term] = {}
                    if store.unify_atoms(clause.head, goal, frame, counter):
                        body = rename_apart(clause, frame, counter)
                        break
                    store.undo(mark)
                else:
                    body = None if tail is None else next(tail, None)
                    if body is None:
                        stack.pop()
                        continue
                if i < n or tail is not None:
                    stack[-1] = (goal, bucket, i, tail, rest, budget, mark)
                else:
                    stack.pop()  # that was the last alternative
                break
            else:
                store.undo(entry)
                return
            steps = self.steps
            if steps >= max_steps:
                self.tainted = True
                store.undo(entry)
                return
            self.steps = steps + 1
            cont = rest
            for g in reversed(body):
                cont = (g, cont)

    def _applies(self, goal: Compound, bucket: Bucket, tail: Tail) -> bool:
        """Whether any bucket clause or tail alternative applies to the
        goal, bindings undone.  ``probing`` is set while the tail looks,
        since the body it yields is never entered."""
        store = self.store
        mark = store.mark()
        for clause in bucket:
            found = store.unify_atoms(clause.head, goal, {}, self.counter)
            store.undo(mark)
            if found:
                return True
        if tail is None:
            return False
        self.probing = True
        try:
            found = next(tail, None) is not None
        finally:
            self.probing = False
        tail.close()
        store.undo(mark)
        return found


def _check_disjoint(program: Program, builtins: Optional[BuiltinTable]) -> None:
    if builtins is None:
        return
    clash = builtins.predicates() & frozenset(program.predicates())
    if clash:
        names = ", ".join(f"{s.name}/{s.arity}" for s in sorted(clash, key=str))
        raise BuiltinError(f"predicates defined both by clauses and builtins: {names}")


def solve(program: Program, query: Compound,
          config: SolveConfig = SolveConfig(),
          builtins: Optional[BuiltinTable] = None) -> Outcome:
    """Run a query to its first ``config.max_solutions`` proofs, or, when
    that is None, to exhaustion or its first answer that is not ground,
    stopping early as ``config.step_ratio`` says."""
    _check_disjoint(program, builtins)
    qvars = term_vars(query)
    # renamed clause variables must not collide with negative query ids
    resolver = Resolver(builtins, FreshVars(start=-min([0, *qvars])))
    answers: list[Subst] = []
    limit = config.max_solutions
    for _ in resolver.run([query], config.depth_limit,
                          resolver.program_source(program)):
        if not answers and config.step_ratio is not None:
            resolver.max_steps = config.step_ratio * resolver.steps
        answer = restrict(resolver.store.bindings, qvars)
        answers.append(answer)
        if (len(answers) >= limit if limit is not None
                else (len(answer) < len(qvars)
                      or any(term_vars(t) for t in answer.values()))):
            return Outcome(Verdict.PROVED, answers, False, resolver.steps)
    verdict = (Verdict.PROVED if answers
               else Verdict.DEPTH_EXCEEDED if resolver.tainted
               else Verdict.FINITE_FAILURE)
    return Outcome(verdict, answers, not resolver.tainted, resolver.steps)
