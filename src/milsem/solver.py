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
and `solve_all` use `Resolver.program_source`, whose tail is always
None; the learner's tail instantiates metarules.  While the resolver
only probes a tail for a depth cut, ``probing`` is set: the body it
yields then is never entered.

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
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

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
    max_solutions: Optional[int] = None


@dataclass(slots=True)
class Outcome:
    verdict: Verdict
    answer: Optional[Subst]  # query-variable bindings for the first proof
    steps: int
    depth_used: Optional[int]

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED


@dataclass(slots=True)
class Answers:
    answers: list[Subst]
    complete: bool  # False when some branch hit the depth bound
    steps: int


class Resolver:
    """Iterative SLD resolution with a step count and the taint flag.

    ``steps`` counts clause applications and builtin calls; ``tainted``
    records whether the budget cut some branch whose goal could have
    continued.  Both accumulate over every `run` on the same resolver.
    """

    __slots__ = ("builtins", "store", "counter", "steps", "tainted",
                 "probing")

    def __init__(self, builtins: Optional[BuiltinTable],
                 counter: FreshVars) -> None:
        self.builtins = builtins or BuiltinTable()
        self.store = Store()
        self.counter = counter
        self.steps = 0
        self.tainted = False
        self.probing = False

    def program_source(self, program: Program) -> ClauseSource:
        """The program's bucket for each goal's first argument, no tail."""
        walk, bucket = self.store.walk, program.bucket

        def clauses(goal: Compound) -> tuple[Bucket, None]:
            key = index_key(walk(goal.args[0])) if goal.args else None
            return bucket(goal.functor, key), None

        return clauses

    def run(self, goals: Sequence[Compound], budget: int,
            source: ClauseSource) -> Iterator[int]:
        """Prove the conjunction; yields the unspent budget once per proof,
        with the answer bindings in the store until resumed.  Once
        exhausted, it leaves the store as it found it."""
        store, builtins, counter = self.store, self.builtins, self.counter
        entry = store.mark()
        cont = None  # goals still to prove, as nested (goal, rest) pairs
        for g in reversed(goals):
            cont = (g, cont)
        # choice points: (goal, bucket, next bucket index, tail, rest,
        # budget for the body, trail mark)
        stack: list[tuple] = []
        while True:
            if cont is None:
                yield budget
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
            self.steps += 1
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


def _start(program: Program, query: Union[Compound, Sequence[Compound]],
           config: SolveConfig, builtins: Optional[BuiltinTable],
           ) -> tuple[Resolver, Iterator[int], list[int]]:
    _check_disjoint(program, builtins)
    goals = [query] if isinstance(query, Compound) else list(query)
    qvars = list(dict.fromkeys(v for g in goals for v in term_vars(g)))
    # renamed clause variables must not collide with negative query ids
    resolver = Resolver(builtins, FreshVars(start=-min([0, *qvars])))
    proofs = resolver.run(goals, config.depth_limit,
                          resolver.program_source(program))
    return resolver, proofs, qvars


def solve(program: Program, query: Union[Compound, Sequence[Compound]],
          config: SolveConfig = SolveConfig(),
          builtins: Optional[BuiltinTable] = None) -> Outcome:
    """Run a query to its first proof."""
    resolver, proofs, qvars = _start(program, query, config, builtins)
    for remaining in proofs:
        answer = restrict(resolver.store.bindings, qvars)
        return Outcome(Verdict.PROVED, answer, resolver.steps,
                       config.depth_limit - remaining)
    verdict = (Verdict.DEPTH_EXCEEDED if resolver.tainted
               else Verdict.FINITE_FAILURE)
    return Outcome(verdict, None, resolver.steps, None)


def solve_all(program: Program, query: Union[Compound, Sequence[Compound]],
              config: SolveConfig = SolveConfig(),
              builtins: Optional[BuiltinTable] = None) -> Answers:
    """Collect every answer reachable within the depth budget."""
    resolver, proofs, qvars = _start(program, query, config, builtins)
    answers: list[Subst] = []
    for _remaining in proofs:
        answers.append(restrict(resolver.store.bindings, qvars))
        if (config.max_solutions is not None
                and len(answers) >= config.max_solutions):
            return Answers(answers, complete=False, steps=resolver.steps)
    return Answers(answers, complete=not resolver.tainted,
                   steps=resolver.steps)
