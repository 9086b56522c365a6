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
*clause source*: a function from a goal to a generator that, for each
clause, unifies the unrenamed head with the goal through a fresh frame
(`Store.unify_atoms`), and when that succeeds yields the body renamed
through the same frame (`rename_apart`), undoing the bindings when
resumed.  `Resolver.program_source` makes one from a first-argument index
lookup: `solve` and `solve_all` give it the program's own, and the
learner one that lists its adopted clauses after the background's, ahead
of its metarule instantiations.  While the resolver only probes a source
for a depth cut, ``probing`` is set: the body yielded then is never
entered.

Builtins receive the store plus the unresolved goal arguments and yield
once per solution, making any bindings through the store so backtracking
undoes them.  A builtin whose arguments are too uninstantiated to ever
make sense should raise BuiltinError; that aborts the whole query, it is
a program bug rather than a failed branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .terms import (
    Atom,
    FreshVars,
    IndexEntry,
    Program,
    Store,
    Subst,
    Symbol,
    Term,
    _index_key,
    atom_vars,
    rename_apart,
    restrict,
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


BuiltinFn = Callable[[Store, tuple[Term, ...]], Iterator[None]]
ClauseSource = Callable[[Atom], Iterator[Sequence[Atom]]]
ClauseIndex = Callable[[Symbol], Sequence[IndexEntry]]

DEFAULT_DEPTH = 300  # wherever no depth bound is given, scenarios included


class BuiltinTable:
    def __init__(self) -> None:
        self._fns: dict[Symbol, BuiltinFn] = {}

    def register(self, sym: Symbol, fn: BuiltinFn) -> None:
        if sym in self._fns:
            raise ValueError(f"builtin {sym.name}/{sym.arity} already registered")
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


def _builtin_alternatives(fn: BuiltinFn, store: Store,
                          args: tuple[Term, ...]) -> Iterator[tuple]:
    mark = store.mark()
    for _ in fn(store, args):
        yield ()
        # roll back this solution before asking for the next
        store.undo(mark)
    store.undo(mark)


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

    def program_source(self, clauses_for: ClauseIndex) -> ClauseSource:
        """The indexed clauses for a goal, in index order, skipping those
        whose first argument cannot match the goal's."""
        store, counter = self.store, self.counter

        def clauses(goal: Atom) -> Iterator[Sequence[Atom]]:
            gkey = _index_key(store.walk(goal.args[0])) if goal.args else None
            for clause, key in clauses_for(goal.pred):
                if gkey is not None and key is not None and key != gkey:
                    continue
                frame: dict[int, Term] = {}
                mark = store.mark()
                if store.unify_atoms(clause.head, goal, frame, counter):
                    yield rename_apart(clause, frame, counter)
                store.undo(mark)

        return clauses

    def run(self, goals: Sequence[Atom], budget: int,
            source: ClauseSource) -> Iterator[int]:
        """Prove the conjunction; yields the unspent budget once per proof,
        with the answer bindings in the store until resumed."""
        store, builtins = self.store, self.builtins
        cont = None  # goals still to prove, as nested (goal, rest) pairs
        for g in reversed(goals):
            cont = (g, cont)
        # choice points: (alternatives, continuation after the goal,
        # budget left for the body, steps charged per alternative)
        stack: list[tuple[Iterator[Sequence[Atom]], object, int, int]] = []
        while True:
            if cont is None:
                yield budget
            else:
                goal, rest = cont
                fn = builtins.get(goal.pred)
                if fn is not None:
                    if budget < 1:
                        self.tainted = True
                    else:
                        self.steps += 1
                        stack.append((_builtin_alternatives(fn, store, goal.args),
                                      rest, budget - 1, 0))
                elif budget >= 1:
                    stack.append((source(goal), rest, budget - 1, 1))
                elif not self.tainted:
                    self.tainted = self._applies(source(goal))
            # resume the newest choice point that has an alternative left
            while stack:
                alternatives, rest, budget, cost = stack[-1]
                body = next(alternatives, None)
                if body is not None:
                    break
                stack.pop()
            else:
                return
            self.steps += cost
            cont = rest
            for g in reversed(body):
                cont = (g, cont)

    def _applies(self, alternatives: Iterator[Sequence[Atom]]) -> bool:
        """Whether the source has any clause for the goal, bindings undone.
        ``probing`` is set while the source looks, since the body it
        yields is never entered."""
        mark = self.store.mark()
        self.probing = True
        try:
            found = next(alternatives, None) is not None
        finally:
            self.probing = False
        alternatives.close()
        self.store.undo(mark)
        return found


def _check_disjoint(program: Program, builtins: Optional[BuiltinTable]) -> None:
    if builtins is None:
        return
    clash = builtins.predicates() & frozenset(program.predicates())
    if clash:
        names = ", ".join(f"{s.name}/{s.arity}" for s in sorted(clash, key=str))
        raise BuiltinError(f"predicates defined both by clauses and builtins: {names}")


def _start(program: Program, query: Union[Atom, Sequence[Atom]],
           config: SolveConfig, builtins: Optional[BuiltinTable],
           ) -> tuple[Resolver, Iterator[int], list[int]]:
    _check_disjoint(program, builtins)
    goals = [query] if isinstance(query, Atom) else list(query)
    qvars = list(dict.fromkeys(v for g in goals for v in atom_vars(g)))
    # renamed clause variables must not collide with negative query ids
    resolver = Resolver(builtins, FreshVars(start=-min([0, *qvars])))
    proofs = resolver.run(goals, config.depth_limit,
                          resolver.program_source(program.clauses_for))
    return resolver, proofs, qvars


def solve(program: Program, query: Union[Atom, Sequence[Atom]],
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


def solve_all(program: Program, query: Union[Atom, Sequence[Atom]],
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
