"""Depth-bounded SLD resolution over definite programs.

Goals are selected left to right and clauses tried in program order with
chronological backtracking.  The depth budget counts clause applications
plus builtin calls along a single derivation branch; it threads through
conjunctions, so it bounds the size of any one derivation rather than the
nesting of calls.  Three verdicts come out of a query:

    PROVED           a derivation within budget succeeded
    FINITE_FAILURE   the whole search space was exhausted within budget
    DEPTH_EXCEEDED   no proof found and at least one branch was cut short

The cut-short test is exact for clause-defined predicates, one goal deep:
a branch only taints the result when some clause that `Program.select`
gives unifies its head with the goal the budget could not pay for.  Since
`select` leaves out a clause whose first body goal would select no clause,
such a clause taints nothing either.  Builtin calls taint conservatively
at budget zero since their behaviour cannot be probed without running
them.

One `Resolver` does all resolution in the package.  It keeps the goal
continuation as a linked list and its choice points on an explicit stack,
so derivation depth costs heap, not Python frames.  Clauses come from a
*clause source*: a function from a goal to a pair ``(bucket, tail)``.
The bucket is a sequence of clauses, the program's first-argument bucket
for the goal; the resolver tries their heads itself, in order, unifying
each unrenamed head with the goal through a fresh frame
(`Store.unify_atoms`) and renaming the body of the one that unifies
through the same frame (`rename_apart`).  The tail is None or an
iterator of further bodies, already renamed, drawn once the bucket is
spent and resumed with the bindings of the previous one undone.  `solve`
uses `Resolver.program_source`, whose tail is always None and whose
bucket is `Program.select`: the goal's first argument dereferenced in
place and looked up once in its predicate's bucket table, and where
that bucket is split one level down, the first argument's own first
argument dereferenced and looked up in the bucket's sub-table.  A clause
whose first body goal would then select nothing by the argument looked
up is not in the bucket, so it costs no step.  The learner's tail
instantiates metarules.  While the resolver only probes a tail for a
depth cut, ``probing`` is set: the body it yields then is never entered.

A choice point is a record, a tuple: the goal, its bucket, the index of
the next bucket clause, the tail, the continuation after the goal, the
budget left for the body, and the trail mark to undo to before the next
alternative.  Taking an alternative costs one step, whichever it is.  A
goal whose bucket holds at most one clause and that has no tail pushes
no record: its one clause, if any, is tried at once, and when its head
does not unify the search backtracks as from an exhausted choice point.
Any other choice point is popped as soon as the alternative taken is its
last, that is when no bucket clause is left and there is no tail, so a
derivation in which the first argument picks one clause at each step
holds no choice point at all.  However a run ends, exhausted, stopped at
``max_steps``, closed by its caller or raised out of, it leaves the
store's bindings and trail as it found them.

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

`solve` also runs with the *loop check* (Bol, Apt & Klop, TCS 1991),
which the learner leaves off: there a clause adopted between a goal and
its repeat changes the program.  The check watches one goal: the one
selected once the run has taken ``FIRST_WATCH`` steps, then twice that,
and so on (Brent's doubling); the next one selected once the watched
goal's subtree is done; and the goal of a choice point older than the
watched goal, when backtracking resumes it.  A goal selected with the
watched goal's own continuation object, whose walked form is the watched
goal's as it was then, starts from the same resolvent: whatever it
derives, the watched goal derives along a shorter branch.  It is cut as
the budget would cut it, tainting the run, so verdicts, ``complete`` and
the answer set of an exhaustive search stay the same at every budget;
``steps`` counts the steps up to the cut, and a search that stops at its
first answer (or first answer that is not ground) may stop at another.
The comparisons with one watched goal give up after ``MAX_PAIRS``
compound pairs and bindings in all, so a loop through goals that large,
or below a conjunction (``p(X) :- p(X), q(X)``), spends the budget.

`objectlang.conformance_check` decides both distractors of a term from
the one search that finds its value, and falls back to one ground `solve`
per distractor when that search is incomplete or raises BuiltinError,
which a ground query may not.
"""

from __future__ import annotations

import enum
import sys
from functools import partial
from types import FunctionType, MethodType
from typing import Callable, Iterator, KeysView, NamedTuple, Optional, Sequence

from .terms import (
    Bucket,
    Compound,
    FreshVars,
    Program,
    Store,
    Subst,
    Symbol,
    Term,
    Var,
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
Tail = Optional[Iterator[Sequence[Compound]]]
ClauseSource = Callable[[Compound], tuple[Bucket, Tail]]

DEFAULT_DEPTH = 300  # wherever no depth bound is given, scenarios included
FIRST_WATCH = 64  # steps before the loop check watches its first goal
MAX_PAIRS = 256  # compound pairs and bindings compared with one watch
NO_WATCH = object()  # the watched rest while nothing is watched
CO_GENERATOR = 0x20  # the code flag of a generator function


def _is_generator_function(fn: Callable) -> bool:
    """Whether ``fn``, seen through bound methods and `functools.partial`,
    is a generator function."""
    while isinstance(fn, (partial, MethodType)):
        fn = fn.func if isinstance(fn, partial) else fn.__func__
    return (isinstance(fn, FunctionType)
            and bool(fn.__code__.co_flags & CO_GENERATOR))


class BuiltinTable:
    def __init__(self) -> None:
        self._fns: dict[Symbol, BuiltinFn] = {}
        # the builtin for a predicate symbol, or None
        self.get: Callable[[Symbol], Optional[BuiltinFn]] = self._fns.get

    def register(self, sym: Symbol, fn: BuiltinFn) -> None:
        if sym in self._fns:
            raise ValueError(f"builtin {sym.name}/{sym.arity} already registered")
        if _is_generator_function(fn):
            # its generator would be truthy and pass as a success unrun
            raise ValueError(f"builtin {sym}: a builtin returns a bool")
        self._fns[sym] = fn

    def predicates(self) -> KeysView[Symbol]:
        return self._fns.keys()


class SolveConfig(NamedTuple):
    depth_limit: int = DEFAULT_DEPTH
    # None: every answer within budget, up to the first that is not ground
    max_solutions: Optional[int] = 1
    # stop once the search has taken this many times the steps of its
    # first proof
    step_ratio: Optional[int] = None


class Outcome(NamedTuple):
    verdict: Verdict
    answers: list[Subst]  # query-variable bindings, one per proof, in order
    # the search ran out: no more answers, no branch cut by the budget or
    # the loop check
    complete: bool
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
    continued, or the loop check cut a repeated resolvent.  Both
    accumulate over every `run` on the same resolver.
    A `run` takes no clause step once ``steps`` reaches ``max_steps``: it
    ends there, tainted, as if the depth budget had run out, and sets
    ``stopped``, as a search whose last step is the last allowed does not.
    `solve` sets ``max_steps`` by ``step_ratio``; the learner, from its
    ``max_steps`` option, once for the whole search.
    """

    __slots__ = ("builtins", "store", "counter", "steps", "tainted",
                 "stopped", "probing", "max_steps", "pairs")

    def __init__(self, builtins: Optional[BuiltinTable],
                 counter: FreshVars) -> None:
        self.builtins = builtins or BuiltinTable()
        self.store = Store()
        self.counter = counter
        self.steps = 0
        self.tainted = False
        self.stopped = False
        self.probing = False
        self.max_steps = sys.maxsize
        self.pairs = 0  # what comparisons with the watched goal may still walk

    def program_source(self, program: Program) -> ClauseSource:
        """The program's bucket for each goal's first argument, no tail."""
        select, bindings = program.select, self.store.bindings

        def clauses(goal: Compound) -> tuple[Bucket, None]:
            return select(goal, bindings), None

        return clauses

    def run(self, goals: Sequence[Compound], budget: int,
            source: ClauseSource, loop_check: bool = False) -> Iterator[None]:
        """Prove the conjunction; yields once per proof, with the answer
        bindings in the store until resumed.  Once it ends, exhausted,
        stopped or closed, it leaves the store as it found it.  With
        ``loop_check``, a goal that repeats the watched resolvent is cut."""
        store, counter = self.store, self.counter
        bindings, trail = store.bindings, store.trail
        builtin = self.builtins.get
        entry = len(trail)
        cont = None  # goals still to prove, as nested (goal, rest) pairs
        for g in reversed(goals):
            cont = (g, cont)
        # choice points: (goal, bucket, next bucket index, tail, rest,
        # budget for the body, trail mark)
        stack: list[tuple] = []
        max_steps = self.max_steps
        # the loop check's watched goal, its rest (NO_WATCH while nothing
        # is watched), the stack height and the trail mark when selected
        wgoal, wrest, wheight, wmark = None, NO_WATCH, -1, 0
        take = False  # watch the next goal selected
        watch_at = self.steps + FIRST_WATCH if loop_check else sys.maxsize
        try:
            while True:
                body = None  # the renamed body of the clause to enter
                if cont is None:
                    yield
                    max_steps = self.max_steps  # the caller may have moved it
                else:
                    goal, rest = cont
                    if (rest is wrest and self.pairs >= 0
                            and self._repeats(goal, wgoal, wmark)):
                        # the watched resolvent again: cut the loop here,
                        # as the budget would once spent on it
                        budget = 0
                    elif take or cont is wrest:
                        # a threshold passed, or the watched goal's
                        # subtree is done: watch this goal instead
                        take = False
                        wgoal, wrest, wheight, wmark = (
                            goal, rest, len(stack), len(trail))
                        self.pairs = MAX_PAIRS
                    fn = builtin(goal.functor)
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
                        if tail is not None or len(bucket) > 1:
                            stack.append((goal, bucket, 0, tail, rest,
                                          budget - 1, len(trail)))
                        elif bucket:
                            # a lone clause: nothing to come back to
                            clause = bucket[0]
                            frame: dict[int, Term] = {}
                            if store.unify_atoms(clause.head, goal, frame,
                                                 counter):
                                body = rename_apart(clause, frame, counter)
                                budget -= 1
                    elif not self.tainted:
                        self.tainted = self._applies(goal, *source(goal))
                # resume the newest choice point with an alternative left
                while body is None:
                    if not stack:
                        return
                    goal, bucket, i, tail, rest, budget, mark = stack[-1]
                    if len(stack) <= wheight:
                        # backtracking past the watched goal: watch the
                        # goal resumed instead, as it was when selected
                        wgoal, wrest, wheight, wmark = (
                            goal, rest, len(stack) - 1, mark)
                        self.pairs = MAX_PAIRS
                    while len(trail) > mark:
                        del bindings[trail.pop()]
                    n = len(bucket)
                    while i < n:
                        clause = bucket[i]
                        i += 1
                        frame = {}
                        if store.unify_atoms(clause.head, goal, frame,
                                             counter):
                            body = rename_apart(clause, frame, counter)
                            break
                        while len(trail) > mark:
                            del bindings[trail.pop()]
                    else:
                        if tail is not None:
                            body = next(tail, None)
                        if body is None:
                            stack.pop()
                            continue
                    if i < n or tail is not None:
                        stack[-1] = (goal, bucket, i, tail, rest, budget, mark)
                    else:
                        stack.pop()  # that was the last alternative
                steps = self.steps
                if steps >= max_steps:
                    self.tainted = self.stopped = True
                    return
                self.steps = steps = steps + 1
                if steps >= watch_at:
                    take = True
                    watch_at *= 2
                cont = rest
                for g in reversed(body):
                    cont = (g, cont)
        finally:
            store.undo(entry)

    def _repeats(self, goal: Compound, watched: Compound, mark: int) -> bool:
        """Whether the goal's walked form is the watched goal's as it was
        when selected, at trail mark ``mark``: equal now, and reaching no
        variable bound since.  Each binding since and each compound pair
        walked spends one of ``pairs``; once they are spent, False."""
        if goal.functor is not watched.functor:
            return False
        store = self.store
        walk, bindings, trail = store.walk, store.bindings, store.trail
        n = self.pairs - (len(trail) - mark)
        since = set(trail[mark:]) if n >= 0 else ()
        todo = list(zip(goal.args, watched.args))
        same = False
        while todo and n >= 0:
            x, y = todo.pop()
            x = walk(x)
            while type(y) is Var and y.id not in since:
                nxt = bindings.get(y.id)
                if nxt is None:
                    break
                y = nxt
            if x is y and not since:
                continue
            kind = type(x)
            if kind is not type(y):
                break
            if kind is Compound:
                n -= 1
                if x.functor is not y.functor:
                    break
                todo.extend(zip(x.args, y.args))
            elif x.id != y.id if kind is Var else x.value != y.value:
                break
        else:
            same = n >= 0
        self.pairs = n
        return same

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
    clash = builtins.predicates() & program.predicates()
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
                          resolver.program_source(program), loop_check=True):
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
