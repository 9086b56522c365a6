"""First-order terms, substitutions, unification and clause machinery.

Terms are immutable and safe to share: a term is a variable, an integer
literal, or a compound with an interned functor symbol.  A goal or clause
literal is a compound too, its functor the predicate symbol, so one set of
operations serves terms and literals alike.  Variables are identified by
interned integers; parsed variables get non-negative ids with their names
kept in a module-level table, while variables minted by a renaming counter
get negative ids and print as ``_v<n>``.

A clause is renamed apart while its head is unified with a goal, not
before.  `Store.unify_atoms` walks the unrenamed head against the goal and
records in a *frame* the goal subterm each head variable first meets;
only a head compound that meets an unbound goal variable is copied, with
fresh variables.  `rename_apart` then copies the body through that frame.
So a clause try builds no renamed head, and a variable that occurs only
in the head is never bound or trailed.

The search engines bind variables destructively through a `Store` and
undo on backtracking with its trail, instead of copying substitution dicts.
Stored bindings may contain chains (X -> Y, Y -> t); `Store.resolve` and
`restrict` follow them fully.  Unification does not occurs-check, so a
binding like X -> f(X) can exist in a store; deep resolution guards against
looping on such bindings by leaving the offending variable in place, and
`Store.unify` unifies two such terms as rational trees, visiting each pair
of compounds it reaches through a binding once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union


# ============================================================
# Symbols and terms
# ============================================================


@dataclass(frozen=True, slots=True, eq=False)
class Symbol:
    """A functor or predicate name paired with its arity.

    Make symbols with `symbol` only: it interns them, so symbols compare
    and hash by identity.
    """

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


_SYMBOLS: dict[tuple[str, int], Symbol] = {}


def symbol(name: str, arity: int) -> Symbol:
    """The interned symbol: the same name and arity always give the same
    object."""
    key = (name, arity)
    sym = _SYMBOLS.get(key)
    if sym is None:
        sym = _SYMBOLS[key] = Symbol(name, arity)
    return sym


@dataclass(frozen=True, slots=True)
class Var:
    id: int


@dataclass(frozen=True, slots=True)
class Int:
    value: int


@dataclass(frozen=True, slots=True)
class Compound:
    functor: Symbol
    args: tuple["Term", ...]


Term = Union[Var, Int, Compound]


@dataclass(frozen=True, slots=True)
class Clause:
    head: Compound
    body: tuple[Compound, ...]


# ------------------------------------------------------------
# Variable name interning
# ------------------------------------------------------------


class _VarTable:
    """Bidirectional name table for non-negative variable ids."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: dict[int, str] = {}
        self._next = itertools.count()

    def intern(self, name: str) -> int:
        vid = self._ids.get(name)
        if vid is None:
            vid = next(self._next)
            self._ids[name] = vid
            self._names[vid] = name
        return vid

    def name_of(self, vid: int) -> str:
        if vid < 0:
            return f"_v{-vid}"
        return self._names.get(vid, f"_V{vid}")


_VARS = _VarTable()


def var(name: str) -> Var:
    """The named variable; the same name always maps to the same id."""
    return Var(_VARS.intern(name))


def var_name(v: Var) -> str:
    return _VARS.name_of(v.id)


class FreshVars:
    """Counter handing out renaming variables, negative ids, per engine.

    Two renamings drawn from the same counter never share a variable.
    Counters are not shared between independent solver or learner runs.
    """

    __slots__ = ("_n",)

    def __init__(self, start: int = 0) -> None:
        self._n = start

    def next_var(self) -> Var:
        self._n += 1
        return Var(-self._n)


# ------------------------------------------------------------
# Construction helpers
# ------------------------------------------------------------


def mk(name: str, *args: Term) -> Compound:
    return Compound(symbol(name, len(args)), tuple(args))


def const(name: str) -> Compound:
    return Compound(symbol(name, 0), ())


def term_vars(t: Term) -> list[int]:
    """Variable ids of a term, in first-occurrence order, without repeats."""
    out: list[int] = []
    seen: set[int] = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            if x.id not in seen:
                seen.add(x.id)
                out.append(x.id)
        elif isinstance(x, Compound):
            stack.extend(reversed(x.args))
    return out


# ============================================================
# Destructive bindings with a trail
# ============================================================


class Store:
    """Mutable variable bindings with an undo trail.

    The search engines bind through a store and roll back with
    `mark` / `undo` instead of copying substitution dicts.  `unify` may
    leave partial bindings behind on failure; callers undo to their mark.
    """

    __slots__ = ("bindings", "trail")

    def __init__(self) -> None:
        self.bindings: dict[int, Term] = {}
        self.trail: list[int] = []

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        b = self.bindings
        t = self.trail
        while len(t) > mark:
            del b[t.pop()]

    def bind(self, vid: int, term: Term) -> None:
        self.bindings[vid] = term
        self.trail.append(vid)

    def walk(self, t: Term) -> Term:
        """Shallow dereference: follow variable bindings to the surface."""
        b = self.bindings
        while isinstance(t, Var):
            nxt = b.get(t.id)
            if nxt is None:
                return t
            t = nxt
        return t

    def resolve(self, t: Term) -> Term:
        """Deep dereference.  Cyclic bindings (unification has no occurs
        check) are tolerated: the looping variable is left in place."""
        return _resolve(self.bindings, t, ())

    def unify(self, a: Term, b: Term) -> bool:
        stack = [(a, b)]
        seen = None  # compound pairs reached through a binding
        while stack:
            x, y = stack.pop()
            bound = isinstance(x, Var) or isinstance(y, Var)
            x = self.walk(x)
            y = self.walk(y)
            if x is y:
                continue
            if isinstance(x, Var):
                if isinstance(y, Var) and x.id == y.id:
                    continue
                self.bind(x.id, y)
                continue
            if isinstance(y, Var):
                self.bind(y.id, x)
                continue
            if isinstance(x, Int):
                if isinstance(y, Int) and x.value == y.value:
                    continue
                return False
            if not isinstance(y, Compound):
                return False
            if x.functor is not y.functor:
                return False
            if bound and x.args:
                # a cyclic binding (no occurs check) brings a pair round
                # again; it is already being unified
                if seen is None:
                    seen = set()
                elif (id(x), id(y)) in seen:
                    continue
                seen.add((id(x), id(y)))
            stack.extend(zip(x.args, y.args))
        return True

    def unify_atoms(self, head: Compound, goal: Compound,
                    frame: dict[int, Term], counter: FreshVars) -> bool:
        """Unify an unrenamed clause head with a goal, renaming on the way.

        A head variable's first occurrence goes into ``frame`` as the goal
        subterm it meets, and a later one unifies with what the frame
        holds, so no renamed head is built and no head-only variable is
        bound.  A head compound that meets an unbound goal variable is
        renamed through the frame, with fresh variables from ``counter``,
        and bound to it.  `rename_apart` then renames the body through the
        same frame.
        """
        if head.functor is not goal.functor:
            return False
        bindings = self.bindings
        # argument pairs in the order `unify` would meet them, leftmost first
        stack = list(zip(reversed(head.args), reversed(goal.args)))
        while stack:
            h, g = stack.pop()
            while isinstance(g, Var):
                nxt = bindings.get(g.id)
                if nxt is None:
                    break
                g = nxt
            if isinstance(h, Var):
                t = frame.get(h.id)
                if t is None:
                    frame[h.id] = g
                elif not self.unify(t, g):
                    return False
                continue
            if isinstance(g, Var):
                self.bind(g.id, rename_term(h, frame, counter))
                continue
            if isinstance(h, Int):
                if isinstance(g, Int) and h.value == g.value:
                    continue
                return False
            if not isinstance(g, Compound) or h.functor is not g.functor:
                return False
            stack.extend(zip(h.args, g.args))
        return True


def _resolve(bindings: Mapping[int, Term], t: Term, path: tuple[int, ...]) -> Term:
    while isinstance(t, Var):
        if t.id in path:
            return t  # cyclic binding, leave the variable
        nxt = bindings.get(t.id)
        if nxt is None:
            return t
        path = path + (t.id,)
        t = nxt
    if isinstance(t, Compound) and t.args:
        return Compound(t.functor, tuple(_resolve(bindings, a, path) for a in t.args))
    return t


Subst = dict[int, Term]


def restrict(s: Mapping[int, Term], vids: Iterable[int]) -> Subst:
    """The substitution narrowed to the given variables, fully resolved."""
    return {vid: _resolve(s, Var(vid), ()) for vid in vids if vid in s}


# ------------------------------------------------------------
# Renaming apart
# ------------------------------------------------------------


def rename_term(t: Term, mapping: dict[int, Term], counter: FreshVars) -> Term:
    """``t`` with each variable replaced by its image in ``mapping``; a
    variable without one gets a fresh variable, recorded there."""
    if isinstance(t, Var):
        v = mapping.get(t.id)
        if v is None:
            v = mapping[t.id] = counter.next_var()
        return v
    if isinstance(t, Compound) and t.args:
        return Compound(t.functor, tuple([rename_term(a, mapping, counter)
                                          for a in t.args]))
    return t


def rename_apart(c: Clause, frame: dict[int, Term],
                 counter: FreshVars) -> tuple[Compound, ...]:
    """The body of ``c`` renamed through the frame `Store.unify_atoms`
    filled from its head: head variables stand for what they met in the
    goal, and body-only variables are fresh for this counter."""
    return tuple([Compound(b.functor, tuple([rename_term(t, frame, counter)
                                             for t in b.args]))
                  for b in c.body])


# ============================================================
# Programs
# ============================================================


def index_key(t: Term) -> object:
    """First-argument index key: compounds by functor, ints by value,
    variables as None (matches anything)."""
    if isinstance(t, Compound):
        return t.functor
    if isinstance(t, Int):
        return ("int", t.value)
    return None


IndexEntry = tuple[Clause, object]


def index_entry(c: Clause) -> IndexEntry:
    """A clause with the index key of its head's first argument."""
    return c, index_key(c.head.args[0]) if c.head.args else None


# bucket-table key for a goal key that no clause head of the predicate has
_OTHER = object()


def _bucket_table(entries: list[IndexEntry]) -> dict[object, tuple[Clause, ...]]:
    """One predicate's buckets: for each head key, the clauses whose key is
    that key or a variable; for an unbound goal argument (None), every
    clause; for any other key (`_OTHER`), the variable-keyed clauses.  All
    in program order."""
    table = {None: tuple(c for c, _ in entries),
             _OTHER: tuple(c for c, k in entries if k is None)}
    for _, key in entries:
        if key is not None and key not in table:
            table[key] = tuple(c for c, k in entries if k is None or k == key)
    return table


class Program:
    """An ordered collection of definite clauses with first-argument
    buckets, built once per predicate."""

    __slots__ = ("clauses", "_buckets")

    def __init__(self, clauses: Iterable[Clause]) -> None:
        self.clauses: tuple[Clause, ...] = tuple(clauses)
        entries: dict[Symbol, list[IndexEntry]] = {}
        for c in self.clauses:
            entries.setdefault(c.head.functor, []).append(index_entry(c))
        self._buckets = {pred: _bucket_table(es)
                         for pred, es in entries.items()}

    def bucket(self, pred: Symbol, key: object) -> tuple[Clause, ...]:
        """The clauses for ``pred`` whose head's first argument can match
        a goal argument with index key ``key``, in program order: the
        first-argument index of `index_key`, precomputed."""
        table = self._buckets.get(pred)
        if table is None:
            return ()
        found = table.get(key)
        return table[_OTHER] if found is None else found

    def predicates(self) -> tuple[Symbol, ...]:
        return tuple(self._buckets.keys())

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)
