"""Metarules: second-order clause templates and their instantiation.

A metarule is a clause template whose literals are written in list
encoding, ``[p, t1, ..., tn]``, so that predicate and function positions
can hold metavariables.  A template literal and a template term are one
node type, `TComp`: a compound whose functor is a symbol or a
metavariable, a predicate metavariable at literal level and a function
metavariable below it.  Binding every metavariable to a symbol (or an
integer, for constants) turns the template into an ordinary first-order
clause; the record of those bindings is a `Metasub`, and a learned
hypothesis is a set of metasubs.

Metavariables are declared alongside the template with a kind and arity:

* ``pred(P/2)``  predicate position, drawn from the learnable or body pools;
* ``func(H/2)``  function symbol inside a term;
* ``const(C)``   an arity-0 symbol or an integer literal.

Instantiation is goal-directed.  `match_head` lays the head template over
the current goal with the same walk as every template term, a bare
``const`` metavariable ``C`` read as ``[C]``; that pins down most
metavariables (a function metavariable over a goal subterm ``pair(a,b)``
can only become ``pair``).
`enumerate_bindings` then fills in whatever is left from the pools, in
pool order, and `apply_metasub` builds the clause.  The learner's clause
source keeps only instantiations whose head unifies with the goal.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .terms import (
    Clause,
    Compound,
    Int,
    Store,
    Symbol,
    Term,
    Var,
    symbol,
)

PRED = "pred"
FUNC = "func"
CONST = "const"


class MetaVar(NamedTuple):
    name: str


class Decl(NamedTuple):
    """A metavariable declaration: kind, name and arity (0 for consts)."""

    name: str
    kind: str
    arity: int


class TComp(NamedTuple):
    """Template compound; the functor may be concrete or a metavariable."""

    functor: Union[Symbol, MetaVar]
    args: tuple["TTerm", ...]


TTerm = Union[Var, Int, MetaVar, TComp]

Binding = Union[Symbol, int]


class Metasub(NamedTuple):
    """One metarule name with a full assignment of its metavariables.

    Equal metasubs give the same clause, so the learner keys its
    hypothesis and its cores by metasub."""

    rule: str
    bindings: tuple[tuple[str, Binding], ...]


class MetaruleError(ValueError):
    pass


class Metarule:
    """A named clause template with declared metavariables.

    Construction validates that every declaration is used consistently:
    a metavariable is declared once, it may not appear both as a predicate
    and as a function symbol, and all its occurrences must agree on arity.
    It stores the declarations with every arity resolved.
    """

    __slots__ = ("name", "decls", "head", "body", "head_pred_meta")

    def __init__(self, name: str, decls: Sequence[Decl], head: TComp,
                 body: Sequence[TComp]) -> None:
        self.name = name
        self.head = head
        self.body = tuple(body)
        usage: dict[str, tuple[str, int]] = {}

        def see(mv: MetaVar, kind: str, arity: int) -> None:
            prev = usage.get(mv.name)
            if prev is not None and prev != (kind, arity):
                raise MetaruleError(
                    f"metarule {name}: {mv.name} used as {prev[0]}/{prev[1]} "
                    f"and as {kind}/{arity}")
            usage[mv.name] = (kind, arity)

        def walk(t: TTerm, kind: str) -> None:
            # a metavariable functor is a PRED in a literal, a FUNC below
            if isinstance(t, MetaVar):
                see(t, CONST, 0)
            elif isinstance(t, TComp):
                if isinstance(t.functor, MetaVar):
                    see(t.functor, kind, len(t.args))
                for a in t.args:
                    walk(a, FUNC)

        for a in (head, *self.body):
            walk(a, PRED)

        resolved: list[Decl] = []
        for d in decls:
            if any(r.name == d.name for r in resolved):
                raise MetaruleError(f"metarule {name}: {d.name} declared twice")
            used = usage.get(d.name)
            if used is None:
                raise MetaruleError(f"metarule {name}: unused metavariable {d.name}")
            kind, arity = used
            # const declarations may fill arity-0 function positions
            if d.kind == CONST and kind == FUNC and arity == 0:
                kind = CONST
            if d.kind != kind:
                raise MetaruleError(
                    f"metarule {name}: {d.name} declared {d.kind} but used as {kind}")
            if d.arity >= 0 and d.arity != arity:
                raise MetaruleError(
                    f"metarule {name}: {d.name} declared arity {d.arity} "
                    f"but used with arity {arity}")
            resolved.append(Decl(d.name, kind, arity))
        declared = {d.name for d in resolved}
        for n in usage:
            if n not in declared:
                raise MetaruleError(f"metarule {name}: {n} is not declared")
        self.decls = tuple(resolved)
        self.head_pred_meta = (head.functor.name
                               if isinstance(head.functor, MetaVar) else None)

    def _key(self) -> tuple:
        return (self.name, self.decls, self.head, self.body,
                self.head_pred_meta)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


# ============================================================
# Instantiation
# ============================================================

def _restrict(restr: dict[str, Binding], name: str, value: Binding) -> bool:
    """Pin a metavariable to a value, or check an earlier pin agrees."""
    return restr.setdefault(name, value) == value


def _match_term(tt: TTerm, g: Term, store: Store, restr: dict[str, Binding]) -> bool:
    """Pin metavariables by laying the template over the goal term, a bare
    const metavariable ``C`` read as ``[C]``.  Conservative: unconstrained
    where the goal is a variable; the final head unification is still
    authoritative."""
    g = store.walk(g)
    if isinstance(tt, Var):
        return True
    if isinstance(g, Var):
        return True  # goal open here, nothing to pin down
    if isinstance(tt, Int):
        return isinstance(g, Int) and g.value == tt.value
    f, targs = (tt, ()) if isinstance(tt, MetaVar) else tt
    if isinstance(f, MetaVar):
        if isinstance(g, Int) and not targs:
            return _restrict(restr, f.name, g.value)
        if not isinstance(g, Compound) or len(g.args) != len(targs):
            return False
        if not _restrict(restr, f.name, g.functor):
            return False
    elif not isinstance(g, Compound) or g.functor is not f:
        return False
    for a, b in zip(targs, g.args):
        if not _match_term(a, b, store, restr):
            return False
    return True


def match_head(m: Metarule, goal: Compound,
               store: Store) -> Optional[dict[str, Binding]]:
    """The metavariables that laying the head template over the goal pins,
    with their values, or None when the metarule cannot apply to this goal
    at all."""
    restr: dict[str, Binding] = {}
    return restr if _match_term(m.head, goal, store, restr) else None


def fits_key(m: Metarule, pred: Symbol, key: object) -> bool:
    """Whether `match_head` can lay the head of ``m`` over a goal of
    ``pred`` whose first argument has index key ``key`` (None when it is
    unbound or absent): over such a goal with every other argument, and
    the first argument's own arguments, unbound."""
    args = [Var(0)] * pred.arity
    if key is not None:
        args[0] = (Int(key) if type(key) is int
                   else Compound(key, (Var(0),) * key.arity))
    return _match_term(m.head, Compound(pred, tuple(args)), Store(), {})


def _inst_term(t: TTerm, b: Mapping[str, Binding]) -> Term:
    if isinstance(t, (Var, Int)):
        return t
    f, targs = (t, ()) if isinstance(t, MetaVar) else t
    args = tuple(_inst_term(a, b) for a in targs)
    if isinstance(f, MetaVar):
        v = b[f.name]
        if isinstance(v, int):
            if args:
                raise MetaruleError(f"integer binding for {f.name} with arguments")
            return Int(v)
        return Compound(symbol(v.name, len(args)), args)
    return Compound(f, args)


def apply_metasub(m: Metarule, bindings: Mapping[str, Binding]) -> Clause:
    """The first-order clause obtained by filling every metavariable."""
    head = _inst_term(m.head, bindings)
    body = tuple(_inst_term(a, bindings) for a in m.body)
    return Clause(head, body)


class Pools(NamedTuple):
    """Candidate symbols for metavariable kinds.

    ``head_preds`` are the predicates a hypothesis may define and
    ``body_preds`` the auxiliary ones it may only call; `enumerate_bindings`
    offers both for any predicate position.  ``funcs`` holds function
    symbols of any arity and ``consts`` arity-0 symbols plus integer
    literals.
    """

    head_preds: tuple[Symbol, ...]
    body_preds: tuple[Symbol, ...]
    funcs: tuple[Symbol, ...]
    consts: tuple[Binding, ...]


def enumerate_bindings(m: Metarule, restr: Mapping[str, Binding],
                       pools: Pools, invented: Sequence[Symbol],
                       tentative: Optional[str],
                       ) -> Iterator[dict[str, Binding]]:
    """All full metavariable assignments, decl by decl in declaration
    order, each decl's candidates in pool order and kept only when they
    agree with the value ``restr`` pins.

    Constants come from the const pool and function symbols from the
    function pool, by arity.  A predicate metavariable takes any body, head
    or ``invented`` predicate of its arity, in that order and without
    repeats; outside the head it may also take ``tentative``, the name of a
    predicate not invented yet.
    """
    options: list[list[Binding]] = []
    for d in m.decls:
        if d.kind == CONST:
            cands: list[Binding] = list(pools.consts)
        elif d.kind == FUNC:
            cands = [f for f in pools.funcs if f.arity == d.arity]
        else:
            cands = [p for p in (*pools.body_preds, *pools.head_preds, *invented)
                     if p.arity == d.arity]
            if tentative is not None and m.head_pred_meta != d.name:
                cands.append(symbol(tentative, d.arity))
            cands = list(dict.fromkeys(cands))
        if d.name in restr:
            cands = [c for c in cands if c == restr[d.name]]
        options.append(cands)
    names = [d.name for d in m.decls]
    for values in product(*options):
        yield dict(zip(names, values))
