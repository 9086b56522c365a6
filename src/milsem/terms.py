"""First-order terms, substitutions, unification and clause machinery.

Terms are immutable and safe to share: a term is a variable, an integer
literal, or a compound with an interned functor symbol.  A goal or clause
literal is a compound too, its functor the predicate symbol, so one set of
operations serves terms and literals alike.  Variables are identified by
interned integers; parsed variables get non-negative ids with their names
kept in a module-level table, while variables minted by a renaming counter
get negative ids and print as ``_v<n>``.

`Var`, `Int` and `Compound` are plain ``__slots__`` classes that compare
by class and fields, hash as the tuple of their fields and print as
``Int(value=2)``.  Nothing guards their fields at run time: a guard would
store each field through ``object.__setattr__``, more than doubling the
cost of building a term.  ``tests/test_immutable_terms.py`` keeps them
immutable instead: it fails on any store to a term field outside their
``__init__``, and on any ``setattr``, in the package or its benchmark.

A clause is renamed apart while its head is unified with a goal, not
before.  `Store.unify_atoms` walks the unrenamed head against the goal and
records in a *frame* the goal subterm each head variable first meets;
only a head compound that meets an unbound goal variable is copied, with
fresh variables.  `rename_apart` then copies the body through that frame.
So a clause try builds no renamed head, and a variable that occurs only
in the head is never bound or trailed.  The walk is one pass with no
recursion: a nested head compound waits on an explicit stack, and pairs
are met in the order `Store.unify` pops them, the head's arguments first
to last and a nested compound's last to first.  Copying loops over a
compound's arguments and recurses only into one with arguments of its
own, so fresh variables are drawn left to right, depth first.

A `Program` hands out clauses through a two-level table per predicate.
The first level keys each head by its first argument's `index_key`.  A
bucket whose heads' first arguments differ on their own first argument,
as the beta head ``step(app(lam(..),..),_)`` differs from the congruence
head ``step(app(A,B),_)``, is split once more on that sub-key.  So
`Program.select` gives a goal ``step(app(app(..),..),_)`` the congruence
heads alone.  A clause whose first body goal takes the head's variable
at one of those two positions for its own first argument, and calls a
predicate whose heads all key their first argument, is filed only under
those keys: under any other, that goal would select no clause.  So
``eval(E1,E1) :- value(E1)`` is not given for ``eval(app(..),_)``.
Every clause `select` gives is still tried through `Store.unify_atoms`.

The search engines bind variables destructively through a `Store` and
undo on backtracking with its trail, instead of copying substitution dicts.
Stored bindings may contain chains (X -> Y, Y -> t); `Store.resolve`, the
one deep dereference, follows a chain in a loop, recurses only into
compound arguments, and shares each subterm that no binding changes
instead of copying it.  Unification does not occurs-check, so a binding
like X -> f(X) can exist in a store; `resolve` guards against looping on
such bindings by leaving the offending variable in place, as it leaves an
unbound one, and `Store.unify` unifies two such terms as rational trees,
visiting each pair of compounds it reaches through a binding once.
`Store.resolve_ground` is the same walk for a term that should be ground,
as a builtin's input must be: it gives None where `resolve` leaves a
variable.
"""

from __future__ import annotations

from typing import (Collection, Iterable, Iterator, KeysView, Mapping,
                    NamedTuple, Optional, Union)


# ============================================================
# Symbols and terms
# ============================================================


class Symbol:
    """A functor or predicate name paired with its arity.

    Make symbols with `symbol` only: it interns them, so symbols compare
    and hash by identity.
    """

    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity

    def __repr__(self) -> str:
        return f"Symbol(name={self.name!r}, arity={self.arity!r})"

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


class Var:
    __slots__ = ("id",)

    def __init__(self, id: int) -> None:
        self.id = id

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.id,) == (other.id,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id,))

    def __repr__(self) -> str:
        return f"Var(id={self.id!r})"


class Int:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"Int(value={self.value!r})"


class Compound:
    __slots__ = ("functor", "args")

    def __init__(self, functor: Symbol, args: tuple[Term, ...]) -> None:
        self.functor = functor
        self.args = args

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.functor, self.args) == (other.functor, other.args)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.functor, self.args))

    def __repr__(self) -> str:
        return f"Compound(functor={self.functor!r}, args={self.args!r})"


Term = Union[Var, Int, Compound]


class Clause(NamedTuple):
    head: Compound
    body: tuple[Compound, ...]


# ------------------------------------------------------------
# Variable name interning
# ------------------------------------------------------------


# a parsed variable's id is its index in _VAR_NAMES
_VAR_NAMES: list[str] = []
_VAR_IDS: dict[str, int] = {}


def var(name: str) -> Var:
    """The named variable; the same name always maps to the same id."""
    vid = _VAR_IDS.get(name)
    if vid is None:
        vid = _VAR_IDS[name] = len(_VAR_NAMES)
        _VAR_NAMES.append(name)
    return Var(vid)


def var_name(v: Var) -> str:
    vid = v.id
    if vid < 0:
        return f"_v{-vid}"
    return _VAR_NAMES[vid] if vid < len(_VAR_NAMES) else f"_V{vid}"


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
        """Drop the bindings made since ``mark``.  Every binding is
        trailed, so mark 0, where every `solve` run ends, clears the
        store outright."""
        b = self.bindings
        t = self.trail
        if not mark:
            b.clear()
            t.clear()
            return
        while len(t) > mark:
            del b[t.pop()]

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
        """Deep dereference, sharing each subterm that no binding changes.
        Cyclic bindings (unification has no occurs check) are tolerated:
        the looping variable is left in place."""
        return _resolve(self.bindings, t, {}, [])

    def resolve_ground(self, t: Term) -> Optional[Term]:
        """`resolve` for a term that should be ground: its value when that
        holds no variable, else None."""
        left: list[Var] = []
        t = _resolve(self.bindings, t, {}, left)
        return None if left else t

    def unify(self, a: Term, b: Term) -> bool:
        bindings, trail = self.bindings, self.trail
        stack = [(a, b)]
        seen = None  # compound pairs reached through a binding
        while stack:
            x, y = stack.pop()
            bound = False  # whether either side was reached through one
            while type(x) is Var:
                nxt = bindings.get(x.id)
                if nxt is None:
                    break
                x, bound = nxt, True
            while type(y) is Var:
                nxt = bindings.get(y.id)
                if nxt is None:
                    break
                y, bound = nxt, True
            if x is y:
                continue
            kind = type(x)
            if kind is Var:
                if type(y) is Var and x.id == y.id:
                    continue
                bindings[x.id] = y
                trail.append(x.id)
                continue
            if type(y) is Var:
                bindings[y.id] = x
                trail.append(y.id)
                continue
            if kind is Int:
                if type(y) is Int and x.value == y.value:
                    continue
                return False
            if type(y) is not Compound or x.functor is not y.functor:
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

        The head is done in one pass, with no recursion: a nested head
        compound pushes the argument tuples still to finish on an explicit
        stack.  Pairs are met in the order `unify` pops them: the head's
        arguments first to last, a nested compound's last to first, each
        finished before the next sibling pair.
        """
        if head.functor is not goal.functor:
            return False
        bindings = self.bindings
        hargs, gargs = head.args, goal.args
        # the tuples in hand, the next index into them, where they end,
        # and the direction of the walk
        i, end, step = 0, len(hargs), 1
        stack = []  # the same for tuples a nested compound interrupted
        while True:
            if i == end:
                if not stack:
                    return True
                hargs, gargs, i, end, step = stack.pop()
                continue
            h = hargs[i]
            g = gargs[i]
            i += step
            while type(g) is Var:
                nxt = bindings.get(g.id)
                if nxt is None:
                    break
                g = nxt
            kind = type(h)
            if kind is Var:
                t = frame.get(h.id)
                if t is None:
                    frame[h.id] = g
                elif t is not g and not self.unify(t, g):
                    return False
                continue
            if type(g) is Var:
                bindings[g.id] = rename_term(h, frame, counter)
                self.trail.append(g.id)
                continue
            if kind is Int:
                if type(g) is Int and h.value == g.value:
                    continue
                return False
            if type(g) is not Compound or h.functor is not g.functor:
                return False
            if h.args:
                if i != end:
                    stack.append((hargs, gargs, i, end, step))
                hargs, gargs = h.args, g.args
                i, end, step = len(hargs) - 1, -1, -1


def _resolve(bindings: Mapping[int, Term], t: Term, path: dict[int, None],
             left: list[Var]) -> Term:
    """`Store.resolve` below the variables in ``path``, those whose values
    are being resolved, with each unbound or cyclic variable it leaves in
    place appended to ``left``.  Only a compound argument recurses.
    ``path`` is a stack with constant-time membership: a dict whose keys
    are pushed in order and popped from its end."""
    n = 0  # the ids this call put on ``path``
    while type(t) is Var:
        vid = t.id
        nxt = bindings.get(vid)
        if nxt is None or vid in path:
            left.append(t)
            break
        t = nxt
        if type(t) is not Int:  # an Int holds no variable to meet again
            path[vid] = None
            n += 1
    if type(t) is Compound:
        args = t.args
        new = None  # the resolved arguments, once one differs
        for i, a in enumerate(args):
            kind = type(a)
            if kind is Int or kind is Compound and not a.args:
                continue
            r = _resolve(bindings, a, path, left)
            if r is not a:
                if new is None:
                    new = list(args)
                new[i] = r
        if new is not None:
            t = Compound(t.functor, tuple(new))
    if n:
        for _ in range(n):
            path.popitem()
    return t


Subst = dict[int, Term]


# ------------------------------------------------------------
# Renaming apart
# ------------------------------------------------------------


def rename_term(t: Term, mapping: dict[int, Term], counter: FreshVars) -> Term:
    """``t`` with each variable replaced by its image in ``mapping``; a
    variable without one gets a fresh variable, recorded there.  Fresh
    variables are drawn left to right, depth first."""
    kind = type(t)
    if kind is Var:
        v = mapping.get(t.id)
        if v is None:
            v = mapping[t.id] = counter.next_var()
        return v
    if kind is Compound and t.args:
        return Compound(t.functor, _rename_args(t.args, mapping, counter))
    return t


def _rename_args(ts: tuple[Term, ...], mapping: dict[int, Term],
                 counter: FreshVars) -> tuple[Term, ...]:
    """`rename_term` of each argument in a loop: a variable or an atomic
    argument inline, so that only a compound with arguments recurses."""
    args = []
    for t in ts:
        kind = type(t)
        if kind is Var:
            v = mapping.get(t.id)
            if v is None:
                v = mapping[t.id] = counter.next_var()
            args.append(v)
        elif kind is Compound and t.args:
            args.append(Compound(t.functor,
                                 _rename_args(t.args, mapping, counter)))
        else:
            args.append(t)
    return tuple(args)


def rename_apart(c: Clause, frame: dict[int, Term],
                 counter: FreshVars) -> tuple[Compound, ...]:
    """The body of ``c`` renamed through the frame `Store.unify_atoms`
    filled from its head: head variables stand for what they met in the
    goal, and body-only variables are fresh for this counter."""
    body = []
    for b in c.body:
        body.append(Compound(b.functor, _rename_args(b.args, frame, counter)))
    return tuple(body)


# ============================================================
# Programs
# ============================================================


def index_key(t: Term) -> object:
    """First-argument index key: compounds by functor, ints by value,
    variables as None (matches anything).  A symbol never equals an int,
    so the two kinds of key share one table."""
    if type(t) is Compound:
        return t.functor
    if type(t) is Int:
        return t.value
    return None


Bucket = tuple[Clause, ...]
# the buckets of one level: by key, every clause, and the clauses filed
# under every key, for a goal key that no clause is filed under
Level = tuple[dict[object, Bucket], Bucket, Bucket]
# one predicate's buckets: its first-argument level, and for each key
# whose bucket splits one level down, that bucket's level
BucketTable = tuple[Level, dict[object, Level]]
# the keys a level files a clause under; None files it under every key
Filing = Optional[tuple[object, ...]]


def _level(entries: list[tuple[Clause, Filing]]) -> Level:
    """For each key, the clauses filed under it or under every key; every
    clause; and the clauses filed under every key.  All in program
    order."""
    keyed: dict[object, list[Clause]] = {
        key: [] for _, keys in entries if keys is not None for key in keys}
    other = []
    for c, keys in entries:
        if keys is None:
            other.append(c)
            for bucket in keyed.values():
                bucket.append(c)
        else:
            for key in keys:
                keyed[key].append(c)
    return ({key: tuple(b) for key, b in keyed.items()},
            tuple(c for c, _ in entries), tuple(other))


def _filing(c: Clause, t: Optional[Term],
            closed: Mapping[Symbol, tuple[object, ...]]) -> Filing:
    """The keys a level files a clause under, by the head argument ``t``
    that the level reads (None where the head has none): that argument's
    `index_key`.  A variable is filed under every key, unless the first
    body goal takes it for its own first argument and calls a predicate of
    ``closed``: then only under that predicate's head keys, since under
    any other key the body goal would select no clause."""
    if type(t) is not Var:
        key = index_key(t)
        return None if key is None else (key,)
    if c.body:
        g = c.body[0]
        if g.args and type(g.args[0]) is Var and g.args[0].id == t.id:
            return closed.get(g.functor)
    return None


def _sub_arg(c: Clause) -> Optional[Term]:
    """A head's first argument's own first argument, or None where the
    head's first argument is a variable or has no arguments."""
    t = c.head.args[0]
    return t.args[0] if type(t) is Compound and t.args else None


def _bucket_table(clauses: list[Clause],
                  closed: Mapping[Symbol, tuple[object, ...]]) -> BucketTable:
    """One predicate's first-argument level, and the level below each
    bucket in which some clause is filed under particular keys by its
    head's first argument's own first argument: keyed by that sub-key,
    each sub-bucket holds the bucket's clauses filed there or under every
    sub-key, in program order.  `_filing` decides both levels."""
    top = _level([(c, _filing(c, c.head.args[0] if c.head.args else None,
                              closed)) for c in clauses])
    split: dict[object, Level] = {}
    for key, bucket in top[0].items():
        sub = [(c, _filing(c, _sub_arg(c), closed)) for c in bucket]
        if any(keys is not None for _, keys in sub):
            split[key] = _level(sub)
    return top, split


class Program:
    """An ordered collection of definite clauses with first-argument
    buckets, built once per predicate, and a second level under a bucket
    whose clauses differ on their head's first argument's own first
    argument.  A clause whose first body goal reads one of those two head
    positions and calls a closed predicate, one that has clauses here, none
    of them with a variable first argument, is filed only under that
    predicate's head keys.  ``open_preds`` are the predicates that the
    caller may still give clauses to: no clause is dropped through them."""

    __slots__ = ("clauses", "_buckets")

    def __init__(self, clauses: Iterable[Clause],
                 open_preds: Collection[Symbol] = ()) -> None:
        self.clauses: tuple[Clause, ...] = tuple(clauses)
        by_pred: dict[Symbol, list[Clause]] = {}
        for c in self.clauses:
            by_pred.setdefault(c.head.functor, []).append(c)
        closed: dict[Symbol, tuple[object, ...]] = {}
        for pred, cs in by_pred.items():
            keys = [index_key(c.head.args[0]) if c.head.args else None
                    for c in cs]
            if pred not in open_preds and None not in keys:
                closed[pred] = tuple(dict.fromkeys(keys))
        self._buckets = {pred: _bucket_table(cs, closed)
                         for pred, cs in by_pred.items()}

    def select(self, goal: Compound, bindings: Mapping[int, Term]) -> Bucket:
        """The clauses that can apply to the goal, with its variables
        bound as in ``bindings``, by the first argument and one level
        below it: those of the goal's predicate filed under the
        `index_key` of the goal's first argument, dereferenced, in program
        order, or those filed under every key for a key that no clause is
        filed under.  An unbound goal argument selects every clause of
        the predicate.  Where that bucket is split, the goal's first
        argument's own first argument, dereferenced, picks the sub-bucket
        of its key in the same way; unbound, it selects the whole bucket.
        A clause left out either has a head that cannot match the goal or
        a first body goal that, once the head has matched, selects no
        clause."""
        table = self._buckets.get(goal.functor)
        if table is None:
            return ()
        (keyed, every, other), split = table
        if not goal.args:
            return every
        t = goal.args[0]
        while type(t) is Var:
            t = bindings.get(t.id)
            if t is None:
                return every
        key = t.functor if type(t) is Compound else t.value
        sub = split.get(key)
        if sub is None:
            return keyed.get(key, other)
        keyed, every, other = sub
        t = t.args[0]
        while type(t) is Var:
            t = bindings.get(t.id)
            if t is None:
                return every
        return keyed.get(t.functor if type(t) is Compound else t.value, other)

    def predicates(self) -> KeysView[Symbol]:
        return self._buckets.keys()

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)
