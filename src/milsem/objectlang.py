"""The object language: lambda terms with extensions, and tools over them.

Object-level terms are encoded as ground first-order terms.  ``var(x)`` is
an object variable named by the atom ``x``, ``lam(x,B)`` binds ``x`` in
``B``, ``app(F,A)`` is application, ``lit(N)`` wraps an integer.  The
extensions used throughout are pairs with ``fst``/``snd``, lists built
from ``cons``/``nil`` with ``head``/``tail``, booleans with
``if(C,thenelse(T,E))``, and ``add`` on literals.

Three independent views of evaluation live here:

  * `substitute` and the builtins, the primitive operations the rule
    programs call out to;
  * `base_clauses`, the fixed call-by-name core every scenario starts
    from;
  * `reference_eval`, a direct interpreter used for checking rule programs
    against ground truth.  It is written from the semantics alone and
    shares nothing with ``solve`` except `substitute`.  `is_value` and
    `step_once` read one `CONSTRUCTORS` row per constructor: the
    arguments that must be values for a term to be one, the positions
    each strategy reduces in order, and the redex rule tried once those
    hold values.  A constructor with no row is stuck and not a value, so
    adding one means a row here plus its scenario's ``%% functions`` entry.

Beside the core lives `metarule_library`, the metarules that two or more
bundled scenarios' hypotheses use.  Scenario files include both rather
than copy them.  A metarule only one scenario uses is declared in that
scenario's file, since each metarule a scenario learns with widens its
search.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .metarules import Metarule
from .solver import (
    DEFAULT_DEPTH,
    BuiltinError,
    BuiltinTable,
    SolveConfig,
    Verdict,
    solve,
)
from .terms import (
    Clause,
    Compound,
    Int,
    Program,
    Store,
    Symbol,
    Term,
    Var,
    const,
    symbol,
    var,
)
from .textio import parse_clauses, parse_metarules, print_term

S_VAR = symbol("var", 1)
S_LAM = symbol("lam", 2)
S_APP = symbol("app", 2)
S_LIT = symbol("lit", 1)
S_ADD = symbol("add", 2)
S_PAIR = symbol("pair", 2)
S_FST = symbol("fst", 1)
S_SND = symbol("snd", 1)
S_CONS = symbol("cons", 2)
S_NIL = symbol("nil", 0)
S_HEAD = symbol("head", 1)
S_TAIL = symbol("tail", 1)
S_IF = symbol("if", 2)
S_THENELSE = symbol("thenelse", 2)
S_TRUE = symbol("true", 0)
S_FALSE = symbol("false", 0)

S_STEP = symbol("step", 2)
S_EVAL = symbol("eval", 2)
S_SUBSTITUTE = symbol("substitute", 4)
S_INT_ADD = symbol("int_add", 3)

STRATEGIES = ("lazy", "eager")
CORES = ("full", *STRATEGIES)


def _atom_name(t: Term) -> Optional[str]:
    if isinstance(t, Compound) and t.functor.arity == 0:
        return t.functor.name
    return None


def _is(t: Term, f: Symbol) -> bool:
    return isinstance(t, Compound) and t.functor is f


# ============================================================
# Substitution
# ============================================================


def free_vars(t: Term) -> frozenset[str]:
    """Free object-variable names of a ground object term."""
    if isinstance(t, Var):
        raise TypeError("object term contains an unbound metalevel variable")
    if isinstance(t, Int):
        return frozenset()
    if t.functor is S_VAR:
        name = _atom_name(t.args[0])
        if name is not None:
            return frozenset((name,))
    if t.functor is S_LAM:
        name = _atom_name(t.args[0])
        if name is not None:
            return free_vars(t.args[1]) - {name}
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= free_vars(a)
    return out


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def substitute(v: Term, x: str, t: Term) -> Term:
    """t with v in place of every free occurrence of var(x), avoiding capture."""
    if isinstance(t, Var):
        raise TypeError("object term contains an unbound metalevel variable")
    if isinstance(t, Int):
        return t
    if t.functor is S_VAR:
        name = _atom_name(t.args[0])
        if name is not None:
            return v if name == x else t
    if t.functor is S_LAM:
        name = _atom_name(t.args[0])
        if name is not None:
            if name == x:
                return t
            body = t.args[1]
            if name in free_vars(v) and x in free_vars(body):
                z = fresh_name(name, free_vars(v) | free_vars(body) | {x})
                fresh = const(z)
                body = substitute(Compound(S_VAR, (fresh,)), name, body)
                return Compound(S_LAM, (fresh, substitute(v, x, body)))
            return Compound(S_LAM, (t.args[0], substitute(v, x, body)))
    if not t.args:
        return t
    return Compound(t.functor, tuple(substitute(v, x, a) for a in t.args))


def alpha_key(t: Term) -> object:
    """A canonical key for ``t`` modulo renaming of lam-bound object
    variables: a bound ``var(x)`` becomes the level of its binder and the
    binder's name is dropped.  Free variables and every other node keep
    their structure, so alpha-equal terms and only those get equal keys."""
    return _alpha_key(t, {}, 0)


def _alpha_key(t: Term, env: dict[str, int], depth: int) -> object:
    if not isinstance(t, Compound):
        return t
    f = t.functor
    if not t.args:
        return f
    if f is S_VAR:
        level = env.get(_atom_name(t.args[0]))
        if level is not None:
            return level
    elif f is S_LAM:
        name = _atom_name(t.args[0])
        if name is not None:
            return f, _alpha_key(t.args[1], {**env, name: depth}, depth + 1)
    return (f, *[_alpha_key(a, env, depth) for a in t.args])


def alpha_equal(a: Term, b: Term) -> bool:
    """Structural equality modulo renaming of lam-bound object variables."""
    return alpha_key(a) == alpha_key(b)


# ============================================================
# Builtins
# ============================================================


def _resolved_ground(store: Store, t: Term, who: str, what: str) -> Term:
    r = store.resolve_ground(t)
    if r is None:
        raise BuiltinError(f"{who}: {what} argument is insufficiently "
                           f"instantiated: {print_term(store.resolve(t))}")
    return r


def substitute_builtin(store: Store, args: tuple[Term, ...]) -> bool:
    v = _resolved_ground(store, args[0], "substitute/4", "value")
    x = _resolved_ground(store, args[1], "substitute/4", "name")
    t1 = _resolved_ground(store, args[2], "substitute/4", "term")
    name = _atom_name(x)
    if name is None:
        return False  # not a variable name, nothing to substitute into
    return store.unify(args[3], substitute(v, name, t1))


def int_add_builtin(store: Store, args: tuple[Term, ...]) -> bool:
    a = _resolved_ground(store, args[0], "int_add/3", "left")
    b = _resolved_ground(store, args[1], "int_add/3", "right")
    if not (isinstance(a, Int) and isinstance(b, Int)):
        return False
    return store.unify(args[2], Int(a.value + b.value))


def default_builtins() -> BuiltinTable:
    t = BuiltinTable()
    t.register(S_SUBSTITUTE, substitute_builtin)
    t.register(S_INT_ADD, int_add_builtin)
    return t


# ============================================================
# The fixed rule core and the metarule library
# ============================================================

BASE_BK_SRC = """\
step(app(lam(X,T1),V),T2) :- substitute(V,X,T1,T2).
step(app(T1,T2),app(T3,T2)) :- step(T1,T3).
eval(E1,E1) :- value(E1).
eval(E1,E3) :- step(E1,E2), eval(E2,E3).
value(var(_)).
value(lam(_,_)).
value(lit(_)).
step(add(lit(A),lit(B)),lit(C)) :- int_add(A,B,C).
step(add(T1,T2),add(T3,T2)) :- step(T1,T3).
step(add(V,T1),add(V,T2)) :- value(V), step(T1,T2).
left(A,_,A).
right(_,B,B).
"""


def _is_app_step(c: Clause) -> bool:
    return c.head.functor is S_STEP and _is(c.head.args[0], S_APP)


def base_clauses(strategy: str = "full") -> tuple[Clause, ...]:
    """The core rules.  'full' keeps the call-by-name application rules;
    'lazy' and 'eager' leave application behaviour to be learned and are
    otherwise identical."""
    if strategy not in CORES:
        raise ValueError(f"unknown strategy {strategy!r}")
    clauses = tuple(parse_clauses(BASE_BK_SRC))
    if strategy == "full":
        return clauses
    return tuple(c for c in clauses if not _is_app_step(c))


METARULES_SRC = """\
metarule(step2l, [func(H/2)], ([step,[H,A,B],[H,C,B]] :- [[step,A,C]])).
metarule(step2r, [func(H/2)], ([step,[H,V,B],[H,V,C]] :- [[value,V],[step,B,C]])).
metarule(stepselnest, [func(F/1),func(G/2),pred(P/3)], ([step,[F,[G,A,B]],C] :- [[P,A,B,C]])).
metarule(value2, [func(H/2)], ([value,[H,A,B]] :- [[value,A],[value,B]])).
metarule(value0, [const(C)], ([value,[C]] :- [])).
"""


def metarule_library() -> tuple[Metarule, ...]:
    """The metarules shared by two or more bundled scenarios' hypotheses."""
    return tuple(parse_metarules(METARULES_SRC))


# ============================================================
# Reference interpreter
# ============================================================


class StuckTermError(Exception):
    """Evaluation reached a non-value no rule applies to."""


class _Bottom:
    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()


class OracleConfig(NamedTuple):
    strategy: str = "lazy"
    fuel: int = 1000


def _beta(t: Compound) -> Optional[Term]:
    fun, arg = t.args
    name = _atom_name(fun.args[0]) if _is(fun, S_LAM) else None
    return None if name is None else substitute(arg, name, fun.args[1])


def _select(cell: Symbol, i: int) -> Callable[[Compound], Optional[Term]]:
    """The redex of a selector: component ``i`` of a syntactic ``cell``,
    whether or not that component is a value."""
    return lambda t: t.args[0].args[i] if _is(t.args[0], cell) else None


def _branch(t: Compound) -> Optional[Term]:
    cond, branches = t.args
    if _is(cond, S_TRUE):
        return branches.args[0]
    if _is(cond, S_FALSE):
        return branches.args[1]
    return None


def _add(t: Compound) -> Optional[Term]:
    a, b = t.args
    if (_is(a, S_LIT) and _is(b, S_LIT)
            and isinstance(a.args[0], Int) and isinstance(b.args[0], Int)):
        return Compound(S_LIT, (Int(a.args[0].value + b.args[0].value),))
    return None


class Row(NamedTuple):
    """How terms built by one constructor evaluate."""

    value_args: Optional[tuple[int, ...]]  # must be values; None: never a value
    lazy: tuple[int, ...] = ()  # positions each strategy reduces, in order
    eager: tuple[int, ...] = ()
    redex: Optional[Callable[[Compound], Optional[Term]]] = None
    # (i, f): stuck at once unless argument i is built by f
    shape: Optional[tuple[int, Symbol]] = None


CONSTRUCTORS: dict[Symbol, Row] = {
    S_VAR: Row(()),
    S_LAM: Row(()),
    S_LIT: Row(()),
    S_TRUE: Row(()),
    S_FALSE: Row(()),
    S_NIL: Row(()),
    S_PAIR: Row((0, 1), (0, 1), (0, 1)),
    S_CONS: Row((0, 1), (0, 1), (0, 1)),
    S_APP: Row(None, (0,), (0, 1), _beta),
    S_ADD: Row(None, (0, 1), (0, 1), _add),
    S_FST: Row(None, redex=_select(S_PAIR, 0)),
    S_SND: Row(None, redex=_select(S_PAIR, 1)),
    S_HEAD: Row(None, redex=_select(S_CONS, 0)),
    S_TAIL: Row(None, redex=_select(S_CONS, 1)),
    S_IF: Row(None, (0,), (0,), _branch, shape=(1, S_THENELSE)),
    S_THENELSE: Row(None),
}


def is_value(t: Term) -> bool:
    if isinstance(t, Var):
        raise TypeError("object term contains an unbound metalevel variable")
    # bare integers only occur under lit
    row = CONSTRUCTORS.get(t.functor) if isinstance(t, Compound) else None
    if row is None or row.value_args is None:
        return False
    # most values are leaves: no generator for them
    return not row.value_args or all(is_value(t.args[i]) for i in row.value_args)


def step_once(t: Term, strategy: str = "lazy") -> Optional[Term]:
    """One small step, or None when no rule applies: the first position
    the strategy reduces that is not a value steps, and once none is left
    the constructor's redex rule applies."""
    row = CONSTRUCTORS.get(t.functor) if isinstance(t, Compound) else None
    if row is None or row.shape and not _is(t.args[row.shape[0]], row.shape[1]):
        return None
    args = t.args
    for i in row.lazy if strategy == "lazy" else row.eager:
        if not is_value(args[i]):
            a = step_once(args[i], strategy)
            return (None if a is None
                    else Compound(t.functor, (*args[:i], a, *args[i + 1:])))
    return None if row.redex is None else row.redex(t)


def reference_eval(t: Term,
                   config: OracleConfig = OracleConfig()) -> Union[Term, _Bottom]:
    """Big-step result by iterated small steps: the final value, BOTTOM when
    fuel runs out on a term that can still step, StuckTermError when
    evaluation wedges, within the fuel or at its end."""
    if config.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {config.strategy!r}")
    chain = eval_chain(t, config)
    last = chain[-1]
    if is_value(last):
        return last
    if (len(chain) > config.fuel
            and step_once(last, config.strategy) is not None):
        return BOTTOM
    raise StuckTermError(print_term(last))


def eval_chain(t: Term, config: OracleConfig = OracleConfig()) -> list[Term]:
    """Every term evaluation passes through, the input included: it ends
    at a value, at a term no rule applies to, or once ``config.fuel``
    steps are taken."""
    out = [t]
    fuel = config.fuel
    while not is_value(t) and fuel > 0:
        t2 = step_once(t, config.strategy)
        if t2 is None:
            break
        out.append(t2)
        t = t2
        fuel -= 1
    return out


# ============================================================
# Conformance of a rule program against the interpreter
# ============================================================


class ConformanceReport:
    __slots__ = ("passed", "failures")

    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    @property
    def total(self) -> int:
        return self.passed + len(self.failures)

    @property
    def ok(self) -> bool:
        return self.passed > 0 and not self.failures


def _eval_goal(t: Term, result: Term) -> Compound:
    return Compound(S_EVAL, (t, result))


def _distractors(rng: random.Random, pool_cls: Sequence[int], cls: int,
                 others: int) -> list[int]:
    """Two distinct pool positions whose class is not ``cls``, drawn with
    ``rng`` by rejection, or all ``others`` such positions, in pool order
    and with no draw, when there are at most two."""
    if others <= 2:
        return [i for i, c in enumerate(pool_cls) if c != cls]
    drawn: list[int] = []
    while len(drawn) < 2:
        i = rng.randrange(len(pool_cls))
        if pool_cls[i] != cls and i not in drawn:
            drawn.append(i)
    return drawn


def conformance_check(program: Program, terms: Iterable[Term], *,
                      strategy: str = "lazy",
                      depth_limit: int = DEFAULT_DEPTH,
                      fuel: int = 1000) -> ConformanceReport:
    """Check a rule program term by term against the interpreter.

    For a term the interpreter evaluates to a value, the program must prove
    ``eval`` to an alpha-equal value and must not prove it to two wrong
    values: two distinct corpus values of other alpha classes, drawn with
    a fixed seed (see `_distractors`).  For a term the interpreter
    diverges on, the program must run out of depth rather than prove or
    finitely fail.  For a stuck term the program must finitely fail.

    Each term is searched once.  A diverging or stuck term needs only its
    first proof, if any.  A value term's ``eval(t, Result)`` is searched to
    exhaustion: the first answer is its value, and when the search is
    complete and every answer binds ``Result`` to a ground term, a wrong
    value is proved exactly when it is one of them (the lifting lemma, see
    `solver`).  Like every exhaustive `solve`, the search stops, incomplete,
    at an answer that still holds a variable; it also stops once it has
    taken three times the steps of its first proof, about what three
    searches cost when each costs the first: an unbound ``Result`` can make
    it far larger than the ground searches it stands for.  An incomplete
    search falls back to one ground `solve` per wrong value, and so does
    one that raises BuiltinError, after the first proof is searched again
    so that an error raised before it still propagates.
    """
    builtins = default_builtins()
    rng = random.Random(0)
    first = SolveConfig(depth_limit=depth_limit)
    every = SolveConfig(depth_limit=depth_limit, max_solutions=None,
                        step_ratio=3)
    ocfg = OracleConfig(strategy=strategy, fuel=fuel)
    terms = list(terms)
    report = ConformanceReport()

    # Each value's alpha class is numbered and counted once, so a term's
    # distractors are drawn without listing the pool.
    classes: dict[object, int] = {}
    expected: list[tuple[Term, Union[Term, _Bottom, None], Optional[int]]] = []
    value_pool: list[Term] = []
    pool_cls: list[int] = []
    for t in terms:
        try:
            v = reference_eval(t, ocfg)
        except StuckTermError:
            v = None
        cls = None
        if isinstance(v, (Compound, Int)):
            cls = classes.setdefault(alpha_key(v), len(classes))
            value_pool.append(v)
            pool_cls.append(cls)
        expected.append((t, v, cls))
    sizes = Counter(pool_cls)

    result = var("Result")
    for t, v, cls in expected:
        goal = _eval_goal(t, result)
        if cls is None:
            out = solve(program, goal, first, builtins)
            what, want = (("diverges", Verdict.DEPTH_EXCEEDED) if v is BOTTOM
                          else ("stuck", Verdict.FINITE_FAILURE))
            if out.verdict is want:
                report.passed += 1
            else:
                report.failures.append(
                    f"{print_term(t)}: {what} but program gave {out.verdict}")
            continue
        try:
            out = solve(program, goal, every, builtins)
            values = ([a[result.id] for a in out.answers] if out.complete
                      else None)
        except BuiltinError:
            out = solve(program, goal, first, builtins)
            values = None
        if not out.proved:
            report.failures.append(f"{print_term(t)}: expected a value, got {out.verdict}")
            continue
        got = out.answer.get(result.id)
        if got is None or classes.get(alpha_key(got)) != cls:
            report.failures.append(
                f"{print_term(t)}: evaluated to "
                f"{print_term(got) if got is not None else '?'}, "
                f"interpreter says {print_term(v)}")
            continue
        wrong = [value_pool[i] for i in _distractors(
            rng, pool_cls, cls, len(pool_cls) - sizes[cls])]
        if values is not None:
            bad = next((w for w in wrong if w in values), None)
        else:
            bad = next((w for w in wrong if solve(
                program, _eval_goal(t, w), first, builtins).proved), None)
        if bad is not None:
            report.failures.append(
                f"{print_term(t)}: also proves wrong value {print_term(bad)}")
        else:
            report.passed += 1

    return report

