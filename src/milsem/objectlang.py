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
  * `reference_eval`, a direct recursive interpreter used for checking
    rule programs against ground truth.  It is written from the semantics
    alone and shares nothing with ``solve`` except `substitute`.

Beside the core lives `metarule_library`, the metarules every bundled
scenario learns with.  Scenario files include both rather than copy them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .metarules import Metarule
from .solver import (
    DEFAULT_DEPTH,
    BuiltinError,
    BuiltinTable,
    SolveConfig,
    Verdict,
    solve,
    solve_all,
)
from .terms import (
    Clause,
    Compound,
    Int,
    Program,
    Store,
    Term,
    Var,
    const,
    symbol,
    term_vars,
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
S_VALUE = symbol("value", 1)
S_EVAL = symbol("eval", 2)
S_SUBSTITUTE = symbol("substitute", 4)
S_INT_ADD = symbol("int_add", 3)
S_LEFT = symbol("left", 3)
S_RIGHT = symbol("right", 3)

STRATEGIES = ("lazy", "eager")
CORES = ("full", *STRATEGIES)


def _atom_name(t: Term) -> Optional[str]:
    if isinstance(t, Compound) and t.functor.arity == 0:
        return t.functor.name
    return None


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
    r = store.resolve(t)
    if term_vars(r):
        raise BuiltinError(f"{who}: {what} argument is insufficiently "
                           f"instantiated: {print_term(r)}")
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
    if c.head.functor is not S_STEP:
        return False
    first = c.head.args[0]
    return isinstance(first, Compound) and first.functor is S_APP


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
metarule(stepsel1, [func(F/1),pred(P/2)], ([step,[F,A],B] :- [[P,A,B]])).
metarule(casec, [pred(P/3),const(C),pred(Q/2)], ([P,[C],A,B] :- [[Q,A,B]])).
metarule(unpack2, [pred(P/2),func(H/2),pred(Q/3)], ([P,[H,A,B],C] :- [[Q,A,B,C]])).
metarule(value2, [func(H/2)], ([value,[H,A,B]] :- [[value,A],[value,B]])).
metarule(value0, [const(C)], ([value,[C]] :- [])).
metarule(betalazy, [func(F/2),func(G/2)], ([step,[F,[G,X,B],A],T] :- [[substitute,A,X,B,T]])).
metarule(betaeager, [func(F/2),func(G/2)], ([step,[F,[G,X,B],A],T] :- [[value,A],[substitute,A,X,B,T]])).
"""


def metarule_library() -> tuple[Metarule, ...]:
    """The metarules every bundled scenario learns with."""
    return tuple(parse_metarules(METARULES_SRC))


# ============================================================
# Reference interpreter
# ============================================================


class StuckTermError(Exception):
    """Evaluation reached a non-value no rule applies to."""


class _Bottom:
    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()


@dataclass(frozen=True, slots=True)
class OracleConfig:
    strategy: str = "lazy"
    fuel: int = 1000


def is_value(t: Term) -> bool:
    if isinstance(t, Int):
        return False  # bare integers only occur under lit
    if isinstance(t, Var):
        raise TypeError("object term contains an unbound metalevel variable")
    f = t.functor
    if f in (S_VAR, S_LAM, S_LIT) or f in (S_TRUE, S_FALSE, S_NIL):
        return True
    if f in (S_PAIR, S_CONS):
        return is_value(t.args[0]) and is_value(t.args[1])
    return False


def step_once(t: Term, strategy: str = "lazy") -> Optional[Term]:
    """One small step, or None when no rule applies."""
    if not isinstance(t, Compound):
        return None
    f = t.functor

    if f is S_APP:
        fun, arg = t.args
        if strategy == "lazy":
            if isinstance(fun, Compound) and fun.functor is S_LAM:
                name = _atom_name(fun.args[0])
                if name is not None:
                    return substitute(arg, name, fun.args[1])
            fun2 = step_once(fun, strategy)
            return Compound(S_APP, (fun2, arg)) if fun2 is not None else None
        # eager: function first, then the argument, then contract
        if not is_value(fun):
            fun2 = step_once(fun, strategy)
            return Compound(S_APP, (fun2, arg)) if fun2 is not None else None
        if not is_value(arg):
            arg2 = step_once(arg, strategy)
            return Compound(S_APP, (fun, arg2)) if arg2 is not None else None
        if fun.functor is S_LAM:
            name = _atom_name(fun.args[0])
            if name is not None:
                return substitute(arg, name, fun.args[1])
        return None

    if f is S_FST or f is S_SND:
        inner = t.args[0]
        if isinstance(inner, Compound) and inner.functor is S_PAIR:
            return inner.args[0] if f is S_FST else inner.args[1]
        return None

    if f is S_HEAD or f is S_TAIL:
        inner = t.args[0]
        if isinstance(inner, Compound) and inner.functor is S_CONS:
            return inner.args[0] if f is S_HEAD else inner.args[1]
        return None

    if f is S_IF:
        cond, branches = t.args
        if not (isinstance(branches, Compound) and branches.functor is S_THENELSE):
            return None
        if isinstance(cond, Compound) and cond.functor is S_TRUE:
            return branches.args[0]
        if isinstance(cond, Compound) and cond.functor is S_FALSE:
            return branches.args[1]
        cond2 = step_once(cond, strategy)
        return Compound(S_IF, (cond2, branches)) if cond2 is not None else None

    if f is S_ADD:
        a, b = t.args
        if (isinstance(a, Compound) and a.functor is S_LIT
                and isinstance(b, Compound) and b.functor is S_LIT
                and isinstance(a.args[0], Int) and isinstance(b.args[0], Int)):
            return Compound(S_LIT, (Int(a.args[0].value + b.args[0].value),))
        if not is_value(a):
            a2 = step_once(a, strategy)
            return Compound(S_ADD, (a2, b)) if a2 is not None else None
        b2 = step_once(b, strategy)
        return Compound(S_ADD, (a, b2)) if b2 is not None else None

    if f in (S_PAIR, S_CONS):
        a, b = t.args
        if not is_value(a):
            a2 = step_once(a, strategy)
            return Compound(f, (a2, b)) if a2 is not None else None
        if not is_value(b):
            b2 = step_once(b, strategy)
            return Compound(f, (a, b2)) if b2 is not None else None
        return None

    return None


def reference_eval(t: Term,
                   config: OracleConfig = OracleConfig()) -> Union[Term, _Bottom]:
    """Big-step result by iterated small steps: the final value, BOTTOM when
    fuel runs out, StuckTermError when evaluation wedges."""
    if config.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {config.strategy!r}")
    fuel = config.fuel
    while True:
        if is_value(t):
            return t
        if fuel <= 0:
            return BOTTOM
        t2 = step_once(t, config.strategy)
        if t2 is None:
            raise StuckTermError(print_term(t))
        t = t2
        fuel -= 1


def eval_chain(t: Term, config: OracleConfig = OracleConfig()) -> list[Term]:
    """Every term evaluation passes through, the input included."""
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


@dataclass(slots=True)
class ConformanceReport:
    total: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.passed == self.total

    def add_pass(self) -> None:
        self.total += 1
        self.passed += 1

    def add_failure(self, reason: str) -> None:
        self.total += 1
        self.failures.append(reason)


def _eval_goal(t: Term, result: Term) -> Compound:
    return Compound(S_EVAL, (t, result))


def conformance_check(program: Program, terms: Iterable[Term], *,
                      strategy: str = "lazy",
                      depth_limit: int = DEFAULT_DEPTH,
                      fuel: int = 1000) -> ConformanceReport:
    """Check a rule program term by term against the interpreter.

    For a term the interpreter evaluates to a value, the program must prove
    ``eval`` to an alpha-equal value and must not prove it to two wrong
    values drawn, with a fixed seed, from the corpus's other values.  For
    a term the interpreter diverges on, the program must run out of depth
    rather than prove or finitely fail.  For a stuck term the program must
    finitely fail.
    """
    builtins = default_builtins()
    rng = random.Random(0)
    cfg = SolveConfig(depth_limit=depth_limit)
    ocfg = OracleConfig(strategy=strategy, fuel=fuel)
    terms = list(terms)
    report = ConformanceReport()

    # Each value's alpha class is numbered once, so a term's distractors
    # are one pass over the class ids.
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

    for t, v, cls in expected:
        out = solve(program, _eval_goal(t, var("Result")), cfg, builtins)
        if v is BOTTOM or v is None:
            what, want = (("diverges", Verdict.DEPTH_EXCEEDED) if v is BOTTOM
                          else ("stuck", Verdict.FINITE_FAILURE))
            if out.verdict is want:
                report.add_pass()
            else:
                report.add_failure(
                    f"{print_term(t)}: {what} but program gave {out.verdict}")
            continue
        if not out.proved:
            report.add_failure(f"{print_term(t)}: expected a value, got {out.verdict}")
            continue
        got = next(iter(out.answer.values()), None) if out.answer else None
        if got is None or classes.get(alpha_key(got)) != cls:
            report.add_failure(
                f"{print_term(t)}: evaluated to "
                f"{print_term(got) if got is not None else '?'}, "
                f"interpreter says {print_term(v)}")
            continue
        wrong = [w for w, c in zip(value_pool, pool_cls) if c != cls]
        rng.shuffle(wrong)
        bad = None
        for w in wrong[:2]:
            check = solve(program, _eval_goal(t, w), cfg, builtins)
            if check.proved:
                bad = w
                break
        if bad is not None:
            report.add_failure(
                f"{print_term(t)}: also proves wrong value {print_term(bad)}")
        else:
            report.add_pass()

    return report


def check_step_determinism(program: Program, t: Term, *,
                           strategy: str = "lazy",
                           depth_limit: int = DEFAULT_DEPTH,
                           fuel: int = 1000,
                           builtins: Optional[BuiltinTable] = None) -> Optional[str]:
    """Walk the interpreter's evaluation chain and confirm the program
    offers at most one distinct step at every point.  Returns a complaint
    or None."""
    if builtins is None:
        builtins = default_builtins()
    cfg = SolveConfig(depth_limit=depth_limit, max_solutions=8)
    for u in eval_chain(t, OracleConfig(strategy=strategy, fuel=fuel)):
        res = solve_all(program, Compound(S_STEP, (u, var("Next"))), cfg, builtins)
        distinct: list[Term] = []
        for ans in res.answers:
            nxt = next(iter(ans.values()), None)
            if nxt is not None and all(nxt != d for d in distinct):
                distinct.append(nxt)
        if len(distinct) > 1:
            return (f"{print_term(u)} steps to "
                    f"{' and '.join(print_term(d) for d in distinct)}")
    return None
