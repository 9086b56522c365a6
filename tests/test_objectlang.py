"""Object-language tests: substitution, alpha equivalence, the reference
interpreter, and conformance checking.

The binding-sensitive operations are checked against oracles written
separately from the implementation: alpha equivalence by conversion to a
nameless de Bruijn form, and substitution by first renaming every binder
to a globally fresh name so that a naive positional substitution cannot
capture anything.
"""

import itertools
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from milsem import objectlang
from milsem.corpus import (
    CORPUS_KINDS, builtin_corpus, builtin_corpus_names, generate_corpus)
from milsem.objectlang import (
    BOTTOM,
    CONSTRUCTORS,
    OracleConfig,
    STRATEGIES,
    StuckTermError,
    alpha_equal,
    alpha_key,
    base_clauses,
    conformance_check,
    default_builtins,
    eval_chain,
    free_vars,
    fresh_name,
    is_value,
    reference_eval,
    step_once,
    substitute,
)
from milsem.scenario import builtin_scenario, builtin_scenario_names
from milsem.solver import BuiltinError, SolveConfig, Verdict, solve
from milsem.terms import (
    Clause, Compound, Int, Program, Store, Var, const, mk, symbol, term_vars,
    var)
from milsem.textio import parse_clauses, parse_term, print_term

ROOT = Path(__file__).resolve().parents[1]
CHAIN_PROGRAM = ROOT / "bench" / "expected" / "chain.pl"

# ---- oracles ----


def _binder(t):
    if isinstance(t, Compound) and t.functor.arity == 0:
        return t.functor.name
    return None


def nameless(t, bound=()):
    """De Bruijn form: bound occurrences become binder distances, free
    occurrences keep their names.  Alpha-equivalent terms and only those
    get equal forms."""
    if isinstance(t, Int):
        return ("int", t.value)
    f = t.functor
    if f.name == "var" and f.arity == 1:
        name = _binder(t.args[0])
        if name is not None:
            if name in bound:
                return ("bound", bound.index(name))
            return ("free", name)
    if f.name == "lam" and f.arity == 2:
        name = _binder(t.args[0])
        if name is not None:
            return ("lam", nameless(t.args[1], (name,) + bound))
    return (f.name, f.arity) + tuple(nameless(a, bound) for a in t.args)


_fresh_ids = itertools.count()


def freshen(t, env=None):
    """Rename every binder to a name no test term ever uses."""
    if env is None:
        env = {}
    if isinstance(t, Int):
        return t
    f = t.functor
    if f.name == "var" and f.arity == 1:
        name = _binder(t.args[0])
        if name in env:
            return mk("var", const(env[name]))
        return t
    if f.name == "lam" and f.arity == 2:
        name = _binder(t.args[0])
        if name is not None:
            new = f"u{next(_fresh_ids)}"
            return mk("lam", const(new),
                      freshen(t.args[1], {**env, name: new}))
    if not t.args:
        return t
    return Compound(f, tuple(freshen(a, env) for a in t.args))


def naive_subst(v, x, t):
    # no capture protection; only sound after freshen
    if isinstance(t, Int):
        return t
    f = t.functor
    if f.name == "var" and f.arity == 1 and _binder(t.args[0]) == x:
        return v
    if f.name == "lam" and f.arity == 2 and _binder(t.args[0]) == x:
        return t
    if not t.args:
        return t
    return Compound(f, tuple(naive_subst(v, x, a) for a in t.args))


def free_oracle(t, bound=frozenset()):
    if isinstance(t, Int):
        return frozenset()
    f = t.functor
    if f.name == "var" and f.arity == 1:
        name = _binder(t.args[0])
        if name is not None:
            return frozenset() if name in bound else frozenset((name,))
    if f.name == "lam" and f.arity == 2:
        name = _binder(t.args[0])
        if name is not None:
            return free_oracle(t.args[1], bound | {name})
    out = frozenset()
    for a in t.args:
        out |= free_oracle(a, bound)
    return out


# Three names only, so random terms collide and shadow constantly.
NAMES = ("x", "y", "z")
name_st = st.sampled_from(NAMES)

_leaves = st.one_of(
    name_st.map(lambda n: mk("var", const(n))),
    st.integers(-9, 9).map(lambda n: mk("lit", Int(n))),
    st.just(const("nil")),
    st.just(const("true")),
    st.just(const("false")),
)


def _branches(sub):
    return st.one_of(
        st.tuples(name_st, sub).map(lambda p: mk("lam", const(p[0]), p[1])),
        st.tuples(sub, sub).map(lambda p: mk("app", *p)),
        st.tuples(sub, sub).map(lambda p: mk("pair", *p)),
        st.tuples(sub, sub).map(lambda p: mk("cons", *p)),
        sub.map(lambda a: mk("fst", a)),
        sub.map(lambda a: mk("snd", a)),
    )


object_terms = st.recursive(_leaves, _branches, max_leaves=10)


def test_nameless_oracle_sanity():
    assert nameless(parse_term("lam(x,var(x))")) == nameless(parse_term("lam(y,var(y))"))
    assert nameless(parse_term("lam(x,var(y))")) != nameless(parse_term("lam(y,var(y))"))
    assert nameless(parse_term("var(x)")) != nameless(parse_term("var(y)"))


# ---- free variables ----


def test_free_vars_basic():
    assert free_vars(parse_term("var(x)")) == {"x"}
    assert free_vars(parse_term("lam(x,var(x))")) == frozenset()
    assert free_vars(parse_term("lam(x,app(var(x),var(y)))")) == {"y"}
    assert free_vars(parse_term("lit(3)")) == frozenset()
    assert free_vars(parse_term("nil")) == frozenset()


def test_free_vars_shadowing():
    assert free_vars(parse_term("lam(x,pair(var(x),lam(x,var(x))))")) == frozenset()
    assert free_vars(parse_term("app(var(x),lam(x,var(x)))")) == {"x"}


def test_free_vars_rejects_metalevel_variable():
    with pytest.raises(TypeError):
        free_vars(var("X"))
    with pytest.raises(TypeError):
        free_vars(mk("pair", parse_term("var(x)"), var("X")))


@given(object_terms)
def test_free_vars_agrees_with_oracle(t):
    assert free_vars(t) == free_oracle(t)


def test_fresh_name():
    assert fresh_name("x", frozenset()) == "x"
    assert fresh_name("x", frozenset({"x"})) == "x1"
    assert fresh_name("x", frozenset({"x", "x1", "x2"})) == "x3"


# ---- substitution ----


def test_substitute_replaces_free_occurrences():
    t = parse_term("app(var(x),var(y))")
    assert substitute(parse_term("var(a)"), "x", t) == parse_term("app(var(a),var(y))")


def test_substitute_skips_bound_occurrences():
    t = parse_term("lam(x,var(x))")
    assert substitute(parse_term("var(a)"), "x", t) == t
    u = parse_term("lam(y,var(x))")
    assert substitute(parse_term("var(a)"), "x", u) == parse_term("lam(y,var(a))")


def test_substitute_without_occurrence_is_identity():
    t = parse_term("pair(lam(x,var(x)),lit(2))")
    assert substitute(parse_term("var(a)"), "z", t) == t


def test_substitute_renames_capturing_binder():
    # classic capture: pushing var(y) under lam(y,_) must rename the binder
    got = substitute(parse_term("var(y)"), "x", parse_term("lam(y,var(x))"))
    assert got.functor.name == "lam"
    assert _binder(got.args[0]) != "y"
    assert alpha_equal(got, parse_term("lam(w,var(y))"))
    assert nameless(got) == nameless(parse_term("lam(w,var(y))"))


def test_substitute_rename_keeps_inner_uses_bound():
    got = substitute(parse_term("var(y)"), "x",
                     parse_term("lam(y,pair(var(x),var(y)))"))
    assert nameless(got) == nameless(parse_term("lam(w,pair(var(y),var(w)))"))


def test_substitute_leaves_harmless_binder_alone():
    # y occurs in the value but x is not free under the lam, so no rename
    t = parse_term("lam(y,var(y))")
    assert substitute(parse_term("var(y)"), "x", t) == t


@given(object_terms, name_st, object_terms)
def test_substitute_agrees_with_freshening_oracle(t, x, v):
    got = substitute(v, x, t)
    want = naive_subst(v, x, freshen(t))
    assert nameless(got) == nameless(want)


@given(object_terms, name_st, object_terms)
def test_substitute_free_variable_law(t, x, v):
    expect = free_vars(t) - {x}
    if x in free_vars(t):
        expect |= free_vars(v)
    assert free_vars(substitute(v, x, t)) == expect


# ---- alpha equivalence ----


def test_alpha_equal_basic():
    assert alpha_equal(parse_term("lam(x,var(x))"), parse_term("lam(y,var(y))"))
    assert not alpha_equal(parse_term("lam(x,var(y))"), parse_term("lam(y,var(y))"))
    assert not alpha_equal(parse_term("var(x)"), parse_term("var(y)"))
    assert alpha_equal(parse_term("lit(4)"), parse_term("lit(4)"))
    assert not alpha_equal(parse_term("lit(4)"), parse_term("lit(5)"))


def test_alpha_equal_shadowing():
    assert alpha_equal(parse_term("lam(x,lam(x,var(x)))"),
                       parse_term("lam(a,lam(b,var(b)))"))
    assert not alpha_equal(parse_term("lam(x,lam(x,var(x)))"),
                           parse_term("lam(a,lam(b,var(a)))"))


@given(object_terms, object_terms)
def test_alpha_equal_agrees_with_nameless_forms(a, b):
    assert alpha_equal(a, b) == (nameless(a) == nameless(b))
    assert (alpha_key(a) == alpha_key(b)) == (nameless(a) == nameless(b))


@given(object_terms)
def test_alpha_equal_accepts_fully_renamed_terms(t):
    u = freshen(t)
    assert alpha_equal(t, u)
    assert nameless(t) == nameless(u)


# ---- values and single steps ----


def test_is_value():
    for s in ("var(x)", "lam(x,var(x))", "lit(0)", "nil", "true", "false",
              "pair(var(x),lit(1))", "cons(nil,nil)"):
        assert is_value(parse_term(s)), s
    for s in ("app(lam(x,var(x)),var(y))", "fst(pair(var(x),var(y)))",
              "pair(app(var(f),var(a)),nil)", "add(lit(1),lit(2))",
              "if(true,thenelse(nil,nil))", "head(cons(nil,nil))"):
        assert not is_value(parse_term(s)), s
    with pytest.raises(TypeError):
        is_value(var("X"))


def test_step_lazy_substitutes_unevaluated_argument():
    t = parse_term("app(lam(x,var(x)),add(lit(1),lit(1)))")
    assert step_once(t, "lazy") == parse_term("add(lit(1),lit(1))")
    assert step_once(t, "eager") == parse_term("app(lam(x,var(x)),lit(2))")


def test_step_eager_needs_a_value_argument():
    # the argument is stuck, so eager application cannot move
    t = parse_term("app(lam(x,var(x)),fst(lit(1)))")
    assert step_once(t, "eager") is None
    assert step_once(t, "lazy") == parse_term("fst(lit(1))")


def test_step_function_position_congruence():
    t = parse_term("app(app(lam(x,var(x)),lam(y,var(y))),nil)")
    want = parse_term("app(lam(y,var(y)),nil)")
    assert step_once(t, "lazy") == want
    assert step_once(t, "eager") == want


def test_step_projections():
    assert step_once(parse_term("fst(pair(var(a),var(b)))")) == parse_term("var(a)")
    assert step_once(parse_term("snd(pair(var(a),var(b)))")) == parse_term("var(b)")
    # selection is syntactic: the component may still be a redex
    t = parse_term("fst(pair(add(lit(1),lit(2)),nil))")
    assert step_once(t) == parse_term("add(lit(1),lit(2))")
    assert step_once(parse_term("fst(lit(1))")) is None
    assert step_once(parse_term("fst(var(a))")) is None


def test_step_list_selectors():
    assert step_once(parse_term("head(cons(var(a),var(b)))")) == parse_term("var(a)")
    assert step_once(parse_term("tail(cons(var(a),var(b)))")) == parse_term("var(b)")
    assert step_once(parse_term("head(nil)")) is None


def test_step_conditionals():
    t = parse_term("if(true,thenelse(var(a),var(b)))")
    assert step_once(t) == parse_term("var(a)")
    f = parse_term("if(false,thenelse(var(a),var(b)))")
    assert step_once(f) == parse_term("var(b)")
    nested = parse_term("if(if(true,thenelse(false,true)),thenelse(var(a),var(b)))")
    assert step_once(nested) == parse_term("if(false,thenelse(var(a),var(b)))")
    assert step_once(parse_term("if(nil,thenelse(var(a),var(b)))")) is None
    assert step_once(parse_term("if(true,var(a))")) is None


def test_step_add():
    assert step_once(parse_term("add(lit(2),lit(3))")) == parse_term("lit(5)")
    t = parse_term("add(add(lit(1),lit(2)),lit(3))")
    assert step_once(t) == parse_term("add(lit(3),lit(3))")
    u = parse_term("add(lit(1),add(lit(2),lit(3)))")
    assert step_once(u) == parse_term("add(lit(1),lit(5))")
    assert step_once(parse_term("add(nil,lit(1))")) is None


def test_step_pair_left_then_right():
    t = parse_term("pair(add(lit(1),lit(1)),add(lit(2),lit(2)))")
    assert step_once(t) == parse_term("pair(lit(2),add(lit(2),lit(2)))")
    u = parse_term("pair(lit(2),add(lit(2),lit(2)))")
    assert step_once(u) == parse_term("pair(lit(2),lit(4))")
    assert step_once(parse_term("pair(lit(2),lit(4))")) is None
    assert step_once(parse_term("var(x)")) is None
    assert step_once(Int(3)) is None


# ---- the reference interpreter ----

SHOWCASE = parse_term(
    "app(lam(x,fst(var(x))),"
    "pair(app(lam(x,pair(app(lam(z,var(z)),var(x)),var(y))),var(z)),var(x)))")
OMEGA = parse_term("app(lam(x,app(var(x),var(x))),lam(x,app(var(x),var(x))))")
DISCARD = mk("app", parse_term("lam(x,var(y))"), OMEGA)


def test_reference_eval_projection_showcase():
    want = parse_term("pair(var(z),var(y))")
    assert reference_eval(SHOWCASE) == want
    assert reference_eval(SHOWCASE, OracleConfig(strategy="eager")) == want


def test_reference_eval_strategies_differ_on_discarded_divergence():
    assert reference_eval(DISCARD) == parse_term("var(y)")
    assert reference_eval(DISCARD, OracleConfig(strategy="eager")) is BOTTOM
    assert reference_eval(OMEGA) is BOTTOM
    assert reference_eval(OMEGA, OracleConfig(strategy="eager")) is BOTTOM


def test_reference_eval_stuck_terms_raise():
    with pytest.raises(StuckTermError):
        reference_eval(parse_term("fst(lit(1))"))
    with pytest.raises(StuckTermError):
        reference_eval(parse_term("app(lam(x,fst(var(x))),lit(1))"))


def test_reference_eval_fuel_and_strategy_validation():
    two_steps = parse_term("add(add(lit(1),lit(1)),lit(1))")
    assert reference_eval(two_steps, OracleConfig(fuel=1)) is BOTTOM
    assert reference_eval(two_steps, OracleConfig(fuel=2)) == parse_term("lit(3)")
    with pytest.raises(ValueError):
        reference_eval(parse_term("nil"), OracleConfig(strategy="normal"))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_reference_eval_at_the_fuel_boundary(strategy):
    def at(t, fuel):
        return reference_eval(parse_term(t),
                              OracleConfig(strategy=strategy, fuel=fuel))

    # a value reached on the last unit of fuel, and one unit short
    two_steps = "add(add(lit(1),lit(2)),lit(3))"
    assert at(two_steps, 2) == parse_term("lit(6)")
    assert at(two_steps, 1) is BOTTOM
    # one step, then stuck: stuck whether the last unit finds no rule or
    # the fuel runs out on the stuck term, which no rule can step
    stuck = "app(lam(x,fst(var(x))),lit(1))"
    for fuel in (2, 1):
        with pytest.raises(StuckTermError, match=r"^fst\(lit\(1\)\)$"):
            at(stuck, fuel)
    # fuel running out on a divergent term, a value at no fuel, and a
    # term that can step or is stuck at no fuel
    assert at("app(lam(x,app(var(x),var(x))),lam(x,app(var(x),var(x))))",
              3) is BOTTOM
    assert at("lit(1)", 0) == parse_term("lit(1)")
    assert at(two_steps, 0) is BOTTOM
    with pytest.raises(StuckTermError, match=r"^fst\(lit\(1\)\)$"):
        at("fst(lit(1))", 0)


def test_eval_chain():
    t = parse_term("add(add(lit(1),lit(2)),lit(3))")
    chain = eval_chain(t)
    assert chain[0] == t
    assert chain[-1] == parse_term("lit(6)")
    assert len(chain) == 3
    for a, b in zip(chain, chain[1:]):
        assert step_once(a) == b
    assert eval_chain(parse_term("lit(1)")) == [parse_term("lit(1)")]
    assert eval_chain(parse_term("fst(lit(1))")) == [parse_term("fst(lit(1))")]
    assert len(eval_chain(OMEGA, OracleConfig(fuel=4))) == 5


# ---- the constructor table against the per-constructor interpreter ----

R_VAR, R_LAM, R_APP, R_LIT = (symbol("var", 1), symbol("lam", 2),
                              symbol("app", 2), symbol("lit", 1))
R_ADD, R_PAIR, R_FST, R_SND = (symbol("add", 2), symbol("pair", 2),
                               symbol("fst", 1), symbol("snd", 1))
R_CONS, R_NIL, R_HEAD, R_TAIL = (symbol("cons", 2), symbol("nil", 0),
                                 symbol("head", 1), symbol("tail", 1))
R_IF, R_THENELSE, R_TRUE, R_FALSE = (symbol("if", 2), symbol("thenelse", 2),
                                     symbol("true", 0), symbol("false", 0))


# The interpreter as it was before the constructor table, one branch per
# constructor, kept as the reference the table must agree with (its own
# symbol names aside, as written then).

def ref_is_value(t):
    if isinstance(t, Int):
        return False  # bare integers only occur under lit
    if isinstance(t, Var):
        raise TypeError("object term contains an unbound metalevel variable")
    f = t.functor
    if f in (R_VAR, R_LAM, R_LIT) or f in (R_TRUE, R_FALSE, R_NIL):
        return True
    if f in (R_PAIR, R_CONS):
        return ref_is_value(t.args[0]) and ref_is_value(t.args[1])
    return False


def ref_step_once(t, strategy="lazy"):
    if not isinstance(t, Compound):
        return None
    f = t.functor

    if f is R_APP:
        fun, arg = t.args
        if strategy == "lazy":
            if isinstance(fun, Compound) and fun.functor is R_LAM:
                name = _binder(fun.args[0])
                if name is not None:
                    return substitute(arg, name, fun.args[1])
            fun2 = ref_step_once(fun, strategy)
            return Compound(R_APP, (fun2, arg)) if fun2 is not None else None
        # eager: function first, then the argument, then contract
        if not ref_is_value(fun):
            fun2 = ref_step_once(fun, strategy)
            return Compound(R_APP, (fun2, arg)) if fun2 is not None else None
        if not ref_is_value(arg):
            arg2 = ref_step_once(arg, strategy)
            return Compound(R_APP, (fun, arg2)) if arg2 is not None else None
        if fun.functor is R_LAM:
            name = _binder(fun.args[0])
            if name is not None:
                return substitute(arg, name, fun.args[1])
        return None

    if f is R_FST or f is R_SND:
        inner = t.args[0]
        if isinstance(inner, Compound) and inner.functor is R_PAIR:
            return inner.args[0] if f is R_FST else inner.args[1]
        return None

    if f is R_HEAD or f is R_TAIL:
        inner = t.args[0]
        if isinstance(inner, Compound) and inner.functor is R_CONS:
            return inner.args[0] if f is R_HEAD else inner.args[1]
        return None

    if f is R_IF:
        cond, branches = t.args
        if not (isinstance(branches, Compound) and branches.functor is R_THENELSE):
            return None
        if isinstance(cond, Compound) and cond.functor is R_TRUE:
            return branches.args[0]
        if isinstance(cond, Compound) and cond.functor is R_FALSE:
            return branches.args[1]
        cond2 = ref_step_once(cond, strategy)
        return Compound(R_IF, (cond2, branches)) if cond2 is not None else None

    if f is R_ADD:
        a, b = t.args
        if (isinstance(a, Compound) and a.functor is R_LIT
                and isinstance(b, Compound) and b.functor is R_LIT
                and isinstance(a.args[0], Int) and isinstance(b.args[0], Int)):
            return Compound(R_LIT, (Int(a.args[0].value + b.args[0].value),))
        if not ref_is_value(a):
            a2 = ref_step_once(a, strategy)
            return Compound(R_ADD, (a2, b)) if a2 is not None else None
        b2 = ref_step_once(b, strategy)
        return Compound(R_ADD, (a, b2)) if b2 is not None else None

    if f in (R_PAIR, R_CONS):
        a, b = t.args
        if not ref_is_value(a):
            a2 = ref_step_once(a, strategy)
            return Compound(f, (a2, b)) if a2 is not None else None
        if not ref_is_value(b):
            b2 = ref_step_once(b, strategy)
            return Compound(f, (a, b2)) if b2 is not None else None
        return None

    return None


def ref_outcome(t, strategy, fuel):
    """`reference_eval` over the reference steps: the value, BOTTOM, or
    ("stuck", the printed stuck term)."""
    chain = [t]
    left = fuel
    while not ref_is_value(t) and left > 0:
        t = ref_step_once(t, strategy)
        if t is None:
            break
        chain.append(t)
        left -= 1
    if ref_is_value(chain[-1]):
        return chain[-1]
    if len(chain) > fuel and ref_step_once(chain[-1], strategy) is not None:
        return BOTTOM
    return "stuck", print_term(chain[-1])


def _outcome(t, strategy, fuel):
    try:
        return reference_eval(t, OracleConfig(strategy=strategy, fuel=fuel))
    except StuckTermError as e:
        return "stuck", str(e)


_CONSTRUCTORS = (("lam", 2), ("app", 2), ("add", 2), ("pair", 2),
                 ("cons", 2), ("fst", 1), ("snd", 1), ("head", 1),
                 ("tail", 1), ("if", 2), ("thenelse", 2))
# var and lit of any argument, wrong arities and an unknown functor
_ILL_FORMED = (("var", 1), ("lit", 1), ("lit", 0), ("pair", 1), ("fst", 2),
               ("nil", 1), ("app", 3), ("f", 1))

# most random terms are stuck, so a leaf may also be a redex
_REDEXES = tuple(map(parse_term, (
    "add(lit(1),lit(2))", "app(lam(x,var(x)),var(y))", "fst(pair(nil,true))",
    "tail(cons(nil,true))", "if(false,thenelse(nil,lit(0)))")))

_wild_leaves = st.one_of(
    st.integers(-2, 9).map(Int),
    name_st.map(lambda n: mk("var", const(n))),
    st.integers(0, 9).map(lambda n: mk("lit", Int(n))),
    name_st.map(lambda n: mk("lit", const(n))),
    st.sampled_from(("nil", "true", "false", "q")).map(const),
    st.sampled_from(_REDEXES),
)


def _nodes(functors, sub):
    return st.sampled_from(functors).flatmap(lambda fa: st.lists(
        sub, min_size=fa[1], max_size=fa[1]).map(lambda a: mk(fa[0], *a)))


def _wild_branches(sub):
    # besides arbitrary nodes, the shapes the redex rules look for
    lam = st.tuples(name_st, sub).map(lambda p: mk("lam", const(p[0]), p[1]))
    return st.one_of(
        _nodes(_CONSTRUCTORS, sub),
        _nodes(_ILL_FORMED, sub),
        lam,
        st.tuples(sub, sub, sub).map(
            lambda p: mk("if", p[0], mk("thenelse", p[1], p[2]))),
        st.tuples(st.sampled_from(("fst", "snd", "head", "tail")),
                  st.sampled_from(("pair", "cons")), sub, sub).map(
            lambda p: mk(p[0], mk(p[1], p[2], p[3]))),
    )


wild_terms = st.recursive(_wild_leaves, _wild_branches, max_leaves=12)


def _subterms(t):
    yield t
    if isinstance(t, Compound):
        for a in t.args:
            yield from _subterms(a)


def _contexts(u):
    """u, u in every argument position of each constructor, and u in each
    one with lit(1) in the others: random terms seldom put a redex beside
    a value or beside another redex."""
    yield u
    one = mk("lit", Int(1))
    for f, n in _CONSTRUCTORS:
        yield mk(f, *[u] * n)
        for i in range(n):
            yield mk(f, *(u if j == i else one for j in range(n)))


@settings(max_examples=300, deadline=None)
@given(wild_terms)
def test_table_interpreter_agrees_with_the_reference(t):
    for u in _subterms(t):
        for strategy in STRATEGIES:
            assert _outcome(u, strategy, 20) == ref_outcome(u, strategy, 20)
        for c in _contexts(u):
            assert is_value(c) == ref_is_value(c)
            for strategy in STRATEGIES:
                assert step_once(c, strategy) == ref_step_once(c, strategy)


def _functors(t):
    """The constructors a ground object term is built from: every functor
    but the object-variable names under var and lam."""
    if isinstance(t, Compound):
        yield t.functor
        for a in t.args[1:] if t.functor in (R_VAR, R_LAM) else t.args:
            yield from _functors(a)


def _scenario_functors(name):
    spec = builtin_scenario(name)
    return set(spec.func_decls).union(
        *(_functors(t) for e in spec.examples for t in e.goal.args))


def _corpus_functors(kind):
    terms = [t for seed in range(11) for t in generate_corpus(kind, 40, seed)]
    if kind in builtin_corpus_names():
        terms += builtin_corpus(kind)
    return set().union(*map(_functors, terms))


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_scenario_constructors_have_table_rows(name):
    assert sorted(map(str, _scenario_functors(name) - CONSTRUCTORS.keys())) == []


@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_corpus_constructors_have_table_rows(kind):
    assert sorted(map(str, _corpus_functors(kind) - CONSTRUCTORS.keys())) == []


def test_every_table_row_is_used():
    used = set().union(*map(_scenario_functors, builtin_scenario_names()),
                       *map(_corpus_functors, CORPUS_KINDS))
    assert sorted(map(str, CONSTRUCTORS.keys() - used)) == []


# ---- default builtins ----


def test_substitute_builtin_binds_output():
    goal = parse_term("substitute(var(a),x,app(var(x),var(x)),T)")
    res = solve(Program(()), goal, SolveConfig(depth_limit=5), default_builtins())
    assert res.proved
    assert res.answer[var("T").id] == parse_term("app(var(a),var(a))")


def test_substitute_builtin_rejects_unbound_name():
    goal = parse_term("substitute(var(a),X,var(x),T)")
    with pytest.raises(BuiltinError):
        solve(Program(()), goal, SolveConfig(depth_limit=5), default_builtins())


def test_builtin_errors_print_the_argument_resolved():
    # X is bound to f(X): deep resolution leaves the looping X in place
    store, x = Store(), var("X")
    assert store.unify(x, mk("f", x))
    cases = [
        (objectlang.substitute_builtin,
         (x, const("y"), parse_term("var(y)"), var("R")),
         "substitute/4: value argument is insufficiently instantiated: f(X)"),
        (objectlang.int_add_builtin, (Int(1), var("Y"), var("R")),
         "int_add/3: right argument is insufficiently instantiated: Y"),
        (objectlang.substitute_builtin,
         (parse_term("var(a)"), const("y"), mk("g", var("Z")), var("R")),
         "substitute/4: term argument is insufficiently instantiated: g(Z)"),
    ]
    for builtin, args, message in cases:
        with pytest.raises(BuiltinError) as e:
            builtin(store, args)
        assert str(e.value) == message


def test_substitute_builtin_fails_on_non_name():
    goal = parse_term("substitute(var(a),lit(1),var(x),T)")
    res = solve(Program(()), goal, SolveConfig(depth_limit=5), default_builtins())
    assert res.verdict is Verdict.FINITE_FAILURE


def test_int_add_builtin():
    res = solve(Program(()), parse_term("int_add(2,3,X)"),
                SolveConfig(depth_limit=5), default_builtins())
    assert res.proved
    assert res.answer[var("X").id] == Int(5)
    res = solve(Program(()), parse_term("int_add(nil,3,X)"),
                SolveConfig(depth_limit=5), default_builtins())
    assert res.verdict is Verdict.FINITE_FAILURE


# ---- the fixed rule core ----


def test_base_clauses_strategies():
    full = base_clauses("full")
    assert len(full) == 12
    lazy = base_clauses("lazy")
    eager = base_clauses("eager")
    assert lazy == eager
    assert len(lazy) == 10
    dropped = [c for c in full if c not in lazy]
    assert all(c.head.functor.name == "step" for c in dropped)
    assert all(c.head.args[0].functor.name == "app" for c in dropped)
    with pytest.raises(ValueError):
        base_clauses("normal")


# ---- conformance checking ----

PAIR_RULES = """\
step(fst(pair(A,_)),A).
step(snd(pair(_,B)),B).
step(pair(T1,T2),pair(T3,T2)) :- step(T1,T3).
step(pair(V,T1),pair(V,T2)) :- value(V), step(T1,T2).
value(pair(A,B)) :- value(A), value(B).
"""


def _pair_program():
    return Program(base_clauses("full") + tuple(parse_clauses(PAIR_RULES)))


def test_conformance_accepts_faithful_rules():
    corpus = [
        SHOWCASE,
        DISCARD,
        OMEGA,
        parse_term("app(lam(x,var(x)),lit(3))"),
        parse_term("add(add(lit(1),lit(2)),lit(3))"),
        parse_term("fst(pair(var(a),var(b)))"),
        parse_term("snd(pair(add(lit(1),lit(1)),var(b)))"),
        parse_term("fst(lit(1))"),
    ]
    report = conformance_check(_pair_program(), corpus, strategy="lazy")
    assert report.ok, report.failures
    assert report.total == len(corpus)
    assert report.passed == len(corpus)


def test_conformance_catches_wrong_value():
    bad = Program(base_clauses("full") + tuple(parse_clauses(
        "step(fst(pair(_,B)),B).\nvalue(pair(A,B)) :- value(A), value(B).\n")))
    report = conformance_check(bad, [parse_term("fst(pair(var(a),var(b)))")])
    assert not report.ok
    assert "var(b)" in report.failures[0]


def _overgeneral_program():
    """fst(pair(A,B)) steps to A and to B."""
    return Program(base_clauses("full") + tuple(parse_clauses(
        "step(fst(pair(A,_)),A).\n"
        "step(fst(pair(_,B)),B).\n"
        "step(snd(pair(_,B)),B).\n"
        "value(pair(A,B)) :- value(A), value(B).\n")))


def test_conformance_catches_overgeneral_rules():
    corpus = [parse_term("fst(pair(var(a),var(b)))"),
              parse_term("snd(pair(var(a),var(b)))")]
    report = conformance_check(_overgeneral_program(), corpus)
    assert not report.ok
    assert any("wrong value" in f for f in report.failures)


# Failures of the overgeneral program on a seeded corpus.  The three
# "also proves wrong value" entries depend on which two distractors the
# seeded draw picks, so any change to the draw changes this list.
PINNED_DRAW_FAILURES = [
    'pair(pair(var(b),pair(pair(var(c),lit(3)),app(lam(z,lit(3)),var(z)))),pair(snd(pair(fst(pair(var(c),lit(2))),pair(lit(1),lit(4)))),app(lam(y,fst(pair(var(c),var(y)))),snd(pair(lit(2),lit(7)))))): expected a value, got finite_failure',
    'fst(pair(snd(pair(var(z),var(a))),app(lam(y,var(y)),var(z)))): also proves wrong value var(z)',
    'fst(pair(snd(pair(snd(pair(var(a),var(x))),fst(pair(var(b),var(z))))),snd(pair(var(x),fst(pair(var(a),lit(4))))))): also proves wrong value lit(4)',
    'fst(pair(fst(pair(pair(var(x),lit(5)),fst(pair(lit(4),lit(5))))),fst(pair(fst(pair(lit(5),var(z))),snd(pair(lit(5),var(y))))))): also proves wrong value var(z)',
    'pair(fst(pair(lit(4),var(z))),snd(pair(var(y),lit(4)))): expected a value, got finite_failure',
    'app(lam(b,pair(var(b),pair(var(a),fst(pair(var(x),var(y)))))),lit(7)): expected a value, got finite_failure',
    'pair(snd(pair(fst(pair(snd(pair(lit(6),var(y))),app(lam(c,lit(4)),lit(4)))),snd(pair(lit(4),snd(pair(lit(2),lit(0))))))),lit(3)): expected a value, got finite_failure',
    'pair(fst(pair(snd(pair(lit(0),snd(pair(lit(7),lit(2))))),pair(snd(pair(lit(5),var(x))),app(lam(y,var(a)),var(c))))),var(z)): expected a value, got finite_failure',
    'pair(lit(7),fst(pair(var(x),lit(4)))): expected a value, got finite_failure',
    'fst(pair(snd(pair(snd(pair(var(b),pair(var(c),lit(7)))),pair(app(lam(c,var(c)),var(c)),pair(var(x),var(c))))),fst(pair(fst(pair(var(z),snd(pair(lit(2),var(z))))),fst(pair(fst(pair(lit(3),var(a))),pair(var(y),var(z)))))))): evaluated to var(z), interpreter says pair(var(c),pair(var(x),var(c)))',
]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_conformance_distractor_draw_is_pinned(strategy):
    corpus = generate_corpus("pairs", 40, seed=5)
    report = conformance_check(_overgeneral_program(), corpus, strategy=strategy)
    assert report.failures == PINNED_DRAW_FAILURES


def test_conformance_wants_depth_out_on_divergence():
    # without application rules the program finitely fails on omega,
    # which the interpreter knows diverges
    report = conformance_check(Program(base_clauses("lazy")), [OMEGA])
    assert not report.ok
    assert "diverges" in report.failures[0]


def test_conformance_empty_corpus_is_not_ok():
    assert not conformance_check(_pair_program(), []).ok


# ---- one search per term: exactness against three solves ----


def _draw(rng, pool, v):
    """The distractors for a term of value ``v``: every pool value not
    alpha-equal to it, in pool order, when there are at most two, and
    otherwise two at distinct positions, each drawn by ``rng.randrange``
    over the whole pool until one lands outside ``v``'s class."""
    others = [w for w in pool if not alpha_equal(w, v)]
    if len(others) <= 2:
        return others
    picks = []
    while len(picks) < 2:
        i = rng.randrange(len(pool))
        if not alpha_equal(pool[i], v) and i not in picks:
            picks.append(i)
    return [pool[i] for i in picks]


def _three_solve_check(program, terms, strategy):
    """Conformance as it was decided with three searches per value term:
    the first proof, then one ground solve for each distractor."""
    builtins = default_builtins()
    rng = random.Random(0)
    cfg = SolveConfig()
    ocfg = OracleConfig(strategy=strategy)
    expected, pool = [], []
    for t in terms:
        try:
            v = reference_eval(t, ocfg)
        except StuckTermError:
            v = None
        if isinstance(v, (Compound, Int)):
            pool.append(v)
        expected.append((t, v))
    failures = []
    for t, v in expected:
        out = solve(program, mk("eval", t, var("Result")), cfg, builtins)
        if v is BOTTOM or v is None:
            what, want = (("diverges", Verdict.DEPTH_EXCEEDED) if v is BOTTOM
                          else ("stuck", Verdict.FINITE_FAILURE))
            if out.verdict is not want:
                failures.append(
                    f"{print_term(t)}: {what} but program gave {out.verdict}")
            continue
        if not out.proved:
            failures.append(f"{print_term(t)}: expected a value, got {out.verdict}")
            continue
        got = next(iter(out.answer.values()), None) if out.answer else None
        if got is None or not alpha_equal(got, v):
            failures.append(
                f"{print_term(t)}: evaluated to "
                f"{print_term(got) if got is not None else '?'}, "
                f"interpreter says {print_term(v)}")
            continue
        for w in _draw(rng, pool, v):
            if solve(program, mk("eval", t, w), cfg, builtins).proved:
                failures.append(
                    f"{print_term(t)}: also proves wrong value {print_term(w)}")
                break
    return failures


def _chain_program(extra=""):
    return Program(tuple(parse_clauses(CHAIN_PROGRAM.read_text() + extra)))


def _every_answer(program, t):
    return solve(program, mk("eval", t, var("Result")),
                 SolveConfig(max_solutions=None), default_builtins()).answers


PAIRS_40 = generate_corpus("pairs", 40, seed=5)


def test_conformance_a_later_unbound_answer_fails_every_term():
    # eval(_,_) proves every value: the search cannot list them, so the
    # distractors get ground solves, and the first one drawn is proved
    program = _chain_program("eval(_,_).\n")
    assert _every_answer(program, PAIRS_40[0])[-1] == {}
    report = conformance_check(program, PAIRS_40)
    assert (report.passed, report.total) == (0, 40)
    assert all(": also proves wrong value " in f for f in report.failures)
    assert report.failures == _three_solve_check(program, PAIRS_40, "lazy")


def test_conformance_a_later_answer_with_a_variable_inside():
    # lit(_) proves every literal distractor and no other
    program = _chain_program("eval(_,lit(_)).\n")
    report = conformance_check(program, PAIRS_40)
    assert 0 < len(report.failures) < 40
    assert all(": also proves wrong value lit(" in f for f in report.failures)
    assert report.failures == _three_solve_check(program, PAIRS_40, "lazy")


def test_conformance_a_later_cyclic_answer_passes():
    # the second answer binds Result to f(Result); no ground value is it
    program = _chain_program("eval(_,V) :- cyc(V,f(V)).\ncyc(X,X).\n")
    result = var("Result")
    cyclic = _every_answer(program, PAIRS_40[0])[-1][result.id]
    assert term_vars(cyclic)
    report = conformance_check(program, PAIRS_40)
    assert (report.passed, report.total) == (40, 40), report.failures


@pytest.mark.parametrize("extra,stop", [
    # every value tree of size up to the depth bound, most with a
    # variable: the search stops at the first of those
    ("eval(_,V) :- value(V).\n", "non-ground answer"),
    # exponentially many ground trees: only the step bound stops these
    ("eval(_,V) :- tree(V).\ntree(nil).\n"
     "tree(cons(A,B)) :- tree(A), tree(B).\n", "step bound"),
], ids=["value", "tree"])
@pytest.mark.parametrize("kind", ["pairs", "lists"])
def test_conformance_a_search_too_large_to_finish_falls_back(extra, stop, kind,
                                                             monkeypatch):
    # an unbound Result prunes nothing, so searching these to exhaustion
    # would not end; the one search stops, and ground solves decide
    program = _chain_program(extra)
    terms = generate_corpus(kind, 40, seed=5)
    result = var("Result").id
    calls = []
    counted = objectlang.solve

    def counting(program, goal, config, builtins):
        out = counted(program, goal, config, builtins)
        if config.max_solutions is None:
            first = counted(program, goal, SolveConfig(), builtins)
            last = out.answers[-1].get(result)
            calls.append((out.complete, out.steps, first.steps,
                          last is not None and not term_vars(last)))
        return out

    monkeypatch.setattr(objectlang, "solve", counting)
    report = conformance_check(program, terms)
    assert report.total == 40
    assert report.failures == _three_solve_check(program, terms, "lazy")
    assert len(calls) == 40
    for complete, steps, first, ground in calls:
        assert not complete
        assert steps <= 3 * first + 2  # a body's builtins finish their step
        assert ground == (stop == "step bound")


def test_conformance_a_builtin_raising_after_the_first_proof_passes():
    # int_add(V,V,_) raises on an unbound V, which only the search past
    # the first proof reaches; ground distractors make it fail quietly
    program = _chain_program("eval(_,V) :- int_add(V,V,_).\n")
    with pytest.raises(BuiltinError):
        _every_answer(program, PAIRS_40[0])
    report = conformance_check(program, PAIRS_40)
    assert (report.passed, report.total) == (40, 40), report.failures


def test_conformance_a_builtin_raising_before_the_first_proof_raises():
    program = Program(tuple(parse_clauses(
        "eval(_,V) :- int_add(V,V,_).\n" + CHAIN_PROGRAM.read_text())))
    with pytest.raises(BuiltinError, match="int_add/3"):
        conformance_check(program, PAIRS_40)


def test_conformance_names_the_first_distractor_when_both_are_proved():
    # every corpus value is also a ground answer for every term
    values = [reference_eval(t) for t in PAIRS_40]
    program = _chain_program("".join(
        f"eval(_,{print_term(v)}).\n" for v in values))
    report = conformance_check(program, PAIRS_40)
    rng = random.Random(0)
    expected = []
    for t, v in zip(PAIRS_40, values):
        expected.append(f"{print_term(t)}: also proves wrong value "
                        f"{print_term(_draw(rng, values, v)[0])}")
    assert report.failures == expected


@pytest.mark.parametrize("n", [300, 600])
def test_conformance_draws_a_few_numbers_per_value_term(n, monkeypatch):
    # listing and shuffling the other values cost one draw per pool value
    # for every term; a rejection draw costs a few, whatever the corpus size
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            self.draws = self.shuffles = 0
            made.append(self)
            super().__init__(seed)

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

        def shuffle(self, x):
            self.shuffles += 1
            super().shuffle(x)

    monkeypatch.setattr(objectlang, "random", SimpleNamespace(Random=Counting))
    terms = generate_corpus("mixed", n, seed=1)
    report = conformance_check(_chain_program(), terms)
    assert (report.passed, report.total) == (n, n), report.failures
    values = 0
    for t in terms:
        try:
            values += isinstance(reference_eval(t), (Compound, Int))
        except StuckTermError:
            pass
    [rng] = made
    assert values > n // 2
    assert rng.shuffles == 0
    assert rng.draws < 8 * values


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=40),
       st.integers(0, 4), st.integers(0, 2**32))
def test_distractors_are_distinct_positions_of_other_classes(pool_cls, cls,
                                                             seed):
    others = sum(c != cls for c in pool_cls)
    drawn = objectlang._distractors(random.Random(seed), pool_cls, cls, others)
    assert len(drawn) == len(set(drawn)) == min(2, others)
    assert all(0 <= i < len(pool_cls) and pool_cls[i] != cls for i in drawn)


_CHECKED_PROGRAMS = {"chain": _chain_program(),
                     "overgeneral": _overgeneral_program()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_CHECKED_PROGRAMS)),
       st.sampled_from(CORPUS_KINDS), st.integers(1, 12),
       st.integers(0, 10_000), st.sampled_from(STRATEGIES),
       st.lists(st.sampled_from([OMEGA, parse_term("fst(lit(1))")]),
                max_size=2),
       st.sets(st.integers(0, 11), max_size=6))
def test_conformance_agrees_with_three_solves(name, kind, n, seed, strategy,
                                              odd, proved):
    # ``proved`` picks corpus terms whose values every term also evaluates
    # to, so some distractors are proved and some are not
    terms = generate_corpus(kind, n, seed=seed)
    program = _CHECKED_PROGRAMS[name]
    extra = [Clause(mk("eval", var("_"), reference_eval(terms[i])), ())
             for i in sorted(proved) if i < n]
    program = Program(program.clauses + tuple(extra))
    terms += odd
    report = conformance_check(program, terms, strategy=strategy)
    assert report.total == len(terms)
    assert report.failures == _three_solve_check(program, terms, strategy)
