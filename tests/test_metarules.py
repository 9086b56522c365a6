import pytest
from hypothesis import given, settings, strategies as st

from milsem.metarules import (
    MetaVar,
    Metasub,
    Pools,
    TComp,
    apply_metasub,
    enumerate_bindings,
    fits_key,
    match_head,
)
from milsem.objectlang import metarule_library
from milsem.scenario import builtin_scenario, builtin_scenario_names
from milsem.terms import Compound, Int, Store, Var, index_key, mk, symbol, var
from milsem.textio import parse_metarules, parse_term, print_clause

[STEP2L] = parse_metarules(
    "metarule(step2l, [func(H/2)], ([step,[H,A,B],[H,C,B]] :- [[step,A,C]])).")
[UNPACK2] = parse_metarules(
    "metarule(unpack2, [pred(P/2),func(H/2),pred(Q/3)],"
    " ([P,[H,A,B],C] :- [[Q,A,B,C]])).")
[CASEC] = parse_metarules(
    "metarule(casec, [pred(P/3),const(C),pred(Q/2)], ([P,[C],A,B] :- [[Q,A,B]])).")
[VALUE0] = parse_metarules(
    "metarule(value0, [const(C)], ([value,[C]] :- [])).")

POOLS = Pools(
    head_preds=(symbol("step", 2), symbol("value", 1)),
    body_preds=(symbol("left", 3), symbol("right", 3)),
    funcs=(symbol("pair", 2), symbol("fst", 1), symbol("true", 0)),
    consts=(symbol("true", 0), 7),
)


# ---- head matching ----

def test_match_head_pins_functor():
    goal = parse_term("step(pair(lit(1),lit(2)),X)")
    restr = match_head(STEP2L, goal, Store())
    assert restr == {"H": symbol("pair", 2)}


def test_match_head_wrong_shape():
    assert match_head(STEP2L, parse_term("step(fst(X),Y)"), Store()) is None
    assert match_head(STEP2L, parse_term("value(pair(X,Y))"), Store()) is None


def test_match_head_unbound_position_is_unrestricted():
    # nothing to pin H against: all candidates stay open
    goal = parse_term("step(X,Y)")
    restr = match_head(STEP2L, goal, Store())
    assert restr == {}


def test_match_head_pred_metavar_takes_goal_pred():
    goal = parse_term("helper(pair(X,Y),Z)")
    restr = match_head(UNPACK2, goal, Store())
    assert restr["P"] == symbol("helper", 2)
    assert restr["H"] == symbol("pair", 2)


def test_match_head_respects_store_bindings():
    store = Store()
    store.unify(var("G"), mk("pair", Int(1), Int(2)))
    goal = mk("step", var("G"), var("Out"))
    restr = match_head(STEP2L, goal, store)
    assert restr == {"H": symbol("pair", 2)}


def test_match_head_const_pins_to_goal():
    goal = parse_term("branch(true,X,Y)")
    restr = match_head(CASEC, goal, Store())
    assert restr["C"] == symbol("true", 0)


[LIT3] = parse_metarules("metarule(lit3, [], ([p,3,A] :- [])).")
[BARE] = parse_metarules("metarule(bare, [const(C)], ([p,C,A] :- [])).")
[FSTPAIR] = parse_metarules(
    "metarule(fstpair, [], ([step,fst(pair(A,B)),A] :- [])).")


@pytest.mark.parametrize("rule, goal, pins", [
    (LIT3, "p(3,X)", {}),
    (LIT3, "p(4,X)", None),
    (LIT3, "p(a,X)", None),
    (BARE, "p(7,X)", {"C": 7}),
    (BARE, "p(true,X)", {"C": symbol("true", 0)}),
    (BARE, "p(f(a),X)", None),
    (FSTPAIR, "step(fst(pair(a,b)),X)", {}),
    (FSTPAIR, "step(fst(fst(a)),X)", None),
    (FSTPAIR, "step(snd(pair(a,b)),X)", None),
    (FSTPAIR, "step(fst(7),X)", None),
    (VALUE0, "value(7)", {"C": 7}),
    (VALUE0, "value(f(a))", None),
], ids=lambda x: getattr(x, "name", None))
def test_match_head_template_leaves(rule, goal, pins):
    # a template integer, a bare const metavariable, a concrete function
    # symbol and an arity-0 function metavariable, each laid over a goal
    assert match_head(rule, parse_term(goal), Store()) == pins


# ---- the one template walk against the literal-level oracle ----

def _ref_restrict(restr, name, value):
    return restr.setdefault(name, value) == value


def _ref_match_term(tt, g, store, restr):
    # the template walk as it was before a literal and a bare const became
    # cases of it
    g = store.walk(g)
    if isinstance(tt, Var):
        return True
    if isinstance(g, Var):
        return True
    if isinstance(tt, Int):
        return isinstance(g, Int) and g.value == tt.value
    if isinstance(tt, MetaVar):
        if isinstance(g, Int):
            return _ref_restrict(restr, tt.name, g.value)
        if isinstance(g, Compound) and not g.args:
            return _ref_restrict(restr, tt.name, g.functor)
        return False
    assert isinstance(tt, TComp)
    f = tt.functor
    if isinstance(f, MetaVar):
        if isinstance(g, Int) and not tt.args:
            return _ref_restrict(restr, f.name, g.value)
        if not isinstance(g, Compound) or len(g.args) != len(tt.args):
            return False
        if not _ref_restrict(restr, f.name, g.functor):
            return False
        return all(_ref_match_term(a, b, store, restr)
                   for a, b in zip(tt.args, g.args))
    if not isinstance(g, Compound) or g.functor is not f:
        return False
    return all(_ref_match_term(a, b, store, restr)
               for a, b in zip(tt.args, g.args))


def _ref_match_head(m, goal, store):
    # the head literal's functor, arity and pin, then each argument
    restr = {}
    head = m.head
    if isinstance(head.functor, MetaVar):
        restr[head.functor.name] = goal.functor
    elif head.functor is not goal.functor:
        return None
    if len(head.args) != len(goal.args):
        return None
    for tt, g in zip(head.args, goal.args):
        if not _ref_match_term(tt, g, store, restr):
            return None
    return restr


def _ref_fits(m, pred, key):
    # the head's predicate, then its first argument over a probe of ``key``
    if not (m.head.functor is pred
            or (m.head_pred_meta is not None
                and len(m.head.args) == pred.arity)):
        return False
    if key is None:
        return True
    probe = (Int(key) if type(key) is int
             else Compound(key, (Var(0),) * key.arity))
    return _ref_match_term(m.head.args[0], probe, Store(), {})


# every bundled metarule, and heads with template leaves no bundled head
# has: an integer, a bare const, a fixed functor, a repeated metavariable
RULES = tuple(dict.fromkeys(
    (*metarule_library(),
     *(m for name in builtin_scenario_names()
       for m in builtin_scenario(name).metarules),
     LIT3, BARE, FSTPAIR, *parse_metarules("""
metarule(twin, [func(H/2),const(C)], ([step,[H,C,A],[H,C,A]] :- [])).
metarule(deep, [pred(P/2),func(F/1),const(C)], ([P,[F,[pair,[C],A]],A] :- [])).
"""))))


def _functors(t):
    """The fixed function symbols of a template term."""
    if isinstance(t, TComp):
        if not isinstance(t.functor, MetaVar):
            yield t.functor
        for a in t.args:
            yield from _functors(a)


PREDS = tuple(dict.fromkeys(
    (*(m.head.functor for m in RULES if m.head_pred_meta is None),
     *(symbol("other", n) for n in range(4)))))
# the templates' function symbols, some a metavariable could take, aliens
FUNCTORS = tuple(dict.fromkeys(
    (*(f for m in RULES for lit in (m.head, *m.body) for t in lit.args
       for f in _functors(t)),
     symbol("true", 0), symbol("nil", 0), symbol("a", 0),
     symbol("pair", 2), symbol("fst", 1), symbol("lit", 1),
     symbol("alien", 0), symbol("alien", 1), symbol("alien", 3))))


def _terms(depth=2):
    leaves = st.one_of(st.builds(Var, st.integers(1, 6)),
                       st.builds(Int, st.integers(0, 4)),
                       st.sampled_from([Compound(f, ()) for f in FUNCTORS
                                        if f.arity == 0]))
    if not depth:
        return leaves
    return st.one_of(leaves, st.sampled_from(FUNCTORS).flatmap(
        lambda f: st.tuples(*[_terms(depth - 1)] * f.arity).map(
            lambda args: Compound(f, args))))


def _symbol_of(draw, arity, pool):
    return draw(st.sampled_from([f for f in pool if f.arity == arity]
                                or [symbol("alien", arity)]))


def _fill(draw, tt, pins, pool):
    """A goal term laid out from template ``tt``: each metavariable takes a
    symbol of its arity, or an integer in a const position, mostly the
    same at each of its occurrences; any node may become a random term."""
    if isinstance(tt, Var) or draw(st.integers(0, 5)) == 0:
        return draw(_terms())
    if isinstance(tt, Int):
        return tt
    f, targs = (tt, ()) if isinstance(tt, MetaVar) else tt
    args = tuple(_fill(draw, a, pins, FUNCTORS) for a in targs)
    if isinstance(f, MetaVar):
        if f.name not in pins or draw(st.integers(0, 3)) == 0:
            pins[f.name] = (draw(st.integers(0, 4))
                            if not args and draw(st.booleans())
                            else _symbol_of(draw, len(args), pool))
        f = pins[f.name]
        if type(f) is int:
            return Int(f)
        if f.arity != len(args):
            return Compound(f, tuple(draw(_terms()) for _ in range(f.arity)))
    return Compound(f, args)


def _hide(draw, t, store, ids):
    """``t`` with some subterms put behind bound variables, some through a
    chain of two."""
    if isinstance(t, Compound) and t.args:
        t = Compound(t.functor, tuple(_hide(draw, a, store, ids)
                                      for a in t.args))
    kind = draw(st.sampled_from(("plain", "plain", "bound", "chain")))
    if kind == "plain":
        return t
    v = Var(next(ids))
    if kind == "chain":
        w = Var(next(ids))
        store.bindings[w.id] = t
        t = w
    store.bindings[v.id] = t
    return v


@st.composite
def _goal_and_store(draw, m):
    """A goal laid out from the head of ``m`` or of another metarule, or
    drawn at random, and a store that binds the variables its subterms are
    hidden behind."""
    kind = draw(st.sampled_from(("own", "own", "other", "random")))
    if kind == "random":
        pred = draw(st.sampled_from(PREDS))
        goal = Compound(pred, tuple(draw(_terms()) for _ in range(pred.arity)))
    else:
        head = m.head if kind == "own" else draw(st.sampled_from(RULES)).head
        goal = _fill(draw, head, {}, PREDS)
        if not isinstance(goal, Compound):
            goal = Compound(symbol("other", 1), (goal,))
    store = Store()
    ids = iter(range(100, 10_000))
    args = tuple(_hide(draw, a, store, ids) for a in goal.args)
    return Compound(goal.functor, args), store


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(RULES).flatmap(
    lambda m: st.tuples(st.just(m), _goal_and_store(m))))
def test_match_head_is_the_literal_level_oracle(case):
    m, (goal, store) = case
    got, ref = match_head(m, goal, store), _ref_match_head(m, goal, store)
    # the same pins in the same order: the learner's memo keys on it
    assert (got is None) == (ref is None)
    assert got is None or list(got.items()) == list(ref.items())
    key = index_key(store.walk(goal.args[0])) if goal.args else None
    assert fits_key(m, goal.functor, key) == _ref_fits(m, goal.functor, key)


@pytest.mark.parametrize("m", RULES, ids=lambda m: m.name)
def test_fits_key_is_the_two_part_oracle_on_every_key(m):
    for pred in PREDS:
        # a goal with no argument has no key
        for key in (None, *range(5), *FUNCTORS)[:None if pred.arity else 1]:
            assert fits_key(m, pred, key) == _ref_fits(m, pred, key)


@pytest.mark.parametrize("bare, listed, goals", [
    ("[value,C]", "[value,[C]]",
     ("value(true)", "value(3)", "value(pair(a,b))", "value(X)")),
    ("[step,[H,C,A],A]", "[step,[H,[C],A],A]",
     ("step(f(true,x),x)", "step(f(3,x),x)", "step(f(pair(a,b),x),x)",
      "step(f(X,x),x)", "step(X,x)")),
])
def test_bare_const_is_read_as_a_listed_one(bare, listed, goals):
    decls = "[func(H/2),const(C)]" if "H" in bare else "[const(C)]"
    [a] = parse_metarules(f"metarule(a, {decls}, ({bare} :- [])).")
    [b] = parse_metarules(f"metarule(a, {decls}, ({listed} :- [])).")
    assert a.decls == b.decls
    for goal in goals:
        g = parse_term(goal)
        assert match_head(a, g, Store()) == match_head(b, g, Store()), goal
    for c in (symbol("true", 0), 3):
        binding = {"C": c, "H": symbol("f", 2)}
        assert apply_metasub(a, binding) == apply_metasub(b, binding)


@pytest.mark.parametrize("decls, bare, listed, goals", [
    ("[const(C)]", "[step,[pair,C,A],[C]]", "[step,[pair,[C],A],[C]]",
     ("step(pair(true,x),true)", "step(pair(3,x),3)", "step(pair(3,x),true)",
      "step(pair(X,x),Y)", "step(X,Y)")),
    ("[func(H/0)]", "[step,[pair,H,A],A]", "[step,[pair,[H],A],A]",
     ("step(pair(true,x),x)", "step(pair(3,x),x)", "step(pair(f(a),x),x)",
      "step(pair(X,x),x)", "step(X,x)")),
])
def test_every_spelling_of_a_nullary_metavariable_reads_alike(
        decls, bare, listed, goals):
    # validation, like matching, reads a bare ``C`` as ``[C]``: written
    # both ways in one rule, or bare for a func, it parses as listed
    [a] = parse_metarules(f"metarule(a, {decls}, ({bare} :- [])).")
    [b] = parse_metarules(f"metarule(a, {decls}, ({listed} :- [])).")
    assert a.decls == b.decls
    for goal in goals:
        g = parse_term(goal)
        assert match_head(a, g, Store()) == match_head(b, g, Store()), goal


# ---- applying metasubs ----

def test_apply_metasub_step2l():
    c = apply_metasub(STEP2L, {"H": symbol("pair", 2)})
    assert print_clause(c) == "step(pair(A,B),pair(C,B)) :- step(A,C)."


def test_apply_metasub_casec():
    c = apply_metasub(CASEC, {"P": symbol("p1", 3),
                              "C": symbol("true", 0),
                              "Q": symbol("p2", 2)})
    assert print_clause(c) == "p1(true,A,B) :- p2(A,B)."


def test_apply_metasub_const_as_int():
    c = apply_metasub(VALUE0, {"C": 7})
    assert print_clause(c) == "value(7)."


@pytest.mark.parametrize("value, clause", [(7, "p(7,A)."),
                                           (symbol("true", 0), "p(true,A).")])
def test_apply_metasub_bare_const(value, clause):
    assert print_clause(apply_metasub(BARE, {"C": value})) == clause


# ---- enumeration ----

def test_enumerate_in_pool_order():
    restr = {}
    out = list(enumerate_bindings(STEP2L, restr, POOLS, (), None))
    assert [b["H"] for b in out] == [symbol("pair", 2)]  # only arity-2 func


def test_enumerate_respects_restriction():
    restr = {"Q": symbol("right", 3)}
    out = list(enumerate_bindings(UNPACK2, restr, POOLS, (), None))
    assert out  # P x H x Q combinations survive
    assert all(b["Q"] == symbol("right", 3) for b in out)


def test_head_pred_candidates_come_from_head_pool():
    outs = list(enumerate_bindings(UNPACK2, {}, POOLS, (), None))
    assert {b["P"] for b in outs} == {symbol("step", 2)}
    assert {b["Q"] for b in outs} == {symbol("left", 3), symbol("right", 3)}


def test_const_candidates_include_ints():
    outs = list(enumerate_bindings(VALUE0, {}, POOLS, (), None))
    assert [b["C"] for b in outs] == [symbol("true", 0), 7]


def test_metarule_validation_rejects_unknown_metavar():
    from milsem.textio import ParseError
    with pytest.raises((ParseError, ValueError)):
        parse_metarules("metarule(bad, [func(H/2)], ([step,[J,A,B],C] :- [])).")


def test_metarule_rejects_a_metavariable_declared_twice():
    from milsem.textio import ParseError
    with pytest.raises(ParseError, match="H declared twice"):
        parse_metarules("metarule(twice, [func(H/2),func(H/2)],"
                        " ([step,[H,A,B],[H,C,B]] :- [[step,A,C]])).")


def test_metarules_compare_and_hash_by_fields():
    text = ("metarule(step2l, [func(H/2)],"
            " ([step,[H,A,B],[H,C,B]] :- [[step,A,C]])).")
    [again] = parse_metarules(text)
    assert again == STEP2L and again is not STEP2L
    assert hash(again) == hash(STEP2L) == hash(
        (STEP2L.name, STEP2L.decls, STEP2L.head, STEP2L.body,
         STEP2L.head_pred_meta))
    assert STEP2L != UNPACK2 and STEP2L.__eq__(STEP2L.name) is NotImplemented
    sub = Metasub("step2l", (("H", symbol("pair", 2)),))
    assert hash(sub) == hash(("step2l", (("H", symbol("pair", 2)),)))
