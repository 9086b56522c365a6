import pytest

from milsem.metarules import (
    Metasub,
    Pools,
    apply_metasub,
    enumerate_bindings,
    match_head,
)
from milsem.terms import Int, Store, mk, symbol, var
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
    out = list(enumerate_bindings(STEP2L, restr, POOLS))
    assert [b["H"] for b in out] == [symbol("pair", 2)]  # only arity-2 func


def test_enumerate_respects_restriction():
    restr = {"Q": symbol("right", 3)}
    out = list(enumerate_bindings(UNPACK2, restr, POOLS))
    assert out  # P x H x Q combinations survive
    assert all(b["Q"] == symbol("right", 3) for b in out)


def test_head_pred_candidates_come_from_head_pool():
    outs = list(enumerate_bindings(UNPACK2, {}, POOLS))
    assert {b["P"] for b in outs} == {symbol("step", 2)}
    assert {b["Q"] for b in outs} == {symbol("left", 3), symbol("right", 3)}


def test_const_candidates_include_ints():
    outs = list(enumerate_bindings(VALUE0, {}, POOLS))
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
