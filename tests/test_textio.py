import pytest
from hypothesis import given, strategies as st

from milsem.metarules import CONST, FUNC, PRED, Decl, Metarule, MetaVar, TComp
from milsem.scenario import parse_scenario
from milsem.terms import Clause, Compound, Int, Program, Var, const, mk, symbol, var
from milsem.textio import (
    ParseError,
    parse_clauses,
    parse_metarules,
    parse_term,
    print_clause,
    print_program,
    print_term,
)


# ---- terms ----

def test_parse_compound():
    assert parse_term("f(a,b)") == mk("f", const("a"), const("b"))


def test_parse_nested():
    t = parse_term("pair(fst(pair(var(a),var(b))),lit(3))")
    assert t == mk("pair",
                   mk("fst", mk("pair", mk("var", const("a")),
                                mk("var", const("b")))),
                   mk("lit", Int(3)))


def test_parse_variables():
    t = parse_term("f(X,Y,X)")
    assert t.args[0] == t.args[2] == var("X")
    assert t.args[1] == var("Y")


def test_parse_anonymous_vars_distinct():
    t = parse_term("f(_,_)")
    assert isinstance(t.args[0], Var) and isinstance(t.args[1], Var)
    assert t.args[0] != t.args[1]


def test_parse_anonymous_vars_are_numbered_per_parse():
    text = "p(_,_G1) :- q(_G2,_)."
    [c] = parse_clauses(text)
    vs = [c.head.args[0], c.head.args[1], c.body[0].args[0], c.body[0].args[1]]
    assert all(isinstance(v, Var) for v in vs)
    assert len(set(vs)) == 4  # no `_` takes a name the text writes
    assert parse_clauses(text) == [c]
    assert parse_clauses(print_clause(c)) == [c]


def test_parse_negative_int():
    assert parse_term("lit(-42)") == mk("lit", Int(-42))


def test_parse_whitespace_and_comments():
    assert parse_term(" f( a ,\n% comment\n b )") == parse_term("f(a,b)")


def test_parse_term_trailing_garbage():
    with pytest.raises(ParseError):
        parse_term("f(a) extra")


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_term("f(a,\n)")
    assert e.value.line == 2
    assert e.value.col == 1


def test_parse_unbalanced():
    with pytest.raises(ParseError):
        parse_term("f(a")
    with pytest.raises(ParseError):
        parse_term("f(a))")


# ---- clauses and programs ----

def test_parse_fact():
    [c] = parse_clauses("value(nil).")
    assert c.head == mk("value", const("nil"))
    assert c.body == ()


def test_parse_rule():
    [c] = parse_clauses("eval(E1,E3) :- step(E1,E2), eval(E2,E3).")
    assert c.head.functor is symbol("eval", 2)
    assert [b.functor.name for b in c.body] == ["step", "eval"]


def test_parse_clause_missing_dot():
    with pytest.raises(ParseError):
        parse_clauses("p(a)")


def test_parse_clauses_multiple():
    cs = parse_clauses("p(a).\nq(b) :- p(a).\n")
    assert len(cs) == 2


def test_parse_program_indexes():
    p = Program(parse_clauses("p(f(a)).\np(b).\n"))
    assert len(p.bucket(symbol("p", 1), None)) == 2


def test_print_clause_fact_and_rule():
    [fact] = parse_clauses("p(a).")
    assert print_clause(fact) == "p(a)."
    text = "eval(E1,E3) :- step(E1,E2), eval(E2,E3)."
    [rule] = parse_clauses(text)
    assert print_clause(rule) == text


def test_print_program_round_trip():
    src = "p(a).\nq(X) :- p(X).\n"
    assert print_program(parse_clauses(src)) == src


# ---- symbol lists ----

def _head_section(text: str):
    """The symbols a scenario's head section declares."""
    return parse_scenario("%% background\n%% metarules\ninclude(library).\n"
                          "%% head\n" + text + "\n%% examples\n"
                          "pos(step(a,b)).\n").head_preds


def test_parse_symbols():
    out = _head_section("step/2.\nvalue/1.\n")
    assert out == (symbol("step", 2), symbol("value", 1))


def test_parse_symbols_reject_bad_arity():
    with pytest.raises(ParseError):
        _head_section("step/x.")


# ---- metarules ----

def test_parse_metarule_shape():
    [m] = parse_metarules(
        "metarule(step2l, [func(H/2)], ([step,[H,A,B],[H,C,B]] :- [[step,A,C]])).")
    assert m.name == "step2l"
    assert [d.kind for d in m.decls] == [FUNC]
    assert m.decls == (Decl("H", FUNC, 2),)
    assert m.head.functor == symbol("step", 2)


def test_parse_metarule_pred_and_const():
    [m] = parse_metarules(
        "metarule(casec, [pred(P/3),const(C),pred(Q/2)],"
        " ([P,[C],A,B] :- [[Q,A,B]])).")
    assert [d.kind for d in m.decls] == [PRED, CONST, FUNC][0:2] + [PRED]
    assert isinstance(m.head.functor, MetaVar)


def test_parse_metarule_concrete_terms_in_template():
    [m] = parse_metarules(
        "metarule(beta, [func(F/2),func(G/2)],"
        " ([step,[F,[G,X,B],A],T] :- [[substitute,A,X,B,T]])).")
    assert m.head.functor == symbol("step", 2)
    assert m.body[0].functor == symbol("substitute", 4)


def test_parse_metarule_undeclared_metavar_is_a_variable():
    # undeclared capitals in templates are plain logic variables
    [m] = parse_metarules("metarule(idstep, [], ([step,A,A] :- [])).")
    assert m.head.args[0] == m.head.args[1]


def test_parse_metarules_many():
    ms = parse_metarules(
        "metarule(a1, [func(H/2)], ([value,[H,A,B]] :- [[value,A],[value,B]])).\n"
        "metarule(a2, [const(C)], ([value,[C]] :- [])).\n")
    assert [m.name for m in ms] == ["a1", "a2"]


# ---- parsing random templates ----
# Each metavariable has one kind and one arity, so any mix of them makes a
# valid metarule; ordinary variables have names no metavariable has.

_META_KINDS = {"P": (PRED, 2), "Q": (PRED, 1), "F": (FUNC, 1),
               "G": (FUNC, 2), "H": (FUNC, 0), "C": (CONST, 0)}


def _written(functor, parts, listed):
    """A template compound's text in list form or, for a name, f(..)."""
    if listed:
        return "[" + ",".join([functor, *parts]) + "]"
    return functor + ("(" + ",".join(parts) + ")" if parts else "")


def _tcomp(functor, args, listed):
    nodes = tuple(a for a, _ in args)
    f = (MetaVar(functor) if functor in _META_KINDS
         else symbol(functor, len(nodes)))
    return TComp(f, nodes), _written(functor, [t for _, t in args], listed)


def _with_args(names, kids, listed):
    """(node, text) of a compound over one of ``names``; a metavariable
    gets its arity and the list form."""
    def build(name):
        if name in _META_KINDS:
            n = _META_KINDS[name][1]
            return st.lists(kids, min_size=n, max_size=n).map(
                lambda args: _tcomp(name, args, True))
        return st.tuples(st.lists(kids, max_size=2), listed).map(
            lambda p: _tcomp(name, p[0], p[1]))
    return st.sampled_from(names).flatmap(build)


_template_terms = st.recursive(
    st.one_of(st.sampled_from(["A", "B", "X"]).map(lambda n: (var(n), n)),
              st.integers(-9, 9).map(lambda i: (Int(i), str(i))),
              st.just((MetaVar("C"), "C"))),
    lambda kids: _with_args(["f", "g", "a", "F", "G", "H"], kids,
                            st.booleans()),
    max_leaves=6)
_template_literals = _with_args(["step", "value", "P", "Q"], _template_terms,
                                st.just(True))


def _metavars(node, out):
    if isinstance(node, MetaVar):
        out.add(node.name)
    elif isinstance(node, TComp):
        if isinstance(node.functor, MetaVar):
            out.add(node.functor.name)
        for a in node.args:
            _metavars(a, out)
    return out


@given(_template_literals, st.lists(_template_literals, max_size=2),
       st.booleans())
def test_template_round_trip(head, body, arities):
    used = set()
    for node, _ in (head, *body):
        _metavars(node, used)
    decls, written = [], []
    for name in sorted(used):
        kind, arity = _META_KINDS[name]
        if kind == CONST:
            decls.append(Decl(name, kind, 0))
            written.append(f"const({name})")
        else:
            decls.append(Decl(name, kind, arity if arities else -1))
            written.append(f"{kind}({name}/{arity})" if arities
                           else f"{kind}({name})")
    text = (f"metarule(m, [{','.join(written)}], ({head[1]} :- "
            f"[{','.join(t for _, t in body)}])).")
    [m] = parse_metarules(text)
    assert m == Metarule("m", decls, head[0], [n for n, _ in body])


# ---- print/parse round trip on random terms ----

_tnames = st.sampled_from(["f", "g", "pair", "cons"])
_tleaves = st.one_of(
    st.integers(-99, 99).map(Int),
    st.sampled_from(["X", "Y", "Zq"]).map(var),
    st.sampled_from(["a", "b", "nil"]).map(const),
)
_rand_terms = st.recursive(
    _tleaves,
    lambda kids: st.tuples(_tnames, st.lists(kids, min_size=1, max_size=3)).map(
        lambda p: Compound(symbol(p[0], len(p[1])), tuple(p[1]))),
    max_leaves=10)


@given(_rand_terms)
def test_term_round_trip(t):
    assert parse_term(print_term(t)) == t


@given(st.lists(_rand_terms, min_size=1, max_size=3),
       st.lists(_rand_terms, min_size=0, max_size=2))
def test_clause_round_trip(hargs, bargs):
    head = mk("p", *hargs)
    body = tuple(mk("q", *bargs) for _ in range(1 if bargs else 0))
    c = Clause(head, body)
    assert parse_clauses(print_clause(c)) == [c]


def test_long_clause_wraps_but_reparses():
    body = tuple(mk("q", mk("f", var(f"V{i}"), Int(i))) for i in range(20))
    c = Clause(mk("p", var("V0")), body)
    text = print_clause(c)
    assert "\n" in text
    assert parse_clauses(text) == [c]
