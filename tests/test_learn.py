"""Learner tests: example checking, the size-deepening search, chained
tasks, and the bundled scenarios that are cheap enough to learn here."""

import gc
import itertools
from functools import cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from milsem.learn import (
    Hypothesis,
    _Engine,
    check_example,
    invented_base,
    learn,
    learn_seq,
    meta_prove,
)
from milsem.metarules import match_head
from milsem.objectlang import default_builtins
from milsem.scenario import (
    Example,
    builtin_scenario,
    builtin_scenario_names,
    parse_scenario,
)
from milsem.solver import SolveConfig, Verdict, solve
from milsem.terms import (
    Compound,
    Int,
    Program,
    Symbol,
    Var,
    index_key,
    symbol,
)
from milsem.textio import (
    parse_clauses,
    parse_metarules,
    parse_term,
    print_clause,
)

# ---- example checking ----

LOOPY = Program(tuple(parse_clauses("p(a).\nq(X) :- q(X).\n")))


def _ex(tag, text):
    return Example(tag, parse_term(text))


def test_check_example_pos():
    assert check_example(LOOPY, _ex("pos", "p(a)"))[0]
    assert not check_example(LOOPY, _ex("pos", "p(b)"))[0]
    assert not check_example(LOOPY, _ex("pos", "q(a)"), depth_limit=8)[0]


def test_check_example_neg():
    assert not check_example(LOOPY, _ex("neg", "p(a)"))[0]
    assert check_example(LOOPY, _ex("neg", "p(b)"))[0]
    # a negative must fail finitely: running out of depth violates it
    assert not check_example(LOOPY, _ex("neg", "q(a)"), depth_limit=8)[0]


def test_check_example_nonterm():
    assert check_example(LOOPY, _ex("nonterm", "q(a)"), depth_limit=8)[0]
    assert not check_example(LOOPY, _ex("nonterm", "p(b)"))[0]
    assert not check_example(LOOPY, _ex("nonterm", "p(a)"))[0]


def test_invented_base():
    assert invented_base(()) == 0
    clauses = tuple(parse_clauses(
        "pred_2(X) :- value(X).\nstep(X,Y) :- pred_5(X,Y).\n"))
    assert invented_base(clauses) == 5


def test_hypothesis_helpers():
    clauses = tuple(parse_clauses("value(nil).\nvalue(true).\n"))
    h = Hypothesis(metasubs=(), clauses=clauses)
    assert h.size == 2
    assert [print_clause(c) for c in h.clauses] == ["value(nil).",
                                                    "value(true)."]
    bk = tuple(parse_clauses("value(false).\n"))
    assert len(h.program(bk).clauses) == 3


# ---- toy scenarios ----

BASE_BK = "left(A,_,A).\nright(_,B,B).\n"

SELECTOR = f"""\
%% background
{BASE_BK}
%% metarules
metarule(unpack2, [pred(P/2),func(H/2),pred(Q/3)], ([P,[H,A,B],C] :- [[Q,A,B,C]])).

%% head
step/2.

%% body
left/3.
right/3.

%% examples
pos(step(sel(a,b),a)).
neg(step(sel(a,b),b)).

%% options
max_clauses(2).
depth_limit(50).
"""

WRAPPER = f"""\
%% background
{BASE_BK}
%% metarules
metarule(wrap, [pred(P/1),pred(Q/2)], ([P,A] :- [[Q,A,B]])).

%% head
ok/1.

%% body
step/2.

%% examples
pos(ok(sel(a,b))).

%% options
max_clauses(2).
depth_limit(50).
"""


def _spec(text, name):
    return parse_scenario(text, name)


def test_learn_single_selector_clause():
    res = learn(_spec(SELECTOR, "toy"))
    assert res.ok and res.status == "found"
    assert [print_clause(c) for c in res.hypothesis.clauses] \
        == ["step(sel(A,B),C) :- left(A,B,C)."]
    assert res.stats.size_reached == 1
    assert res.stats.candidates >= 1
    assert res.stats.metasubs_tried >= 1
    assert res.stats.elapsed > 0


def test_negative_example_redirects_the_search():
    # the positive alone is ambiguous between the selectors and the
    # search happens to meet left first; the negative forces right
    ambiguous = SELECTOR.replace("pos(step(sel(a,b),a)).", "pos(step(sel(a,a),a)).")
    res = learn(_spec(ambiguous.replace("neg(step(sel(a,b),b)).", ""), "no_neg"))
    assert [print_clause(c) for c in res.hypothesis.clauses] \
        == ["step(sel(A,B),C) :- left(A,B,C)."]
    flipped = ambiguous.replace("neg(step(sel(a,b),b)).", "neg(step(sel(b,a),b)).")
    res = learn(_spec(flipped, "flip"))
    assert [print_clause(c) for c in res.hypothesis.clauses] \
        == ["step(sel(A,B),C) :- right(A,B,C)."]


def test_learn_two_functors_need_two_clauses():
    two = SELECTOR.replace("pos(step(sel(a,b),a)).",
                           "pos(step(sel(a,b),a)).\npos(step(les(a,b),b)).")
    spec = _spec(two, "two")
    capped = learn(spec._replace(options=spec.options._replace(max_clauses=1)))
    assert capped.status == "exhausted"
    assert capped.hypothesis is None
    assert capped.stats.size_reached == 1
    res = learn(spec)
    assert res.ok
    assert sorted(print_clause(c) for c in res.hypothesis.clauses) == [
        "step(les(A,B),C) :- right(A,B,C).",
        "step(sel(A,B),C) :- left(A,B,C).",
    ]


def test_learn_exhausts_on_impossible_examples():
    # no selector can produce a fresh constant
    impossible = SELECTOR.replace("pos(step(sel(a,b),a)).", "pos(step(sel(a,b),c)).")
    res = learn(_spec(impossible, "imp"))
    assert res.status == "exhausted"
    assert res.hypothesis is None
    assert res.stats.size_reached == 2


def _depth_1(spec):
    return spec._replace(options=spec.options._replace(depth_limit=1))


def test_learn_reports_a_search_cut_by_depth():
    # at depth 1 the selector's body goal left(a,b,a) has a clause but no
    # budget left, so the search was cut rather than exhausted
    res = learn(_depth_1(_spec(SELECTOR, "toy")))
    assert res.status == "depth_exceeded"
    assert res.hypothesis is None and not res.ok
    # the cut is exact: no clause head fits left(a,b,c) or right(a,b,c), so
    # running out of budget there cut nothing
    impossible = SELECTOR.replace("pos(step(sel(a,b),a)).", "pos(step(sel(a,b),c)).")
    assert learn(_depth_1(_spec(impossible, "imp"))).status == "exhausted"


def _pairs_with_deep_negative(depth):
    # fst(pair(T,var(b))) with T eight nested additions: proving the
    # projection takes T's evaluation first, and that is deep
    t = "lit(1)"
    for _ in range(8):
        t = f"add({t},lit(1))"
    spec = builtin_scenario("pairs")
    neg = Example("neg", parse_term(f"eval(fst(pair({t},var(b))),var(b))"))
    return spec._replace(examples=spec.examples + (neg,),
                         options=spec.options._replace(depth_limit=depth))


def test_learn_reports_a_rejection_cut_by_depth():
    # at depth 30 the pairs hypothesis is rejected only by the deep
    # negative, whose check runs out of depth, which is a violation, so a
    # larger bound may find it, and at 60 it does.  The cores those checks
    # leave prune their supersets, and the search still reports the cut;
    # without them: 11 candidates
    for depth in (30, 40):
        spec = _pairs_with_deep_negative(depth)
        lines = []
        res = learn(spec, trace=lines.append)
        assert (res.status, res.hypothesis) == ("depth_exceeded", None)
        assert res.stats.pruned > 0 and res.stats.candidates < 11
        deep = len(spec.examples) - 1
        assert deep in [i for i, _ in _cores(lines)]
        _minimal_cores(spec, lines)
    res = learn(_pairs_with_deep_negative(60))
    assert res.ok
    assert res.hypothesis.clauses \
        == learn(builtin_scenario("pairs")).hypothesis.clauses


def _budget(spec, max_steps):
    return spec._replace(options=spec.options._replace(max_steps=max_steps))


def test_learn_reports_budget():
    res = learn(_budget(builtin_scenario("conditionals"), 1000))
    assert res.status == "budget"
    assert res.hypothesis is None
    assert not res.ok
    assert res.stats.meta_steps == 1000


def test_budget_stop_leaves_no_hypothesis_adopted():
    # the stop closes the meta-proof where it is: every adopted instance
    # is dropped again, and no later cap starts
    spec = _budget(builtin_scenario("pairs"), 100)
    engine = _Engine(spec, [e.goal for e in spec.positives()])
    assert list(engine.hypotheses(range(1, 9))) == []
    assert engine.resolver.stopped and engine.resolver.steps == 100
    assert engine.stats.size_reached == 4
    assert engine.hypothesis == engine.invented == {}
    assert engine.adopted and not any(engine.adopted.values())


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("name", builtin_scenario_names())
def test_closing_the_search_leaves_no_hypothesis_adopted(name, k):
    # closed after its k-th hypothesis (or its last, where it has fewer),
    # the meta-proof drops every adopted instance, whether its tail waits
    # on the resolver's stack or was the one being drawn, and the store is
    # as it was
    spec = builtin_scenario(name)
    engine = _Engine(spec, [e.goal for e in spec.positives()])
    search = engine.hypotheses(range(1, spec.options.max_clauses + 1))
    assert list(itertools.islice(search, k))
    search.close()
    assert engine.hypothesis == engine.invented == {}
    assert not any(engine.adopted.values())
    assert engine.store.bindings == {} and engine.store.trail == []


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("name", builtin_scenario_names())
def test_adopted_lists_hold_the_memos_records_of_the_hypothesis(name, k):
    # at each hypothesis the search yields, mid-search, the adopted lists
    # hold one record for each of the hypothesis's metasubs, and that
    # record is the memo's own
    spec = builtin_scenario(name)
    engine = _Engine(spec, [e.goal for e in spec.positives()])
    search = engine.hypotheses(range(1, spec.options.max_clauses + 1))
    hyp = None
    for hyp in itertools.islice(search, k):
        records = [inst for adopted in engine.adopted.values()
                   for inst in adopted]
        assert len(records) == len(engine.hypothesis) == hyp.size
        assert {ms for ms, *_ in records} == engine.hypothesis.keys()
        memo = {id(inst) for instances in engine.memo.values()
                for inst in instances}
        assert all(id(inst) in memo for inst in records)
    search.close()
    assert hyp is not None


def test_meta_prove_runs_under_the_budget():
    spec = _budget(builtin_scenario("pairs"), 20)
    goals = [e.goal for e in spec.positives()]
    assert list(meta_prove(spec, goals)) == []
    assert list(meta_prove(_budget(spec, 10**6), goals))


def test_meta_prove_enumerates_proof_states():
    spec = _spec(SELECTOR.replace("pos(step(sel(a,b),a)).",
                                  "pos(step(sel(a,a),a)).", 1), "states")
    goal = spec.positives()[0].goal
    states = list(itertools.islice(meta_prove(spec, goal), 4))
    texts = [[print_clause(c) for c in s.clauses] for s in states]
    assert ["step(sel(A,B),C) :- left(A,B,C)."] in texts
    assert ["step(sel(A,B),C) :- right(A,B,C)."] in texts
    assert all(len(s.metasubs) == len(s.clauses) for s in states)


@pytest.mark.parametrize("spec", [
    builtin_scenario("pairs"), _budget(builtin_scenario("conditionals"), 1000),
], ids=["found", "budget"])
def test_learn_frees_its_engine_on_return(spec):
    # with the cyclic collector off, an engine outlives `learn` only when a
    # reference cycle holds it, and with it its store, hypothesis and memo
    gc.collect()
    gc.disable()
    try:
        learn(spec)
        assert not [o for o in gc.get_objects() if isinstance(o, _Engine)]
    finally:
        gc.enable()


# ---- chained tasks ----


def test_learn_seq_feeds_induced_clauses_forward():
    t1 = _spec(SELECTOR, "t1")
    t2 = _spec(WRAPPER, "t2")
    seq = learn_seq([t1, t2])
    assert seq.ok
    assert [n for n, _ in seq.results] == ["t1", "t2"]
    assert [print_clause(c) for c in seq.induced] == [
        "step(sel(A,B),C) :- left(A,B,C).",
        "ok(A) :- step(A,B).",
    ]
    # combined program: the first task's background plus all induced rules
    assert len(seq.combined.clauses) == len(t1.bk) + 2
    assert seq.elapsed > 0


def test_learn_seq_stops_at_first_failure():
    # reversed, the wrapper task has no step rules to lean on
    seq = learn_seq([_spec(WRAPPER, "t2"), _spec(SELECTOR, "t1")])
    assert not seq.ok
    assert [(n, r.status) for n, r in seq.results] == [("t2", "exhausted")]
    assert seq.induced == ()
    assert seq.combined is None


def test_learn_seq_empty_is_not_ok():
    seq = learn_seq([])
    assert not seq.ok
    assert seq.combined is None


# ---- bundled scenarios that learn quickly ----


def test_learn_pairs_scenario():
    res = learn(builtin_scenario("pairs"))
    assert res.ok
    assert res.hypothesis.size == 5
    assert sorted(print_clause(c) for c in res.hypothesis.clauses) == sorted([
        "step(fst(pair(A,B)),C) :- left(A,B,C).",
        "step(pair(A,B),pair(C,B)) :- step(A,C).",
        "value(pair(A,B)) :- value(A), value(B).",
        "step(snd(pair(A,B)),C) :- right(A,B,C).",
        "step(pair(V,B),pair(V,C)) :- value(V), step(B,C).",
    ])


def test_learn_lists_scenario():
    res = learn(builtin_scenario("lists"))
    assert res.ok
    assert sorted(print_clause(c) for c in res.hypothesis.clauses) == sorted([
        "step(head(cons(A,B)),C) :- left(A,B,C).",
        "step(tail(cons(A,B)),C) :- right(A,B,C).",
        "step(cons(A,B),cons(C,B)) :- step(A,C).",
        "value(cons(A,B)) :- value(A), value(B).",
        "step(cons(V,B),cons(V,C)) :- value(V), step(B,C).",
        "value(nil).",
    ])


# ---- the metarule index ----

# heads whose first argument is of a kind no bundled head's is: an integer,
# a bare constant, and a fixed functor
EXTRA = tuple(parse_metarules("""
metarule(lit3, [pred(P/2)], ([P,3,A] :- [])).
metarule(bare, [pred(P/2),const(C)], ([P,C,A] :- [])).
metarule(fstpair, [], ([step,[pair,A,B],A] :- [])).
"""))
BUNDLED = {name: spec._replace(metarules=spec.metarules + EXTRA)
           for name in builtin_scenario_names()
           for spec in [builtin_scenario(name)]}
# symbols that no head, background clause or example names
ALIENS = tuple(symbol("alien", n) for n in range(4))


def _functors(spec):
    """Every function symbol of a scenario's pool, background and examples."""
    out = dict.fromkeys(spec.pools().funcs)
    todo = [t for c in spec.bk for a in (c.head, *c.body) for t in a.args]
    todo += [t for e in spec.examples for t in e.goal.args]
    while todo:
        t = todo.pop()
        if isinstance(t, Compound):
            out.setdefault(t.functor)
            todo.extend(t.args)
    return tuple(out)


@st.composite
def _terms(draw, functors, depth=2):
    leaves = [f for f in functors if f.arity == 0]
    kind = draw(st.sampled_from(("var", "int", "compound") if depth or leaves
                                else ("var", "int")))
    if kind == "var":
        return Var(draw(st.integers(1, 4)))
    if kind == "int":
        return Int(draw(st.integers(0, 3)))
    f = draw(st.sampled_from(functors if depth else leaves))
    return Compound(f, tuple(draw(_terms(functors, depth - 1))
                             for _ in range(f.arity)))


@st.composite
def _goals(draw, spec):
    """A goal for one of the scenario's predicates or an invented one, and
    the variable bindings to make before it is asked.  Its first argument
    is unbound, bound through a variable chain, an integer, a constant, a
    compound of a pool arity, or headed by a symbol nothing names."""
    pools = spec.pools()
    functors = _functors(spec)
    preds = (*pools.head_preds, *pools.body_preds,
             *(symbol("pred_1", n) for n in range(4)))
    pred = draw(st.sampled_from(preds))
    args = [draw(_terms(functors + ALIENS)) for _ in range(pred.arity)]
    binds = []
    if args:
        kind = draw(st.sampled_from(
            ("var", "chain", "int", "const", "compound", "alien")))
        if kind == "var":
            args[0] = Var(10)
        elif kind == "chain":
            args[0] = Var(10)
            binds = [(Var(10), Var(11)), (Var(11), draw(_terms(functors)))]
        elif kind == "int":
            args[0] = Int(draw(st.integers(0, 3)))
        elif kind == "const":
            consts = [c for c in pools.consts if isinstance(c, Symbol)]
            args[0] = Compound(draw(st.sampled_from(consts)), ()) \
                if consts else Int(draw(st.sampled_from(pools.consts)))
        else:
            fs = ([f for f in pools.funcs if f.arity] if kind == "compound"
                  else ALIENS)
            f = draw(st.sampled_from(fs))
            args[0] = Compound(f, tuple(draw(_terms(functors))
                                        for _ in range(f.arity)))
    return Compound(pred, tuple(args)), binds


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_metarule_index_keeps_exactly_what_match_head_accepts(name):
    # with every argument but the first unbound, and the first's own
    # arguments too, the first argument's key alone decides `match_head`
    spec = BUNDLED[name]
    engine = _Engine(spec, [])
    pools = spec.pools()
    firsts = [Int(n) for n in range(5)] + [
        Compound(f, tuple(Var(n) for n in range(f.arity)))
        for f in _functors(spec) + ALIENS]
    for pred in (*pools.head_preds, *pools.body_preds):
        for first in firsts:
            goal = Compound(pred, (first, *(Var(10 + n)
                                            for n in range(1, pred.arity))))
            kept = [i for i, _ in engine._metarules(pred, index_key(first))]
            assert kept == [i for i, m in enumerate(spec.metarules)
                            if match_head(m, goal, engine.store) is not None]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_metarule_index_leaves_out_only_what_match_head_rejects(data):
    spec = BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))]
    goal, binds = data.draw(_goals(spec))
    engine = _Engine(spec, [])
    store = engine.store
    for v, t in binds:
        assert store.unify(v, t)
    key = index_key(store.walk(goal.args[0])) if goal.args else None
    kept = [i for i, _ in engine._metarules(goal.functor, key)]
    assert kept == sorted(set(kept))  # spec order
    for i, m in enumerate(spec.metarules):
        if i not in kept:
            assert match_head(m, goal, store) is None, m.name
    # each memo entry carries the head key and invented predicates of its
    # clause
    engine.size_cap = data.draw(st.integers(1, 3))
    for _ in engine._instances(goal, engine._metarules(goal.functor, key)):
        pass
    assert engine.hypothesis == engine.invented == {}
    for (_, _, _, tentative), instances in engine.memo.items():
        for msub, clause, key, new_preds in instances:
            assert key == (index_key(clause.head.args[0]) if clause.head.args
                           else None)
            assert new_preds == tuple(dict.fromkeys(
                b for _, b in msub.bindings
                if isinstance(b, Symbol) and b.name == tentative))
            assert set(new_preds) == {a.functor for a in clause.body
                                      if a.functor.name == tentative}


# ---- cores ----

CORE_MARK = "  core from example "


def _cores(lines):
    """(example index, core clauses) of every core the trace reports."""
    out = []
    for line in lines:
        if line.startswith(CORE_MARK):
            head, _, clauses = line[len(CORE_MARK):].partition(": ")
            out.append((int(head.split()[0]), parse_clauses(clauses)))
    return out


# the verdicts by which an example rejects every superset of a program
MONOTONE = {"neg": (Verdict.PROVED, Verdict.DEPTH_EXCEEDED),
            "nonterm": (Verdict.PROVED,)}


def _rejects_monotonely(spec, clauses, example):
    program = Program(tuple(spec.bk) + tuple(clauses))
    config = SolveConfig(depth_limit=spec.options.depth_limit)
    verdict = solve(program, example.goal, config, default_builtins()).verdict
    return verdict in MONOTONE.get(example.tag, ())


def _minimal_cores(spec, lines):
    """The cores the trace reports, each checked to be rejected monotonely
    by its example while none of its proper subsets is."""
    cores = _cores(lines)
    for index, core in cores:
        example = spec.examples[index]
        assert _rejects_monotonely(spec, core, example)
        for size in range(len(core)):
            for subset in itertools.combinations(core, size):
                assert not _rejects_monotonely(spec, subset, example), subset
    return [(spec.examples[i].tag, core) for i, core in cores]


def test_conditionals_prunes_by_negative_cores():
    spec = builtin_scenario("conditionals")
    lines = []
    res = learn(spec, trace=lines.append)
    assert res.ok
    assert [print_clause(c) for c in res.hypothesis.clauses] == [
        "step(if(A,B),C) :- pred_1(A,B,C).",
        "pred_1(true,A,B) :- step(A,B).",
        "step(thenelse(A,B),C) :- left(A,B,C).",
        "pred_1(false,A,B) :- pred_2(A,B).",
        "pred_2(thenelse(A,B),C) :- right(A,B,C).",
        "step(if(A,B),if(C,B)) :- step(A,C).",
        "value(true).",
        "value(false).",
    ]
    # without pruning: 26 candidates and 67,615 meta-steps
    assert res.stats.candidates < 26
    assert res.stats.meta_steps < 67_615
    assert res.stats.pruned > 0
    cores = _minimal_cores(spec, lines)
    assert cores
    assert {tag for tag, _ in cores} == {"neg"}


def test_lazy_eager_prunes_by_nonterm_cores():
    # every rejected candidate proves the non-terminating example, and so
    # does every superset of it; without cores: 13 candidates, none pruned
    spec = builtin_scenario("lazy_eager")
    lines = []
    res = learn(spec, trace=lines.append)
    assert res.ok
    assert res.stats.candidates < 13
    assert res.stats.pruned > 0
    cores = _minimal_cores(spec, lines)
    assert cores
    assert {tag for tag, _ in cores} == {"nonterm"}


LOOPING = """\
%% background
good(a).
loop(a).
loop(X) :- loop(X).

%% metarules
metarule(wrap, [pred(P/1),pred(Q/1)], ([P,A] :- [[Q,A]])).

%% head
ok/1.

%% body
loop/1.
good/1.

%% examples
pos(ok(a)).
neg(ok(b)).

%% options
max_clauses(1).
depth_limit(20).
"""


@pytest.mark.parametrize("text", [
    LOOPING, LOOPING.replace("loop(a).", "loop(a).\nloop(b)."),
], ids=["cut_by_depth", "proved"])
def test_negative_rejection_records_a_core(text):
    # ok(A) :- loop(A) runs out of depth on ok(b), or proves it once
    # loop(b) is a fact; either way every superset is rejected too
    spec = _spec(text, "looping")
    lines = []
    res = learn(spec, trace=lines.append)
    assert [print_clause(c) for c in res.hypothesis.clauses] \
        == ["ok(A) :- good(A)."]
    assert res.stats.candidates == 2
    assert [(i, [print_clause(c) for c in core]) for i, core in _cores(lines)] \
        == [(1, ["ok(A) :- loop(A)."])]
    _minimal_cores(spec, lines)


# a candidate that proves the negative shrinks to ok(A,B) :- deep(A), which
# the depth bound cuts on it: deep(b) needs five steps to fail
CUT_CORE = """\
%% background
deep(a).
deep(X) :- d1(X).
d1(b) :- d2(b).
d2(b) :- d3(b).
d3(b) :- d4(b).
d4(z).
bad(b).
bad(c).
good(c).

%% metarules
metarule(wrap, [pred(P/2),pred(Q/1)], ([P,A,B] :- [[Q,A]])).

%% head
ok/2.

%% body
deep/1.
bad/1.
good/1.

%% examples
pos(ok(c,x)).
pos(ok(a,x)).
neg(ok(b,x)).

%% options
max_clauses(2).
depth_limit(DEPTH).
"""


def test_a_core_cut_by_depth_reports_the_cut():
    # the first candidate is rejected by a proof and keeps its proved core;
    # the next one, with ``good``, is rejected by a depth cut, and its core
    # prunes the hypothesis a larger bound accepts
    spec = _spec(CUT_CORE.replace("DEPTH", "4"), "cut_core")
    lines = []
    res = learn(spec, trace=lines.append)
    assert (res.status, res.hypothesis) == ("depth_exceeded", None)
    assert (res.stats.candidates, res.stats.pruned) == (2, 1)
    assert [(i, [print_clause(c) for c in core]) for i, core in _cores(lines)] \
        == [(2, ["ok(A,B) :- bad(A)."]), (2, ["ok(A,B) :- deep(A)."])]
    _minimal_cores(spec, lines)
    res = learn(_spec(CUT_CORE.replace("DEPTH", "5"), "cut_core"))
    assert [print_clause(c) for c in res.hypothesis.clauses] \
        == ["ok(A,B) :- good(A).", "ok(A,B) :- deep(A)."]


def test_a_candidate_rejected_by_a_proof_keeps_a_proved_core():
    # {bad, deep} proves the negative; dropping ``bad`` first would leave
    # {deep}, which only the depth bound cuts, so ``deep`` goes instead
    spec = _spec(CUT_CORE.replace("DEPTH", "4"), "cut_core")
    lines = []
    learn(spec, trace=lines.append)
    index, core = _cores(lines)[0]
    assert [print_clause(c) for c in core] == ["ok(A,B) :- bad(A)."]
    program = Program(tuple(spec.bk) + tuple(core))
    out = solve(program, spec.examples[index].goal,
                SolveConfig(depth_limit=4), default_builtins())
    assert out.verdict is Verdict.PROVED


def _first_accepted_unpruned(spec):
    """The first candidate, in `meta_prove` order cap by cap, that treats
    every example as its tag demands."""
    opts = spec.options
    goals = [e.goal for e in spec.positives()]
    seen = set()
    for cap in range(1, opts.max_clauses + 1):
        for cand in meta_prove(spec, goals, size_cap=cap):
            key = frozenset(cand.metasubs)
            if key in seen:
                continue
            seen.add(key)
            program = cand.program(spec.bk)
            if all(check_example(program, e, depth_limit=opts.depth_limit)[0]
                   for e in spec.examples):
                return cand
    return None


@pytest.mark.parametrize("make,found", [
    *[pytest.param(partial(builtin_scenario, n), True, id=n)
      for n in builtin_scenario_names()],
    pytest.param(partial(_spec, LOOPING, "looping"), True, id="looping"),
    pytest.param(partial(_pairs_with_deep_negative, 30), False,
                 id="deep_negative_30"),
    pytest.param(partial(_pairs_with_deep_negative, 60), True,
                 id="deep_negative_60"),
    *[pytest.param(partial(_spec, CUT_CORE.replace("DEPTH", d), "cut_core"),
                   d == "5", id=f"cut_core_{d}") for d in ("4", "5")],
])
def test_learn_agrees_with_the_unpruned_search(make, found):
    # no bundled scenario leaves a core from a check the depth bound cut;
    # looping, deep_negative_30 and cut_core_4 do
    spec = make()
    expected = _first_accepted_unpruned(spec)
    res = learn(spec)
    assert (expected is not None, res.ok) == (found, found)
    assert res.hypothesis == expected


# ---- the failure table ----

CHAIN = ("lazy_eager", "pairs", "lists", "conditionals")
TABLE_SPECS = (*builtin_scenario_names(), *(f"chain_{n}" for n in CHAIN))
# at depths 11 and 13 `conditionals` skips searches the depth bound cut
DEPTHS = (1, 3, 5, 7, 11, 13, None)


@cache
def _table_specs():
    """Every bundled scenario, and the README chain's four tasks, each
    with the background it learns against in the chain."""
    specs = {n: builtin_scenario(n) for n in builtin_scenario_names()}
    seq = learn_seq([specs[n] for n in CHAIN])
    assert seq.ok
    induced = ()
    for name, (_, res) in zip(CHAIN, seq.results):
        specs[f"chain_{name}"] = specs[name]._replace(
            bk=specs[name].bk + induced)
        induced += res.hypothesis.clauses
    return specs


def _at_depth(spec, depth):
    return spec if depth is None else spec._replace(
        options=spec.options._replace(depth_limit=depth))


class _NeverHit(set):
    """A failure table that is filled as the engine's is, and never hits."""

    def __contains__(self, key):
        return False


_ENGINE_INIT = _Engine.__init__


def _untabled_init(self, *args, **kwargs):
    """`_Engine.__init__`, giving the engine a table that never hits."""
    _ENGINE_INIT(self, *args, **kwargs)
    self.failed = _NeverHit()


def _run(spec):
    """The first 100 hypotheses of the meta-proof at each size cap, each
    with the taint flag as it was yielded, and the flag after each cap;
    the meta-steps these took; and `learn`'s result and meta-steps."""
    engine = _Engine(spec, [e.goal for e in spec.positives()])
    hyps = []
    for cap in range(1, spec.options.max_clauses + 1):
        search = engine.hypotheses([cap])
        hyps += [(h, engine.resolver.tainted)
                 for h in itertools.islice(search, 100)]
        search.close()
        hyps.append((cap, engine.resolver.tainted))
    res = learn(spec)
    return (hyps, engine.resolver.steps,
            (res.status, res.hypothesis, res.stats.candidates,
             res.stats.size_reached), res.stats.meta_steps)


def _assert_the_table_is_exact(spec):
    hyps, steps, result, meta_steps = _run(spec)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Engine, "__init__", _untabled_init)
        hyps0, steps0, result0, meta_steps0 = _run(spec)
    assert hyps == hyps0
    assert steps <= steps0
    assert result == result0
    assert meta_steps <= meta_steps0


@pytest.mark.parametrize("depth", DEPTHS, ids=str)
@pytest.mark.parametrize("name", TABLE_SPECS)
def test_the_failure_table_skips_only_searches_that_find_nothing(name, depth):
    # a search from an example on that found nothing at this size cap with
    # these clauses finds nothing again: skipping it drops meta-steps and
    # nothing else
    _assert_the_table_is_exact(_at_depth(_table_specs()[name], depth))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_the_failure_table_is_exact_in_any_example_order(data):
    spec = _table_specs()[data.draw(st.sampled_from(TABLE_SPECS))]
    examples = data.draw(st.permutations(spec.examples))
    spec = _at_depth(spec._replace(examples=tuple(examples)),
                     data.draw(st.sampled_from(DEPTHS)))
    _assert_the_table_is_exact(spec)
