"""Learner tests: example checking, the size-deepening search, chained
tasks, and the bundled scenarios that are cheap enough to learn here."""

import itertools
from dataclasses import replace

import pytest

from milsem.learn import (
    Hypothesis,
    check_example,
    invented_base,
    learn,
    learn_seq,
    meta_prove,
)
from milsem.scenario import (
    Example,
    builtin_scenario,
    builtin_scenario_names,
    parse_scenario,
)
from milsem.solver import SolveConfig, Verdict, solve
from milsem.terms import Program
from milsem.textio import parse_clauses, parse_term, print_clause

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
    # running out of depth is ambiguous; the policy decides
    assert not check_example(LOOPY, _ex("neg", "q(a)"), depth_limit=8)[0]
    assert check_example(LOOPY, _ex("neg", "q(a)"), depth_limit=8,
                         neg_depth_policy="accept")[0]


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
    assert str(h) == "value(nil).\nvalue(true)."
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
    capped = learn(replace(spec, options=replace(spec.options, max_clauses=1)))
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
    return replace(spec, options=replace(spec.options, depth_limit=1))


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
    return replace(spec, examples=spec.examples + (neg,),
                   options=replace(spec.options, depth_limit=depth))


def test_learn_reports_a_rejection_cut_by_depth():
    # at depth 30 the pairs hypothesis is rejected only by the deep
    # negative, whose check runs out of depth under the reject policy, so
    # a larger bound may find it, and at 60 it does
    for depth in (30, 40):
        res = learn(_pairs_with_deep_negative(depth))
        assert (res.status, res.hypothesis) == ("depth_exceeded", None)
    res = learn(_pairs_with_deep_negative(60))
    assert res.ok
    assert res.hypothesis.clauses \
        == learn(builtin_scenario("pairs")).hypothesis.clauses


def test_learn_reports_timeout():
    spec = builtin_scenario("conditionals")
    res = learn(replace(spec, options=replace(spec.options, timeout=0.001)))
    assert res.status == "timeout"
    assert res.hypothesis is None
    assert not res.ok


def test_meta_prove_enumerates_proof_states():
    spec = _spec(SELECTOR.replace("pos(step(sel(a,b),a)).",
                                  "pos(step(sel(a,a),a)).", 1), "states")
    goal = spec.positives()[0].goal
    states = list(itertools.islice(meta_prove(spec, goal), 4))
    texts = [[print_clause(c) for c in s.clauses] for s in states]
    assert ["step(sel(A,B),C) :- left(A,B,C)."] in texts
    assert ["step(sel(A,B),C) :- right(A,B,C)."] in texts
    assert all(len(s.metasubs) == len(s.clauses) for s in states)


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


# ---- negative cores ----

CORE_MARK = "  core from example "


def _cores(lines):
    """(example index, core clauses) of every core the trace reports."""
    out = []
    for line in lines:
        if line.startswith(CORE_MARK):
            head, _, clauses = line[len(CORE_MARK):].partition(": ")
            out.append((int(head.split()[0]), parse_clauses(clauses)))
    return out


def _proves(spec, clauses, goal):
    program = Program(tuple(spec.bk) + tuple(clauses))
    config = SolveConfig(depth_limit=spec.options.depth_limit)
    return solve(program, goal, config).verdict is Verdict.PROVED


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
    cores = _cores(lines)
    assert cores
    for index, core in cores:
        example = spec.examples[index]
        assert example.tag == "neg"
        assert _proves(spec, core, example.goal)
        for size in range(len(core)):
            for subset in itertools.combinations(core, size):
                assert not _proves(spec, subset, example.goal), subset


def test_nonterm_rejections_record_no_core():
    lines = []
    res = learn(builtin_scenario("lazy_eager"), trace=lines.append)
    assert res.ok
    assert res.stats.candidates == 13
    assert res.stats.pruned == 0
    assert _cores(lines) == []


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


def test_negative_cut_by_depth_records_no_core():
    # ok(A) :- loop(A) runs out of depth on ok(b), which the default
    # reject policy counts as a rejection; only a proof gives a core
    lines = []
    res = learn(_spec(LOOPING, "looping"), trace=lines.append)
    assert [print_clause(c) for c in res.hypothesis.clauses] \
        == ["ok(A) :- good(A)."]
    assert res.stats.candidates == 2
    assert _cores(lines) == []
    # the same rejection by a proof does record one
    proving = LOOPING.replace("loop(a).", "loop(a).\nloop(b).")
    lines = []
    res = learn(_spec(proving, "proving"), trace=lines.append)
    assert [print_clause(c) for c in res.hypothesis.clauses] \
        == ["ok(A) :- good(A)."]
    assert [(i, [print_clause(c) for c in core]) for i, core in _cores(lines)] \
        == [(1, ["ok(A) :- loop(A)."])]


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
            if all(check_example(program, e, depth_limit=opts.depth_limit,
                                 neg_depth_policy=opts.neg_depth_policy)[0]
                   for e in spec.examples):
                return cand
    return None


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_learn_agrees_with_the_unpruned_search(name):
    spec = builtin_scenario(name)
    expected = _first_accepted_unpruned(spec)
    res = learn(spec)
    assert expected is not None and res.ok
    assert res.hypothesis.metasubs == expected.metasubs
    assert res.hypothesis.clauses == expected.clauses
