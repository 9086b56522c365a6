import itertools
import random
import sys
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from milsem import solver
from milsem.solver import (
    BuiltinError,
    BuiltinTable,
    Resolver,
    SolveConfig,
    Verdict,
    solve,
)
from milsem.terms import (
    Clause,
    Compound,
    FreshVars,
    Int,
    Program,
    Var,
    const,
    mk,
    symbol,
    term_vars,
    var,
)
from milsem.textio import parse_clauses, parse_term

ALL = SolveConfig(max_solutions=None)  # every answer within budget


def _program(text):
    return Program(parse_clauses(text))


# ============================================================
# Oracle: least model by ground forward chaining
# ============================================================
# Function-free programs over a tiny constant universe have a finite
# Herbrand base, so the model can be computed exactly and compared with
# what the resolution search proves.

def ground_instances(clause, universe):
    vids = list(dict.fromkeys(v for a in (clause.head, *clause.body)
                              for v in term_vars(a)))
    for combo in itertools.product(universe, repeat=len(vids)):
        s = dict(zip(vids, combo))

        def g(t):
            return s.get(t.id, t) if hasattr(t, "id") else t

        head = Compound(clause.head.functor, tuple(g(t) for t in clause.head.args))
        body = tuple(Compound(b.functor, tuple(g(t) for t in b.args))
                     for b in clause.body)
        yield head, body


def least_model(clauses, universe):
    """The model plus, per fact, an upper bound on its derivation size.

    The size bound tells the test how much solver budget a proof can
    need; searching far beyond it just feeds loops.
    """
    grounded = [gi for c in clauses for gi in ground_instances(c, universe)]
    sizes = {}
    changed = True
    while changed:
        changed = False
        for head, body in grounded:
            if all(b in sizes for b in body):
                size = 1 + sum(sizes[b] for b in body)
                if head not in sizes or size < sizes[head]:
                    sizes[head] = size
                    changed = True
    return sizes


def random_program(rng):
    universe = [const("a"), const("b")]
    preds = [symbol("p", 1), symbol("q", 1), symbol("r", 2)]
    vs = [var("RX"), var("RY")]

    def rand_atom(allow_vars=True):
        pred = rng.choice(preds)
        pool = universe + (vs if allow_vars else [])
        return Compound(pred, tuple(rng.choice(pool)
                                for _ in range(pred.arity)))

    clauses = []
    for _ in range(rng.randint(2, 6)):
        head = rand_atom()
        body = tuple(rand_atom() for _ in range(rng.randint(0, 2)))
        clauses.append(Clause(head, body))
    return clauses, universe, preds


def herbrand_base(preds, universe):
    for pred in preds:
        for combo in itertools.product(universe, repeat=pred.arity):
            yield Compound(pred, tuple(combo))


def check_against_oracle(rng, rounds):
    checked = 0
    for _ in range(rounds):
        clauses, universe, preds = random_program(rng)
        sizes = least_model(clauses, universe)
        # depth covers every derivation; loops get only a thin margin
        # beyond it because backtracking cost grows with the budget
        depth = max(sizes.values(), default=0) + 4
        program = Program(tuple(clauses))
        for q in herbrand_base(preds, universe):
            out = solve(program, q, SolveConfig(depth_limit=depth))
            if q in sizes:
                assert out.proved, f"{q} in model but not proved"
            else:
                assert not out.proved, f"{q} proved but not in model"
            checked += 1
    return checked


def test_agrees_with_least_model_oracle():
    assert check_against_oracle(random.Random(7), 200) > 1000


def test_depth_monotonicity_on_random_programs():
    # proofs never disappear when the budget grows, and finite failure
    # never turns into anything else
    rng = random.Random(23)
    for _ in range(300):
        clauses, universe, preds = random_program(rng)
        program = Program(tuple(clauses))
        q = rng.choice(list(herbrand_base(preds, universe)))
        prev = None
        # small budgets only: backtracking over a loopy random program
        # costs exponential time in the budget
        for depth in (1, 2, 3, 4, 6, 8):
            out = solve(program, q, SolveConfig(depth_limit=depth))
            if prev is Verdict.PROVED:
                assert out.verdict is Verdict.PROVED, f"{q} at {depth}"
            if prev is Verdict.FINITE_FAILURE:
                assert out.verdict is Verdict.FINITE_FAILURE, f"{q} at {depth}"
            prev = out.verdict


# ============================================================
# Verdicts
# ============================================================

def test_fact_proves():
    p = _program("p(a).")
    out = solve(p, parse_term("p(a)"))
    assert out.proved
    assert out.answer == {}


def test_answer_bindings():
    p = _program("p(f(a)).")
    out = solve(p, parse_term("p(X)"))
    assert out.answer == {var("X").id: mk("f", const("a"))}


def test_finite_failure():
    p = _program("p(a).")
    out = solve(p, parse_term("p(b)"))
    assert out.verdict is Verdict.FINITE_FAILURE


def test_undefined_predicate_fails_finitely():
    p = _program("p(a).")
    out = solve(p, parse_term("q(a)"))
    assert out.verdict is Verdict.FINITE_FAILURE


def test_depth_exceeded_on_loop():
    p = _program("p(X) :- p(X).")
    out = solve(p, parse_term("p(a)"), SolveConfig(depth_limit=50))
    assert out.verdict is Verdict.DEPTH_EXCEEDED


def test_proof_beats_taint():
    # one looping clause plus one good one: the loop taints a branch but
    # the proof is still found
    p = _program("p(X) :- p(X).\np(a).")
    out = solve(p, parse_term("p(a)"), SolveConfig(depth_limit=50))
    assert out.proved


def test_taint_is_exact_at_the_boundary():
    # p(a) requires two applications: budget 1 is genuinely short,
    # but a query that cannot match any head at all must stay finite
    p = _program("p(X) :- q(X).\nq(a).")
    out = solve(p, parse_term("p(a)"), SolveConfig(depth_limit=1))
    assert out.verdict is Verdict.DEPTH_EXCEEDED
    out = solve(p, parse_term("r(a)"), SolveConfig(depth_limit=1))
    assert out.verdict is Verdict.FINITE_FAILURE
    assert solve(p, parse_term("p(a)"), SolveConfig(depth_limit=2)).proved


def test_budget_threads_through_conjunctions():
    # proving q twice costs two applications plus the rule itself
    p = _program("p :- q, q.\nq.")
    assert solve(p, parse_term("p"), SolveConfig(depth_limit=3)).proved
    out = solve(p, parse_term("p"), SolveConfig(depth_limit=2))
    assert out.verdict is Verdict.DEPTH_EXCEEDED


def test_conjunction_query():
    p = _program("p(a).\nq(a).\nq(b).")
    resolver, source = _resolver(p)
    proofs = resolver.run([parse_term("p(X)"), parse_term("q(X)")], 2, source)
    assert next(proofs, False) is None  # one proof, X bound in the store
    assert resolver.store.resolve(var("X")) == const("a")
    assert next(proofs, False) is False


def test_clause_order_respected():
    p = _program("pick(first).\npick(second).")
    outs = solve(p, parse_term("pick(X)"), ALL)
    assert [a[var("X").id] for a in outs.answers] \
        == [const("first"), const("second")]


def test_solve_all_completeness_flag():
    p = _program("p(a).\np(X) :- loop(X).\nloop(X) :- loop(X).")
    outs = solve(p, parse_term("p(X)"),
                 SolveConfig(depth_limit=30, max_solutions=None))
    assert [a[var("X").id] for a in outs.answers] == [const("a")]
    assert not outs.complete  # the loop ran out of budget somewhere
    p = _program("p(a).\np(b).")
    outs = solve(p, parse_term("p(X)"), ALL)
    assert outs.complete


def test_solve_all_loop_rederives_answers():
    # a self-recursive clause over a fact legitimately re-proves the
    # same answer once per budget level, as resolution should
    p = _program("p(a).\np(X) :- p(X).")
    outs = solve(p, parse_term("p(X)"),
                 SolveConfig(depth_limit=10, max_solutions=None))
    assert set(a[var("X").id] for a in outs.answers) == {const("a")}
    assert len(outs.answers) == 10
    assert not outs.complete


def test_solve_all_max_solutions():
    p = _program("n(1).\nn(2).\nn(3).")
    outs = solve(p, parse_term("n(X)"), SolveConfig(max_solutions=2))
    assert len(outs.answers) == 2
    assert not outs.complete


def test_solve_stops_at_the_first_proof_by_default():
    p = _program("n(1).\nn(2).\nn(3).")
    first = solve(p, parse_term("n(X)"))
    assert first.answers == [{var("X").id: Int(1)}] and first.proved
    assert first.answer == first.answers[0]
    assert not first.complete
    every = solve(p, parse_term("n(X)"), ALL)
    assert [a[var("X").id] for a in every.answers] == [Int(1), Int(2), Int(3)]
    assert every.proved and every.complete
    # each proof is one step deep
    assert solve(p, parse_term("n(X)"), SolveConfig(
        depth_limit=1, max_solutions=None)).answers == every.answers
    assert (first.steps, every.steps) == (1, 3)
    none = solve(p, parse_term("n(4)"), ALL)
    assert (none.verdict, none.answers, none.answer, none.complete) == (
        Verdict.FINITE_FAILURE, [], None, True)


def test_solve_stops_at_the_first_answer_that_is_not_ground():
    p = _program("p(a).\np(f(X)).\np(b).")
    outs = solve(p, parse_term("p(Y)"), ALL)
    y = var("Y").id
    assert [a[y] for a in outs.answers[:1]] == [const("a")]
    assert outs.answers[1][y].functor.name == "f"
    assert len(outs.answers) == 2 and outs.proved and not outs.complete
    # an unbound query variable is not ground either
    outs = solve(_program("p(a).\np(_).\np(b)."), parse_term("p(Y)"), ALL)
    assert outs.answers == [{y: const("a")}, {}] and not outs.complete
    outs = solve(_program("p(a).\np(b)."), parse_term("p(Y)"), ALL)
    assert len(outs.answers) == 2 and outs.complete


def test_solve_stops_at_a_multiple_of_the_first_proofs_steps():
    p = _program("n(z).\nn(s(N)) :- n(N).")
    q = parse_term("n(X)")
    unbounded = solve(p, q, SolveConfig(depth_limit=40, max_solutions=None))
    assert len(unbounded.answers) == 40
    outs = solve(p, q, SolveConfig(depth_limit=40, max_solutions=None,
                                   step_ratio=3))
    # the first proof takes one step, so the search stops at three
    x = var("X").id
    assert [a[x] for a in outs.answers] == [a[x] for a in unbounded.answers[:2]]
    assert (outs.verdict, outs.steps, outs.complete) == (
        Verdict.PROVED, 3, False)
    roomy = solve(_program("n(z).\nn(s(z))."), q,
                  SolveConfig(max_solutions=None, step_ratio=3))
    assert len(roomy.answers) == 2 and roomy.complete


def test_first_argument_indexing_skips_clauses():
    # same query against a program with many inapplicable clauses takes
    # no extra steps thanks to the functor prefilter
    few = _program("p(f(a)).")
    many = _program(
        "".join(f"p(g{i}(a)).\n" for i in range(50)) + "p(f(a)).")
    q = parse_term("p(f(X))")
    assert solve(few, q).steps == solve(many, q).steps


# ============================================================
# Builtins
# ============================================================

def _int_add(store, args):
    a, b, c = args
    a, b = store.resolve(a), store.resolve(b)
    if not (isinstance(a, Int) and isinstance(b, Int)):
        return False
    return store.unify(c, Int(a.value + b.value))


def _table(**fns):
    t = BuiltinTable()
    for name_arity, fn in fns.items():
        name, arity = name_arity.rsplit("_", 1)
        t.register(symbol(name, int(arity)), fn)
    return t


def test_builtin_call():
    t = _table(plus_3=_int_add)
    p = _program("double(X,Y) :- plus(X,X,Y).")
    out = solve(p, parse_term("double(4,Y)"), builtins=t)
    assert out.answer == {var("Y").id: Int(8)}


def test_builtin_failure_is_finite():
    t = _table(plus_3=_int_add)
    p = _program("bad(Y) :- plus(a,b,Y).")
    out = solve(p, parse_term("bad(Y)"), builtins=t)
    assert out.verdict is Verdict.FINITE_FAILURE


def _plus(store, args):
    # deterministic builtin: a bool, no choice point
    a, b = store.resolve(args[0]), store.resolve(args[1])
    if isinstance(a, Int) and isinstance(b, Int):
        return store.unify(args[2], Int(a.value + b.value))
    if a == const("boom"):
        raise BuiltinError("plus/3: boom")
    return False


def test_bool_builtin_call():
    t = _table(plus_3=_plus)
    p = _program("double(X,Y) :- plus(X,X,Y).")
    out = solve(p, parse_term("double(4,Y)"), builtins=t)
    assert out.answer == {var("Y").id: Int(8)}
    assert out.steps == 2


def test_bool_builtin_false_fails_finitely():
    t = _table(plus_3=_plus)
    p = _program("bad(Y) :- plus(a,b,Y).\nbad(Y) :- plus(1,c,Y).")
    out = solve(p, parse_term("bad(Y)"), builtins=t)
    assert out.verdict is Verdict.FINITE_FAILURE
    assert out.steps == 4


def test_bool_builtin_error_aborts():
    t = _table(plus_3=_plus)
    p = _program("bad(Y) :- plus(1,1,X), plus(boom,X,Y).\nbad(2).")
    with pytest.raises(BuiltinError, match="boom"):
        solve(p, parse_term("bad(Y)"), builtins=t)


def test_bool_builtin_bindings_undone_on_backtracking():
    # the first pick binds Y through the builtin, then fails on ok/1;
    # the second must see Y unbound again
    t = _table(plus_3=_plus)
    p = _program("pick(1).\npick(2).\nok(4).\n"
                      "t(Y) :- pick(X), plus(X,X,Y), ok(Y).")
    outs = solve(p, parse_term("t(Y)"), ALL, builtins=t)
    assert [a[var("Y").id] for a in outs.answers] == [Int(4)]
    assert outs.complete


def test_bool_builtin_taints_at_budget_zero_only():
    t = _table(plus_3=_plus)
    p = _program("p(Y) :- plus(1,2,Y).\nq(Y) :- plus(a,2,Y).")
    assert solve(p, parse_term("p(Y)"), SolveConfig(depth_limit=1),
                 builtins=t).verdict is Verdict.DEPTH_EXCEEDED
    assert solve(p, parse_term("p(Y)"), SolveConfig(depth_limit=2),
                 builtins=t).proved
    assert solve(p, parse_term("q(Y)"), SolveConfig(depth_limit=2),
                 builtins=t).verdict is Verdict.FINITE_FAILURE


def _resolver(program, builtins=None):
    resolver = Resolver(builtins, FreshVars())
    return resolver, resolver.program_source(program)


def test_taint_is_exact_for_a_last_bucket_clause():
    # p's only clause is its bucket's last, so p leaves no choice point;
    # at budget 0 the probe must still find q's last clause, and only it.
    # p(g(a)) selects no clause: q has no head that g keys
    p = _program("p(X) :- q(X).\nq(f(b)).\nq(f(a)).")
    for query, tainted, steps in (("p(f(a))", True, 1), ("p(f(c))", False, 1),
                                  ("p(g(a))", False, 0)):
        resolver, source = _resolver(p)
        assert list(resolver.run([parse_term(query)], 1, source)) == []
        assert (resolver.tainted, resolver.steps) == (tainted, steps), query


def test_a_clause_whose_first_body_goal_selects_nothing_does_not_taint():
    # p's clause is filed only under q's head key b, so at budget 0 the
    # goal p(a) has no clause that the budget cuts short: the search is
    # complete, where entering the clause would have shown q(a) failing
    p = _program("p(X) :- q(X).\nq(b).")
    out = solve(p, parse_term("p(a)"), SolveConfig(depth_limit=0,
                                                   max_solutions=None))
    assert (out.verdict, out.complete) == (Verdict.FINITE_FAILURE, True)
    out = solve(p, parse_term("p(b)"), SolveConfig(depth_limit=0,
                                                   max_solutions=None))
    assert (out.verdict, out.complete) == (Verdict.DEPTH_EXCEEDED, False)


def test_store_is_empty_after_run_is_exhausted():
    t = _table(plus_3=_plus)
    p = _program("pick(1).\npick(2).\nok(3).\nok(4).\n"
                      "t(Z) :- pick(X), plus(X,X,Y), ok(Y), plus(Y,1,Z).")
    resolver, source = _resolver(p, t)
    store = resolver.store
    assert len(list(resolver.run([parse_term("t(Z)")], 20, source))) == 1
    assert store.bindings == {} and store.trail == []


def test_run_restores_the_store_with_lone_and_shared_buckets():
    # pick's bucket holds two clauses; each first argument of link picks
    # one clause, which the resolver tries without a choice point
    p = _program("pick(a).\npick(b).\n"
                 "link(a, f(X)) :- pick(X).\nlink(b, g(X)) :- pick(X).\n"
                 "t(X, Y) :- pick(X), link(X, Y).")
    query = [parse_term("t(X, Y)")]

    def fresh():
        # the store already holds a binding when the run starts
        resolver, source = _resolver(p)
        assert resolver.store.unify(var("W"), const("c"))
        before = (dict(resolver.store.bindings), list(resolver.store.trail))
        return resolver, source, before

    def store_of(resolver):
        return resolver.store.bindings, resolver.store.trail

    resolver, source, before = fresh()
    assert len(list(resolver.run(query, 10, source))) == 4
    assert store_of(resolver) == before and not resolver.tainted
    # a search whose last step is the last one allowed is not stopped
    steps = resolver.steps
    resolver, source, before = fresh()
    resolver.max_steps = steps
    assert len(list(resolver.run(query, 10, source))) == 4
    assert not (resolver.tainted or resolver.stopped)
    # stopped in a shared bucket (pick) and in a lone one (link)
    for max_steps in (2, 3):
        resolver, source, before = fresh()
        resolver.max_steps = max_steps
        assert list(resolver.run(query, 10, source)) == []
        assert store_of(resolver) == before and resolver.tainted
        assert resolver.steps == max_steps and resolver.stopped
    for answers in (1, 3):
        resolver, source, before = fresh()
        run = resolver.run(query, 10, source)
        for _ in range(answers):
            next(run)
        assert store_of(resolver) != before
        run.close()
        assert store_of(resolver) == before
    # at budget 0 a goal whose bucket is one clause still taints, and
    # only when that clause's head unifies
    for goal, tainted in (("link(a, Y)", True), ("link(a, g(Y))", False),
                          ("link(c, Y)", False)):
        resolver, source, before = fresh()
        assert list(resolver.run([parse_term(goal)], 0, source)) == []
        assert resolver.tainted is tainted, goal
        assert store_of(resolver) == before


def test_deterministic_derivation_holds_no_choice_points():
    # at each of 20,000 steps the first argument picks one clause, or a
    # bucket of two whose first fails on the second argument, so each goal
    # takes its last alternative and leaves nothing behind
    t = const("z")
    for _ in range(20000):
        t = mk("s", t)
    for text, args in [
        ("count(z).\ncount(s(N)) :- count(N).", (t,)),
        ("walk(z,b).\nwalk(s(N),a) :- walk(N,a).\n"
         "walk(s(N),b) :- walk(N,b).", (t, const("b"))),
    ]:
        p = _program(text)
        goal = Compound(p.clauses[0].head.functor, args)
        tracemalloc.start()
        try:
            out = solve(p, goal, SolveConfig(depth_limit=30000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.proved and out.steps == 20001, text
        assert peak < 1_000_000, text


def test_builtin_clause_clash_rejected():
    t = _table(plus_3=_int_add)
    p = _program("plus(a,b,c).")
    with pytest.raises(BuiltinError, match="plus/3"):
        solve(p, parse_term("plus(a,b,C)"), builtins=t)


def test_builtin_generator_rejected():
    # one protocol: a builtin returns a bool, it does not yield solutions
    def choice(store, args):
        yield

    with pytest.raises(ValueError, match="returns a bool"):
        BuiltinTable().register(symbol("choice", 1), choice)


class _Choices:
    def choice(self, store, args):
        yield

    def check(self, store, args):
        return True


@pytest.mark.parametrize("wrap", [
    lambda f: partial(f, None),
    lambda f: partial(partial(f), None),
    lambda f: _Choices().choice,
    lambda f: partial(_Choices().choice),
], ids=["partial", "nested_partial", "bound_method", "partial_of_method"])
def test_wrapped_builtin_generator_rejected(wrap):
    def choice(unused, store, args):
        yield

    with pytest.raises(ValueError, match="returns a bool"):
        BuiltinTable().register(symbol("choice", 1), wrap(choice))


def test_wrapped_builtin_function_accepted():
    t = BuiltinTable()
    t.register(symbol("f", 1), partial(lambda unused, store, args: True, None))
    t.register(symbol("g", 1), _Choices().check)
    assert len(t.predicates()) == 2


def test_builtin_duplicate_registration_rejected():
    t = BuiltinTable()
    t.register(symbol("f", 1), _plus)
    with pytest.raises(ValueError):
        t.register(symbol("f", 1), _plus)


# ============================================================
# Deep recursion
# ============================================================

def test_deep_chain_does_not_hit_python_limit():
    # linear recursion a few thousand frames deep; the term is built
    # directly because the recursive-descent parser has its own limits
    limit = sys.getrecursionlimit()
    p = _program(
        "count(z).\ncount(s(N)) :- count(N).")
    t = const("z")
    for _ in range(3000):
        t = mk("s", t)
    out = solve(p, Compound(symbol("count", 1), (t,)),
                SolveConfig(depth_limit=5000))
    assert out.proved
    # the resolver keeps its own stack instead of raising Python's limit
    assert sys.getrecursionlimit() == limit


# ============================================================
# Loop check
# ============================================================
# `solve` cuts a goal whose resolvent repeats the watched one's.  The
# cut must change nothing but the work done: a run with the check and one
# without give the same verdict and the same answers, up to renaming.
# The step counts of loops that `milsem run` cuts are pinned in
# tests/test_counters.py::test_run_steps.

_PREDS = [symbol("p", 1), symbol("q", 1), symbol("r", 2)]
_F = symbol("f", 1)
# ground first arguments: for keyed heads, and to query every head with
_GROUND = [const("a"), const("b"), const("c"), mk("f", const("a")),
           mk("f", const("b"))]


@st.composite
def _terms(draw, depth=1):
    pick = draw(st.integers(0, 5 if depth else 4))
    if pick < 2:
        return const("ab"[pick])
    if pick < 5:
        return var("XYZ"[pick - 2])
    return Compound(_F, (draw(_terms(depth - 1)),))


@st.composite
def _atoms(draw):
    pred = draw(st.sampled_from(_PREDS))
    return Compound(pred, tuple(draw(_terms()) for _ in range(pred.arity)))


@st.composite
def _clauses(draw, keyed=False):
    """A clause; with ``keyed``, its head's first argument is less often a
    variable."""
    head = draw(_atoms())
    if keyed and isinstance(head.args[0], Var) and draw(st.booleans()):
        head = Compound(head.functor, (draw(st.sampled_from(_GROUND)),
                                       *head.args[1:]))
    body = draw(st.lists(_atoms(), max_size=1))
    if body and draw(st.booleans()):
        # a first body goal whose first argument is the variable that is
        # the head's first argument or that argument's own: `Program`
        # files such a clause by what the goal can select
        v = draw(st.sampled_from([var("X"), var("Y")]))
        first = draw(st.sampled_from([v, Compound(_F, (v,))]))
        head = Compound(head.functor, (first, *head.args[1:]))
        body[0] = Compound(body[0].functor, (v, *body[0].args[1:]))
    if draw(st.booleans()):
        # a last call to the head's own predicate on arguments of the
        # head: often a loop
        args = st.sampled_from(head.args)
        body.append(Compound(head.functor, tuple(
            draw(args) for _ in head.args)))
    return Clause(head, tuple(body))


@st.composite
def _programs(draw, keyed=False):
    """Small programs over p/1, q/1, r/2 and f/1: loops are common."""
    return Program(tuple(draw(st.lists(_clauses(keyed), min_size=1,
                                       max_size=5))))


def _canon(t, names):
    """A term with its variables numbered by first occurrence."""
    if isinstance(t, Var):
        return names.setdefault(t.id, len(names))
    return (t.functor, tuple(_canon(a, names) for a in t.args))


def _answers(program, goals, budget, loop_check):
    """The resolver and the answers of an exhaustive run, in proof order,
    each answer the query variables' values under `_canon`; None when the
    run takes too long to compare."""
    resolver, source = _resolver(program)
    resolver.max_steps = 20_000
    qvars = list(dict.fromkeys(v for g in goals for v in term_vars(g)))
    answers = []
    for _ in resolver.run(goals, budget, source, loop_check=loop_check):
        names = {}
        answers.append(tuple(_canon(resolver.store.resolve(Var(v)), names)
                             for v in qvars))
    return None if resolver.stopped else (resolver, answers)


def _outcome(program, goals, budget, loop_check):
    """The taint flag and the set of answers of an exhaustive run; None
    when the run takes too long to compare."""
    run = _answers(program, goals, budget, loop_check)
    return run and (run[0].tainted, set(run[1]))


@st.composite
def _queries(draw, keyed=False):
    """A program and a query whose first goal is some clause's head."""
    program = draw(_programs(keyed))
    heads = [c.head for c in program.clauses]
    goals = [draw(st.sampled_from(heads))]
    return program, goals + draw(st.lists(_atoms(), max_size=1))


@settings(max_examples=200, deadline=None)
@given(_queries(), st.integers(1, 10), st.integers(1, 4))
def test_loop_check_keeps_verdicts_and_answers(query, budget, first_watch):
    program, goals = query
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "FIRST_WATCH", first_watch)
        cut = _outcome(program, goals, budget, True)
    full = _outcome(program, goals, budget, False)
    if full is not None:
        # the verdict follows from the answers and the taint flag
        assert cut == full


@settings(max_examples=100, deadline=None)
@given(_queries(keyed=True), st.integers(0, 10))
def test_dropped_clauses_change_only_steps_and_taint(query, budget):
    # with every predicate open, `Program` files each clause by its head
    # alone; closed, it drops clauses whose first body goal would select
    # nothing, which can only save steps and spare a cut at budget 0.
    # Each head is queried as drawn and with each ground first argument
    program, goals = query
    reference = Program(program.clauses, open_preds=_PREDS)
    for head in dict.fromkeys(c.head for c in program.clauses):
        for first in [head.args[0], *_GROUND]:
            q = [Compound(head.functor, (first, *head.args[1:])), *goals[1:]]
            ref = _answers(reference, q, budget, False)
            if ref is None:
                continue
            got = _answers(program, q, budget, False)
            assert got[1] == ref[1], q
            assert got[0].steps <= ref[0].steps
            assert ref[0].tainted or not got[0].tainted


def test_loop_check_is_off_by_default():
    # the learner's runs leave it off: there the loop spends the budget
    p = _program("p(X) :- p(X).")
    resolver, source = _resolver(p)
    assert list(resolver.run([parse_term("p(a)")], 200, source)) == []
    assert resolver.tainted and resolver.steps == 200
    # solve watches the goal selected once 64 steps are taken, and cuts
    # the next one
    out = solve(p, parse_term("p(a)"), SolveConfig(depth_limit=200))
    assert (out.verdict, out.complete, out.steps) == (
        Verdict.DEPTH_EXCEEDED, False, 65)


def test_a_loop_below_a_conjunction_spends_its_budget():
    # each p(X) has a longer continuation than the one before, q(X) still
    # to come, so no resolvent repeats
    p = _program("p(X) :- p(X), q(X).\nq(a).")
    out = solve(p, parse_term("p(a)"), SolveConfig(depth_limit=500))
    assert (out.verdict, out.steps) == (Verdict.DEPTH_EXCEEDED, 500)


def test_a_goal_reached_after_backtracking_past_the_watch_is_not_cut(
        monkeypatch):
    # with the first watch at one step, t is watched under q's first
    # clause and fails below it; q's second clause selects t again with
    # the same (empty) continuation, but in another branch, which must be
    # searched.  Cut, t would taint the run: its clause admits it
    monkeypatch.setattr(solver, "FIRST_WATCH", 1)
    p = _program("q :- p(a).\nq :- s(a).\np(X) :- m, s(X).\nm.\ns(b).\n"
                 "s(a) :- t.\nt :- u.")
    out = solve(p, parse_term("q"), ALL)
    assert (out.verdict, out.complete, out.steps) == (
        Verdict.FINITE_FAILURE, True, 8)


def test_a_goal_that_renames_a_shared_variable_is_not_cut(monkeypatch):
    # p(X) is watched after the first step; p(Z) below it is a variant,
    # but the continuation s(X) shares X with the one and not the other
    monkeypatch.setattr(solver, "FIRST_WATCH", 1)
    p = _program("top(X) :- p(X), s(X).\np(X) :- p(Z).\np(a).\ns(b).")
    out = solve(p, parse_term("top(X)"), SolveConfig(depth_limit=4))
    assert out.proved and out.answer == {var("X").id: const("b")}


def test_a_goal_whose_shared_term_was_bound_since_is_not_cut(monkeypatch):
    # p(f(X)) is watched at the second step; q binds X to a, and p(Y)
    # then meets the very same term f(X): equal to the watched goal now,
    # but only an instance of it as it was when selected.  The answer
    # X = a is found below it and nowhere else
    monkeypatch.setattr(solver, "FIRST_WATCH", 2)
    p = _program("top(X) :- s, p(f(X)).\ns.\np(Y) :- q(Y), p(Y).\n"
                 "p(f(Z)).\nq(f(a)).")
    out = solve(p, parse_term("top(X)"), ALL)
    assert [a.get(var("X").id) for a in out.answers] == [const("a"), None]
