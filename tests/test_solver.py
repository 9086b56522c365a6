import itertools
import random
import sys
import tracemalloc

import pytest

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
    const,
    mk,
    symbol,
    term_vars,
    var,
)
from milsem.textio import parse_atom, parse_program

ALL = SolveConfig(max_solutions=None)  # every answer within budget


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
    p = parse_program("p(a).")
    out = solve(p, parse_atom("p(a)"))
    assert out.proved
    assert out.answer == {}


def test_answer_bindings():
    p = parse_program("p(f(a)).")
    out = solve(p, parse_atom("p(X)"))
    assert out.answer == {var("X").id: mk("f", const("a"))}


def test_finite_failure():
    p = parse_program("p(a).")
    out = solve(p, parse_atom("p(b)"))
    assert out.verdict is Verdict.FINITE_FAILURE


def test_undefined_predicate_fails_finitely():
    p = parse_program("p(a).")
    out = solve(p, parse_atom("q(a)"))
    assert out.verdict is Verdict.FINITE_FAILURE


def test_depth_exceeded_on_loop():
    p = parse_program("p(X) :- p(X).")
    out = solve(p, parse_atom("p(a)"), SolveConfig(depth_limit=50))
    assert out.verdict is Verdict.DEPTH_EXCEEDED


def test_proof_beats_taint():
    # one looping clause plus one good one: the loop taints a branch but
    # the proof is still found
    p = parse_program("p(X) :- p(X).\np(a).")
    out = solve(p, parse_atom("p(a)"), SolveConfig(depth_limit=50))
    assert out.proved


def test_taint_is_exact_at_the_boundary():
    # p(a) requires two applications: budget 1 is genuinely short,
    # but a query that cannot match any head at all must stay finite
    p = parse_program("p(X) :- q(X).\nq(a).")
    out = solve(p, parse_atom("p(a)"), SolveConfig(depth_limit=1))
    assert out.verdict is Verdict.DEPTH_EXCEEDED
    out = solve(p, parse_atom("r(a)"), SolveConfig(depth_limit=1))
    assert out.verdict is Verdict.FINITE_FAILURE
    assert solve(p, parse_atom("p(a)"), SolveConfig(depth_limit=2)).proved


def test_budget_threads_through_conjunctions():
    # proving q twice costs two applications plus the rule itself
    p = parse_program("p :- q, q.\nq.")
    assert solve(p, parse_atom("p"), SolveConfig(depth_limit=3)).proved
    out = solve(p, parse_atom("p"), SolveConfig(depth_limit=2))
    assert out.verdict is Verdict.DEPTH_EXCEEDED


def test_conjunction_query():
    p = parse_program("p(a).\nq(a).\nq(b).")
    out = solve(p, [parse_atom("p(X)"), parse_atom("q(X)")])
    assert out.proved
    assert out.answer == {var("X").id: const("a")}


def test_clause_order_respected():
    p = parse_program("pick(first).\npick(second).")
    outs = solve(p, parse_atom("pick(X)"), ALL)
    assert [a[var("X").id] for a in outs.answers] \
        == [const("first"), const("second")]


def test_solve_all_completeness_flag():
    p = parse_program("p(a).\np(X) :- loop(X).\nloop(X) :- loop(X).")
    outs = solve(p, parse_atom("p(X)"),
                 SolveConfig(depth_limit=30, max_solutions=None))
    assert [a[var("X").id] for a in outs.answers] == [const("a")]
    assert not outs.complete  # the loop ran out of budget somewhere
    p = parse_program("p(a).\np(b).")
    outs = solve(p, parse_atom("p(X)"), ALL)
    assert outs.complete


def test_solve_all_loop_rederives_answers():
    # a self-recursive clause over a fact legitimately re-proves the
    # same answer once per budget level, as resolution should
    p = parse_program("p(a).\np(X) :- p(X).")
    outs = solve(p, parse_atom("p(X)"),
                 SolveConfig(depth_limit=10, max_solutions=None))
    assert set(a[var("X").id] for a in outs.answers) == {const("a")}
    assert len(outs.answers) == 10
    assert not outs.complete


def test_solve_all_max_solutions():
    p = parse_program("n(1).\nn(2).\nn(3).")
    outs = solve(p, parse_atom("n(X)"), SolveConfig(max_solutions=2))
    assert len(outs.answers) == 2
    assert not outs.complete


def test_solve_stops_at_the_first_proof_by_default():
    p = parse_program("n(1).\nn(2).\nn(3).")
    first = solve(p, parse_atom("n(X)"))
    assert first.answers == [{var("X").id: Int(1)}] and first.proved
    assert first.answer == first.answers[0]
    assert not first.complete
    every = solve(p, parse_atom("n(X)"), ALL)
    assert [a[var("X").id] for a in every.answers] == [Int(1), Int(2), Int(3)]
    assert every.proved and every.complete
    # each proof is one step deep
    assert solve(p, parse_atom("n(X)"), SolveConfig(
        depth_limit=1, max_solutions=None)).answers == every.answers
    assert (first.steps, every.steps) == (1, 3)
    none = solve(p, parse_atom("n(4)"), ALL)
    assert (none.verdict, none.answers, none.answer, none.complete) == (
        Verdict.FINITE_FAILURE, [], None, True)


def test_solve_stops_at_the_first_answer_that_is_not_ground():
    p = parse_program("p(a).\np(f(X)).\np(b).")
    outs = solve(p, parse_atom("p(Y)"), ALL)
    y = var("Y").id
    assert [a[y] for a in outs.answers[:1]] == [const("a")]
    assert outs.answers[1][y].functor.name == "f"
    assert len(outs.answers) == 2 and outs.proved and not outs.complete
    # an unbound query variable is not ground either
    outs = solve(parse_program("p(a).\np(_).\np(b)."), parse_atom("p(Y)"), ALL)
    assert outs.answers == [{y: const("a")}, {}] and not outs.complete
    outs = solve(parse_program("p(a).\np(b)."), parse_atom("p(Y)"), ALL)
    assert len(outs.answers) == 2 and outs.complete


def test_solve_stops_at_a_multiple_of_the_first_proofs_steps():
    p = parse_program("n(z).\nn(s(N)) :- n(N).")
    q = parse_atom("n(X)")
    unbounded = solve(p, q, SolveConfig(depth_limit=40, max_solutions=None))
    assert len(unbounded.answers) == 40
    outs = solve(p, q, SolveConfig(depth_limit=40, max_solutions=None,
                                   step_ratio=3))
    # the first proof takes one step, so the search stops at three
    x = var("X").id
    assert [a[x] for a in outs.answers] == [a[x] for a in unbounded.answers[:2]]
    assert (outs.verdict, outs.steps, outs.complete) == (
        Verdict.PROVED, 3, False)
    roomy = solve(parse_program("n(z).\nn(s(z))."), q,
                  SolveConfig(max_solutions=None, step_ratio=3))
    assert len(roomy.answers) == 2 and roomy.complete


def test_first_argument_indexing_skips_clauses():
    # same query against a program with many inapplicable clauses takes
    # no extra steps thanks to the functor prefilter
    few = parse_program("p(f(a)).")
    many = parse_program(
        "".join(f"p(g{i}(a)).\n" for i in range(50)) + "p(f(a)).")
    q = parse_atom("p(f(X))")
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
    p = parse_program("double(X,Y) :- plus(X,X,Y).")
    out = solve(p, parse_atom("double(4,Y)"), builtins=t)
    assert out.answer == {var("Y").id: Int(8)}


def test_builtin_failure_is_finite():
    t = _table(plus_3=_int_add)
    p = parse_program("bad(Y) :- plus(a,b,Y).")
    out = solve(p, parse_atom("bad(Y)"), builtins=t)
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
    p = parse_program("double(X,Y) :- plus(X,X,Y).")
    out = solve(p, parse_atom("double(4,Y)"), builtins=t)
    assert out.answer == {var("Y").id: Int(8)}
    assert out.steps == 2


def test_bool_builtin_false_fails_finitely():
    t = _table(plus_3=_plus)
    p = parse_program("bad(Y) :- plus(a,b,Y).\nbad(Y) :- plus(1,c,Y).")
    out = solve(p, parse_atom("bad(Y)"), builtins=t)
    assert out.verdict is Verdict.FINITE_FAILURE
    assert out.steps == 4


def test_bool_builtin_error_aborts():
    t = _table(plus_3=_plus)
    p = parse_program("bad(Y) :- plus(1,1,X), plus(boom,X,Y).\nbad(2).")
    with pytest.raises(BuiltinError, match="boom"):
        solve(p, parse_atom("bad(Y)"), builtins=t)


def test_bool_builtin_bindings_undone_on_backtracking():
    # the first pick binds Y through the builtin, then fails on ok/1;
    # the second must see Y unbound again
    t = _table(plus_3=_plus)
    p = parse_program("pick(1).\npick(2).\nok(4).\n"
                      "t(Y) :- pick(X), plus(X,X,Y), ok(Y).")
    outs = solve(p, parse_atom("t(Y)"), ALL, builtins=t)
    assert [a[var("Y").id] for a in outs.answers] == [Int(4)]
    assert outs.complete


def test_bool_builtin_taints_at_budget_zero_only():
    t = _table(plus_3=_plus)
    p = parse_program("p(Y) :- plus(1,2,Y).\nq(Y) :- plus(a,2,Y).")
    assert solve(p, parse_atom("p(Y)"), SolveConfig(depth_limit=1),
                 builtins=t).verdict is Verdict.DEPTH_EXCEEDED
    assert solve(p, parse_atom("p(Y)"), SolveConfig(depth_limit=2),
                 builtins=t).proved
    assert solve(p, parse_atom("q(Y)"), SolveConfig(depth_limit=2),
                 builtins=t).verdict is Verdict.FINITE_FAILURE


def _resolver(program, builtins=None):
    resolver = Resolver(builtins, FreshVars())
    return resolver, resolver.program_source(program)


def test_taint_is_exact_for_a_last_bucket_clause():
    # p's only clause is its bucket's last, so p leaves no choice point;
    # at budget 0 the probe must still find q's last clause, and only it
    p = parse_program("p(X) :- q(X).\nq(f(b)).\nq(f(a)).")
    for query, tainted in (("p(f(a))", True), ("p(f(c))", False),
                           ("p(g(a))", False)):
        resolver, source = _resolver(p)
        assert list(resolver.run([parse_atom(query)], 1, source)) == []
        assert resolver.tainted is tainted, query
        assert resolver.steps == 1


def test_store_is_empty_after_run_is_exhausted():
    t = _table(plus_3=_plus)
    p = parse_program("pick(1).\npick(2).\nok(3).\nok(4).\n"
                      "t(Z) :- pick(X), plus(X,X,Y), ok(Y), plus(Y,1,Z).")
    resolver, source = _resolver(p, t)
    store = resolver.store
    assert list(resolver.run([parse_atom("t(Z)")], 20, source)) == [15]
    assert store.bindings == {} and store.trail == []


def test_deterministic_derivation_holds_no_choice_points():
    # the first argument picks one clause at each of 20,000 steps, so
    # each goal takes its last alternative and leaves nothing behind
    p = parse_program("count(z).\ncount(s(N)) :- count(N).")
    t = const("z")
    for _ in range(20000):
        t = mk("s", t)
    goal = Compound(symbol("count", 1), (t,))
    tracemalloc.start()
    try:
        out = solve(p, goal, SolveConfig(depth_limit=30000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.proved and out.steps == 20001
    assert peak < 1_000_000


def test_builtin_clause_clash_rejected():
    t = _table(plus_3=_int_add)
    p = parse_program("plus(a,b,c).")
    with pytest.raises(BuiltinError, match="plus/3"):
        solve(p, parse_atom("plus(a,b,C)"), builtins=t)


def test_builtin_generator_rejected():
    # one protocol: a builtin returns a bool, it does not yield solutions
    def choice(store, args):
        yield

    with pytest.raises(ValueError, match="returns a bool"):
        BuiltinTable().register(symbol("choice", 1), choice)


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
    p = parse_program(
        "count(z).\ncount(s(N)) :- count(N).")
    t = const("z")
    for _ in range(3000):
        t = mk("s", t)
    out = solve(p, Compound(symbol("count", 1), (t,)),
                SolveConfig(depth_limit=5000))
    assert out.proved
    # the resolver keeps its own stack instead of raising Python's limit
    assert sys.getrecursionlimit() == limit
