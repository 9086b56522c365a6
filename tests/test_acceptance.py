"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS or FAIL line.  The expensive artifacts
(the four learned hypotheses and the chained run) are shared through
module-scoped fixtures so every criterion sees the same results.
"""

import random
import time
from contextlib import contextmanager

import pytest

import test_objectlang as obj_oracles
import test_solver as solver_oracles
from milsem.corpus import builtin_corpus, generate_corpus
from milsem.learn import learn, learn_seq
from milsem.objectlang import (
    OracleConfig,
    alpha_equal,
    base_clauses,
    conformance_check,
    default_builtins,
    eval_chain,
    free_vars,
    reference_eval,
    substitute,
)
from milsem.scenario import Example, builtin_scenario
from milsem.solver import SolveConfig, Verdict, solve
from milsem.terms import Compound, Int, Program, const, mk, symbol, var
from milsem.textio import parse_clauses, parse_term, print_term

CHAIN_ORDER = ("lazy_eager", "pairs", "lists", "conditionals")

S_STEP = symbol("step", 2)
S_VALUE = symbol("value", 1)
S_EVAL = symbol("eval", 2)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {num} ({label})")
        raise
    print(f"PASS: criterion {num} ({label})")


@pytest.fixture(scope="module")
def scenarios():
    return {name: builtin_scenario(name) for name in CHAIN_ORDER}


@pytest.fixture(scope="module")
def learned(scenarios):
    out = {}
    for name, spec in scenarios.items():
        started = time.monotonic()
        res = learn(spec)
        out[name] = (res, time.monotonic() - started)
    return out


@pytest.fixture(scope="module")
def chain(scenarios):
    return learn_seq([scenarios[name] for name in CHAIN_ORDER])


def _program(spec, hypothesis):
    return Program(tuple(spec.bk) + hypothesis.clauses)


def _reachable(terms, strategy="lazy"):
    """Every term the corpus can put in subject position: each chain state
    and all its subterms."""
    stack = []
    for t in terms:
        stack.extend(eval_chain(t, OracleConfig(strategy=strategy)))
    seen = {}
    while stack:
        u = stack.pop()
        if isinstance(u, Int):
            continue
        key = print_term(u)
        if key in seen:
            continue
        seen[key] = u
        stack.extend(u.args)
    return list(seen.values())


def _step_answers(program, u, builtins, depth=300):
    res = solve(program, Compound(S_STEP, (u, var("R"))),
                SolveConfig(depth_limit=depth, max_solutions=16), builtins)
    return frozenset(print_term(v) for ans in res.answers for v in ans.values())


def _eval_answers(program, u, builtins, depth=300):
    res = solve(program, Compound(S_EVAL, (u, var("R"))),
                SolveConfig(depth_limit=depth, max_solutions=8), builtins)
    return frozenset(print_term(v) for ans in res.answers for v in ans.values())


def _proves_value(program, u, builtins, depth=300):
    return solve(program, Compound(S_VALUE, (u,)),
                 SolveConfig(depth_limit=depth), builtins).proved


# The three hand-written projection rules the pairs task aims at, plus
# their mirror images for snd, which the examples also pin down.
TARGET_PAIR_RULES = (
    "step(fst(pair(A,B)),A).",
    "step(pair(A,B),pair(C,B)) :- step(A,C).",
    "value(pair(A,B)) :- value(A), value(B).",
    "step(snd(pair(A,B)),B).",
    "step(pair(V,B),pair(V,C)) :- value(V), step(B,C).",
)

# Known-good induced listing for conditionals; the learner may return any
# extensionally equivalent decomposition.
REFERENCE_CONDITIONAL_RULES = (
    "step(if(A,B),C) :- pred_1(A,B,C).",
    "pred_1(false,A,B) :- pred_3(A,B).",
    "pred_1(true,A,B) :- pred_2(A,B).",
    "pred_2(thenelse(A,B),C) :- left(A,B,C).",
    "pred_3(thenelse(A,B),C) :- right(A,B,C).",
    "step(if(A,B),if(C,B)) :- step(A,C).",
    "value(false).",
    "value(true).",
)

SHOWCASE = parse_term(
    "app(lam(x,fst(var(x))),"
    "pair(app(lam(x,pair(app(lam(z,var(z)),var(x)),var(y))),var(z)),var(x)))")


def test_criterion_1_pairs(scenarios, learned):
    with criterion(1, "pairs rules conform and match the targets"):
        spec = scenarios["pairs"]
        res, elapsed = learned["pairs"]
        assert res.ok
        assert elapsed <= 10.0, f"pairs learning took {elapsed:.1f}s"
        assert any(e.goal.args[0] == SHOWCASE for e in spec.positives())

        program = _program(spec, res.hypothesis)
        builtins = default_builtins()

        # (a) zero violations on held-out terms the scenario never saw
        training = {print_term(e.goal.args[0]) for e in spec.examples}
        held_out = [t for t in generate_corpus("pairs", 24, seed=424242)
                    if print_term(t) not in training]
        assert len(held_out) >= 20
        report = conformance_check(program, held_out, strategy="lazy")
        assert report.ok, report.failures

        # (b) extensional match with the target rules on every term the
        # shipped corpus can reach, at both the step and value level
        target = Program(base_clauses("full")
                         + tuple(parse_clauses("\n".join(TARGET_PAIR_RULES))))
        for u in _reachable(builtin_corpus("pairs")):
            assert _step_answers(program, u, builtins) \
                == _step_answers(target, u, builtins), print_term(u)
            assert _proves_value(program, u, builtins) \
                == _proves_value(target, u, builtins), print_term(u)


def test_criterion_2_conditionals(scenarios, learned):
    with criterion(2, "conditionals hypothesis is small and equivalent"):
        res, _ = learned["conditionals"]
        assert res.ok
        assert res.hypothesis.size <= 8

        program = _program(scenarios["conditionals"], res.hypothesis)
        reference = Program(
            base_clauses("full")
            + tuple(parse_clauses("\n".join(REFERENCE_CONDITIONAL_RULES))))
        builtins = default_builtins()
        corpus = builtin_corpus("conditionals")
        assert len(corpus) == 30
        for t in corpus:
            got = _eval_answers(program, t, builtins)
            want = _eval_answers(reference, t, builtins)
            assert got == want and got, print_term(t)


def lazy_variant(eager_spec):
    """``lazy_eager`` with its non-terminating example retagged as a
    positive: the redex that discards a loop evaluates to ``var(y)``."""
    probe = next(e for e in eager_spec.examples if e.tag == "nonterm").goal.args[0]
    return eager_spec._replace(
        name="lazy_variant",
        examples=tuple(e for e in eager_spec.examples if e.tag != "nonterm")
        + (Example("pos", Compound(S_EVAL, (probe, parse_term("var(y)")))),))


def test_criterion_3_evaluation_order(scenarios):
    with criterion(3, "example tags pick the evaluation order"):
        eager_spec = scenarios["lazy_eager"]
        nonterm = [e for e in eager_spec.examples if e.tag == "nonterm"]
        assert len(nonterm) == 1
        probe = nonterm[0].goal.args[0]  # beta-redex discarding a loop

        eager = learn(eager_spec)
        assert eager.ok

        retagged = lazy_variant(eager_spec)
        lazy = learn(retagged)
        assert lazy.ok

        cfg = SolveConfig(depth_limit=300)
        builtins = default_builtins()
        goal = Compound(S_EVAL, (probe, var("R")))
        out = solve(_program(eager_spec, eager.hypothesis), goal, cfg, builtins)
        assert out.verdict is Verdict.DEPTH_EXCEEDED, out.verdict
        out = solve(_program(retagged, lazy.hypothesis), goal, cfg, builtins)
        assert out.verdict is Verdict.PROVED
        assert print_term(next(iter(out.answer.values()))) == "var(y)"


def test_criterion_4_chain(chain):
    with criterion(4, "the four-task chain builds a conforming program"):
        assert chain.ok, [(n, r.status) for n, r in chain.results]
        assert chain.elapsed <= 60.0, f"chain took {chain.elapsed:.1f}s"
        assert 20 <= len(chain.induced) <= 30, len(chain.induced)

        mixed = builtin_corpus("mixed")

        def walk(u):
            if isinstance(u, Int):
                return
            constructs.add(u.functor.name)
            for a in u.args:
                walk(a)

        constructs = set()
        for t in mixed:
            walk(t)
        assert {"app", "lam", "var", "lit", "add", "pair", "fst", "snd",
                "cons", "nil", "head", "tail", "if", "thenelse", "true",
                "false"} <= constructs

        for strategy in ("eager", "lazy"):
            report = conformance_check(chain.combined, mixed,
                                       strategy=strategy)
            assert report.ok, (strategy, report.failures)


def test_criterion_5_minimality(scenarios, learned):
    with criterion(5, "no smaller hypothesis passes any scenario"):
        for name, spec in scenarios.items():
            res, _ = learned[name]
            assert res.ok
            below = learn(spec._replace(options=spec.options._replace(
                max_clauses=res.hypothesis.size - 1)))
            assert below.status == "exhausted", (name, below.status)
            assert below.hypothesis is None


def test_criterion_6_solver_suite(chain):
    with criterion(6, "solver depth and oracle properties at full scale"):
        # proofs survive budget growth and finite failure stays finite
        rng = random.Random(1009)
        for _ in range(1000):
            clauses, universe, preds = solver_oracles.random_program(rng)
            program = Program(tuple(clauses))
            q = rng.choice(list(solver_oracles.herbrand_base(preds, universe)))
            prev = None
            for depth in (1, 2, 3, 4, 6, 8):
                out = solve(program, q, SolveConfig(depth_limit=depth))
                if prev is Verdict.PROVED:
                    assert out.verdict is Verdict.PROVED, (q, depth)
                if prev is Verdict.FINITE_FAILURE:
                    assert out.verdict is Verdict.FINITE_FAILURE, (q, depth)
                prev = out.verdict

        checked = solver_oracles.check_against_oracle(random.Random(2027), 200)
        assert checked > 1000

        # every value the corpora produce evaluates to itself
        builtins = default_builtins()
        cfg = SolveConfig(depth_limit=300)
        seen = set()
        for kind in ("pairs", "lists", "conditionals", "lazy_eager", "mixed"):
            for t in builtin_corpus(kind):
                v = reference_eval(t)
                key = print_term(v)
                if key in seen:
                    continue
                seen.add(key)
                out = solve(chain.combined, Compound(S_EVAL, (v, v)), cfg, builtins)
                assert out.proved, key
        assert len(seen) >= 20


def _random_object_term(rng, depth):
    if depth == 0:
        r = rng.random()
        if r < 0.5:
            return mk("var", const(rng.choice(("x", "y", "z"))))
        if r < 0.7:
            return mk("lit", Int(rng.randrange(5)))
        return const(rng.choice(("nil", "true", "false")))
    k = rng.choice(("lam", "app", "pair", "fst", "snd", "cons"))
    if k == "lam":
        return mk("lam", const(rng.choice(("x", "y", "z"))),
                  _random_object_term(rng, depth - 1))
    if k in ("fst", "snd"):
        return mk(k, _random_object_term(rng, depth - 1))
    return mk(k, _random_object_term(rng, depth - 1),
              _random_object_term(rng, rng.randrange(depth)))


def test_criterion_7_substitution_suite():
    with criterion(7, "substitution laws on 1000 random terms"):
        rng = random.Random(40427)
        captures = 0
        for i in range(1000):
            if i % 5 == 0:
                # plant a guaranteed capture frame: substituting under a
                # binder whose name is free in the value
                x, n = rng.sample(("x", "y", "z"), 2)
                t = mk("lam", const(n),
                       mk("pair", _random_object_term(rng, 2),
                          mk("var", const(x))))
                v = mk("pair", mk("var", const(n)),
                       _random_object_term(rng, 1))
            else:
                t = _random_object_term(rng, rng.randrange(1, 5))
                v = _random_object_term(rng, rng.randrange(0, 4))
                x = rng.choice(("x", "y", "z"))

            got = substitute(v, x, t)
            want = free_vars(t) - {x}
            if x in free_vars(t):
                want |= free_vars(v)
            assert free_vars(got) == want, (print_term(t), x, print_term(v))

            fresh = obj_oracles.naive_subst(v, x, obj_oracles.freshen(t))
            assert obj_oracles.nameless(got) == obj_oracles.nameless(fresh)

            # alpha oracle agreement, plus invariance under binder renaming
            assert alpha_equal(t, obj_oracles.freshen(t))
            assert alpha_equal(t, v) \
                == (obj_oracles.nameless(t) == obj_oracles.nameless(v))

            if obj_oracles.nameless(got) \
                    != obj_oracles.nameless(obj_oracles.naive_subst(v, x, t)):
                captures += 1
        # the sample must actually contain binder-capture cases
        assert captures >= 200, captures


def test_criterion_8_example_order(scenarios):
    with criterion(8, "learned rules survive example reordering"):
        strategies = {"pairs": "lazy", "lists": "lazy",
                      "conditionals": "lazy", "lazy_eager": "eager"}
        rng = random.Random(31337)
        for name, spec in scenarios.items():
            corpus = builtin_corpus(name)
            positives = spec.positives()
            rest = [e for e in spec.examples if e.tag != "pos"]
            for _ in range(10):
                order = positives[:]
                rng.shuffle(order)
                shuffled = spec._replace(examples=tuple(order + rest))
                res = learn(shuffled)
                assert res.ok, (name, res.status)
                program = _program(spec, res.hypothesis)
                report = conformance_check(program, corpus,
                                           strategy=strategies[name])
                assert report.ok, (name, report.failures)
