"""Pinned work counts of the solver and the learner.

Resolution steps, meta-steps, metasubs tried, candidates and pruned
instantiations are deterministic.  A change that only makes resolution
cheaper must leave every one of them where it is; these pins turn that
into a test.  The numbers were recorded before the head unifier started
renaming the clause as it goes, except the conformance steps, recorded
when `conformance_check` started deciding a term's distractors from the
one search that finds its value, and the learner's counts: meta-steps,
metasubs tried, candidates, pruned and the calls into the metarule
layer.  Those were recorded when the shared metarule library was cut to
the metarules two or more bundled hypotheses use, and `conditionals` and
`lazy_eager` started declaring the ones only they use: every metarule a
scenario learns with is a branch of its meta-proof, so each scenario's
search lost the branches of the metarules it does not use.  The
head-unification tries, the run steps and the conformance steps were
recorded when `Program` stopped filing a clause under keys for which its
first body goal could select no clause, and the `match_head` calls when
the learner started offering a metarule only to goals whose first
argument its head can fit.  The learner's counts that `conditionals` and
the chain give were recorded again when the meta-proof started skipping
a search from an example on that had already found nothing at the same
size cap with the same clauses.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from milsem import objectlang
from milsem.cli import main
from milsem.corpus import CORPUS_KINDS, generate_corpus
from milsem.terms import Program, Store
from milsem.textio import parse_clauses

ROOT = Path(__file__).resolve().parents[1]
CHAIN_PROGRAM = ROOT / "bench" / "expected" / "chain.pl"
LAZY_EAGER = ROOT / "bench" / "expected" / "lazy_eager.pl"

LOOP = "app(lam(x,app(var(x),var(x))),lam(x,app(var(x),var(x))))"


def _add_chain(n: int) -> str:
    """A left-nested sum of ``n`` literals, as the benchmark builds it."""
    text = "lit(1)"
    for i in range(2, n + 1):
        text = f"add({text},lit({i % 10}))"
    return text


def _json(argv, capsys):
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


# `solve`'s loop check cuts each loop at a repeated resolvent, long before
# the budget runs out; the last loop is the argument the eager rules
# evaluate, though the redex discards it.  Its watch points are step
# counts, so a loop may be cut a few steps later when clauses that could
# only fail are no longer entered, as in the last one
@pytest.mark.parametrize("argv,code,verdict,value,steps", [
    (["run", "--depth", "8000", LOOP], 3, "depth_exceeded", None, 69),
    (["run", "--depth", "10000", _add_chain(120)], 0, "proved", "lit(540)",
     7_380),
    (["run", "--depth", "8000", f"add(lit(1),{LOOP})"], 3, "depth_exceeded",
     None, 70),
    (["run", "--depth", "8000", "--base", "eager", "-p", str(LAZY_EAGER),
      f"app(lam(x,var(y)),{LOOP})"], 3, "depth_exceeded", None, 99),
], ids=["loop", "add_chain", "add_loop", "eager_discarded_loop"])
def test_run_steps(argv, code, verdict, value, steps, capsys):
    got, out = _json(argv, capsys)
    assert (got, out["verdict"], out["value"], out["steps"]) == (
        code, verdict, value, steps)


def _conformance(kind):
    program = Program(parse_clauses(CHAIN_PROGRAM.read_text()))
    report = objectlang.conformance_check(
        program, generate_corpus(kind, 40, seed=5), strategy="lazy")
    assert (report.passed, report.total) == (40, 40)


# clause heads `Store.unify_atoms` tries and unifies: `Program.select`
# hands the solver only heads that agree with the goal one level below
# the first argument, so each `step(add(add(..),..),_)` goal no longer
# tries the literal-sum head; the misses left on the lazy_eager corpus
# are that head against `add(lit(..),add(..))`, which differs from it
# only in the first argument's second argument.  Nor is a clause tried
# whose first body goal would then select none: `eval(E1,E1) :-
# value(E1)` on a goal `eval(app(..),_)`, or the add congruence
# `step(add(V,T1),..) :- value(V), ..` on `step(add(add(..),..),_)`
@pytest.mark.parametrize("run,tries", [
    (lambda capsys: _json(["run", "--depth", "10000", _add_chain(120)],
                          capsys), (7_261, 7_261)),
    (lambda capsys: _json(["run", "--depth", "8000", LOOP], capsys),
     (47, 47)),
    (lambda capsys: _conformance("lazy_eager"), (283, 274)),
    # the meta-proof's own tries too: background and adopted clauses and
    # metarule instance heads, with the candidate checks after each proof
    (lambda capsys: _json(["learn", "conditionals"], capsys), (6_520, 5_657)),
    (lambda capsys: _json(["chain", "lazy_eager", "pairs", "lists",
                           "conditionals"], capsys), (8_510, 7_447)),
], ids=["add_chain", "loop", "conformance_lazy_eager", "learn_conditionals",
        "chain"])
def test_head_unifications(run, tries, capsys, monkeypatch):
    counts = Counter()
    unify_atoms = Store.unify_atoms

    def counting(self, *args):
        unified = unify_atoms(self, *args)
        counts["tries"] += 1
        counts["unified"] += unified
        return unified

    monkeypatch.setattr(Store, "unify_atoms", counting)
    run(capsys)
    assert (counts["tries"], counts["unified"]) == tries


# summed solver steps of one conformance check, by corpus kind; the chain
# program takes the same steps under either strategy on these corpora,
# in one `solve` call per term
CONFORMANCE_STEPS = {"pairs": 697, "lists": 772, "conditionals": 657,
                     "lazy_eager": 304, "mixed": 547}


@pytest.mark.parametrize("strategy", ["lazy", "eager"])
@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_conformance_steps(kind, strategy, monkeypatch):
    assert set(CONFORMANCE_STEPS) == set(CORPUS_KINDS)
    steps = []
    solve = objectlang.solve

    def counting(*args, **kwargs):
        out = solve(*args, **kwargs)
        steps.append(out.steps)
        return out

    monkeypatch.setattr(objectlang, "solve", counting)
    program = Program(parse_clauses(CHAIN_PROGRAM.read_text()))
    report = objectlang.conformance_check(
        program, generate_corpus(kind, 40, seed=5), strategy=strategy)
    assert (report.passed, report.total) == (40, 40)
    assert len(steps) == 40
    assert sum(steps) == CONFORMANCE_STEPS[kind]


STATS = ("meta_steps", "metasubs_tried", "candidates", "pruned")

LEARN_STATS = {
    "pairs": (144, 29, 1, 0),
    "lists": (191, 43, 1, 0),
    "conditionals": (5283, 1280, 4, 89),
    "lazy_eager": (141, 32, 3, 1),
}

# the README chain: each task learns against the inductions before it
CHAIN_STATS = {
    "lazy_eager": (141, 32, 3, 1),
    "pairs": (1276, 233, 1, 0),
    "lists": (235, 47, 1, 0),
    "conditionals": (5283, 1280, 4, 89),
}


@pytest.mark.parametrize("scenario", sorted(LEARN_STATS))
def test_learn_stats(scenario, capsys):
    code, out = _json(["learn", scenario], capsys)
    assert code == 0
    assert tuple(out["stats"][s] for s in STATS) == LEARN_STATS[scenario]


def test_chain_stats(capsys):
    code, out = _json(["chain", *CHAIN_STATS], capsys)
    assert code == 0
    assert {t["scenario"]: tuple(t["stats"][s] for s in STATS)
            for t in out["tasks"]} == CHAIN_STATS



# calls the learner makes into the metarule layer in one run: `match_head`
# only for metarules whose head can fit the goal's predicate and its first
# argument's index key, and `enumerate_bindings` and `apply_metasub` once
# per distinct instance set
@pytest.mark.parametrize("argv,counts", [
    (["learn", "conditionals"], (1320, 116, 225)),
    (["chain", *CHAIN_STATS], (2129, 179, 276)),
], ids=["conditionals", "chain"])
def test_metarule_calls(argv, counts, capsys, monkeypatch):
    # the package re-exports the function `learn`, which shadows the module
    learn_mod = sys.modules["milsem.learn"]
    names = ("match_head", "enumerate_bindings", "apply_metasub")
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(learn_mod, name,
                            counting(name, getattr(learn_mod, name)))
    runs = []
    for _ in range(2):  # a cache kept across calls would lower the second
        calls.clear()
        assert _json(argv, capsys)[0] == 0
        runs.append(tuple(calls[n] for n in names))
    assert runs == [counts, counts]
