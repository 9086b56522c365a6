"""The benchmark's tracer wraps milsem functions at the module attributes
their callers look them up by.  These tests keep those names bound and
looked up at call time, so a traced run still sees every layer."""

import importlib.util
import json
import sys
from pathlib import Path

import milsem.cli
import milsem.learn  # noqa: F401  (the tracer finds it in sys.modules)
from milsem.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "milsem_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_a_learn_run(capsys):
    learn_mod = sys.modules["milsem.learn"]
    solver_mod = sys.modules["milsem.solver"]
    originals = {name: getattr(learn_mod, name) for name in (
        "rename_apart", "match_head", "enumerate_bindings", "apply_metasub",
        "check_example", "solve")}
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert main(["learn", "pairs", "--json"]) == 0
    finally:
        tracer.uninstall()
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert tracer.learn_stats["pairs"] == (
        stats["meta_steps"], stats["metasubs_tried"], stats["candidates"])
    counts = tracer.counts
    for key in ("terms.rename_calls", "terms.unify_calls",
                "metarules.match_head_calls", "solver.solve_calls"):
        assert counts[key] > 0, key
    for name, fn in originals.items():
        assert getattr(learn_mod, name) is fn
    assert solver_mod.rename_apart is sys.modules["milsem.terms"].rename_apart
    assert milsem.cli.solve is solver_mod.solve


def test_tracer_sees_the_solver_of_a_check_run(capsys):
    # no learner here: every renaming and head unification is the solver's
    patched = [(milsem.cli, "conformance_check"),
               (sys.modules["milsem.objectlang"], "solve"),
               (sys.modules["milsem.solver"], "rename_apart"),
               (sys.modules["milsem.terms"].Store, "unify_atoms")]
    originals = [getattr(owner, name) for owner, name in patched]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert main(["check", str(ROOT / "bench" / "expected" / "chain.pl"),
                     "pairs", "--json"]) == 0
    finally:
        tracer.uninstall()
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == []
    counts = tracer.counts
    # every clause try goes through the patched `Store.unify_atoms` and
    # every renamed body through the patched `rename_apart`, so a fast
    # path that bypassed either would move these counts.  `Program` drops
    # a clause whose first body goal could select nothing before any try,
    # so such a clause is never tried; that is not a bypass
    assert (counts["terms.unify_calls"], counts["terms.unify_hits"],
            counts["terms.rename_calls"]) == (439, 439, 439)
    # one search per term decides its value and both distractors, inside
    # the span the tracer wraps
    assert counts["solver.solve_calls"] == report["total"] == 24
    assert [getattr(owner, name) for owner, name in patched] == originals
