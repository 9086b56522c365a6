"""Every definition in the package has a caller outside the tests.

A top-level function or class, or a method, that no other ``src/`` code
names and no benchmark file mentions is surface kept alive only by its
tests.  This scan fails on it.  A name counts as used when it occurs as a
name or an attribute anywhere in ``src/milsem`` outside its own
definition, or as a word in a Python file under ``bench/``.  Names that
``milsem.__all__`` exports are the public interface and exempt, and so
are dunder methods, which Python calls itself.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import milsem

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "milsem").glob("*.py"))
BENCH_TEXT = "\n".join(p.read_text(encoding="utf-8")
                       for p in sorted((ROOT / "bench").glob("*.py")))

# Kept although nothing but the tests calls them.  (The unpruned oracle
# `meta_prove` needs no entry: the package exports it.)
ALLOWED = {
    # step determinism, to be folded into conformance checking (ROADMAP 5)
    "check_step_determinism",
    # the non-terminating examples, which acceptance criterion 3 inspects
    "ScenarioSpec.nonterminating",
}


def _references(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level def and method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name, item


TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
USED = sum((_references(t) for t in TREES.values()), Counter())


def _unused(module: str) -> list[str]:
    out = []
    for qualified, name, node in _definitions(TREES[module]):
        if (name in milsem.__all__ or qualified in ALLOWED
                or name.startswith("__") and name.endswith("__")):
            continue
        outside = USED[name] - _references(node)[name]
        if outside <= 0 and not re.search(rf"\b{name}\b", BENCH_TEXT):
            out.append(qualified)
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_definition_has_a_caller_outside_the_tests(module):
    unused = _unused(module)
    assert not unused, (f"{module}.py defines names only tests can reach: "
                        f"{', '.join(unused)}")


def test_allowlist_names_existing_definitions():
    defined = {q for t in TREES.values() for q, _, _ in _definitions(t)}
    assert ALLOWED <= defined
