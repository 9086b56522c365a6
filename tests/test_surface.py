"""Every definition in the package has a caller outside the tests.

A top-level function or class, or a method, that no other ``src/`` code
uses and no benchmark file mentions is surface kept alive only by its
tests.  This scan fails on it.

In ``src/milsem`` a top-level definition is used where its name occurs as
a name, and a method where its name occurs as an attribute, outside the
definition itself.  Uses inside a definition that is itself unused do not
count, so the scan repeats until nothing more drops out.  A file under
``bench/`` uses a name that occurs in it as a name, as an attribute or as
a string constant equal to it (its tracer patches functions by name).
Names that ``milsem.__all__`` exports are the public interface and exempt,
and so are dunder methods, which Python calls itself.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import milsem

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "milsem").glob("*.py"))
BENCH = [ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted((ROOT / "bench").glob("*.py"))]

# Kept although nothing but the tests calls them.  (The unpruned oracle
# `meta_prove` needs no entry: the package exports it.)
ALLOWED = {
    # step determinism, to be folded into conformance checking (ROADMAP 5)
    "check_step_determinism",
    # the non-terminating examples, which acceptance criterion 3 inspects
    "ScenarioSpec.nonterminating",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, use key, node) of each top-level def and method;
    the key says how a use looks: a name for a top-level definition, an
    attribute for a method."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, ("name", node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS):
                    yield (f"{node.name}.{item.name}", ("attr", item.name),
                           item)


def _uses(node: ast.AST, dead: set) -> Counter:
    """Names and attributes under a node, skipping dead definitions."""
    out: Counter = Counter()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in dead:
            continue
        if isinstance(n, ast.Name):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            out["attr", n.attr] += 1
        stack.extend(ast.iter_child_nodes(n))
    return out


def _bench_names() -> set[str]:
    names = set()
    for tree in BENCH:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def _exempt(qualified: str, name: str) -> bool:
    return (name in milsem.__all__ or qualified in ALLOWED
            or name.startswith("__") and name.endswith("__"))


def _unused(trees: dict[str, ast.Module], bench: set[str]) -> dict[str, list]:
    """Qualified names of the unused definitions, by module."""
    defs = [(module, qualified, key, node)
            for module, tree in trees.items()
            for qualified, key, node in _definitions(tree)
            if not _exempt(qualified, key[1]) and key[1] not in bench]
    dead: set = set()
    while True:
        live = sum((_uses(t, dead) for t in trees.values()), Counter())
        newly = {node for _, _, key, node in defs
                 if node not in dead
                 and live[key] - _uses(node, dead)[key] <= 0}
        if not newly:
            break
        dead |= newly
    out: dict[str, list] = {module: [] for module in trees}
    for module, qualified, _, node in defs:
        if node in dead:
            out[module].append(qualified)
    return out


TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
UNUSED = _unused(TREES, _bench_names())


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_definition_has_a_caller_outside_the_tests(module):
    unused = UNUSED[module]
    assert not unused, (f"{module}.py defines names only tests can reach: "
                        f"{', '.join(unused)}")


def test_allowlist_names_existing_definitions():
    defined = {q for t in TREES.values() for q, _, _ in _definitions(t)}
    assert ALLOWED <= defined


def test_uses_from_unused_definitions_do_not_count():
    # `helper` is named only by `dead`, a method only by `Thing.dead`, and
    # `Thing.used` only by its own recursion and by a bare name
    tree = ast.parse(
        "def helper(): pass\n"
        "def dead(): helper()\n"
        "class Thing:\n"
        "    def dead(self): self.inner()\n"
        "    def inner(self): pass\n"
        "    def used(self): used(); self.used()\n"
        "def entry(): Thing().kept()\n"
        "def kept(): pass\n"
        "entry()\n")
    unused = _unused({"m": tree}, bench=set())["m"]
    assert sorted(unused) == ["Thing.dead", "Thing.inner", "Thing.used",
                              "dead", "helper", "kept"]
    assert _unused({"m": tree}, bench={"dead"})["m"] == ["Thing.used", "kept"]
