"""Every definition in the package has a reader outside the tests.

A top-level function or class, or a method, that no other ``src/`` code
uses and no benchmark file mentions is surface kept alive only by its
tests.  So is a module-level constant, or a dataclass field, that nothing
reads.  This scan fails on each of them.

In ``src/milsem`` a top-level definition or constant is used where its
name is read as a name, and a method or a dataclass field where its name
is read as an attribute, outside the definition itself; an assignment or
a keyword argument is not a read.  Uses inside a definition that is
itself unused do not count, so the scan repeats until nothing more drops
out.  A file under ``bench/`` uses a name that occurs in it as a name, as
an attribute or as a string constant equal to it (its tracer patches
functions by name).  Names that ``milsem.__all__`` exports are the public
interface and exempt, and so are dunder names, which Python reads itself.
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

# Kept although nothing but the tests reads them, each with the reason.
# (The unpruned oracle `meta_prove` needs no entry: the package exports it.)
ALLOWED = {
    "check_step_determinism":
        "step determinism, to be folded into conformance checking (ROADMAP 5)",
    "ScenarioSpec.nonterminating":
        "the non-terminating examples, which acceptance criterion 3 inspects",
    "Metasub.rule":
        "read only through the equality and hash of a metasub",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in node.decorator_list)


def _definitions(tree: ast.Module):
    """(qualified name, use key, node) of each top-level def, constant,
    method and dataclass field; the key says how a use looks: a name for
    a top-level definition or constant, an attribute for a method or a
    field."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, ("name", node.name), node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, ("name", t.id), node
        if isinstance(node, ast.ClassDef):
            fields = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, DEFS):
                    yield (f"{node.name}.{item.name}", ("attr", item.name),
                           item)
                elif (fields and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    yield (f"{node.name}.{item.target.id}",
                           ("attr", item.target.id), item)


def _uses(node: ast.AST, dead: set) -> Counter:
    """Names and attributes read under a node, skipping dead definitions."""
    out: Counter = Counter()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in dead:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
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
    assert not unused, (f"{module}.py defines names that nothing outside "
                        f"the tests reads: {', '.join(unused)}")


def test_allowlist_names_existing_definitions():
    defined = {q for t in TREES.values() for q, _, _ in _definitions(t)}
    assert ALLOWED.keys() <= defined
    assert all(reason.strip() for reason in ALLOWED.values())


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


def test_unread_constants_and_fields_are_unused():
    # `Rec.seen` is read, `LOST` only assigned, `VIA` read only by
    # `LOST`, `Rec.lost` only written and passed by keyword, and
    # `Plain.lost` is no dataclass field
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "VIA = 1\n"
        "LOST: int = VIA\n"
        "@dataclass(frozen=True)\n"
        "class Rec:\n"
        "    seen: int\n"
        "    lost: int = 0\n"
        "class Plain:\n"
        "    lost: int = 0\n"
        "def entry(r):\n"
        "    r.lost = Rec(seen=1, lost=2).seen\n"
        "    return Plain()\n"
        "entry(None)\n")
    unused = _unused({"m": tree}, bench=set())["m"]
    assert sorted(unused) == ["LOST", "Rec.lost", "VIA"]
