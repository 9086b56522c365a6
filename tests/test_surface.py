"""Every definition in the package has a reader outside the tests.

A top-level function or class, or a method, that no ``src/`` code
reached from the package's entry points uses and no benchmark file
mentions is surface kept alive only by its tests.  So is a module-level
constant, or a record field (a `NamedTuple` field or a ``__slots__``
name), that nothing reads.  This scan fails on each of them, exported
names included.

Liveness is reachability.  The roots are the module-level code of each
``src/milsem`` module other than its definitions (imports, a
``__main__`` guard), every definition whose name a file under ``bench/``
mentions (as a name, as an attribute or as a string constant equal to
it: its tracer patches functions by name), the definitions in `ALLOWED`
and the dunder names, which Python reads itself.  A live definition
reaches each top-level definition or constant whose name it reads as a
name, and each method or record field whose name it reads as an
attribute; an assignment or a keyword argument is not a read.  A method
or field is live only in a live class.  Whatever is not reached is
unused, so a group of definitions that read only each other is unused
as a whole.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "milsem").glob("*.py"))
BENCH = [ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted((ROOT / "bench").glob("*.py"))]

# Kept although nothing but the tests reads them, each with the reason.
ALLOWED = {
    "meta_prove":
        "the unpruned reference search that `learn` is tested against",
    "Metasub.rule":
        "read only through the equality and hash of a metasub",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_namedtuple(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               or isinstance(b, ast.Attribute) and b.attr == "NamedTuple"
               for b in node.bases)


def _slots(node: ast.ClassDef):
    """The string constant naming each of a class's ``__slots__``."""
    for item in node.body:
        if (isinstance(item, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in item.targets)):
            value = item.value
            names = (value.elts if isinstance(value, (ast.Tuple, ast.List))
                     else [value])
            yield from (n for n in names if isinstance(n, ast.Constant)
                        and isinstance(n.value, str))


def _definitions(tree: ast.Module):
    """(qualified name, use key, node, class node or None) of each
    top-level def, constant, method and record field; the key says how
    a use looks: a name for a top-level definition or constant, an
    attribute for a method or a field.  A record field is an annotated
    field of a `NamedTuple` or a name in a class's ``__slots__``."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, ("name", node.name), node, None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, ("name", t.id), node, None
        if isinstance(node, ast.ClassDef):
            fields = _is_namedtuple(node)
            for item in node.body:
                if isinstance(item, DEFS):
                    yield (f"{node.name}.{item.name}", ("attr", item.name),
                           item, node)
                elif (fields and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    yield (f"{node.name}.{item.target.id}",
                           ("attr", item.target.id), item, node)
            for slot in _slots(node):
                yield (f"{node.name}.{slot.value}", ("attr", slot.value),
                       slot, node)


def _uses(node: ast.AST, defs: set) -> set:
    """Names and attributes read under a node, except under the other
    definitions in ``defs``."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(("name", n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(("attr", n.attr))
        stack.extend(c for c in ast.iter_child_nodes(n) if c not in defs)
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


def _root(qualified: str, name: str, bench: set[str]) -> bool:
    return (name in bench or qualified in ALLOWED
            or name.startswith("__") and name.endswith("__"))


def _unused(trees: dict[str, ast.Module], bench: set[str]) -> dict[str, list]:
    """Qualified names of the definitions no root reaches, by module."""
    defs = [(module, *d) for module, tree in trees.items()
            for d in _definitions(tree)]
    nodes = {node for *_, node, _ in defs}
    reached = set().union(*(_uses(stmt, nodes) for tree in trees.values()
                            for stmt in tree.body if stmt not in nodes))
    live: set = set()
    grew = True
    while grew:
        grew = False
        for _, qualified, key, node, owner in defs:
            if (node not in live and (owner is None or owner in live)
                    and (key in reached or _root(qualified, key[1], bench))):
                live.add(node)
                reached |= _uses(node, nodes)
                grew = True
    out: dict[str, list] = {module: [] for module in trees}
    for module, qualified, _, node, _ in defs:
        if node not in live:
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
    defined = {q for t in TREES.values() for q, *_ in _definitions(t)}
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


def test_definitions_that_read_only_each_other_are_unused():
    # `ping` and `pong` call each other and nothing else calls either
    tree = ast.parse(
        "def ping(n): return pong(n - 1)\n"
        "def pong(n): return ping(n) if n else 0\n"
        "def entry(): return 1\n"
        "entry()\n")
    assert _unused({"m": tree}, bench=set())["m"] == ["ping", "pong"]
    assert _unused({"m": tree}, bench={"pong"})["m"] == []


def test_unread_constants_and_fields_are_unused():
    # `Rec.seen` is read, `LOST` only assigned, `VIA` read only by
    # `LOST`, `Rec.lost` only written and passed by keyword, `Slot.lost`
    # only written, and `Plain.lost` is no record field
    tree = ast.parse(
        "from typing import NamedTuple\n"
        "VIA = 1\n"
        "LOST: int = VIA\n"
        "class Rec(NamedTuple):\n"
        "    seen: int\n"
        "    lost: int = 0\n"
        "class Slot:\n"
        "    __slots__ = ('seen', 'lost')\n"
        "    def __init__(self):\n"
        "        self.seen = self.lost = 0\n"
        "class Plain:\n"
        "    lost: int = 0\n"
        "def entry(r):\n"
        "    r.lost = Rec(seen=1, lost=2).seen + Slot().seen\n"
        "    return Plain()\n"
        "entry(None)\n")
    unused = _unused({"m": tree}, bench=set())["m"]
    assert sorted(unused) == ["LOST", "Rec.lost", "Slot.lost", "VIA"]
