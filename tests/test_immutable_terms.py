"""Terms are shared, so nothing may change one after it is built.

`Var`, `Int` and `Compound` are not frozen dataclasses: a frozen class
pays a guarded ``object.__setattr__`` per field on every construction.
This scan is the guard instead.  It fails on any assignment to or
deletion of an attribute named like a term field, anywhere in ``src/``
or ``bench/``, and on any ``setattr``/``delattr`` call or ``__setattr__``
/``__delattr__`` use there, except the sites in `ALLOWED`.
"""

import ast
from pathlib import Path

from milsem.terms import Compound, Int, Var, const, var

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py")])

TERM_FIELDS = {"functor", "args", "id", "value"}

# (file, enclosing function) of each allowed setattr call, with the reason.
ALLOWED = {
    ("bench/tracer.py", "Tracer._patch"):
        "installs a wrapper as a module or class attribute",
    ("bench/tracer.py", "Tracer.uninstall"):
        "puts the wrapped module or class attribute back",
}


def _writes(tree: ast.Module):
    """(enclosing function, line, what) of each write the scan forbids."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr in TERM_FIELDS
                and not isinstance(node.ctx, ast.Load)):
            found.append((scope, node.lineno, f"store to .{node.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr in (
                "__setattr__", "__delattr__"):
            found.append((scope, node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr")):
            found.append((scope, node.lineno, f"{node.func.id} call"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_no_code_writes_a_term_field():
    bad, allowed_seen = [], set()
    for path in FILES:
        name = path.relative_to(ROOT).as_posix()
        for scope, line, what in _writes(ast.parse(path.read_text("utf-8"))):
            if what.endswith("call") and (name, scope) in ALLOWED:
                allowed_seen.add((name, scope))
            else:
                bad.append(f"{name}:{line} in {scope or 'module'}: {what}")
    assert bad == []
    assert allowed_seen == set(ALLOWED)  # no stale exemption


def test_scan_sees_each_kind_of_write():
    src = ("def f(t, u):\n"
           "    t.args = ()\n"
           "    t.value += 1\n"
           "    del u.functor\n"
           "    t.id, u.x = 1, 2\n"
           "    setattr(t, 'args', ())\n"
           "    object.__setattr__(t, 'id', 0)\n"
           "    t.functor.name\n")
    assert [w for _, _, w in _writes(ast.parse(src))] == [
        "store to .args", "store to .value", "store to .functor",
        "store to .id", "setattr call", "__setattr__"]


def test_terms_compare_and_hash_by_value():
    t = Compound(const("f").functor, ())
    assert t == const("f") and hash(t) == hash(const("f"))
    assert Int(3) == Int(3) and hash(Int(3)) == hash(Int(3))
    assert var("X") == Var(var("X").id) and Int(1) != Var(1)
    assert {Int(1), Int(1), Var(1)} == {Int(1), Var(1)}
    assert repr(Int(2)) == "Int(value=2)"
