"""Terms and their symbols are shared, so nothing may change one after
it is built.

`Symbol`, `Var`, `Int` and `Compound` are plain ``__slots__`` classes
with no run-time guard on their fields: a guard would pay an
``object.__setattr__`` per field on every construction.  This scan is
the guard instead.  It fails on any assignment to or deletion of an
attribute named like a term or symbol field, anywhere in ``src/`` or
``bench/``, except the stores in `CONSTRUCTORS`, and on any
``setattr``/``delattr`` call or ``__setattr__``/``__delattr__`` use
there, except the sites in `ALLOWED`.
"""

import ast
from pathlib import Path

from milsem.terms import Compound, Int, Var, const, symbol, var

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py")])

TERM_FIELDS = {"functor", "args", "id", "value", "name", "arity"}

# (file, enclosing function) of each constructor, with the fields it sets
CONSTRUCTORS = {
    ("src/milsem/terms.py", "Symbol.__init__"): {"name", "arity"},
    # a metarule is no term, but its name field is named like a symbol's
    ("src/milsem/metarules.py", "Metarule.__init__"): {"name"},
    ("src/milsem/terms.py", "Var.__init__"): {"id"},
    ("src/milsem/terms.py", "Int.__init__"): {"value"},
    ("src/milsem/terms.py", "Compound.__init__"): {"functor", "args"},
}

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


def _forbidden(name: str, tree: ast.Module, seen: set) -> list[str]:
    """Each write in file ``name`` that neither `CONSTRUCTORS` nor
    `ALLOWED` admits; adds the admitting entries it uses to ``seen``."""
    bad = []
    for scope, line, what in _writes(tree):
        site = (name, scope)
        if what.endswith("call") and site in ALLOWED:
            seen.add(site)
        elif what.removeprefix("store to .") in CONSTRUCTORS.get(site, ()):
            seen.add(site)
        else:
            bad.append(f"{name}:{line} in {scope or 'module'}: {what}")
    return bad


def test_no_code_writes_a_term_field():
    bad, seen = [], set()
    for path in FILES:
        name = path.relative_to(ROOT).as_posix()
        bad += _forbidden(name, ast.parse(path.read_text("utf-8")), seen)
    assert bad == []
    assert seen == set(ALLOWED) | set(CONSTRUCTORS)  # no stale exemption


def test_only_a_constructor_stores_its_own_fields():
    tree = ast.parse("class Var:\n"
                     "    def __init__(self, id):\n"
                     "        self.id = id\n"
                     "        self.value = id\n"
                     "    def rebind(self, id):\n"
                     "        self.id = id\n")
    seen: set = set()
    assert _forbidden("src/milsem/terms.py", tree, seen) == [
        "src/milsem/terms.py:4 in Var.__init__: store to .value",
        "src/milsem/terms.py:6 in Var.rebind: store to .id"]
    assert seen == {("src/milsem/terms.py", "Var.__init__")}
    assert len(_forbidden("src/milsem/other.py", tree, set())) == 3


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
    # a term hashes as the tuple of its fields, a symbol by identity
    g = Compound(symbol("g", 2), (Int(1), Var(2)))
    assert hash(Int(1)) == hash((1,)) and hash(Var(2)) == hash((2,))
    assert hash(g) == hash((g.functor, g.args))
    assert hash(g.functor) == object.__hash__(g.functor)
    assert Int(1).__eq__(1) is NotImplemented
    assert repr(g) == ("Compound(functor=Symbol(name='g', arity=2), "
                       "args=(Int(value=1), Var(id=2)))")

