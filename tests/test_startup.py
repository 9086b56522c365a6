"""Importing milsem loads nothing beyond the modules its sources import.

Every command pays for ``import milsem.cli`` before it does anything.  A
fresh, isolated interpreter that imports ``milsem.cli`` must hold no
module outside the package that a fresh interpreter importing only the
modules named by the package's import statements does not hold as well.
Comparing against that baseline, not a fixed list, keeps the check true
on an interpreter whose own modules load more (on 3.12 and later, the
standard library itself imports ``inspect``).  No module may name
``dataclasses`` or ``inspect``: importing them, with the ``ast``,
``dis`` and ``tokenize`` they pull in, takes about as long as importing
all of milsem without them.

Run as a script, the check imports the installed package instead:

    python tests/test_startup.py
"""

import ast
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# too costly to import at start-up, and nothing milsem needs
BANNED = {"dataclasses", "inspect"}


def imported(tree: ast.Module) -> set[str]:
    """Each absolute module name an import in ``tree`` names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


def named_modules(package: Path) -> set[str]:
    """The modules the package's sources import, the package left out."""
    out = set().union(*(imported(ast.parse(p.read_text(encoding="utf-8")))
                        for p in package.glob("*.py")))
    return {m for m in out if m.split(".")[0] != package.name}


def loaded(python: str, code: str, *flags: str) -> set[str]:
    """The modules a fresh, isolated interpreter, started with ``flags``
    as well, holds after ``code``; it writes no bytecode cache."""
    out = subprocess.run(
        [python, "-I", "-B", *flags, "-c",
         code + "\nimport sys; print(*sys.modules)"],
        check=True, capture_output=True, text=True).stdout
    return set(out.split())


def added_modules(python: str, package: Path,
                  path: Optional[str] = None) -> set[str]:
    """The modules outside the package that importing ``milsem.cli``
    loads and importing the package's named modules does not."""
    setup = "" if path is None else f"import sys; sys.path.insert(0, {path!r})\n"
    baseline = loaded(python, "".join(f"import {m}\n"
                                      for m in sorted(named_modules(package))))
    after = loaded(python, setup + "import milsem.cli")
    return {m for m in after - baseline if m.split(".")[0] != "milsem"}


def test_import_adds_no_stdlib_module():
    assert added_modules(sys.executable, SRC / "milsem", str(SRC)) == set()


def test_import_leaves_the_package_data_reader_unloaded():
    # `textio.data_dir` imports importlib.resources when it is first
    # called: the import pulls in pathlib, tempfile and shutil, and it
    # would cost a command that reads no bundled data more than all of
    # milsem.  Without site start-up, which may load it on its own,
    # nothing else loads it either.
    after = loaded(sys.executable,
                   f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
                   "import milsem.cli", "-S")
    assert "milsem.cli" in after
    assert not {"importlib.resources", "zipfile"} & after


def test_no_module_imports_a_banned_module():
    for path in sorted((SRC / "milsem").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {m.split(".")[0] for m in imported(tree)}
        assert not named & BANNED, f"{path.name} imports {named & BANNED}"


def test_banned_imports_are_seen():
    tree = ast.parse("import inspect as i\n"
                     "def f():\n"
                     "    from dataclasses import field\n"
                     "from . import terms\n")
    assert imported(tree) == {"inspect", "dataclasses"}


if __name__ == "__main__":
    # the installed package, from a directory outside the checkout
    import importlib.util
    spec = importlib.util.find_spec("milsem")
    if spec is None:
        sys.exit("milsem is not installed")
    package = Path(spec.origin).parent
    added = added_modules(sys.executable, package)
    print(f"milsem at {package}: import milsem.cli adds "
          f"{sorted(added) or 'no module'}")
    sys.exit(1 if added else 0)
