"""Learning scenarios: background knowledge, metarules, pools and examples.

A scenario file is plain text divided by ``%% <section>`` headers:

    %% background     clauses, and builtin predicates used by them
    %% metarules      metarule(...) declarations
    %% head           predicates the learner may put in rule heads, p/n.
    %% body           auxiliary predicates allowed in rule bodies, p/n.
    %% functions      object-level constructors available to metarules, f/n.
    %% examples       pos(G). / neg(G). / nonterm(G).
    %% options        depth_limit(N). max_clauses(N). max_steps(N).

``background``, ``metarules``, ``head`` and ``examples`` are required.
The function pool is the declared set plus any functor that occurs in an
example goal but nowhere in the background program, so files only need to
spell out constructors the examples cannot reveal.  Arity-0 functions
double as constants; integer literals in examples join the constant pool.

Two directives, expanded in place, pull in what the bundled scenarios share
from `milsem.objectlang`: ``include(core(S)).`` in ``background`` stands
for ``base_clauses(S)``, S being full, lazy or eager, and
``include(library).`` in ``metarules`` for ``metarule_library()``.  A
section takes at most one of them.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Optional

from .metarules import Metarule, Pools
from .objectlang import CORES, base_clauses, default_builtins, metarule_library
from .solver import DEFAULT_DEPTH, Verdict
from .terms import Clause, Compound, Int, Symbol, Term
from .textio import (BLANKS, ParseError, _Parser, data_dir, print_term,
                     split_lines)

# the verdict each example tag demands of a program
DEMANDS = {"pos": Verdict.PROVED, "neg": Verdict.FINITE_FAILURE,
           "nonterm": Verdict.DEPTH_EXCEEDED}


class ScenarioError(ValueError):
    pass


class Example(NamedTuple):
    tag: str  # pos | neg | nonterm
    goal: Compound


class Options(NamedTuple):
    depth_limit: int = DEFAULT_DEPTH
    max_clauses: int = 10
    max_steps: int = 10_000_000  # the learner's budget, in meta-steps


class ScenarioSpec(NamedTuple):
    name: str
    bk: tuple[Clause, ...]
    metarules: tuple[Metarule, ...]
    head_preds: tuple[Symbol, ...]
    body_preds: tuple[Symbol, ...] = ()
    func_decls: tuple[Symbol, ...] = ()
    examples: tuple[Example, ...] = ()
    options: Options = Options()

    def positives(self) -> list[Example]:
        return [e for e in self.examples if e.tag == "pos"]

    def func_pool(self) -> tuple[Symbol, ...]:
        """Declared constructors first, then example-goal functors absent
        from the background, in order of first appearance."""
        bk_funcs = {x.functor for c in self.bk
                    for x in _subterms(t for a in (c.head, *c.body)
                                       for t in a.args)
                    if isinstance(x, Compound)}
        pool: dict[Symbol, None] = dict.fromkeys(self.func_decls)
        for x in _subterms(t for e in self.examples for t in e.goal.args):
            if isinstance(x, Compound) and x.functor not in bk_funcs:
                pool.setdefault(x.functor)
        return tuple(pool)

    def const_pool(self) -> tuple:
        consts: dict = dict.fromkeys(f for f in self.func_pool() if f.arity == 0)
        for x in _subterms(t for e in self.examples for t in e.goal.args):
            if isinstance(x, Int):
                consts.setdefault(x.value)
        return tuple(consts)

    def pools(self) -> Pools:
        return Pools(
            head_preds=tuple(self.head_preds),
            body_preds=tuple(self.body_preds),
            funcs=self.func_pool(),
            consts=self.const_pool(),
        )


def _subterms(terms: Iterable[Term]) -> Iterator[Term]:
    """Every subterm of each term in turn, in pre-order."""
    for t in terms:
        stack = [t]
        while stack:
            x = stack.pop()
            yield x
            if isinstance(x, Compound):
                stack.extend(reversed(x.args))


# ============================================================
# Parsing
# ============================================================


def _example(p: _Parser) -> Example:
    start = p.pos
    a = p.literal()
    p.expect(".")
    if a.functor.name not in DEMANDS or a.functor.arity != 1:
        raise ScenarioError(
            f"example at line {p.line_at(start)} must be pos(G), neg(G) or "
            f"nonterm(G), got {a.functor}")
    goal = a.args[0]
    if not isinstance(goal, Compound) or goal.functor.arity == 0:
        raise ScenarioError(
            f"example goal at line {p.line_at(start)} must be a compound atom")
    return Example(a.functor.name, goal)


_OPTIONS = frozenset(Options._fields)


def _option(p: _Parser) -> tuple[str, int]:
    start = p.pos
    a = p.literal()
    p.expect(".")
    if a.functor.arity != 1:
        raise ScenarioError(f"malformed option at line {p.line_at(start)}")
    name, arg = a.functor.name, a.args[0]
    if name not in _OPTIONS:
        raise ScenarioError(f"unknown option {name!r} at line {p.line_at(start)}")
    if not isinstance(arg, Int) or arg.value <= 0:
        raise ScenarioError(
            f"{name} at line {p.line_at(start)} needs a positive integer")
    return name, arg.value


# Each section, in the order sections are read: its item reader, what a
# repeated item is called where one may not repeat, its include
# directives, and whether the file must have it.
_SECTIONS = {
    "background": (_Parser.clause, None,
                   {f"include(core({s}))": partial(base_clauses, s)
                    for s in CORES}, True),
    "metarules": (_Parser.metarule, None,
                  {"include(library)": metarule_library}, True),
    "head": (_Parser.symbol_decl, "head predicate", {}, True),
    "body": (_Parser.symbol_decl, "body predicate", {}, False),
    "functions": (_Parser.symbol_decl, "function", {}, False),
    "examples": (_example, None, {}, True),
    "options": (_option, None, {}, False),
}


def _split_sections(text: str) -> dict[str, tuple[str, int]]:
    """Break the file at ``%%`` headers: each section's body and the
    number of its first line."""
    sections: dict[str, tuple[str, int]] = {}
    current: Optional[str] = None
    lines: list[str] = []
    first = 0
    for lineno, line in enumerate(split_lines(text), start=1):
        stripped = line.strip(BLANKS)
        if stripped.startswith("%%"):
            if current is not None:
                sections[current] = "\n".join(lines), first
            name = stripped[2:].strip(BLANKS)
            if name not in _SECTIONS:
                raise ScenarioError(
                    f"unknown section {name!r} at line {lineno}; "
                    f"expected one of {', '.join(_SECTIONS)}")
            if name in sections or name == current:
                raise ScenarioError(f"duplicate section {name!r} at line {lineno}")
            current = name
            lines = []
            first = lineno + 1
            continue
        if current is None:
            if stripped and not stripped.startswith("%"):
                raise ScenarioError(
                    f"content before the first %% section at line {lineno}")
            continue
        lines.append(line)
    if current is not None:
        sections[current] = "\n".join(lines), first
    for name, (*_, required) in _SECTIONS.items():
        if required and name not in sections:
            raise ScenarioError(f"missing required section {name!r}")
    return sections


def _read_section(section: str, text: str, line: int) -> tuple:
    """The items of a section whose first line is numbered ``line``, its
    include directive, if any, expanded in place."""
    read, repeated, includes, _ = _SECTIONS[section]
    p = _Parser(text, line)
    out: list = []
    included = False
    while p.peek():
        start = p.pos
        if includes and p.peek() == "include":
            directive = print_term(p.literal())
            p.expect(".")
            if directive not in includes:
                raise ScenarioError(
                    f"{directive}. at line {p.line_at(start)}: the {section} "
                    f"section takes only {', '.join(includes)}")
            if included:
                raise ScenarioError(
                    f"{directive}. at line {p.line_at(start)}: the {section} "
                    f"section takes at most one include directive")
            included = True
            out.extend(includes[directive]())
            continue
        item = read(p)
        if repeated and item in out:
            raise ScenarioError(
                f"duplicate {repeated} {item} at line {p.line_at(start)}")
        out.append(item)
    return tuple(out)


def parse_scenario(text: str, name: str = "scenario") -> ScenarioSpec:
    sections = _split_sections(text)
    items: dict[str, tuple] = {}
    # read in table order, each section lexed only when it is read, so the
    # first bad section in that order is the one reported
    for section in _SECTIONS:
        got = items[section] = _read_section(section,
                                             *sections.get(section, ("", 1)))
        if not got and section in ("metarules", "head"):
            raise ScenarioError(f"{section} section is empty")
        if section == "examples" and not any(e.tag == "pos" for e in got):
            raise ScenarioError("examples section has no positive example")
    spec = ScenarioSpec(name=name, bk=items["background"],
                        metarules=items["metarules"],
                        head_preds=items["head"], body_preds=items["body"],
                        func_decls=items["functions"],
                        examples=items["examples"],
                        options=Options(**dict(items["options"])))
    _validate(spec)
    return spec


def _validate(spec: ScenarioSpec) -> None:
    for s in spec.head_preds:
        if s.arity == 0:
            raise ScenarioError(f"head predicate {s.name} must take arguments")
    known = {c.head.functor for c in spec.bk}
    known.update(spec.head_preds)
    clash = sorted(map(str, known & default_builtins().predicates()))
    if clash:
        raise ScenarioError(
            f"{', '.join(clash)}: builtin, so neither the background nor "
            f"the head section may define it")
    for e in spec.examples:
        if e.goal.functor not in known:
            raise ScenarioError(
                f"example goal predicate {e.goal.functor} "
                f"is neither defined in the background nor learnable")
    seen_rules: set[str] = set()
    for m in spec.metarules:
        if m.name in seen_rules:
            raise ScenarioError(f"duplicate metarule name {m.name!r}")
        seen_rules.add(m.name)


def load_scenario(path: str) -> ScenarioSpec:
    """The scenario in a file, named after the file without its suffix."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return parse_scenario(text, name=name)
    except (ParseError, ScenarioError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None


# ============================================================
# Bundled scenarios
# ============================================================


def builtin_scenario_names() -> list[str]:
    return sorted(p.name[:-4] for p in data_dir("scenarios").iterdir()
                  if p.name.endswith(".pls"))


def builtin_scenario(name: str) -> ScenarioSpec:
    entry = data_dir("scenarios") / f"{name}.pls"
    if not entry.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; have {', '.join(builtin_scenario_names())}")
    return parse_scenario(entry.read_text(encoding="utf-8"), name=name)
