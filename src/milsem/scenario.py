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
``include(library).`` in ``metarules`` for ``metarule_library()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .metarules import Metarule, Pools
from .objectlang import CORES, base_clauses, default_builtins, metarule_library
from .solver import DEFAULT_DEPTH
from .terms import Clause, Compound, Int, Symbol, Term
from .textio import ParseError, _Parser, data_dir, print_term

EXAMPLE_TAGS = ("pos", "neg", "nonterm")

_SECTIONS = ("background", "metarules", "head", "body", "functions",
             "examples", "options")
_REQUIRED = ("background", "metarules", "head", "examples")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Example:
    tag: str  # pos | neg | nonterm
    goal: Compound


@dataclass(frozen=True, slots=True)
class Options:
    depth_limit: int = DEFAULT_DEPTH
    max_clauses: int = 10
    max_steps: int = 10_000_000  # the learner's budget, in meta-steps


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    name: str
    bk: tuple[Clause, ...]
    metarules: tuple[Metarule, ...]
    head_preds: tuple[Symbol, ...]
    body_preds: tuple[Symbol, ...] = ()
    func_decls: tuple[Symbol, ...] = ()
    examples: tuple[Example, ...] = ()
    options: Options = field(default_factory=Options)

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


def _split_sections(text: str) -> dict[str, str]:
    """Break the file at ``%%`` headers, padding each part with newlines so
    parse errors report positions in the original file."""
    sections: dict[str, str] = {}
    current: Optional[str] = None
    lines: list[str] = []
    pad = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("%%"):
            if current is not None:
                sections[current] = "\n" * pad + "\n".join(lines)
            name = stripped[2:].strip()
            if name not in _SECTIONS:
                raise ScenarioError(
                    f"unknown section {name!r} at line {lineno}; "
                    f"expected one of {', '.join(_SECTIONS)}")
            if name in sections or name == current:
                raise ScenarioError(f"duplicate section {name!r} at line {lineno}")
            current = name
            lines = []
            pad = lineno
            continue
        if current is None:
            if stripped and not stripped.startswith("%"):
                raise ScenarioError(
                    f"content before the first %% section at line {lineno}")
            continue
        lines.append(line)
    if current is not None:
        sections[current] = "\n" * pad + "\n".join(lines)
    for name in _REQUIRED:
        if name not in sections:
            raise ScenarioError(f"missing required section {name!r}")
    return sections


_INCLUDES = {
    "background": {f"include(core({s}))": partial(base_clauses, s)
                   for s in CORES},
    "metarules": {"include(library)": metarule_library},
}


def _parse_items(sections: dict[str, str], section: str,
                 parse_one: Callable[[_Parser], object]) -> tuple:
    """Parse the items of a section, expanding include directives in place."""
    includes = _INCLUDES[section]
    p = _Parser(sections[section])
    out: list = []
    while p.peek():
        start = p.pos
        if p.peek() != "include":
            out.append(parse_one(p))
            continue
        directive = print_term(p.literal())
        p.expect(".")
        if directive not in includes:
            raise ScenarioError(
                f"{directive}. at line {p.line_at(start)}: the {section} section "
                f"takes only {', '.join(includes)}")
        out.extend(includes[directive]())
    return tuple(out)


def _parse_examples(text: str) -> list[Example]:
    p = _Parser(text)
    out: list[Example] = []
    while p.peek():
        start = p.pos
        a = p.literal()
        p.expect(".")
        if a.functor.name not in EXAMPLE_TAGS or a.functor.arity != 1:
            raise ScenarioError(
                f"example at line {p.line_at(start)} must be pos(G), neg(G) or "
                f"nonterm(G), got {a.functor}")
        goal = a.args[0]
        if not isinstance(goal, Compound) or goal.functor.arity == 0:
            raise ScenarioError(
                f"example goal at line {p.line_at(start)} must be a compound atom")
        out.append(Example(a.functor.name, goal))
    return out


def _parse_options(text: str) -> Options:
    p = _Parser(text)
    opts = Options()
    while p.peek():
        start = p.pos
        a = p.literal()
        p.expect(".")
        if a.functor.arity != 1:
            raise ScenarioError(f"malformed option at line {p.line_at(start)}")
        arg = a.args[0]
        name = a.functor.name
        if name in ("depth_limit", "max_clauses", "max_steps"):
            if not isinstance(arg, Int) or arg.value <= 0:
                raise ScenarioError(
                    f"{name} at line {p.line_at(start)} needs a positive integer")
            opts = replace(opts, **{name: arg.value})
        else:
            raise ScenarioError(
                f"unknown option {name!r} at line {p.line_at(start)}")
    return opts


def _parse_symbol_list(text: str, *, what: str) -> tuple[Symbol, ...]:
    p = _Parser(text)
    out: list[Symbol] = []
    while p.peek():
        start = p.pos
        s = p.symbol_decl()
        if s in out:
            raise ScenarioError(f"duplicate {what} {s.name}/{s.arity} "
                                f"at line {p.line_at(start)}")
        out.append(s)
    return tuple(out)


def parse_scenario(text: str, name: str = "scenario") -> ScenarioSpec:
    sections = _split_sections(text)
    bk = _parse_items(sections, "background", _Parser.clause)
    metarules = _parse_items(sections, "metarules", _Parser.metarule)
    if not metarules:
        raise ScenarioError("metarules section is empty")
    head = _parse_symbol_list(sections["head"], what="head predicate")
    if not head:
        raise ScenarioError("head section is empty")
    body = _parse_symbol_list(sections.get("body", ""), what="body predicate")
    funcs = _parse_symbol_list(sections.get("functions", ""), what="function")
    examples = tuple(_parse_examples(sections["examples"]))
    if not any(e.tag == "pos" for e in examples):
        raise ScenarioError("examples section has no positive example")
    options = _parse_options(sections.get("options", ""))

    spec = ScenarioSpec(name=name, bk=bk, metarules=metarules,
                        head_preds=head, body_preds=body, func_decls=funcs,
                        examples=examples, options=options)
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
