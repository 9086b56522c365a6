"""Random object-term corpora for exercising learned rule programs.

Terms are drawn from per-fragment grammars shaped so that every generated
term evaluates to a value: selectors are only applied to syntactic pairs
or conses, conditions only to boolean expressions, ``add`` only to integer
expressions, and function positions hold lambdas (possibly through a
curried application), never bare variables, so nothing gets stuck and
nothing diverges.  On top of the grammar every candidate is vetted with
the reference interpreter under both strategies: it must reach a value,
the two strategies must agree on it up to alpha, and the evaluation chain
must be short enough to fit comfortably inside the default proof depth.
Rejected candidates are simply redrawn.

A corpus lives in a ``.terms`` file, one ground term per line, ``%``
comments.
"""

from __future__ import annotations

import random
from typing import Callable

from .objectlang import STRATEGIES, OracleConfig, alpha_equal, eval_chain, is_value
from .terms import Compound, Int, Term, mk
from .textio import data_dir, parse_term, print_term

CORPUS_KINDS = ("pairs", "lists", "conditionals", "lazy_eager", "mixed")

_NAMES = ("a", "b", "c", "x", "y", "z")
_MAX_CHAIN = 30
_MAX_DEPTH = 4  # of a generated term's grammar derivation


def _v(name: str) -> Compound:
    return mk("var", mk(name))


class _Gen:
    def __init__(self, kind: str, rng: random.Random) -> None:
        self.kind = kind
        self.rng = rng

    def leaf(self, bound: tuple[str, ...]) -> Term:
        rng = self.rng
        picks: list[Callable[[], Term]] = [lambda: _v(rng.choice(_NAMES))]
        if bound:
            picks.append(lambda: _v(rng.choice(bound)))
        if self.kind in ("lazy_eager", "mixed", "pairs", "lists"):
            picks.append(lambda: mk("lit", Int(rng.randrange(10))))
        if self.kind in ("conditionals", "mixed"):
            picks.append(lambda: mk(rng.choice(("true", "false"))))
        if self.kind in ("lists", "mixed"):
            picks.append(lambda: mk("nil"))
        return rng.choice(picks)()

    def bool_expr(self, d: int) -> Term:
        rng = self.rng
        if d <= 0 or rng.random() < 0.5:
            return mk(rng.choice(("true", "false")))
        return mk("if", self.bool_expr(d - 1),
                  mk("thenelse", self.bool_expr(d - 1), self.bool_expr(d - 1)))

    def int_expr(self, d: int) -> Term:
        rng = self.rng
        if d <= 0 or rng.random() < 0.5:
            return mk("lit", Int(rng.randrange(10)))
        return mk("add", self.int_expr(d - 1), self.int_expr(d - 1))

    def lam(self, d: int, bound: tuple[str, ...]) -> Term:
        x = self.rng.choice(_NAMES)
        return mk("lam", mk(x), self.expr(d, bound + (x,)))

    def application(self, d: int, bound: tuple[str, ...]) -> Term:
        # function position: a lambda, or a curried redex producing one
        rng = self.rng
        if d >= 2 and rng.random() < 0.3:
            x, y = rng.sample(_NAMES, 2)
            fun = mk("app",
                     mk("lam", mk(x),
                        mk("lam", mk(y), self.expr(d - 2, bound + (x, y)))),
                     self.expr(d - 2, bound))
            return mk("app", fun, self.expr(d - 2, bound))
        return mk("app", self.lam(d - 1, bound), self.expr(d - 1, bound))

    def expr(self, d: int, bound: tuple[str, ...] = ()) -> Term:
        rng = self.rng
        if d <= 0:
            return self.leaf(bound)
        kind = self.kind
        choices: list[Callable[[], Term]] = [lambda: self.leaf(bound)]
        if kind in ("pairs", "mixed"):
            choices += [
                lambda: mk("pair", self.expr(d - 1, bound), self.expr(d - 1, bound)),
                lambda: mk("fst", mk("pair", self.expr(d - 1, bound),
                                     self.expr(d - 1, bound))),
                lambda: mk("snd", mk("pair", self.expr(d - 1, bound),
                                     self.expr(d - 1, bound))),
                lambda: self.application(d, bound),
            ]
        if kind in ("lists", "mixed"):
            choices += [
                lambda: mk("cons", self.expr(d - 1, bound), self.expr(d - 1, bound)),
                lambda: mk("head", mk("cons", self.expr(d - 1, bound),
                                      self.expr(d - 1, bound))),
                lambda: mk("tail", mk("cons", self.expr(d - 1, bound),
                                      self.expr(d - 1, bound))),
                lambda: self.application(d, bound),
            ]
        if kind in ("conditionals", "mixed"):
            choices += [
                lambda: mk("if", self.bool_expr(d - 1),
                           mk("thenelse", self.expr(d - 1, bound),
                              self.expr(d - 1, bound))),
                lambda: self.bool_expr(d),
                lambda: self.application(d, bound),
            ]
        if kind in ("lazy_eager", "mixed"):
            choices += [
                lambda: self.application(d, bound),
                lambda: self.lam(d - 1, bound),
                lambda: self.int_expr(d),
            ]
        return rng.choice(choices)()


def _acceptable(t: Term) -> bool:
    # a chain that ends in a non-value got stuck or ran out of fuel
    lazy, eager = (eval_chain(t, OracleConfig(strategy=s)) for s in STRATEGIES)
    if not (is_value(lazy[-1]) and is_value(eager[-1])):
        return False
    if not alpha_equal(lazy[-1], eager[-1]):
        return False  # strategy-sensitive, would make corpora ambiguous
    return max(len(lazy), len(eager)) <= _MAX_CHAIN


def generate_term(kind: str, rng: random.Random) -> Term:
    """One vetted term of the fragment; redraws until acceptable."""
    if kind not in CORPUS_KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}")
    gen = _Gen(kind, rng)
    while True:
        t = gen.expr(rng.randrange(1, _MAX_DEPTH + 1))
        if _acceptable(t):
            return t


def generate_corpus(kind: str, count: int, seed: int = 0) -> list[Term]:
    """``count`` distinct vetted terms, reproducible from the seed."""
    rng = random.Random(seed)
    out: list[Term] = []
    seen: set[str] = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > count * 500:
            raise RuntimeError(f"corpus generation for {kind!r} is not converging")
        t = generate_term(kind, rng)
        key = print_term(t)
        if key in seen:
            continue
        seen.add(key)
        out.append(t)
    return out


# ============================================================
# Corpus files
# ============================================================


def save_corpus(path: str, terms: list[Term], header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"% {line}\n")
        for t in terms:
            fh.write(print_term(t) + "\n")


def load_corpus(path: str) -> list[Term]:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh.read())


def parse_corpus(text: str) -> list[Term]:
    """The terms of a corpus, one a line.  A line that does not parse, or
    that writes a variable, is a `ParseError` naming that line."""
    out: list[Term] = []
    for n, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        out.append(parse_term(line, n, ground="a corpus term"))
    return out


def builtin_corpus_names() -> list[str]:
    return sorted(p.name[:-6] for p in data_dir("corpora").iterdir()
                  if p.name.endswith(".terms"))


def builtin_corpus(name: str) -> list[Term]:
    entry = data_dir("corpora") / f"{name}.terms"
    if not entry.is_file():
        raise ValueError(
            f"no bundled corpus {name!r}; have {', '.join(builtin_corpus_names())}")
    return parse_corpus(entry.read_text(encoding="utf-8"))
