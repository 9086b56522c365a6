"""Reading terms, clauses and metarules, writing terms and clauses, and
finding the text files bundled with the package.

Concrete syntax follows logic-programming convention: a lowercase-leading
name is a functor or predicate, an uppercase- or underscore-leading name is
a variable, ``_`` on its own is anonymous, integers are literals, and
``%`` starts a comment that runs to the end of the line.  Clauses are
``head.`` or ``head :- b1,b2.``, each literal a compound term (or a bare
name) whose functor is its predicate.  The anonymous variables of one
parse are named ``_G1``, ``_G2``, ... in order of occurrence, skipping any
name the text itself writes, so each is distinct from every other variable
in the text and the same text always parses to the same terms.

Metarules use list encoding for template literals so that predicate and
function positions can hold metavariables:

    metarule(step2l, [func(H/2)], ([step,[H,A,B],[H,C,B]] :- [[step,A,C]])).

A list ``[f, t1, ..., tn]`` is one template compound wherever it occurs,
its functor ``f`` a name or a declared metavariable; a literal is always
written so, a term also as ``f(t1, ..., tn)`` when ``f`` is a name.

Inside a template, an uppercase name is a metavariable exactly when it is
declared; otherwise it is an ordinary first-order variable.  Declarations
are ``pred(P/2)``, ``func(H/2)`` and ``const(C)``; the arity may be left
off and is then inferred from use.

One compiled pattern is the lexer for terms, clauses, metarules and
scenario sections: ``findall`` gives the token strings, and a token's
kind is read off its first character.  Whitespace is space, tab, CR and
LF only.  Where no token can start, the pattern takes the rest of the
text as one last token, checked before parsing, so a bad character is
reported before any parse error.  A token's line and column are worked
out from its offset only when an error names them.

Printing is the inverse up to variable identity: output re-parses to an
alpha-equivalent clause, and to an equal one when every variable came from
parsing.  Variables minted by renaming print as ``_v<n>``.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Optional, Union

from .metarules import (
    CONST,
    FUNC,
    PRED,
    Decl,
    MetaVar,
    Metarule,
    MetaruleError,
    TComp,
    TTerm,
)
from .terms import (
    Clause,
    Compound,
    Int,
    Program,
    Symbol,
    Term,
    Var,
    symbol,
    var,
    var_name,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int,
                 expected: tuple[str, ...] = ()) -> None:
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"{message} at line {line}, column {col}"
        if expected:
            detail += " (expected " + " or ".join(sorted(expected)) + ")"
        super().__init__(detail)


# ============================================================
# Lexer
# ============================================================

# A token is ``:-``, a punctuation mark, an integer or a word (a name or a
# variable); a comment matches as an empty group.
_TOKENS = r":-|[()\[\],./]|-?\d+|\w+"
# The lexer's whitespace, and all of it: the readers of line-based files
# strip these characters, and no others, to find a blank line.
BLANKS = " \t\r\n"
_TOKEN = re.compile(r"%[^\n]*|(" + _TOKENS + "|[^" + BLANKS + r"][\s\S]*)")
_ONE_TOKEN = re.compile(_TOKENS)

# A token's kind is a token: itself for ``:-`` and punctuation, ``a`` for
# a name, ``A`` for a variable, ``0`` for an integer and ``""`` at the end.
_KINDS = {"": "", ":": ":-", "-": "0", "_": "A",
          **{c: c for c in "()[],./"},
          **dict.fromkeys("0123456789", "0"),
          **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "a"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "A")}


def _kind(tok: str) -> str:
    c = tok[:1]
    k = _KINDS.get(c)
    if k is None:  # a non-ASCII word
        k = "0" if c.isdecimal() else "A" if c.isupper() else "a"
    return k


# ============================================================
# Parser
# ============================================================


class _Parser:
    """Recursive descent over the tokens of ``text``, whose first line is
    numbered ``line``."""

    def __init__(self, text: str, line: int = 1) -> None:
        self.text = text
        self.line = line
        toks = _TOKEN.findall(text)
        if "%" in text:
            toks = [t for t in toks if t]
        # The first bad token: a word that starts with neither a letter nor
        # a digit, which only non-ASCII text can hold, or else the rest of
        # the text from where no token could start.
        bad = None
        if not text.isascii():
            bad = next((i for i, t in enumerate(toks) if not (
                t[0].isascii() or t[0].isalpha() or t[0].isdecimal())), None)
        if bad is None and toks and not _ONE_TOKEN.fullmatch(toks[-1]):
            bad = len(toks) - 1
        if bad is not None:
            ch = toks[bad][0]
            if ch == ":":
                raise self.error_at(bad, "stray ':'", (":-",))
            raise self.error_at(bad, f"unexpected character {ch!r}")
        toks.append("")
        self.toks = toks
        self.pos = 0
        self.first_var: Optional[int] = None  # the first variable's token
        self.written: Optional[set[str]] = None
        self.anonymous = 0

    def error_at(self, index: int, message: str,
                 expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at token ``index``, or at the end of the text for
        an index past the last token."""
        text = self.text
        starts = [m.start(1) for m in _TOKEN.finditer(text) if m.start(1) >= 0]
        offset = starts[index] if index < len(starts) else len(text)
        return ParseError(message, self.line + text.count("\n", 0, offset),
                          offset - text.rfind("\n", 0, offset), expected)

    def line_at(self, index: int) -> int:
        return self.error_at(index, "").line

    def fresh(self) -> Var:
        """For the next ``_``: the next ``_G<n>`` the text does not write."""
        if self.written is None:
            self.written = {t for t in self.toks if _kind(t) == "A"}
        self.anonymous += 1
        while f"_G{self.anonymous}" in self.written:
            self.anonymous += 1
        return var(f"_G{self.anonymous}")

    def peek(self) -> str:
        return self.toks[self.pos]

    def found(self, what: tuple[str, ...]) -> ParseError:
        """The error for an unexpected next token, ``what`` expected."""
        t = self.toks[self.pos]
        return self.error_at(self.pos, f"found {t!r}" if t
                             else "unexpected end of input", what)

    def expect(self, kind: str, what: str = "") -> str:
        """The next token, which must be of ``kind``; ``what`` names it in
        the error when it is not the token itself."""
        t = self.toks[self.pos]
        if _kind(t) != kind:
            raise self.found((what or kind,))
        self.pos += 1
        return t

    def integer(self, what: str = "") -> int:
        """The next token, which must be an integer, as an int; ``what``
        names it in the error when it is not one.  One with more digits
        than `int` converts is an error too."""
        t = self.expect("0", what)
        try:
            return int(t)
        except ValueError:
            raise self.error_at(self.pos - 1,
                                "integer too long to read") from None

    def arity(self) -> int:
        """The next token, which must be an arity: an integer of 0 or
        more."""
        n = self.integer("an arity")
        if n < 0:
            self.pos -= 1
            raise self.found(("an arity",))
        return n

    def accept(self, tok: str) -> bool:
        if self.toks[self.pos] == tok:
            self.pos += 1
            return True
        return False

    # ---- terms ----

    def term(self) -> Term:
        toks = self.toks
        t = toks[self.pos]
        kind = _KINDS.get(t[:1]) or _kind(t)  # no call for ASCII
        if kind == "a":
            self.pos += 1
            if toks[self.pos] != "(":
                return Compound(symbol(t, 0), ())
            self.pos += 1
            args = [self.term()]
            while toks[self.pos] == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")")
            return Compound(symbol(t, len(args)), tuple(args))
        if kind == "A":
            if self.first_var is None:
                self.first_var = self.pos
            self.pos += 1
            return self.fresh() if t == "_" else var(t)
        if kind == "0":
            return Int(self.integer())
        raise self.found(("a term",))

    def literal(self) -> Compound:
        """A literal: a compound or bare name, its functor the predicate."""
        if _kind(self.toks[self.pos]) != "a":
            raise self.found(("a predicate name",))
        return self.term()

    def clause(self) -> Clause:
        head = self.literal()
        body: list[Compound] = []
        if self.accept(":-"):
            body.append(self.literal())
            while self.accept(","):
                body.append(self.literal())
        self.expect(".")
        return Clause(head, tuple(body))

    # ---- symbol declarations: name/arity. ----

    def symbol_decl(self) -> Symbol:
        name = self.expect("a", "a symbol name")
        self.expect("/")
        arity = self.arity()
        self.expect(".")
        return symbol(name, arity)

    # ---- metarules ----

    def metarule(self) -> Metarule:
        start = self.pos
        kw = self.expect("a", "metarule")
        if kw != "metarule":
            raise self.error_at(start, f"found {kw!r}", ("metarule",))
        self.expect("(")
        name = self.expect("a", "a metarule name")
        self.expect(",")
        decls = self._decl_list()
        declared = {d.name for d in decls}
        self.expect(",")
        self.expect("(")
        head = self._template_list(declared)
        self.expect(":-")
        self.expect("[")
        body: list[TComp] = []
        if self.toks[self.pos] != "]":
            body.append(self._template_list(declared))
            while self.accept(","):
                body.append(self._template_list(declared))
        self.expect("]")
        self.expect(")")
        self.expect(")")
        self.expect(".")
        try:
            return Metarule(name, decls, head, body)
        except MetaruleError as exc:
            raise self.error_at(start, str(exc)) from None

    def _decl_list(self) -> list[Decl]:
        self.expect("[")
        decls: list[Decl] = []
        if self.toks[self.pos] != "]":
            decls.append(self._decl())
            while self.accept(","):
                decls.append(self._decl())
        self.expect("]")
        return decls

    def _decl(self) -> Decl:
        kind = self.expect("a", "pred, func or const")
        if kind not in (PRED, FUNC, CONST):
            raise self.error_at(self.pos - 1, f"found {kind!r}",
                                ("pred", "func", "const"))
        self.expect("(")
        name = self.expect("A", "a metavariable name")
        arity = -1  # inferred from use
        if self.accept("/"):
            arity = self.arity()
        self.expect(")")
        if kind == CONST:
            arity = 0
        return Decl(name, kind, arity)

    def _template_list(self, declared: set[str]) -> TComp:
        """``[f, t1, ..., tn]``, a template literal or term: ``f`` is a
        name or a declared metavariable."""
        self.expect("[")
        f = self.toks[self.pos]
        kind = _kind(f)
        if not (kind == "a" or kind == "A" and f in declared):
            raise self.found(("a name", "a declared metavariable"))
        self.pos += 1
        args: list[TTerm] = []
        while self.accept(","):
            args.append(self._template_term(declared))
        self.expect("]")
        if kind == "A":
            return TComp(MetaVar(f), tuple(args))
        return TComp(symbol(f, len(args)), tuple(args))

    def _template_term(self, declared: set[str]) -> TTerm:
        t = self.toks[self.pos]
        if t == "[":
            return self._template_list(declared)
        kind = _kind(t)
        if kind == "a":
            self.pos += 1
            args: list[TTerm] = []
            if self.accept("("):
                args.append(self._template_term(declared))
                while self.accept(","):
                    args.append(self._template_term(declared))
                self.expect(")")
            return TComp(symbol(t, len(args)), tuple(args))
        if kind == "A":
            self.pos += 1
            if t in declared:
                return MetaVar(t)
            return self.fresh() if t == "_" else var(t)
        if kind == "0":
            return Int(self.integer())
        raise self.found(("a template term",))

    def end(self) -> None:
        t = self.toks[self.pos]
        if t:
            raise self.error_at(self.pos, f"trailing input {t!r}",
                                ("end of input",))


# ============================================================
# Entry points
# ============================================================


def parse_term(text: str, line: int = 1, *,
               ground: Optional[str] = None) -> Term:
    """One term, optionally followed by a dot, whose first line is numbered
    ``line``.  With ``ground`` saying what the term is, it may write no
    variable: one is a ParseError naming it."""
    p = _Parser(text, line)
    t = p.term()
    p.accept(".")
    p.end()
    if ground is not None and p.first_var is not None:
        raise p.error_at(p.first_var,
                         f"variable {p.toks[p.first_var]} in {ground}")
    return t


def parse_clauses(text: str) -> list[Clause]:
    p = _Parser(text)
    out: list[Clause] = []
    while p.peek():
        out.append(p.clause())
    return out


def parse_metarules(text: str) -> list[Metarule]:
    p = _Parser(text)
    out: list[Metarule] = []
    while p.peek():
        out.append(p.metarule())
    return out


def split_lines(text: str) -> list[str]:
    """The lines of a scenario or corpus file.  A line ends at LF, CRLF or
    CR only, not at the form feed and the other separators that
    `str.splitlines` also breaks at, which the lexer takes for neither a
    line end nor whitespace.  A line end at the end of the text starts no
    further line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def data_dir(folder: str):
    """The package's bundled ``data/<folder>`` directory.  An install
    without it is broken, and the error says so."""
    # imported here: it pulls in pathlib, tempfile and shutil, which every
    # command would otherwise pay for at start-up
    import importlib.resources
    root = importlib.resources.files("milsem") / "data" / folder
    if not root.is_dir():
        raise FileNotFoundError(
            f"the milsem install is missing its bundled data: {root} "
            f"is not a directory")
    return root


# ============================================================
# Printing
# ============================================================


class PrintError(ValueError):
    """A term that cannot be printed: it holds an integer with more digits
    than Python converts to a string."""


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return var_name(t)
    if isinstance(t, Int):
        try:
            return str(t.value)
        except ValueError:
            raise PrintError(
                f"a value holds an integer too long to print (over "
                f"{sys.get_int_max_str_digits()} digits)") from None
    if not t.args:
        return t.functor.name
    return t.functor.name + "(" + ",".join(print_term(a) for a in t.args) + ")"


_WRAP_AT = 100


def print_clause(c: Clause) -> str:
    head = print_term(c.head)
    if not c.body:
        return head + "."
    body = [print_term(b) for b in c.body]
    flat = head + " :- " + ", ".join(body) + "."
    if len(flat) <= _WRAP_AT:
        return flat
    return head + " :-\n  " + ",\n  ".join(body) + "."


def print_program(clauses: Union[Program, Iterable[Clause]]) -> str:
    return "\n".join(print_clause(c) for c in clauses) + "\n"
