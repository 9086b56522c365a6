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

Printing is the inverse up to variable identity: output re-parses to an
alpha-equivalent clause, and to an equal one when every variable came from
parsing.  Variables minted by renaming print as ``_v<n>``.
"""

from __future__ import annotations

import importlib.resources
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

_PUNCT = {"(": "LP", ")": "RP", "[": "LB", "]": "RB", ",": "COMMA",
          ".": "DOT", "/": "SLASH"}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r})"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str, line: int = 1) -> list[Token]:
    """The tokens of ``text``, whose first line is numbered ``line``."""
    toks: list[Token] = []
    i = 0
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == ":":
            if i + 1 < n and text[i + 1] == "-":
                toks.append(Token("IMPL", ":-", line, start_col))
                i += 2
                col += 2
                continue
            raise ParseError("stray ':'", line, col, (":-",))
        if ch in _PUNCT:
            toks.append(Token(_PUNCT[ch], ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            word = text[i:j]
            kind = "VNAME" if (ch == "_" or ch.isupper()) else "NAME"
            toks.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ============================================================
# Parser
# ============================================================


class _Parser:
    def __init__(self, text: str, line: int = 1) -> None:
        self.toks = tokenize(text, line)
        self.pos = 0
        self.written = {t.text for t in self.toks if t.kind == "VNAME"}
        self.anonymous = 0

    def fresh(self) -> Var:
        """For the next ``_``: the next ``_G<n>`` the text does not write."""
        self.anonymous += 1
        while f"_G{self.anonymous}" in self.written:
            self.anonymous += 1
        return var(f"_G{self.anonymous}")

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"found {t.text!r}" if t.text else "unexpected end of input",
                             t.line, t.col, (what,))
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    # ---- terms ----

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "VNAME":
            self.next()
            if t.text == "_":
                return self.fresh()
            return var(t.text)
        if t.kind == "INT":
            self.next()
            return Int(int(t.text))
        if t.kind == "NAME":
            self.next()
            if self.accept("LP"):
                args = [self.term()]
                while self.accept("COMMA"):
                    args.append(self.term())
                self.expect("RP", ")")
                return Compound(symbol(t.text, len(args)), tuple(args))
            return Compound(symbol(t.text, 0), ())
        raise ParseError(f"found {t.text!r}" if t.text else "unexpected end of input",
                         t.line, t.col, ("a term",))

    def literal(self) -> Compound:
        """A literal: a compound or bare name, its functor the predicate."""
        if not self.at("NAME"):
            self.expect("NAME", "a predicate name")
        return self.term()

    def clause(self) -> Clause:
        head = self.literal()
        body: list[Compound] = []
        if self.accept("IMPL"):
            body.append(self.literal())
            while self.accept("COMMA"):
                body.append(self.literal())
        self.expect("DOT", ".")
        return Clause(head, tuple(body))

    # ---- symbol declarations: name/arity. ----

    def symbol_decl(self) -> Symbol:
        t = self.expect("NAME", "a symbol name")
        self.expect("SLASH", "/")
        a = self.expect("INT", "an arity")
        self.expect("DOT", ".")
        return symbol(t.text, int(a.text))

    # ---- metarules ----

    def metarule(self) -> Metarule:
        kw = self.expect("NAME", "metarule")
        if kw.text != "metarule":
            raise ParseError(f"found {kw.text!r}", kw.line, kw.col, ("metarule",))
        self.expect("LP", "(")
        name = self.expect("NAME", "a metarule name").text
        self.expect("COMMA", ",")
        decls = self._decl_list()
        declared = {d.name for d in decls}
        self.expect("COMMA", ",")
        self.expect("LP", "(")
        head = self._template_list(declared)
        self.expect("IMPL", ":-")
        self.expect("LB", "[")
        body: list[TComp] = []
        if not self.at("RB"):
            body.append(self._template_list(declared))
            while self.accept("COMMA"):
                body.append(self._template_list(declared))
        self.expect("RB", "]")
        self.expect("RP", ")")
        self.expect("RP", ")")
        self.expect("DOT", ".")
        try:
            return Metarule(name, decls, head, body)
        except MetaruleError as exc:
            raise ParseError(str(exc), kw.line, kw.col) from None

    def _decl_list(self) -> list[Decl]:
        self.expect("LB", "[")
        decls: list[Decl] = []
        if not self.at("RB"):
            decls.append(self._decl())
            while self.accept("COMMA"):
                decls.append(self._decl())
        self.expect("RB", "]")
        return decls

    def _decl(self) -> Decl:
        kw = self.expect("NAME", "pred, func or const")
        if kw.text not in (PRED, FUNC, CONST):
            raise ParseError(f"found {kw.text!r}", kw.line, kw.col,
                             ("pred", "func", "const"))
        self.expect("LP", "(")
        name = self.expect("VNAME", "a metavariable name").text
        arity = -1  # inferred from use
        if self.accept("SLASH"):
            arity = int(self.expect("INT", "an arity").text)
        self.expect("RP", ")")
        if kw.text == CONST:
            arity = 0
        return Decl(name, kw.text, arity)

    def _template_list(self, declared: set[str]) -> TComp:
        """``[f, t1, ..., tn]``, a template literal or term: ``f`` is a
        name or a declared metavariable."""
        self.expect("LB", "[")
        f = self.peek()
        if not (f.kind == "NAME" or f.kind == "VNAME" and f.text in declared):
            raise ParseError(f"found {f.text!r}", f.line, f.col,
                             ("a name", "a declared metavariable"))
        self.next()
        args: list[TTerm] = []
        while self.accept("COMMA"):
            args.append(self._template_term(declared))
        self.expect("RB", "]")
        if f.kind == "VNAME":
            return TComp(MetaVar(f.text), tuple(args))
        return TComp(symbol(f.text, len(args)), tuple(args))

    def _template_term(self, declared: set[str]) -> TTerm:
        t = self.peek()
        if t.kind == "LB":
            return self._template_list(declared)
        if t.kind == "VNAME":
            self.next()
            if t.text in declared:
                return MetaVar(t.text)
            if t.text == "_":
                return self.fresh()
            return var(t.text)
        if t.kind == "INT":
            self.next()
            return Int(int(t.text))
        if t.kind == "NAME":
            self.next()
            if self.accept("LP"):
                args = [self._template_term(declared)]
                while self.accept("COMMA"):
                    args.append(self._template_term(declared))
                self.expect("RP", ")")
                return TComp(symbol(t.text, len(args)), tuple(args))
            return TComp(symbol(t.text, 0), ())
        raise ParseError(f"found {t.text!r}" if t.text else "unexpected end of input",
                         t.line, t.col, ("a template term",))

    def end(self) -> None:
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col, ("end of input",))


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
    p.accept("DOT")
    p.end()
    if ground is not None and p.written:
        tok = next(tok for tok in p.toks if tok.kind == "VNAME")
        raise ParseError(f"variable {tok.text} in {ground}", tok.line, tok.col)
    return t


def parse_clauses(text: str) -> list[Clause]:
    p = _Parser(text)
    out: list[Clause] = []
    while not p.at("EOF"):
        out.append(p.clause())
    return out


def parse_metarules(text: str) -> list[Metarule]:
    p = _Parser(text)
    out: list[Metarule] = []
    while not p.at("EOF"):
        out.append(p.metarule())
    return out


def data_dir(folder: str):
    """The package's bundled ``data/<folder>`` directory.  An install
    without it is broken, and the error says so."""
    root = importlib.resources.files("milsem") / "data" / folder
    if not root.is_dir():
        raise FileNotFoundError(
            f"the milsem install is missing its bundled data: {root} "
            f"is not a directory")
    return root


# ============================================================
# Printing
# ============================================================


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return var_name(t)
    if isinstance(t, Int):
        return str(t.value)
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
