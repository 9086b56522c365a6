"""The exact errors the parser and the scenario reader give.

Each row is an input and the error it must raise: the whole message,
and for a `ParseError` its line, column and expected set.  The table
pins where a position comes from (a token, the end of input after a
trailing comment, a bad character found before any parse error), so a
change to the lexer cannot move one unseen.
"""

import pytest

from milsem.corpus import parse_corpus
from milsem.scenario import (
    ScenarioError,
    builtin_scenario_names,
    parse_scenario,
)
from milsem.terms import Int
from milsem.textio import (
    ParseError,
    data_dir,
    parse_clauses,
    parse_metarules,
    parse_term,
    print_term,
)

TERM_ERRORS = [
    # (text, message, line, column, expected)
    ("f(%x", "unexpected end of input", 1, 5, ("a term",)),
    ("f(a,) ²", "unexpected character '²'", 1, 7, ()),
    ("f(a:b)", "stray ':'", 1, 4, (":-",)),
    ("f(²)", "unexpected character '²'", 1, 3, ()),
    ("\x0cf(a)", "unexpected character '\\x0c'", 1, 1, ()),
    ("f(-)", "unexpected character '-'", 1, 3, ()),
    ("12abc", "trailing input 'abc'", 1, 3, ("end of input",)),
    ("F(a)", "trailing input '('", 1, 2, ("end of input",)),
    ("f(a,)", "found ')'", 1, 5, ("a term",)),
    ("f(a).\n.", "trailing input '.'", 2, 1, ("end of input",)),
    ("f(a,\n  %c\n", "unexpected end of input", 3, 1, ("a term",)),
    ("a²(b) ½", "unexpected character '½'", 1, 7, ()),
    ("\tf(a, %c\n\r  b", "unexpected end of input", 2, 5, (")",)),
    # more digits than int() converts (4,300 since CPython 3.10.7)
    pytest.param(("lit(" + "1" * 5000 + ")", "integer too long to read", 1, 5,
                  ()), id="integer of 5,000 digits"),
]

CLAUSE_ERRORS = [
    ("f(%x", "unexpected end of input", 1, 5, ("a term",)),
    ("f(a,) ²", "unexpected character '²'", 1, 7, ()),
    ("12abc", "found '12'", 1, 1, ("a predicate name",)),
    ("F(a)", "found 'F'", 1, 1, ("a predicate name",)),
    ("f(a).\n.", "found '.'", 2, 1, ("a predicate name",)),
    ("Ωx", "found 'Ωx'", 1, 1, ("a predicate name",)),
    ("f(X)", "unexpected end of input", 1, 5, (".",)),
    ("f(a) %c", "unexpected end of input", 1, 8, (".",)),
]

METARULE_ERRORS = [
    ("metarule(m, [foo(H)], ([step,A] :- [])).", "found 'foo'", 1, 14,
     ("pred", "func", "const")),
    ("metarule(m, [], ([A,B] :- [])).", "found 'A'", 1, 19,
     ("a name", "a declared metavariable")),
    ("metarule(m, [], ([", "unexpected end of input", 1, 19,
     ("a name", "a declared metavariable")),
    ("rule(m).", "found 'rule'", 1, 1, ("metarule",)),
    ("metarule(m, [func(H/x)], ([step,A] :- [])).", "found 'x'", 1, 21,
     ("an arity",)),
    ("metarule(m, [func(H/-2)], ([step,[H,A,B],C] :- [])).", "found '-2'", 1,
     21, ("an arity",)),
    ("metarule(m, [], ([step,[f,A]] :- [[step, ²]])).",
     "unexpected character '²'", 1, 42, ()),
    ("metarule(m, [func(H/2)], ([step,A,B] :- [])).",
     "metarule m: unused metavariable H", 1, 1, ()),
    ("metarule(m, [func(P/2)], ([P,A,B] :- [])).",
     "metarule m: P declared func but used as pred", 1, 1, ()),
    ("metarule(m, [func(H/3)], ([step,[H,A,B],C] :- [])).",
     "metarule m: H declared arity 3 but used with arity 2", 1, 1, ()),
    ("metarule(m, [const(C)], ([step,[C,A],B] :- [])).",
     "metarule m: C declared const but used as func", 1, 1, ()),
    ("metarule(m, [], ([step,)] :- [])).", "found ')'", 1, 24,
     ("a template term",)),
]

CORPUS_ERRORS = [
    ("f(X)", "variable X in a corpus term", 1, 3, ()),
    ("ok\n\nf(_,a)", "variable _ in a corpus term", 3, 3, ()),
    ("f(a) b", "trailing input 'b'", 1, 6, ("end of input",)),
    # a line ends at LF, CRLF or CR only: another separator is a bad
    # character outside a comment and part of it inside one
    ("lit(1)\x1elit(2)", "unexpected character '\\x1e'", 1, 7, ()),
    ("% a\x85b\nf(X)", "variable X in a corpus term", 2, 3, ()),
    ("ok\r\n\r\nf(_,a)", "variable _ in a corpus term", 3, 3, ()),
    ("ok\r\rf(_,a)", "variable _ in a corpus term", 3, 3, ()),
    # a line is blank or a comment on the lexer's whitespace alone, so
    # another space-like character is a bad character wherever it stands
    ("\xa0\nlit(1)", "unexpected character '\\xa0'", 1, 1, ()),
    ("\x1f% c\nlit(1)", "unexpected character '\\x1f'", 1, 1, ()),
    ("\xa0lit(1)", "unexpected character '\\xa0'", 1, 1, ()),
    pytest.param(("lit(1)\nlit(-" + "1" * 4301 + ")",
                  "integer too long to read", 2, 5, ()),
                 id="integer of 4,301 digits"),
]


def _detail(message, line, col, expected):
    text = f"{message} at line {line}, column {col}"
    if expected:
        text += " (expected " + " or ".join(sorted(expected)) + ")"
    return text


def _check(parse, text, message, line, col, expected):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.line, e.value.col, e.value.expected) == (
        _detail(message, line, col, expected), line, col, expected)


@pytest.mark.parametrize("row", TERM_ERRORS, ids=repr)
def test_term_errors(row):
    _check(parse_term, *row)


@pytest.mark.parametrize("row", CLAUSE_ERRORS, ids=repr)
def test_clause_errors(row):
    _check(parse_clauses, *row)


@pytest.mark.parametrize("row", METARULE_ERRORS, ids=repr)
def test_metarule_errors(row):
    _check(parse_metarules, *row)


@pytest.mark.parametrize("row", CORPUS_ERRORS, ids=repr)
def test_corpus_errors(row):
    _check(parse_corpus, *row)


@pytest.mark.parametrize("text, terms", [
    ("% c\x0clit(9)\nlit(1)", ["lit(1)"]),
    ("% c\u2028lit(9)\r\nlit(1)\rlit(2)\r\n", ["lit(1)", "lit(2)"]),
    (" \t\n\t % c\nlit(1)", ["lit(1)"]),
], ids=repr)
def test_corpus_line_ends(text, terms):
    assert [print_term(t) for t in parse_corpus(text)] == terms


def test_terms_that_parse():
    assert parse_term("Ωx") == parse_term("Ωx.")
    assert parse_term("f(a) %c") == parse_term("f(a)")
    assert parse_term("-" + "9" * 4300) == Int(-int("9" * 4300))


# ---- scenario files ----

_LIBRARY = "%% metarules\ninclude(library).\n"
_HEAD = "%% background\nfoo(a).\n" + _LIBRARY + "%% head\nstep/2.\n"
_EXAMPLE = "%% examples\npos(step(a,b)).\n"

SCENARIO_ERRORS = [
    # (text, error type, message, line and column of a ParseError)
    ("%% background\nfoo(a).\n\n  include(core(x)).\n" + _LIBRARY
     + "%% head\nstep/2.\n" + _EXAMPLE, ScenarioError,
     "include(core(x)). at line 4: the background section takes only "
     "include(core(full)), include(core(lazy)), include(core(eager))", None),
    # an arity is an integer of 0 or more
    ("%% background\n" + _LIBRARY + "%% head\nstep/2.\nfoo/-1.\n" + _EXAMPLE,
     ParseError, "found '-1' at line 6, column 5 (expected an arity)",
     (6, 5)),
    (_HEAD + "%% functions\nbar/-3.\n" + _EXAMPLE, ParseError,
     "found '-3' at line 8, column 5 (expected an arity)", (8, 5)),
    ("%% background\n%% metarules\n\ninclude(core(full)).\n%% head\n"
     "step/2.\n" + _EXAMPLE, ScenarioError,
     "include(core(full)). at line 4: the metarules section takes only "
     "include(library)", None),
    (_HEAD + "%% examples\npos(step(a,b)).\n\n% c\nfoo(step(a,b)).\n",
     ScenarioError,
     "example at line 11 must be pos(G), neg(G) or nonterm(G), got foo/1",
     None),
    (_HEAD + "%% examples\npos(step(a,b)).\n  neg(a).\n", ScenarioError,
     "example goal at line 9 must be a compound atom", None),
    (_HEAD + _EXAMPLE + "%% options\n\ndepth_limit(1,2).\n", ScenarioError,
     "malformed option at line 11", None),
    (_HEAD + _EXAMPLE + "%% options\ndepth_limit(3).\n max_clauses(0).\n",
     ScenarioError, "max_clauses at line 11 needs a positive integer", None),
    (_HEAD + _EXAMPLE + "%% options\n\n\nspeed(3).\n", ScenarioError,
     "unknown option 'speed' at line 12", None),
    (_HEAD + _EXAMPLE + "%% options\nmax_clauses(3).\n\nmax_clauses(8).\n",
     ScenarioError, "duplicate option max_clauses at line 12", None),
    ("%% background\n" + _LIBRARY + "%% head\nstep/2.\n\nstep/2.\n"
     + _EXAMPLE, ScenarioError,
     "duplicate head predicate step/2 at line 7", None),
    (_HEAD + "%% examples\npos(step(a,b)).\npos(step(a,b)) ²\n", ParseError,
     "unexpected character '²' at line 9, column 16", (9, 16)),
    # the bad character is reported, not the bad example before it
    (_HEAD + "%% examples\nfoo(a).\n²\n", ParseError,
     "unexpected character '²' at line 9, column 1", (9, 1)),
    ("%% background\n%% metarules\n\n"
     "metarule(bad, [pred(P/2)], ([P,A,B] :- [[P,A]])).\n%% head\nstep/2.\n"
     + _EXAMPLE, ParseError,
     "metarule bad: P used as pred/2 and as pred/1 at line 4, column 1",
     (4, 1)),
    (_HEAD + "%% examples\npos(step(a,b)\n%% options\ndepth_limit(3).\n",
     ParseError,
     "unexpected end of input at line 8, column 14 (expected ))", (8, 14)),
    # the reader's own errors, whole
    ("%% background\nfoo(a).\n%% stuff\n", ScenarioError,
     "unknown section 'stuff' at line 3; expected one of background, "
     "metarules, head, body, functions, examples, options", None),
    (_HEAD + _EXAMPLE + "%% head\nvalue/1.\n", ScenarioError,
     "duplicate section 'head' at line 9", None),
    ("% c\n\nfoo(a).\n" + _HEAD + _EXAMPLE, ScenarioError,
     "content before the first %% section at line 3", None),
    (_HEAD + "%% options\n", ScenarioError,
     "missing required section 'examples'", None),
    ("%% background\n%% metarules\n%% head\nstep/2.\n" + _EXAMPLE,
     ScenarioError, "metarules section is empty", None),
    ("%% background\n" + _LIBRARY + "%% head\n" + _EXAMPLE, ScenarioError,
     "head section is empty", None),
    (_HEAD + "%% examples\nneg(step(a,b)).\n", ScenarioError,
     "examples section has no positive example", None),
    (_HEAD + "%% body\nleft/3.\n\nleft/3.\n" + _EXAMPLE, ScenarioError,
     "duplicate body predicate left/3 at line 10", None),
    (_HEAD + "%% functions\npair/2.\npair/2.\n" + _EXAMPLE, ScenarioError,
     "duplicate function pair/2 at line 9", None),
    ("%% background\n" + _LIBRARY + "%% head\nstep/2.\ngo/0.\n" + _EXAMPLE,
     ScenarioError, "head predicate go must take arguments", None),
    ("%% background\nint_add(1,2,3).\n" + _LIBRARY + "%% head\nstep/2.\n"
     + _EXAMPLE, ScenarioError,
     "int_add/3: builtin, so neither the background nor the head section "
     "may define it", None),
    (_HEAD + "%% examples\npos(step(a,b)).\npos(go(a,b)).\n", ScenarioError,
     "example goal predicate go/2 is neither defined in the background "
     "nor learnable", None),
    ("%% background\n%% metarules\nmetarule(m, [], ([step,A,B] :- [])).\n"
     "metarule(m, [], ([step,A,A] :- [])).\n%% head\nstep/2.\n" + _EXAMPLE,
     ScenarioError, "duplicate metarule name 'm'", None),
    # sections are read in the order background, metarules, head, body,
    # functions, examples, options, whatever order the file has
    pytest.param(
        ("%% options\nspeed(3).\n%% examples\nfoo(a).\n%% head\nstep/2.\n"
         "step/2.\n" + _LIBRARY + "%% background\n", ScenarioError,
         "duplicate head predicate step/2 at line 7", None),
        id="sections read in a fixed order: duplicate head predicate"),
    # and each is lexed when it is read: a bad character in a later
    # section loses to a parse error in an earlier one
    ("%% examples\npos(step(a,b)) ²\n%% background\nfoo(a.\n" + _LIBRARY
     + "%% head\nstep/2.\n", ParseError,
     "found '.' at line 4, column 6 (expected ))", (4, 6)),
    (_HEAD + "%% examples\npos(step(a,b)) ²\n%% options\nfoo(a.\n",
     ParseError, "unexpected character '²' at line 8, column 16", (8, 16)),
    # a second include would pull its clauses or metarules in again
    ("%% background\ninclude(core(full)).\ninclude(core(full)).\n" + _LIBRARY
     + "%% head\nstep/2.\n" + _EXAMPLE, ScenarioError,
     "include(core(full)). at line 3: the background section takes at most "
     "one include directive", None),
    ("%% background\ninclude(core(full)).\n\ninclude(core(lazy)).\n"
     + _LIBRARY + "%% head\nstep/2.\n" + _EXAMPLE, ScenarioError,
     "include(core(lazy)). at line 4: the background section takes at most "
     "one include directive", None),
    ("%% background\nfoo(a).\n" + _LIBRARY + "\ninclude(library).\n"
     "%% head\nstep/2.\n" + _EXAMPLE, ScenarioError,
     "include(library). at line 6: the metarules section takes at most one "
     "include directive", None),
    # a line ends at LF, CRLF or CR only, so another separator is part of
    # a comment, or else a bad character at its own line and column
    pytest.param(
        ("%% background\nfoo(a).\n" + _LIBRARY + "%% head\n% heads\x0bstep/2.\n"
         + _EXAMPLE, ScenarioError, "head section is empty", None),
        id="separator in a comment: head section is empty"),
    pytest.param(
        (_HEAD + "%% examples\npos(step(a,b)).\x0cpos(step(b,a)).\n",
         ParseError, "unexpected character '\\x0c' at line 8, column 16",
         (8, 16)),
        id="separator outside a comment: unexpected character"),
    pytest.param(
        ("%% background\nfoo(a).\x1cbar(b).\n" + _LIBRARY
         + "%% head\nstep/2.\n" + _EXAMPLE, ParseError,
         "unexpected character '\\x1c' at line 2, column 8", (2, 8)),
        id="separator in the background: unexpected character"),
    # a header, a blank line or a comment is found on the lexer's
    # whitespace alone: another space-like character stays in the line
    pytest.param(
        ("%% background\nfoo(a).\n" + _LIBRARY + "\x0c%% head\nstep/2.\n"
         + _EXAMPLE, ScenarioError, "missing required section 'head'", None),
        id="form feed before a header: missing required section 'head'"),
    pytest.param(
        ("%% background\nfoo(a).\n" + _LIBRARY + "%% head\xa0\nstep/2.\n"
         + _EXAMPLE, ScenarioError,
         "unknown section 'head\\xa0' at line 5; expected one of background, "
         "metarules, head, body, functions, examples, options", None),
        id="no-break space after a header: unknown section"),
    pytest.param(
        (_HEAD + "\xa0\n" + _EXAMPLE, ParseError,
         "unexpected character '\\xa0' at line 7, column 1", (7, 1)),
        id="no-break space on its own line: unexpected character"),
    pytest.param(
        ((_HEAD + "%% examples\npos(step(a,b)).\n  neg(a).\n").replace(
            "\n", "\r\n"), ScenarioError,
         "example goal at line 9 must be a compound atom", None),
        id="CRLF line ends: example goal at line 9"),
    pytest.param(
        ((_HEAD + "%% examples\npos(step(a,b)).\n  neg(a).\n").replace(
            "\n", "\r"), ScenarioError,
         "example goal at line 9 must be a compound atom", None),
        id="CR line ends: example goal at line 9"),
]


@pytest.mark.parametrize("row", SCENARIO_ERRORS, ids=lambda r: r[2])
def test_scenario_errors(row):
    text, error, message, position = row
    with pytest.raises(error) as e:
        parse_scenario(text)
    assert type(e.value) is error
    assert str(e.value) == message
    if position is not None:
        assert (e.value.line, e.value.col) == position


def test_scenario_lexer_whitespace():
    # spaces and tabs around a header or alone on a line are whitespace
    text = "%% background\nfoo(a).\n" + _LIBRARY + "%% head\nstep/2.\n" + _EXAMPLE
    spaced = text.replace("%% head\n", "\t%% head \t\n \t\n")
    assert parse_scenario(spaced) == parse_scenario(text)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
@pytest.mark.parametrize("name", builtin_scenario_names())
def test_scenario_line_ends(name, end):
    text = (data_dir("scenarios") / f"{name}.pls").read_text(encoding="utf-8")
    assert parse_scenario(text.replace("\n", end)) == parse_scenario(text)
