"""Mutated scenario and corpus texts through the command line.

The bundled texts are mutated line by line (a line deleted, duplicated
or swapped with another) and character by character (text inserted,
the line separators and a run of more digits than `int` converts among
it), and each result is run through `main`.  Whatever the text, `main`
returns 0, 1, 2 or 3 and raises nothing, and an exit 2 writes exactly
one ``error:`` line.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from milsem.cli import main
from milsem.corpus import CORPUS_KINDS
from milsem.scenario import builtin_scenario_names
from milsem.textio import data_dir

ROOT = Path(__file__).resolve().parents[1]
CHAIN_PL = str(ROOT / "bench" / "expected" / "chain.pl")

SCENARIOS = {name: (data_dir("scenarios") / f"{name}.pls").read_text(
    encoding="utf-8") for name in builtin_scenario_names()}
# the first few lines of each corpus: `check` runs every term it is given
CORPORA = ["\n".join((data_dir("corpora") / f"{kind}.terms").read_text(
    encoding="utf-8").split("\n")[:6]) for kind in CORPUS_KINDS]

DIGITS = "1" * 4301  # one more digit than CPython's int() converts
_INSERTS = st.one_of(
    st.sampled_from(["\r", "\n", "\x0c", "\u2028", "\xa0", "%", "(", ")",
                     ",", ".", "-", "_", ":-", "X", "%% head\n", DIGITS]),
    st.text(max_size=3))


@st.composite
def _mutated(draw, texts):
    lines = draw(st.sampled_from(list(texts))).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "insert"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
            if not lines:
                lines = [""]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            k = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + draw(_INSERTS) + lines[i][k:]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "input.txt"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        # split at LF alone: an error may quote a form feed or U+2028
        errors = [line for line in err.getvalue().split("\n")
                  if line.startswith("error:")]
        assert len(errors) == 1, err.getvalue()


# a positive example of pairs.pls, and the same with the digit run in it
_POS = "pos(eval(snd(pair(var(a),var(b))),var(b))).\n"
_LONG_POS = _POS.replace("var(a)", "lit(" + DIGITS + ")")


def test_the_example_line_is_in_pairs():
    assert _POS in SCENARIOS["pairs"]


@settings(max_examples=100, deadline=None)
@given(_mutated(SCENARIOS.values()))
@example(SCENARIOS["pairs"].replace(_POS, _LONG_POS))
def test_mutated_scenario_exits_cleanly(input_file, text):
    input_file.write_text(text, encoding="utf-8")
    _run(["learn", str(input_file), "--json", "--max-steps", "2000"])


@settings(max_examples=100, deadline=None)
@given(_mutated(CORPORA))
def test_mutated_corpus_exits_cleanly(input_file, text):
    input_file.write_text(text, encoding="utf-8")
    _run(["check", CHAIN_PL, str(input_file), "--json"])
