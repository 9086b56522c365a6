"""Golden digests of the learner's search order.

With ``--trace``, `learn` and `chain` write the meta-proof to stderr: each
size cap, each metarule instance adopted and each backtrack, in the order
the search takes them, and each core and rejection.  The trace holds no
timings, so its bytes are fixed by the search alone.  A change that must
leave the search as it is (an index, a cache, a cheaper unifier) must
leave these bytes as they are; the sha256 digests below turn that into a
test.  They were recorded before the learner started offering a metarule
only to goals whose first argument its head can fit, and that change left
them as they were.

`run --json` gives the solver's answer and its step count, so the same
holds for the solver: the digests of its payloads on every bundled corpus
term and on the deep derivations of the benchmark pin each step, and the
name of each fresh variable that reaches an answer.  They were recorded
before the term kernel's head unification and renaming became loops.
"""

import hashlib
from pathlib import Path

import pytest

from milsem.cli import main
from milsem.corpus import builtin_corpus, builtin_corpus_names
from milsem.textio import print_term

CHAIN_PL = str(Path(__file__).resolve().parents[1] / "bench" / "expected"
               / "chain.pl")

CHAIN = ("lazy_eager", "pairs", "lists", "conditionals")

TRACE_SHA256 = {
    ("learn", "pairs"):
        "5620fb23fcfc3800f25390a970359d29451f47a45e2b0fad1d7ad7257df2cb3c",
    ("learn", "lists"):
        "f5e295de90e4854517579dabef30a29fcb674de981ede04956d725e410e19186",
    ("learn", "conditionals"):
        "92e247447e5e6ca3f0b6ed051e945ba35230b3ddaf7797abb06e93545d3128ef",
    ("learn", "lazy_eager"):
        "1df451dd55cd7abe988e93891dd58a31052784f1ae302584a0c7aa495cf74259",
    ("chain", *CHAIN):
        "2fea3d861815e5a782fd67ca91ca76970fb7fa2a6b9b4ed60c1aa1d07e5cd2d1",
}


@pytest.mark.parametrize("argv", list(TRACE_SHA256),
                         ids=[" ".join(a) for a in TRACE_SHA256])
def test_trace_is_pinned(argv, capsys):
    assert main([*argv, "--trace"]) == 0
    err = capsys.readouterr().err
    assert hashlib.sha256(err.encode()).hexdigest() == TRACE_SHA256[argv]


def _stdout(argv, capsys) -> str:
    main(argv)
    return capsys.readouterr().out


def test_run_on_every_bundled_corpus_term_is_pinned(capsys):
    out = "".join(
        _stdout(["run", "-p", CHAIN_PL, "--base", "none", print_term(t),
                 "--json"], capsys)
        for name in builtin_corpus_names() for t in builtin_corpus(name))
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1091571975acaa9fe23dba291942d280aa9c175e6af891fbc4405b7530987106")


def _add_chain(n: int) -> str:
    """A left-nested sum of ``n`` literals: add(add(lit(1),lit(2)),lit(3))..."""
    text = "lit(1)"
    for i in range(2, n + 1):
        text = f"add({text},lit({i % 10}))"
    return text


LOOP = "app(lam(x,app(var(x),var(x))),lam(x,app(var(x),var(x))))"
# the self-application loop is cut by the loop check at both depths
DEEP_RUN_SHA256 = {
    ("8000", LOOP):
        "cd51e83f3641cd1e737ca63c024d8e7374c22d3359552330ff433958a303e552",
    ("100000", LOOP):
        "cd51e83f3641cd1e737ca63c024d8e7374c22d3359552330ff433958a303e552",
    ("10000", _add_chain(120)):
        "6f89a5cd41eb68f5e36b13dddf5d8894770582dad829834a5e53c412749c86eb",
}


@pytest.mark.parametrize("depth,term", list(DEEP_RUN_SHA256),
                         ids=["loop-8000", "loop-100000", "add120-10000"])
def test_deep_run_is_pinned(depth, term, capsys):
    out = _stdout(["run", "--depth", depth, term, "--json"], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        DEEP_RUN_SHA256[depth, term])
