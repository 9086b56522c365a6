"""Corpus generation and the bundled corpus files.

Every corpus term must be strategy-neutral: both reduction orders reach
the same value, checked here directly against the reference interpreter
rather than trusting the generator's own vetting.
"""

import hashlib
import random

import pytest

from milsem.corpus import (
    CORPUS_KINDS,
    builtin_corpus,
    builtin_corpus_names,
    generate_corpus,
    generate_term,
    load_corpus,
    parse_corpus,
    save_corpus,
)
from milsem.objectlang import (
    BOTTOM,
    OracleConfig,
    alpha_equal,
    eval_chain,
    reference_eval,
)
from milsem.terms import Int
from milsem.textio import print_term

EXPECTED_COUNTS = {
    "pairs": 24,
    "lists": 24,
    "conditionals": 30,
    "lazy_eager": 20,
    "mixed": 40,
}

CONSTRUCTS = {
    "pairs": {"pair", "fst", "snd"},
    "lists": {"cons", "nil", "head", "tail"},
    "conditionals": {"if", "thenelse", "true", "false"},
    "lazy_eager": {"app", "lam", "add", "lit"},
    "mixed": {"app", "lam", "var", "lit", "add", "pair", "fst", "snd",
              "cons", "nil", "head", "tail", "if", "thenelse", "true",
              "false"},
}


def _functors(t, into):
    if isinstance(t, Int):
        return
    into.add(t.functor.name)
    for a in t.args:
        _functors(a, into)


def _assert_strategy_neutral(t):
    lazy = reference_eval(t, OracleConfig(strategy="lazy"))
    eager = reference_eval(t, OracleConfig(strategy="eager"))
    assert lazy is not BOTTOM and eager is not BOTTOM, print_term(t)
    assert alpha_equal(lazy, eager), print_term(t)


@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_generated_terms_evaluate_under_both_strategies(kind):
    rng = random.Random(7)
    for _ in range(10):
        t = generate_term(kind, rng)
        _assert_strategy_neutral(t)
        chain = max(len(eval_chain(t, OracleConfig(strategy=s)))
                    for s in ("lazy", "eager"))
        assert chain <= 30


def test_generate_corpus_reproducible_and_distinct():
    a = generate_corpus("pairs", 12, seed=5)
    b = generate_corpus("pairs", 12, seed=5)
    assert [print_term(t) for t in a] == [print_term(t) for t in b]
    assert len({print_term(t) for t in a}) == 12
    c = generate_corpus("pairs", 12, seed=6)
    assert [print_term(t) for t in a] != [print_term(t) for t in c]


# sha256 of the printed terms of generate_corpus(kind, 20, seed=3), one
# per line: generation draws the same terms, so seeded corpora such as the
# benchmark's stay byte-identical
PINNED_CORPUS_SHA256 = {
    "pairs": "e1cad3fb4773949928015c07f1672c391b10db802ff68d96cb9f6441d246d2c0",
    "lists": "a898650ec7fa0208dc522031f0a2bdec4272d3cff198f0ff07975ce3d95304f4",
    "conditionals": "7fae6f056203613a4b09882d5fda55ec84c315203ca535c8baba1f95c1a0230b",
    "lazy_eager": "c6b458634c837f3eb4bcf0267ae9b5ad3461eff938688a490359496811b31fc5",
    "mixed": "dfbd3f4958b237850e931e206de644c250841638109e958ba5a7b804f770ab3a",
}


@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_generate_corpus_is_pinned(kind):
    text = "".join(print_term(t) + "\n" for t in generate_corpus(kind, 20, seed=3))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CORPUS_SHA256[kind]


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate_term("sums", random.Random(0))
    with pytest.raises(ValueError):
        generate_corpus("sums", 3)


def test_save_load_round_trip(tmp_path):
    terms = generate_corpus("lists", 6, seed=1)
    path = tmp_path / "out.terms"
    save_corpus(str(path), terms, header="lists sample\nsix terms")
    text = path.read_text()
    assert text.startswith("% lists sample\n% six terms\n")
    assert load_corpus(str(path)) == terms


def test_parse_corpus_skips_comments_and_blanks():
    text = "% note\n\nvar(a)\n  % indented note\nlit(3)\n"
    terms = parse_corpus(text)
    assert [print_term(t) for t in terms] == ["var(a)", "lit(3)"]


def test_builtin_corpus_names():
    assert builtin_corpus_names() == sorted(EXPECTED_COUNTS)


@pytest.mark.parametrize("kind", sorted(EXPECTED_COUNTS))
def test_builtin_corpus_contents(kind):
    terms = builtin_corpus(kind)
    assert len(terms) == EXPECTED_COUNTS[kind]
    assert len({print_term(t) for t in terms}) == len(terms)
    seen = set()
    for t in terms:
        _assert_strategy_neutral(t)
        _functors(t, seen)
    assert CONSTRUCTS[kind] <= seen


def test_builtin_corpus_unknown_name():
    with pytest.raises(ValueError, match="no bundled corpus"):
        builtin_corpus("sums")
