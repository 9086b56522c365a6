import importlib.resources
from collections import Counter

import pytest

from milsem.learn import learn
from milsem.objectlang import (
    BASE_BK_SRC,
    METARULES_SRC,
    base_clauses,
    metarule_library,
)
from milsem.scenario import (
    Options,
    ScenarioError,
    builtin_scenario,
    builtin_scenario_names,
    load_scenario,
    parse_scenario,
)
from milsem.terms import symbol
from milsem.textio import _Parser, parse_metarules, print_clause
from test_acceptance import lazy_variant

GOOD = """\
%% background
value(var(_)).
eval(E1,E1) :- value(E1).

%% metarules
metarule(value0, [const(C)], ([value,[C]] :- [])).

%% head
value/1.

%% examples
pos(eval(nil,nil)).
neg(eval(nil,var(a))).
"""


def test_parse_minimal_scenario():
    s = parse_scenario(GOOD, "toy")
    assert s.name == "toy"
    assert len(s.bk) == 2
    assert [m.name for m in s.metarules] == ["value0"]
    assert s.head_preds == (symbol("value", 1),)
    assert [e.tag for e in s.examples] == ["pos", "neg"]
    assert s.options == Options()


def test_sections_in_any_order():
    text = ("%% examples\npos(eval(nil,nil)).\n\n"
            "%% head\nvalue/1.\n\n"
            "%% metarules\nmetarule(value0, [const(C)], ([value,[C]] :- [])).\n\n"
            "%% background\nvalue(var(_)).\neval(E1,E1) :- value(E1).\n")
    s = parse_scenario(text)
    assert s.head_preds == (symbol("value", 1),)
    assert len(s.bk) == 2


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="section"):
        parse_scenario(GOOD + "\n%% extras\nfoo.\n")


def test_duplicate_section_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(GOOD + "\n%% head\nstep/2.\n")


def test_missing_required_section():
    text = GOOD.replace("%% examples\npos(eval(nil,nil)).\nneg(eval(nil,var(a))).\n", "")
    with pytest.raises(ScenarioError, match="examples"):
        parse_scenario(text)


def test_content_before_first_section_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("value(var(_)).\n" + GOOD)


def test_example_tags():
    text = GOOD + "\n%% options\ndepth_limit(50).\nmax_steps(500).\n"
    s = parse_scenario(text)
    assert s.options == Options(depth_limit=50, max_steps=500)
    assert s.positives()[0].goal.functor is symbol("eval", 2)


def test_bad_example_tag():
    with pytest.raises(ScenarioError, match="pos"):
        parse_scenario(GOOD.replace("neg(", "nope("))


def test_example_predicate_must_be_known():
    # mystery/1 is neither defined in the background nor learnable
    with pytest.raises(ScenarioError, match="mystery"):
        parse_scenario(GOOD.replace("pos(eval(nil,nil)).",
                                    "pos(mystery(nil)).", 1))


def test_builtin_predicate_may_not_be_defined():
    # the learner would hand such a program to the solver, which refuses
    # clauses for a builtin
    with pytest.raises(ScenarioError, match="int_add/3"):
        parse_scenario(GOOD.replace("%% background\n",
                                    "%% background\nint_add(A,B,C).\n"))
    with pytest.raises(ScenarioError, match="substitute/4"):
        parse_scenario(GOOD.replace("%% head\n", "%% head\nsubstitute/4.\n"))


def test_at_least_one_positive_required():
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario(GOOD.replace("pos(", "neg(", 1))


def test_options_validation():
    with pytest.raises(ScenarioError):
        parse_scenario(GOOD + "\n%% options\ndepth_limit(0).\n")
    with pytest.raises(ScenarioError, match="max_steps .* positive integer"):
        parse_scenario(GOOD + "\n%% options\nmax_steps(0).\n")
    # neither is an option: a file that sets one fails loudly
    for old in ("neg_depth_policy(reject)", "timeout(120)"):
        with pytest.raises(ScenarioError, match="unknown option"):
            parse_scenario(GOOD + f"\n%% options\n{old}.\n")
    with pytest.raises(ScenarioError):
        parse_scenario(GOOD + "\n%% options\nwibble(3).\n")


def test_error_reports_original_line_numbers():
    # parse errors inside a section carry the position in the whole
    # file, not within the section body
    bad = GOOD.replace("neg(eval(nil,var(a))).", "neg(eval(nil,var(a))")
    with pytest.raises(ValueError) as err:
        parse_scenario(bad)
    lineno = GOOD.splitlines().index("neg(eval(nil,var(a))).") + 1
    assert f"line {lineno}" in str(err.value)


def test_duplicate_metarule_names_rejected():
    text = GOOD.replace(
        "metarule(value0, [const(C)], ([value,[C]] :- [])).",
        "metarule(value0, [const(C)], ([value,[C]] :- [])).\n"
        "metarule(value0, [const(C)], ([value,[C]] :- [])).")
    with pytest.raises(ScenarioError, match="duplicate metarule name 'value0'"):
        parse_scenario(text)


# ---- pools ----

def test_func_pool_declared_first_then_example_functors():
    text = GOOD.replace("%% head", "%% functions\npair/2.\nnil/0.\n\n%% head")
    s = parse_scenario(text)
    pool = s.func_pool()
    assert pool[0] == symbol("pair", 2)
    assert pool[1] == symbol("nil", 0)
    # var appears in the background, so it is not added again
    assert symbol("var", 1) not in pool


def test_const_pool_collects_ints():
    text = GOOD.replace("pos(eval(nil,nil)).",
                        "pos(eval(lit(3),lit(3))).")
    s = parse_scenario(text)
    assert 3 in s.const_pool()


def test_pools_are_ordered_tuples():
    s = parse_scenario(GOOD)
    p = s.pools()
    assert isinstance(p.funcs, tuple)
    assert isinstance(p.consts, tuple)
    assert p.head_preds == (symbol("value", 1),)


# ---- include directives ----

def test_includes_expand_in_place():
    text = GOOD.replace(
        "value(var(_)).\n",
        "value(var(_)).\ninclude(core(eager)).\n").replace(
        "metarule(value0, [const(C)], ([value,[C]] :- [])).",
        "metarule(mine, [const(C)], ([value,[C]] :- [])).\ninclude(library).")
    s = parse_scenario(text)
    core = base_clauses("eager")
    assert len(s.bk) == len(core) + 2
    assert print_clause(s.bk[0]).startswith("value(var(")
    assert s.bk[1:-1] == core
    assert print_clause(s.bk[-1]) == "eval(E1,E1) :- value(E1)."
    assert [m.name for m in s.metarules] \
        == ["mine"] + [m.name for m in metarule_library()]


# ---- bundled files ----

def test_bundled_scenarios_all_parse():
    names = builtin_scenario_names()
    assert names == ["conditionals", "lazy_eager", "lists", "pairs"]
    for name in names:
        s = builtin_scenario(name)
        assert s.positives(), name
        assert s.metarules, name


def test_a_line_number_is_worked_out_only_for_an_error(monkeypatch):
    # `_Parser.line_at` re-lexes the section each time, and every CLI
    # pass re-reads its scenarios: a good file must never call it
    calls = []
    line_at = _Parser.line_at
    monkeypatch.setattr(_Parser, "line_at",
                        lambda p, i: calls.append(i) or line_at(p, i))
    for name in builtin_scenario_names():
        builtin_scenario(name)
    assert calls == []


def test_bundled_options_set_only_the_size_cap():
    # depth and step budget are the defaults; the size cap differs
    assert {n: builtin_scenario(n).options for n in builtin_scenario_names()} \
        == {n: Options(max_clauses=c) for n, c in
            [("conditionals", 10), ("lazy_eager", 6), ("lists", 8),
             ("pairs", 8)]}


BUNDLED_CORES = {"conditionals": "full", "lazy_eager": "lazy",
                 "lists": "full", "pairs": "full"}


@pytest.mark.parametrize("name", sorted(BUNDLED_CORES))
def test_bundled_scenario_includes_the_one_core_and_library(name):
    spec = builtin_scenario(name)
    core = base_clauses(BUNDLED_CORES[name])
    assert spec.bk == core

    # the library, then the file's own metarules in file order
    text = (importlib.resources.files("milsem") / "data" / "scenarios"
            / f"{name}.pls").read_text(encoding="utf-8")
    lines = text.splitlines()
    own = parse_metarules("\n".join(ln for ln in lines
                                     if ln.startswith("metarule(")))
    assert spec.metarules == metarule_library() + tuple(own)

    # the shared definitions are not copied back into the file
    assert not set(lines) & set(METARULES_SRC.splitlines())
    assert not set(lines) & set(BASE_BK_SRC.splitlines())


# named variants of a bundled scenario whose hypotheses may use a metarule
# the scenario's file declares
VARIANTS = {"lazy_eager": lazy_variant}


def _rules(spec) -> set[str]:
    res = learn(spec)
    assert res.ok, spec.name
    return {m.rule for m in res.hypothesis.metasubs}


def test_library_is_the_metarules_two_bundled_hypotheses_share():
    library = {m.name for m in metarule_library()}
    uses = Counter()
    for name in builtin_scenario_names():
        spec = builtin_scenario(name)
        used = _rules(spec)
        uses.update(used)
        if name in VARIANTS:
            used |= _rules(VARIANTS[name](spec))
        own = {m.name for m in spec.metarules} - library
        assert own <= used, (name, own - used)
    assert library == {rule for rule, n in uses.items() if n >= 2}


@pytest.mark.parametrize("name", sorted(BUNDLED_CORES))
def test_two_loads_of_a_bundled_scenario_compare_equal(name):
    a, b = builtin_scenario(name), builtin_scenario(name)
    assert a.metarules == b.metarules
    assert hash(a.metarules) == hash(b.metarules)
    assert a == b


def test_unknown_builtin():
    with pytest.raises(ScenarioError):
        builtin_scenario("no_such_thing")


def test_load_scenario_names_file_in_errors(tmp_path):
    p = tmp_path / "broken.pls"
    p.write_text("%% background\nnonsense(\n")
    with pytest.raises(ScenarioError, match="broken.pls"):
        load_scenario(str(p))
