"""Command line driver tests, run in process through main(argv).

Every --json payload is validated against docs/cli-schema.json, which is
the documented output contract.
"""

import importlib.resources
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from milsem.cli import main
from milsem.textio import parse_clauses

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "cli-schema.json").read_text())

OMEGA = "app(lam(x,app(var(x),var(x))),lam(x,app(var(x),var(x))))"

TOY_SCENARIO = """\
%% background
left(A,_,A).
right(_,B,B).

%% metarules
metarule(unpack2, [pred(P/2),func(H/2),pred(Q/3)], ([P,[H,A,B],C] :- [[Q,A,B,C]])).

%% head
step/2.

%% body
left/3.
right/3.

%% examples
pos(step(sel(a,b),a)).
neg(step(sel(a,b),b)).

%% options
max_clauses(2).
depth_limit(50).
"""


def _json_payload(capsys):
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA,
                        cls=jsonschema.Draft202012Validator)
    return payload


def test_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


# ---- learn ----


def test_learn_bundled_scenario(capsys):
    assert main(["learn", "pairs"]) == 0
    out = capsys.readouterr().out
    assert "% pairs: 5 clauses" in out
    assert "step(fst(pair(A,B)),C) :- left(A,B,C)." in out


def test_learn_json(capsys):
    assert main(["learn", "pairs", "--json"]) == 0
    payload = _json_payload(capsys)
    assert payload["command"] == "learn"
    assert payload["status"] == "found"
    assert payload["size"] == 5
    assert len(payload["clauses"]) == 5
    assert payload["exit"] == 0
    assert payload["stats"]["candidates"] >= 1
    # pairs accepts its first candidate, so no negative core prunes anything
    assert payload["stats"]["pruned"] == 0


def test_learn_scenario_file(tmp_path, capsys):
    path = tmp_path / "toy.pls"
    path.write_text(TOY_SCENARIO)
    assert main(["learn", str(path)]) == 0
    assert "step(sel(A,B),C) :- left(A,B,C)." in capsys.readouterr().out


def test_learn_copy_of_bundled_file_learns_the_same(tmp_path, capsys):
    bundled = ROOT / "src" / "milsem" / "data" / "scenarios" / "pairs.pls"
    path = tmp_path / "mypairs.pls"
    path.write_text(bundled.read_text())
    assert main(["learn", "pairs"]) == 0
    expected = capsys.readouterr().out.splitlines()[1:]
    assert main(["learn", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("% mypairs: 5 clauses")
    assert out[1:] == expected


@pytest.mark.parametrize("section,bad", [
    ("background", "include(core(normal))."),
    ("background", "include(library)."),
    ("background", "include(rules)."),
    ("metarules", "include(other)."),
    ("metarules", "include(core(full))."),
])
def test_learn_bad_include_exits_2(tmp_path, capsys, section, bad):
    text = TOY_SCENARIO.replace(f"%% {section}\n", f"%% {section}\n{bad}\n")
    path = tmp_path / "bad.pls"
    path.write_text(text)
    assert main(["learn", str(path)]) == 2
    err = capsys.readouterr().err
    lineno = text.splitlines().index(bad) + 1
    assert err.startswith(f"error: {path}: ")
    assert f"at line {lineno}" in err


def test_learn_bad_metarule_exits_2(tmp_path, capsys):
    # P is declared pred/2 but used with one argument in the body
    bad = "metarule(bad, [pred(P/2)], ([P,A,B] :- [[P,A]]))."
    text = TOY_SCENARIO.replace("%% metarules\n", f"%% metarules\n{bad}\n")
    path = tmp_path / "bad.pls"
    path.write_text(text)
    assert main(["learn", str(path)]) == 2
    err = capsys.readouterr().err
    lineno = text.splitlines().index(bad) + 1
    assert err.startswith(f"error: {path}: metarule bad: ")
    assert f"at line {lineno}" in err


def test_learn_metavariable_declared_twice_exits_2(tmp_path, capsys):
    twice = ("metarule(twice, [func(H/2),func(H/2)],"
             " ([step,[H,A,B],[H,C,B]] :- [[step,A,C]])).")
    text = TOY_SCENARIO.replace("%% metarules\n", f"%% metarules\n{twice}\n")
    path = tmp_path / "twice.pls"
    path.write_text(text)
    assert main(["learn", str(path)]) == 2
    err = capsys.readouterr().err
    lineno = text.splitlines().index(twice) + 1
    assert err.startswith(f"error: {path}: metarule twice: H declared twice")
    assert f"at line {lineno}" in err


def test_learn_background_defining_a_builtin_exits_2(tmp_path, capsys):
    text = TOY_SCENARIO.replace("%% background\n",
                                "%% background\nint_add(A,B,C).\n")
    path = tmp_path / "clash.pls"
    path.write_text(text)
    assert main(["learn", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "int_add/3" in err


def test_learn_exhausted_exits_1(capsys):
    assert main(["learn", "pairs", "--max-clauses", "1"]) == 1
    err = capsys.readouterr().err
    assert "no hypothesis within 1 clauses" in err


def test_learn_timeout_exits_3(capsys):
    assert main(["learn", "conditionals", "--timeout", "0.001", "--json"]) == 3
    payload = _json_payload(capsys)
    assert payload["status"] == "timeout"
    assert payload["exit"] == 3


def test_learn_cut_by_depth_exits_3(capsys):
    # the depth bound, not the size cap, stops the search here
    assert main(["learn", "pairs", "--depth", "4", "--json"]) == 3
    payload = _json_payload(capsys)
    assert payload["status"] == "depth_exceeded"
    assert payload["exit"] == 3
    assert payload["clauses"] == []


def test_learn_cut_by_depth_says_so(capsys):
    assert main(["learn", "pairs", "--depth", "4"]) == 3
    err = capsys.readouterr().err
    assert "no hypothesis within 8 clauses" in err
    assert "depth limit 4 cut the search" in err


@pytest.mark.parametrize("depth", ["1", "3", "6"])
@pytest.mark.parametrize("scenario",
                         ["pairs", "lists", "conditionals", "lazy_eager"])
def test_learn_depth_probe_adopts_nothing(scenario, depth, capsys):
    # a search that finds nothing backtracks out of every clause it
    # adopted; the probe for a depth cut enters no body, so it adopts none
    assert main(["learn", scenario, "--depth", depth, "--trace",
                 "--json"]) == 3
    captured = capsys.readouterr()
    tried = json.loads(captured.out)["stats"]["metasubs_tried"]
    lines = captured.err.splitlines()
    adopted = sum(line.startswith("  + ") for line in lines)
    assert adopted == lines.count("  - backtrack") == tried


def test_learn_unknown_scenario_exits_2(capsys):
    assert main(["learn", "missing.pls"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bundled:" in err


def test_directory_does_not_hide_a_bundled_name(tmp_path, monkeypatch,
                                                 capsys):
    (tmp_path / "pairs").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["learn", "pairs"]) == 0
    out = capsys.readouterr().out
    assert "% pairs: 5 clauses" in out
    assert "step(fst(pair(A,B)),C) :- left(A,B,C)." in out


def test_learn_reads_a_scenario_from_a_pipe(capsys):
    # no regular file, but no directory either: `/dev/stdin` in a pipeline
    r, w = os.pipe()
    os.write(w, TOY_SCENARIO.encode())
    os.close(w)
    try:
        assert main(["learn", f"/dev/fd/{r}"]) == 0
    finally:
        os.close(r)
    assert "step(sel(A,B),C) :- left(A,B,C)." in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["learn", "pairs"],
                                  ["check", "{prog}", "pairs"]],
                         ids=["scenario", "corpus"])
def test_install_without_bundled_data_exits_2(tmp_path, monkeypatch, capsys,
                                              argv):
    prog = tmp_path / "empty.pl"
    prog.write_text("")
    monkeypatch.setattr(importlib.resources, "files", lambda _: tmp_path)
    assert main([a.format(prog=prog) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the milsem install is missing its bundled data")


def test_learn_trace_goes_to_stderr(capsys):
    assert main(["learn", "pairs", "--trace"]) == 0
    captured = capsys.readouterr()
    assert "size cap 1" in captured.err


# ---- run ----


def test_run_proved_prints_value(capsys):
    assert main(["run", "app(lam(x,var(x)),var(a))"]) == 0
    assert capsys.readouterr().out.strip() == "var(a)"


def test_run_finite_failure_exits_1(capsys):
    # the base rules know nothing about fst
    assert main(["run", "fst(lit(1))"]) == 1
    assert capsys.readouterr().out.strip() == "FiniteFailure"


def test_run_depth_exceeded_exits_3(capsys):
    assert main(["run", OMEGA, "--depth", "80"]) == 3
    assert capsys.readouterr().out.strip() == "DepthExceeded"


def test_run_very_deep_loop_exits_3():
    # a derivation 100k steps deep must be reported, not crash the process,
    # and its choice points must fit in memory
    code = ("import resource, sys; from milsem.cli import main; "
            "code = main(['run', '--depth', '100000', sys.argv[1]]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
            "file=sys.stderr); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, OMEGA], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=300)
    assert proc.returncode == 3
    assert proc.stdout.strip() == "DepthExceeded"
    # ru_maxrss is in kilobytes on Linux, in bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    assert int(proc.stderr.split()[-1]) * unit < 100 * 2**20


@pytest.mark.parametrize("strategy", ["lazy", "eager"])
def test_check_drops_program_clauses_already_in_the_base(strategy):
    # the chain program holds the full core; kept twice, every core clause
    # would double the branching of each diverging term's search
    proc = subprocess.run(
        [sys.executable, "-m", "milsem.cli", "check",
         str(ROOT / "bench" / "expected" / "chain.pl"), "pairs",
         "--base", "full", "--strategy", strategy, "--json"],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] == payload["total"] == 24
    assert proc.stderr.splitlines() == [
        "note: dropped 11 program clauses already in the full core"]


def test_run_keeps_program_clauses_new_to_the_base(tmp_path, capsys):
    rules = tmp_path / "rules.pl"
    rules.write_text("value(E) :- value(E).\nvalue(var(_)).\n"
                     "eval(A,A) :- value(A).\n")
    assert main(["run", "var(a)", "-p", str(rules)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "var(a)"
    assert captured.err == ("note: dropped 2 program clauses already in "
                            "the full core\n")
    assert main(["run", "var(a)", "-p", str(rules), "--base", "none"]) == 0
    assert capsys.readouterr().err == ""


def test_run_json(capsys):
    assert main(["run", "add(lit(2),lit(3))", "--json"]) == 0
    payload = _json_payload(capsys)
    assert payload["command"] == "run"
    assert payload["verdict"] == "proved"
    assert payload["value"] == "lit(5)"
    assert payload["exit"] == 0
    assert payload["steps"] > 0


def test_run_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("app(lam(x,var(x)),lit(7))\n"))
    assert main(["run", "-"]) == 0
    assert capsys.readouterr().out.strip() == "lit(7)"


def test_run_program_file_without_base(tmp_path, capsys):
    rules = tmp_path / "rules.pl"
    rules.write_text("eval(E,E) :- value(E).\nvalue(var(_)).\n")
    assert main(["run", "var(a)", "-p", str(rules), "--base", "none"]) == 0
    assert capsys.readouterr().out.strip() == "var(a)"


def test_run_no_rules_is_an_input_error(capsys):
    assert main(["run", "var(a)", "--base", "none"]) == 2
    assert "no rules" in capsys.readouterr().err


def test_run_bad_term_exits_2(capsys):
    assert main(["run", "fst("]) == 2
    assert capsys.readouterr().err.startswith("error: term:")


@pytest.mark.parametrize("text,name,col", [
    ("X", "X", 1),
    ("lam(x,X)", "X", 7),
    ("-", "Y", 13),  # pair(lit(1),Y) on stdin
], ids=["bare", "under_lam", "stdin"])
def test_run_term_with_a_variable_exits_2(text, name, col, capsys,
                                          monkeypatch):
    # an object term is ground: X would be bound to a value by the core,
    # and lam(x,X) printed back as its own value
    monkeypatch.setattr(sys, "stdin", io.StringIO("pair(lit(1),Y)\n"))
    assert main(["run", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: term: variable {name} in an object "
                            f"term at line 1, column {col}\n")


def test_run_program_defining_a_builtin_exits_2(tmp_path, capsys):
    prog = tmp_path / "clash.pl"
    prog.write_text("substitute(V,X,T,T).\n")
    assert main(["run", "var(a)", "-p", str(prog)]) == 2
    assert "substitute/4" in capsys.readouterr().err


def test_run_missing_program_file_exits_2(capsys):
    assert main(["run", "var(a)", "-p", "nope.pl"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---- chain ----


def test_chain_writes_combined_program(tmp_path, capsys):
    out = tmp_path / "combined.pl"
    assert main(["chain", "pairs", "lists", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "% pairs: ok, 5 clauses" in stdout
    assert "% lists: ok, 6 clauses" in stdout
    assert "% chain: 11 induced clauses" in stdout
    clauses = parse_clauses(out.read_text())
    assert len(clauses) == 12 + 11  # full base plus everything induced


def test_chain_out_file_is_the_same_on_every_run(tmp_path, capsys):
    # the background's anonymous variables print under the same names
    first, second = tmp_path / "first.pl", tmp_path / "second.pl"
    assert main(["chain", "lazy_eager", "pairs", "--out", str(first)]) == 0
    assert main(["chain", "lazy_eager", "pairs", "--out", str(second)]) == 0
    capsys.readouterr()
    assert "_G" in first.read_text()
    assert first.read_bytes() == second.read_bytes()


def test_chain_stdout_when_no_out_file(capsys):
    assert main(["chain", "pairs"]) == 0
    out = capsys.readouterr().out
    assert "step(fst(pair(A,B)),C) :- left(A,B,C)." in out


def test_chain_json(capsys):
    assert main(["chain", "pairs", "lists", "--json"]) == 0
    payload = _json_payload(capsys)
    assert payload["command"] == "chain"
    assert [t["scenario"] for t in payload["tasks"]] == ["pairs", "lists"]
    assert all(t["status"] == "found" for t in payload["tasks"])
    assert len(payload["induced"]) == 11
    assert payload["combined_size"] == 23
    assert payload["failed_task"] is None
    assert payload["exit"] == 0


def test_chain_failure_reports_task(capsys):
    assert main(["chain", "pairs", "--max-clauses", "1"]) == 1
    err = capsys.readouterr().err
    assert "stopped at task 0 (pairs)" in err


def test_chain_failure_json(capsys):
    assert main(["chain", "lists", "pairs", "--max-clauses", "1", "--json"]) == 1
    payload = _json_payload(capsys)
    assert payload["failed_task"] == 0
    assert payload["tasks"][0]["scenario"] == "lists"
    assert payload["tasks"][0]["status"] == "exhausted"
    assert payload["exit"] == 1


# ---- check ----


def test_check_learned_program_conforms(tmp_path, capsys):
    out = tmp_path / "combined.pl"
    assert main(["chain", "pairs", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out), "pairs"]) == 0
    assert "% 24/24 terms conform (lazy)" in capsys.readouterr().out


def test_check_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("step(fst(pair(_,B)),B).\n"
                   "value(pair(A,B)) :- value(A), value(B).\n"
                   "step(snd(pair(_,B)),B).\n"
                   "step(pair(T1,T2),pair(T3,T2)) :- step(T1,T3).\n"
                   "step(pair(V,T1),pair(V,T2)) :- value(V), step(T1,T2).\n")
    assert main(["check", str(bad), "pairs", "--base", "full"]) == 1
    out = capsys.readouterr().out
    assert "terms conform" in out
    assert "  " in out  # indented failure lines follow the tally


def test_check_json(tmp_path, capsys):
    out = tmp_path / "combined.pl"
    main(["chain", "pairs", "--out", str(out)])
    capsys.readouterr()
    assert main(["check", str(out), "pairs", "--strategy", "eager",
                 "--json"]) == 0
    payload = _json_payload(capsys)
    assert payload["command"] == "check"
    assert payload["strategy"] == "eager"
    assert payload["total"] == 24
    assert payload["passed"] == 24
    assert payload["failures"] == []
    assert payload["exit"] == 0


def test_check_empty_corpus_is_fine(tmp_path, capsys):
    rules = tmp_path / "rules.pl"
    rules.write_text("value(nil).\n")
    corpus = tmp_path / "empty.terms"
    corpus.write_text("% nothing\n")
    assert main(["check", str(rules), str(corpus)]) == 0


def test_check_program_defining_a_builtin_exits_2(tmp_path, capsys):
    prog = tmp_path / "clash.pl"
    prog.write_text("substitute(V,X,T,T).\n")
    assert main(["check", str(prog), "pairs", "--base", "full"]) == 2
    assert "substitute/4" in capsys.readouterr().err


@pytest.mark.parametrize("line,name", [("pair(X,var(a))", "X"),
                                       ("lam(x,X)", "X"),
                                       ("  fst(pair(lit(1),_))", "_")])
def test_check_corpus_term_with_a_variable_exits_2(tmp_path, capsys, line,
                                                   name):
    # a corpus term must be ground: the interpreter cannot judge pair(X,..)
    # and would pass lam(x,X) as a value
    corpus = tmp_path / "bad.terms"
    corpus.write_text(f"% header\nvar(a)\n{line}\n")
    program = ROOT / "bench" / "expected" / "chain.pl"
    assert main(["check", str(program), str(corpus)]) == 2
    err = capsys.readouterr().err
    col = line.index(name) + 1
    assert err == (f"error: {corpus}: variable {name} in a corpus term "
                   f"at line 3, column {col}\n")


def test_check_corpus_parse_error_names_its_line(tmp_path, capsys):
    corpus = tmp_path / "bad.terms"
    corpus.write_text("var(a)\n\nlit(1\n")
    assert main(["check", str(ROOT / "bench" / "expected" / "chain.pl"),
                 str(corpus)]) == 2
    assert "at line 3, column 6" in capsys.readouterr().err


def test_check_unknown_corpus_exits_2(capsys):
    assert main(["check", "nope.pl", "pairs"]) == 2
    assert main(["learn", "pairs", "--json"]) == 0  # driver still healthy
    capsys.readouterr()


# ---- limits ----


@pytest.mark.parametrize("argv", [
    ["learn", "pairs", "--depth", "0"],
    ["run", "var(a)", "--depth", "-3"],
    ["chain", "pairs", "--max-clauses", "0"],
    ["learn", "pairs", "--timeout", "0"],
    ["learn", "pairs", "--timeout", "-1"],
    ["learn", "pairs", "--timeout", "inf"],
    ["learn", "pairs", "--timeout", "nan"],
    ["check", "{prog}", "lazy_eager", "--base", "full", "--fuel", "0"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_positive_limit_exits_2(tmp_path, capsys, argv):
    # as for a scenario's options, every limit is positive; and finite, so
    # none can switch a budget off
    prog = tmp_path / "empty.pl"
    prog.write_text("")
    argv = [a.format(prog=prog) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2]} needs a finite positive number")


# ---- malformed input ----


@pytest.mark.parametrize("role", ["learn", "run", "check program",
                                  "check corpus"])
def test_non_utf8_file_exits_2(tmp_path, capsys, role):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"step(a,\xff).\n")
    good = tmp_path / "good.pl"
    good.write_text("value(lit(A)).\n")
    argv = {"learn": ["learn", str(bad)],
            "run": ["run", "lit(1)", "-p", str(bad)],
            "check program": ["check", str(bad), "mixed"],
            "check corpus": ["check", str(good), str(bad)]}[role]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: not UTF-8 text (invalid start byte at byte 7)")


def test_run_non_decimal_digit_exits_2(capsys):
    # '²' is a digit to str.isdigit but no integer to int()
    assert main(["run", "lit(²)"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: term: unexpected character '²'")


def test_run_decimal_digits_of_any_script_are_integers(capsys):
    assert main(["run", "lit(٣)"]) == 0
    assert capsys.readouterr().out == "lit(3)\n"


def _nested(outer: str, depth: int, inner: str = "lit(0)") -> str:
    for _ in range(depth):
        inner = outer.format(inner)
    return inner


TOO_DEEP = "error: a term is nested too deeply for the recursion limit\n"


def test_run_deeply_nested_answer_exits_2(tmp_path, capsys):
    program = tmp_path / "pairs.pl"
    assert main(["learn", "pairs"]) == 0
    program.write_text(capsys.readouterr().out)
    term = _nested("pair({},lit(0))", 400)
    assert main(["run", "-p", str(program), "--depth", "2000", term]) == 2
    assert capsys.readouterr().err == TOO_DEEP


def test_run_deeply_nested_term_exits_2(capsys):
    assert main(["run", _nested("fst({})", 1000)]) == 2
    assert capsys.readouterr().err == TOO_DEEP
