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


# ---- the envelope ----

CHAIN_PL = ROOT / "bench" / "expected" / "chain.pl"

# proves wrong values for the pairs corpus under the full core
VIOLATING = ("step(fst(pair(_,B)),B).\n"
             "value(pair(A,B)) :- value(A), value(B).\n"
             "step(snd(pair(_,B)),B).\n"
             "step(pair(T1,T2),pair(T3,T2)) :- step(T1,T3).\n"
             "step(pair(V,T1),pair(V,T2)) :- value(V), step(T1,T2).\n")


ENVELOPE = [
    (["learn", "pairs"], "found", 0),
    (["learn", "pairs", "--max-clauses", "1"], "exhausted", 1),
    (["learn", "pairs", "--depth", "4"], "depth_exceeded", 3),
    (["learn", "pairs", "--max-steps", "143"], "budget", 3),
    (["run", "add(lit(2),lit(3))"], "proved", 0),
    (["run", "fst(lit(1))"], "finite_failure", 1),
    (["run", OMEGA, "--depth", "80"], "depth_exceeded", 3),
    (["chain", "pairs"], "ok", 0),
    (["chain", "pairs", "--max-clauses", "1"], "failed", 1),
    (["check", "{chain}", "pairs"], "conforming", 0),
    (["check", "{bad}", "pairs", "--base", "full"], "violating", 1),
    (["check", "{chain}", "{empty}"], "empty", 0),
]


@pytest.mark.parametrize("argv, outcome, code", ENVELOPE,
                         ids=[f"{argv[0]}-{outcome}"
                              for argv, outcome, _ in ENVELOPE])
def test_json_envelope(tmp_path, capsys, argv, outcome, code):
    # each outcome's payload names its subcommand and carries main's return
    bad = tmp_path / "bad.pl"
    bad.write_text(VIOLATING)
    empty = tmp_path / "empty.terms"
    empty.write_text("% nothing\n")
    argv = [a.format(chain=CHAIN_PL, bad=bad, empty=empty) for a in argv]
    assert main([*argv, "--json"]) == code
    payload = _json_payload(capsys)
    assert (payload["command"], payload["exit"]) == (argv[0], code)
    field = {"learn": "status", "run": "verdict"}.get(argv[0])
    if field:
        assert payload[field] == outcome


CLASH = "substitute(V,X,T,T).\n"
UNBOUND = "eval(A,B) :- int_add(A,C,B).\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("program, argv, message", [
    (CLASH, ["run", "var(a)", "-p", "{prog}"],
     "predicates defined both by clauses and builtins: substitute/4"),
    (CLASH, ["check", "{prog}", "pairs", "--base", "full"],
     "predicates defined both by clauses and builtins: substitute/4"),
    (UNBOUND, ["run", "--base", "none", "lit(1)", "-p", "{prog}"],
     "int_add/3: right argument is insufficiently instantiated: _v2"),
    (UNBOUND, ["check", "{prog}", "pairs"],
     "int_add/3: right argument is insufficiently instantiated: _v1"),
], ids=["run-clash", "check-clash", "run-unbound", "check-unbound"])
def test_builtin_error_exits_2(tmp_path, capsys, program, argv, message,
                               json_flag):
    prog = tmp_path / "prog.pl"
    prog.write_text(program)
    assert main([a.format(prog=prog) for a in argv] + json_flag) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("argv, status, code, steps, size", [
    (["--max-steps", "143"], "budget", 3, 143, 5),
    (["--max-steps", "144"], "found", 0, 144, 5),
    # this search ends on its 15th step: exhausted, not stopped
    (["--max-clauses", "1", "--max-steps", "15"], "exhausted", 1, 15, 1),
    (["--max-clauses", "1", "--max-steps", "14"], "budget", 3, 14, 1),
], ids=["143", "144", "1-15", "1-14"])
def test_learn_step_budget(capsys, argv, status, code, steps, size):
    # the budget counts meta-steps, so two runs agree on all but the time
    payloads = []
    for _ in range(2):
        assert main(["learn", "pairs", *argv, "--json"]) == code
        payload = _json_payload(capsys)
        del payload["stats"]["elapsed"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert (payload["status"], payload["exit"]) == (status, code)
    assert payload["stats"]["meta_steps"] == steps
    assert payload["stats"]["size_reached"] == size


def test_learn_budget_stop_says_where(capsys):
    assert main(["learn", "pairs", "--max-steps", "143"]) == 3
    assert capsys.readouterr().err == (
        "% pairs: step budget of 143 meta-steps spent at size 5\n")


def test_chain_task_has_its_own_budget(capsys):
    # pairs alone takes 144 meta-steps, and more after lazy_eager's rules:
    # one step less than that cost stops pairs, and only pairs
    assert main(["chain", "lazy_eager", "pairs", "--json"]) == 0
    cost = _json_payload(capsys)["tasks"][1]["stats"]["meta_steps"]
    assert main(["chain", "lazy_eager", "pairs", "--max-steps",
                 str(cost - 1), "--json"]) == 3
    payload = _json_payload(capsys)
    tasks = payload["tasks"]
    assert [t["status"] for t in tasks] == ["found", "budget"]
    assert tasks[1]["stats"]["meta_steps"] == cost - 1
    assert payload["failed_task"] == 1
    assert payload["combined_size"] == 0


def test_learn_takes_no_timeout_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["learn", "pairs", "--timeout", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timeout 5" in capsys.readouterr().err


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


# prints the process's peak resident set in bytes once `main` returns:
# VmHWM where /proc has it, since ru_maxrss after an exec still counts the
# parent's peak on Linux; else ru_maxrss, which is in bytes on macOS
_PEAK_RSS = """
import resource, sys
from milsem.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as f:
        peak = next(int(l.split()[1]) * 1024 for l in f
                    if l.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak, file=sys.stderr)
sys.exit(code)
"""


def test_run_very_deep_loop_exits_3():
    # a loop under a budget of 100k steps is reported as out of depth, not
    # a crash; the loop check cuts it at its first repeated resolvent, so
    # it takes few steps and little more memory than the import
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "run", "--depth", "100000", OMEGA,
         "--json"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=300)
    assert proc.returncode == 3
    out = json.loads(proc.stdout)
    assert out["verdict"] == "depth_exceeded" and out["steps"] < 1000
    assert int(proc.stderr.split()[-1]) < 20 * 2**20


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


def test_chain_trace_names_each_task(capsys):
    assert main(["chain", "pairs", "lists", "--trace"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("task ")] == [
        "task pairs", "task lists"]


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
    bad.write_text(VIOLATING)
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


def test_check_term_stuck_at_the_fuel_boundary_is_stuck(tmp_path, capsys):
    # one step to fst(lit(1)), which no rule steps: stuck, not diverging,
    # even when that step spends the last unit of fuel
    corpus = tmp_path / "stuck.terms"
    corpus.write_text("app(lam(x,fst(var(x))),lit(1))\n")
    for fuel in ("1", "2"):
        assert main(["check", str(CHAIN_PL), str(corpus),
                     "--fuel", fuel]) == 0
    assert "diverges" not in capsys.readouterr().out


def test_check_unknown_corpus_exits_2(capsys):
    assert main(["check", "nope.pl", "pairs"]) == 2
    assert main(["learn", "pairs", "--json"]) == 0  # driver still healthy
    capsys.readouterr()


# ---- many calls in one process ----
# The calls share the core and the metarule library, which objectlang
# builds once per process; each call must still start from the defaults,
# whatever the calls before it gave or failed on.


def test_an_option_is_back_at_its_default_in_the_next_call(capsys):
    assert main(["run", "var(a)", "--base", "none"]) == 2  # no rules at all
    capsys.readouterr()
    assert main(["run", "var(a)"]) == 0  # the full core again
    assert capsys.readouterr().out == "var(a)\n"
    for argv, strategy in ((["--strategy", "eager"], "eager"), ([], "lazy")):
        assert main(["check", str(CHAIN_PL), "pairs", *argv, "--json"]) == 0
        assert _json_payload(capsys)["strategy"] == strategy


def test_a_step_budget_is_gone_in_the_next_call(capsys):
    assert main(["learn", "conditionals", "--max-steps", "1000",
                 "--json"]) == 3
    assert _json_payload(capsys)["status"] == "budget"
    assert main(["learn", "conditionals", "--json"]) == 0
    assert _json_payload(capsys)["status"] == "found"


def test_a_usage_error_leaves_the_next_call_working(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "var(a)", "--base", "lazy_eager"])
    assert exc.value.code == 2
    assert "invalid choice: 'lazy_eager'" in capsys.readouterr().err
    assert main(["run", "var(a)", "--json"]) == 0
    assert _json_payload(capsys)["value"] == "var(a)"


def test_two_calls_give_the_same_payload(capsys):
    payloads = []
    for _ in range(2):
        assert main(["learn", "conditionals", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["stats"]["elapsed"] = 0
        payloads.append(json.dumps(payload, indent=2, sort_keys=True))
    assert payloads[0] == payloads[1]


# ---- limits ----


@pytest.mark.parametrize("argv", [
    ["learn", "pairs", "--depth", "0"],
    ["run", "var(a)", "--depth", "-3"],
    ["chain", "pairs", "--max-clauses", "0"],
    ["learn", "pairs", "--max-steps", "0"],
    ["chain", "pairs", "--max-steps", "-1"],
    ["check", "{prog}", "lazy_eager", "--base", "full", "--fuel", "0"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_positive_limit_exits_2(tmp_path, capsys, argv):
    # as for a scenario's options, every limit is a positive integer
    prog = tmp_path / "empty.pl"
    prog.write_text("")
    argv = [a.format(prog=prog) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2]} needs a positive integer")


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


def test_run_integer_too_long_to_convert_exits_2(capsys):
    assert main(["run", "lit(" + "1" * 5000 + ")"]) == 2
    assert capsys.readouterr().err == (
        "error: term: integer too long to read at line 1, column 5\n")


# the sum of two legal 4,300-digit literals has 4,301 digits, more than
# `int` converts to a string
NINES = "9" * 4300
LONG_SUM = f"add(lit({NINES}),lit({NINES}))"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_run_value_too_long_to_print_exits_2(capsys, flags):
    assert main(["run", LONG_SUM, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a value holds an integer too long to print "
                   "(over 4300 digits)\n")


# a background `pred_<n>` whose number has as many digits as `int` converts
# to a string, or more: 4,400 nines cannot be read as a number, and the
# name after 4,300 nines could not be written
@pytest.mark.parametrize("digits", [4300, 4400])
@pytest.mark.parametrize("command", [["learn"], ["chain", "lazy_eager"]],
                         ids=["learn", "chain"])
def test_invented_name_too_long_to_follow_exits_2(tmp_path, capsys, command,
                                                  digits):
    bundled = ROOT / "src" / "milsem" / "data" / "scenarios" / "pairs.pls"
    path = tmp_path / "long.pls"
    path.write_text(bundled.read_text().replace(
        "%% background\n", f"%% background\npred_{'9' * digits}(a).\n"))
    assert main([*command, str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: scenario long: predicate pred_99999999.../1 has a "
                   f"{digits}-digit number, too long to invent predicates "
                   f"after\n")


def test_check_of_a_value_too_long_to_print_still_passes(tmp_path, capsys):
    # nothing prints the sum when the rules agree with the interpreter
    rules = tmp_path / "rules.pl"
    rules.write_text("value(nil).\n")
    corpus = tmp_path / "long.terms"
    corpus.write_text(LONG_SUM + "\n")
    assert main(["check", str(rules), str(corpus), "--base", "full"]) == 0
    capsys.readouterr()


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
