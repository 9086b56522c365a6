"""Command line driver.

Four subcommands: ``learn`` induces rules from one scenario, ``run``
queries a rule program on an object term, ``chain`` learns scenarios in
sequence feeding each result to the next, ``check`` compares a rule
program against the built-in interpreter over a corpus.

Exit codes class outcomes, not commands: 0 success, 1 the search or
query came up empty (no hypothesis, finite failure, violations), 2 bad
input (unreadable or non-UTF-8 file, parse or semantic error, a term
nested past the recursion limit), 3 out of budget
(the learner's step budget spent, depth exceeded in a query or in the
learner's search).
"""

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from .corpus import builtin_corpus, builtin_corpus_names, load_corpus
from .learn import LearnResult, learn, learn_seq
from .objectlang import CORES, STRATEGIES, base_clauses, conformance_check, default_builtins
from .scenario import (
    ScenarioError,
    ScenarioSpec,
    builtin_scenario,
    builtin_scenario_names,
    load_scenario,
)
from .solver import DEFAULT_DEPTH, BuiltinError, SolveConfig, Verdict, solve
from .terms import Clause, Compound, FreshVars, Program, mk, rename_term
from .textio import (
    ParseError,
    PrintError,
    parse_clauses,
    parse_term,
    print_clause,
    print_program,
    print_term,
)

EX_OK = 0
EX_EMPTY = 1
EX_INPUT = 2
EX_BUDGET = 3

# human-readable verdicts; JSON carries the snake_case enum values
_VERDICT_TEXT = {
    Verdict.PROVED: "Proved",
    Verdict.FINITE_FAILURE: "FiniteFailure",
    Verdict.DEPTH_EXCEEDED: "DepthExceeded",
}

# the exit code of each learner status and each query verdict
_EXIT = {"found": EX_OK, "proved": EX_OK,
         "exhausted": EX_EMPTY, "finite_failure": EX_EMPTY,
         "depth_exceeded": EX_BUDGET, "budget": EX_BUDGET}

# integer flags that must be positive, as the scenario options they mirror
_LIMITS = ("depth", "max_clauses", "max_steps", "fuel")


class CliError(Exception):
    """Input problem the user can fix; maps to exit code 2."""


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


@contextlib.contextmanager
def _reading(name: str):
    """Turn a file that cannot be read, decoded or parsed into bad input
    that names it."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{name}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{name}: not UTF-8 text ({exc.reason} at byte "
                       f"{exc.start})") from exc
    except ParseError as exc:
        raise CliError(f"{name}: {exc}") from exc


def _read_program_file(path: str):
    with _reading(path):
        with open(path, encoding="utf-8") as fh:
            return parse_clauses(fh.read())


def _read_input(ref: str, what: str):
    """The scenario or corpus (``what``) in the file at ``ref``, else the
    bundled one of that name: a directory of that name does not hide it,
    and a pipe such as ``/dev/stdin`` counts as a file.  The readers are
    looked up per call, so a module global patched from outside is the
    one used."""
    load, bundled_names, bundled = {
        "scenario": (load_scenario, builtin_scenario_names, builtin_scenario),
        "corpus": (load_corpus, builtin_corpus_names, builtin_corpus),
    }[what]
    if os.path.exists(ref) and not os.path.isdir(ref):
        with _reading(ref):
            return load(ref)
    names = bundled_names()
    if ref in names:
        return bundled(ref)
    raise CliError(f"{ref}: no such file or bundled {what} "
                   f"(bundled: {', '.join(names)})")


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    given = {name: value for name, value in (("depth_limit", args.depth),
                                             ("max_clauses", args.max_clauses),
                                             ("max_steps", args.max_steps))
             if value is not None}
    return spec._replace(options=spec.options._replace(**given))


def _trace_fn(enabled: bool):
    if not enabled:
        return None
    return lambda line: print(line, file=sys.stderr)


def _learn_payload(name: str, res: LearnResult) -> dict:
    return {
        "scenario": name,
        "status": res.status,
        "clauses": [print_clause(c) for c in res.hypothesis.clauses]
        if res.hypothesis else [],
        "size": res.hypothesis.size if res.hypothesis else 0,
        "stats": {
            "size_reached": res.stats.size_reached,
            "meta_steps": res.stats.meta_steps,
            "metasubs_tried": res.stats.metasubs_tried,
            "candidates": res.stats.candidates,
            "pruned": res.stats.pruned,
            "elapsed": round(res.stats.elapsed, 3),
        },
    }


# Each command returns its exit code and, under --json, its payload,
# which `main` completes with the command's name and that code.
Reply = tuple[int, Optional[dict]]


def cmd_learn(args: argparse.Namespace) -> Reply:
    spec = _apply_overrides(_read_input(args.scenario, "scenario"), args)
    res = learn(spec, trace=_trace_fn(args.trace))
    code = _EXIT[res.status]
    if args.json:
        return code, _learn_payload(spec.name, res)
    if res.ok:
        print(f"% {spec.name}: {res.hypothesis.size} clauses, "
              f"{res.stats.elapsed:.2f}s, "
              f"{res.stats.metasubs_tried} metasubs tried")
        for c in res.hypothesis.clauses:
            print(print_clause(c))
    elif res.status == "exhausted":
        print(f"% {spec.name}: no hypothesis within "
              f"{spec.options.max_clauses} clauses", file=sys.stderr)
    elif res.status == "depth_exceeded":
        print(f"% {spec.name}: no hypothesis within "
              f"{spec.options.max_clauses} clauses, but the depth limit "
              f"{spec.options.depth_limit} cut the search", file=sys.stderr)
    else:
        print(f"% {spec.name}: step budget of {spec.options.max_steps} "
              f"meta-steps spent at size {res.stats.size_reached}",
              file=sys.stderr)
    return code, None


def _variant_key(c: Clause) -> tuple[Compound, ...]:
    """The clause's literals with its variables renamed in order of first
    occurrence: equal for two clauses exactly when they are variants."""
    mapping: dict = {}
    counter = FreshVars()
    return tuple(rename_term(a, mapping, counter) for a in (c.head, *c.body))


def _with_base(base: str, clauses: list[Clause]) -> list[Clause]:
    """The built-in core's clauses, then the program's.  A program clause
    that is a variant of a core clause is dropped, with a note: kept, it
    would double the branching of every derivation that uses it."""
    if base == "none":
        return clauses
    core = base_clauses(base)
    known = {_variant_key(c) for c in core}
    kept = [c for c in clauses if _variant_key(c) not in known]
    if len(kept) < len(clauses):
        print(f"note: dropped {len(clauses) - len(kept)} program clauses "
              f"already in the {base} core", file=sys.stderr)
    return [*core, *kept]


def cmd_run(args: argparse.Namespace) -> Reply:
    clauses = _with_base(args.base, [c for path in args.programs
                                     for c in _read_program_file(path)])
    if not clauses:
        raise CliError("no rules: give program files or drop --base none")
    with _reading("term"):
        term = parse_term(sys.stdin.read() if args.term == "-" else args.term,
                          ground="an object term")
    result = FreshVars().next_var()  # a negative id: no parsed term has it
    goal = mk("eval", term, result)
    out = solve(Program(tuple(clauses)), goal,
                SolveConfig(depth_limit=args.depth
                            if args.depth is not None else DEFAULT_DEPTH),
                default_builtins())
    value = None
    if out.verdict is Verdict.PROVED and result.id in out.answer:
        value = print_term(out.answer[result.id])
    code = _EXIT[str(out.verdict)]
    if args.json:
        return code, {"term": print_term(term), "verdict": str(out.verdict),
                      "value": value, "steps": out.steps}
    if value is not None:
        print(value)
    else:
        print(_VERDICT_TEXT[out.verdict])
    return code, None


def cmd_chain(args: argparse.Namespace) -> Reply:
    specs = [_apply_overrides(_read_input(ref, "scenario"), args)
             for ref in args.scenarios]
    seq = learn_seq(specs, trace=_trace_fn(args.trace))
    # the chain stops at the first task that fails
    failed = None if seq.ok else len(seq.results) - 1
    code = _EXIT[seq.results[-1][1].status]
    combined_text = None
    if seq.combined is not None:
        combined_text = print_program(seq.combined)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(combined_text)
    if args.json:
        return code, {
            "tasks": [_learn_payload(name, res) for name, res in seq.results],
            "induced": [print_clause(c) for c in seq.induced],
            "combined_size": len(seq.combined.clauses) if seq.combined else 0,
            "failed_task": failed,
            "elapsed": round(seq.elapsed, 3),
        }
    for name, res in seq.results:
        mark = "ok" if res.ok else res.status
        size = res.hypothesis.size if res.hypothesis else 0
        print(f"% {name}: {mark}, {size} clauses, {res.stats.elapsed:.2f}s",
              file=sys.stderr if not res.ok else sys.stdout)
    if seq.ok:
        print(f"% chain: {len(seq.induced)} induced clauses, "
              f"{seq.elapsed:.2f}s total")
        if args.out:
            print(f"% combined program written to {args.out}")
        else:
            print(combined_text, end="")
    else:
        print(f"% chain: stopped at task {failed} "
              f"({seq.results[failed][0]})", file=sys.stderr)
    return code, None


def cmd_check(args: argparse.Namespace) -> Reply:
    clauses = _with_base(args.base, _read_program_file(args.program))
    terms = _read_input(args.corpus, "corpus")
    report = conformance_check(
        Program(tuple(clauses)), terms,
        strategy=args.strategy,
        depth_limit=args.depth if args.depth is not None else DEFAULT_DEPTH,
        fuel=args.fuel)
    code = EX_EMPTY if report.failures else EX_OK
    if args.json:
        return code, {"strategy": args.strategy, "total": report.total,
                      "passed": report.passed,
                      "failures": report.failures}
    print(f"% {report.passed}/{report.total} terms conform "
          f"({args.strategy})")
    for line in report.failures:
        print(f"  {line}")
    return code, None


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="milsem",
        description="learn and test small-step evaluation rules")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, learner=False):
        p.add_argument("--depth", type=int, default=None, metavar="N",
                       help="proof depth limit")
        if learner:
            p.add_argument("--max-clauses", type=int, default=None,
                           metavar="N", help="hypothesis size cap")
            p.add_argument("--max-steps", type=int, default=None,
                           metavar="N", help="search budget in meta-steps")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("learn", help="induce rules from one scenario")
    p.add_argument("scenario", help="scenario file or bundled name")
    common(p, learner=True)
    p.add_argument("--trace", action="store_true",
                   help="log the search to stderr")
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("run", help="evaluate a term with a rule program")
    p.add_argument("term", help="object term, or - for stdin")
    p.add_argument("-p", "--program", dest="programs", action="append",
                   default=[], metavar="FILE",
                   help="clause file to load; repeatable")
    p.add_argument("--base", choices=[*CORES, "none"], default="full",
                   help="built-in rules to include (default full)")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("chain", help="learn scenarios in sequence")
    p.add_argument("scenarios", nargs="+", metavar="SCENARIO",
                   help="scenario files or bundled names, in order")
    p.add_argument("--out", metavar="FILE",
                   help="write the combined program here")
    common(p, learner=True)
    p.add_argument("--trace", action="store_true",
                   help="log the search to stderr")
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("check", help="compare rules with the interpreter")
    p.add_argument("program", help="clause file")
    p.add_argument("corpus", help="term file or bundled name")
    p.add_argument("--strategy", choices=list(STRATEGIES), default="lazy",
                   help="interpreter strategy (default lazy)")
    p.add_argument("--fuel", type=int, default=1000, metavar="N",
                   help="interpreter step budget per term")
    p.add_argument("--base", choices=[*CORES, "none"], default="none",
                   help="built-in rules to prepend (default none)")
    common(p)
    p.set_defaults(fn=cmd_check)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name in _LIMITS:
            value = getattr(args, name, None)
            if value is not None and value <= 0:
                raise CliError(f"--{name.replace('_', '-')} needs a positive "
                               f"integer, got {value}")
        code, payload = args.fn(args)
        if payload is not None:
            _emit_json({**payload, "command": args.command, "exit": code})
        return code
    except (CliError, ScenarioError, ParseError, PrintError, BuiltinError,
            OSError, RecursionError) as exc:
        if isinstance(exc, RecursionError):
            exc = "a term is nested too deeply for the recursion limit"
        print(f"error: {exc}", file=sys.stderr)
        return EX_INPUT


if __name__ == "__main__":
    sys.exit(main())
