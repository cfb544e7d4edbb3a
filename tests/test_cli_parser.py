"""The command-line parser: `main` builds the parser of the verb it runs
only, and every help text and argparse error it prints matches the parser
with all nine verbs.  Also the usage errors `main` reports itself
(`wallcross` options, `KVERTEX_SUITE_SEED`), the `suite --count` default,
the positive `suite` sizes, and what reading GOLDEN_CASES of test_cli.py
imports.

Kept apart from test_cli.py: perfbench/workloads.py executes that file to
read its GOLDEN_CASES, so its imports count in the `cli` workload."""
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kvertex import cli
from kvertex.cli import build_parser, main

REPO = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(os.path.dirname(__file__), "data")
QUIVER = os.path.join(DATA, "a2.quiver")
STABILITY = os.path.join(DATA, "stability.json")
TABLE = os.path.join(DATA, "table.json")


def run(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fn(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def all_verbs(argv):
    args = build_parser().parse_args(argv)
    return args.fn(args)


STATES = ["--f", "1@e1", "--g", "1@e2"]
WALLCROSS = ["--stability", STABILITY, "--table", TABLE, "--k", "k1"]

# each verb with -h, an unknown option, a missing required argument, a bad
# choice and a bad integer where it has them; then the top level
ARGV_CASES = [
    ["residue", "-h"],
    ["residue", "1/(1-z)", "--bogus"],
    ["residue"],
    ["residue", "1/(1-z)", "--kind", "q"],
    ["expand", "-h"],
    ["expand", "1/(1-z)", "--point", "zero", "--order", "3", "--bogus"],
    ["expand", "1/(1-z)"],
    ["expand", "1/(1-z)", "--point", "two", "--order", "3"],
    ["expand", "1/(1-z)", "--point", "zero", "--order", "x"],
    ["pfrac", "-h"],
    ["pfrac", "1/(1-z)", "--bogus"],
    ["pfrac"],
    ["pfrac", "1/(1-z)", "z"],
    ["hopf", "-h"],
    ["hopf", "star", "1", "1", "--bogus"],
    ["hopf"],
    ["hopf", "cup", "1", "1"],
    ["hopf", "star", "x", "y"],
    ["vertex", "-h"],
    ["vertex", "--quiver", QUIVER] + STATES + ["--bogus"],
    ["vertex", "--quiver", QUIVER],
    ["bracket", "-h"],
    ["bracket", "--quiver", QUIVER] + STATES + ["--bogus"],
    ["bracket", "--f", "1@e1"],
    ["axioms", "-h"],
    ["axioms", "--quiver", QUIVER, "--which", "skew"] + STATES + ["--bogus"],
    ["axioms", "--quiver", QUIVER] + STATES,
    ["axioms", "--quiver", QUIVER, "--which", "commute"] + STATES,
    ["wallcross", "-h"],
    ["wallcross", "invert"] + WALLCROSS + ["--bogus"],
    ["wallcross", "invert", "--k", "k1"],
    ["wallcross", "sideways"] + WALLCROSS,
    ["suite", "-h"],
    ["suite", "hopf", "--bogus"],
    ["suite"],
    ["suite", "hopf", "--count", "x"],
    ["suite", "residue-oracle", "--count", "-1"],
    ["suite", "diagonal-expansion", "--order", "0"],
    ["suite", "residue-constraints", "--nmax", "0"],
    ["suite", "residue-constraints", "--kmax", "-2"],
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["res"],
    ["-h", "residue"],
    ["--bogus", "residue", "1/(1-z)"],
]


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", ARGV_CASES,
                         ids=lambda argv: " ".join(argv).replace(DATA + os.sep, "") or "none")
def test_output_matches_the_all_verb_parser(monkeypatch, columns, argv):
    # the width decides where argparse wraps the long top-level usage line
    monkeypatch.setenv("COLUMNS", columns)
    expected = run(all_verbs, argv)
    assert expected[0] in (0, 2) and (expected[1] or expected[2])
    assert run(main, argv) == expected


SUCCEEDING = [
    ["residue", "1/(1-z)"],
    ["expand", "1/(1-z)", "--point", "zero", "--order", "3"],
    ["pfrac", "1/(1-z)"],
    ["hopf", "star", "1", "1"],
    ["vertex", "--quiver", QUIVER] + STATES + ["--kernel"],
    ["bracket", "--quiver", QUIVER] + STATES,
    ["axioms", "--quiver", QUIVER, "--which", "skew"] + STATES,
    ["wallcross", "master"] + WALLCROSS + ["--k2", "k2", "--alpha", "(2)"],
    ["suite", "hopf", "--count", "3"],
]


@pytest.mark.parametrize("argv", SUCCEEDING, ids=lambda argv: argv[0])
def test_one_verb_parser_reads_as_the_all_verb_parser(argv):
    assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))


def test_main_builds_a_fresh_parser_of_the_named_verb(monkeypatch):
    built = []

    def recording(verb=None):
        parser = build_parser(verb)
        built.append((verb, parser))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in (["hopf", "star", "1", "1"], ["hopf", "pair", "3", "5"], ["bogus"]):
        run(main, argv)
    assert [verb for verb, _ in built] == ["hopf", "hopf", None]
    assert built[0][1] is not built[1][1]


@pytest.mark.parametrize("argv,missing", [
    (["wallcross", "forward"] + WALLCROSS, "--alpha"),
    (["wallcross", "master"] + WALLCROSS + ["--alpha", "(2)"], "--k2"),
    (["wallcross", "master"] + WALLCROSS + ["--k2", "k2"], "--alpha"),
    (["wallcross", "master"] + WALLCROSS, "--k2 and --alpha"),
    (["wallcross", "forward", "--stability", "/nonexistent", "--table", TABLE, "--k", "k1"],
     "--alpha"),
])
def test_wallcross_names_a_missing_option(argv, missing):
    code, out, err = run(main, argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: kvertex wallcross {argv[1]} --stability ")
    assert error == f"kvertex wallcross: error: {argv[1]} requires {missing}"


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_malformed_suite_seed(monkeypatch, value):
    monkeypatch.setenv("KVERTEX_SUITE_SEED", value)
    # other verbs ignore the variable
    assert run(main, ["residue", "1/(1-z)"]) == (0, "1\n", "")
    assert run(main, ["hopf", "star", "1", "1"]) == (0, "2*phi^2 - phi^1\n", "")
    code, out, err = run(main, ["suite", "residue-oracle", "--count", "2"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "KVERTEX_SUITE_SEED" in err
    # --seed takes precedence over the variable
    code, out, err = run(main, ["suite", "residue-oracle", "--count", "2", "--seed", "3"])
    assert (code, err) == (0, "")
    monkeypatch.setenv("KVERTEX_SUITE_SEED", "3")
    assert run(main, ["suite", "residue-oracle", "--count", "2"]) == (0, out, "")


def test_malformed_suite_seed_stops_the_test_session():
    # conftest.py reads the variable once, before collecting any test
    env = dict(os.environ, KVERTEX_SUITE_SEED="abc")
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_tracer_targets.py"],
                         cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == pytest.ExitCode.USAGE_ERROR
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == [
        "ERROR: KVERTEX_SUITE_SEED must be an integer, got 'abc'"]


@pytest.mark.parametrize("name,keyword", [("residue-oracle", "count"),
                                          ("vertex-axioms", "per_config"),
                                          ("reduced", "per_config"),
                                          ("conner-floyd", "count")])
def test_suite_count_reaches_the_suite(monkeypatch, name, keyword):
    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        return []

    monkeypatch.setitem(cli.SUITES, name, recording)
    for argv in (["suite", name, "--count", "200"], ["suite", name, "--count", "7"],
                 ["suite", name]):
        assert run(main, argv) == (0, "PASS 0/0\n", "")
    # an omitted --count leaves the suite's own default
    assert [c.get(keyword) for c in calls[:2]] == [200, 7] and keyword not in calls[2]


@pytest.mark.parametrize("option,value", [("--count", "-1"), ("--count", "0"),
                                          ("--order", "0"), ("--nmax", "0"),
                                          ("--kmax", "-2")])
def test_suite_sizes_must_be_positive(monkeypatch, option, value):
    # every suite rejects the size before it runs, the ones that ignore it too
    monkeypatch.setenv("COLUMNS", "200")
    for name in ("residue-oracle", "diagonal-expansion", "residue-constraints", "hopf"):
        code, out, err = run(main, ["suite", name, option, value])
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: kvertex suite ")
        assert error == (f"kvertex suite: error: argument {option}: "
                         f"must be a positive integer, got '{value}'")


def test_reading_golden_cases_imports_no_hypothesis():
    # as perfbench/workloads.golden_cases reads them
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location("
            "'kvertex_test_cli', 'tests/test_cli.py')\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "assert module.GOLDEN_CASES\n"
            "print('hypothesis' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    res = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
