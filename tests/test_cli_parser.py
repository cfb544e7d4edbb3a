"""The command-line parser: `_parse` reads a line from the verb table as
argparse does or declines it; `main` builds the argparse parser of all nine
verbs for declined lines alone, and prints argparse's help and errors.
Also the usage errors `main` reports itself (`wallcross` options,
`KVERTEX_SUITE_SEED`), the `suite --count` default, the positive `suite`
sizes and expansion order, what reading GOLDEN_CASES of test_cli.py
imports, and what importing kvertex.cli imports.

Kept apart from test_cli.py: perfbench/workloads.py executes that file to
read its GOLDEN_CASES, so its imports count in the `cli` workload."""
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvertex import cli
from kvertex.cli import VERBS, _parse, build_parser, main
from test_cli import GOLDEN_CASES

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
    ["expand", "1/(1-z)", "--point", "zero", "--order", "0"],
    ["expand", "1/(1-z)", "--point", "zero", "--order=-3"],
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


def test_main_builds_a_parser_for_declined_lines_only(monkeypatch):
    # well-formed lines build no parser; each line the reader declines
    # builds a fresh all-verb parser
    built = []

    def recording():
        parser = build_parser()
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in SUCCEEDING + [argv for _name, argv in GOLDEN_CASES]:
        assert run(main, argv)[0] == 0
    assert built == []
    # a bad integer is left to argparse, which rejects it, and an
    # abbreviation too, which it reads
    assert run(main, ["hopf", "star", "x"])[0] == 2
    assert run(main, ["expand", "1/(1-z)", "--point", "zero", "--ord", "2"]) == (
        0, "1 + z + O(z^2)\n", "")
    assert run(main, ["bogus"])[0] == 2
    assert len(built) == 3 and len({id(parser) for parser in built}) == 3
    assert all(vars(parser.parse_args(argv)) == vars(_parse(argv))
               for parser in built for argv in SUCCEEDING)


# the goldens, the succeeding lines, and negative numbers, `=` forms,
# repeats and options before positionals
@pytest.mark.parametrize("argv", [argv for _name, argv in GOLDEN_CASES] + SUCCEEDING + [
    ["hopf", "pair", "-0", "-12"],
    ["hopf", "pair", "-0", "-12"],
    ["residue", "--var", "-1", "1/(1-z)"],
    ["residue", "1/(1-z)", "--var="],
    ["residue", "--kind=naive", "--kind", "coh", "1/u"],
    ["suite", "hopf", "--count", "5", "--count=3", "--seed", "-4"],
    ["expand", "--order=2", "1/(1-z)", "--point=one"],
    ["vertex", "--kernel", "--quiver", QUIVER] + STATES + ["--kernel"],
    ["axioms", "--quiver", QUIVER, "--which", "skew", "--h", "1@e1"] + STATES,
    ["wallcross", "--k", "k1", "invert", "--stability", STABILITY, "--table=" + TABLE],
], ids=lambda argv: " ".join(argv).replace(DATA + os.sep, "").replace(DATA, ""))
def test_reader_reads_as_argparse(argv):
    args = _parse(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["residue", "--", "1/(1-z)"],
    ["residue", "1/(1-z)", "-h"],
    ["residue", "-1x"],
    ["residue", "- z"],
    ["residue", "-"],
    ["residue", "--var", "-t", "1/(1-z)"],
    ["residue", "1/(1-z)", "--var"],
    ["residue", "1/(1-z)", "--kind", "q"],
    ["residue", "1/(1-z)", "--point", "zero"],
    ["expand", "1/(1-z)", "--po", "zero", "--order", "3"],
    ["expand", "1/(1-z)", "--point", "zero", "--order", "-3"],
    ["hopf", "translation", "-1_0", "4"],
    ["hopf", "star", "1.5", "1"],
    ["vertex", "--quiver", QUIVER] + STATES + ["--kernel=1"],
    ["wallcross", "invert", "--t", TABLE, "--stability", STABILITY, "--k", "k1"],
    ["suite", "hopf", "--count", "x", "--count", "3"],
    ["suite", "hopf", "extra"],
    ["suite"],
    ["--", "residue", "1/(1-z)"],
    ["Residue", "1/(1-z)"],
    [],
], ids=lambda argv: " ".join(argv).replace(DATA + os.sep, "") or "none")
def test_reader_declines(argv):
    # argparse reads some of these (`--po`, `- z`, `--`), and rejects the rest
    assert _parse(argv) is None


# Tokens of a fuzzed command line: option strings, as they are, with `=`
# and abbreviated; help, `--`, `-` and the empty string; negative numbers;
# every choice and a bad one; integers, non-integers and words.
_OPTIONS = sorted({name for _help, _fn, specs in VERBS.values()
                   for name, _kwargs in specs if name.startswith("-")})
_CHOICES = sorted({c for _help, _fn, specs in VERBS.values()
                   for _name, kwargs in specs for c in kwargs.get("choices", ())})
_VALUES = _CHOICES + ["q", "two", "commute", "0", "1", "3", "12", "x", "1.5", "1/(1-z)",
                      "k1", "(2)", "1@e1", "-1", "-3", "-0", "-1.5", "-.5", "-1_0", "-1x",
                      "-x", "- z", "", "-", "1 2"]


def _tokens(options):
    return st.one_of(
        st.sampled_from(options + ["-h", "--help", "--", "-", "", "-k", "---kind"]),
        st.builds("{}={}".format, st.sampled_from(options), st.sampled_from(_VALUES)),
        st.builds(lambda name, cut: name[:max(3, len(name) - cut)],
                  st.sampled_from(options), st.integers(1, 4)),
        st.sampled_from(_VALUES))


_TOKENS = _tokens(_OPTIONS)


@st.composite
def _command_lines(draw):
    """A well-formed line of one verb, from its specs, with a few tokens
    inserted, replaced or deleted; now and then free tokens alone."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(st.one_of(st.sampled_from(list(VERBS)), _TOKENS), max_size=6))
    verb = draw(st.sampled_from(list(VERBS)))
    argv = []
    for name, kwargs in VERBS[verb][2]:
        if kwargs.get("action") == "store_true":
            value = []
        elif "choices" in kwargs:
            value = [draw(st.sampled_from(kwargs["choices"]))]
        elif kwargs.get("type") is not None:
            value = [draw(st.sampled_from(["1", "2", "3"]))]
        else:
            value = [draw(st.sampled_from(["1/(1-z)", "k1", "(2)", "1@e1"]))]
        if kwargs.get("nargs") == "*":
            value = draw(st.lists(st.sampled_from(["1", "-1", "4"]), max_size=3))
        if not name.startswith("-"):
            argv.append(value)
        elif kwargs.get("required") or draw(st.booleans()):
            argv.append([name] + value)
    argv = [verb] + [token for group in draw(st.permutations(argv)) for token in group]
    own = [name for name, _kwargs in VERBS[verb][2] if name.startswith("-")]
    tokens = st.one_of(_tokens(own), _TOKENS) if own else _TOKENS
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(argv)))
        how = draw(st.sampled_from(["insert", "replace", "delete"]))
        token = draw(tokens)
        if how == "insert":
            argv.insert(i, token)
        elif i < len(argv):
            argv[i:i + 1] = [token] if how == "replace" else []
    return argv


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_command_lines())
def test_reader_declines_or_reads_as_argparse(argv):
    args = _parse(argv)
    if args is None:
        return
    try:
        with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
            expected = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv}, which the reader read")
    assert vars(args) == vars(expected)


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


@pytest.mark.parametrize("value", ["0", "-3"])
def test_expand_order_must_be_positive(monkeypatch, value):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, err = run(main, ["expand", "1/(1-z)", "--point", "zero", "--order", value])
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: kvertex expand ")
    assert error == (f"kvertex expand: error: argument --order: "
                     f"must be a positive integer, got '{value}'")


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


def test_cli_imports_neither_dataclasses_nor_inspect():
    # the classes of the command line's modules are plain __slots__ classes,
    # so a cold start pays for neither module
    code = ("import sys\n"
            "import kvertex.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    res = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
