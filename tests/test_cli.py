"""Command-line behaviour: spec example values, exit codes, byte-identical
reruns, and golden files (regenerate with `python tests/test_cli.py`)."""
import io
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kvertex.cli import main, parse_quiver_text
from kvertex.exprparse import parse_rational
from kvertex.laurent import LP_ONE, MAX_EXPONENT, LaurentPoly, PolyFraction
from kvertex.series import expand_at
from kvertex.suites import SUITES

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def quiver(name):
    return os.path.join(DATA, name)


GOLDEN_CASES = [
    ("residue_k_unit", ["residue", "--kind", "k", "1/(1-z)"]),
    ("residue_k_stack", ["residue", "--kind", "k", "z^2/(1-z)^3"]),
    ("residue_k_two_pole", ["residue", "--kind", "k", "1/((1-z)*(1-t*z))"]),
    ("residue_naive_unit", ["residue", "--kind", "naive", "1/(1-z)"]),
    ("residue_naive_char", ["residue", "--kind", "naive", "1/(1-t*z)"]),
    ("residue_coh", ["residue", "--kind", "coh", "1/u + 3*u^2"]),
    ("expand_zero", ["expand", "1/(1-z)", "--point", "zero", "--order", "3"]),
    ("expand_infinity", ["expand", "1/(1-z)", "--point", "infinity", "--order", "3"]),
    ("expand_one", ["expand", "1/z", "--point", "one", "--order", "3"]),
    ("pfrac_two_poles", ["pfrac", "1/((1-z)*(1-t*z))"]),
    ("pfrac_cyclotomic", ["pfrac", "1/(1-z^2)"]),
    ("pfrac_polynomial", ["pfrac", "z^3"]),
    ("hopf_star", ["hopf", "star", "1", "1"]),
    ("hopf_pair", ["hopf", "pair", "3", "5"]),
    ("hopf_coproduct", ["hopf", "coproduct", "2"]),
    ("hopf_chern", ["hopf", "chern", "1"]),
    ("hopf_translation", ["hopf", "translation", "-1", "4"]),
    ("vertex_kernel_a2", ["vertex", "--quiver", quiver("a2.quiver"),
                          "--f", "1@e1", "--g", "1@e2", "--kernel"]),
    ("vertex_shuffle", ["vertex", "--quiver", quiver("a2.quiver"),
                        "--f", "s_{1,1}@e1", "--g", "s_{1,1}@e1"]),
    ("bracket_a2", ["bracket", "--quiver", quiver("a2.quiver"),
                    "--f", "1@e1", "--g", "1@e2"]),
    ("axioms_skew", ["axioms", "--quiver", quiver("a2.quiver"), "--which", "skew",
                     "--f", "s_{1,1}@e1", "--g", "s_{2,1}@e2"]),
    ("wallcross_forward", ["wallcross", "forward", "--stability",
                           os.path.join(DATA, "stability.json"),
                           "--table", os.path.join(DATA, "table.json"),
                           "--k", "k2", "--alpha", "(3)"]),
    ("wallcross_invert", ["wallcross", "invert", "--stability",
                          os.path.join(DATA, "stability.json"),
                          "--table", os.path.join(DATA, "table.json"), "--k", "k1"]),
    ("wallcross_master", ["wallcross", "master", "--stability",
                          os.path.join(DATA, "stability.json"),
                          "--table", os.path.join(DATA, "table.json"),
                          "--k", "k1", "--k2", "k2", "--alpha", "(2)"]),
    ("suite_constraints_small", ["suite", "residue-constraints",
                                 "--nmax", "2", "--kmax", "1"]),
]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv):
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2, "output must be byte-identical across runs"
    with open(os.path.join(GOLDEN, name + ".txt"), "r", encoding="utf-8") as fh:
        assert out1 == fh.read()


def test_spec_example_values():
    assert run_cli(["residue", "--kind", "k", "1/(1-z)"])[1].strip() == "1"
    assert run_cli(["residue", "--kind", "k", "z^2/(1-z)^3"])[1].strip() == "0"
    assert run_cli(["hopf", "star", "1", "1"])[1].strip() == "2*phi^2 - phi^1"
    code, out = run_cli(["suite", "residue-constraints", "--nmax", "6", "--kmax", "4"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS 105/105"


def test_integral_fraction_exponent_prints_as_int():
    # t^(1/2)*t^(3/2) leaves the exponent Fraction(2); it prints as t^2
    assert run_cli(["residue", "t^(1/2)*t^(3/2)/(1-z)"]) == (0, "t^2\n")
    code, out = run_cli(["pfrac", "1/((1-z^3)*(1-t^2*z^6))"])
    assert code == 0 and "(1 - t^2)" in out and "t^(2)" not in out


def test_large_factor_power():
    # the factor of a^k is recognised once, not k times, and a two-term
    # base is raised by the binomial theorem
    assert run_cli(["residue", "1/(1-z)^200000"]) == (0, "1\n")
    assert run_cli(["residue", "(1+z)^1000"]) == (0, "0\n")
    assert run_cli(["residue", "(1+z)^3000"]) == (0, "0\n")


def test_integral_sum_of_fractional_exponents():
    # z^(1/2)*z^(1/2) is z, so the value is z/(1-z)
    assert run_cli(["residue", "z^(1/2)*z^(1/2)/(1-z)"]) == (0, "1\n")


def test_exponent_overflow_exits_cleanly():
    assert run_cli(["residue", f"t^{MAX_EXPONENT}/(1-z)"]) == (0, f"t^{MAX_EXPONENT}\n")
    for expr in (f"t^{MAX_EXPONENT + 1}/(1-z)", f"t^{MAX_EXPONENT}*t/(1-z)",
                 f"t^(1/2)*s^({2 ** 29 + 2}/3)/(1-z)"):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["residue", expr])
        assert (code, out) == (1, "")
        assert err.getvalue().startswith("error: exponent out of range"), err.getvalue()


def test_exit_codes():
    code, _ = run_cli(["residue", "--kind", "k", "1/(1-z)"])
    assert code == 0
    # evaluation error: non-factorable denominator
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["residue", "--kind", "k", "1/(1-x-z)"]) == 1
    # parse error
    assert main(["residue", "--kind", "k", "1/((1-z)"]) == 2
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["residue", "z^(1/0)"]) == 2
    assert err.getvalue().startswith("parse error: zero denominator in exponent")
    # a zero divisor is an evaluation error, also behind a structural rewrite
    for expr in ("1/(z/0)", "1/(z/(t-t))", "(1-z)/(1/0)", "1/(0^-1)", "0^-1", "1/(1/0)^0"):
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            assert main(["residue", expr]) == 1
        assert err.getvalue() == "error: division by zero\n"
    # a non-integer hopf argument is rejected by the argument parser
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["hopf", "star", "x", "y"])
    assert exc.value.code == 2
    # so is a wrong number of hopf arguments, with a usage line on stderr
    for argv in (["hopf", "star", "1"], ["hopf", "translation", "3"], ["hopf", "chern"]):
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue().startswith(f"usage: kvertex hopf {argv[1]} ")
    # a missing input file is an evaluation error, not a traceback
    for argv in (["vertex", "--quiver", "/nonexistent", "--f", "1@e1", "--g", "1@e2"],
                 ["wallcross", "invert", "--stability", "/nonexistent",
                  "--table", os.path.join(DATA, "table.json"), "--k", "k1"],
                 ["wallcross", "invert", "--stability", os.path.join(DATA, "stability.json"),
                  "--table", "/nonexistent", "--k", "k1"]):
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv) == 1
        assert err.getvalue().startswith("error: ")


def test_seeded_suite_determinism(monkeypatch):
    monkeypatch.setenv("KVERTEX_SUITE_SEED", "7")
    args = ["suite", "residue-oracle", "--count", "20", "--seed", "7"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2
    assert out1.strip().splitlines()[-1] == "PASS 20/20"


def test_quiver_format():
    q = parse_quiver_text("# comment\nvertex a\nvertex b\nedge a b\n\nedge a a\n")
    assert q.vertices == ("a", "b")
    assert q.edges == (("a", "b"), ("a", "a"))
    with pytest.raises(Exception):
        parse_quiver_text("vertexx a")


def test_state_parse_errors():
    code = main(["vertex", "--quiver", quiver("a2.quiver"), "--f", "1", "--g", "1@e2"])
    assert code == 1


def test_zero_residue_is_not_divided_by_the_content():
    # with --var t the z-factors are content; a zero value prints as 0
    assert run_cli(["residue", "1/(1-z)", "--var", "t"]) == (0, "0\n")
    assert run_cli(["residue", "--kind", "naive", "z/(1-z)", "--var", "t"]) == (0, "0\n")
    assert run_cli(["residue", "1/((1-z)*(1-t))", "--var", "t"]) == (0, "(1)/(1 - z)\n")


def run_cli_error(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv)
    assert out == ""
    return code, err.getvalue()


WALLCROSS_FILES = ["--stability", os.path.join(DATA, "stability.json"),
                   "--table", os.path.join(DATA, "table.json"), "--k", "k1"]


def test_unknown_vertex_in_a_grade():
    argv = ["vertex", "--quiver", quiver("a2.quiver"), "--f", "1@ex", "--g", "1@e2"]
    assert run_cli_error(argv) == (1, "error: bad grade 'ex': the quiver has no vertex 'x'\n")


@pytest.mark.parametrize("grade", ["(1,x)", "((1,0))", "((1,0)", "(1,0))"])
def test_non_integer_entry_in_a_grade(grade):
    argv = ["vertex", "--quiver", quiver("a2.quiver"), "--f", f"1@{grade}", "--g", "1@e2"]
    assert run_cli_error(argv) == (
        1, f"error: bad class '{grade}'; use (d1,d2,...) with integer entries\n")


# a class is d1,...,dn, bare or inside exactly one pair of parentheses
@pytest.mark.parametrize("alpha", ["(1,", "((2", "(2))", "(2", "2)", "((2))", "()"])
@pytest.mark.parametrize("action", ["forward", "master"])
def test_malformed_wallcross_class(action, alpha):
    argv = ["wallcross", action] + WALLCROSS_FILES + ["--k2", "k2", "--alpha", alpha]
    assert run_cli_error(argv) == (
        1, f"error: bad class '{alpha}'; use (d1,d2,...) with integer entries\n")


def test_class_bare_or_in_parentheses():
    argv = ["wallcross", "forward"] + WALLCROSS_FILES + ["--alpha"]
    assert run_cli(argv + ["2"]) == run_cli(argv + ["(2)"]) == (0, "4*Z(2)\n")
    states = ["vertex", "--quiver", quiver("a2.quiver"), "--g", "1@e2", "--f"]
    assert run_cli(states + ["1@(1,0)"]) == run_cli(states + ["1@e1"])


@pytest.mark.parametrize("key", ["(2,x)", "((2)", "(2))"])
def test_malformed_class_in_a_table(tmp_path, key):
    table = tmp_path / "table.json"
    table.write_text(f'{{"(1)": "Z(1)", "{key}": "Z(2)"}}', encoding="utf-8")
    argv = ["wallcross", "invert", "--stability", os.path.join(DATA, "stability.json"),
            "--table", str(table), "--k", "k1"]
    assert run_cli_error(argv) == (
        1, f"error: bad class '{key}'; use (d1,d2,...) with integer entries\n")


def test_wallcross_class_of_another_length():
    argv = ["wallcross", "forward"] + WALLCROSS_FILES + ["--alpha", "(2,5)"]
    assert run_cli_error(argv) == (
        1, "error: class (2, 5) has 2 entries, but the stability data has 1 vertex\n")


def test_wallcross_class_with_a_negative_entry():
    argv = ["wallcross", "forward"] + WALLCROSS_FILES + ["--alpha", "(-2)"]
    assert run_cli_error(argv) == (1, "error: class (-2,) has a negative entry\n")


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in GOLDEN_CASES:
        code, out = run_cli(argv)
        assert code == 0, (name, code)
        with open(os.path.join(GOLDEN, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(out)
        print(f"wrote {name}: {out.splitlines()[0] if out else '(empty)'}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    regenerate()


# sizes at which every suite runs in well under a second
SMALL_SUITE_ARGS = {
    "residue-constraints": ["--nmax", "2", "--kmax", "2"],
    "residue-oracle": ["--count", "3"],
    "diagonal-expansion": ["--order", "2"],
    "vertex-axioms": ["--count", "1"],
    "reduced": ["--count", "1"],
    "conner-floyd": ["--count", "2"],
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_through_the_cli(name, suite_seed):
    code, out = run_cli(["suite", name, "--seed", str(suite_seed)]
                        + SMALL_SUITE_ARGS.get(name, []))
    last = out.strip().splitlines()[-1]
    n = len(out.strip().splitlines()) - 1
    assert (code, last) == (0, f"PASS {n}/{n}"), out


def test_unknown_suite_exits_one():
    code, err = run_cli_error(["suite", "no-such-suite"])
    assert code == 1
    assert err.startswith("error: unknown suite 'no-such-suite'")


@pytest.mark.parametrize("point", ["zero", "infinity", "one"])
def test_expand_divides_by_z_free_content(point):
    # 1/((1-t)(1-z)) has the z-free content 1 - t, which cmd_expand divides out
    code, out = run_cli(["expand", "1/((1-t)*(1-z))", "--point", point, "--order", "3"])
    f, content = parse_rational("1/((1-t)*(1-z))", "z")
    assert content == LP_ONE - LaurentPoly.var("t")
    got = expand_at(f, point, 3) * PolyFraction(LP_ONE, content)
    ref = expand_at(parse_rational("1/(1-z)", "z")[0], point, 3)
    over = PolyFraction.of(LP_ONE - LaurentPoly.var("t"))
    assert set(got.coeffs) == set(ref.coeffs) and got.trunc == ref.trunc
    for k, c in ref.coeffs.items():
        assert got.coeffs[k] == PolyFraction.of(c) / over
    assert (code, out) == (0, f"{got}\n")
    if point == "zero":
        assert out == ("((1)/(1 - t)) + ((1)/(1 - t))*z + ((1)/(1 - t))*z^2 + O(z^3)\n")


@pytest.mark.parametrize("argv", [["residue", "--kind", "k", "3^100000000"],
                                  ["residue", "2^-1073741824"],
                                  ["expand", "(1/3)^-100000000/(1-z)", "--point", "zero",
                                   "--order", "2"]])
def test_large_constant_power_exits_cleanly(argv):
    t0 = time.perf_counter()
    code, err = run_cli_error(argv)
    assert time.perf_counter() - t0 < 1
    assert code == 1 and err.startswith("error: constant power too large"), err
