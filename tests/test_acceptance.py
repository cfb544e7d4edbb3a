"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (tolerance zero); the stated wall-clock budgets are
asserted where the criterion carries one.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""
import io
import os
import time
from contextlib import redirect_stdout

from kvertex import suites
from kvertex.cli import main as cli_main


def _report(tag, ok, detail=""):
    line = f"ACCEPT {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run(fn, **kw):
    t0 = time.time()
    cases = fn(**kw)
    elapsed = time.time() - t0
    failures = [(n, d) for n, ok, d in cases if not ok]
    return cases, failures, elapsed


def test_criterion_1_residue_constraint_suite():
    cases, failures, elapsed = _run(suites.suite_residue_constraints, n_max=6, k_max=4)
    ok = not failures and len(cases) == 105 and elapsed < 5.0
    _report("1 residue-constraints (n<=6, k<=4, 105 cases)", ok,
            f"{len(cases)} cases, {elapsed:.2f}s" + (f"; failures {failures[:3]}" if failures else ""))


def test_criterion_2_residue_comparison():
    cases, failures, elapsed = _run(suites.suite_residue_comparison,
                                    max_order=6, max_mult=4)
    _report("2 residue-comparison (roots of order <= 6, m <= 4)", not failures,
            f"{len(cases)} checks, {elapsed:.2f}s")


def test_criterion_3_closed_form_vs_oracle(suite_seed):
    cases, failures, elapsed = _run(suites.suite_residue_oracle,
                                    count=200, seed=suite_seed)
    ok = not failures and len(cases) == 200 and elapsed < 30.0
    _report("3 closed form == definitional oracle (200 seeded)", ok,
            f"{elapsed:.2f}s")


def test_criterion_4_diagonal_expansion_laws():
    cases, failures, elapsed = _run(suites.suite_diagonal_expansion, order=12)
    ok = not failures and elapsed < 30.0
    _report("4 diagonal-expansion laws (|a|<=2, n<=3, order 12)", ok,
            f"{len(cases)} checks, {elapsed:.1f}s" + (f"; failures {failures[:2]}" if failures else ""))


def test_criterion_5_hopf_algebra():
    cases, failures, elapsed = _run(suites.suite_hopf)
    _report("5 divided-power Hopf algebra identities", not failures,
            f"{len(cases)} clauses, {elapsed:.2f}s")


def test_criterion_6_vertex_algebra_axioms(suite_seed):
    cases, failures, elapsed = _run(suites.suite_vertex_axioms,
                                    seed=suite_seed, max_total=4, per_config=20)
    ok = not failures and elapsed < 60.0
    _report("6 vertex-algebra axioms (<=2 vertices, <=2 edges, total <= 4)", ok,
            f"{len(cases)} axiom/config pairs, {elapsed:.1f}s")


def test_criterion_7_reduced_condition(suite_seed):
    cases, failures, elapsed = _run(suites.suite_reduced,
                                    seed=suite_seed, max_total=4, per_config=20)
    _report("7 reduced pole shape of kernel outputs", not failures,
            f"{len(cases)} configs, {elapsed:.1f}s")


def test_criterion_8_lie_bracket():
    cases, failures, elapsed = _run(suites.suite_lie, max_per_arg=2)
    ok = not failures and elapsed < 30.0
    _report("8 residue bracket: antisymmetry, Jacobi, concrete values", ok,
            f"{len(cases)} checks, {elapsed:.1f}s" + (f"; failures {failures}" if failures else ""))


def test_criterion_9_conner_floyd(suite_seed):
    cases, failures, elapsed = _run(suites.suite_conner_floyd,
                                    count=50, seed=suite_seed)
    ok = not failures and elapsed < 30.0
    _report("9 K-theoretic Chern classes: O-stability and duality", ok,
            f"{elapsed:.1f}s")


def test_criterion_10_wallcross_roundtrip():
    cases, failures, elapsed = _run(suites.suite_wallcross_roundtrip)
    ok = not failures and elapsed < 10.0
    _report("10 wall-crossing transform round trip", ok,
            f"{len(cases)} checks, {elapsed:.2f}s")


def test_criterion_11_cli_determinism():
    from test_cli import GOLDEN_CASES, GOLDEN
    ok = True
    detail = ""
    for name, argv in GOLDEN_CASES:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv)
            outs.append((code, buf.getvalue()))
        golden_path = os.path.join(GOLDEN, name + ".txt")
        with open(golden_path, "r", encoding="utf-8") as fh:
            golden = fh.read()
        if not (outs[0] == outs[1] and outs[0][0] == 0 and outs[0][1] == golden):
            ok = False
            detail = f"first mismatch: {name}"
            break
    _report("11 CLI determinism and golden outputs", ok,
            detail or f"{len(GOLDEN_CASES)} invocations, each byte-identical")
