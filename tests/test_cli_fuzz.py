"""Hypothesis fuzz of the expression verbs of the command line: every input,
well-formed or not, ends in exit code 0, 1 or 2 without a traceback.

Kept apart from test_cli.py: perfbench/workloads.py executes that file to
read its GOLDEN_CASES, and the `cli` workload should not import hypothesis."""
import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvertex.cli import main

# Well-formed expressions are fully parenthesized, so that a deleted or
# replaced character never joins two numbers into a larger exponent; every
# exponent is at most 12 in size and powers nest at most twice, which keeps
# each case bounded.  Malformed inputs come from one edit of a well-formed
# expression, or are short free text.

_CHARS = ["z", "t", "s", "x", "u", "t^(1/2)", "s_{1,1}", "s*t^-1", "z^-1"]
_ATOMS = st.one_of(st.sampled_from(_CHARS), st.integers(-5, 5).map(str),
                   st.builds("(1 - {}*z^{})".format, st.sampled_from(["1", "t", "s", "x", "-1", "2"]),
                             st.sampled_from([1, 2, 3, -1, -2])))


def _combine(sub):
    binop = st.builds("({}) {} ({})".format, sub, st.sampled_from("+-*/"), sub)
    power = st.builds("({})^{}".format, sub, st.integers(-3, 12))
    return st.one_of(sub, binop, power, st.builds("-({})".format, sub))


_WELL_FORMED = _combine(_combine(_ATOMS))
_JUNK = "()^*/+-{}_,@.~ zt\x00\u00e9"


@st.composite
def _edited(draw):
    text = draw(_WELL_FORMED)
    i = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(_JUNK))
    how = draw(st.sampled_from(["delete", "insert", "replace"]))
    if how == "delete":
        return text[:i] + text[i + 1:]
    if how == "insert":
        return text[:i] + ch + text[i:]
    return text[:i] + ch + text[i + 1:]


_EXPRESSIONS = st.one_of(_WELL_FORMED, _edited(),
                         st.text(alphabet="zt()^*/+-0123_{},", max_size=8))
_COMMANDS = st.one_of(
    st.builds(lambda kind, e: ["residue", "--kind", kind, "--", e],
              st.sampled_from(["k", "naive", "coh"]), _EXPRESSIONS),
    st.builds(lambda point, order, e: ["expand", "--point", point, "--order", str(order), "--", e],
              st.sampled_from(["zero", "infinity", "one"]), st.integers(0, 6), _EXPRESSIONS),
    st.builds(lambda e: ["pfrac", "--", e], _EXPRESSIONS))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_COMMANDS)
def test_fuzzed_expressions_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code:
        assert err.getvalue(), argv
    else:
        assert out.getvalue(), argv
