import random
import time
from fractions import Fraction

import pytest

from kvertex.exprparse import (Bin, EvalError, Neg, Num, ParseError, Pow, Var,
                               _recognize_factor, parse_expr, parse_laurent, parse_rational)
from kvertex.laurent import LP_ONE, MAX_EXPONENT, MONO_ONE, LaurentPoly, Monomial, PolyFraction
from kvertex.scalars import scalar_inv
from kvertex.series import RationalFunction


def test_direct_factor_parse():
    f, content = parse_rational("1/((1-z)*(1-t*z))")
    assert content == LP_ONE
    ref = RationalFunction("z", LP_ONE,
                           [(0, Monomial(()), 1, 1), (0, Monomial.var("t"), 1, 1)])
    assert f == ref


def test_power_factor():
    f, _ = parse_rational("z^2/(1-z)^3")
    ref = RationalFunction("z", LaurentPoly.var("z", 2), [(0, Monomial(()), 1, 3)])
    assert f == ref


def test_factor_recognised_once_per_power(monkeypatch):
    from kvertex import exprparse
    calls = []
    recognize = exprparse._recognize_factor

    def counting(g, var):
        calls.append(g)
        return recognize(g, var)

    monkeypatch.setattr(exprparse, "_recognize_factor", counting)
    f, content = parse_rational("1/(1-z)^50")
    assert len(calls) == 1
    assert content == LP_ONE
    assert f == RationalFunction("z", LP_ONE, [(0, MONO_ONE, 1, 50)])


def test_z_free_denominator_is_content():
    x = LaurentPoly.var("x")
    f, content = parse_rational("1/(1-x)")
    assert f.is_poly() and f.num == LP_ONE
    assert content == LP_ONE - x
    f, content = parse_rational("1/(1-x) + 1/(1-z)")
    assert content == LP_ONE - x
    assert f == RationalFunction("z", 2 - x - LaurentPoly.var("z"), [(0, MONO_ONE, 1, 1)])
    f, content = parse_rational("(1/(1-x))^2")
    assert f.is_poly() and f.num == LP_ONE
    assert content == (LP_ONE - x) ** 2
    f, content = parse_rational("(1/(1-x))^-1")
    assert f.is_poly() and f.num == LP_ONE - x
    assert content == LP_ONE


def test_z_free_content_with_pole():
    f, content = parse_rational("1/((1-x)*(1-z))")
    assert content == LP_ONE - LaurentPoly.var("x")
    assert list(f.den) == [(Fraction(0), Monomial(()), 1)]


def test_rejects_nonfactorable_z_denominator():
    with pytest.raises(EvalError):
        parse_rational("1/(1-x-z)")


def test_negative_z_exponent_factor():
    f, _ = parse_rational("1/(1-s*z^-1)")
    # normalized to a positive-exponent factor with flipped character
    assert list(f.den) == [(Fraction(0), Monomial.var("s", -1), 1)]


def test_plus_sign_factor():
    f, _ = parse_rational("1/(1+z)")
    assert list(f.den) == [(Fraction(1, 2), Monomial(()), 1)]


def test_fractional_exponent():
    p = parse_laurent("t^(1/2)*t^(1/2)")
    assert p == LaurentPoly.var("t")


def test_subscripted_names():
    p = parse_laurent("s_{1,2}^2*s_{2,1}^-1")
    assert p == LaurentPoly.var("s_{1,2}", 2) * LaurentPoly.var("s_{2,1}", -1)


def test_precedence():
    assert parse_laurent("-z^2") == -1 * LaurentPoly.var("z", 2)
    assert parse_laurent("2*z+3*t") == 2 * LaurentPoly.var("z") + 3 * LaurentPoly.var("t")
    assert parse_laurent("2-3-4") == LaurentPoly.scalar(-5)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_expr("2z")


def test_position_annotated_errors():
    with pytest.raises(ParseError) as exc:
        parse_expr("1/((1-z)")
    assert exc.value.pos == 8
    with pytest.raises(ParseError) as exc:
        parse_expr("1 + @")
    assert exc.value.pos == 4


def test_scalar_division():
    assert parse_laurent("3/4") == LaurentPoly.scalar(Fraction(3, 4))
    assert parse_laurent("1/t") == LaurentPoly.var("t", -1)
    with pytest.raises(EvalError):
        parse_laurent("1/(1-z)")


def test_parse_print_roundtrip_on_canonical_forms():
    polys = [
        LaurentPoly.var("s_{1,1}", -1) * LaurentPoly.var("t_{2,1}") + 2,
        3 * LaurentPoly.var("t", Fraction(1, 2)) - LaurentPoly.scalar(Fraction(5, 3)),
        LaurentPoly.var("z", -2) - LaurentPoly.var("z", 3),
    ]
    for p in polys:
        assert parse_laurent(str(p)) == p
    rf = RationalFunction("z", LaurentPoly.var("z", 2) + 1,
                          [(0, Monomial(()), 1, 2), (0, Monomial.var("t"), 1, 1)])
    reparsed, content = parse_rational(str(rf))
    assert content == LP_ONE and reparsed == rf


def _oracle(ast):
    """Evaluate an AST as one PolyFraction, with z an ordinary variable."""
    if isinstance(ast, Num):
        return PolyFraction.of(ast.value)
    if isinstance(ast, Var):
        return PolyFraction.of(LaurentPoly.var(ast.name))
    if isinstance(ast, Neg):
        return -_oracle(ast.arg)
    if isinstance(ast, Pow):
        base = _oracle(ast.base)
        if ast.exp.denominator == 1:
            return base ** ast.exp.numerator
        _c, m = base.as_poly().as_unit()  # the atoms raise only variables to (p/q)
        return PolyFraction.of(LaurentPoly.term(1, m ** ast.exp))
    left, right = _oracle(ast.left), _oracle(ast.right)
    if ast.op == "+":
        return left + right
    if ast.op == "-":
        return left - right
    if ast.op == "*":
        return left * right
    return left / right


_ATOMS = ["(1-t*z)^2", "(1-x)", "z^-1", "t^(1/2)", "(1-s*z^-1)", "z", "2", "(1+z)",
          "(1-z^2)", "(1-x*z^3)", "(t-t)", "3/4", "(1+s*z)^3", "(1-x)^-2", "(1-z)^-1"]


def _random_expr(rnd, depth):
    if depth == 0 or rnd.random() < 0.3:
        return rnd.choice(_ATOMS)
    text = f"{_random_expr(rnd, depth - 1)}{rnd.choice('+-*/')}{_random_expr(rnd, depth - 1)}"
    if rnd.random() < 0.2:
        return f"({text})^{rnd.choice(['2', '-1', '0'])}"
    return f"({text})" if rnd.random() < 0.5 else text


def test_evaluator_matches_polyfraction_oracle():
    """Every parsed value equals the plain PolyFraction value of its AST, and
    the parser reports division by zero only where the oracle divides by
    zero."""
    rnd = random.Random(5)
    parsed = 0
    for _ in range(400):
        text = _random_expr(rnd, 3)
        try:
            expected = _oracle(parse_expr(text))
        except ZeroDivisionError:
            expected = None
        try:
            f, content = parse_rational(text)
        except EvalError as exc:
            if str(exc) == "division by zero":
                assert expected is None, text
            continue
        assert expected is not None, text
        assert PolyFraction(f.num, f.den_poly() * content) == expected, text
        parsed += 1
    assert parsed > 250


# -- the evaluator against the one it replaced --------------------------------
#
# A copy of the evaluator that built a RationalFunction at every AST node
# (frozen-dataclass nodes, Fraction exponents).  The one-pass evaluator must
# give the same printed function and content, exponent denominators and
# factor order, or the same exception.  Only the term order of a two-term
# polynomial under ^-1 may differ: the reference takes its ** 1.


def _ref_scaled(f, c):
    return f if c == LP_ONE else f * c


def _ref_mul(val, other):
    (f, c), (g, d) = val, other
    return f * g, _ref_scaled(c, d)


def _ref_nonzero(val):
    if val[0].is_zero():
        raise EvalError("division by zero")
    return val


def _ref_divide(val, g):
    f, content = val
    if g.is_zero():
        raise EvalError("division by zero")
    unit = g.as_unit()
    if unit is not None:
        c, m = unit
        return f * LaurentPoly.term(scalar_inv(c), m.inv()), content
    if list(g.split_var(f.var)) == [0]:
        return f, _ref_scaled(content, g)
    fact = _recognize_factor(g, f.var)
    if fact is None:
        raise EvalError(
            f"denominator {g} is not a monomial, {f.var}-free content, "
            f"or of the form (1 - c*{f.var}^n)")
    (angle, mono, n), unit_c, unit_m = fact
    num = f.num * LaurentPoly.term(scalar_inv(unit_c), unit_m.inv())
    return RationalFunction(f.var, num, f.factors() + [(angle, mono, n, 1)]), content


def _ref_power(val, e):
    f, content = val
    if e.denominator != 1:
        unit = f.num.as_unit()
        if unit is None or f.den or not (content == LP_ONE):
            raise EvalError("fractional powers apply to monomials only")
        c, m = unit
        if not (c == 1):
            raise EvalError("fractional powers apply to monomials with coefficient 1")
        return RationalFunction(f.var, LaurentPoly.term(1, m ** e)), LP_ONE
    k = e.numerator
    if k >= 0:
        return (RationalFunction(f.var, f.num ** k,
                                 [(a, m, n, ee * k) for (a, m, n), ee in f.den.items()]),
                content ** k)
    inv = _ref_divide((RationalFunction(f.var, _ref_scaled(f.den_poly(), content)), LP_ONE), f.num)
    return _ref_power(inv, Fraction(-k))


def _ref_evaluate(ast, var):
    if isinstance(ast, Num):
        return RationalFunction(var, LaurentPoly.scalar(ast.value)), LP_ONE
    if isinstance(ast, Var):
        return RationalFunction(var, LaurentPoly.var(ast.name)), LP_ONE
    if isinstance(ast, Neg):
        f, content = _ref_evaluate(ast.arg, var)
        return -f, content
    if isinstance(ast, Pow):
        return _ref_power(_ref_evaluate(ast.base, var), Fraction(ast.exp))
    f, c = _ref_evaluate(ast.left, var)
    if ast.op == "/":
        return _ref_divide_ast((f, c), ast.right, var)
    g, d = _ref_evaluate(ast.right, var)
    if ast.op == "*":
        return _ref_mul((f, c), (g, d))
    if ast.op == "+":
        return _ref_scaled(f, d) + _ref_scaled(g, c), _ref_scaled(c, d)
    return _ref_scaled(f, d) - _ref_scaled(g, c), _ref_scaled(c, d)


def _ref_divide_ast(val, ast, var):
    if isinstance(ast, Pow) and Fraction(ast.exp).denominator == 1:
        k = int(ast.exp)
        if k == 1:
            return _ref_divide_ast(val, ast.base, var)
        if k > 1:
            q = _ref_divide_ast((RationalFunction(var, LP_ONE), LP_ONE), ast.base, var)
            return _ref_mul(val, _ref_power(q, Fraction(k)))
        return _ref_mul(val, _ref_nonzero(_ref_power(_ref_evaluate(ast.base, var), Fraction(-k))))
    if isinstance(ast, Bin) and ast.op == "*":
        return _ref_divide_ast(_ref_divide_ast(val, ast.left, var), ast.right, var)
    if isinstance(ast, Bin) and ast.op == "/":
        return _ref_mul(_ref_divide_ast(val, ast.left, var), _ref_nonzero(_ref_evaluate(ast.right, var)))
    if isinstance(ast, Neg):
        f, c = _ref_divide_ast(val, ast.arg, var)
        return -f, c
    g, d = _ref_evaluate(ast, var)
    return _ref_divide((_ref_scaled(val[0], _ref_scaled(g.den_poly(), d)), val[1]), g.num)


def _outcome(evaluate, text):
    """What a user of parse_rational sees of text, or the exception."""
    try:
        f, content = evaluate(text)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return repr(f), str(content), f.num.exp_den, content.exp_den, list(f.den)


_CLI_FACTORS = ["(1-z)", "(1-t*z)", "(1-z^2)", "(1-t^2*z)", "(1-z^3)", "(1-s*z)"]


def _cli_expr(rnd):
    """An expression of the `cli` benchmark workload's shape."""
    num = " + ".join(f"{rnd.choice([1, 2, 3, -1])}*z^{rnd.randint(0, 4)}"
                     for _ in range(rnd.randint(1, 3)))
    dens = [f"{d}^{rnd.randint(1, 2)}" for d in rnd.sample(_CLI_FACTORS, rnd.randint(1, 3))]
    return f"({num})/(" + "*".join(dens) + ")"


_DIFF_ATOMS = ["0", "1", "2", "3", "z", "t", "x", "s_{1,1}", "t^(1/2)", "z^-1", "z^(1/2)",
               "(1-z)", "(1+z)", "(1-t*z)", "(1-z^2)", "(1-x)", "(2-2*z)", "(z-1)", "(1-x*z^3)",
               "(1-s*z^-1)", "(1-z-x)", "(t-t)", "(1-t^(1/2))", "(2*x-4)", "(1-z^3)^2", "3/4",
               f"z^{MAX_EXPONENT}", f"t^-{MAX_EXPONENT + 1}"]
_DIFF_EXPONENTS = ["-3", "-2", "-1", "0", "1", "2", "3", "(1/2)", "(-1/2)", "(4/2)"]


def _diff_expr(rnd, depth):
    if depth == 0 or rnd.random() < 0.25:
        return rnd.choice(_DIFF_ATOMS)
    a = _diff_expr(rnd, depth - 1)
    x = rnd.random()
    if x < 0.1:
        return f"-{a}"
    if x < 0.3:
        return f"({a})^{rnd.choice(_DIFF_EXPONENTS)}"
    b = _diff_expr(rnd, depth - 1)
    if x < 0.4:
        return f"{a}/({b}/{_diff_expr(rnd, depth - 1)})"
    if x < 0.5:
        return f"{a}/({rnd.choice(_DIFF_ATOMS)})^{rnd.choice(['-1', '-2', '0'])}"
    text = f"{a}{rnd.choice('+-*//')}{b}"
    return f"({text})" if rnd.random() < 0.5 else text


def test_one_pass_evaluator_matches_the_per_node_evaluator():
    rnd = random.Random(31)
    texts = ["1/(z/0)", "0^-1", "1/(1/0)^0", "(1-z)^-1", "(1/(1-x))^-2", "1/(1-z)^0",
             "s_{1,1}^-1*s_{1,2}^2", f"z^{MAX_EXPONENT}*z", f"(z^{MAX_EXPONENT})^-1",
             f"x^{MAX_EXPONENT + 1}", f"1/(1-x^{MAX_EXPONENT + 1}*z)", f"(t^-{MAX_EXPONENT + 1})^-1",
             f"1/(1-z^{MAX_EXPONENT})^2", f"(t^(1/2))^{MAX_EXPONENT}"]
    texts += [_cli_expr(rnd) for _ in range(600)]
    texts += [_diff_expr(rnd, 3) for _ in range(2000)]
    errors = 0
    for text in texts:
        new = _outcome(parse_rational, text)
        ref = _outcome(lambda t: _ref_evaluate(parse_expr(t), "z"), text)
        errors += isinstance(ref[0], type)
        assert new == ref, text
    assert 400 < errors < len(texts) - 1500


def test_large_constant_power_is_refused_before_it_is_computed():
    for text in ("2^-1073741824", "1/(3/2)^100000000", "(1-z)*5^1048576"):
        t0 = time.perf_counter()
        with pytest.raises(OverflowError, match="constant power too large"):
            parse_rational(text)
        assert time.perf_counter() - t0 < 1, text
    # the exponent of 0 or +-1 is not bounded
    assert parse_rational("(-1)^1073741823*1^-1073741824/(1-z)")[0].num == -LP_ONE
