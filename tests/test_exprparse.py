import random
from fractions import Fraction

import pytest

from kvertex.exprparse import (Bin, EvalError, Neg, Num, ParseError, Pow, Var,
                               parse_expr, parse_laurent, parse_rational)
from kvertex.laurent import LP_ONE, MONO_ONE, LaurentPoly, Monomial, PolyFraction
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
