from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvertex.laurent import (LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial,
                             PolyFraction, laurent_exact_div, symmetrize)
from kvertex.scalars import Cyclo, root_of_unity

s = LaurentPoly.var("s")
t = LaurentPoly.var("t")
z = LaurentPoly.var("z")
half = LaurentPoly.var("s", Fraction(1, 2))


def test_poly_arith_examples():
    assert (s + t) + (-1 * s) == t
    assert (1 - z) * (1 + z) == 1 - z * z
    assert half * half == s
    with pytest.raises(TypeError):
        s / t


coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=-2, max_value=2)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = []
    for _ in range(n):
        mono = {}
        for v in ("s", "t"):
            e = draw(exps)
            if e:
                mono[v] = e
        terms.append((Monomial.make(mono), Fraction(draw(coeffs))))
    return LaurentPoly.from_terms(terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
@example(s + t, -1 * s, t)
@example(1 - z, 1 + z, z)
@example(half, half, s)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + LP_ZERO == a
    assert a * LP_ONE == a


def _scalars(p):
    """Every scalar stored in p, cyclotomic vectors and denominators included."""
    for c in p.terms.values():
        if isinstance(c, Cyclo):
            yield from c.num
            yield c.den
        else:
            yield c


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), coeffs)
def test_integer_coefficients_stay_int(a, b, k):
    # polys() feeds integral Fractions: the constructors demote them
    for p in (a, b, a + b, a - b, a * b, -a, a * k, k * b, a * Fraction(k), b ** 2,
              a * Fraction(4, 2), LaurentPoly.scalar(Fraction(k)), a * LaurentPoly.var("s")):
        assert all(type(c) is int for c in p.terms.values())
    for p in (a * Fraction(1, 2), a * root_of_unity(3, 1) + b, (a + b) * Fraction(k, 3) * b):
        assert not any(isinstance(c, float) for c in _scalars(p))


def test_monomial_canonical_form():
    m = Monomial.make({"s": Fraction(2, 2), "t": 0})
    assert m == Monomial.var("s")
    assert str(Monomial.var("t", Fraction(1, 2))) == "t^(1/2)"
    # a product of fractional exponents can leave an integral Fraction
    assert str(Monomial.var("t", Fraction(1, 2)) * Monomial.var("t", Fraction(3, 2))) == "t^2"
    assert str(Monomial.var("t", Fraction(1, 2)) * Monomial.var("t", Fraction(-3, 2))) == "t^-1"
    assert (Monomial.var("s") * Monomial.var("s", -1)).is_one()
    a = Monomial.make({"s": 2, "t": -1})
    assert a * Monomial.make({"s": -2, "u": 1}) == Monomial.make({"t": -1, "u": 1})
    assert MONO_ONE * a == a
    assert (a * Monomial.make({"s": -2, "t": 1})).is_one()


def test_symmetrize_examples():
    p = LaurentPoly.var("s1")
    assert symmetrize(p, [["s1", "s2"]]) == LaurentPoly.var("s1") + LaurentPoly.var("s2")
    p2 = z * LaurentPoly.var("s1") * LaurentPoly.var("s2")
    assert symmetrize(p2, [["s1", "s2"]]) == 2 * p2
    sym = symmetrize(LaurentPoly.var("s1", 2) * LaurentPoly.var("s2", -1), [["s1", "s2"]])
    assert symmetrize(sym, [["s1", "s2"]], "averaged") == sym


def test_symmetrize_averaged_idempotent():
    p = LaurentPoly.var("s1", 2) + 3 * LaurentPoly.var("s2") * t
    once = symmetrize(p, [["s1", "s2"]], "averaged")
    assert symmetrize(once, [["s1", "s2"]], "averaged") == once


def test_symmetrize_rejects_overlapping_blocks():
    with pytest.raises(ValueError):
        symmetrize(s, [["s", "t"], ["t"]])


def test_symmetrize_multi_block():
    p = LaurentPoly.var("a1") * LaurentPoly.var("b1")
    out = symmetrize(p, [["a1", "a2"], ["b1", "b2"]])
    expect = sum((LaurentPoly.var(a) * LaurentPoly.var(b)
                  for a in ("a1", "a2") for b in ("b1", "b2")), LP_ZERO)
    assert out == expect


def test_exact_division():
    f = (1 - t) * (1 - s) * (1 - s)
    assert laurent_exact_div(f, 1 - s) == (1 - t) * (1 - s)
    assert laurent_exact_div(f, LP_ONE - t) == (1 - s) * (1 - s)
    assert laurent_exact_div(1 - t, 1 - s) is None
    assert laurent_exact_div(s - t * s, LP_ONE - t) == s
    assert laurent_exact_div((1 - half) * (1 + half), LP_ONE - half) == 1 + half


def test_poly_fraction_equality_and_collapse():
    fr = PolyFraction(s - s * t, LP_ONE - t)
    assert fr == PolyFraction.of(s)
    assert fr.as_poly() == s
    fr2 = PolyFraction(LP_ONE, LP_ONE - t)
    assert fr2.as_poly() is None
    assert (fr2 * (LP_ONE - t)).as_poly() == LP_ONE
    assert (fr2 - fr2).is_zero()
    with pytest.raises(ZeroDivisionError):
        PolyFraction(s, LP_ZERO)


def test_poly_fraction_field_ops():
    a = PolyFraction(LP_ONE, LP_ONE - t)
    b = PolyFraction(-1 * t, LP_ONE - t)
    assert a + b == PolyFraction.of(LP_ONE)
    assert (a * b).inv() == PolyFraction((LP_ONE - t) ** 2, -1 * t)
    assert a ** 2 == PolyFraction(LP_ONE, (LP_ONE - t) ** 2)
