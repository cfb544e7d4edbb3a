import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from kvertex.laurent import MONO_ONE, Monomial
from kvertex.scalars import (RATIONAL, Cyclo, _cyclo, _reduce_mod_cyclo, cyclo_root,
                             cyclotomic_poly, generalized_binomial, root_of_unity, scalar_pow)
from kvertex.series import unit_value


def test_generalized_binomial_values():
    assert generalized_binomial(5, 2) == 10
    assert generalized_binomial(-1, 3) == -1  # (-1)(-2)(-3)/6
    assert generalized_binomial(0, 0) == 1
    with pytest.raises(ValueError):
        generalized_binomial(3, -1)


def test_generalized_binomial_at_a_rational_top():
    # binom(1/2, k) = (1/2)(-1/2)...(1/2 - k + 1)/k!
    assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert generalized_binomial(Fraction(1, 2), 3) == Fraction(1, 16)
    assert generalized_binomial(Fraction(-3, 2), 2) == Fraction(15, 8)
    # an integral Fraction takes the integer route and gives an int
    assert type(generalized_binomial(Fraction(4, 2), 2)) is int


def test_constant_power_bound():
    from kvertex.scalars import MAX_POWER_BITS
    # |k| times the bit length of a constant other than 0 and +-1 is bounded
    assert scalar_pow(2, MAX_POWER_BITS // 2) == 2 ** (MAX_POWER_BITS // 2)
    assert scalar_pow(Fraction(1, 3), -(MAX_POWER_BITS // 2)) == 3 ** (MAX_POWER_BITS // 2)
    for c, k in ((2, MAX_POWER_BITS // 2 + 1), (3, 100000000), (2, -2 ** 30),
                 (Fraction(2, 3), -MAX_POWER_BITS)):
        with pytest.raises(OverflowError, match="constant power too large"):
            scalar_pow(c, k)
    assert (scalar_pow(1, 10 ** 12), scalar_pow(-1, 10 ** 12 + 1), scalar_pow(0, 10 ** 12)) \
        == (1, -1, 0)


def test_generalized_binomial_matches_falling_factorial():
    import math
    for n in range(-6, 7):
        for k in range(0, 6):
            ff = Fraction(1)
            for i in range(k):
                ff *= n - i
            assert generalized_binomial(n, k) == ff / math.factorial(k)


def test_roots_of_unity_basics():
    assert root_of_unity(1, 0) == Fraction(1)
    assert root_of_unity(2, 1) == Fraction(-1)
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == Fraction(-1)
    assert z4 ** 4 == Fraction(1)
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_cyclotomic_relations_up_to_12():
    for n in range(1, 13):
        z = root_of_unity(n, 1)
        assert z ** n == Fraction(1)
        phi = cyclotomic_poly(n)
        val = sum((z ** k) * c for k, c in enumerate(phi))
        assert val == Fraction(0)


def test_inverse_and_division():
    for n in range(2, 13):
        for j in range(1, n):
            z = root_of_unity(n, j)
            if isinstance(z, Cyclo):
                assert z * z.inverse() == Fraction(1)
                assert (Fraction(1) / z) * z == Fraction(1)


def _inverse_by_fractions(x):
    """x.inverse() by the extended Euclid over Fraction coefficient lists
    that the integer remainder sequence replaced."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def polydivmod(a, b):
        a = list(a)
        db = len(b) - 1
        lead = b[db]
        q = [0] * max(1, len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            if a[i]:
                f = Fraction(a[i], lead)
                q[i - db] = f
                for j in range(db + 1):
                    a[i - db + j] -= f * b[j]
        return trim(q), trim(a)

    def polymul(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return trim(out)

    def polysub(a, b):
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] -= c
        return trim(out)

    r0, r1 = list(cyclotomic_poly(x.order)), trim(list(x.num))
    s0, s1 = [], [1]
    while r1:
        q, r = polydivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, polysub(s0, polymul(q, s1))
    assert len(r0) == 1
    scale = Fraction(x.den, r0[0])
    return Cyclo.make(x.order, [c * scale for c in s0])


def _dense_cyclo(rnd, order):
    """A seeded value of order `order` with every coordinate drawn up to
    +-10^9 and a denominator of 1-7."""
    d = len(cyclotomic_poly(order)) - 1
    return _cyclo(order, [rnd.randint(-10 ** 9, 10 ** 9) for _ in range(d)], rnd.randint(1, 7))


def _one_minus_roots(order):
    return [x for x in (1 - root_of_unity(order, j) for j in range(1, order)) if isinstance(x, Cyclo)]


def test_inverse_of_one_minus_a_root_is_the_fraction_euclid_inverse():
    for order in range(3, 61):
        for x in _one_minus_roots(order):
            assert repr(x.inverse()) == repr(_inverse_by_fractions(x)), repr(x)


def test_inverse_of_a_dense_value_is_the_fraction_euclid_inverse():
    """Three seeded dense values per order 3-60.  The Fraction route takes
    seconds per value once deg Phi_N passes about 24, so it is the reference
    up to deg 16 only; the product and the canonical fields, checked at
    every order, fix the repr as well."""
    rnd = random.Random(29)
    for order in range(3, 61):
        for _ in range(3):
            x = _dense_cyclo(rnd, order)
            y = x.inverse()
            assert x * y == 1 and _demoted(x * y), repr(x)
            assert y.order == order and len(y.num) == len(x.num)
            assert y.den > 0 and math.gcd(y.den, *y.num) == 1
            if len(x.num) <= 16:
                assert repr(y) == repr(_inverse_by_fractions(x)), repr(x)


def test_inverse_at_large_orders():
    rnd = random.Random(389)
    for order in (97, 389):
        for j in [1, 2, order // 2, order - 1] + rnd.sample(range(3, order - 1), 4):
            x = 1 - root_of_unity(order, j)
            assert x * x.inverse() == 1, (order, j)
    x = _dense_cyclo(random.Random(97), 97)
    assert x * x.inverse() == 1


def test_powers_and_quotients_agree_with_the_inverse():
    rnd = random.Random(30)
    for order in (3, 5, 8, 12, 21, 35):
        for x in _one_minus_roots(order)[:3] + [_dense_cyclo(rnd, order)]:
            y = x.inverse()
            assert repr(x ** -3) == repr(y * y * y)
            assert repr(7 / x) == repr(y * 7)
            assert repr(Fraction(7, 2) / x) == repr(y * Fraction(7, 2))
            assert repr(x.lift(2 * order) / x) == "1"


def test_inverse_of_a_hand_built_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclo(5, (0, 0, 0, 0), 1).inverse()


def test_mixed_order_arithmetic():
    z2 = root_of_unity(2, 1)      # demotes to -1
    z3 = root_of_unity(3, 1)
    z6 = root_of_unity(6, 1)
    # zeta6 = -zeta3^2
    assert z6 == z2 * z3 * z3
    assert z6 ** 3 == Fraction(-1)
    # embedding commutes with arithmetic at every order
    for n in (2, 3, 4, 6, 12):
        z = root_of_unity(n, 1)
        assert (z + Fraction(1, 2)) - z == Fraction(1, 2)
        assert z * 2 - z == z


def test_rational_demotion():
    # any cyclotomic expression that lands in Z comes back as a plain int
    z5 = root_of_unity(5, 1)
    s = z5 + z5 ** 2 + z5 ** 3 + z5 ** 4
    assert type(s) is int and s == -1


def test_cyclo_root_angles():
    assert cyclo_root(Fraction(0)) == 1
    assert cyclo_root(Fraction(1, 2)) == -1
    assert cyclo_root(Fraction(7, 2)) == -1
    z = cyclo_root(Fraction(1, 3))
    assert z * z == cyclo_root(Fraction(2, 3))


def _root_by_make(order, j):
    """Cyclo.make(order, {j: 1}) as it was before it skipped zero entries:
    the dense list, its lcm and its rescale."""
    lst = [0] * (j + 1)
    lst[j] += 1
    den = math.lcm(*(c.denominator for c in lst))
    lst = [c.numerator * (den // c.denominator) for c in lst]
    return _cyclo(order, _reduce_mod_cyclo(order, lst), den)


def test_root_of_unity_is_the_made_root():
    for order in range(1, 61):
        for j in range(order):
            assert repr(root_of_unity(order, j)) == repr(_root_by_make(order, j)), (order, j)
            assert repr(Cyclo.make(order, {j: 1})) == repr(_root_by_make(order, j)), (order, j)


def test_rational_roots_are_ints():
    # roots of order 1 and 2, and -1 at every even order, are ints
    assert type(root_of_unity(2, 1)) is int and root_of_unity(2, 1) == -1
    assert type(root_of_unity(1, 5)) is int and root_of_unity(1, 5) == 1
    assert type(root_of_unity(2, -4)) is int and root_of_unity(2, -4) == 1
    assert type(root_of_unity(6, -3)) is int and root_of_unity(6, -3) == -1
    for m in (MONO_ONE, Monomial.var("t", 2)):
        (c,) = unit_value(Fraction(0), m).terms.values()
        assert type(c) is int and c == 1
    (c,) = unit_value(Fraction(1, 2), MONO_ONE, 3).terms.values()
    assert type(c) is int and c == -1


def _embed(x) -> complex:
    """The complex value of an exact scalar, which must be an int, a
    Fraction or a canonical Cyclo (never a float)."""
    if isinstance(x, Cyclo):
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
        assert len(x.num) == len(cyclotomic_poly(x.order)) - 1
        assert all(type(c) is int for c in x.num) and any(x.num[1:])
        return sum(c * cmath.exp(2j * cmath.pi * k / x.order)
                   for k, c in enumerate(x.num)) / x.den
    assert isinstance(x, RATIONAL) and not isinstance(x, bool)
    return complex(float(x))


def _demoted(x) -> bool:
    """A result of Cyclo arithmetic: an integral value must be an int."""
    return not (isinstance(x, Fraction) and x.denominator == 1)


def _close(a, b) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _random_cyclo(rnd, order):
    return Cyclo.make(order, {rnd.randrange(2 * order): Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                              for _ in range(rnd.randint(1, 4))})


def test_cyclo_matches_complex_embedding():
    rnd = random.Random(20221207)
    ops = [(lambda x, y: x + y, lambda x, y: x + y),
           (lambda x, y: x - y, lambda x, y: x - y),
           (lambda x, y: x * y, lambda x, y: x * y),
           (lambda x, y: x * Fraction(-3, 2) + y, lambda x, y: x * -1.5 + y)]
    for n in range(1, 31):
        for _ in range(4):
            a, b = _random_cyclo(rnd, n), _random_cyclo(rnd, n)
            c = _random_cyclo(rnd, rnd.randint(1, 30))  # usually another order
            for x, y in ((a, b), (a, c), (c, b)):
                for exact_op, float_op in ops:
                    r = exact_op(x, y)
                    assert _close(_embed(r), float_op(_embed(x), _embed(y)))
                    if isinstance(x, Cyclo) or isinstance(y, Cyclo):
                        assert _demoted(r)
            if isinstance(a, Cyclo):
                ea = _embed(a)
                for r, expect in ((a.inverse(), 1 / ea), (a ** -2, ea ** -2),
                                  (a ** -3, ea ** -3), (a ** 3, ea ** 3), (7 / a, 7 / ea)):
                    assert _demoted(r) and _close(_embed(r), expect)
                assert _close(_embed(a ** -3) * _embed(a ** 3), 1)


@pytest.mark.parametrize("order", [3, 5, 7, 8, 9, 12])
def test_cyclo_arithmetic_against_sympy(order):
    """+, *, inverse and ** against sympy's values at zeta = exp(2 pi i/order).
    sympy writes both sides as rational functions of w, reduces the
    numerator of their difference modulo its own cyclotomic polynomial and
    evaluates it at zeta; an algebraic number is zero iff its minimal
    polynomial is x.  (minimal_polynomial of the unreduced sums of
    exponentials takes seconds per value at orders 7 and 9.)"""
    sympy = pytest.importorskip("sympy")
    x, w = sympy.symbols("x w")
    phi = sympy.cyclotomic_poly(order, w)

    def sym(v):
        if isinstance(v, Cyclo):
            assert v.order == order
            return sum(c * w ** k for k, c in enumerate(v.num)) / sympy.Integer(v.den)
        return sympy.Rational(v.numerator, v.denominator)

    def is_zero(diff):
        num, _den = sympy.fraction(sympy.cancel(diff))
        value = sympy.rem(num, phi, w).subs(w, sympy.exp(2 * sympy.pi * sympy.I / order))
        return sympy.minimal_polynomial(value, x) == x

    rnd = random.Random(order)
    for _ in range(3):
        a = b = 0
        while not isinstance(a, Cyclo) or not isinstance(b, Cyclo):
            a, b = _random_cyclo(rnd, order), _random_cyclo(rnd, order)
        sa, sb = sym(a), sym(b)
        for got, want in ((a + b, sa + sb), (a * b, sa * sb), (a.inverse(), 1 / sa),
                          (a ** 3, sa ** 3), (b ** -2, sb ** -2)):
            assert is_zero(sym(got) - want), (a, b, got)
        assert not is_zero(sym(a * b) - sa * sb - 1)


def _sigma(x, k):
    """sigma_k on any exact scalar: rationals are fixed."""
    return x.conjugate(k) if isinstance(x, Cyclo) else x


def _units(order):
    return [k for k in range(1, 3 * order) if math.gcd(k, order) == 1]


def test_galois_conjugation_is_a_ring_automorphism():
    """sigma_k(x y) = sigma_k(x) sigma_k(y) and sigma_k(x + y) = sigma_k(x) +
    sigma_k(y) on seeded values of orders 3-24, and sigma_k(x) is the
    canonical value sum num[i] zeta^(i k) / den of the same order."""
    rnd = random.Random(13)
    for order in range(3, 25):
        for _ in range(3):
            x, y = _random_cyclo(rnd, order), _random_cyclo(rnd, order)
            for k in rnd.sample(_units(order), 3):
                assert _sigma(x * y, k) == _sigma(x, k) * _sigma(y, k), (x, y, k)
                assert _sigma(x + y, k) == _sigma(x, k) + _sigma(y, k), (x, y, k)
                if isinstance(x, Cyclo):
                    sx = x.conjugate(k)
                    _embed(sx)  # canonical fields
                    expect = Cyclo.make(order, {i * k: Fraction(c, x.den)
                                                for i, c in enumerate(x.num) if c})
                    assert repr(sx) == repr(expect)
                    back = pow(k, -1, order)
                    assert repr(sx.conjugate(back)) == repr(x)


def test_galois_conjugate_of_a_root_of_unity():
    for order in range(3, 25):
        for j in range(order):
            for k in _units(order)[:6]:
                got = _sigma(root_of_unity(order, j), k)
                assert got == root_of_unity(order, j * k)
                assert repr(got) == repr(root_of_unity(order, j * k))


def test_galois_conjugation_commutes_with_lifting():
    rnd = random.Random(7)
    for order in range(3, 13):
        for mult in (2, 3, 5):
            big = order * mult
            for _ in range(2):
                x = _random_cyclo(rnd, order)
                if not isinstance(x, Cyclo):
                    continue
                for k in rnd.sample(_units(big), 3):
                    assert repr(x.lift(big).conjugate(k)) == repr(x.conjugate(k).lift(big))


def _printed_orders(x):
    return {int(d) for d in re.findall(r"zeta(\d+)\^", str(x))}


def _field_values(rnd, d):
    """Seeded values of Q(zeta_d) outside Q: roots of unity and Fraction sums
    of powers of zeta_d."""
    units = [j for j in range(1, d) if math.gcd(j, d) == 1]
    vals = [root_of_unity(d, j) for j in rnd.sample(units, min(2, len(units)))]
    vals += [root_of_unity(d, rnd.randrange(1, d)), _random_cyclo(rnd, d), _random_cyclo(rnd, d)]
    return [v for v in vals if isinstance(v, Cyclo)]


def test_cyclo_text_is_the_same_at_every_lift_order():
    """A value of Q(zeta_d) prints alike at every order N <= 180 that
    stores it, in one order that divides d and is not 2 mod 4."""
    rnd = random.Random(26)
    for d in range(3, 61):
        if d % 4 == 2:
            continue
        for v in _field_values(rnd, d):
            text = str(v)
            (label,) = _printed_orders(v)
            assert d % label == 0 and label % 4 != 2, (repr(v), text)
            for n in range(2 * d, 181, d):
                assert str(v.lift(n)) == text, (repr(v), n)


def test_cyclo_never_prints_an_order_2_mod_4():
    rnd = random.Random(27)
    for n in range(3, 181):
        for _ in range(3):
            x = _random_cyclo(rnd, n)
            if isinstance(x, Cyclo):
                assert all(n % d == 0 and d % 4 != 2 for d in _printed_orders(x)), (repr(x), str(x))
    assert str(Cyclo.make(6, {1: 1})) == "1 + zeta3^1"
    assert str(Cyclo.make(10, {1: 1})) == "-zeta5^3"
    assert str(Cyclo.make(12, {4: 1})) == "zeta3^1"


def test_printed_coefficients_against_sympy():
    """The printed zeta_d coefficients, with zeta_d = w^(N/d), equal the
    stored value sum num[k] w^k / den modulo Phi_N(w), w = zeta_N."""
    sympy = pytest.importorskip("sympy")
    w, zeta = sympy.symbols("w zeta")
    rnd = random.Random(28)
    for d in range(3, 61):
        if d % 4 == 2:
            continue
        for v in _field_values(rnd, d)[-2:]:
            x = v.lift(d * rnd.randint(1, 180 // d))
            (label,) = _printed_orders(x)
            text = str(x).replace(f"zeta{label}^", "zeta**")
            printed = sympy.sympify(text, locals={"zeta": zeta})
            stored = sum(c * w ** k for k, c in enumerate(x.num)) / sympy.Integer(x.den)
            diff = sympy.expand(printed.subs(zeta, w ** (x.order // label)) - stored)
            assert sympy.rem(diff, sympy.cyclotomic_poly(x.order, w), w) == 0, (repr(x), str(x))
