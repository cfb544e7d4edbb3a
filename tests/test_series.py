import os
import random
from fractions import Fraction
from itertools import islice

import pytest

from kvertex.exprparse import parse_rational
from kvertex.laurent import LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial, PolyFraction
from kvertex.residues import residue_k
from kvertex.scalars import Cyclo, cyclo_root, generalized_binomial, scalar_inv, scalar_pow
from kvertex.series import (FormalSeries, RationalFunction, USeries, _inverted, _powers, _ser_mul,
                            _times, _u_digits, expand_at, partial_fractions, unit_value)
from kvertex.suites import random_rational

Z = LaurentPoly.var("z")
T = Monomial.var("t")


def series_of_poly(p, var, point, order):
    """View a Laurent polynomial in var as a truncated series at the point."""
    return expand_at(RationalFunction.from_poly(p, var), point, order)


def one_over(angle, mono=MONO_ONE, n=1, e=1):
    return RationalFunction("z", LP_ONE, [(angle, mono, n, e)])


def test_expand_at_zero_geometric():
    ser = expand_at(one_over(0), "zero", 3)
    assert [ser.coeff(k) for k in range(3)] == [1, 1, 1]
    assert str(ser) == "1 + z + z^2 + O(z^3)"


def test_expand_at_infinity():
    ser = expand_at(one_over(0), "infinity", 3)
    # 1/(1-z) = -z^-1/(1 - z^-1) = -z^-1 - z^-2 - ...
    assert ser.valuation() == 1
    assert [ser.coeff(k) for k in range(1, 4)] == [-1, -1, -1]
    # positive powers of z print as z, z^2, ...
    f = RationalFunction("z", 2 + Z ** 3, [(0, T, 1, 2)])
    assert str(expand_at(f, "infinity", 5)) == (
        "t^-2*z + 2*t^-3 + 3*t^-4*z^-1 + (4*t^-5 + 2*t^-2)*z^-2"
        " + (5*t^-6 + 4*t^-3)*z^-3 + O(z^-4)")
    assert str(expand_at(f, "infinity", 1)) == "t^-2*z + O(1)"
    assert str(expand_at(f * Z, "infinity", 1)) == "t^-2*z^2 + O(z)"


def _expand_at_infinity_termwise(f, order):
    """The expansion at infinity built factor by factor in z^-1, as
    expand_at did before it expanded f(z^-1) at zero:
    1/(1 - u z^n)^e = (-1)^e u^-e z^-ne sum_j binom(e-1+j, e-1) u^-j z^-nj."""
    num_split = f.num.split_var(f.var)
    v0 = f.total_pole_mult() - max(num_split)
    tbound = v0 + order
    ser = {-k: p for k, p in num_split.items()}
    for (a, m, n), e in f.den.items():
        fac = {}
        j = 0
        while n * j < order:
            fac[n * (e + j)] = unit_value(a, m, -(e + j)) * \
                ((-1) ** e * generalized_binomial(e - 1 + j, e - 1))
            j += 1
        ser = _ser_mul(ser, fac, tbound)
    return FormalSeries("infinity", f.var, {k: c for k, c in ser.items() if k < tbound}, tbound)


def _infinity_inputs(seed):
    rnd = random.Random(seed)
    out = [random_rational(rnd) for _ in range(300)]
    # angles 1/2 and 1/3, a half-integral character, several numerator terms
    chars = [MONO_ONE, T, Monomial.var("t", Fraction(1, 2)), Monomial.var("s") * T.inv()]
    for _ in range(60):
        factors = [(rnd.choice([0, Fraction(1, 2), Fraction(1, 3)]), c, rnd.randint(1, 3),
                    rnd.randint(1, 3)) for c in rnd.sample(chars, rnd.randint(1, 3))]
        num = LaurentPoly.from_terms(
            (Monomial.var("z", rnd.randint(-3, 3)) * rnd.choice([MONO_ONE, T, T.inv()]),
             rnd.choice([1, -2, Fraction(1, 2)])) for _i in range(rnd.randint(1, 3)))
        out.append(RationalFunction("z", num, factors))
    return [f for f in out if not f.is_zero()]


def test_expansion_at_infinity_is_the_termwise_one(suite_seed):
    # same text, so the same coefficients, labels and truncation
    for f in _infinity_inputs(suite_seed):
        for order in (1, 4, 9):
            assert str(expand_at(f, "infinity", order)) == \
                str(_expand_at_infinity_termwise(f, order)), (str(f), order)


@pytest.mark.parametrize("angles", [(Fraction(1, 6),), (Fraction(1, 8), Fraction(3, 8)),
                                    (Fraction(1, 4), Fraction(1, 3))])
def test_expansion_at_infinity_is_the_termwise_text_at_composite_orders(angles):
    # the prefactor c^-e of f(z^-1) may lift a root to a multiple of its
    # order; a Cyclo prints in its conductor, so the text is the termwise one
    chars = [T, T ** 2, Monomial.var("s")]
    for e in (1, 2, 3):
        f = RationalFunction("z", 1 + Z ** 2,
                             [(a, c, 1 + i % 2, e) for i, (a, c) in enumerate(zip(angles, chars))])
        for order in (1, 4, 9):
            assert str(expand_at(f, "infinity", order)) == \
                str(_expand_at_infinity_termwise(f, order)), (str(f), order)


def _expansion_by_binomial_convolution(f, point, order):
    """expand_at at zero or infinity as it was before the recurrence: each
    factor's binomial series sum_j binom(e-1+j, e-1) c^j z^(nj), multiplied
    in by _ser_mul below tbound."""
    g = _inverted(f) if point == "infinity" else f
    num_split = g.num.split_var(g.var)
    v0 = min(num_split)
    tbound = v0 + order
    ser = {k: p for k, p in num_split.items() if k < tbound}
    for (a, m, n), e in g.den.items():
        fac = {}
        j = 0
        while n * j < order:
            fac[n * j] = unit_value(a, m, j) * generalized_binomial(e - 1 + j, e - 1)
            j += 1
        ser = _ser_mul(ser, fac, tbound)
    return FormalSeries(point, f.var, ser, tbound)


def _recurrence_inputs(seed):
    rnd = random.Random(seed + 41)
    angles = sorted({Fraction(p, q) for q in range(1, 9) for p in range(q)})
    chars = [MONO_ONE, T, T ** 2, Monomial.var("t", Fraction(1, 2)), Monomial.var("s") * T.inv()]
    out = []
    for _ in range(50):
        factors = [(rnd.choice(angles), rnd.choice(chars), rnd.choice([-3, -2, -1, 1, 2, 3]),
                    rnd.randint(1, 3)) for _i in range(rnd.randint(1, 3))]
        # z-powers from below zero to past the truncation of small orders
        num = LaurentPoly.from_terms(
            (Monomial.var("z", rnd.randint(-6, 14)) * rnd.choice(chars),
             rnd.choice([1, -1, 3, Fraction(-1, 2), cyclo_root(Fraction(1, 5))]))
            for _i in range(rnd.randint(1, 4)))
        if not num.is_zero():
            out.append(RationalFunction("z", num, factors))
    return out


def test_expand_at_zero_and_infinity_match_the_binomial_convolution(suite_seed):
    for f in _recurrence_inputs(suite_seed):
        for point in ("zero", "infinity"):
            for order in range(1, 13):
                assert str(expand_at(f, point, order)) == \
                    str(_expansion_by_binomial_convolution(f, point, order)), (str(f), point, order)
    f = RationalFunction("z", 1 + 2 * Z ** -1 - LaurentPoly.term(1, T * Monomial.var("z", 5)),
                         [(Fraction(1, 3), T, 2, 3)])
    for point in ("zero", "infinity"):
        assert str(expand_at(f, point, 2000)) == \
            str(_expansion_by_binomial_convolution(f, point, 2000)), point


def test_expand_at_zero_is_one_recurrence_pass_per_factor(monkeypatch):
    from kvertex import series
    counts = {"ser_mul": 0, "add": 0}
    add = LaurentPoly.__add__

    def ser_mul(*args):
        counts["ser_mul"] += 1
        return _ser_mul(*args)

    def counting_add(p, q):
        counts["add"] += 1
        return add(p, q)

    monkeypatch.setattr(series, "_ser_mul", ser_mul)
    monkeypatch.setattr(LaurentPoly, "__add__", counting_add)
    f = RationalFunction("z", LP_ONE, [(0, MONO_ONE, n, 1) for n in (1, 2, 3)])
    ser = expand_at(f, "zero", 2000)
    assert counts["ser_mul"] == 0
    assert counts["add"] <= sum(f.den.values()) * 2000
    # the number of partitions of 1999 into parts 1, 2 and 3
    assert ser.coeff(1999) == sum((1999 - 3 * c) // 2 + 1 for c in range(1999 // 3 + 1))


def test_u_digits_from_a_place_are_the_tail_of_the_stream(suite_seed):
    rnd = random.Random(suite_seed + 43)
    for _ in range(60):
        zpows = {k: LaurentPoly.term(rnd.choice([1, -2, Fraction(1, 3)]), rnd.choice([MONO_ONE, T]))
                 for k in rnd.sample(range(-8, 9), rnd.randint(1, 5))}
        start, count = rnd.randint(0, 12), rnd.randint(1, 8)
        assert list(islice(_u_digits(zpows, start), count)) == \
            list(islice(_u_digits(zpows), start, start + count)), (zpows, start)


def _u_digits_by_laurent_sums(zpows, start=0):
    """The u-digits as _u_digits made them before it summed a place into one
    term map: one LaurentPoly product p_k * d_j and one LaurentPoly sum per
    live term."""
    live = []
    for k, p in zpows.items():
        d = (-1) ** start * generalized_binomial(k, start) if start else 1
        if d:
            live.append((k, p, d))
    j = start
    while True:
        acc, kept = None, []
        for k, p, d in live:
            term = p * d
            acc = term if acc is None else acc + term
            d = d * (j - k) // (j + 1)
            if d:
                kept.append((k, p, d))
        yield LP_ZERO if acc is None else acc
        live = kept
        j += 1


def test_u_digits_match_the_laurent_sum_route(suite_seed):
    # exponent denominators 1, 2 and 3, Fraction and Cyclo coefficients
    # whose sums cancel or turn integral, characters t and s/t, negative
    # z-powers, starts past some nonnegative powers, up to 200 places
    rnd = random.Random(suite_seed + 47)
    chars = [MONO_ONE, T, Monomial.var("s") * T.inv(), Monomial.var("t", Fraction(1, 2)),
             Monomial.var("s", Fraction(-1, 3))]
    zeta5 = cyclo_root(Fraction(1, 5))
    coeffs = [1, -1, 3, Fraction(1, 3), Fraction(2, 3), Fraction(-3, 2), zeta5, -zeta5,
              2 * cyclo_root(Fraction(2, 3))]
    p = LaurentPoly.from_terms([(chars[3], 1), (chars[2], zeta5)])
    cases = [({0: p, 1: -p}, 0, 3), ({-1: p, 2: p * Fraction(1, 3)}, 4, 30)]
    for _ in range(40):
        zpows = {}
        for k in rnd.sample(range(-12, 13), rnd.randint(1, 6)):
            p = LaurentPoly.from_terms((rnd.choice(chars), rnd.choice(coeffs))
                                       for _i in range(rnd.randint(1, 3)))
            if p:
                zpows[k] = p
        if zpows:
            cases.append((zpows, rnd.randint(0, 15), rnd.randint(1, 200)))
    for zpows, start, count in cases:
        got = list(islice(_u_digits(zpows, start), count))
        want = list(islice(_u_digits_by_laurent_sums(zpows, start), count))
        assert got == want, (zpows, start)
        assert [str(c) for c in got] == [str(c) for c in want], (zpows, start)
        assert not any(type(c) is Fraction and c.denominator == 1
                       for p in got for c in p.terms.values()), (zpows, start)


def _divide_untruncated(ser, base, e=1):
    """USeries.divide as it was before it cut base to the places kept: every
    entry of base is scaled and weighted."""
    val, num = ser.val, ser.num
    while not base[0]:
        base = base[1:]
        val -= e
    c = base[0]
    if c.is_scalar():
        ci = scalar_inv(c.constant())
        if ci != 1:
            base = [b * ci for b in base]
            num = [n * scalar_pow(ci, e) for n in num]
        c = None
    C = _times(ser.C, c)
    w = [-_times(_times(b, ser.C), p) for b, p in zip(base[1:], _powers(C, len(base) - 1))]
    cp = _powers(c, len(num))
    for r in range(e):
        out = []
        for k, n in enumerate(num):
            acc = n * cp[k] if n.terms and cp[k] is not None and not r else n
            for j, wj in enumerate(w[:k], 1):
                if out[k - j].terms:
                    term = wj * out[k - j]
                    acc = acc + term if acc.terms else term
            out.append(acc)
        num = out
    return USeries(val, num, _times(ser.B, None if c is None else c ** e), C)


def test_dividing_an_empty_series_keeps_it_empty():
    base = [LP_ZERO, LP_ONE - LaurentPoly.var("t"), 3 * LP_ONE, LaurentPoly.var("s")]
    for e in (1, 3):
        for B, C in ((None, None), (LaurentPoly.var("s"), LP_ONE - LaurentPoly.var("s"))):
            got = USeries(2, [], B, C).divide(base, e)
            want = _divide_untruncated(USeries(2, [], B, C), base, e)
            assert (got.val, got.num) == (want.val, []) == (2 - e, [])
            assert got.B == want.B and got.C == want.C


def test_divide_by_a_base_longer_than_the_series_matches_the_untruncated_route(suite_seed):
    # leading zeros, scalar and non-scalar constant terms, e >= 2
    rnd = random.Random(suite_seed + 53)
    s = LaurentPoly.var("s")
    polys = [LP_ZERO, LP_ONE, 2 * LP_ONE, Fraction(1, 3) * LP_ONE, 1 - LaurentPoly.var("t"),
             s, s - 2, LaurentPoly.term(cyclo_root(Fraction(1, 3)), T)]
    for _ in range(40):
        num = [rnd.choice(polys) for _i in range(rnd.randint(1, 5))]
        lead = rnd.choice(polys[1:])
        base = [LP_ZERO] * rnd.randint(0, 2) + [lead] + \
            [rnd.choice(polys) for _i in range(len(num) + rnd.randint(0, 6))]
        e = rnd.randint(2, 4)
        B, C = rnd.choice([(None, None), (s, None), (None, 1 - s), (s, 1 - s)])
        got = USeries(3, num, B, C).divide(base, e)
        want = _divide_untruncated(USeries(3, num, B, C), base, e)
        assert (got.val, got.B, got.C) == (want.val, want.B, want.C), (num, base, e)
        assert got.num == want.num, (num, base, e)
        assert [str(c) for _k, c in got.items()] == [str(c) for _k, c in want.items()]


def test_expand_at_one_of_inverse_z():
    # the multiplicative expansion of z^-1 is sum_k (1-z)^k
    f = RationalFunction.from_poly(LaurentPoly.var("z", -1))
    ser = expand_at(f, "one", 3)
    assert [ser.coeff(k) for k in range(3)] == [1, 1, 1]


def test_expand_at_one_numerator_vanishing_to_high_order():
    # the u-digits of the numerator are read up to its valuation 390
    f = RationalFunction.from_poly((1 - Z) ** 390)
    assert str(expand_at(f, "one", 1)) == "(1-z)^390 + O((1-z)^391)"


def test_expand_at_one_reads_the_digit_stream_once(monkeypatch):
    from kvertex import series
    starts = []

    def counting(zpows):
        starts.append(len(zpows))
        return _u_digits(zpows)

    monkeypatch.setattr(series, "_u_digits", counting)
    f = RationalFunction.from_poly((1 - Z) ** 390)
    assert str(expand_at(f, "one", 1)) == "(1-z)^390 + O((1-z)^391)"
    assert starts == [391]


def _expand_at_one_by_retries(f, order):
    """The expansion at z=1 as expand_at computed it before it read the
    numerator's exact valuation: the numerator's u-digits below a guessed
    count of places, retried with the slack doubled up to the numerator's
    z-degree span until `order` coefficients come out."""
    def to_u(zpows, count):
        ser = {}
        for k, p in zpows.items():
            d = 1
            for j in range(count if k < 0 else min(count, k + 1)):
                ser[j] = p * d if j not in ser else ser[j] + p * d
                d = d * (j - k) // (j + 1)
        return ser

    def raw(count):
        ser = to_u(f.num.split_var(f.var), count)
        v0 = min((j for j, c in ser.items() if c), default=count)
        useries = USeries(v0, [ser.get(j, LP_ZERO) for j in range(v0, count)])
        for (a, m, n), e in f.den.items():
            c = unit_value(a, m)
            base = [LP_ONE - c] + [c * (generalized_binomial(n, j) * (-1) ** (j + 1))
                                   for j in range(1, n + 1)]
            useries = useries.divide(base, e)
        return dict(useries.items()), count - f.unit_pole_depth()

    zdegs = [m.exponent(f.var) for m in f.num.monomials()]
    span = max(zdegs) - min(zdegs)
    slack = 0
    while True:
        coeffs, tbound = raw(order + slack)
        if coeffs and tbound - min(coeffs) >= order:
            t = min(coeffs) + order
            return FormalSeries("one", f.var, {k: c for k, c in coeffs.items() if k < t}, t)
        slack = min(slack * 2 + order, span)


def test_expand_at_one_matches_the_retry_route(suite_seed):
    # numerators (1-z)^k N, N with negative and positive z-powers and
    # character coefficients, over factors with and without characters
    rnd = random.Random(suite_seed)
    chars = [MONO_ONE, T, Monomial.var("s"), T * Monomial.var("s", -1)]
    vanishing = 0
    for _ in range(24):
        N = LP_ZERO
        for _i in range(rnd.randint(1, 4)):
            coeff = LaurentPoly.term(rnd.choice([1, -1, 2, -3, Fraction(1, 2)]), rnd.choice(chars))
            N = N + coeff * LaurentPoly.var("z", rnd.randint(-4, 4))
        if N.is_zero():
            continue
        k = rnd.randint(0, 40)
        factors = [(rnd.choice([0, 0, Fraction(1, 2)]), rnd.choice(chars),
                    rnd.randint(1, 3), rnd.randint(1, 2))
                   for _i in range(rnd.randint(0, 3))]
        f = RationalFunction("z", N * (1 - Z) ** k, factors)
        vanishing += k > 0
        for order in range(1, 7):
            assert str(expand_at(f, "one", order)) == str(_expand_at_one_by_retries(f, order)), \
                (str(f), order)
    assert vanishing


def test_expand_at_one_against_sympy(suite_seed):
    sympy = pytest.importorskip("sympy")
    z, u = sympy.symbols("z u")
    rnd = random.Random(suite_seed)
    # z^-2/((1-z)^2 (1-z^2) (1-z^3)^2): three vanishing factors after the first
    cases = [(Z ** -2, [(0, MONO_ONE, 1, 2), (0, MONO_ONE, 2, 1), (0, MONO_ONE, 3, 2)], 4)]
    for _ in range(10):
        factors = [(0, MONO_ONE, rnd.randint(1, 3), rnd.randint(1, 3))
                   for _i in range(rnd.randint(2, 4))]
        num = LaurentPoly.scalar(rnd.randint(1, 3))
        for _i in range(rnd.randint(0, 2)):
            num = num + rnd.randint(-3, 3) * LaurentPoly.var("z", rnd.randint(-2, 3))
        # make the numerator vanish at z=1, to order 1 to 3 when it is nonzero
        num = num * (1 - Z) ** rnd.randint(1, 3)
        if not num.is_zero():
            cases.append((num, factors, rnd.randint(1, 5)))
    # character factors (1 - c z^n)^e, n <= 3, e <= 2, with one or two
    # distinct characters c and at most one (1 - z^n)
    chars = [T, Monomial.var("s"), Monomial.var("s") * T.inv()]
    for _ in range(8):
        picked = rnd.sample(chars, rnd.randint(1, 2))
        factors = [(0, c, rnd.randint(1, 3), rnd.randint(1, 2)) for c in picked]
        if rnd.random() < 0.5:
            factors.append((0, MONO_ONE, rnd.randint(1, 2), 1))
        num = LaurentPoly.scalar(rnd.randint(1, 3))
        for _i in range(rnd.randint(0, 2)):
            num = num + rnd.randint(-3, 3) * LaurentPoly.var("z", rnd.randint(-2, 3))
        if not num.is_zero():
            cases.append((num, factors, rnd.randint(1, 4)))
    for num, factors, order in cases:
        f = RationalFunction("z", num, factors)
        ser = expand_at(f, "one", order)
        depth = f.unit_pole_depth()
        expr = _sympy_of(num, sympy, {"z": z})
        for _a, m, n, e in factors:
            expr = expr / (1 - _sympy_of(LaurentPoly.term(1, m), sympy, {}) * z ** n) ** e
        # u^depth f(1 - u) is regular at u = 0; its u^j coefficient is the
        # kvertex coefficient of index j - depth
        taylor = sympy.series(u ** depth * expr.subs(z, 1 - u), u, 0, ser.trunc + depth).removeO()
        for j in range(ser.trunc + depth):
            c = ser.coeff(j - depth)
            c = _sympy_of(c, sympy, {}) if isinstance(c, (LaurentPoly, PolyFraction)) else c
            assert sympy.cancel(c - taylor.coeff(u, j)) == 0, (str(f), j - depth)


def test_remultiplying_reproduces_numerator():
    f = RationalFunction("z", Z + 2, [(0, MONO_ONE, 1, 2), (0, T, 1, 1)])
    for point in ("zero", "infinity"):
        ser = expand_at(f, point, 10)
        den = series_of_poly(f.den_poly(), "z", point, 10)
        num = series_of_poly(f.num, "z", point, 10)
        assert (ser * den).same_up_to(num)


def test_expansion_termwise_matches_closed_form_per_pole():
    # expansions of a pure pole agree with the binomial closed forms to order 12
    def aspoly(c):
        return c if isinstance(c, LaurentPoly) else LaurentPoly.scalar(c)

    for e in (1, 2, 3):
        ser = expand_at(one_over(0, T, 1, e), "zero", 12)
        for k in range(12):
            expected = LaurentPoly.term(generalized_binomial(e - 1 + k, e - 1), T ** k)
            assert aspoly(ser.coeff(k)) == expected
        # at infinity: 1/(1-tz)^e = (-1)^e t^-e z^-e sum_j C(e-1+j, e-1) t^-j z^-j
        ser = expand_at(one_over(0, T, 1, e), "infinity", 12)
        for j in range(12):
            expected = LaurentPoly.term(
                (Fraction(-1) ** e) * generalized_binomial(e - 1 + j, e - 1),
                T ** (-(e + j)))
            assert aspoly(ser.coeff(e + j)) == expected


def _subs_scale(f: RationalFunction, tmono: Monomial) -> RationalFunction:
    """The character substitution z -> tmono * z."""
    num = f.num.subs_mono(f.var, tmono * Monomial.var(f.var))
    factors = [(a, m * tmono ** n, n, e) for (a, m, n), e in f.den.items()]
    return RationalFunction(f.var, num, factors)


def test_substitution_commutes_with_expansion_at_zero():
    f = RationalFunction("z", Z ** 2 + LP_ONE, [(0, T, 1, 2), (Fraction(1, 2), MONO_ONE, 1, 1)])
    g = _subs_scale(f, Monomial.var("u"))
    fs = expand_at(f, "zero", 9)
    gs = expand_at(g, "zero", 9)
    for k in range(9):
        lhs = gs.coeff(k)
        rhs = fs.coeff(k)
        rhs = (rhs if isinstance(rhs, LaurentPoly) else LaurentPoly.scalar(rhs)) \
            * LaurentPoly.term(1, Monomial.var("u", k))
        lhs = lhs if isinstance(lhs, LaurentPoly) else LaurentPoly.scalar(lhs)
        assert lhs == rhs


def test_negative_factor_exponent_normalization():
    # 1/(1 - t z^-1) = (-t^-1 z)/(1 - t^-1 z)
    f = one_over(0, T, -1, 1)
    ref = RationalFunction("z", -1 * LaurentPoly.term(1, T.inv()) * Z, [(0, T.inv(), 1, 1)])
    assert f == ref


def test_truncation_access_guard():
    ser = expand_at(one_over(0), "zero", 3)
    with pytest.raises(ValueError):
        ser.coeff(3)


def test_partial_fractions_spec_examples():
    f = RationalFunction("z", LP_ONE, [(0, MONO_ONE, 1, 1), (0, T, 1, 1)])
    pf = partial_fractions(f)
    assert pf.recombines_to(f)
    by_pole = {(term.angle, term.mono): term.coeff for term in pf.terms}
    one_minus_t = LP_ONE - LaurentPoly.term(1, T)
    assert by_pole[(Fraction(0), MONO_ONE)] == PolyFraction(LP_ONE, one_minus_t)
    assert by_pole[(Fraction(0), T)] == PolyFraction(-1 * LaurentPoly.term(1, T), one_minus_t)
    assert not pf.poly_part

    f2 = RationalFunction("z", LP_ONE, [(0, MONO_ONE, 2, 1)])
    pf2 = partial_fractions(f2)
    assert pf2.recombines_to(f2)
    assert {(term.angle, str(term.coeff)) for term in pf2.terms} == \
        {(Fraction(0), "1/2"), (Fraction(1, 2), "1/2")}

    f3 = RationalFunction.from_poly(Z ** 3)
    pf3 = partial_fractions(f3)
    assert not pf3.terms
    assert pf3.poly_part == {3: LP_ONE}


def test_partial_fractions_distinct_output_poles():
    f = RationalFunction("z", LP_ONE, [(0, T, 1, 1), (0, T, 2, 1)])
    pf = partial_fractions(f)
    seen = [(term.angle, term.mono, term.mult) for term in pf.terms]
    assert len(seen) == len(set(seen))
    assert pf.recombines_to(f)


def test_partial_fractions_roundtrip_random(suite_seed):
    rnd = random.Random(suite_seed)
    chars = [MONO_ONE, T, Monomial.var("t", 2), Monomial.var("s") * T.inv()]
    done = 0
    while done < 12:
        nf = rnd.randint(1, 3)
        factors = []
        for i in rnd.sample(range(4), nf):
            factors.append((Fraction(0), chars[i], rnd.randint(1, 3), rnd.randint(1, 3)))
        if sum(n for (_a, _m, n, _e) in factors) > 5 or \
           sum(n * e for (_a, _m, n, e) in factors) > 7:
            continue
        done += 1
        f = RationalFunction("z", LaurentPoly.var("z", rnd.randint(-2, 2)), factors)
        assert partial_fractions(f).recombines_to(f)


def _pinned_pfrac_text():
    path = os.path.join(os.path.dirname(__file__), "data", "pfrac_labels.txt")
    with open(path, encoding="utf-8") as fh:
        blocks = fh.read().split("\n\n")
    return [tuple(b.strip("\n")[2:].split("\n", 1)) for b in blocks]


@pytest.mark.parametrize("expr,text", _pinned_pfrac_text(),
                         ids=[expr for expr, _text in _pinned_pfrac_text()])
def test_partial_fractions_text_is_pinned(expr, text):
    # a Cyclo prints in its conductor, whatever order the route gave it
    f, content = parse_rational(expr, "z")
    assert content == LP_ONE
    assert str(partial_fractions(f)) == text


def _integral_fractions(x):
    """The integral Fractions stored in a LaurentPoly or PolyFraction."""
    if isinstance(x, PolyFraction):
        return _integral_fractions(x.num) + _integral_fractions(x.den)
    return [c for c in x.terms.values() if isinstance(c, Fraction) and c.denominator == 1]


@pytest.mark.parametrize("expr", [expr for expr, _text in _pinned_pfrac_text()])
def test_partial_fractions_store_no_integral_fraction(expr):
    # the normalized denominators are scaled by Fractions; every scalar in
    # Q that is an integer is stored as an int
    f, _content = parse_rational(expr, "z")
    pf = partial_fractions(f)
    found = [c for term in pf.terms for c in _integral_fractions(term.coeff)]
    found += [c for coeff in pf.poly_part.values() for c in _integral_fractions(PolyFraction.of(coeff))]
    assert not found


def _sympy_of(p, sympy, point, cyclo=False):
    """A LaurentPoly or PolyFraction with rational coefficients (or, with
    cyclo, Cyclo coefficients at exp(2 pi i/order)) in sympy, with the
    variables in `point` set to its values."""
    if isinstance(p, PolyFraction):
        return _sympy_of(p.num, sympy, point, cyclo) / _sympy_of(p.den, sympy, point, cyclo)
    out = sympy.Integer(0)
    for m, c in zip(p.monomials(), p.terms.values()):
        if cyclo and isinstance(c, Cyclo):
            zeta = sympy.exp(2 * sympy.pi * sympy.I / c.order)
            term = sum(sympy.Rational(n, c.den) * zeta ** k for k, n in enumerate(c.num))
        else:
            assert isinstance(c, (int, Fraction)), "only rational coefficients expected"
            term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m.items():
            term *= point.get(v, sympy.Symbol(v)) ** sympy.Rational(e.numerator, e.denominator)
        out += term
    return out


def test_partial_fractions_against_sympy(suite_seed):
    """sympy rebuilds poly part + sum coeff / (1 - a z)^mult and cancels it
    against f.  The poles are +-1 and +-characters (factors 1 - c z, 1 + c z
    and 1 - c^2 z^2), so every coefficient is rational.  The characters s, t
    are set to random rationals, which keeps sympy's cancellation in z alone
    fast; with s, t symbolic the unreduced coefficient denominators make it
    take minutes."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rnd = random.Random(suite_seed)
    chars = [MONO_ONE, T, Monomial.var("s") * T.inv(), Monomial.var("t", 2)]
    for _ in range(12):
        factors = []
        for c in rnd.sample(chars, rnd.randint(1, 3)):
            shape = rnd.choice(["minus", "plus", "square"])
            e = rnd.randint(1, 2)
            if shape == "square":
                factors.append((0, c ** 2, 2, e))
            else:
                factors.append((Fraction(0 if shape == "minus" else 1, 2), c, 1, e))
        num = LaurentPoly.scalar(rnd.randint(1, 3))
        for _i in range(rnd.randint(0, 2)):
            num = num + rnd.randint(-3, 3) * LaurentPoly.var("z", rnd.randint(-2, 6))
        f = RationalFunction("z", num, factors)
        pf = partial_fractions(f)
        for _point in range(2):
            # four distinct primes: no monomial s^a t^b but 1 takes the value 1,
            # so no factor 1 - c of a denominator vanishes
            p = rnd.sample([2, 3, 5, 7, 11, 13, 17, 19], 4)
            point = {"s": sympy.Rational(p[0], p[1]), "t": sympy.Rational(p[2], p[3])}
            rebuilt = sum((_sympy_of(c, sympy, point) * z ** k for k, c in pf.poly_part.items()),
                          sympy.Integer(0))
            for term in pf.terms:
                root = _sympy_of(LaurentPoly.term(-1 if term.angle else 1, term.mono), sympy, point)
                rebuilt += _sympy_of(term.coeff, sympy, point) / (1 - root * z) ** term.mult
            expr = _sympy_of(f.num, sympy, point)
            for angle, mono, n, e in f.factors():
                c = _sympy_of(LaurentPoly.term(-1 if angle else 1, mono), sympy, point)
                expr = expr / (1 - c * z ** n) ** e
            assert sympy.cancel(rebuilt - expr) == 0, (str(f), point)


@pytest.mark.parametrize("expr", ["1/((1-z^3)*(1-t*z))", "1/(1-z^5)^2", "z/(1-z^6)",
                                  "(1+z)/((1-z^4)*(1-t*z))"])
def test_partial_fractions_at_roots_of_unity_against_sympy(expr):
    """Poles at roots of unity of order 3-6 carry Cyclo coefficients;
    sympy rebuilds the decomposition and cancels it against the input over
    the cyclotomic extension."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    f, content = parse_rational(expr, "z")
    assert content == LP_ONE
    pf = partial_fractions(f)
    rebuilt = sum((_sympy_of(c, sympy, {}, cyclo=True) * z ** k for k, c in pf.poly_part.items()),
                  sympy.Integer(0))
    for term in pf.terms:
        root = sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(term.angle.numerator,
                                                                 term.angle.denominator))
        root *= _sympy_of(LaurentPoly.term(1, term.mono), sympy, {})
        rebuilt += _sympy_of(term.coeff, sympy, {}, cyclo=True) / (1 - root * z) ** term.mult
    assert sympy.cancel(rebuilt - sympy.sympify(expr.replace("^", "**")), extension=True) == 0


@pytest.mark.parametrize("n", [17, 31, 61])
def test_partial_fractions_large_cover(n):
    f = RationalFunction("z", LP_ONE, [(0, MONO_ONE, n, 1), (0, T, 1, 1)])
    pf = partial_fractions(f)
    assert len(pf.terms) == n + 1
    assert pf.coefficient_sum() == PolyFraction.of(residue_k(f))
    assert pf.recombines_to(f)


def _long_division(f, D):
    """(Q, N) with f.num = Q D + N and the z-powers of N in [0, deg D), by
    exact long division: the route by which partial_fractions computed Q
    before it read Q from f's expansions at zero and infinity.  First the
    negative z-powers are cleared from below, then D's unit leading term
    divides from the top."""
    from kvertex.scalars import scalar_inv

    M = max(D) if D else 0
    N = dict(f.num.split_var(f.var))
    Q = {}

    def subtract_multiple(c, shift):
        for k, dk in D.items():
            acc = N.get(shift + k)
            acc = -(c * dk) if acc is None else acc - c * dk
            if acc.is_zero():
                N.pop(shift + k, None)
            else:
                N[shift + k] = acc

    while N and min(N) < 0:
        lo = min(N)
        c = N[lo]
        Q[lo] = Q.get(lo, LaurentPoly.zero()) + c
        subtract_multiple(c, lo)
    if M:
        lc, lm = D[M].as_unit()
        lead_inv = LaurentPoly.term(scalar_inv(lc), lm.inv())
        while N and max(N) >= M:
            hi = max(N)
            q = N[hi] * lead_inv
            Q[hi - M] = Q.get(hi - M, LaurentPoly.zero()) + q
            subtract_multiple(q, hi - M)
    else:
        for k, c in N.items():
            Q[k] = Q.get(k, LaurentPoly.zero()) + c
        N = {}
    return {k: c for k, c in Q.items() if not c.is_zero()}, N


def _divide_out(D, a, mult):
    """D / (1 - a z)^mult for a z-split polynomial D from z^0 that the
    power divides: mult synthetic divisions q_k = d_k + a q_(k-1)."""
    for _ in range(mult):
        q = {}
        prev = LP_ZERO
        for k in range(max(D)):
            prev = D.get(k, LP_ZERO) + prev * a
            if prev:
                q[k] = prev
        D = q
    return D


def _per_pole_partial_fractions(f):
    """The decomposition pole by pole, as partial_fractions computed it
    before Galois orbits: the long division, then at every cover pole the
    cofactor by synthetic division and the derivative formula, with the
    z-polynomials N_(j+1) = N_j' D_i - (j+1) N_j D_i' of the j-loop."""
    from kvertex.series import PartialFractions, PoleTerm, _cover, _ser_mul

    def deriv(A):
        return {k - 1: c * k for k, c in A.items() if k}

    def eval_inv(A, angle, mono, pw):
        out = LaurentPoly.zero()
        for k, c in A.items():
            while len(pw) <= k:
                pw.append(unit_value(angle, mono, -len(pw)))
            out = out + c * pw[k]
        return out

    poles, D = _cover(f)
    Q, N = _long_division(f, D)
    terms = []
    for (angle, mono), m_tot in poles.items():
        Di = _divide_out(D, unit_value(angle, mono), m_tot)
        Di_deriv = deriv(Di)
        pw = []
        den0 = eval_inv(Di, angle, mono, pw)
        Nj = dict(N)
        jfact = 1
        for j in range(m_tot):
            if j:
                jfact *= j
            num_eval = eval_inv(Nj, angle, mono, pw)
            if not num_eval.is_zero():
                scale = unit_value(angle, mono, -j) * Fraction((-1) ** j, jfact)
                A = PolyFraction(num_eval * scale, den0 ** (j + 1))
                terms.append(PoleTerm(angle, mono, m_tot - j, A.simplified()))
            if j + 1 < m_tot:
                t1 = _ser_mul(deriv(Nj), Di)
                t2 = _ser_mul(Nj, Di_deriv)
                Nj = {kk: t1.get(kk, LaurentPoly.zero()) - (j + 1) * t2.get(kk, LaurentPoly.zero())
                      for kk in set(t1) | set(t2)}
                Nj = {kk: c for kk, c in Nj.items() if not c.is_zero()}
    return PartialFractions(f.var, Q, terms)


def _lifted_derivative_partial_fractions(f):
    """The decomposition as partial_fractions computed it while a Cyclo
    printed in the order its last operation gave it: every scalar of the
    cover roots and of D lifted to the order L (the lcm of the root orders
    above 2), and at each pole the first m derivatives of N and of the
    cofactor D_i at 1/a combined by Leibniz's rule,

        v_j = d0^j N^(j)(1/a) - sum_(1<=i<=j) C(j, i) D_i^(i)(1/a) d0^(i-1) v_(j-i),

    with the scalars of v_j, j >= 1, lifted to L, and
    A_(m-j) = (-1/a)^j / j! v_j / d0^(j+1); one evaluation per Galois orbit."""
    import math

    from kvertex.scalars import RATIONAL, cyclo_root
    from kvertex.series import PartialFractions, PoleTerm, _galois_exponent, split_poles

    poles = split_poles(f)
    L = math.lcm(1, *(a.denominator for a, _m in poles if a.denominator > 2))

    def lift(c):
        return c.lift(L) if isinstance(c, Cyclo) else c

    roots = {(angle, mono): LaurentPoly.term(lift(cyclo_root(angle)), mono)
             for angle, mono in sorted(poles, key=lambda km: (km[1].items(), km[0]))}
    D = {k: LaurentPoly({m: lift(c) for m, c in p.terms.items()}, p.exp_den)
         for k, p in f.den_poly().split_var(f.var).items()}
    Q, N = _long_division(f, D)

    def derivs_inv(A, angle, mono, count, pw):
        out = [LP_ZERO] * count
        for k, c in A.items():
            while len(pw) <= k:
                pw.append(unit_value(angle, mono, -len(pw)))
            out[0] = out[0] + c * pw[k]
            falling = 1
            for i in range(1, min(count, k + 1)):
                falling *= k - i + 1
                out[i] = out[i] + c * pw[k - i] * falling
        return out

    def pole_terms(a, angle, mono, m):
        Di = _divide_out(D, a, m)
        pw = []
        dN = derivs_inv(N, angle, mono, m, pw)
        dD = derivs_inv(Di, angle, mono, m, pw)
        den0 = dD[0]
        d0_pows = [LP_ONE]
        v = [dN[0]]
        for j in range(1, m):
            d0_pows.append(d0_pows[-1] * den0)
            vj = dN[j] * d0_pows[j]
            for i in range(1, j + 1):
                vj = vj - dD[i] * d0_pows[i - 1] * v[j - i] * math.comb(j, i)
            v.append(LaurentPoly({mm: c.lift(L) if isinstance(c, Cyclo) and not L % c.order else c
                                  for mm, c in vj.terms.items()}, vj.exp_den))
        terms = []
        for j, vj in enumerate(v):
            if not vj.is_zero():
                scale = unit_value(angle, mono, -j) * Fraction((-1) ** j, math.factorial(j))
                A = PolyFraction(vj * scale, den0 ** (j + 1))
                terms.append(PoleTerm(angle, mono, m - j, A.simplified()))
        return terms

    invariant = all(a.denominator <= 2 for a, _m, _n in f.den) and \
        all(isinstance(c, RATIONAL) for c in f.num.terms.values())
    orbits = {}
    terms = []
    for (angle, mono), a in roots.items():
        key = (angle.denominator, mono) if invariant else (angle, mono)
        rep = orbits.get(key)
        if rep is None:
            rep = orbits[key] = (angle, pole_terms(a, angle, mono, poles[(angle, mono)]))
            terms.extend(rep[1])
        else:
            k = _galois_exponent(rep[0], angle, L)
            terms.extend(PoleTerm(angle, mono, t.mult, t.coeff.conjugate(k)) for t in rep[1])
    return PartialFractions(f.var, Q, terms)


def _term_keys(pf):
    return [(t.angle, t.mono, t.mult) for t in pf.terms]


def _wide_inputs(seed, count):
    """Seeded f wider than suites.random_rational: numerator powers
    z^-6..z^14 with Fraction coefficients and characters up to t^(1/2);
    factors at angles 0, 1/2, 1/3 and 1/4 (so most inputs are not
    Galois-invariant) and with n = -1, 1, 2, 3.  At most 8 cover poles,
    counted with multiplicity, keep the per-pole reference fast."""
    rnd = random.Random(seed)
    angles = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    chars = [MONO_ONE, T, T ** 2, Monomial.var("s") * T.inv(), Monomial.var("t", Fraction(1, 2))]
    out = []
    while len(out) < count:
        factors = [(rnd.choice(angles), rnd.choice(chars), rnd.choice([-1, 1, 2, 3]), rnd.randint(1, 2))
                   for _ in range(rnd.randint(1, 3))]
        num = LaurentPoly.from_terms(
            (Monomial.var("z", rnd.randint(-6, 14)) * rnd.choice(chars),
             rnd.choice([1, -2, 3, Fraction(1, 3), Fraction(-5, 2)])) for _ in range(rnd.randint(1, 4)))
        f = RationalFunction("z", num, factors)
        if f.total_pole_mult() <= 8 and not num.is_zero():
            out.append(f)
    return out


def test_polynomial_part_from_the_expansions_is_the_long_division_quotient(suite_seed):
    """Q read from f's expansions at zero and infinity equals the quotient
    of the long division, and the whole text that of the per-pole route,
    which divides first and reads the pole terms from the remainder."""
    from kvertex.series import _cover

    fs = _wide_inputs(suite_seed, 60)
    assert sum(min(f.num.split_var("z")) < 0 for f in fs) >= 10
    assert sum(max(f.num.split_var("z")) >= f.total_pole_mult() for f in fs) >= 10
    assert sum(a.denominator > 2 for f in fs for a, _m, _n in f.den) >= 10
    for f in fs:
        got = partial_fractions(f)
        want_q, _rest = _long_division(f, _cover(f)[1])
        assert sorted(got.poly_part) == sorted(want_q), str(f)
        assert all(str(got.poly_part[k]) == str(want_q[k]) for k in want_q), str(f)
        assert str(got) == str(_per_pole_partial_fractions(f)), str(f)
        assert got.recombines_to(f), str(f)


@pytest.mark.parametrize("factors", [[(0, MONO_ONE, 2, 1)],
                                     [(Fraction(1, 3), T, 1, 2), (0, MONO_ONE, -1, 1)]])
def test_partial_fractions_of_a_zero_numerator(factors):
    # no z-power to expand: no pole terms and a zero polynomial part
    f = RationalFunction("z", LP_ZERO, factors)
    pf = partial_fractions(f)
    assert not pf.terms and not pf.poly_part
    assert str(pf) == "polynomial part: 0"
    assert pf.recombines_to(f)


def _invariant_inputs(seed, count):
    """Seeded Galois-invariant f: factor angles 0 and 1/2, rational
    numerator coefficients; characters t, t^2 and s/t, the roots of
    1 - t z^3, multiplicities 1-3, and factors that share poles."""
    rnd = random.Random(seed)
    shapes = [(MONO_ONE, 2), (MONO_ONE, 3), (MONO_ONE, 4), (MONO_ONE, 5), (MONO_ONE, 6),
              (MONO_ONE, 8), (MONO_ONE, 9), (MONO_ONE, 12), (T, 1), (T ** 2, 1),
              (Monomial.var("s") * T.inv(), 1), (T, 3)]
    out = []
    while len(out) < count:
        factors = [(rnd.choice([Fraction(0), Fraction(1, 2)]), *rnd.choice(shapes), rnd.randint(1, 3))
                   for _ in range(rnd.randint(1, 3))]
        if sum(n * e for _a, _m, n, e in factors) > 18:
            continue
        num = LaurentPoly.from_terms(
            (Monomial.var("z", rnd.randint(-2, 12)) * rnd.choice([MONO_ONE, T, Monomial.var("s")]),
             rnd.choice([1, -2, 3, Fraction(1, 3)])) for _ in range(rnd.randint(1, 3)))
        if not num.is_zero():
            out.append(RationalFunction("z", num, factors))
    return out


@pytest.mark.parametrize("expr", ["z/((1-z^6)*(1-t*z))", "1/((1-z^6)^2*(1-t*z))",
                                  "1/((1+z^3)*(1-t*z))", "1/((1-z^6)*(1-z^4))", "1/(1-z^12)^2"])
def test_moved_pinned_texts_keep_their_values(expr):
    # the five pinned texts that moved when a Cyclo began to print in its
    # conductor; term by term, their values are those of the lifted
    # derivative route that printed the old texts
    f, _content = parse_rational(expr, "z")
    got, want = partial_fractions(f), _lifted_derivative_partial_fractions(f)
    assert sorted(got.poly_part) == sorted(want.poly_part)
    assert all(got.poly_part[k] == want.poly_part[k] for k in got.poly_part)
    assert _term_keys(got) == _term_keys(want)
    assert all(a.coeff == b.coeff for a, b in zip(got.terms, want.terms))
    assert got.recombines_to(f)


def test_orbit_path_matches_the_per_pole_path(suite_seed):
    fixed = ["1/((1+z^3)*(1-t*z))", "1/((1-z^6)*(1-z^4))", "1/(1-z^12)^2",
             "z^2/((1-t*z^4)*(1-s*z))", "(z^5 - 2)/((1-z^6)^3*(1-t^2*z^2))"]
    fs = [parse_rational(e, "z")[0] for e in fixed] + _invariant_inputs(suite_seed, 24)
    for f in fs:
        got, want = partial_fractions(f), _per_pole_partial_fractions(f)
        assert str(got) == str(want), str(f)
        assert _term_keys(got) == _term_keys(want), str(f)


def test_one_cofactor_per_galois_orbit(monkeypatch):
    """The pole terms are evaluated once per orbit (denominator d,
    character), not once per cover pole: 1/(1 - z^12) has 12 poles in 6
    orbits, and 1/((1 - z^13)(1 - t z)) has 14 poles in 3 orbits."""
    import kvertex.series as series

    calls = []
    real = series._pole_terms

    def counted(N, D, pole, m):
        calls.append(pole)
        return real(N, D, pole, m)

    monkeypatch.setattr(series, "_pole_terms", counted)
    for expr, orbits, poles in (("1/(1-z^12)", 6, 12), ("1/((1-z^13)*(1-t*z))", 3, 14)):
        calls.clear()
        pf = partial_fractions(parse_rational(expr, "z")[0])
        assert len(pf.terms) == poles
        assert len(calls) == orbits, expr


def test_denominator_digits_at_a_pole_are_the_cofactor_digits(suite_seed):
    """In w = 1 - a z, D = D_i w^m for the cofactor D_i at a pole of
    multiplicity m, so D's first m w-digits are zero and its next m are
    the first m of D_i: partial_fractions and recombines_to read the pole
    data from them.  Seeded covers with angles of order at most 6."""
    from kvertex.series import _cover, _pole_digits

    rnd = random.Random(suite_seed)
    angles = sorted({Fraction(p, d) for d in range(1, 7) for p in range(d)})
    chars = [MONO_ONE, T, T ** 2, Monomial.var("s") * T.inv(), Monomial.var("t", Fraction(1, 2))]
    seen = set()
    for _ in range(40):
        factors = [(rnd.choice(angles), rnd.choice(chars), 1, rnd.randint(1, 3))
                   if rnd.random() < 0.7 else
                   (rnd.choice([0, Fraction(1, 2)]), MONO_ONE, rnd.randint(2, 3), rnd.randint(1, 3))
                   for _ in range(rnd.randint(1, 3))]
        poles, D = _cover(RationalFunction("z", LP_ONE, factors))
        for pole, m in poles.items():
            seen.add(m)
            digits = _pole_digits(D, pole, 2 * m)
            assert all(c.is_zero() for c in digits[:m]), (factors, pole)
            assert digits[m:] == _pole_digits(_divide_out(D, unit_value(*pole), m), pole, m), \
                (factors, pole)
    assert {1, 2, 3} <= seen


def test_non_invariant_input_has_orbits_of_size_one():
    """A factor at angle 1/3 or a Cyclo numerator coefficient: f is not
    Galois-invariant, every pole is evaluated on its own, and the result
    recombines to f.  Simple and repeated poles alike print the per-pole
    text."""
    zeta5 = Cyclo.make(5, {1: 1})
    cases = [
        RationalFunction("z", Z + 2, [(Fraction(1, 3), MONO_ONE, 2, 1), (0, T, 1, 1)]),
        RationalFunction("z", LaurentPoly.term(zeta5, MONO_ONE) + Z,
                         [(0, MONO_ONE, 4, 1), (Fraction(1, 2), T, 1, 1)]),
        RationalFunction("z", LP_ONE + Z ** 3, [(Fraction(1, 3), MONO_ONE, 3, 2), (0, T, 1, 1)]),
        RationalFunction("z", LaurentPoly.term(zeta5, Monomial.var("z", 2)) + 1,
                         [(0, MONO_ONE, 3, 2)]),
        # the coefficient at zeta5^2 is computed in zeta60 and prints in zeta5
        RationalFunction("z", LP_ONE + LaurentPoly.term(4, Monomial.var("s") * Monomial.var("z", 8)),
                         [(0, MONO_ONE, 12, 1), (Fraction(2, 5), MONO_ONE, 1, 2)]),
    ]
    for f in cases:
        got, want = partial_fractions(f), _per_pole_partial_fractions(f)
        assert got.recombines_to(f)
        assert _term_keys(got) == _term_keys(want)
        assert all(a.coeff == b.coeff for a, b in zip(got.terms, want.terms))
        assert str(got) == str(want)


def test_recombination_rejects_a_perturbed_coefficient():
    # one pole coefficient off by a little, or a term at a pole of f that
    # does not carry it, and the pole-by-pole check must fail
    from kvertex.series import PartialFractions, PoleTerm

    f = RationalFunction("z", Z + 2, [(0, MONO_ONE, 3, 2), (0, T, 1, 1)])
    pf = partial_fractions(f)
    assert pf.recombines_to(f)
    for i, term in enumerate(pf.terms):
        bumped = term._replace(coeff=term.coeff + PolyFraction(LP_ONE, 1000 - LaurentPoly.term(1, T)))
        terms = pf.terms[:i] + [bumped] + pf.terms[i + 1:]
        assert not PartialFractions(pf.var, pf.poly_part, terms).recombines_to(f), i
    assert not PartialFractions(pf.var, {0: LP_ONE}, pf.terms).recombines_to(f)
    extra = PoleTerm(Fraction(0), T, 2, PolyFraction.of(LP_ONE))
    assert not PartialFractions(pf.var, pf.poly_part, pf.terms + [extra]).recombines_to(f)
    # a polynomial-part coefficient with a surviving denominator
    fraction = PolyFraction(LP_ONE, 1 - LaurentPoly.term(1, T))
    assert not PartialFractions(pf.var, {0: fraction}, pf.terms).recombines_to(f)


def _pinned_expand_one_text():
    path = os.path.join(os.path.dirname(__file__), "data", "expand_one_labels.txt")
    with open(path, encoding="utf-8") as fh:
        blocks = fh.read().split("\n\n")
    out = []
    for block in blocks:
        head, before, after = block.strip("\n").split("\n")
        expr, order = head[2:].split(" --order ")
        out.append((expr, int(order), before[len("before: "):], after[len("after: "):]))
    return out


def _series_value(text):
    """The value of a printed (1-z)-series without its O-term, as a
    rational function over its z-free content."""
    f, content = parse_rational(text[:text.rindex(" + O(")], "z")
    return f, RationalFunction.from_poly(content)


@pytest.mark.parametrize("expr,order,before,after", _pinned_expand_one_text(),
                         ids=[case[0] for case in _pinned_expand_one_text()])
def test_expand_at_one_text_is_pinned(expr, order, before, after):
    # with character factors the (1-z)^k coefficients are printed over
    # prod (1 - c)^e * (prod (1 - c))^k.  The data file also keeps the text
    # printed when each coefficient was a sum cross-multiplied over its
    # terms' denominators ("before"); both texts must have the same value.
    f, content = parse_rational(expr, "z")
    ser = expand_at(f, "one", order)
    if not content == LP_ONE:
        ser = ser * PolyFraction(LP_ONE, content)
    assert str(ser) == after
    (fa, ca), (fb, cb) = _series_value(before), _series_value(after)
    assert (fa * cb).equals(fb * ca)


def test_expand_at_one_denominators_grow_linearly():
    # (1-z^3)/(1-x z^3): the (1-z)^j coefficient is over (1-x)^j
    f, content = parse_rational("(1-z^3)/(1-x*z^3)", "z")
    ser = expand_at(f, "one", 6)
    x = Monomial.var("x")
    for j in range(1, 7):
        c = ser.coeff(j)
        assert isinstance(c, PolyFraction)
        assert c.den == (LP_ONE - LaurentPoly.term(1, x)) ** j
        assert max(m.exponent("x") for m in c.num.monomials()) <= j
