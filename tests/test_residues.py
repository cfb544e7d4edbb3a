import itertools
import math
import random
from fractions import Fraction

import pytest

from kvertex.laurent import (LP_ONE, LP_ZERO, MAX_EXPONENT, MONO_ONE, LaurentPoly, Monomial,
                             PolyFraction)
from kvertex.residues import (K_THEORY, NAIVE, ResidueKind, _pole_series, _rho, constraint_suite,
                              diagonal_w_side_residue, diagonal_z_side_residues,
                              iadic_valuation_at_least, local_residue_at_root,
                              residue_coh, residue_k, residue_k_oracle, residue_naive,
                              rho_simple_product)
from kvertex.scalars import Cyclo, generalized_binomial, root_of_unity
from kvertex.series import (RationalFunction, _inverted, _ser_mul, _u_digits, expand_at,
                            partial_fractions, unit_value)

T = Monomial.var("t")
S = Monomial.var("s")


def rf(num, factors):
    return RationalFunction("z", num, factors)


def one(c=1):
    return LaurentPoly.scalar(c)


def _subs_scale(f: RationalFunction, tmono: Monomial) -> RationalFunction:
    """The character substitution z -> tmono * z."""
    num = f.num.subs_mono(f.var, tmono * Monomial.var(f.var))
    factors = [(a, m * tmono ** n, n, e) for (a, m, n), e in f.den.items()]
    return RationalFunction(f.var, num, factors)


def residue_k_via_pfrac(f: RationalFunction) -> LaurentPoly:
    """Independent route: sum of the partial-fraction pole coefficients
    (each term A/(1 - a z)^m has residue exactly A)."""
    if f.is_poly():
        return LP_ZERO
    poly = partial_fractions(f).coefficient_sum().as_poly()
    assert poly is not None, "residue did not reduce to a Laurent polynomial"
    return poly


class TestResidueK:
    def test_normalization(self):
        assert residue_k(rf(one(), [(0, MONO_ONE, 1, 1)])) == one()

    def test_higher_pole_with_numerator(self):
        f = rf(LaurentPoly.var("z", 2), [(0, MONO_ONE, 1, 3)])
        assert residue_k(f) == LP_ZERO

    def test_pure_laurent_polynomial(self):
        assert residue_k(rf(LaurentPoly.var("z", 3) - 2, [])) == LP_ZERO

    def test_two_pole_example(self):
        f = rf(one(), [(0, MONO_ONE, 1, 1), (0, T, 1, 1)])
        assert residue_k(f) == one()
        assert residue_k_oracle(f, 10) == one()
        assert residue_k_via_pfrac(f) == one()

    def test_z_over_one_minus_z(self):
        f = rf(LaurentPoly.var("z"), [(0, MONO_ONE, 1, 1)])
        assert residue_k_oracle(f, 10) == one()

    def test_inversion_antisymmetry_example(self):
        f = rf(one(), [(0, MONO_ONE, 1, 1)])
        assert residue_k(_inverted(f)) == -1 * one()

    def test_oracle_order_guard(self):
        f = rf(one(), [(0, MONO_ONE, 1, 3)])
        with pytest.raises(ValueError):
            residue_k_oracle(f, 3)


class TestResidueKOracle:
    CHARS = [(Fraction(0), T), (Fraction(1, 2), T), (Fraction(1, 3), Monomial.var("t", 2)),
             (Fraction(0), S * T.inv()), (Fraction(1, 3), MONO_ONE), (Fraction(1, 2), S * T.inv())]

    def _inputs(self, seed):
        rnd = random.Random(seed + 11)
        out = [rf(LP_ZERO, [(0, T, 1, 2)])]
        for _ in range(14):
            factors = [(a, m, rnd.randint(1, 2), rnd.randint(1, 2))
                       for a, m in rnd.sample(self.CHARS, rnd.randint(1, 3))]
            pows = rnd.sample(range(-15, 16), rnd.randint(1, 4))
            num = LaurentPoly.from_terms((Monomial.var("z", k) * rnd.choice([MONO_ONE, T, S]),
                                          rnd.choice([1, -1, 2, Fraction(1, 2)])) for k in pows)
            out.append(rf(num, factors))
        return out

    @staticmethod
    def _sides(f):
        # the valuations of the expansions at zero and at infinity
        zpows = f.num.split_var("z")
        return {"zero": min(zpows), "infinity": f.total_pole_mult() - max(zpows)}

    def test_matches_full_expansions(self, suite_seed):
        # every order from the guard to 12 past it, including orders whose
        # truncation stops a side below z^0
        cut = set()
        for f in self._inputs(suite_seed):
            top = f.total_pole_mult()
            for order in range(top + 1, top + 13):
                if not f.is_zero():
                    cut.update(p for p, v0 in self._sides(f).items() if v0 + order <= 0)
                got = residue_k_oracle(f, order)
                assert isinstance(got, LaurentPoly)
                assert got == _oracle_full(f, order), (str(f), order)
        assert cut == {"zero", "infinity"}

    def test_expands_each_side_only_to_z0(self, suite_seed, monkeypatch):
        # a side with its z^0 term in reach expands 1/D alone, with 1 - v0
        # places for v0 the valuation of f's expansion there
        from kvertex import residues
        calls = []

        def counting(g, point, order):
            calls.append((g, point, order))
            return expand_at(g, point, order)

        monkeypatch.setattr(residues, "expand_at", counting)
        inputs = [rf(one(), [(0, T, 1, 2)])] + self._inputs(suite_seed)[1:]
        seen = 0
        for f in inputs:
            calls.clear()
            order = f.total_pole_mult() + 12
            residue_k_oracle(f, order)
            want = [(p, 1 - v0) for p, v0 in self._sides(f).items() if v0 <= 0 < v0 + order]
            assert [(p, k) for _g, p, k in calls] == want, str(f)
            for g, _p, _k in calls:
                assert g.num == one() and g.den == f.den, str(f)
            seen += len(calls)
        assert seen


def _oracle_full(f, order):
    """residue_k_oracle reading full expansions: both sides expanded with
    `order` places, z^0 read where the truncation reaches it."""
    def z0(ser):
        if ser.valuation() <= 0 < ser.trunc:
            return ser.coeff(0)
        return 0

    out = z0(expand_at(f, "zero", order)) - z0(expand_at(f, "infinity", order))
    return out if isinstance(out, LaurentPoly) else LaurentPoly.scalar(out)


class TestResidueNaive:
    def test_unit_pole(self):
        assert residue_naive(rf(one(), [(0, MONO_ONE, 1, 1)])) == one()

    def test_quarter_root(self):
        assert residue_naive(rf(one(), [(Fraction(1, 4), MONO_ONE, 1, 1)])) == LP_ZERO

    def test_character_pole(self):
        assert residue_naive(rf(one(), [(0, T, 1, 1)])) == LP_ZERO


class TestResidueCoh:
    def test_examples(self):
        u = LaurentPoly.var("u", -1)
        assert residue_coh(u) == one()
        assert residue_coh(LaurentPoly.var("u", -2)) == LP_ZERO
        assert residue_coh(LaurentPoly.var("u", 3)) == LP_ZERO
        mixed = LaurentPoly.var("u", -1) * LaurentPoly.term(1, T) + LaurentPoly.var("u", 2)
        assert residue_coh(mixed) == LaurentPoly.term(1, T)


class TestConstraintSuite:
    def test_ktheory_passes_all(self):
        rows = constraint_suite(K_THEORY, 6, 4)
        assert len(rows) == 105
        assert all(ok for (*_x, ok) in rows)

    def test_specific_entries(self):
        rows = {(n, k, a): v for (n, k, a, v, _e, _ok) in constraint_suite(K_THEORY, 3, 1)}
        assert rows[(3, 0, 0)] == one()
        assert rows[(3, 1, 2)] == LP_ZERO

    def test_naive_fails_at_n2(self):
        rows = constraint_suite(NAIVE, 2, 1)
        failed = {(n, k, a): v for (n, k, a, v, _e, ok) in rows if not ok}
        assert (2, 0, 0) in failed
        assert failed[(2, 0, 0)] == LaurentPoly.scalar(Fraction(1, 2))

    def test_cohomological_rejected(self):
        with pytest.raises(ValueError):
            constraint_suite(ResidueKind("cohomological"), 2, 1)


class TestComparison:
    def test_all_roots_and_multiplicities(self):
        angles = sorted({Fraction(j, n) for n in range(1, 7) for j in range(n)})
        for angle in angles:
            for m in range(1, 5):
                f = rf(one(), [(angle, MONO_ONE, 1, m)])
                assert residue_k(f) == one()
                expected = one(1 if angle == 0 else 0)
                assert residue_naive(f) == expected

    def test_residue_theorem_decomposition(self, suite_seed):
        rnd = random.Random(suite_seed)
        for _ in range(20):
            factors = []
            for _i in range(rnd.randint(1, 3)):
                q = rnd.randint(1, 6)
                factors.append((Fraction(rnd.randint(0, q - 1), q), MONO_ONE,
                                rnd.randint(1, 3), rnd.randint(1, 3)))
            num = LP_ZERO
            for _i in range(rnd.randint(1, 3)):
                num = num + rnd.randint(1, 3) * LaurentPoly.var("z", rnd.randint(-2, 4))
            f = rf(num, factors)
            total = residue_naive(f)
            pole_angles = set()
            for (a, _m, n), _e in f.den.items():
                for j in range(n):
                    pang = (Fraction(j) - Fraction(a)) / n % 1
                    if pang != 0:
                        pole_angles.add(pang)
            for pang in sorted(pole_angles):
                total = total - local_residue_at_root(f, pang)
            assert PolyFraction.of(residue_k(f)) == PolyFraction.of(total)

    def test_residue_theorem_suite(self, suite_seed):
        from kvertex.suites import suite_residue_theorem
        cases = suite_residue_theorem(seed=suite_seed)
        assert len(cases) == 24
        assert [name for name, ok, _detail in cases if not ok] == []

    def test_local_residue_rejects_character_poles(self):
        with pytest.raises(ValueError):
            local_residue_at_root(rf(one(), [(0, T, 1, 1)]), Fraction(1, 2))


class TestClosedFormVsOracle:
    def test_seeded_random_functions(self, suite_seed):
        from kvertex.suites import random_rational
        rnd = random.Random(suite_seed)
        for _ in range(60):
            f = random_rational(rnd)
            assert residue_k(f) == residue_k_oracle(f, f.total_pole_mult() + 8)

    def test_pfrac_route_agrees(self, suite_seed):
        rnd = random.Random(suite_seed)
        chars = [MONO_ONE, T, S * T.inv()]
        for _ in range(25):
            nf = rnd.randint(1, 2)
            factors = []
            for i in rnd.sample(range(3), nf):
                factors.append((Fraction(0), chars[i], rnd.randint(1, 2), rnd.randint(1, 3)))
            f = rf(LaurentPoly.var("z", rnd.randint(-2, 2)), factors)
            assert residue_k(f) == residue_k_via_pfrac(f)

    def test_t_invariance(self, suite_seed):
        # the z -> u z substitution leaves the z^0 coefficients untouched
        from kvertex.suites import random_rational
        rnd = random.Random(suite_seed + 1)
        u = Monomial.var("u")
        for _ in range(20):
            f = random_rational(rnd)
            assert residue_k(_subs_scale(f, u)) == residue_k(f)

    def test_inversion_antisymmetry_random(self, suite_seed):
        from kvertex.suites import random_rational
        rnd = random.Random(suite_seed + 2)
        for _ in range(20):
            f = random_rational(rnd)
            assert residue_k(_inverted(f)) == -1 * residue_k(f)


class TestRhoSimpleProduct:
    def test_matches_oracle(self, suite_seed):
        rnd = random.Random(suite_seed)
        monos = [MONO_ONE, T, Monomial.var("t", 2), S * T.inv()]
        for _ in range(40):
            npoles = rnd.randint(1, 3)
            poles = [((Fraction(0), monos[i]), rnd.randint(1, 3))
                     for i in rnd.sample(range(4), npoles)]
            A = rnd.randint(-3, 5)
            f = rf(LaurentPoly.var("z", A), [(a, m, 1, e) for (a, m), e in poles])
            assert rho_simple_product(A, poles) == residue_k_oracle(
                f, f.total_pole_mult() + abs(A) + 3)

    def test_root_of_unity_pole(self):
        # 1/(1 - zeta3 z)^2 has residue 1
        assert rho_simple_product(0, [((Fraction(1, 3), MONO_ONE), 2)]) == LP_ONE

    def test_far_numerators_match_oracle(self, suite_seed):
        # z-powers out to |A| = 25 on both sides need long S_+ and S_-, and
        # two or three poles (a root-of-unity angle, characters) multiply
        # their single-pole series
        rnd = random.Random(suite_seed + 3)
        pool = [(Fraction(1, 3), MONO_ONE), (Fraction(0), T), (Fraction(0), S * T.inv()),
                (Fraction(2, 3), T), (Fraction(1, 2), MONO_ONE)]
        for _ in range(16):
            factors = [(a, m, 1, rnd.randint(1, 3)) for a, m in rnd.sample(pool, rnd.randint(2, 3))]
            lo, hi = rnd.randint(-25, -15), rnd.randint(15, 25)
            mid = Monomial.var("z", rnd.randint(lo, hi)) * rnd.choice([MONO_ONE, T, S])
            num = LaurentPoly.from_terms([(Monomial.var("z", lo), 1),
                                          (Monomial.var("z", hi), rnd.choice([1, -2, 3])),
                                          (mid, rnd.randint(-3, 3))])
            f = rf(num, factors)
            assert residue_k(f) == residue_k_oracle(f, f.total_pole_mult() + max(-lo, hi) + 3)

    def test_unit_values_linear_in_degree(self, monkeypatch):
        # one pass over each series: about one unit value per numerator
        # power, not one per composition of every power
        from kvertex import residues
        calls = []
        unit_value = residues.unit_value

        def counting(*args):
            calls.append(args)
            return unit_value(*args)

        monkeypatch.setattr(residues, "unit_value", counting)
        num = LaurentPoly.from_terms((Monomial.var("z", k), k % 7 - 3 or 1) for k in range(-100, 101))
        residue_k(rf(num, [(0, T, 1, 2)]))
        assert 0 < len(calls) < 3 * 200


class TestPoleSeries:
    POOL = [(Fraction(a), m) for a in (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
            for m in (MONO_ONE, T, S * T.inv())]

    def _cases(self, seed):
        rnd = random.Random(seed + 5)
        for _ in range(24):
            poles = [(p, rnd.randint(1, 4)) for p in rnd.sample(self.POOL, rnd.randint(1, 3))]
            yield poles, rnd.randint(1, 40), rnd.random() < 0.5

    def test_matches_product_of_closed_forms(self, suite_seed):
        for poles, count, invert in self._cases(suite_seed):
            want = {j: c for j, c in _pole_series_product(poles, count, invert).items() if c}
            assert _pole_series(poles, count, invert) == want, (poles, count, invert)

    def test_one_unit_value_per_pole(self, suite_seed, monkeypatch):
        from kvertex import residues
        calls = []

        def counting(*args):
            calls.append(args)
            return unit_value(*args)

        monkeypatch.setattr(residues, "unit_value", counting)
        for poles, count, invert in self._cases(suite_seed):
            calls.clear()
            _pole_series(poles, count, invert)
            assert len(calls) == len(poles), (poles, count)


def _pole_series_by_laurent_sums(poles, count, invert):
    """_pole_series as it was before it added into term maps in place: one
    LaurentPoly product and one LaurentPoly sum per step."""
    ser = [LP_ONE] + [LP_ZERO] * (count - 1)
    for (angle, mono), m in poles:
        a = unit_value(angle, mono, -1 if invert else 1)
        for _ in range(m):
            for j in range(1, count):
                ser[j] = ser[j] + a * ser[j - 1]
    return {j: c for j, c in enumerate(ser) if c}


def _rho_by_laurent_sums(num, poles):
    """_rho as it was before it added its dot products into term maps in
    place: out = out + p * c per numerator power."""
    total_m = sum(m for _p, m in poles)
    out = LP_ZERO
    top = -min(num)
    if top >= 0:
        ser = _pole_series_by_laurent_sums(poles, top + 1, invert=False)
        for k, p in num.items():
            c = ser.get(-k)
            if c is not None:
                out = out + p * c
    top = max(num) - total_m
    if top >= 0:
        ser = _pole_series_by_laurent_sums(poles, top + 1, invert=True)
        minus = LP_ZERO
        for k, p in num.items():
            c = ser.get(k - total_m)
            if c is not None:
                minus = minus + p * c
        if not minus.is_zero():
            scale = LaurentPoly.scalar((-1) ** total_m)
            for (angle, mono), m in poles:
                scale = scale * unit_value(angle, mono, -m)
            out = out - minus * scale
    return out


_IN_PLACE_CHARS = [MONO_ONE, T, S * T.inv(), Monomial.var("t", Fraction(1, 2)),
                   (S * T.inv()) ** Fraction(1, 3)]


class TestInPlaceSums:
    """_pole_series and _rho against their LaurentPoly-sum routes: poles
    and numerators with exponent denominators 1, 2 and 3, Fraction and
    Cyclo coefficients, characters t and s/t, negative z-powers, and series
    of up to 200 coefficients."""

    POOL = [(Fraction(a), m) for a in (0, Fraction(1, 2), Fraction(1, 3), Fraction(3, 4))
            for m in _IN_PLACE_CHARS]
    COEFFS = [1, -2, Fraction(1, 3), Fraction(-5, 2), root_of_unity(5, 1), -root_of_unity(5, 1),
              root_of_unity(3, 1) * Fraction(1, 2)]

    def _poles(self, rnd, long):
        # a long series keeps one character, so that a coefficient is one
        # term and not a sum over the compositions of its index
        pool = self.POOL
        if long:
            mono = rnd.choice(_IN_PLACE_CHARS)
            pool = [(a, m) for a, m in pool if m == mono]
        return sorted((p, rnd.randint(1, 3)) for p in rnd.sample(pool, rnd.randint(1, 3)))

    def _cases(self, rnd):
        for i in range(16):
            long = i % 2
            yield self._poles(rnd, long), rnd.randint(1, 200 if long else 30)

    def test_pole_series(self, suite_seed):
        rnd = random.Random(suite_seed + 59)
        for poles, count in self._cases(rnd):
            invert = rnd.random() < 0.5
            got = _pole_series(poles, count, invert)
            want = _pole_series_by_laurent_sums(poles, count, invert)
            assert got == want, (poles, count, invert)
            assert {j: str(c) for j, c in got.items()} == {j: str(c) for j, c in want.items()}

    def test_rho(self, suite_seed):
        rnd = random.Random(suite_seed + 61)
        z = Monomial.var("z")
        # z^(1/2) * z^(1/2) keeps the exponent denominator 2
        half = LaurentPoly.var("z", Fraction(1, 2))
        cases = [((half * half).split_var("z"), [((Fraction(0), MONO_ONE), 1)])]
        assert cases[0][0][1].exp_den == 2
        for poles, top in self._cases(rnd):
            num = LaurentPoly.from_terms(
                (z ** rnd.randint(-top, top) * rnd.choice(_IN_PLACE_CHARS), rnd.choice(self.COEFFS))
                for _i in range(rnd.randint(1, 6)))
            if num:
                cases.append((num.split_var("z"), poles))
        for num, poles in cases:
            got, want = _rho(num, poles), _rho_by_laurent_sums(num, poles)
            assert got == want and str(got) == str(want), (num, poles)

    def test_the_exponent_range_check_survives(self):
        # the series of z^(+-2000)/(1 - t^(2^20) z) reach t^(+-2^30) ...
        for k in (2000, -2000):
            with pytest.raises(OverflowError, match="exponent out of range"):
                residue_k(rf(LaurentPoly.var("z", k), [(0, T ** 2 ** 20, 1, 1)]))
        # ... and here a product p_k S[j] of each dot product leaves the range
        top = LaurentPoly.term(1, T ** MAX_EXPONENT)
        for k, c in ((-1, T), (2, T.inv())):
            with pytest.raises(OverflowError, match="exponent out of range"):
                residue_k(rf(top * LaurentPoly.var("z", k), [(0, c, 1, 1)]))


def _pole_series_product(poles, count, invert):
    """The first count coefficients of prod_i (1 - a_i^(+-1) z)^(-m_i) as the
    truncated product of the closed forms C(m-1+j, m-1) a^(+-j)."""
    out = None
    for (angle, mono), m in poles:
        ser = {j: unit_value(angle, mono, -j if invert else j)
               * generalized_binomial(m - 1 + j, m - 1) for j in range(count)}
        out = ser if out is None else _ser_mul(out, ser, count)
    return out


def test_unit_value_at_angle_zero():
    from kvertex import series
    for mono in (MONO_ONE, T, S * T.inv(), Monomial.var("t", Fraction(1, 2))):
        for k in range(-6, 7):
            got = unit_value(Fraction(0), mono, k)
            assert got == LaurentPoly.term(series.cyclo_root(Fraction(0) * k), mono ** k)
            assert [type(c) for c in got.terms.values()] == [int], (mono, k)


def test_residue_k_at_characters_takes_no_roots_of_unity(monkeypatch):
    from kvertex import series
    calls = []
    cyclo_root = series.cyclo_root

    def counting(angle):
        calls.append(angle)
        return cyclo_root(angle)

    f = rf(LaurentPoly.var("z", 5), [(0, T, 1, 2), (0, S * T.inv(), 1, 3)])
    want = residue_k(f)
    monkeypatch.setattr(series, "cyclo_root", counting)
    assert residue_k(f) == want
    assert not calls, calls
    assert want == residue_k_oracle(f, f.total_pole_mult() + 8)


class TestDiagonalExpansion:
    def test_z_side_vanishes(self):
        for n in (1, 2):
            res = diagonal_z_side_residues(1, S, n, [T] * n, 6)
            assert all(r.is_zero() for r in res)

    def test_w_side_pivot_matches_exactly(self):
        # pivot = s reproduces rho_K(f) with zero defect at every order
        res = diagonal_w_side_residue(0, S, 1, [S], 8)
        assert res == {0: LP_ONE}

    def test_w_side_generic_pivot_filtration(self):
        order = 8
        res = diagonal_w_side_residue(0, S, 1, [T], order)
        base = residue_k(rf(one(), [(0, S, 1, 1)]))
        for j in range(order):
            defect = res.get(j, LP_ZERO) - (base if j == 0 else LP_ZERO)
            assert iadic_valuation_at_least(defect, order - j)

    def test_w_side_regrouping_matches_termwise_sum(self):
        # the Horner regrouping against a sum over k-vectors, one w-series
        # product per factor and k-vector
        for n, pivots, order in [(1, [T], 6), (1, [S], 6), (2, [T, T], 6), (2, [S, T], 5),
                                 (2, [S * T, S], 5), (3, [T, T, T], 4), (3, [S, T, S * T], 4)]:
            for a in range(-4, 5):
                assert diagonal_w_side_residue(a, S, n, pivots, order) == \
                    _w_side_termwise(a, S, n, pivots, order), (a, pivots, order)

    def test_w_side_visits_only_nonvanishing_k_vectors(self, monkeypatch):
        # at a = 0 < n only k = 0 has a nonzero residue; all 12^3 = 1,728
        # k-vectors would make at least one is_zero test each
        calls = []
        is_zero = LaurentPoly.is_zero

        def counting(p):
            calls.append(p)
            return is_zero(p)

        monkeypatch.setattr(LaurentPoly, "is_zero", counting)
        res = diagonal_w_side_residue(0, S, 3, [T, T, T], 12)
        assert len(calls) < 20, len(calls)
        assert res == {0: LP_ONE}   # the residue of 1/(1 - t z)^3

    def test_w_side_matches_u_form_horner(self):
        # the exact-in-w sum against the Horner taken in u = 1 - w, truncated
        # at every step: the 55 criterion-4 cases, then a >= n with a
        # fractional pivot
        pivot_set = [S, T, S * T]
        cases = []
        for n in range(1, 4):
            choices = [[p] * n for p in pivot_set]
            if n > 1:
                choices.append([pivot_set[i % 3] for i in range(n)])
            cases += [(a, n, pivots, 12) for a in range(-2, 3) for pivots in choices]
        assert len(cases) == 55
        half = Monomial.var("t", Fraction(1, 2))
        cases += [(a, n, pivots, 6) for n, pivots in [(1, [half]), (2, [half, S]), (2, [half, half])]
                  for a in range(n, n + 3)]
        for a, n, pivots, order in cases:
            assert diagonal_w_side_residue(a, S, n, pivots, order) == \
                _w_side_u_form(a, S, n, pivots, order), (a, pivots, order)

    def test_w_side_rejects_its_own_variable(self):
        from kvertex.residues import _W
        w = Monomial.var(_W)
        with pytest.raises(ValueError, match="may not use the variable"):
            diagonal_w_side_residue(1, S * w, 1, [T], 4)
        with pytest.raises(ValueError, match="may not use the variable"):
            diagonal_w_side_residue(1, S, 2, [T, T * w.inv()], 4)

    def test_iadic_valuation(self):
        p = (LP_ONE - LaurentPoly.term(1, T)) ** 3
        assert iadic_valuation_at_least(p, 3)
        assert not iadic_valuation_at_least(p, 4)
        assert iadic_valuation_at_least(LP_ZERO, 100)


def _w_side_termwise(a_pow, s, n, pivots, order):
    """diagonal_w_side_residue as a plain sum over k-vectors: rho of
    z^(a + |k|) / prod_t (1 - p_t z)^(k_t + 1), times (-1)^|k| prod_t p_t^k_t,
    times w^-a prod_t (1 - (s/p_t) w^-1)^k_t as a series in u = 1 - w."""
    u_series = {j: LaurentPoly.scalar(generalized_binomial(-a_pow, j) * (-1) ** j)
                for j in range(order)}    # w^-a = (1 - u)^-a
    factors = []
    for p in pivots:
        c = LaurentPoly.term(1, s * p.inv())
        factors.append({0: LP_ONE - c, **{j: -c for j in range(1, order)}})
    out = {}
    for kvec in itertools.product(range(order), repeat=n):
        poles = [((Fraction(0), p), k + 1) for p, k in zip(pivots, kvec)]
        zres = rho_simple_product(a_pow + sum(kvec), poles)
        for p, k in zip(pivots, kvec):
            zres = zres * LaurentPoly.term((-1) ** k, p ** k)
        wser = u_series
        for fs, k in zip(factors, kvec):
            for _ in range(k):
                wser = _ser_mul(wser, fs, order)
        for j, cw in wser.items():
            out[j] = out.get(j, LP_ZERO) + zres * cw
    return {j: c for j, c in out.items() if not c.is_zero()}


def _w_side_u_form(a_pow, s, n, pivots, w_order):
    """diagonal_w_side_residue by Horner in u = 1 - w over every k-vector:
    each step multiplies the truncated u-series by
    1 - c w^-1 = (1 - c) - c(u + u^2 + ...), and the sum is multiplied by
    the u-series of w^-a at the end."""
    if a_pow >= 0:
        wpart = {j: LaurentPoly.scalar(generalized_binomial(a_pow - 1 + j, j))
                 for j in range(w_order)}
    else:
        wpart = {j: LaurentPoly.scalar(generalized_binomial(-a_pow, j) * (-1) ** j)
                 for j in range(min(w_order, -a_pow + 1))}
    cs = [LaurentPoly.term(1, s * p.inv()) for p in pivots]

    def coefficient(kvec):
        zres = rho_simple_product(a_pow + sum(kvec),
                                  [((Fraction(0), p), k + 1) for p, k in zip(pivots, kvec)])
        for p, k in zip(pivots, kvec):
            zres = zres * LaurentPoly.term((-1) ** k, p ** k)
        return zres

    def times_factor(ser, c):
        out, prefix = {}, LP_ZERO
        for j in range(min(ser, default=w_order), w_order):
            a = ser.get(j, LP_ZERO)
            prefix = prefix + a
            r = a - c * prefix
            if not r.is_zero():
                out[j] = r
        return out

    def horner(kvec):
        t = len(kvec)
        if t == n:
            c = coefficient(kvec)
            return {} if c.is_zero() else {0: c}
        acc = {}
        for k in reversed(range(w_order)):
            acc = times_factor(acc, cs[t])
            for j, c in horner(kvec + [k]).items():
                acc[j] = acc.get(j, LP_ZERO) + c
            acc = {j: c for j, c in acc.items() if not c.is_zero()}
        return acc

    return _ser_mul(wpart, horner([]), w_order)


def test_residue_k_against_sympy_series():
    """[z^0] of sympy's expansion at z = 0 minus [w^0] of its expansion of
    f(1/w) at w = 0, on seeded f = sum c z^k / prod (1 - c_i z^n_i)^e_i."""
    sympy = pytest.importorskip("sympy")
    z, w, s, t = sympy.symbols("z w s t")
    chars = [(MONO_ONE, 1), (T, t), (S * T.inv(), s / t), (Monomial.var("t", 2), t ** 2)]

    def check(pows, coeffs, factors):
        num = LaurentPoly.from_terms((Monomial.var("z", k), c) for k, c in zip(pows, coeffs))
        expr = sum(c * z ** k for k, c in zip(pows, coeffs))
        for i, n, e in factors:
            expr = expr / (1 - chars[i][1] * z ** n) ** e
        at_zero = sympy.expand(sympy.series(expr, z, 0, 1).removeO()).coeff(z, 0)
        at_inf = sympy.expand(sympy.series(expr.subs(z, 1 / w), w, 0, 1).removeO()).coeff(w, 0)
        got = residue_k(rf(num, [(0, chars[i][0], n, e) for i, n, e in factors]))
        assert sympy.expand(at_zero - at_inf - sympy.sympify(str(got).replace("^", "**"))) == 0
        return got

    got = check([5, -2, 0], [1, 3, -2], [(1, 1, 2), (2, 2, 3)])
    assert got == LaurentPoly.from_terms([(MONO_ONE, -2), (S * T.inv(), 9), (T ** 2, 9)])
    rnd = random.Random(1)
    for _ in range(7):
        factors = [(i, rnd.randint(1, 2), rnd.randint(1, 3))
                   for i in rnd.sample(range(len(chars)), rnd.randint(1, 2))]
        pows = [rnd.randint(-4, -1), rnd.randint(0, 2), rnd.randint(3, 7)]
        check(pows, [rnd.choice([1, 3, -2]) for _ in pows], factors)


def test_residue_k_at_root_of_unity_angles_against_sympy():
    """As above, with factors 1 - zeta c z^n at roots of unity zeta of order
    3-8 and Cyclo numerator coefficients.  zeta_N is the symbol x, N the lcm
    of every order involved; sympy's [z^0] minus [w^0] minus residue_k is a
    Laurent polynomial in x over Q(s, t) that must vanish modulo Phi_N."""
    sympy = pytest.importorskip("sympy")
    z, w, s, t, x = sympy.symbols("z w s t x")
    chars = [(MONO_ONE, 1), (T, t), (S * T.inv(), s / t), (Monomial.var("t", 2), t ** 2)]
    names = {"t": t, "s": s}

    def sym(c, order):
        if isinstance(c, Cyclo):
            return sum(sympy.Rational(n, c.den) * x ** (k * order // c.order)
                       for k, n in enumerate(c.num))
        return sympy.Rational(c.numerator, c.denominator)

    def check(num_terms, factors):
        order = math.lcm(*(a.denominator for _i, a, _n, _e in factors),
                         *(c.order for _k, c in num_terms if isinstance(c, Cyclo)))
        f = rf(LaurentPoly.from_terms((Monomial.var("z", k), c) for k, c in num_terms),
               [(a, chars[i][0], n, e) for i, a, n, e in factors])
        got = residue_k(f)
        order = math.lcm(order, *(c.order for c in got.terms.values() if isinstance(c, Cyclo)))
        expr = sum(sym(c, order) * z ** k for k, c in num_terms)
        for i, a, n, e in factors:
            zeta = x ** (a.numerator * order // a.denominator)
            expr = expr / (1 - zeta * chars[i][1] * z ** n) ** e
        at_zero = sympy.expand(sympy.series(expr, z, 0, 1).removeO()).coeff(z, 0)
        at_inf = sympy.expand(sympy.series(expr.subs(z, 1 / w), w, 0, 1).removeO()).coeff(w, 0)
        mine = sum(sym(c, order) * sympy.Mul(*(names[v] ** sympy.Rational(e.numerator, e.denominator)
                                               for v, e in m.items()))
                   for m, c in zip(got.monomials(), got.terms.values()))
        diff = sympy.expand((at_zero - at_inf - mine) * x ** (4 * order))
        rest = sympy.Poly(diff, x, domain="QQ(s,t)").rem(sympy.Poly(sympy.cyclotomic_poly(order, x), x,
                                                                    domain="QQ(s,t)"))
        assert rest.is_zero, (str(f), str(got))
        return got

    got = check([(0, 1)], [(0, Fraction(1, 3), 1, 1)])
    assert got == LP_ONE  # 1/(1 - zeta3 z): the whole residue sits at z = 0
    rnd = random.Random(3)
    angles = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(2, 5), Fraction(1, 6),
              Fraction(3, 8)]
    for _ in range(6):
        factors = [(i, rnd.choice(angles), rnd.randint(1, 2), rnd.randint(1, 2))
                   for i in rnd.sample(range(len(chars)), rnd.randint(1, 2))]
        num_terms = [(rnd.randint(-3, -1), rnd.choice([1, -2])), (rnd.randint(0, 2), 3),
                     (rnd.randint(3, 6), root_of_unity(rnd.choice([3, 4, 5]), 1))]
        check(num_terms, factors)


CHAR_NAMES = ["t", "s", "s_{1,1}", "s_{1,2}", "t_{1,1}", "t_{2,1}"]


def _random_character(rnd):
    exps = {v: rnd.randint(-1, 1) for v in rnd.sample(CHAR_NAMES, rnd.randint(1, 3))}
    return Monomial.make(exps)


def test_residue_k_commutes_with_character_permutations(suite_seed):
    # lie_bracket takes the residue before the coset renamings; that rests
    # on residue_k(f.rename_chars(sigma)) == residue_k(f).rename(sigma)
    rnd = random.Random(suite_seed)
    checked = 0
    for _ in range(40):
        factors = [(rnd.choice([0, 0, Fraction(1, 2), Fraction(1, 3)]), _random_character(rnd),
                    rnd.choice([1, 1, -1, 2]), rnd.randint(1, 2))
                   for _ in range(rnd.randint(1, 3))]
        num = LaurentPoly.from_terms(
            (Monomial.var("z", rnd.randint(-3, 4)) * _random_character(rnd), rnd.choice([1, -1, 2, 3]))
            for _ in range(rnd.randint(1, 4)))
        f = rf(num, factors)
        base = residue_k(f)
        for _ in range(3):
            image = rnd.sample(CHAR_NAMES, len(CHAR_NAMES))
            sigma = dict(zip(CHAR_NAMES, image))
            assert residue_k(f.rename_chars(sigma)) == base.rename(sigma), (f, sigma)
            checked += not base.is_zero()
    assert checked > 30


def test_coset_renamings_are_bijections_of_the_union_names():
    from kvertex import laurent
    from kvertex.quiver import _offsets, _plan, block_vars

    def targets(src, moves):
        # each coset moves only the fields whose slot changes
        assert all(s != t for s, t in moves) and len(dict(moves)) == len(moves)
        to = dict(moves)
        return tuple(to.get(s, s) for s in src)

    for n in (1, 2, 3):
        for grades in itertools.product(range(5), repeat=2 * n):
            alpha, beta = grades[:n], grades[n:]
            if sum(grades) > 4:
                continue
            plan = _plan(alpha, beta, "z", "substitution")
            union_s = {laurent._SHIFT[v] for i, (a, b) in enumerate(zip(alpha, beta))
                       for v in block_vars("s", i + 1, a + b)}
            union_st = {laurent._SHIFT[v] for i, (a, b) in enumerate(zip(alpha, beta))
                        for v in block_vars("s", i + 1, a) + block_vars("t", i + 1, b)}
            src_f, src_g = plan.src_f, sum(_offsets("s", beta), ())
            src_st = src_f + sum(_offsets("t", beta), ())
            assert sorted(src_st) == sorted(union_st)
            assert plan.st[0] == () and targets(src_g, plan.to_t) == src_st[len(src_f):]
            k = len(src_f)
            by_s = [(targets(src_f, mf), targets(src_g, mg)) for mf, mg in plan.cosets]
            assert by_s == [(t[:k], t[k:]) for t in (targets(src_st, m) for m in plan.to_s)]
            by_st = [(t[:k], t[k:]) for t in (targets(src_st, m) for m in plan.st)]
            for cosets, union in ((by_s, union_s), (by_st, union_st)):
                seen = set()
                for tf, tg in cosets:
                    assert len(tf) == sum(alpha) and len(tg) == sum(beta)
                    assert len(set(tf + tg)) == len(union) and set(tf + tg) == union
                    seen.add((tf, tg))
                count = 1
                for a, b in zip(alpha, beta):
                    count *= generalized_binomial(a + b, a)
                assert len(seen) == len(cosets) == count, (alpha, beta)


def test_residue_naive_reads_depth_digits_of_a_numerator_vanishing_at_one(monkeypatch):
    # v0 = 400 >= depth = 2: the residue is 0 after two u-digits, not after
    # reading the numerator up to its valuation
    from kvertex import residues
    drawn = []

    def counting(zpows):
        for c in _u_digits(zpows):
            drawn.append(c)
            yield c

    monkeypatch.setattr(residues, "_u_digits", counting)
    f = rf((LP_ONE - LaurentPoly.var("z")) ** 400, [(0, MONO_ONE, 1, 2)])
    assert residue_naive(f) == LP_ZERO
    assert len(drawn) == 2


def test_zero_numerator_with_a_pole_at_one_has_zero_residues():
    # the u-digits of a zero numerator never turn nonzero, so the residues
    # at z=1 must answer before expanding
    f = rf(LP_ZERO, [(0, MONO_ONE, 1, 2), (0, MONO_ONE, 3, 1)])
    assert residue_naive(f) == LP_ZERO
    assert local_residue_at_root(f, Fraction(0)) == LP_ZERO
    assert local_residue_at_root(f, Fraction(1, 3)) == LP_ZERO
