from fractions import Fraction

import pytest

from kvertex.hopf import (NumericalPoly, PhiElement, XiElement, chern_character,
                          coproduct, divided_product, from_numerical,
                          pair_tensor, phi_pair, star, to_numerical,
                          translation_pairing)
from kvertex.laurent import LaurentPoly
from kvertex.series import RationalFunction, expand_at


def phi(k):
    return PhiElement.basis(k)


class TestPairing:
    def test_values(self):
        assert phi_pair(phi(3), 5) == -10
        assert all(phi_pair(phi(0), n) == 1 for n in (-3, 0, 7))
        assert phi_pair(phi(1), -1) == 1  # (-1) binom(-1,1)

    def test_linear(self):
        a = phi(1) + Fraction(1, 2) * phi(2)
        assert phi_pair(a, 4) == phi_pair(phi(1), 4) + Fraction(1, 2) * phi_pair(phi(2), 4)


class TestStar:
    def test_closed_formula_example(self):
        assert star(phi(1), phi(1)) == 2 * phi(2) - phi(1)

    def test_unit(self):
        for b in range(5):
            assert star(phi(0), phi(b)) == phi(b)

    def test_commutative(self):
        for a in range(7):
            for b in range(a, 7):
                assert star(phi(a), phi(b)) == star(phi(b), phi(a))

    def test_against_numerical_oracle(self):
        for a in range(9):
            for b in range(9):
                oracle = from_numerical(to_numerical(phi(a)) * to_numerical(phi(b)))
                assert star(phi(a), phi(b)) == oracle


class TestCoproduct:
    def test_displayed_formula(self):
        pairs = coproduct(phi(2))
        assert [(str(l), str(r)) for l, r in pairs] == \
            [("1", "phi^2"), ("phi^1", "phi^1"), ("phi^2", "1")]
        assert coproduct(phi(0)) == [(phi(0), phi(0))]

    def test_leibniz_example(self):
        assert pair_tensor(coproduct(phi(3)), 2, 1) == phi_pair(phi(3), 3) == -1

    def test_leibniz_range(self):
        for k in range(6):
            d = coproduct(phi(k))
            for m in range(-6, 7):
                for n in range(-6, 7):
                    assert pair_tensor(d, m, n) == phi_pair(phi(k), m + n)

    def test_hopf_compatibility(self):
        def star_tensor(pa, pb):
            return [(star(l1, l2), star(r1, r2)) for l1, r1 in pa for l2, r2 in pb]
        for a in range(5):
            for b in range(5):
                lhs = coproduct(star(phi(a), phi(b)))
                rhs = star_tensor(coproduct(phi(a)), coproduct(phi(b)))
                for m in range(-4, 5):
                    for n in range(-4, 5):
                        assert pair_tensor(lhs, m, n) == pair_tensor(rhs, m, n)


class TestNumerical:
    def test_basis_images(self):
        assert to_numerical(phi(1)) == NumericalPoly([0, -1])
        assert from_numerical(NumericalPoly([0, 0, 1])) == 2 * phi(2) - phi(1)

    def test_rejects_non_numerical(self):
        with pytest.raises(ValueError):
            from_numerical(NumericalPoly([0, Fraction(1, 2)]))

    def test_roundtrip(self):
        for k in range(11):
            assert from_numerical(to_numerical(phi(k))) == phi(k)

    def test_numerical_predicate(self):
        assert NumericalPoly([0, 0, Fraction(1, 2), Fraction(1, 2)]).is_numerical()
        assert not NumericalPoly([0, Fraction(1, 3)]).is_numerical()


class TestChernCharacter:
    def test_examples(self):
        assert chern_character(phi(1)) == XiElement({1: -1})
        assert chern_character(phi(0)) == XiElement({0: 1})

    def test_divided_power_product(self):
        assert divided_product({1: Fraction(1)}, {1: Fraction(1)}) == {2: Fraction(2)}
        assert divided_product({2: Fraction(1)}, {3: Fraction(1)}) == {5: Fraction(10)}

    def test_xi_divided_roundtrip(self):
        x = XiElement({0: 1, 2: Fraction(1, 3), 5: -2})
        assert XiElement.from_divided(x.to_divided()) == x

    def test_pairing_agreement(self):
        for k in range(9):
            ch = chern_character(phi(k))
            for n in range(-10, 11):
                assert ch.eval(n) == phi_pair(phi(k), n)

    def test_algebra_map(self):
        for a in range(6):
            for b in range(6):
                lhs = chern_character(star(phi(a), phi(b)))
                ra, rb = chern_character(phi(a)), chern_character(phi(b))
                assert all(lhs.eval(n) == ra.eval(n) * rb.eval(n) for n in range(-10, 11))


class TestTranslationPairing:
    def test_terminating_case(self):
        ser = translation_pairing(2, 3)
        assert [ser.coeff(k) for k in range(3)] == [1, -2, 1]  # z^2 = (1-(1-z))^2

    def test_constant(self):
        assert translation_pairing(0, 5).coeffs == {0: Fraction(1)}

    def test_matches_multiplicative_expansion(self):
        for n in (-10, -3, -1, 1, 4, 10):
            tp = translation_pairing(n, 25)
            ser = expand_at(RationalFunction.from_poly(LaurentPoly.var("z", n)), "one", 25)
            assert tp.same_up_to(ser, 25)


class TestSharedBody:
    """Text, equality, reprs and products of the three coefficient classes."""

    def test_numerical_poly_text(self):
        assert str(NumericalPoly([0, 0, 1])) == "deg^2"
        assert str(NumericalPoly([1, -1])) == "-deg + 1"
        assert str(NumericalPoly([])) == "0"
        assert str(NumericalPoly([0, 0, 0])) == "0"
        assert str(NumericalPoly([Fraction(1, 2), 0, -3])) == "-3*deg^2 + 1/2"
        assert str(to_numerical(phi(3))) == "-1/6*deg^3 + 1/2*deg^2 - 1/3*deg"

    def test_xi_product_against_numerical_product(self):
        for a in range(5):
            for b in range(5):
                xa, xb = chern_character(phi(a)), chern_character(phi(b))
                pa, pb = to_numerical(phi(a)), to_numerical(phi(b))
                x, p = xa * xb, pa * pb
                assert type(x) is XiElement and type(p) is NumericalPoly
                assert all(x.eval(n) == p.eval(n) for n in range(-6, 7))
        assert XiElement({1: 1}) * XiElement({1: -1, 0: 2}) == XiElement({2: -1, 1: 2})

    def test_phi_zero_and_basis_range(self):
        zero = PhiElement.zero()
        assert not zero and str(zero) == "0" and zero == PhiElement({})
        assert phi(2) and not (phi(2) - phi(2))
        with pytest.raises(ValueError):
            PhiElement.basis(-1)

    def test_reprs(self):
        assert repr(2 * phi(1) - phi(0)) == "<PhiElement 2*phi^1 - 1>"
        assert repr(PhiElement.zero()) == "<PhiElement 0>"
        assert repr(chern_character(phi(2))) == "<XiElement 1/2*xi^2 - 1/2*xi^1>"
        assert repr(XiElement({})) == "<XiElement 0>"

    def test_equality_is_per_class(self):
        assert NumericalPoly([0, 1]) != XiElement({1: 1})
        assert XiElement({1: 1}) != NumericalPoly([0, 1])
        assert NumericalPoly([0, 1]) == NumericalPoly([0, 1, 0])
        assert XiElement({0: 1}) != PhiElement({0: 1})
