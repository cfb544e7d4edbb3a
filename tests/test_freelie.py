import itertools
import random
from fractions import Fraction

from kvertex.freelie import (LieElement, bracket_word, is_lyndon,
                             standard_bracketing, tree_str, tree_word)

A, B, C, D = (LieElement.generator(x) for x in "abcd")


def assoc_bracket(x: dict, y: dict) -> dict:
    out: dict = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            for w, cc in ((w1 + w2, c1 * c2), (w2 + w1, -c1 * c2)):
                v = out.get(w, Fraction(0)) + cc
                if v:
                    out[w] = v
                else:
                    out.pop(w, None)
    return out


def test_antisymmetry_and_self_bracket():
    assert A.bracket(A).is_zero()
    assert (A.bracket(B) + B.bracket(A)).is_zero()
    x = A.bracket(B) + 2 * C
    assert (x.bracket(x)).is_zero()


def test_jacobi():
    def jac(x, y, z):
        return x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
    assert jac(A, B, C).is_zero()
    assert jac(A.bracket(B), C, D).is_zero()
    assert jac(A + B, B.bracket(C), D).is_zero()


def test_normal_form_is_lyndon_standard():
    probe = A.bracket(B.bracket(A.bracket(C))) + C.bracket(A).bracket(B)
    for t in probe.coeffs:
        w = tree_word(t)
        assert is_lyndon(w)
        assert standard_bracketing(w) == t


def test_associative_oracle_random():
    rnd = random.Random(11)
    gens = ["a", "b", "c"]

    def rand_elem(depth):
        if depth == 0 or rnd.random() < 0.4:
            return LieElement.generator(rnd.choice(gens))
        x = rand_elem(depth - 1).bracket(rand_elem(depth - 1))
        if rnd.random() < 0.5:
            x = x + Fraction(rnd.randint(-2, 2)) * rand_elem(depth - 1)
        return x

    for _ in range(40):
        x, y = rand_elem(2), rand_elem(2)
        assert x.bracket(y).to_assoc() == assoc_bracket(x.to_assoc(), y.to_assoc())


def test_confluence_on_short_words():
    # left-nested and right-nested bracketings of the same word normalize to
    # values whose associative expansions match the direct computation
    for w in itertools.product("ab", repeat=4):
        left = LieElement.generator(w[0])
        for g in w[1:]:
            left = left.bracket(LieElement.generator(g))
        right = LieElement.generator(w[-1])
        for g in reversed(w[:-1]):
            right = LieElement.generator(g).bracket(right)
        acc = {(w[0],): Fraction(1)}
        for g in w[1:]:
            acc = assoc_bracket(acc, {(g,): Fraction(1)})
        assert left.to_assoc() == acc
        acc = {(w[-1],): Fraction(1)}
        for g in reversed(w[:-1]):
            acc = assoc_bracket({(g,): Fraction(1)}, acc)
        assert right.to_assoc() == acc


def test_bracket_word_helper_and_str():
    x = bracket_word(["a", "b", "c"])
    assert x.to_assoc() == assoc_bracket(assoc_bracket({("a",): Fraction(1)},
                                                       {("b",): Fraction(1)}),
                                         {("c",): Fraction(1)})
    assert str(A.bracket(B)) == "[a,b]"
    assert tree_str(("a", ("b", "c"))) == "[a,[b,c]]"


def test_zero_and_scalars():
    assert (A - A).is_zero()
    assert str(LieElement.zero()) == "0"
    assert (Fraction(3, 2) * A).coeffs == {"a": Fraction(3, 2)}


def test_integral_coefficients_are_ints():
    # rational scalings that land back in Z leave int coefficients
    x = (Fraction(1, 6) * A.bracket(B) + Fraction(2, 3) * C) * 3
    assert x == LieElement({("a", "b"): 1}) * Fraction(1, 2) + C * 2
    assert [type(c) for c in (x * 2).coeffs.values()] == [int, int]
    assert all(type(c) is int for c in bracket_word(["a", "b", "a", "c"]).coeffs.values())
