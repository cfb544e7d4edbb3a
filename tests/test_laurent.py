import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvertex.laurent import (LP_ONE, LP_ZERO, MAX_EXPONENT, MONO_ONE, LaurentPoly,
                             Monomial, PolyFraction, laurent_exact_div, symmetrize)
from kvertex.quiver import VirtualCharacter
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


def test_scalar_product_demotes_integral_fractions():
    # a Fraction on either side of a coefficient product can make it integral
    for p in (LaurentPoly.var("t") * Fraction(2, 2), LaurentPoly.scalar(Fraction(1, 2)) * 4,
              LaurentPoly.scalar(Fraction(2, 3)) * Fraction(3, 2),
              LaurentPoly.from_terms([(Monomial.var("t"), Fraction(3, 4)),
                                      (MONO_ONE, Fraction(1, 2))]) * Fraction(4, 3)):
        assert all(type(c) is int for c in p.terms.values() if c.denominator == 1), p.terms


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


def test_fractional_exponents_normalise():
    half = Monomial.var("t", Fraction(1, 2))
    assert half ** 2 == Monomial.var("t")
    assert hash(half ** 2) == hash(Monomial.var("t"))
    assert half * half == Monomial.var("t") and hash(half * half) == hash(Monomial.var("t"))
    assert Monomial.var("t", Fraction(3, 7)) * Monomial.var("t", Fraction(4, 7)) == Monomial.var("t")
    assert str(Monomial.var("t", Fraction(1, 97)) ** 3) == "t^(3/97)"
    # values with different exponent denominators meet over their lcm
    p = LaurentPoly.var("t", Fraction(1, 2)) * LaurentPoly.var("t", Fraction(1, 3))
    assert str(p) == "t^(5/6)" and p == LaurentPoly.var("t", Fraction(5, 6))
    assert LaurentPoly.var("t", Fraction(1, 2)) ** 2 == LaurentPoly.var("t")
    assert list((LaurentPoly.var("z", Fraction(1, 2)) ** 2 * t).split_var("z")) == [1]


def test_exponent_overflow_raises():
    top = LaurentPoly.var("t", MAX_EXPONENT)
    bottom = LaurentPoly.var("t", -MAX_EXPONENT - 1)
    assert str(top * LaurentPoly.var("t", -1)) == f"t^{MAX_EXPONENT - 1}"
    assert str(top * bottom) == "t^-1"
    for thunk in (lambda: Monomial.var("t", MAX_EXPONENT + 1),
                  lambda: top * t,
                  lambda: (s + top) * (s + t),
                  lambda: bottom * LaurentPoly.var("t", -1),
                  lambda: bottom ** -1,
                  lambda: Monomial.var("t", -MAX_EXPONENT - 1).inv(),
                  lambda: Monomial.var("t", MAX_EXPONENT) * Monomial.var("t"),
                  lambda: Monomial.var("t", 2 ** 20) ** 2 ** 10,
                  lambda: top * LaurentPoly.var("u", Fraction(1, 2)),
                  lambda: (top * s).rename({"s": "t"}),
                  lambda: (top * s * z).rename({"s": "t", "z": "t"}),
                  lambda: (top * s).attach_degree(["s"], "t"),
                  lambda: (top * s).subs_mono("s", Monomial.var("t")),
                  lambda: laurent_exact_div(top * (1 - s), LaurentPoly.var("t", -1) * (1 - s))):
        with pytest.raises(OverflowError, match="exponent out of range"):
            thunk()


def test_keys_are_ints_in_results():
    """Every term map the engine returns is keyed by packed ints."""
    from kvertex.quiver import GradedElement, a2_quiver, conner_floyd, lie_bracket
    from kvertex.residues import residue_k
    from kvertex.series import RationalFunction, partial_fractions

    def polys(x):
        if isinstance(x, LaurentPoly):
            yield x
        elif isinstance(x, PolyFraction):
            yield x.num
            yield x.den
        elif isinstance(x, GradedElement):
            yield x.poly
        elif isinstance(x, dict):
            for v in x.values():
                yield from polys(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                yield from polys(v)

    q = a2_quiver()
    f = RationalFunction("z", 1 + z * s, [(0, Monomial.var("t"), 1, 2), (Fraction(1, 3), MONO_ONE, 2, 1)])
    pf = partial_fractions(f)
    results = [lie_bracket(GradedElement.unit(q, (1, 0)), GradedElement.unit(q, (0, 1))),
               conner_floyd(VirtualCharacter.make([Monomial.var("a"), Monomial.var("b", 2)],
                                                  [Monomial.var("a", -1)]), 1),
               residue_k(f), pf.poly_part, [term.coeff for term in pf.terms]]
    found = [p for r in results for p in polys(r)]
    assert len(found) >= 6 and any(len(p.terms) > 1 for p in found)
    for p in found:
        assert all(type(k) is int for k in p.terms), p


def test_symmetrize_examples():
    p = LaurentPoly.var("s1")
    assert symmetrize(p, [["s1", "s2"]]) == LaurentPoly.var("s1") + LaurentPoly.var("s2")
    p2 = z * LaurentPoly.var("s1") * LaurentPoly.var("s2")
    assert symmetrize(p2, [["s1", "s2"]]) == 2 * p2
    sym = symmetrize(LaurentPoly.var("s1", 2) * LaurentPoly.var("s2", -1), [["s1", "s2"]])
    assert symmetrize(sym, [["s1", "s2"]]) == 2 * sym


def test_symmetrize_of_symmetric_scales_by_group_order():
    # the group sum of a symmetric polynomial is |S_2| x |S_3| copies of it
    p = LaurentPoly.var("s1", 2) + 3 * LaurentPoly.var("s2") * t * LaurentPoly.var("a1", -1)
    blocks = [["s1", "s2"], ["a1", "a2", "a3"]]
    once = symmetrize(p, blocks)
    assert symmetrize(once, blocks) == 12 * once


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


def test_power_takes_no_wasted_products(monkeypatch):
    """p ** k by repeated squaring: bit_length(k) - 1 squarings and
    popcount(k) - 1 other products, so no square after the top bit and no
    product with the scalar 1."""
    from kvertex import laurent

    calls = []
    kernel = laurent._terms_mul

    def counting(A, B):
        calls.append((len(A), len(B)))
        return kernel(A, B)

    monkeypatch.setattr(laurent, "_terms_mul", counting)
    p = 1 - s * t + z
    expected = LP_ONE
    for k in range(1, 34):
        calls.clear()
        got = p ** k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k
        assert all(a > 1 and b > 1 for a, b in calls), k
        monkeypatch.setattr(laurent, "_terms_mul", kernel)
        expected = expected * p
        assert got == expected, k
        monkeypatch.setattr(laurent, "_terms_mul", counting)
    assert p ** 0 == LP_ONE


def _power_by_squaring(p, k):
    """LaurentPoly.__pow__ by repeated squaring, for any number of terms."""
    if k == 0:
        return LP_ONE
    out, base = None, p
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def _typed_terms(p):
    return {m: (type(c), c) for m, c in p.terms.items()}


def test_binomial_power_matches_squaring(monkeypatch):
    """A two-term base is raised by the binomial theorem: the same term map,
    coefficient types and text as repeated squaring, with no product of term
    maps."""
    from kvertex import laurent

    calls = []
    kernel = laurent._terms_mul

    def counting(A, B):
        calls.append((len(A), len(B)))
        return kernel(A, B)

    bases = [1 - z, Fraction(2, 3) - t * z, 1 - root_of_unity(3, 1) * z,
             LaurentPoly.var("t", Fraction(1, 2)) + LaurentPoly.var("s", Fraction(2, 3))]
    for base in bases:
        for k in range(41):
            monkeypatch.setattr(laurent, "_terms_mul", counting)
            calls.clear()
            got = base ** k
            assert not calls, (str(base), k)
            monkeypatch.setattr(laurent, "_terms_mul", kernel)
            want = _power_by_squaring(base, k)
            assert got.terms == want.terms and got.exp_den == want.exp_den, (str(base), k)
            assert _typed_terms(got) == _typed_terms(want), (str(base), k)
            assert str(got) == str(want), (str(base), k)


def test_binomial_power_overflows_where_squaring_does():
    big = LaurentPoly.var("t", 2 ** 28)
    with pytest.raises(OverflowError, match="exponent out of range"):
        (big + 1) ** 4
    assert str((big + 1) ** 3) == f"1 + 3*t^{2 ** 28} + 3*t^{2 ** 29} + t^{3 * 2 ** 28}"

    def outcome(power, base, k):
        try:
            return str(power(base, k))
        except OverflowError:
            return "overflow"

    bases = [big + 1, LaurentPoly.var("t", -2 ** 28) + s,
             LaurentPoly.from_terms([(Monomial.make({"t": 2 ** 27, "s": -2 ** 28}), 1),
                                     (Monomial.var("t", -2 ** 28), -2)]),
             LaurentPoly.var("t", Fraction(2 ** 28 + 1, 3)) + LaurentPoly.var("t", Fraction(1, 2))]
    for base in bases:
        for k in range(1, 10):
            assert outcome(LaurentPoly.__pow__, base, k) == outcome(_power_by_squaring, base, k), \
                (str(base), k)


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


# -- differential oracle: a tuple reference of the term kernels ----------------
#
# A monomial of the reference is a sorted tuple of (name, exponent) pairs
# with the zero exponents dropped, and a product merges two such tuples,
# adding exponents.  The packed kernels of kvertex.laurent must agree with
# it term by term and print the same text.

_NAMES = ["z", "w", "_unused_", "s", "t", "u", "x", "y"] + \
    [f"s_{{{i},{a}}}" for i in (1, 2) for a in (1, 2, 3)] + \
    [f"t_{{{i},{a}}}" for i in (1, 2) for a in (1, 2, 3, 4)] + ["a", "b", "c"]


def _ref_mono_mul(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va == vb:
            if ea + eb:
                out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _ref_acc(out, m, c):
    c = out.get(m, 0) + c
    if c:
        out[m] = c
    else:
        out.pop(m, None)


def _ref_add(A, B):
    out = dict(A)
    for m, c in B.items():
        _ref_acc(out, m, c)
    return out


def _ref_mul(A, B):
    out = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            _ref_acc(out, _ref_mono_mul(ma, mb), ca * cb)
    return out


def _ref_mono(exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _ref_map(A, fn):
    """Apply fn to the {name: exponent} map of every monomial."""
    out = {}
    for m, c in A.items():
        exps, c = fn(dict(m), c)
        _ref_acc(out, _ref_mono(exps), c)
    return out


def _ref_rename(A, ren):
    def fn(exps, c):
        out = {}
        for v, e in exps.items():
            out[ren.get(v, v)] = out.get(ren.get(v, v), 0) + e
        return out, c
    return _ref_map(A, fn)


def _ref_str(A):
    from kvertex.scalars import scalar_str
    if not A:
        return "0"
    parts = []
    for m, c in sorted(A.items(), key=lambda kv: tuple((v, Fraction(e)) for v, e in kv[0])):
        mono = "*".join(v if e == 1 else f"{v}^{Fraction(e)}" if Fraction(e).denominator == 1
                        else f"{v}^({Fraction(e)})" for v, e in m)
        if not m:
            parts.append(scalar_str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{scalar_str(c)}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _decoded(p):
    """{sorted (name, exponent) pairs: coefficient} of a LaurentPoly."""
    return {tuple((v, m.exponent(v)) for v in m.variables()): c
            for m, c in zip(p.monomials(), p.terms.values())}


def _same(p, A):
    assert _decoded(p) == A
    assert str(p) == _ref_str(A)


def _random_exponent(rnd):
    if rnd.random() < 0.2:
        return Fraction(rnd.randint(-70, 70), rnd.choice([2, 3, 31, 97]))
    return rnd.randint(-70, 70)


def _random_pair(rnd, names, nterms, nvars):
    """A random Laurent polynomial and its reference term map."""
    pairs = []
    ref = {}
    for _ in range(nterms):
        exps = {v: _random_exponent(rnd) for v in rnd.sample(names, rnd.randint(0, nvars))}
        c = rnd.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 7)])
        pairs.append((Monomial.make(exps), c))
        _ref_acc(ref, _ref_mono({v: Fraction(e) for v, e in exps.items()}), c)
    return LaurentPoly.from_terms(pairs), ref


def test_kernels_against_tuple_reference(suite_seed):
    rnd = random.Random(suite_seed)
    for case in range(60):
        names = rnd.sample(_NAMES, rnd.randint(3, len(_NAMES)))
        a, A = _random_pair(rnd, names, rnd.randint(0, 8), min(7, len(names)))
        b, B = _random_pair(rnd, names, rnd.randint(0, 8), min(7, len(names)))
        _same(a, A)
        _same(a * b, _ref_mul(A, B))
        _same(a + b, _ref_add(A, B))
        _same(a - b, _ref_add(A, {m: -c for m, c in B.items()}))
        # renames that merge names, swap them and bring in new ones
        x, y, w = rnd.sample(names, 3)
        for ren in ({x: y}, {x: y, y: x}, {x: "fresh_name", y: x}, {x: y, w: y}):
            _same(a.rename(ren), _ref_rename(A, ren))
        # substitution of a name by a monomial, on integral exponents only
        v = rnd.choice(names)
        integral = {m: c for m, c in A.items() if all(type(e) is int or e.denominator == 1
                                                         for w, e in m if w == v)}
        ai = LaurentPoly.from_terms((Monomial.make(dict(m)), c) for m, c in integral.items())
        val = {rnd.choice(names): rnd.randint(-3, 3), "t": Fraction(1, 2)}

        def subs(exps, c):
            e = exps.pop(v, 0)
            for w, f in val.items():
                exps[w] = exps.get(w, 0) + f * e
            return exps, c
        _same(ai.subs_mono(v, Monomial.make(val)), _ref_map(integral, subs))
        # degree attachment
        block = rnd.sample(names, min(3, len(names)))
        target = rnd.choice(names + ["z"])
        sign = rnd.choice([1, -1])

        def attach(exps, c):
            d = sum(exps.get(w, 0) for w in block)
            exps[target] = exps.get(target, 0) + sign * d
            return exps, c
        _same(a.attach_degree(block, target, sign), _ref_map(A, attach))
        # split by one name, on integral exponents of that name
        split = ai.split_var(v)
        ref_split = {}
        for m, c in integral.items():
            exps = dict(m)
            e = int(exps.pop(v, 0))
            _ref_acc(ref_split.setdefault(e, {}), _ref_mono(exps), c)
        assert sorted(split) == sorted(k for k, r in ref_split.items() if r)
        for e, piece in split.items():
            _same(piece, ref_split[e])
        # the full symmetric-group sum over one block
        blk = rnd.sample(names, min(3, len(names)))
        ref_sym = {}
        for perm in itertools.permutations(blk):
            ref_sym = _ref_add(ref_sym, _ref_rename(A, dict(zip(blk, perm))))
        _same(symmetrize(a, [blk]), ref_sym)
        # exact division of a product by one factor
        if B and case % 3 == 0:
            assert laurent_exact_div(a * b, b) == a
        # display order of monomials, and of virtual characters
        monos = a.monomials() + b.monomials()
        keys = list(A) + list(B)
        order = sorted(keys, key=lambda m: tuple((w, Fraction(e)) for w, e in m))
        assert [tuple((w, m.exponent(w)) for w in m.variables()) for m in sorted(monos)] == order
        vc = VirtualCharacter.make(monos)
        assert [tuple((w, m.exponent(w)) for w in m.variables()) for m in vc.positive] == order


def test_exact_division_against_tuple_reference(suite_seed):
    rnd = random.Random(suite_seed + 1)
    for _ in range(20):
        names = rnd.sample(["s", "t", "u", "z", "s_{1,2}"], 3)
        a, A = _random_pair(rnd, names, rnd.randint(1, 4), 2)
        b, B = _random_pair(rnd, names, rnd.randint(2, 4), 2)
        q = laurent_exact_div(a * b, b)
        _same(q, A)
        r = laurent_exact_div(a * b + LaurentPoly.var(names[0], 200), b)
        assert r is None or _decoded(r * b) == _decoded(a * b + LaurentPoly.var(names[0], 200))
