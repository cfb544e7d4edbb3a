"""Batch property suites shared by the command line and the test suite.

Every suite returns a list of (case_id, passed, detail) triples in a
deterministic order; randomized suites take an explicit seed (the command
line reads KVERTEX_SUITE_SEED).  Case counts and ranges follow the desk-
scale bounds used throughout the package.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .hopf import (PhiElement, chern_character, coproduct, from_numerical,
                   pair_tensor, phi_pair, star, to_numerical, translation_pairing)
from .laurent import LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial, PolyFraction
from .quiver import (GradedElement, Quiver, VirtualCharacter, a2_quiver,
                     axiom_check, conner_floyd, jordan_quiver, lie_bracket,
                     reduced_pole_shape, symmetrized_wedge, vertex_kernel,
                     wedge_minus_one)
from .residues import (K_THEORY, diagonal_w_side_residue,
                       diagonal_z_side_residues, constraint_suite,
                       iadic_valuation_at_least, local_residue_at_root,
                       residue_k, residue_k_oracle, residue_naive)
from .series import RationalFunction, expand_at
from .wallcross import (StabilityData, forward_transform, free_table,
                        invert_transform, master_identity_residual)

DEFAULT_SEED = 0


def suite_residue_constraints(n_max: int = 6, k_max: int = 4):
    rows = constraint_suite(K_THEORY, n_max, k_max)
    return [(f"rho_K(z^{n*k+a}/(1-z^{n})^{k+1})", ok, f"value {v}")
            for (n, k, a, v, _e, ok) in rows]


def suite_residue_comparison(max_order: int = 6, max_mult: int = 4):
    cases = []
    angles = sorted({Fraction(j, n) for n in range(1, max_order + 1) for j in range(n)})
    for angle in angles:
        for m in range(1, max_mult + 1):
            f = RationalFunction("z", LP_ONE, [(angle, MONO_ONE, 1, m)])
            rk = residue_k(f)
            rn = residue_naive(f)
            ok1 = rk == LaurentPoly.scalar(1)
            expected_naive = LaurentPoly.scalar(1 if angle == 0 else 0)
            ok2 = (rn == expected_naive) if isinstance(rn, LaurentPoly) \
                else PolyFraction.of(rn) == PolyFraction.of(expected_naive)
            cases.append((f"rho_K[gamma={angle},m={m}]", ok1, f"value {rk}"))
            cases.append((f"rho_naive[gamma={angle},m={m}]", ok2, f"value {rn}"))
    return cases


def random_rational(rnd: random.Random, var: str = "z") -> RationalFunction:
    """Random test function: <=3 factors (1 - c z^n)^e with characters from
    {t, t^2, s/t}, n <= 3, multiplicity e <= 3, and a small prefactor."""
    chars = [Monomial.var("t"), Monomial.var("t", 2),
             Monomial.var("s") * Monomial.var("t", -1)]
    nf = rnd.randint(1, 3)
    factors = []
    for i in rnd.sample(range(3), nf):
        factors.append((Fraction(0), chars[i], rnd.randint(1, 3), rnd.randint(1, 3)))
    num = LaurentPoly.var(var, rnd.randint(-3, 3))
    extra = rnd.randint(-2, 2)
    if extra:
        num = num + LaurentPoly.var(var, rnd.randint(0, 2)) * extra
    return RationalFunction(var, num, factors)


def suite_residue_oracle(count: int = 200, seed: int = DEFAULT_SEED):
    rnd = random.Random(seed)
    cases = []
    for i in range(count):
        f = random_rational(rnd)
        closed = residue_k(f)
        oracle = residue_k_oracle(f, f.total_pole_mult() + 8)
        cases.append((f"random[{i}]", closed == oracle, f"value {closed}"))
    return cases


def suite_residue_theorem(count: int = 24, seed: int = DEFAULT_SEED):
    """rho_K = rho_naive - sum of the finite local residues, on inputs with
    poles only at roots of unity of order <= 6."""
    rnd = random.Random(seed)
    cases = []
    for i in range(count):
        nf = rnd.randint(1, 2)
        factors = []
        for _ in range(nf):
            n = rnd.randint(1, 6)
            factors.append((Fraction(rnd.randint(0, n - 1), n), MONO_ONE,
                            rnd.randint(1, 2), rnd.randint(1, 2)))
        f = RationalFunction("z", LaurentPoly.var("z", rnd.randint(0, 2)), factors)
        lhs = residue_k(f)
        rhs = residue_naive(f)
        pole_angles = set()
        for (a, _m, n), _e in f.den.items():
            for j in range(n):
                pang = (Fraction(j) - Fraction(a)) / n % 1
                if pang != 0:
                    pole_angles.add(pang)
        for pang in sorted(pole_angles):
            rhs = rhs - local_residue_at_root(f, pang)
        ok = PolyFraction.of(lhs) == PolyFraction.of(rhs)
        cases.append((f"residue-theorem[{i}]", ok, f"value {lhs}"))
    return cases


def suite_diagonal_expansion(order: int = 12):
    """Expansion laws for f(z/w), f = z^a/(1 - s z)^n: the z-directed
    expansion has termwise vanishing residue, and the w-directed one returns
    rho_K(f) up to the combined (1-w, augmentation) filtration at the
    truncation order."""
    s = Monomial.var("s")
    pivot_set = [s, Monomial.var("t"), s * Monomial.var("t")]
    cases = []
    for n in range(1, 4):
        pivot_choices = [[p] * n for p in pivot_set]
        if n > 1:
            pivot_choices.append([pivot_set[i % 3] for i in range(n)])
        for a in range(-2, 3):
            f = RationalFunction("z", LaurentPoly.var("z", a), [(0, s, 1, n)])
            base = residue_k(f)
            for pi, pivots in enumerate(pivot_choices):
                zres = diagonal_z_side_residues(a, s, n, pivots, order)
                okz = all(r.is_zero() for r in zres)
                cases.append((f"z-side[a={a},n={n},p={pi}]", okz, "all residues 0"))
                wres = diagonal_w_side_residue(a, s, n, pivots, order)
                okw = True
                for j in range(order):
                    defect = wres.get(j, LP_ZERO) - (base if j == 0 else LP_ZERO)
                    if not iadic_valuation_at_least(defect, order - j):
                        okw = False
                        break
                cases.append((f"w-side[a={a},n={n},p={pi}]", okw,
                              f"rho_K(f) = {base}"))
    return cases


def suite_hopf():
    cases = []
    ok = all(star(PhiElement.basis(a), PhiElement.basis(b))
             == from_numerical(to_numerical(PhiElement.basis(a))
                               * to_numerical(PhiElement.basis(b)))
             for a in range(9) for b in range(9))
    cases.append(("star == numerical oracle (a,b <= 8)", ok, ""))

    ok = True
    for k in range(6):
        d = coproduct(PhiElement.basis(k))
        for m in range(-6, 7):
            for n in range(-6, 7):
                if pair_tensor(d, m, n) != phi_pair(PhiElement.basis(k), m + n):
                    ok = False
    cases.append(("coproduct Leibniz pairing (k <= 5, |m|,|n| <= 6)", ok, ""))

    ok = True
    for n in range(-10, 11):
        tp = translation_pairing(n, 25)
        ser = expand_at(RationalFunction.from_poly(LaurentPoly.var("z", n)), "one", 25)
        if not tp.same_up_to(ser, 25):
            ok = False
    cases.append(("translation pairing == multiplicative expansion (order 25)", ok, ""))

    ok = all(chern_character(PhiElement.basis(k)).eval(n) == phi_pair(PhiElement.basis(k), n)
             for k in range(9) for n in range(-10, 11))
    cases.append(("chern character pairing (k <= 8, |n| <= 10)", ok, ""))

    ok = True
    for a in range(6):
        for b in range(6):
            lhs = chern_character(star(PhiElement.basis(a), PhiElement.basis(b)))
            ra = chern_character(PhiElement.basis(a))
            rb = chern_character(PhiElement.basis(b))
            if any(lhs.eval(n) != ra.eval(n) * rb.eval(n) for n in range(-10, 11)):
                ok = False
    cases.append(("chern character is multiplicative (|n| <= 10)", ok, ""))

    ok = all(from_numerical(to_numerical(PhiElement.basis(k))) == PhiElement.basis(k)
             for k in range(11))
    cases.append(("from_numerical . to_numerical = id (k <= 10)", ok, ""))
    return cases


def small_quivers():
    """All quivers with <= 2 vertices and <= 2 edges, deterministically."""
    out = [Quiver(("1",), tuple(("1", "1") for _ in range(k))) for k in range(3)]
    pairs = [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    seen = set()
    for k in range(3):
        for combo in itertools.combinations_with_replacement(pairs, k):
            key = tuple(sorted(combo))
            if key in seen:
                continue
            seen.add(key)
            out.append(Quiver(("1", "2"), key))
    return out


def random_graded_element(rnd: random.Random, q: Quiver, alpha) -> GradedElement:
    """Random symmetric state: symmetrized monomial in the block variables
    with a small character twist."""
    from .laurent import symmetrize
    from .quiver import block_vars
    mono: dict = {}
    for i, c in enumerate(alpha):
        for v in block_vars("s", i + 1, c):
            e = rnd.randint(-1, 2)
            if e:
                mono[v] = e
    e = rnd.randint(-1, 1)
    if e:
        mono["t"] = e
    p = LaurentPoly.term(rnd.choice([1, 2, 3, -1]), Monomial.make(mono))
    blocks = [block_vars("s", i + 1, c) for i, c in enumerate(alpha) if c]
    p = symmetrize(p, blocks) if blocks else p
    return GradedElement(q, alpha, p, check=False)


def _random_grades(rnd: random.Random, q: Quiver, max_total: int):
    while True:
        grades = []
        for _ in range(3):
            grades.append(tuple(rnd.randint(0, max_total) for _ in range(q.n)))
        if 0 < sum(sum(g) for g in grades) <= max_total:
            return grades


def suite_vertex_axioms(seed: int = DEFAULT_SEED, max_total: int = 4,
                        per_config: int = 20):
    cases = []
    for qi, q in enumerate(small_quivers()):
        rnd = random.Random((seed, qi).__hash__() & 0x7FFFFFFF)
        ok_all = {w: True for w in ("vacuum", "skew", "weak_assoc", "locality")}
        for _ in range(per_config):
            alpha, beta, gamma = _random_grades(rnd, q, max_total)
            f = random_graded_element(rnd, q, alpha)
            g = random_graded_element(rnd, q, beta)
            h = random_graded_element(rnd, q, gamma)
            for which in ok_all:
                ok, _w = axiom_check(q, which, f, g, h)
                if not ok:
                    ok_all[which] = False
        for which, ok in ok_all.items():
            cases.append((f"{which}[quiver {qi}: {len(q.vertices)}v/{len(q.edges)}e]",
                          ok, f"{per_config} random triples"))
    return cases


def suite_reduced(seed: int = DEFAULT_SEED, max_total: int = 4, per_config: int = 20):
    cases = []
    for qi, q in enumerate(small_quivers()):
        rnd = random.Random((seed, qi).__hash__() & 0x7FFFFFFF)
        ok = True
        for _ in range(per_config):
            alpha, beta, _gamma = _random_grades(rnd, q, max_total)
            f = random_graded_element(rnd, q, alpha)
            g = random_graded_element(rnd, q, beta)
            if not reduced_pole_shape(vertex_kernel(f, g)):
                ok = False
        cases.append((f"reduced[quiver {qi}]", ok, "poles only at 1 - c z^(+-1)"))
    return cases


def _degree_zero_states(q: Quiver, max_per_arg: int = 2):
    states = [GradedElement.unit(q, a) for a in _grades_upto(q, max_per_arg)]
    if q.n == 2:
        states.append(GradedElement(
            q, (1, 1), LaurentPoly.var("s_{1,1}") * LaurentPoly.var("s_{2,1}", -1)))
    v = LaurentPoly.var("s_{1,1}") * LaurentPoly.var("s_{1,2}", -1)
    states.append(GradedElement(q, (2,) + (0,) * (q.n - 1),
                                v + LaurentPoly.var("s_{1,2}") * LaurentPoly.var("s_{1,1}", -1)))
    return states


def _grades_upto(q: Quiver, total: int):
    out = []
    for v in itertools.product(*(range(total + 1) for _ in range(q.n))):
        if 0 < sum(v) <= total:
            out.append(v)
    return out


def suite_lie(max_per_arg: int = 2):
    cases = []
    qa = a2_quiver()
    b12 = lie_bracket(GradedElement.unit(qa, (1, 0)), GradedElement.unit(qa, (0, 1)))
    b21 = lie_bracket(GradedElement.unit(qa, (0, 1)), GradedElement.unit(qa, (1, 0)))
    cases.append(("A2 [1_e1, 1_e2] = -1", b12.poly == LaurentPoly.scalar(-1), str(b12)))
    cases.append(("A2 [1_e2, 1_e1] = +1", b21.poly == LaurentPoly.scalar(1), str(b21)))
    for q, tag in ((qa, "A2"), (jordan_quiver(), "Jordan")):
        states = _degree_zero_states(q, max_per_arg)
        ok_anti = True
        for x, y in itertools.combinations(states, 2):
            if not (lie_bracket(x, y).poly + lie_bracket(y, x).poly).is_zero():
                ok_anti = False
        for x in states:
            if not lie_bracket(x, x).poly.is_zero():
                ok_anti = False
        cases.append((f"antisymmetry[{tag}]", ok_anti, f"{len(states)} states"))
        ok_jac = True
        for x, y, z in itertools.combinations(states, 3):
            s = lie_bracket(x, lie_bracket(y, z)).poly \
                + lie_bracket(y, lie_bracket(z, x)).poly \
                + lie_bracket(z, lie_bracket(x, y)).poly
            if not s.is_zero():
                ok_jac = False
        cases.append((f"jacobi[{tag}]", ok_jac, "all 3-subsets"))
    return cases


def random_virtual_character(rnd: random.Random, max_rank: int = 5) -> VirtualCharacter:
    chars = [Monomial.var("a"), Monomial.var("b"), Monomial.var("a", 2),
             Monomial.var("a") * Monomial.var("b", -1), MONO_ONE]
    pos = [rnd.choice(chars) for _ in range(rnd.randint(0, max_rank))]
    neg = [rnd.choice(chars) for _ in range(rnd.randint(0, 2))]
    return VirtualCharacter.make(pos, neg)


def suite_conner_floyd(count: int = 50, seed: int = DEFAULT_SEED):
    rnd = random.Random(seed)
    cases = []
    ok = True
    for i in range(count):
        e = random_virtual_character(rnd)
        plus = VirtualCharacter.make(e.positive + (MONO_ONE,), e.negative)
        minus = VirtualCharacter.make(e.positive, e.negative + (MONO_ONE,))
        for idx in range(-1, e.rank + 2):
            v = PolyFraction.of(conner_floyd(e, idx))
            if not (v == PolyFraction.of(conner_floyd(plus, idx))
                    and v == PolyFraction.of(conner_floyd(minus, idx))):
                ok = False
    cases.append((f"c_i(E +- O) = c_i(E) on {count} random characters", ok, ""))
    ok = True
    rnd2 = random.Random(seed + 1)
    for _i in range(20):
        chars = [Monomial.var("a", rnd2.randint(-2, 2)) * Monomial.var("b", rnd2.randint(-1, 1))
                 for _ in range(rnd2.randint(1, 5))]
        e = VirtualCharacter.make(chars)
        lhs = wedge_minus_one(e.dual())
        det_inv = LaurentPoly.term(1, e.det().inv())
        rhs = wedge_minus_one(e) * det_inv * (-1 if e.rank % 2 else 1)
        if not (PolyFraction.of(lhs) == PolyFraction.of(rhs)):
            ok = False
    cases.append(("wedge duality on honest ranks <= 5", ok, ""))
    ok = True
    for _i in range(10):
        chars = [Monomial.var("a", rnd2.randint(-2, 2)) * Monomial.var("b", rnd2.randint(-1, 1))
                 for _ in range(rnd2.randint(1, 4))]
        e = VirtualCharacter.make(chars)
        lhs = symmetrized_wedge(e.dual())
        det_sq = LaurentPoly.term(1, e.det() ** (-2))
        rhs = symmetrized_wedge(e) * det_sq * (-1 if e.rank % 2 else 1)
        if not (PolyFraction.of(lhs) == PolyFraction.of(rhs)):
            ok = False
    cases.append(("symmetrized duality carries det^-2", ok, ""))
    return cases


def suite_wallcross_roundtrip():
    cases = []
    st1 = StabilityData.make((1,), (0,), {"k": (2,)})
    alphas1 = [(n,) for n in range(1, 5)]
    Z1 = free_table(alphas1)
    Zt1 = {a: forward_transform(Z1, "k", a, st1) for a in alphas1}
    rec1 = invert_transform(Zt1, "k", st1)
    cases.append(("roundtrip one-vertex totals <= 4",
                  all(rec1[a] == Z1[a] for a in alphas1), ""))
    st2 = StabilityData.make((1, 1), (0, 0), {"k": (1, 3)})
    alphas2 = [a for a in itertools.product(range(4), range(4)) if 0 < sum(a) <= 3]
    Z2 = free_table(alphas2)
    Zt2 = {a: forward_transform(Z2, "k", a, st2) for a in alphas2}
    rec2 = invert_transform(Zt2, "k", st2)
    cases.append(("roundtrip two-vertex totals <= 3",
                  all(rec2[a] == Z2[a] for a in alphas2), ""))
    ok = all(Zt1[(n,)] == st1.frame_dim("k", (n,)) * Z1[(n,)]
             for n in (1,)) and Zt2[(1, 0)] == st2.frame_dim("k", (1, 0)) * Z2[(1, 0)]
    cases.append(("indecomposables: Ztilde = lambda_k Z", ok, ""))
    stm = StabilityData.make((1,), (0,), {"k1": (3,), "k2": (3,)})
    Zc = free_table([(1,), (2,)])
    T1 = {a: forward_transform(Zc, "k1", a, stm) for a in [(1,), (2,)]}
    T2 = {a: forward_transform(Zc, "k2", a, stm) for a in [(1,), (2,)]}
    r = master_identity_residual(T1, T2, "k1", "k2", (2,), stm)
    cases.append(("master residual vanishes for matched framings", r.is_zero(), str(r)))
    # with distinct framings the residual does not vanish by antisymmetry alone
    std = StabilityData.make((1,), (0,), {"k1": (2,), "k2": (3,)})
    T1 = {a: forward_transform(Z1, "k1", a, std) for a in alphas1}
    T2 = {a: forward_transform(Z1, "k2", a, std) for a in alphas1}
    rs = [master_identity_residual(T1, T2, "k1", "k2", a, std) for a in alphas1]
    cases.append(("master residual vanishes for framings (2,)/(3,), totals <= 4",
                  all(r.is_zero() for r in rs), "; ".join(str(r) for r in rs if not r.is_zero())))
    # two vertices of slopes 0 and 1: the splits across slopes are left out
    sts = StabilityData.make((1, 1), (0, 1), {"k1": (1, 3), "k2": (2, 1)})
    T1 = {a: forward_transform(Z2, "k1", a, sts) for a in alphas2}
    T2 = {a: forward_transform(Z2, "k2", a, sts) for a in alphas2}
    rs = [master_identity_residual(T1, T2, "k1", "k2", a, sts) for a in alphas2]
    cases.append(("master residual vanishes for slopes (0,1), framings (1,3)/(2,1), "
                  "totals <= 3", all(r.is_zero() for r in rs),
                  "; ".join(str(r) for r in rs if not r.is_zero())))
    return cases


SUITES = {
    "residue-constraints": suite_residue_constraints,
    "residue-comparison": suite_residue_comparison,
    "residue-oracle": suite_residue_oracle,
    "residue-theorem": suite_residue_theorem,
    "diagonal-expansion": suite_diagonal_expansion,
    "hopf": suite_hopf,
    "vertex-axioms": suite_vertex_axioms,
    "reduced": suite_reduced,
    "lie": suite_lie,
    "conner-floyd": suite_conner_floyd,
    "wallcross-roundtrip": suite_wallcross_roundtrip,
}
