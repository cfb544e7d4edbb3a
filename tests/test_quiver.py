import itertools
import math
import random
from fractions import Fraction

import pytest

from kvertex.laurent import (LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial,
                             PolyFraction)
from kvertex.quiver import (GradedElement, Quiver, VirtualCharacter, a2_quiver,
                            axiom_check, conner_floyd, deformation_character,
                            jordan_quiver, lie_bracket, reduced_pole_shape,
                            symmetrized_wedge, theta_kernel, translate,
                            vertex_kernel, vertex_shuffle, wedge_minus_one)
from kvertex.residues import residue_k
from kvertex.series import RationalFunction

Q1 = Quiver(("1",), ())
QJ = jordan_quiver()
QA2 = a2_quiver()


def sv(i, a, e=1):
    return LaurentPoly.var(f"s_{{{i},{a}}}", e)


class TestQuiverStructure:
    def test_validation(self):
        with pytest.raises(ValueError):
            Quiver(("1",), (("1", "2"),))
        with pytest.raises(ValueError):
            Quiver(("1", "1"), ())

    def test_units(self):
        assert QA2.unit("2") == (0, 1)
        assert QA2.zero() == (0, 0)


class TestGradedElement:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            GradedElement(Q1, (2,), sv(1, 1))
        GradedElement(Q1, (2,), sv(1, 1) + sv(1, 2))  # fine

    def test_grade_zero_scalars_only(self):
        with pytest.raises(ValueError):
            GradedElement(Q1, (0,), sv(1, 1), check=False)
        GradedElement(Q1, (0,), LaurentPoly.var("t") + 2, check=False)

    def test_degree_zero_predicate(self):
        assert GradedElement.unit(QA2, (1, 1)).is_degree_zero()
        el = GradedElement(QA2, (1, 1), sv(1, 1) * LaurentPoly.var("s_{2,1}", -1))
        assert el.is_degree_zero()
        assert not GradedElement(Q1, (1,), sv(1, 1)).is_degree_zero()


class TestDeformationCharacter:
    def test_one_vertex_no_edges(self):
        dc = deformation_character(Q1, (1,), (1,))
        assert [str(m) for m in dc.positive] == ["s_{1,1}^-1*t_{1,1}"]
        assert dc.negative == ()

    def test_jordan_rank_zero(self):
        dc = deformation_character(QJ, (1,), (1,))
        assert dc.positive == dc.negative
        assert dc.rank == 0

    def test_a2_cross_term(self):
        dc = deformation_character(QA2, (1, 0), (0, 1))
        assert dc.positive == ()
        assert [str(m) for m in dc.negative] == ["s_{1,1}^-1*t_{2,1}"]


class TestThetaKernel:
    def test_one_vertex_numerator(self):
        th = theta_kernel(Q1, (1,), (1,), full=False)
        s, t = Monomial.var("s_{1,1}"), Monomial.var("t_{1,1}")
        z = Monomial.var("z")
        expect = (LP_ONE - LaurentPoly.term(1, s * t.inv() * z.inv())) \
            * (LP_ONE - LaurentPoly.term(1, t * s.inv() * z))
        assert th == expect

    def test_jordan_cancels_to_one(self):
        th = theta_kernel(QJ, (1,), (1,), full=True)
        assert th.is_poly() and th.num == LP_ONE

    def test_a2_single_denominator(self):
        th = theta_kernel(QA2, (1, 0), (0, 1), full=True)
        ref = RationalFunction("z", LP_ONE,
                               [(0, Monomial.var("s_{1,1}") * Monomial.var("t_{2,1}", -1), -1, 1)])
        assert th == ref


class TestTranslate:
    def test_degree_two(self):
        g = GradedElement(Q1, (2,), sv(1, 1) * sv(1, 2))
        assert translate(g).poly == sv(1, 1) * sv(1, 2) * LaurentPoly.var("z", 2)

    def test_degree_zero_fixed(self):
        g = GradedElement(Q1, (2,), sv(1, 1) * sv(1, 2, -1) + sv(1, 2) * sv(1, 1, -1))
        assert translate(g).poly == g.poly

    def test_vacuum_fixed(self):
        v = GradedElement.vacuum(Q1)
        assert translate(v).poly == v.poly

    def test_composition_multiplicative(self):
        g = GradedElement(Q1, (1,), sv(1, 1, 2))
        zw = translate(translate(g, "z"), "w")
        direct = g.poly.attach_degree({"s_{1,1}"}, "z").attach_degree({"s_{1,1}"}, "w")
        assert zw.poly == direct

    def test_inverse_degree_convention(self):
        g = GradedElement(Q1, (1,), sv(1, 1))
        assert translate(g, convention="inverse_degree").poly == sv(1, 1) * LaurentPoly.var("z", -1)


class TestVertexShuffle:
    def test_spec_example(self):
        f = GradedElement(Q1, (1,), sv(1, 1))
        out = vertex_shuffle(f, f)
        assert out.alpha == (2,)
        assert out.poly == 2 * sv(1, 1) * sv(1, 2) * LaurentPoly.var("z")

    def test_vacuum_left_identity(self):
        f = GradedElement(Q1, (1,), sv(1, 1))
        out = vertex_shuffle(GradedElement.vacuum(Q1), f)
        assert out.poly == f.poly and out.alpha == f.alpha

    def test_two_constants(self):
        u = GradedElement.unit(Q1, (1,))
        assert vertex_shuffle(u, u).poly == LaurentPoly.scalar(2)

    def test_output_symmetric(self):
        f = GradedElement(Q1, (1,), sv(1, 1, 2))
        g = GradedElement(Q1, (2,), sv(1, 1) + sv(1, 2))
        out = vertex_shuffle(f, g)
        from kvertex.quiver import is_block_symmetric
        assert is_block_symmetric(out.poly, out.alpha)


class TestVertexKernel:
    def test_a2_example(self):
        Y = vertex_kernel(GradedElement.unit(QA2, (1, 0)), GradedElement.unit(QA2, (0, 1)))
        ref = RationalFunction("z", LP_ONE,
                               [(0, Monomial.var("s_{1,1}") * Monomial.var("t_{2,1}", -1), -1, 1)])
        assert Y == ref
        assert reduced_pole_shape(Y)

    def test_jordan_falls_back_to_shuffle(self):
        Y = vertex_kernel(GradedElement.unit(QJ, (1,)), GradedElement.unit(QJ, (1,)))
        assert Y.is_poly() and Y.num == LaurentPoly.scalar(2)

    def test_vacuum(self):
        g = GradedElement.unit(QA2, (0, 1))
        Y = vertex_kernel(GradedElement.vacuum(QA2), g)
        assert Y.is_poly() and Y.num == LP_ONE

    def test_kernel_degenerates_to_shuffle_without_poles(self):
        # no edges: the propagator has no surviving pole factors, so the
        # kernel operation is exactly the shuffle
        f = GradedElement(Q1, (1,), sv(1, 1))
        kernel = vertex_kernel(f, f)
        assert kernel.is_poly()
        shuffle = vertex_shuffle(f, f).poly.rename({"s_{1,2}": "t_{1,1}"})
        assert kernel.num == shuffle


class TestLieBracket:
    def test_a2_concrete_values(self):
        b12 = lie_bracket(GradedElement.unit(QA2, (1, 0)), GradedElement.unit(QA2, (0, 1)))
        b21 = lie_bracket(GradedElement.unit(QA2, (0, 1)), GradedElement.unit(QA2, (1, 0)))
        assert b12.poly == LaurentPoly.scalar(-1) and b12.alpha == (1, 1)
        assert b21.poly == LaurentPoly.scalar(1)

    def test_no_edge_bracket_vanishes(self):
        u = GradedElement.unit(Q1, (1,))
        assert lie_bracket(u, u).poly.is_zero()

    def test_rejects_nonzero_degree(self):
        f = GradedElement(Q1, (1,), sv(1, 1))
        with pytest.raises(ValueError):
            lie_bracket(f, f)

    def test_antisymmetry_and_jacobi_small(self):
        a = GradedElement.unit(QA2, (1, 0))
        b = GradedElement.unit(QA2, (0, 1))
        c = GradedElement(QA2, (1, 1), sv(1, 1) * LaurentPoly.var("s_{2,1}", -1))
        assert (lie_bracket(a, c).poly + lie_bracket(c, a).poly).is_zero()
        s = lie_bracket(a, lie_bracket(b, c)).poly \
            + lie_bracket(b, lie_bracket(c, a)).poly \
            + lie_bracket(c, lie_bracket(a, b)).poly
        assert s.is_zero()


def _bracket_oracle(f, g):
    """The bracket by the symmetrize-first route: one residue of the whole
    coset-symmetrized kernel vertex operation."""
    return residue_k(vertex_kernel(f, g)).rename(_union_to_s(f.alpha, g.alpha))


def _union_to_s(alpha, beta):
    """The renaming of the s/t union slots t_{i,b} to s_{i,a+b}."""
    return {f"t_{{{i + 1},{b}}}": f"s_{{{i + 1},{a + b}}}"
            for i, (a, n) in enumerate(zip(alpha, beta)) for b in range(1, n + 1)}


def _random_degree_zero_state(rnd, q, alpha):
    """Symmetrized monomial of total block degree zero with a character twist."""
    from kvertex.laurent import symmetrize
    from kvertex.quiver import block_vars
    names = [v for i, c in enumerate(alpha) for v in block_vars("s", i + 1, c)]
    exps = [rnd.randint(-1, 2) for _ in names]
    exps[-1] -= sum(exps)
    mono = dict(zip(names, exps))
    mono["t"] = rnd.randint(-1, 1)
    p = LaurentPoly.term(rnd.choice([1, 2, -1]), Monomial.make(mono))
    blocks = [block_vars("s", i + 1, c) for i, c in enumerate(alpha) if c]
    return GradedElement(q, alpha, symmetrize(p, blocks), check=False)


class TestBracketResidueFirst:
    """lie_bracket takes the residue before the coset sum; the symmetrize-first
    route of _bracket_oracle must give the same text."""

    def test_suite_state_pairs(self):
        from kvertex.suites import _degree_zero_states
        for q in (QA2, QJ):
            states = _degree_zero_states(q)
            for x, y in itertools.product(states, states):
                assert str(lie_bracket(x, y).poly) == str(_bracket_oracle(x, y)), (x, y)

    def test_nested_jacobi_brackets(self):
        from kvertex.suites import _degree_zero_states
        for q in (QA2, QJ):
            for x, y, z in itertools.combinations(_degree_zero_states(q), 3):
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    inner = lie_bracket(b, c)
                    assert str(lie_bracket(a, inner).poly) == str(_bracket_oracle(a, inner))

    def test_seeded_states_on_two_edge_quivers(self, suite_seed):
        from kvertex.suites import small_quivers
        rnd = random.Random(suite_seed)
        quivers = [q for q in small_quivers() if len(q.edges) == 2]
        assert len(quivers) == 11
        for q in quivers:
            grades = [g for g in itertools.product(range(3), repeat=q.n) if 0 < sum(g) <= 2]
            for _ in range(6):
                alpha, beta = rnd.choice(grades), rnd.choice(grades)
                f = _random_degree_zero_state(rnd, q, alpha)
                g = _random_degree_zero_state(rnd, q, beta)
                assert f.is_degree_zero() and g.is_degree_zero()
                assert str(lie_bracket(f, g).poly) == str(_bracket_oracle(f, g)), (q, f, g)

    @pytest.mark.parametrize("alpha,beta", [((2, 0), (0, 2)), ((1, 1), (1, 1))])
    def test_one_residue_and_no_rational_sum(self, monkeypatch, alpha, beta):
        from kvertex import quiver
        residues, adds = [], []
        real_residue, real_add = quiver.residue_k, RationalFunction.__add__

        def counting_residue(f):
            residues.append(f)
            return real_residue(f)

        def counting_add(self, other):
            adds.append(other)
            return real_add(self, other)

        monkeypatch.setattr(quiver, "residue_k", counting_residue)
        monkeypatch.setattr(RationalFunction, "__add__", counting_add)
        f, g = GradedElement.unit(QA2, alpha), GradedElement.unit(QA2, beta)
        lie_bracket(f, g)
        assert len(residues) == 1
        assert adds == []


# -- the rename route: variables renamed by name, coset by coset ---------------


def _rename_cosets(alpha, beta):
    """Dicts renaming s_{i,1..a}, t_{i,1..b} onto the s/t union slots, one
    per coset of S_(a+b)/(S_a x S_b)."""
    from kvertex.quiver import block_vars
    per_vertex = []
    for i, (a, b) in enumerate(zip(alpha, beta)):
        ins_s, ins_t = block_vars("s", i + 1, a), block_vars("t", i + 1, b)
        union = ins_s + ins_t
        choices = []
        for subset in itertools.combinations(range(a + b), a):
            rest = [k for k in range(a + b) if k not in subset]
            ren = dict(zip(ins_s, [union[k] for k in subset]))
            ren.update(zip(ins_t, [union[k] for k in rest]))
            choices.append(ren)
        per_vertex.append(choices)
    for combo in itertools.product(*per_vertex):
        ren = {}
        for c in combo:
            ren.update(c)
        yield ren


def _rename_integrand(f, g, zvar, convention):
    sign = {"substitution": 1, "inverse_degree": -1}[convention]
    fz = f.poly.attach_degree(set(f.all_block_vars()), zvar, sign)
    return fz * g.poly.rename({v: "t" + v[1:] for v in g.all_block_vars()})


def _rename_shuffle(f, g, zvar, convention):
    integrand = _rename_integrand(f, g, zvar, convention)
    total = LP_ZERO
    for ren in _rename_cosets(f.alpha, g.alpha):
        total = total + integrand.rename(ren)
    return total.rename(_union_to_s(f.alpha, g.alpha))


def _rename_kernel(f, g, zvar, convention):
    from kvertex.quiver import propagator_kernel
    integrand = propagator_kernel(f.quiver, f.alpha, g.alpha, zvar) \
        * _rename_integrand(f, g, zvar, convention)
    total = None
    for ren in _rename_cosets(f.alpha, g.alpha):
        piece = integrand.rename_chars(ren)
        total = piece if total is None else total + piece
    return total


def _rename_bracket(f, g, zvar):
    from kvertex.quiver import propagator_kernel
    res = residue_k(propagator_kernel(f.quiver, f.alpha, g.alpha, zvar)
                    * _rename_integrand(f, g, zvar, "substitution"))
    to_s = _union_to_s(f.alpha, g.alpha)
    total = LP_ZERO
    for ren in _rename_cosets(f.alpha, g.alpha):
        total = total + res.rename({v: to_s.get(u, u) for v, u in ren.items()})
    return total


def _fresh_names(count):
    from kvertex import laurent
    names, k = [], 0
    while len(names) < count:
        if f"fresh{k}" not in laurent._SHIFT:
            names.append(f"fresh{k}")
        k += 1
    return names


class TestCosetPlan:
    """The vertex operations move packed block fields by one plan per grade
    pair; the rename route above must give the same text."""

    def _compare(self, rnd, q, alpha, beta, zvar="z", twist=None, stray=0):
        """With a stray exponent, each state of nonzero grade also carries
        s_{1,a+1}^stray, a field outside its vertex-1 block of size a."""
        from kvertex.suites import random_graded_element

        def with_stray(p, grade):
            return p * sv(1, grade[0] + 1, stray) if stray and any(grade) else p

        def state(grade):
            x, y = (random_graded_element(rnd, q, grade) for _ in range(2))
            p = x.poly + y.poly
            if twist is not None:
                p = p * twist
            return GradedElement(q, grade, with_stray(p, grade), check=False)

        f, g = state(alpha), state(beta)
        for conv in ("substitution", "inverse_degree"):
            assert str(vertex_shuffle(f, g, zvar, conv).poly) \
                == str(_rename_shuffle(f, g, zvar, conv)), (q, f, g, conv)
            assert str(vertex_kernel(f, g, zvar, conv)) \
                == str(_rename_kernel(f, g, zvar, conv)), (q, f, g, conv)
        x, y = (_random_degree_zero_state(rnd, q, grade) if any(grade) else
                GradedElement(q, grade, LaurentPoly.var("t", rnd.randint(-1, 1)))
                for grade in (alpha, beta))
        if twist is not None:
            x, y = (GradedElement(q, s.alpha, s.poly * twist, check=False) for s in (x, y))
        x, y = (GradedElement(q, s.alpha, with_stray(s.poly, s.alpha), check=False)
                for s in (x, y))
        assert str(lie_bracket(x, y, zvar).poly) == str(_rename_bracket(x, y, zvar)), (q, x, y)

    def test_every_small_quiver_up_to_total_grade_four(self, suite_seed):
        from kvertex.suites import small_quivers
        rnd = random.Random(suite_seed)
        for q in small_quivers():
            grades = [g for g in itertools.product(range(5), repeat=q.n) if sum(g) <= 4]
            pairs = [(a, b) for a in grades for b in grades if 0 < sum(a) + sum(b) <= 4]
            for alpha, beta in rnd.sample(pairs, 3):
                self._compare(rnd, q, alpha, beta)

    def test_every_grade_pair_up_to_total_two(self, suite_seed):
        # every small quiver and every grade pair of total <= 2, the pair of
        # vacua included: the identity cosets and the smallest moving ones
        from kvertex.suites import small_quivers
        rnd = random.Random(suite_seed + 2)
        for q in small_quivers():
            grades = [g for g in itertools.product(range(3), repeat=q.n) if sum(g) <= 2]
            for alpha, beta in itertools.product(grades, grades):
                if sum(alpha) + sum(beta) <= 2:
                    self._compare(rnd, q, alpha, beta)

    def test_stray_block_field_outside_the_grade(self, suite_seed):
        # s_{1,a+1} lies outside the grade's vertex-1 block: an identity
        # coset leaves it in place, a moving coset adds a block field to it
        from kvertex.quiver import _plan
        rnd = random.Random(suite_seed + 3)
        for q in (Q1, QJ, QA2):
            one, other = q.unit("1"), q.unit(q.vertices[-1]) if q.n > 1 else q.zero()
            for alpha, beta in ((one, q.zero()), (q.zero(), one), (one, one), (one, other)):
                moving = any(mf or mg for mf, mg in _plan(alpha, beta, "z", "substitution").cosets)
                assert moving == (alpha == beta == one)
                for stray in (1, -2):
                    self._compare(rnd, q, alpha, beta, stray=stray)
        f = GradedElement(Q1, (1,), sv(1, 1, 2) * sv(1, 2, 3), check=False)
        assert translate(f).poly == sv(1, 1, 2) * sv(1, 2, 3) * LaurentPoly.var("z", 2)
        out = vertex_shuffle(f, GradedElement(Q1, (1,), sv(1, 1), check=False))
        assert out.poly == sv(1, 1, 2) * sv(1, 2, 4) * LaurentPoly.var("z", 2) \
            + sv(1, 1) * sv(1, 2, 5) * LaurentPoly.var("z", 2)

    def test_half_integer_character_and_fresh_names(self, suite_seed):
        from kvertex.suites import small_quivers
        rnd = random.Random(suite_seed + 1)
        quivers = small_quivers()
        half = LaurentPoly.var("t", Fraction(1, 2))
        for _ in range(6):
            self._compare(rnd, rnd.choice(quivers), (1, 1), (1, 0), twist=half)
        # z and the twists get slots registered mid-test, above every block
        # slot: a _HALVES read before the registration lacks their bias, and
        # the borrow of the negative twist exponents would show
        fresh = _fresh_names(40)
        for name in fresh:
            Monomial.var(name)
        for k in range(6):
            twist = LaurentPoly.var(fresh[-1 - k], Fraction(-1, 2)) * LaurentPoly.var(fresh[k], -1)
            q = rnd.choice(quivers)
            grade = rnd.choice([(1, 1), (2, 0), (0, 1)])[:q.n]
            self._compare(rnd, q, grade, grade[::-1], zvar=fresh[20 + k], twist=twist)

    def test_plan_cache_is_keyed_by_grades_only(self):
        from kvertex.quiver import _plan
        from kvertex.suites import random_graded_element
        rnd = random.Random(5)
        _plan.cache_clear()
        seen = set()
        while len(seen) < 50:
            f = random_graded_element(rnd, QA2, (2, 1))
            g = random_graded_element(rnd, QA2, (1, 1))
            seen.add((str(f.poly), str(g.poly)))
            vertex_shuffle(f, g)
        assert _plan.cache_info().currsize == 1

    def test_plan_matches_the_tuple_scan_build(self):
        # _Plan orders a coset's union slots by set membership; the build by
        # a scan of the chosen tuple, which it replaced, gives the same moves
        from kvertex.quiver import _moves, _offsets, _Plan, dim_add
        from kvertex.suites import small_quivers

        def tuple_scan(alpha, beta):
            s_off, t_off = _offsets("s", dim_add(alpha, beta)), _offsets("t", beta)
            per_vertex = []
            for a, b, s, t in zip(alpha, beta, s_off, t_off):
                st = s[:a] + t
                choices = []
                for first in itertools.combinations(range(a + b), a):
                    order = first + tuple(k for k in range(a + b) if k not in first)
                    choices.append((_moves(s[:a], [s[k] for k in first]),
                                    _moves(s[:b], [s[k] for k in order[a:]]),
                                    _moves(st, [st[k] for k in order]),
                                    _moves(st, [s[k] for k in order])))
                per_vertex.append(choices)
            mf, mg, st, to_s = zip(*(tuple(sum(parts, ()) for parts in zip(*combo))
                                     for combo in itertools.product(*per_vertex)))
            to_t = _moves(sum(_offsets("s", beta), ()), sum(t_off, ()))
            return list(zip(mf, mg)), st, to_s, to_t

        for n in sorted({q.n for q in small_quivers()}):
            grades = list(itertools.product(range(4), repeat=n))
            for alpha, beta in itertools.product(grades, grades):
                plan = _Plan(alpha, beta, "z", "substitution")
                assert (plan.cosets, plan.st, plan.to_s, plan.to_t) == tuple_scan(alpha, beta)

    def test_overflow_is_raised(self):
        from kvertex.laurent import MAX_EXPONENT
        # the block degree 3 * MAX_EXPONENT does not fit the z field
        top = sv(1, 1, MAX_EXPONENT) * sv(1, 2, MAX_EXPONENT) * sv(1, 3, MAX_EXPONENT)
        with pytest.raises(OverflowError):
            vertex_shuffle(GradedElement(Q1, (3,), top), GradedElement.unit(Q1, (1,)))
        # 4 * MAX_EXPONENT wraps round the 32-bit field of a z in the top
        # slot, and only the range check of the z field sees it
        top = top * sv(1, 4, MAX_EXPONENT)
        with pytest.raises(OverflowError):
            vertex_shuffle(GradedElement(Q1, (4,), top), GradedElement.vacuum(Q1),
                           zvar=_fresh_names(1)[0])
        # s_{1,2} is outside the grade (1,) block: in every coset the union
        # slot s_{1,2} gets it and a block field as well
        stray = GradedElement(Q1, (1,), sv(1, 1, MAX_EXPONENT) * sv(1, 2, MAX_EXPONENT),
                              check=False)
        with pytest.raises(OverflowError):
            vertex_shuffle(stray, stray)


class TestAxioms:
    def test_spec_examples(self):
        f = GradedElement(Q1, (1,), sv(1, 1))
        assert axiom_check(Q1, "vacuum", f, f)[0]
        assert axiom_check(Q1, "skew", f, f)[0]
        assert axiom_check(Q1, "weak_assoc", f, f, f)[0]
        assert axiom_check(Q1, "locality", f, f, f)[0]

    def test_both_conventions(self):
        f = GradedElement(Q1, (1,), sv(1, 1))
        for conv in ("substitution", "inverse_degree"):
            for w in ("vacuum", "skew", "weak_assoc", "locality"):
                assert axiom_check(Q1, w, f, f, f, convention=conv)[0]

    def test_witness_on_failure(self):
        # deliberately break symmetry by comparing mismatched states through skew
        f = GradedElement(Q1, (1,), sv(1, 1))
        g = GradedElement(Q1, (1,), 2 * sv(1, 1))
        ok, witness = axiom_check(Q1, "skew", f, g)
        # skew symmetry holds for any two states, so use vacuum with a doctored state
        assert ok and witness is None

    def test_randomized_configurations(self, suite_seed):
        from kvertex.suites import (random_graded_element, small_quivers,
                                    _random_grades)
        rnd = random.Random(suite_seed)
        for q in small_quivers()[:6]:
            alpha, beta, gamma = _random_grades(rnd, q, 4)
            f = random_graded_element(rnd, q, alpha)
            g = random_graded_element(rnd, q, beta)
            h = random_graded_element(rnd, q, gamma)
            for w in ("vacuum", "skew", "weak_assoc", "locality"):
                ok, witness = axiom_check(q, w, f, g, h)
                assert ok, (q, w, witness)


def test_witness_names_the_first_differing_monomial():
    from kvertex.quiver import _witness
    lhs = sv(1, 1) + 3 * sv(1, 2) + LaurentPoly.var("t", Fraction(1, 2))
    rhs = sv(1, 1) + LaurentPoly.var("t", Fraction(1, 2)) * 2
    w = _witness(lhs, rhs)
    assert (w["lhs"], w["rhs"]) == (lhs, rhs)
    assert str(w["monomial"]) == "s_{1,2}" and w["coefficient"] == 3
    w = _witness(rhs, lhs + sv(1, 1, -1))
    assert str(w["monomial"]) == "s_{1,1}^-1" and w["coefficient"] == -1


class TestConnerFloyd:
    def test_line_bundle(self):
        l = Monomial.var("l")
        e = VirtualCharacter.make([l])
        assert conner_floyd(e, 1) == LP_ONE - LaurentPoly.term(1, l.inv())
        # literal coefficient extraction: c_0 carries the det twist
        assert conner_floyd(e, 0) == LaurentPoly.term(1, l.inv())

    def test_top_class_rank_two(self):
        a, b = Monomial.var("a"), Monomial.var("b")
        e = VirtualCharacter.make([a, b])
        expect = (LP_ONE - LaurentPoly.term(1, a.inv())) * (LP_ONE - LaurentPoly.term(1, b.inv()))
        assert conner_floyd(e, 2) == expect

    def test_trivial_summand_stability(self, suite_seed):
        from kvertex.suites import random_virtual_character
        rnd = random.Random(suite_seed)
        for _ in range(15):
            e = random_virtual_character(rnd, max_rank=4)
            plus = VirtualCharacter.make(e.positive + (MONO_ONE,), e.negative)
            minus = VirtualCharacter.make(e.positive, e.negative + (MONO_ONE,))
            for i in range(-1, e.rank + 2):
                v = PolyFraction.of(conner_floyd(e, i))
                assert v == PolyFraction.of(conner_floyd(plus, i))
                assert v == PolyFraction.of(conner_floyd(minus, i))

    def test_against_full_series_reference(self):
        # the 46 distinct characters of the suite's default draw, with E + O
        # and E - O, at every index -3 .. rank + 3
        from kvertex.suites import DEFAULT_SEED, random_virtual_character
        rnd = random.Random(DEFAULT_SEED)
        drawn = {}
        for _ in range(50):
            e = random_virtual_character(rnd)
            drawn.setdefault(str(e), e)
        assert len(drawn) == 46
        for e in drawn.values():
            for v in (e, VirtualCharacter.make(e.positive + (MONO_ONE,), e.negative),
                      VirtualCharacter.make(e.positive, e.negative + (MONO_ONE,))):
                _assert_matches_reference(v)

    def test_against_sympy_series(self):
        # the u^(rank - i) coefficient of prod_pos (1 - s/chi) / prod_neg (1 - s/chi)
        # at s = 1 - u, with the characters' variables symbolic: sympy's
        # power series in u over the fraction field Q(a, b)
        sympy = pytest.importorskip("sympy")
        from sympy.polys.ring_series import rs_mul, rs_series_inversion
        field = sympy.QQ.frac_field(*sympy.symbols("a b"))
        ring, u = sympy.polys.rings.ring("u", field)
        gens = dict(zip("ab", field.gens))

        def sym(p):
            out = field(0)
            for m, c in zip(p.monomials(), p.terms.values()):
                term = field(sympy.Rational(c.numerator, c.denominator))
                for name, k in m.items():
                    term *= gens[name] ** int(k)
                out += term
            return out

        a, b = Monomial.var("a"), Monomial.var("b")
        for e in (VirtualCharacter.make([a, b], [a * b]),
                  VirtualCharacter.make([a], [b, MONO_ONE]),
                  VirtualCharacter.make([a ** 2, b], [a, b.inv()]),
                  VirtualCharacter.make([MONO_ONE, a], [b, b, MONO_ONE])):
            # trivial characters of e.negative divide by u: they shift the index
            depth = sum(1 for chi in e.negative if chi.is_one())
            prec = e.rank + depth + 4
            num, den = ring(1), ring(1)
            for chi in e.positive:
                num *= 1 - (1 - u) * sym(LaurentPoly.term(1, chi.inv()))
            for chi in e.negative:
                if not chi.is_one():
                    den *= 1 - (1 - u) * sym(LaurentPoly.term(1, chi.inv()))
            series = rs_mul(num, rs_series_inversion(den, u, prec), u, prec)
            for i in range(-3, e.rank + 4):
                got = PolyFraction.of(conner_floyd(e, i))
                want = series.coeff(u ** (e.rank - i + depth)) if e.rank - i + depth >= 0 else 0
                assert sym(got.num) == want * sym(got.den), (str(e), i)

    def test_repeated_characters_against_reference(self, suite_seed):
        # multiplicity up to 4 of a character on each side and up to three
        # trivial characters on each side: one binomial power or one
        # division per distinct character, a valuation shift per trivial one
        rnd = random.Random(suite_seed)
        a, b = Monomial.var("a"), Monomial.var("b")
        chars = [a, b, a ** 2, a * b.inv()]
        cases = [VirtualCharacter.make([a] * 4 + [MONO_ONE] * 3, [b] * 4 + [MONO_ONE] * 3),
                 VirtualCharacter.make([a] * 3 + [b], [a] * 2),
                 VirtualCharacter.make([MONO_ONE] * 3, [a ** 2] * 4)]
        for _ in range(6):
            pos = [c for c in rnd.sample(chars, 2) for _ in range(rnd.randint(1, 4))]
            neg = [c for c in rnd.sample(chars, rnd.randint(1, 2))
                   for _ in range(rnd.randint(1, 4))]
            cases.append(VirtualCharacter.make(pos + [MONO_ONE] * rnd.randint(0, 3),
                                               neg + [MONO_ONE] * rnd.randint(0, 3)))
        for e in cases:
            _assert_matches_reference(e)

    def test_common_characters_cancel(self, suite_seed):
        # shared characters of multiplicity up to 3 on both sides: they
        # cancel fully, leave only positives or leave only negatives
        rnd = random.Random(suite_seed)
        a, b = Monomial.var("a"), Monomial.var("b")
        ab = a * b.inv()
        cases = [VirtualCharacter.make([a] * 3 + [b], [a] * 3 + [b]),
                 VirtualCharacter.make([a] * 3 + [ab] * 2, [a] * 2 + [ab] * 2),
                 VirtualCharacter.make([a, b] * 2, [a] * 3 + [b] * 3),
                 VirtualCharacter.make([a, MONO_ONE], [a, a, MONO_ONE, MONO_ONE])]
        chars = [a, b, a ** 2, ab]
        for _ in range(8):
            shared = [c for c in rnd.sample(chars, rnd.randint(1, 2))
                      for _ in range(rnd.randint(1, 3))]
            extra = [rnd.choice(chars) for _ in range(rnd.randint(0, 3))]
            side = rnd.choice((0, 1))
            pos = shared + (extra if side == 0 else [])
            neg = shared + (extra if side == 1 else [])
            cases.append(VirtualCharacter.make(pos + [MONO_ONE] * rnd.randint(0, 2),
                                               neg + [MONO_ONE] * rnd.randint(0, 2)))
        for e in cases:
            _assert_matches_reference(e)
        # a full cancellation leaves the series 1
        assert conner_floyd(cases[0], 0) == LP_ONE
        assert conner_floyd(cases[0], 1) == LP_ZERO

    def test_fractional_exponents_against_reference(self):
        a, t = Monomial.var("a"), Monomial.var("t")
        half, third = t ** Fraction(1, 2), a * t ** Fraction(-1, 3)
        for e in (VirtualCharacter.make([half, third]),
                  VirtualCharacter.make([half] * 2 + [third], [third, t]),
                  VirtualCharacter.make([half, t, MONO_ONE], [third] * 2),
                  VirtualCharacter.make([half, third, a], [half, third ** 2]),
                  VirtualCharacter.make([third] * 3, [half, third, MONO_ONE])):
            _assert_matches_reference(e)

    def test_overflow_where_the_reference_overflows(self):
        # x = 1/chi = a^(2^28): x^4 = a^(2^30) leaves the range, x^3 does not;
        # no character is common to both sides
        big = Monomial.var("a", -(2 ** 28))
        b = Monomial.var("b")
        for m in (3, 4):
            for extra, neg in (([], []), ([MONO_ONE], []), ([b], [MONO_ONE]), ([], [b])):
                e = VirtualCharacter.make([big] * m + extra, neg)
                for i in range(-3, e.rank + 4):
                    assert _raises(conner_floyd, e, i) == _raises(_reference_conner_floyd, e, i), \
                        (m, str(e), i)
                    assert _raises(conner_floyd, e, i) == (m == 4)
        # a negative character is checked at its multiplicity too
        e = VirtualCharacter.make([b], [big] * 4)
        for i in range(-3, e.rank + 4):
            assert _raises(conner_floyd, e, i) and _raises(_reference_conner_floyd, e, i)
        # two characters whose product leaves the range: raised wherever the
        # series is read; past it the value is 0 and no product is formed,
        # while the reference builds its whole series at every index
        c = Monomial.var("a", -(2 ** 29))
        e = VirtualCharacter.make([c, c * b])
        for i in range(-3, e.rank + 1):
            assert _raises(conner_floyd, e, i) and _raises(_reference_conner_floyd, e, i)
        assert conner_floyd(e, e.rank + 1) == LP_ZERO

    def test_huge_character_cancels_without_overflow(self):
        big = Monomial.var("a", -(2 ** 28))
        l = Monomial.var("l")
        e = VirtualCharacter.make([big] * 4 + [l], [big] * 4)
        assert _raises(_reference_conner_floyd, e, 1)
        for i in range(-3, e.rank + 4):
            assert str(conner_floyd(e, i)) == str(conner_floyd(VirtualCharacter.make([l]), i))

    def test_positive_part_matches_the_u_basis_product(self, suite_seed):
        # the s-basis build and the product of binomial powers in u give the
        # same place, in text and type
        rnd = random.Random(suite_seed)
        a, b, t = Monomial.var("a"), Monomial.var("b"), Monomial.var("t")
        chars = [a, b, a ** 2, a * b.inv(), t ** Fraction(1, 2), a * t ** Fraction(-1, 3)]
        cases = [VirtualCharacter.make([a] * 4 + [b] * 2 + [MONO_ONE], [MONO_ONE] * 2)]
        for _ in range(12):
            pos = [c for c in rnd.sample(chars, rnd.randint(1, 3)) for _ in range(rnd.randint(1, 4))]
            cases.append(VirtualCharacter.make(pos + [MONO_ONE] * rnd.randint(0, 2),
                                               [MONO_ONE] * rnd.randint(0, 2)))
        for e in cases:
            for i in range(-3, e.rank + 4):
                got, ref = conner_floyd(e, i), _u_basis_conner_floyd(e, i)
                assert type(got) is type(ref) and str(got) == str(ref), (str(e), i)

    def test_out_of_range_indices_literal(self):
        l = Monomial.var("l")
        e = VirtualCharacter.make([l])
        assert conner_floyd(e, 2) == LP_ZERO  # below the series
        assert conner_floyd(VirtualCharacter.make([], [MONO_ONE]), 0) == LP_ONE


class TestSymmetrizedWedge:
    def test_single_root(self):
        l = Monomial.var("l")
        out = symmetrized_wedge(VirtualCharacter.make([l]))
        expect = LaurentPoly.term(1, l ** Fraction(1, 2)) - LaurentPoly.term(1, l ** Fraction(3, 2))
        assert out == expect

    def test_empty(self):
        assert symmetrized_wedge(VirtualCharacter.make([])) == LP_ONE

    def test_negative_character(self):
        # wedge_{-1}(-l) = 1/(1 - l), and (1 - l^2)/(1 - l) = 1 + l divides out
        l = Monomial.var("l")
        one_minus_l = LP_ONE - LaurentPoly.var("l")
        assert wedge_minus_one(VirtualCharacter.make([], [l])) == PolyFraction(LP_ONE, one_minus_l)
        assert wedge_minus_one(VirtualCharacter.make([l ** 2], [l])) == LP_ONE + LaurentPoly.var("l")

    def test_of_a_fraction(self):
        # det(-l) = l^-1, so the symmetrized wedge of -l is l^(-1/2)/(1 - l)
        l = Monomial.var("l")
        out = symmetrized_wedge(VirtualCharacter.make([], [l]))
        assert isinstance(out, PolyFraction)
        assert out == PolyFraction(LaurentPoly.term(1, l ** Fraction(-1, 2)),
                                   LP_ONE - LaurentPoly.var("l"))

    def test_duality_bookkeeping(self):
        # literal definition: dualizing costs (-1)^rank det^-2
        l = Monomial.var("l")
        e = VirtualCharacter.make([l])
        lhs = symmetrized_wedge(e.dual())
        rhs = -1 * symmetrized_wedge(e) * LaurentPoly.term(1, e.det() ** (-2))
        assert lhs == rhs

    def test_unsymmetrized_duality(self):
        a, b = Monomial.var("a"), Monomial.var("b")
        e = VirtualCharacter.make([a, b])
        lhs = wedge_minus_one(e.dual())
        rhs = wedge_minus_one(e) * LaurentPoly.term(1, e.det().inv())
        assert lhs == rhs


def _assert_matches_reference(v: VirtualCharacter):
    """conner_floyd against the reference at every index -3 .. rank + 3: the
    same type, the same text for a polynomial, an equal value for a fraction."""
    for i in range(-3, v.rank + 4):
        got, ref = conner_floyd(v, i), _reference_conner_floyd(v, i)
        assert type(got) is type(ref), (str(v), i)
        if isinstance(ref, LaurentPoly):
            assert str(got) == str(ref), (str(v), i)
        else:
            assert got == ref, (str(v), i)


def _raises(f, *args) -> bool:
    try:
        f(*args)
    except OverflowError:
        return True
    return False


def _u_basis_conner_floyd(e: VirtualCharacter, i: int):
    """The u-basis route for characters whose negative ones are trivial:
    the product in u = 1 - s of the binomial powers (1 - s/chi)^m, place j
    binom(m, j) (1 - x)^(m - j) x^j with x = 1/chi, cut to the places up to
    the one read."""
    val = sum(1 for chi in e.positive if chi.is_one()) - len(e.negative)
    assert all(chi.is_one() for chi in e.negative)
    places = e.rank - i - val + 1
    if places <= 0:
        return LP_ZERO
    ser = [LP_ONE] + [LP_ZERO] * (places - 1)
    counts: dict = {}
    for chi in e.positive:
        if not chi.is_one():
            counts[chi] = counts.get(chi, 0) + 1
    for chi, m in counts.items():
        x = chi.inv()
        base = [LaurentPoly({(j + l) * x.key: (-1) ** l * math.comb(m, j) * math.comb(m - j, l)
                             for l in range(m - j + 1)}, x.den)
                for j in range(min(m, places - 1) + 1)]
        out = [LP_ZERO] * places
        for k, n in enumerate(ser):
            if n.terms:
                for j, bj in enumerate(base[:places - k], k):
                    out[j] = out[j] + bj * n if out[j].terms else bj * n
        ser = out
    return ser[-1]


def _reference_conner_floyd(e: VirtualCharacter, i: int):
    """The dual wedge series to order target + depth + 4 over one common
    denominator prod c0^(places), each quotient by c0 + c1 u by the
    recurrence p_k = N_k c0^k - c1 p_(k-1) on q_k = p_k / c0^(k+1); the
    coefficient is then divided by the whole denominator."""
    target = e.rank - i
    depth = sum(1 for chi in e.negative if chi.is_one())
    order = max(target + 2, 2) + depth + 2
    coeffs, den = {0: LP_ONE}, LP_ONE
    for chi in e.positive:
        head = LP_ONE - LaurentPoly.term(1, chi.inv())
        tail = LaurentPoly.term(1, chi.inv())
        new: dict = {}
        for k, c in coeffs.items():
            if not head.is_zero():
                new[k] = new.get(k, LP_ZERO) + c * head
            new[k + 1] = new.get(k + 1, LP_ZERO) + c * tail
        coeffs = {k: c for k, c in new.items() if k < order and not c.is_zero()}
    for chi in e.negative:
        if chi.is_one():
            coeffs = {k - 1: c for k, c in coeffs.items()}
            continue
        c0 = LP_ONE - LaurentPoly.term(1, chi.inv())
        c1 = LaurentPoly.term(1, chi.inv())
        v = min(coeffs) if coeffs else 0
        span = order - v + 1
        prev = LP_ZERO
        new = {}
        c0pow = [LP_ONE]
        for _ in range(span):
            c0pow.append(c0pow[-1] * c0)
        for j in range(span):
            p = coeffs.get(v + j, LP_ZERO) * c0pow[j] - c1 * prev
            if not p.is_zero():
                new[v + j] = p * c0pow[span - j - 1]
            prev = p
        coeffs = new
        den = den * c0pow[span]
    c = coeffs.get(target)
    if c is None:
        return LP_ZERO
    fr = PolyFraction(c, den)
    p = fr.as_poly()
    return p if p is not None else fr
