import itertools
import math
from fractions import Fraction

import pytest

from kvertex.freelie import LieElement
from kvertex.laurent import LaurentPoly
from kvertex.quiver import GradedElement, a2_quiver
from kvertex.wallcross import (MissingEntryError, QuiverState, StabilityData,
                               forward_transform, free_generator, free_table,
                               invert_transform, lie_to_text,
                               master_identity_residual, ordered_partitions,
                               parse_lie_text)

ST1 = StabilityData.make((1,), (0,), {"k": (2,), "j": (5,)})


class TestStabilityData:
    def test_validation(self):
        with pytest.raises(ValueError):
            StabilityData.make((0,), (0,), {"k": (1,)})
        with pytest.raises(ValueError):
            StabilityData.make((1,), (0,), {"k": (0,)})
        with pytest.raises(ValueError):
            StabilityData.make((1, 1), (0,), {"k": (1, 1)})

    def test_slope_and_frames(self):
        st = StabilityData.make((1, 1), (1, 0), {"k": (1, 3)})
        assert st.slope((1, 0)) == 1
        assert st.slope((0, 1)) == 0
        assert st.slope((1, 1)) == Fraction(1, 2)
        assert st.frame_dim("k", (2, 1)) == 5
        with pytest.raises(ValueError):
            st.slope((0, 0))


class TestOrderedPartitions:
    def test_one_vertex(self):
        assert ordered_partitions((2,), ST1) == [((1,), (1,)), ((2,),)]
        assert len(ordered_partitions((3,), ST1)) == 4  # compositions of 3

    def test_slope_filter(self):
        st = StabilityData.make((1, 1), (1, 0), {"k": (1, 1)})
        assert ordered_partitions((1, 1), st) == [((1, 1),)]

    def test_indecomposable(self):
        st = StabilityData.make((1, 1), (1, 0), {"k": (1, 1)})
        assert ordered_partitions((1, 0), st) == [((1, 0),)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ordered_partitions((0,), ST1)

    def test_class_of_another_length_rejected(self):
        # (2, 5) has rank 2 under the one-vertex data, which reads only 2
        with pytest.raises(ValueError, match=r"class \(2, 5\) has 2 entries, but the "
                                             r"stability data has 1 vertex"):
            ordered_partitions((2, 5), ST1)
        with pytest.raises(ValueError, match="has 2 vertices"):
            ordered_partitions((1,), StabilityData.make((1, 1), (1, 0), {"k": (1, 1)}))

    def test_negative_entry_rejected(self):
        # it has no partitions, and forward_transform returned None for it
        with pytest.raises(ValueError, match=r"class \(-2,\) has a negative entry"):
            ordered_partitions((-2,), ST1)
        st = StabilityData.make((1, 1), (1, 0), {"k": (1, 1)})
        with pytest.raises(ValueError, match="negative"):
            forward_transform(free_table([(1, 0)]), "k", (2, -1), st)


class TestForwardTransform:
    def test_indecomposable_closed_form(self):
        st = StabilityData.make((1, 1), (1, 0), {"k": (1, 3)})
        Z = free_table([(1, 0)])
        assert forward_transform(Z, "k", (1, 0), st) == 1 * Z[(1, 0)]

    def test_two_part_coefficient(self):
        st = StabilityData.make((1, 1), (0, 0), {"k": (1, 3)})
        Z = free_table([(1, 0), (0, 1), (1, 1)])
        out = forward_transform(Z, "k", (1, 1), st)
        expect = 4 * Z[(1, 1)] \
            + Fraction(1, 2) * (3 - 1) * Z[(1, 0)].bracket(Z[(0, 1)])
        assert out == expect

    def test_same_generator_square_drops(self):
        Z = free_table([(1,), (2,)])
        out = forward_transform(Z, "k", (2,), ST1)
        assert out == 4 * Z[(2,)]  # [Z(1), Z(1)] = 0

    def test_missing_entry_reported(self):
        Z = free_table([(2,)])
        with pytest.raises(MissingEntryError) as exc:
            forward_transform(Z, "k", (2,), ST1)
        assert exc.value.alpha == (1,)

    def test_missing_entry_is_the_lex_first_missing_class(self):
        # the first partition with a missing part, ((0,1),(0,1),(1,0),(1,0)),
        # misses (1,0); (0,2) comes first in lexicographic order
        st = StabilityData.make((1, 1), (0, 0), {"k": (1, 3)})
        Z = free_table(a for a in itertools.product(range(3), range(3))
                       if any(a) and a not in ((1, 0), (0, 2)))
        with pytest.raises(MissingEntryError) as exc:
            forward_transform(Z, "k", (2, 2), st)
        assert exc.value.alpha == (0, 2)


class TestInversion:
    def test_roundtrip_one_vertex_total_4(self):
        alphas = [(n,) for n in range(1, 5)]
        Z = free_table(alphas)
        Zt = {a: forward_transform(Z, "k", a, ST1) for a in alphas}
        rec = invert_transform(Zt, "k", ST1)
        assert all(rec[a] == Z[a] for a in alphas)

    def test_roundtrip_two_vertex_total_3(self):
        st = StabilityData.make((1, 1), (0, 0), {"k": (1, 3)})
        alphas = [a for a in itertools.product(range(4), range(4)) if 0 < sum(a) <= 3]
        Z = free_table(alphas)
        Zt = {a: forward_transform(Z, "k", a, st) for a in alphas}
        rec = invert_transform(Zt, "k", st)
        assert all(rec[a] == Z[a] for a in alphas)

    def test_upper_triangularity(self):
        # the alpha component of the forward transform depends only on lower
        # totals plus Z_alpha itself: changing a higher entry cannot matter
        alphas = [(n,) for n in range(1, 4)]
        Z = free_table(alphas)
        base = forward_transform(Z, "k", (2,), ST1)
        Z2 = dict(Z)
        Z2[(3,)] = Z2[(3,)] + free_generator((1,))
        assert forward_transform(Z2, "k", (2,), ST1) == base

    def test_missing_entry_is_the_lex_first_missing_class(self):
        # (1,2) lacks (0,2) and (1,1); its first partition with a missing part,
        # ((0,1),(1,1)), misses (1,1)
        st = StabilityData.make((1, 1), (0, 0), {"k": (1, 3)})
        with pytest.raises(MissingEntryError) as exc:
            invert_transform(free_table([(0, 1), (1, 0), (1, 2)]), "k", st)
        assert exc.value.alpha == (0, 2)

    def test_linear_in_table(self):
        alphas = [(1,), (2,)]
        Z = free_table(alphas)
        W = {a: Fraction(3) * v for a, v in Z.items()}
        lhs = forward_transform(W, "k", (2,), ST1)
        # the n=2 term is quadratic in the table only through the bracket of
        # distinct entries; with a single generator the transform is linear
        assert lhs == 3 * forward_transform(Z, "k", (2,), ST1)


class TestMasterIdentity:
    def test_matched_framings_vanish(self):
        st = StabilityData.make((1,), (0,), {"k1": (3,), "k2": (3,)})
        Z = free_table([(1,), (2,)])
        T1 = {a: forward_transform(Z, "k1", a, st) for a in Z}
        T2 = {a: forward_transform(Z, "k2", a, st) for a in Z}
        assert master_identity_residual(T1, T2, "k1", "k2", (2,), st).is_zero()

    def test_indecomposable_trivial(self):
        st = StabilityData.make((1,), (0,), {"k1": (2,), "k2": (3,)})
        Z = free_table([(1,)])
        T1 = {(1,): 2 * Z[(1,)]}
        T2 = {(1,): 3 * Z[(1,)]}
        assert master_identity_residual(T1, T2, "k1", "k2", (1,), st).is_zero()

    def test_generic_tables_nonzero(self):
        st = StabilityData.make((1,), (0,), {"k1": (2,), "k2": (3,)})
        T1 = free_table([(1,), (2,)])
        T2 = {(1,): LieElement.generator("Z(1)").bracket(LieElement.generator("Z(2)")),
              (2,): free_generator((2,))}
        r = master_identity_residual(T1, T2, "k1", "k2", (2,), st)
        assert not r.is_zero()

    # two vertices of slopes 0 and 1, distinct framings
    SLOPES = StabilityData.make((1, 1), (0, 1), {"k1": (1, 3), "k2": (2, 1)})

    def _forward_tables(self, Z):
        T1 = {a: forward_transform(Z, "k1", a, self.SLOPES) for a in Z}
        T2 = {a: forward_transform(Z, "k2", a, self.SLOPES) for a in Z}
        return T1, T2

    def test_identity_within_the_slope_class_free_mode(self):
        alphas = [a for a in itertools.product(range(5), range(5)) if 0 < sum(a) <= 4]
        T1, T2 = self._forward_tables(free_table(alphas))
        for a in alphas:
            assert master_identity_residual(T1, T2, "k1", "k2", a, self.SLOPES).is_zero(), a
        # the splits of (1,1) across the slopes 0 and 1 do not cancel, so
        # leaving them out is what makes the residual vanish there
        cross = T1[(1, 0)].bracket(T2[(0, 1)]) + T1[(0, 1)].bracket(T2[(1, 0)])
        assert not cross.is_zero()

    def test_identity_within_the_slope_class_quiver_mode(self):
        q = a2_quiver()
        alphas = [a for a in itertools.product(range(4), range(4)) if 0 < sum(a) <= 3]
        T1, T2 = self._forward_tables({a: QuiverState(GradedElement.unit(q, a)) for a in alphas})
        for a in alphas:
            assert master_identity_residual(T1, T2, "k1", "k2", a, self.SLOPES).is_zero(), a

    def test_missing_entries_reported(self):
        st = StabilityData.make((1,), (0,), {"k1": (2,), "k2": (3,)})
        T = free_table([(2,)])
        with pytest.raises(MissingEntryError):
            master_identity_residual(T, T, "k1", "k2", (2,), st)


def _enumerated_partitions(alpha, stability):
    """The equal-slope ordered partitions of alpha by depth-first search over
    the sorted candidate parts, as ordered_partitions once listed them."""
    target = stability.slope(alpha)
    candidates = sorted(v for v in itertools.product(*(range(a + 1) for a in alpha))
                        if any(v) and stability.slope(v) == target)
    out = []

    def rec(remaining, acc):
        if not any(remaining):
            out.append(tuple(acc))
        for v in candidates:
            if all(x <= r for x, r in zip(v, remaining)):
                rec(tuple(r - x for r, x in zip(remaining, v)), acc + [v])

    rec(tuple(alpha), [])
    return out


def _partition_by_partition(Z, k, alpha, stability, first=1):
    """sum over the enumerated partitions of n >= first parts of
    (1/n!) ad(Z_{a_n}) ... ad(Z_{a_2}) (lambda_k(a_1) Z_{a_1}), one
    nested term per partition."""
    total = None
    for parts in _enumerated_partitions(alpha, stability):
        if len(parts) < first:
            continue
        term = stability.frame_dim(k, parts[0]) * Z[parts[0]]
        for a in parts[1:]:
            term = Z[a].bracket(term)
        term = Fraction(1, math.factorial(len(parts))) * term
        total = term if total is None else total + term
    return total


def _invert_by_partitions(Ztilde, k, stability):
    Z = {}
    for alpha in sorted(Ztilde, key=lambda a: (sum(a), a)):
        corr = _partition_by_partition(Z, k, alpha, stability, first=2)
        val = Ztilde[alpha] if corr is None else Ztilde[alpha] - corr
        Z[alpha] = Fraction(1, stability.frame_dim(k, alpha)) * val
    return Z


def _master_by_product(Zt1, Zt2, k1, k2, alpha, stability):
    out = stability.frame_dim(k2, alpha) * Zt1[alpha] \
        - stability.frame_dim(k1, alpha) * Zt2[alpha]
    for a1 in itertools.product(*(range(a + 1) for a in alpha)):
        a2 = tuple(x - y for x, y in zip(alpha, a1))
        if any(a1) and any(a2) and stability.slope(a1) == stability.slope(alpha):
            out = out + Zt1[a1].bracket(Zt2[a2])
    return out


def _classes(*bounds, total):
    return [a for a in itertools.product(*(range(b + 1) for b in bounds))
            if 0 < sum(a) <= total]


TWO_SLOPES = {"k": (1, 3), "j": (2, 1)}


class TestRecursionAgainstPartitions:
    """The recursion over sub-classes prints what the sum over enumerated
    partitions prints, in both modes."""

    @pytest.mark.parametrize("stability,alphas,quiver_mode", [
        pytest.param(StabilityData.make((1,), (0,), {"k": (2,), "j": (5,)}),
                     _classes(8, total=8), False, id="one vertex"),
        pytest.param(StabilityData.make((1, 1), (0, 0), TWO_SLOPES), _classes(5, 5, total=5),
                     False, id="slopes (0,0)"),
        pytest.param(StabilityData.make((1, 1), (0, 1), TWO_SLOPES), _classes(5, 5, total=5),
                     False, id="slopes (0,1)"),
        pytest.param(StabilityData.make((1, 1), (0, 0), TWO_SLOPES), _classes(3, 3, total=3),
                     True, id="A2 quiver, slopes (0,0)"),
        pytest.param(StabilityData.make((1, 1), (0, 1), TWO_SLOPES), _classes(3, 3, total=3),
                     True, id="A2 quiver, slopes (0,1)"),
    ])
    def test_same_text(self, stability, alphas, quiver_mode):
        if quiver_mode:
            q = a2_quiver()
            Z = {a: QuiverState(GradedElement.unit(q, a)) for a in alphas}
        else:
            Z = free_table(alphas)
        fk = {a: forward_transform(Z, "k", a, stability) for a in alphas}
        assert [str(fk[a]) for a in alphas] == \
            [str(_partition_by_partition(Z, "k", a, stability)) for a in alphas]
        inverse = invert_transform(Z, "j", stability)
        expected = _invert_by_partitions(Z, "j", stability)
        assert [str(inverse[a]) for a in alphas] == [str(expected[a]) for a in alphas]
        assert [str(master_identity_residual(Z, fk, "j", "k", a, stability)) for a in alphas] \
            == [str(_master_by_product(Z, fk, "j", "k", a, stability)) for a in alphas]

    @pytest.mark.parametrize("rank,slope,bounds", [
        ((1,), (0,), (7,)),
        ((1, 1), (0, 0), (3, 3)),
        ((1, 1), (0, 1), (3, 3)),
        ((2, 1), (1, 0), (3, 3)),
        ((1, 2, 1), (0, 1, 0), (2, 2, 2)),
    ])
    def test_ordered_partitions_in_the_enumerated_order(self, rank, slope, bounds):
        st = StabilityData.make(rank, slope, {"k": (1,) * len(rank)})
        for alpha in _classes(*bounds, total=sum(bounds)):
            assert ordered_partitions(alpha, st) == _enumerated_partitions(alpha, st), alpha

    def test_brackets_grow_polynomially(self, monkeypatch):
        calls = []
        bracket = LieElement.bracket

        def counting(self, other):
            calls.append(1)
            return bracket(self, other)

        monkeypatch.setattr(LieElement, "bracket", counting)
        forward_transform(free_table(_classes(12, total=12)), "k", (12,), ST1)
        # 2,048 partitions, 11,264 brackets term by term
        assert len(calls) <= 300

    def test_roundtrip_at_5_5(self):
        st = StabilityData.make((1, 1), (0, 0), {"k": (1, 3)})
        alphas = _classes(5, 5, total=10)
        Z = free_table(alphas)
        rec = invert_transform({a: forward_transform(Z, "k", a, st) for a in alphas}, "k", st)
        assert all(rec[a] == Z[a] for a in alphas)


class TestQuiverModeAgreement:
    def test_free_evaluation_matches_quiver_mode(self):
        q = a2_quiver()
        qa = QuiverState(GradedElement.unit(q, (1, 0)))
        qb = QuiverState(GradedElement.unit(q, (0, 1)))
        qc = QuiverState(GradedElement.unit(q, (1, 1)))
        st = StabilityData.make((1, 1), (0, 0), {"k": (1, 2)})
        Zq = {(1, 0): qa, (0, 1): qb, (1, 1): qc}
        Zf = free_table(Zq)
        fq = forward_transform(Zq, "k", (1, 1), st)
        ff = forward_transform(Zf, "k", (1, 1), st)
        env = {"Z(1,0)": qa, "Z(0,1)": qb, "Z(1,1)": qc}

        def eval_free(x):
            def tree_val(t):
                if isinstance(t, str):
                    return env[t]
                return tree_val(t[0]).bracket(tree_val(t[1]))
            out = None
            for t, c in x.coeffs.items():
                term = c * tree_val(t)
                out = term if out is None else out + term
            return out

        assert eval_free(ff) == fq
        # concrete value: 2*1 + 1/2*(2-1)*[1_e1, 1_e2] = 2 - 1/2... with frames (1,2):
        # lambda(1,1)=3, so 3*Z(1,1) + 1/2*(2-1)*(-1) = 3 - 1/2 = 5/2
        assert fq.element.poly == LaurentPoly.scalar(Fraction(5, 2))

    def test_quiver_state_validation(self):
        q = a2_quiver()
        with pytest.raises(ValueError):
            QuiverState(GradedElement(q, (1, 0), LaurentPoly.var("s_{1,1}")))


class TestSerialization:
    def test_parse_and_print_roundtrip(self):
        s = "3/2*[Z(1,0),Z(0,1)] + Z(1,1) - [Z(0,1),[Z(1,0),Z(0,1)]]"
        v = parse_lie_text(s)
        assert parse_lie_text(lie_to_text(v)) == v

    def test_bad_expressions(self):
        with pytest.raises(ValueError):
            parse_lie_text("[Z(1)")
        with pytest.raises(ValueError):
            parse_lie_text("Q(1)")
