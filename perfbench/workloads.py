"""Seeded operation streams for the three workloads, with their checks.

An operation (Op) is one public kvertex call, timed alone, plus a check
that verifies its result by an independent route.  Checks run outside the
timed interval (and with tracing paused).  The ops of one case form a
Group: a later op may take the checked results of earlier ones as input,
and the last op of the case may run a check on all of them.

A workload is a list of case generators; a round is every case they make,
run in a seeded order.  `suites` replays the calls of the acceptance suites
(see SUITES); `univariate` and `cli` fill fixed slots with fresh content.
Rounds therefore have the same mix of op kinds and structural sizes, and
the seed varies only the content and the order.

Inputs are drawn through `Inputs`, which redraws an input already used in
this run (warm-up included) and counts the ones it cannot avoid, so a
result cache inside the program cannot pass for a speed-up.
"""
from __future__ import annotations

import functools
import importlib.util
import io
import itertools
import json
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, factorial

from kvertex import (cli, exprparse, hopf, laurent, quiver, residues, series,
                     suites, wallcross)
from kvertex.freelie import LieElement
from kvertex.laurent import LaurentPoly, Monomial, PolyFraction
from kvertex.series import RationalFunction

MONO_ONE = Monomial(())
LP_ZERO = LaurentPoly.zero()


class Op:
    __slots__ = ("kind", "key", "call", "check")

    def __init__(self, kind, key, call, check):
        self.kind = kind
        self.key = key
        self.call = call      # () -> result; the only timed code
        self.check = check    # result -> bool; untimed


class Group:
    """The ops of one case.  Each member records its result in `results`
    and runs its own check, if any; the last member then runs the case's
    check on all results."""

    def __init__(self, size, check=None):
        self.size = size
        self.results = {}
        self.final = check

    def member(self, index, check=None):
        def checked(result):
            self.results[index] = result
            if check is not None and not check(result):
                return False
            if self.final is None or len(self.results) < self.size:
                return True
            return self.final(self.results)
        return checked


class Inputs:
    """Seeded input source that avoids handing out an input twice.  Input
    files for the command line are written under work_dir."""

    def __init__(self, rng: random.Random, work_dir: str, seen=None):
        self.rng = rng
        self.work_dir = work_dir
        self.seen = set() if seen is None else set(seen)
        self.drawn = 0
        self.repeats = 0

    def draw(self, space: str, make, tries: int = 64):
        for _ in range(tries):
            value, key = make(self.rng)
            if (space, key) not in self.seen:
                break
        else:
            self.repeats += 1
        self.seen.add((space, key))
        self.drawn += 1
        return value, key

    def fixed(self, space: str, key: str):
        """Record a fixed (not drawn) input, counting it if it repeats."""
        if (space, key) in self.seen:
            self.repeats += 1
        self.seen.add((space, key))
        self.drawn += 1
        return key


def _keyed(value):
    return value, str(value)


# -- suites: one pass of the acceptance suites behind criteria 3-10 ----------
#
# A round makes the top-level kvertex calls of the suites that
# tests/test_acceptance.py runs for criteria 3-10, at the parameters it
# runs them with, one op per call.  The number of ops of each kind is
# therefore the suites' own count (measured at suite seed 0):
#
#   criterion 3  suite_residue_oracle(200)   200 residue_k + 200 residue_k_oracle
#   criterion 4  suite_diagonal_expansion    55 z-side + 55 w-side residues
#   criterion 5  suite_hopf                  81 star + 6 coproduct
#   criterion 6  suite_vertex_axioms         18 quivers x 20 x 4 axiom_check
#   criterion 7  suite_reduced               18 quivers x 20 vertex_kernel
#   criterion 6+7  random_graded_element     symmetrize of each nonzero state grade
#   criterion 8  suite_lie                   276 lie_bracket
#   criterion 9  suite_conner_floyd          50 characters x (rank + 3) x 3 conner_floyd
#   criterion 10 suite_wallcross_roundtrip   17 forward + 2 invert + 1 master residual
#
# Where a suite draws its inputs from its seed, a round draws them from the
# benchmark's seed with the suite's own generators; fixed inputs stay
# fixed.  The exception is criterion 9, whose characters are the suite's
# own: their conner_floyd time varies threefold from one draw of 50 to the
# next, which would make the p90 latency follow the seed.  A call that a
# suite repeats on the same input is made once (the 36 star products of the
# multiplicativity case, the two specified brackets, 4 repeated
# characters).  Left out: the wedge-duality cases of criterion 9 and the hopf
# cases that call no star or coproduct.  Criterion 7 keeps only state pairs
# of total grade <= 3: a pair of total grade 4 on a quiver with loops takes
# from 0.4 s to over a minute per vertex_kernel call, depending on the seed.

S = Monomial.var("s")
T = Monomial.var("t")
PIVOTS = [S, T, S * T]
DIAGONAL_ORDER = 12
AXIOMS = ("vacuum", "skew", "weak_assoc", "locality")
PER_CONFIG = 20          # suite_vertex_axioms / suite_reduced per_config
MAX_TOTAL = 4            # their max_total
REDUCED_MAX_PAIR = 3     # total grade of a criterion-7 pair (see above)


def suite_residue_oracle(inp, small):
    """Criterion 3: residue_k against residue_k_oracle on random_rational."""
    cases = []
    for _ in range(1 if small else 200):
        f, key = inp.draw("rational", lambda r: _keyed(suites.random_rational(r)))
        group = Group(2, lambda res: res[0] == res[1])
        order = f.total_pole_mult() + 8
        cases.append([Op("residue_k", key, functools.partial(residues.residue_k, f),
                         group.member(0)),
                      Op("oracle", key, functools.partial(residues.residue_k_oracle, f, order),
                         group.member(1))])
    return cases


def _diagonal_cases(small):
    if small:
        return [(3, 1, [S])]    # a = 3 lies outside the suite's range
    out = []
    for n in range(1, 4):
        choices = [[p] * n for p in PIVOTS]
        if n > 1:
            choices.append([PIVOTS[i % 3] for i in range(n)])
        out += [(a, n, pivots) for a in range(-2, 3) for pivots in choices]
    return out


def _zside_ok(res):
    return len(res) == DIAGONAL_ORDER and all(x.is_zero() for x in res)


def _wside_ok(base, res):
    for j in range(DIAGONAL_ORDER):
        defect = res.get(j, LP_ZERO) - (base if j == 0 else LP_ZERO)
        if not residues.iadic_valuation_at_least(defect, DIAGONAL_ORDER - j):
            return False
    return True


def suite_diagonal(inp, small):
    """Criterion 4: z-side and w-side residues of f(z/w), f = z^a/(1 - s z)^n."""
    cases = []
    for a, n, pivots in _diagonal_cases(small):
        key = inp.fixed("diagonal", f"{a}:{n}:{pivots}")
        base = residues.residue_k(RationalFunction("z", LaurentPoly.var("z", a), [(0, S, 1, n)]))
        args = (a, S, n, pivots, DIAGONAL_ORDER)
        cases.append([Op("zside", key, functools.partial(residues.diagonal_z_side_residues, *args),
                         _zside_ok),
                      Op("wside", key, functools.partial(residues.diagonal_w_side_residue, *args),
                         functools.partial(_wside_ok, base))])
    return cases


def _star_ok(a, b, res):
    phi = hopf.PhiElement.basis
    if res != hopf.from_numerical(hopf.to_numerical(phi(a)) * hopf.to_numerical(phi(b))):
        return False
    if a >= 6 or b >= 6:
        return True
    # the multiplicativity case of the suite, on the same product
    lhs, ra, rb = (hopf.chern_character(x) for x in (res, phi(a), phi(b)))
    return all(lhs.eval(n) == ra.eval(n) * rb.eval(n) for n in range(-10, 11))


def suite_star(inp, small):
    """Criterion 5: star products of basis elements (a, b <= 8)."""
    pairs = [(9, 1)] if small else list(itertools.product(range(9), range(9)))
    phi = hopf.PhiElement.basis
    return [[Op("star", inp.fixed("star", f"{a},{b}"),
                functools.partial(hopf.star, phi(a), phi(b)), functools.partial(_star_ok, a, b))]
            for a, b in pairs]


def _coproduct_ok(k, res):
    return all(hopf.pair_tensor(res, m, n) == hopf.phi_pair(hopf.PhiElement.basis(k), m + n)
               for m in range(-6, 7) for n in range(-6, 7))


def suite_coproduct(inp, small):
    """Criterion 5: the Leibniz pairing of coproducts (k <= 5)."""
    return [[Op("coproduct", inp.fixed("coproduct", str(k)),
                functools.partial(hopf.coproduct, hopf.PhiElement.basis(k)),
                functools.partial(_coproduct_ok, k))]
            for k in ([6] if small else range(6))]


def _state_input(r, alpha):
    """The draws of suites.random_graded_element: a monomial and the blocks
    it is symmetrized over."""
    mono = {}
    for i, c in enumerate(alpha):
        for v in quiver.block_vars("s", i + 1, c):
            e = r.randint(-1, 2)
            if e:
                mono[v] = e
    e = r.randint(-1, 1)
    if e:
        mono["t"] = e
    p = LaurentPoly.term(r.choice([1, 2, 3, -1]), Monomial.make(mono))
    blocks = [quiver.block_vars("s", i + 1, c) for i, c in enumerate(alpha) if c]
    return p, blocks


def _symmetrize_ok(alpha, p, res):
    order = 1
    for c in alpha:
        order *= factorial(c)
    return (sum(res.terms.values()) == p.as_unit()[0] * order
            and quiver.is_block_symmetric(res, alpha))


def _state_ops(q, inputs, key, group):
    """Symmetrize ops for the states of one case (as random_graded_element
    builds them) and a function giving the states from their results."""
    ops, slots = [], []
    for alpha, (p, blocks) in inputs:
        if blocks:
            slots.append(len(ops))
            ops.append(Op("symmetrize", f"{key}:{p}",
                          functools.partial(laurent.symmetrize, p, blocks),
                          group.member(len(ops), functools.partial(_symmetrize_ok, alpha, p))))
        else:
            slots.append(None)

    def states():
        return [quiver.GradedElement(q, alpha, p if slot is None else group.results[slot],
                                     check=False)
                for (alpha, (p, _b)), slot in zip(inputs, slots)]
    return ops, states


def _axiom_ok(res):
    return res[0] is True and res[1] is None


def suite_axioms(inp, small):
    """Criterion 6: the four vertex-algebra axioms on random triples of
    states, per small quiver."""
    cases = []
    qs = suites.small_quivers()
    for qi in ([1] if small else range(len(qs))):
        q = qs[qi]
        for _ in range(1 if small else PER_CONFIG):
            def make(r, q=q):
                grades = suites._random_grades(r, q, MAX_TOTAL)
                inputs = [(g, _state_input(r, g)) for g in grades]
                return inputs, f"{qi}:" + "|".join(f"{g}{p}" for g, (p, _b) in inputs)

            inputs, key = inp.draw("axiom", make)
            n_sym = sum(1 for _g, (_p, blocks) in inputs if blocks)
            group = Group(n_sym + len(AXIOMS))
            ops, states = _state_ops(q, inputs, key, group)
            for i, which in enumerate(AXIOMS):
                def call(q=q, which=which, states=states):
                    return quiver.axiom_check(q, which, *states())
                ops.append(Op("axiom", f"{which}:{key}", call, group.member(n_sym + i, _axiom_ok)))
            cases.append(ops)
    return cases


def suite_reduced(inp, small):
    """Criterion 7: vertex_kernel of random pairs of states, per small
    quiver, checked for its pole shape and against vertex_reference."""
    cases = []
    qs = suites.small_quivers()
    for qi in ([1] if small else range(len(qs))):
        q = qs[qi]
        for _ in range(1 if small else PER_CONFIG):
            def make(r, q=q):
                while True:
                    alpha, beta, _gamma = suites._random_grades(r, q, MAX_TOTAL)
                    if sum(alpha) + sum(beta) <= REDUCED_MAX_PAIR:
                        break
                inputs = [(g, _state_input(r, g)) for g in (alpha, beta)]
                return inputs, f"{qi}:" + "|".join(f"{g}{p}" for g, (p, _b) in inputs)

            inputs, key = inp.draw("vertex", make)
            n_sym = sum(1 for _g, (_p, blocks) in inputs if blocks)
            group = Group(n_sym + 1)
            ops, states = _state_ops(q, inputs, key, group)

            def check(res, states=states):
                f, g = states()
                return quiver.reduced_pole_shape(res) and res == vertex_reference(f, g)

            ops.append(Op("vertex", key, lambda states=states: quiver.vertex_kernel(*states()),
                          group.member(n_sym, check)))
            cases.append(ops)
    return cases


def _cosets(alpha, beta):
    """Renamings onto the s/t union slots, one per S_(a+b)/(S_a x S_b) coset."""
    per_vertex = []
    for i, (a, b) in enumerate(zip(alpha, beta)):
        union = quiver.block_vars("s", i + 1, a) + quiver.block_vars("t", i + 1, b)
        choices = []
        for first in itertools.combinations(range(a + b), a):
            rest = [k for k in range(a + b) if k not in first]
            choices.append(dict(zip(union, [union[k] for k in list(first) + rest])))
        per_vertex.append(choices)
    for combo in itertools.product(*per_vertex):
        ren = {}
        for part in combo:
            ren.update(part)
        yield ren


def vertex_reference(f, g):
    """The kernel vertex operation summed over cosets by this benchmark's
    own enumeration, for comparison with quiver.vertex_kernel."""
    fz = quiver.translate(f).poly
    gp = g.poly.rename({v: "t" + v[1:] for v in g.all_block_vars()})
    base = quiver.propagator_kernel(f.quiver, f.alpha, g.alpha) * (fz * gp)
    total = None
    for ren in _cosets(f.alpha, g.alpha):
        piece = base.rename_chars(ren)
        total = piece if total is None else total + piece
    return total


def _lie_states(small):
    """(tag, states) of suite_lie(max_per_arg=2); for a small round,
    scaled copies of three A2 units, which the suite does not use."""
    qa = quiver.a2_quiver()
    if small:
        units = [quiver.GradedElement.unit(qa, g) for g in ((1, 0), (0, 1), (1, 1))]
        return [("scaled", [quiver.GradedElement(qa, u.alpha, u.poly * 2, check=False)
                            for u in units])]
    return [(tag, suites._degree_zero_states(q, 2))
            for q, tag in ((qa, "A2"), (quiver.jordan_quiver(), "Jordan"))]


def _bracket_sum_zero(results):
    total = LP_ZERO
    for res in results.values():
        total = total + res.poly
    return total.is_zero()


def suite_lie_pairs(inp, small):
    """Criterion 8: antisymmetry, [x, y] + [y, x] = 0 and [x, x] = 0."""
    cases = []
    for tag, states in _lie_states(small):
        idx = list(range(len(states)))
        for i, j in itertools.combinations_with_replacement(idx, 2):
            key = inp.fixed("lie", f"{tag}:{i},{j}")
            x, y = states[i], states[j]
            if i == j:
                cases.append([Op("bracket", key, functools.partial(quiver.lie_bracket, x, x),
                                 lambda res: res.poly.is_zero())])
                continue
            group = Group(2, _bracket_sum_zero)
            cases.append([Op("bracket", key, functools.partial(quiver.lie_bracket, x, y),
                             group.member(0)),
                          Op("bracket", key + "'", functools.partial(quiver.lie_bracket, y, x),
                             group.member(1))])
            if small:
                return cases
    return cases


def suite_lie_jacobi(inp, small):
    """Criterion 8: the Jacobi identity on every 3-subset of states; the
    three inner brackets are ops too, and the outer ones take their
    checked results."""
    cases = []
    for tag, states in _lie_states(small):
        for i, j, k in itertools.combinations(range(len(states)), 3):
            key = inp.fixed("jacobi", f"{tag}:{i},{j},{k}")
            x, y, z = states[i], states[j], states[k]
            group = Group(6, lambda res: _bracket_sum_zero({n: res[n] for n in (3, 4, 5)}))
            ops = [Op("bracket", f"{key}:inner{n}", functools.partial(quiver.lie_bracket, u, v),
                      group.member(n))
                   for n, (u, v) in enumerate(((y, z), (z, x), (x, y)))]
            for n, u in enumerate((x, y, z)):
                ops.append(Op("jacobi", f"{key}:outer{n}",
                              lambda u=u, n=n, group=group: quiver.lie_bracket(u, group.results[n]),
                              group.member(3 + n)))
            cases.append(ops)
    return cases


def _all_equal(results):
    first = PolyFraction.of(results[0])
    return all(PolyFraction.of(v) == first for v in results.values())


def _chern_characters(small):
    """The distinct ones of the 50 characters suite_conner_floyd draws at
    the suite's default seed (46); for a small round, one it cannot draw."""
    if small:
        return [quiver.VirtualCharacter.make([Monomial.var("a", 3)], [Monomial.var("b")])]
    rnd = random.Random(suites.DEFAULT_SEED)
    drawn = {}
    for _ in range(50):
        e = suites.random_virtual_character(rnd)
        drawn.setdefault(str(e), e)
    return list(drawn.values())


def suite_conner_floyd(inp, small):
    """Criterion 9: c_i(E + O) = c_i(E) = c_i(E - O) on the suite's virtual
    characters, for every index -1 .. rank + 1."""
    cases = []
    for e in _chern_characters(small):
        key = inp.fixed("chern", str(e))
        plus = quiver.VirtualCharacter.make(e.positive + (MONO_ONE,), e.negative)
        minus = quiver.VirtualCharacter.make(e.positive, e.negative + (MONO_ONE,))
        for idx in range(-1, e.rank + 2):
            group = Group(3, _all_equal)
            cases.append([Op("chern", f"{key}:{idx}:{n}",
                             functools.partial(quiver.conner_floyd, v, idx), group.member(n))
                          for n, v in enumerate((e, plus, minus))])
            if small:
                break
    return cases


def _roundtrip_case(key, st, alphas, simple):
    """Forward transforms of a free table, then the inversion of their
    checked results, which must give the table back; at the simple
    dimension vector the transform is the frame dimension times Z."""
    Z = wallcross.free_table(alphas)

    def check(results):
        rec = results[len(alphas)]
        at_simple = results[alphas.index(simple)]
        return (set(rec) == set(Z) and all(rec[a] == Z[a] for a in Z)
                and at_simple == st.frame_dim("k", simple) * Z[simple])

    group = Group(len(alphas) + 1, check)
    ops = [Op("wallcross", f"{key}:fwd{alpha}",
              functools.partial(wallcross.forward_transform, Z, "k", alpha, st), group.member(i))
           for i, alpha in enumerate(alphas)]
    ops.append(Op("wallcross", f"{key}:inv",
                  lambda: wallcross.invert_transform(
                      {a: group.results[i] for i, a in enumerate(alphas)}, "k", st),
                  group.member(len(alphas))))
    return ops


def _master_case(key):
    st = wallcross.StabilityData.make((1,), (0,), {"k1": (3,), "k2": (3,)})
    alphas = [(1,), (2,)]
    Z = wallcross.free_table(alphas)
    group = Group(5, lambda res: res[4].is_zero())
    ops = [Op("wallcross", f"{key}:{k}{alpha}",
              functools.partial(wallcross.forward_transform, Z, k, alpha, st), group.member(i))
           for i, (k, alpha) in enumerate(itertools.product(("k1", "k2"), alphas))]
    ops.append(Op("wallcross", f"{key}:residual",
                  lambda: wallcross.master_identity_residual(
                      {a: group.results[i] for i, a in enumerate(alphas)},
                      {a: group.results[2 + i] for i, a in enumerate(alphas)},
                      "k1", "k2", (2,), st),
                  group.member(4)))
    return ops


def suite_wallcross(inp, small):
    """Criterion 10: the two round trips and the master identity."""
    make = wallcross.StabilityData.make
    if small:
        return [_roundtrip_case(inp.fixed("wallcross", "small"), make((1,), (0,), {"k": (5,)}),
                                [(1,), (2,)], (1,))]
    two = [a for a in itertools.product(range(4), range(4)) if 0 < sum(a) <= 3]
    return [_roundtrip_case(inp.fixed("wallcross", "one-vertex"),
                            make((1,), (0,), {"k": (2,)}), [(n,) for n in range(1, 5)], (1,)),
            _roundtrip_case(inp.fixed("wallcross", "two-vertex"),
                            make((1, 1), (0, 0), {"k": (1, 3)}), two, (1, 0)),
            _master_case(inp.fixed("wallcross", "master"))]


SUITES = [suite_residue_oracle, suite_diagonal, suite_star, suite_coproduct, suite_axioms,
          suite_reduced, suite_lie_pairs, suite_lie_jacobi, suite_conner_floyd, suite_wallcross]


# -- univariate: cyclotomic partial fractions and dense one-variable work ----

# One slot per size class.  The classes span the workload's ranges
# (partial fractions over Q(zeta_n), n = 5..13, pole multiplicity 1-2, one
# character pole; dense numerators of degree 60-200) and stop where a
# single call would be a large share of a round: pfrac of 1/(1 - z^n)
# takes 0.3 s at n = 13 and 1 s at n = 17.  Everything that sets the cost
# of a call is fixed per slot (sizes, multiplicities, the character pole,
# the number of numerator terms), so every round has the same costs and
# the seed varies only coefficients, exponents and the order of the ops.
#
# A round has 25 ops.  Sorted by cost they fall into clusters, and the
# quantiles are read inside a cluster, not at the edge between two, so
# that they do not jump from one cluster to the next from run to run:
# the p50 (op 12.5 of 25) lies among the six residues at the roots of
# 1 - z^7, the p90 (op 22.5) among the three calls of about 0.16 s
# (pfrac at (7, 2) and (11, 1), dense residue at degree 100), below the
# two of about 0.35 s (pfrac at (13, 1), dense residue at degree 160).
CHARS = [T, Monomial.var("t", 2), S * Monomial.var("t", -1)]
NUM_TERMS = 2
# (n, multiplicity of 1 - z^n, character pole)
PFRAC_SIZES = [(5, 2, CHARS[0]), (6, 1, CHARS[1]), (7, 2, CHARS[2]), (9, 1, CHARS[0]),
               (11, 1, CHARS[1]), (13, 1, CHARS[2])]
# (n, multiplicity of 1 - z^n, order of the extra simple root-of-unity pole)
LOCAL_CASES = [(5, 2, 2), (7, 1, 3)]
# (numerator degree, pole multiplicity, character of the pole)
DENSE_RESIDUE_CASES = [(60, 3, MONO_ONE), (100, 2, T), (160, 1, MONO_ONE)]
# (point, numerator degree, order, multiplicity of the pole at 1)
EXPAND_CASES = [("zero", 120, 40, 1), ("infinity", 160, 40, 2), ("one", 80, 10, 3),
                ("zero", 200, 60, 2)]


def _small_poly(r, max_deg, terms):
    return LaurentPoly.from_terms((Monomial.var("z", r.randint(0, max_deg)),
                                   r.choice([1, 2, 3, -1, -2, 5])) for _ in range(terms))


def op_pfrac(inp, i):
    n, m, char = PFRAC_SIZES[i]

    def make(r):
        num = _small_poly(r, n + 1, NUM_TERMS)
        if num.is_zero():
            num = LaurentPoly.scalar(1)
        f = RationalFunction("z", num, [(0, MONO_ONE, n, m), (0, char, 1, 1)])
        return f, str(f)

    f, key = inp.draw("pfrac", make)
    return [Op("pfrac", key, lambda: series.partial_fractions(f),
               lambda res: res.coefficient_sum() == PolyFraction.of(residues.residue_k(f)))]


def op_local(inp, i):
    n, m, q = LOCAL_CASES[i]

    def make(r):
        num = _small_poly(r, n, NUM_TERMS)
        if num.is_zero():
            num = LaurentPoly.scalar(1)
        angle = Fraction(r.randrange(1, q), q)
        f = RationalFunction("z", num, [(0, MONO_ONE, n, m), (angle, MONO_ONE, 1, 1)])
        return f, str(f)

    f, key = inp.draw("local", make)
    angles = set()
    for (a, _m, nn), _e in f.den.items():
        for j in range(nn):
            pole = (Fraction(j) - Fraction(a)) / nn % 1
            if pole:
                angles.add(pole)
    angles = sorted(angles)

    def theorem(results):
        rhs = PolyFraction.of(residues.residue_naive(f))
        for idx in range(len(angles)):
            rhs = rhs - PolyFraction.of(results[idx])
        return PolyFraction.of(residues.residue_k(f)) == rhs

    group = Group(len(angles), theorem)
    return [Op("local", f"{key}@{ang}",
               lambda ang=ang: residues.local_residue_at_root(f, ang), group.member(idx))
            for idx, ang in enumerate(angles)]


def _dense_coeffs(r, degree):
    coeffs = [r.randint(-10 ** 9, 10 ** 9) for _ in range(degree + 1)]
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    return coeffs


def _dense_poly(coeffs):
    return LaurentPoly.from_terms((Monomial.var("z", k), c) for k, c in enumerate(coeffs))


def op_dense_residue(inp, i):
    degree, m, char = DENSE_RESIDUE_CASES[i]

    def make(r):
        coeffs = _dense_coeffs(r, degree)
        return coeffs, f"{coeffs}:{m}:{char}"

    coeffs, key = inp.draw("dense_residue", make)
    f = RationalFunction("z", _dense_poly(coeffs), [(0, char, 1, m)])
    return [Op("dense_residue", key, lambda: residues.residue_k(f),
               lambda res: res == residues.residue_k_oracle(f, degree + m + 2))]


def reference_expansion(coeffs, m, point, order):
    """{index: Fraction} and the truncation index of the expansion of
    P(z)/(1-z)^m, computed from binomial sums on plain integers."""
    n = len(coeffs) - 1
    if point == "zero":
        v = 0
        exact = {k: sum(coeffs[j] * comb(k - j + m - 1, m - 1) for j in range(min(k, n) + 1))
                 for k in range(order)}
    elif point == "infinity":
        # f(1/w) = (-1)^m w^(m-n) P*(w)/(1-w)^m with P* the reversed coefficients
        v = m - n
        rev = coeffs[::-1]
        sign = (-1) ** m
        exact = {v + k: sign * sum(rev[j] * comb(k - j + m - 1, m - 1)
                                   for j in range(min(k, n) + 1))
                 for k in range(order)}
    else:
        # z = 1 - u: P(1-u)/u^m
        q = [(-1) ** i * sum(coeffs[j] * comb(j, i) for j in range(i, n + 1))
             for i in range(n + 1)]
        first = next(i for i, c in enumerate(q) if c)
        v = first - m
        exact = {i - m: (q[i] if i <= n else 0) for i in range(first, first + order)}
    return {k: Fraction(c) for k, c in exact.items() if c}, v + order


def _scalar(c):
    if isinstance(c, PolyFraction):
        c = c.as_poly()
    if isinstance(c, LaurentPoly):
        if not c.is_scalar():
            raise ValueError("non-scalar coefficient")
        return c.constant()
    return Fraction(c)


def op_expand(inp, i):
    point, degree, order, m = EXPAND_CASES[i]

    def make(r):
        coeffs = _dense_coeffs(r, degree)
        return coeffs, f"{point}:{coeffs}:{m}"

    coeffs, key = inp.draw("expand", make)
    f = RationalFunction("z", _dense_poly(coeffs), [(0, MONO_ONE, 1, m)])
    expected, trunc = reference_expansion(coeffs, m, point, order)

    def check(res):
        got = {k: _scalar(c) for k, c in res.coeffs.items()}
        return res.trunc == trunc and {k: c for k, c in got.items() if c} == expected

    return [Op("expand", key, lambda: series.expand_at(f, point, order), check)]


def slots(fn, sizes):
    """A case generator with one case per entry of sizes (one if small)."""
    def generate(inp, small):
        return [fn(inp, i) for i in range(1 if small else len(sizes))]
    return generate


UNIVARIATE = [slots(op_pfrac, PFRAC_SIZES), slots(op_local, LOCAL_CASES),
              slots(op_dense_residue, DENSE_RESIDUE_CASES), slots(op_expand, EXPAND_CASES)]


# -- cli: in-process `kvertex` invocations ----------------------------------

GOLDEN = os.path.join("tests", "golden")
CLI_FACTORS = ["(1-z)", "(1-t*z)", "(1-z^2)", "(1-t^2*z)", "(1-z^3)", "(1-s*z)"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _expr(r, at_one=False):
    num = " + ".join(f"{r.choice([1, 2, 3, -1])}*z^{r.randint(0, 4)}"
                     for _ in range(r.randint(1, 3)))
    if at_one:
        # The expansion at z = 1 works over the fraction field of the
        # characters; two distinct character poles there can take 0.5-45 s
        # per call, so at most one simple character pole is drawn.
        dens = [f"{d}^{r.randint(1, 2)}" for d in r.sample(CLI_FACTORS[::2], r.randint(1, 2))]
        if r.random() < 0.5:
            dens.append(r.choice(CLI_FACTORS[1::2]))
    else:
        dens = [f"{d}^{r.randint(1, 2)}" for d in r.sample(CLI_FACTORS, r.randint(1, 2))]
    return f"({num})/(" + "*".join(dens) + ")"


def _succeeded(res):
    code, out, err = res
    return code == 0 and err == "" and out.endswith("\n")


@functools.lru_cache(maxsize=None)
def golden_cases():
    """GOLDEN_CASES of tests/test_cli.py, with its paths made relative to
    the repository root; the expected outputs are in tests/golden/."""
    spec = importlib.util.spec_from_file_location("kvertex_test_cli",
                                                  os.path.join("tests", "test_cli.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, [os.path.relpath(a) if os.path.isabs(a) else a for a in argv])
            for name, argv in module.GOLDEN_CASES]


def cli_goldens(inp, small):
    cases = golden_cases()[:1] if small else golden_cases()
    return [op_golden(inp, name, argv) for name, argv in cases]


def op_golden(inp, name, argv):
    with open(os.path.join(GOLDEN, name + ".txt"), "r", encoding="utf-8") as fh:
        expected = fh.read()
    inp.fixed("cli", name)
    return [Op("golden", name, lambda: run_cli(argv),
               lambda res: res[0] == 0 and res[1] == expected)]


def op_cli_residue(inp, _i):
    expr, key = inp.draw("cli", lambda r: _keyed(_expr(r)))

    def check(res):
        f, content = exprparse.parse_rational(expr, "z")
        value = residues.residue_k_oracle(f, f.total_pole_mult() + 8)
        if not (content == 1):
            value = PolyFraction.of(value) / PolyFraction.of(content)
        return _succeeded(res) and res[1] == f"{value}\n"

    return [Op("cli_residue", key, lambda: run_cli(["residue", "--kind", "k", expr]), check)]


def op_cli_expand(inp, _i):
    def make(r):
        point = r.choice(["zero", "infinity", "one"])
        expr = _expr(r, at_one=point == "one")
        order = r.randint(3, 8)
        return (expr, point, order), f"{expr}:{point}:{order}"

    (expr, point, order), key = inp.draw("cli", make)

    def check(res):
        f, content = exprparse.parse_rational(expr, "z")
        ser = series.expand_at(f, point, order)
        if not (content == 1):
            ser = ser * PolyFraction(laurent.LP_ONE, content)
        return _succeeded(res) and res[1] == f"{ser}\n"

    return [Op("cli_expand", key, lambda: run_cli(
        ["expand", expr, "--point", point, "--order", str(order)]), check)]


def op_cli_pfrac(inp, _i):
    def make(r):
        num = " + ".join(f"{r.choice([1, 2, -1])}*z^{r.randint(0, 3)}"
                         for _ in range(r.randint(1, 2)))
        dens = r.sample(CLI_FACTORS[:5], r.randint(1, 2))
        expr = f"({num})/(" + "*".join(dens) + ")"
        return expr, expr

    expr, key = inp.draw("cli", make)

    def check(res):
        f, _content = exprparse.parse_rational(expr, "z")
        pf = series.partial_fractions(f)
        return _succeeded(res) and res[1] == f"{pf}\n" and pf.recombines_to(f)

    return [Op("cli_pfrac", key, lambda: run_cli(["pfrac", expr]), check)]


def _binom(n, k):
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(n - i, i + 1)
    return out


def op_cli_hopf(inp, i):
    # `hopf chern K` is left to its golden: its one small argument cannot
    # give a run of fresh inputs (K = 100 already takes 40 ms).
    action = ["star", "pair", "coproduct", "translation"][i % 4]

    def make(r):
        if action == "star":
            args = [r.randint(0, 24), r.randint(0, 24)]
        elif action == "pair":
            args = [r.randint(0, 29), r.randint(-40, 40)]
        elif action == "coproduct":
            args = [r.randint(0, 399)]
        else:
            args = [r.randint(-30, 30), r.randint(3, 12)]
        return args, f"{action}:{args}"

    args, key = inp.draw("cli", make)

    def expected():
        phi = hopf.PhiElement.basis
        if action == "star":
            return str(hopf.from_numerical(hopf.to_numerical(phi(args[0]))
                                           * hopf.to_numerical(phi(args[1]))))
        if action == "pair":
            return str((-1) ** args[0] * _binom(args[1], args[0]))
        if action == "coproduct":
            return " + ".join(f"({phi(i)}) (x) ({phi(args[0] - i)})" for i in range(args[0] + 1))
        if action == "chern":
            return str(hopf.chern_character(phi(args[0])))
        n, order = args
        ser = series.expand_at(RationalFunction.from_poly(LaurentPoly.var("z", n)), "one", order)
        tp = hopf.translation_pairing(n, order)
        return str(tp) if tp.same_up_to(ser, order) else None

    return [Op("cli_hopf", key, lambda: run_cli(["hopf", action] + [str(a) for a in args]),
               lambda res: _succeeded(res) and res[1] == f"{expected()}\n")]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _quiver_file(work, name, q):
    path = os.path.join(work, f"{name}.quiver")
    if not os.path.exists(path):
        _write(path, "".join(f"vertex {v}\n" for v in q.vertices)
               + "".join(f"edge {a} {b}\n" for a, b in q.edges))
    return path


def _grade_text(alpha):
    return "(" + ",".join(str(a) for a in alpha) + ")"


def _quiver_states(r, count, max_total):
    """A random small quiver and `count` random states whose grades have
    total dimension between 1 and max_total."""
    qs = suites.small_quivers()
    qi = r.randrange(len(qs))
    q = qs[qi]
    while True:
        grades = [tuple(r.randint(0, max_total) for _ in range(q.n)) for _ in range(count)]
        if 0 < sum(map(sum, grades)) <= max_total:
            break
    states = [suites.random_graded_element(r, q, g) for g in grades]
    return qi, q, states


def op_cli_vertex(inp, _i):
    def make(r):
        qi, q, (f, g) = _quiver_states(r, 2, 2)
        kernel = r.random() < 0.5
        return (qi, q, f, g, kernel), f"vertex:{qi}:{f}|{g}:{kernel}"

    (qi, q, f, g, kernel), key = inp.draw("cli", make)
    path = _quiver_file(inp.work_dir, f"small{qi}", q)
    argv = ["vertex", "--quiver", path, f"--f={f.poly}@{_grade_text(f.alpha)}",
            f"--g={g.poly}@{_grade_text(g.alpha)}"] + (["--kernel"] if kernel else [])

    def check(res):
        value = quiver.vertex_kernel(f, g) if kernel else quiver.vertex_shuffle(f, g)
        return _succeeded(res) and res[1] == f"{value}\n"

    return [Op("cli_vertex", key, lambda: run_cli(argv), check)]


def degree_zero_state(r, q, alpha):
    """A random block-symmetric state of grade alpha and block degree 0 with
    a character twist: the symmetrization of one monomial whose block
    exponents sum to 0."""
    names = [v for i, c in enumerate(alpha) for v in quiver.block_vars("s", i + 1, c)]
    while True:
        exps = [r.randint(-2, 2) for _ in names]
        if sum(exps) == 0:
            break
    mono = {v: e for v, e in zip(names, exps) if e}
    twist = r.randint(-1, 1)
    if twist:
        mono["t"] = twist
    p = LaurentPoly.term(r.choice([1, 2, 3, -1, -2]), Monomial.make(mono))
    blocks = [quiver.block_vars("s", i + 1, c) for i, c in enumerate(alpha) if c]
    return quiver.GradedElement(q, alpha, laurent.symmetrize(p, blocks), check=False)


# Grades of the seeded brackets: A2 states of grade (1, 1) have 75 degree-0
# variants, enough that the inputs of a run need not repeat.
CLI_BRACKET_GRADES = ((1, 1), (1, 1))


def op_cli_bracket(inp, _i):
    q = quiver.a2_quiver()
    grades = CLI_BRACKET_GRADES
    path = _quiver_file(inp.work_dir, "a2", q)

    def make(r):
        x, y = (degree_zero_state(r, q, g) for g in grades)
        return (x, y), f"bracket:{x}|{y}"

    (x, y), key = inp.draw("cli", make)
    argv = ["bracket", "--quiver", path, f"--f={x.poly}@{_grade_text(x.alpha)}",
            f"--g={y.poly}@{_grade_text(y.alpha)}"]

    def check(res):
        yx = quiver.lie_bracket(y, x)
        neg = quiver.GradedElement(q, yx.alpha, -yx.poly, check=False)
        return _succeeded(res) and res[1] == f"{neg}\n"

    return [Op("cli_bracket", key, lambda: run_cli(argv), check)]


def op_cli_wallcross(inp, i):
    action = ["forward", "invert", "master"][i % 3]

    def make(r):
        d1, d2 = r.randint(1, 6), r.randint(1, 6)
        top = r.randint(3, 5)
        scales = [r.choice([1, 2, 3]) for _ in range(top)]
        alpha = r.randint(1, top)
        return (d1, d2, scales, alpha), f"wallcross:{action}:{d1}:{d2}:{scales}:{alpha}"

    (d1, d2, scales, alpha), key = inp.draw("cli", make)
    tag = inp.drawn
    st_path = os.path.join(inp.work_dir, f"st{tag}.json")
    tb_path = os.path.join(inp.work_dir, f"tb{tag}.json")
    _write(st_path, json.dumps({"rank": [1], "slope": [0], "frames": {"k1": [d1], "k2": [d2]}}))
    table = {f"({n})": f"{c}*Z({n})" for n, c in enumerate(scales, 1)}
    _write(tb_path, json.dumps(table))
    argv = ["wallcross", action, "--stability", st_path, "--table", tb_path, "--k", "k1"]
    if action == "forward":
        argv += ["--alpha", f"({alpha})"]
    elif action == "master":
        argv += ["--k2", "k2", "--alpha", f"({alpha})"]

    def check(res):
        st = cli.load_stability(st_path)
        tb = cli.load_table(tb_path)
        if action == "forward":
            text = wallcross.lie_to_text(wallcross.forward_transform(tb, "k1", (alpha,), st))
        elif action == "invert":
            inv = wallcross.invert_transform(tb, "k1", st)
            fwd = {a: wallcross.forward_transform(inv, "k1", a, st) for a in tb}
            if any(not (fwd[a] == tb[a]) for a in tb):
                return False
            text = cli.dump_table(inv)
        else:
            text = wallcross.lie_to_text(wallcross.master_identity_residual(
                tb, tb, "k1", "k2", (alpha,), st))
        return _succeeded(res) and res[1] == f"{text}\n"

    return [Op("cli_wallcross", key, lambda: run_cli(argv), check)]


def op_cli_malformed(inp, i):
    family = i % 3

    def make(r):
        c = r.randint(1, 999)
        k = r.randint(1, 9)
        if family == 0:
            expr = f"{c}/(1-{r.choice(['z', 't*z', f'z^{k}'])}"
        elif family == 1:
            expr = f"{c}{r.choice(['z', 't', 's'])}" + (f"^{k}" if r.random() < 0.5 else "")
        else:
            expr = r.choice([f"{c}*z^", f"1/(1-z^)+{c}", f"({c}+z)^"])
        verb = r.choice(["residue", "expand", "pfrac"])
        argv = [verb, expr] + (["--point", "zero", "--order", str(k)] if verb == "expand" else [])
        return argv, f"malformed:{argv}"

    argv, key = inp.draw("cli", make)
    return [Op("cli_malformed", key, lambda: run_cli(argv),
               lambda res: res[0] == 2 and res[1] == "" and res[2].startswith("parse error: "))]


# Seeded calls per round: for each verb, as many as the golden command
# lines use it (axioms and suite have goldens only); one malformed
# expression per family.
CLI_VERBS = {"residue": op_cli_residue, "expand": op_cli_expand, "pfrac": op_cli_pfrac,
             "hopf": op_cli_hopf, "vertex": op_cli_vertex, "bracket": op_cli_bracket,
             "wallcross": op_cli_wallcross}
MALFORMED_FAMILIES = 3


def cli_seeded(inp, small):
    if small:
        slots = [(fn, 1) for fn in CLI_VERBS.values()]
    else:
        verbs = Counter(argv[0] for _name, argv in golden_cases())
        slots = [(fn, verbs[verb]) for verb, fn in CLI_VERBS.items()]
    cases = [fn(inp, i) for fn, count in slots for i in range(count)]
    return cases + [op_cli_malformed(inp, i) for i in range(1 if small else MALFORMED_FAMILIES)]


CLI = [cli_seeded]


# -- rounds -----------------------------------------------------------------

WORKLOADS = {"suites": SUITES, "univariate": UNIVARIATE, "cli": CLI}
FIRST_ROUND = {"cli": [cli_goldens]}     # generators of the first round only


class Workload:
    """Round generator for one workload and one run.  A case generator
    takes (inputs, small): small asks for a single case, as warm-up and
    the self-test's tiny rounds use."""

    def __init__(self, name: str, seed: int, work_dir: str, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        self.name = name
        self.work_dir = work_dir
        self.tiny = tiny
        # one warm-up stream for every seed, so set-up does the same work
        self.warm = Inputs(random.Random(f"{name}:warm-up"), work_dir)
        self.inputs = None
        self.timed_seed = f"{name}:timed:{seed}"
        self.rounds_made = 0

    def _build(self, inp, generators, small):
        cases = []
        for generate in generators:
            cases += generate(inp, small)
        inp.rng.shuffle(cases)
        return [op for case in cases for op in case]

    def warm_up_ops(self):
        return self._build(self.warm, WORKLOADS[self.name], small=True)

    def next_round(self):
        if self.inputs is None:
            self.inputs = Inputs(random.Random(self.timed_seed), self.work_dir,
                                 seen=self.warm.seen)
        generators = WORKLOADS[self.name]
        if self.rounds_made == 0:
            generators = generators + FIRST_ROUND.get(self.name, [])
        self.rounds_made += 1
        return self._build(self.inputs, generators, small=self.tiny)

    def repeat_frac(self) -> float:
        if self.inputs is None or not self.inputs.drawn:
            return 0.0
        return self.inputs.repeats / self.inputs.drawn


def canon(x) -> str:
    """Deterministic text of a result, for the run digest."""
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}"
                              for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    return str(x)


def corrupt(result):
    """A wrong variant of a result, for the self-test of the checks."""
    if isinstance(result, LaurentPoly):
        return result + 1
    if isinstance(result, quiver.GradedElement):
        return quiver.GradedElement(result.quiver, result.alpha, result.poly + 1, check=False)
    if isinstance(result, RationalFunction):
        return result + RationalFunction.from_poly(LaurentPoly.scalar(1), result.var)
    if isinstance(result, tuple) and len(result) == 3:      # cli (code, out, err)
        return (result[0], result[1] + " ", result[2])
    if isinstance(result, tuple) and len(result) == 2:      # axiom (ok, witness)
        return (not result[0], result[1])
    if isinstance(result, list) and result and isinstance(result[0], LaurentPoly):
        return [result[0] + 1] + result[1:]
    if isinstance(result, list):                             # coproduct pairs
        return result + result[:1]
    if isinstance(result, dict):
        return {k: corrupt(v) for k, v in result.items()} if result else {0: LaurentPoly.scalar(1)}
    if isinstance(result, hopf.PhiElement):
        return result + hopf.PhiElement.basis(0)
    if isinstance(result, series.PartialFractions):
        return series.PartialFractions(result.var, result.poly_part, result.terms[1:])
    if isinstance(result, series.FormalSeries):
        return series.FormalSeries(result.point, result.var, result.coeffs, result.trunc + 1)
    if isinstance(result, PolyFraction):
        return result + 1
    if isinstance(result, LieElement):
        return result * 2
    return object()
