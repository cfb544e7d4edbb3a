"""Shuffle and kernel vertex operations on quiver character rings.

States of grade alpha are symmetric Laurent polynomials in the block
variables s_{i,a} (vertex i, slot a <= alpha_i), tensored with arbitrary
equivariant characters.  The holomorphic vertex operation is the shuffle

    Y(f, z) g = (1/alpha! beta!) sum_{sigma} sigma . (f|_{s -> z s} g),

realized as a sum over coset representatives; the kernel operation inserts
the rational multiplier built from the deformation characters, giving poles
at 1 - c z^{+-1}, and the induced bracket applies the K-theoretic residue.

No variable is renamed by name: a coset plan per (alpha, beta, zvar,
convention) holds, per coset of S_(alpha+beta)/(S_alpha x S_beta), a move
list: the (from, to) bit offsets of just the packed exponent fields that
coset moves.  The identity coset moves nothing, so it costs the z shift of
f's keys and one product; only the keys of a moving coset are range-checked.

Translation convention: the shuffle substitutes s -> z s, which acts as
z^(+deg); the opposite z^(-deg) convention is available behind a flag.
The Chern classes cancel characters common to E^0 and E^1, build the
positive part in s and read one place of it in u = 1 - s.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import laurent
from .laurent import (_HALF, _MASK, LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial,
                      PolyFraction, _acc, _common, _field, _mono, _mul_into, _shift)
from .residues import residue_k
from .series import RationalFunction, USeries, _u_digits


class Quiver:
    """Vertex names and edges, ordered pairs of vertex names; loops and
    multi-edges allowed.  Immutable by convention, equal and hashed by value."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple, edges: tuple):
        vs = set(vertices)
        if len(vs) != len(vertices):
            raise ValueError("duplicate vertex names")
        for a, b in edges:
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a}, {b}) uses an undeclared vertex")
        self.vertices = vertices
        self.edges = edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Quiver(vertices={self.vertices!r}, edges={self.edges!r})"

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, name) -> int:
        return self.vertices.index(name)

    def zero(self) -> tuple:
        return (0,) * self.n

    def unit(self, name) -> tuple:
        e = [0] * self.n
        e[self.vertex_index(name)] = 1
        return tuple(e)


def jordan_quiver() -> Quiver:
    return Quiver(("1",), (("1", "1"),))


def a2_quiver() -> Quiver:
    return Quiver(("1", "2"), (("1", "2"),))


def dim_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def block_vars(prefix: str, i: int, count: int, start: int = 1):
    """Variable names prefix_{i,a} for slots start..start+count-1 (i 1-based)."""
    return [f"{prefix}_{{{i},{a}}}" for a in range(start, start + count)]


@functools.lru_cache(maxsize=1024)
def _offsets(prefix: str, alpha: tuple) -> tuple:
    """Per vertex i, the bit offsets of the fields of prefix_{i,1..alpha_i}."""
    return tuple(tuple(_shift(v) for v in block_vars(prefix, i + 1, c))
                 for i, c in enumerate(alpha))


class GradedElement:
    """A dimension vector plus a block-symmetric Laurent polynomial."""

    __slots__ = ("quiver", "alpha", "poly")

    def __init__(self, quiver: Quiver, alpha, poly: LaurentPoly, check: bool = True):
        alpha = tuple(alpha)
        if len(alpha) != quiver.n or min(alpha, default=0) < 0:
            raise ValueError("dimension vector does not match the quiver")
        if check and not is_block_symmetric(poly, alpha):
            raise ValueError("polynomial is not symmetric under the block permutations")
        if not any(alpha) and any(v.startswith("s_{") for v in poly.variables()):
            raise ValueError("grade zero carries scalars and characters only")
        self.quiver = quiver
        self.alpha = alpha
        self.poly = poly

    @staticmethod
    def _of(quiver: Quiver, alpha: tuple, poly: LaurentPoly) -> "GradedElement":
        """A state built from valid operands, without validation."""
        out = object.__new__(GradedElement)
        out.quiver, out.alpha, out.poly = quiver, alpha, poly
        return out

    @staticmethod
    def unit(quiver: Quiver, alpha) -> "GradedElement":
        return GradedElement(quiver, alpha, LP_ONE, check=False)

    @staticmethod
    def vacuum(quiver: Quiver) -> "GradedElement":
        return GradedElement.unit(quiver, quiver.zero())

    def all_block_vars(self, prefix: str = "s"):
        return [v for i, c in enumerate(self.alpha) for v in block_vars(prefix, i + 1, c)]

    def __add__(self, other):
        if self.alpha != other.alpha or self.quiver != other.quiver:
            raise ValueError("grades differ")
        return GradedElement._of(self.quiver, self.alpha, self.poly + other.poly)

    def __sub__(self, other):
        if self.alpha != other.alpha or self.quiver != other.quiver:
            raise ValueError("grades differ")
        return GradedElement._of(self.quiver, self.alpha, self.poly - other.poly)

    def __mul__(self, c):
        return GradedElement(self.quiver, self.alpha, self.poly * c, check=False)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and self.alpha == other.alpha
                and self.quiver == other.quiver and self.poly == other.poly)

    __hash__ = None

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_degree_zero(self) -> bool:
        """Every monomial has total block-variable degree zero."""
        src = [s for blk in _offsets("s", self.alpha) for s in blk]
        h = laurent._HALVES
        return not any(sum((((m + h) >> s) & _MASK) - _HALF for s in src)
                       for m in self.poly.terms)

    def __str__(self):
        return f"{self.poly} @ {self.alpha}"

    def __repr__(self):
        return f"<GradedElement {self}>"


def is_block_symmetric(poly: LaurentPoly, alpha, prefix: str = "s") -> bool:
    """Invariance under adjacent transpositions of each block (generators):
    a transposition swaps two fields of every key."""
    return all(dict(_moved(poly.terms.items(), ((s1, s2), (s2, s1)))) == poly.terms
               for blk in _offsets(prefix, tuple(alpha)) for s1, s2 in zip(blk, blk[1:]))


class VirtualCharacter:
    """E^0 - E^1 as multisets of character monomials; no forced cancellation.
    Immutable by convention, equal and hashed by value."""

    __slots__ = ("positive", "negative")

    def __init__(self, positive: tuple, negative: tuple):
        self.positive = positive
        self.negative = negative

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.positive, self.negative) == (other.positive, other.negative)

    def __hash__(self):
        return hash((self.positive, self.negative))

    def __repr__(self):
        return f"VirtualCharacter(positive={self.positive!r}, negative={self.negative!r})"

    @staticmethod
    def make(positive, negative=()) -> "VirtualCharacter":
        return VirtualCharacter(tuple(sorted(positive, key=Monomial.items)),
                                tuple(sorted(negative, key=Monomial.items)))

    @property
    def rank(self) -> int:
        return len(self.positive) - len(self.negative)

    def dual(self) -> "VirtualCharacter":
        return VirtualCharacter.make([m.inv() for m in self.positive],
                                     [m.inv() for m in self.negative])

    def det(self) -> Monomial:
        out = MONO_ONE
        for m in self.positive + tuple(m.inv() for m in self.negative):
            out = out * m
        return out


def deformation_character(q: Quiver, alpha, beta, first: str = "s",
                          second: str = "t") -> VirtualCharacter:
    """Characters of the bilinear deformation complex: positive part
    second_{i,b}/first_{i,a} over shared vertices, negative part
    second_{j,b}/first_{i,a} over edges i -> j.

    >>> deformation_character(a2_quiver(), (1, 0), (0, 1)).negative
    (Monomial s_{1,1}^-1*t_{2,1},)
    """
    def chars(pairs):
        return [Monomial.var(f"{second}_{{{j+1},{b}}}") * Monomial.var(f"{first}_{{{i+1},{a}}}", -1)
                for i, j in pairs for a in range(1, alpha[i] + 1) for b in range(1, beta[j] + 1)]

    edges = [(q.vertex_index(vi), q.vertex_index(vj)) for vi, vj in q.edges]
    return VirtualCharacter.make(chars([(i, i) for i in range(q.n)]), chars(edges))


def _kernel_characters(q: Quiver, alpha, beta, full: bool = True):
    """(chi, zexp, c): chi has multiplicity c != 0 in E^0 - E^1 (in E^0 when
    not full) of E_{alpha,beta} (zexp -1) or E_{beta,alpha} (zexp 1); the
    characters common to both wedges cancel."""
    out = []
    for vc, zexp in ((deformation_character(q, alpha, beta), -1),
                     (deformation_character(q, beta, alpha, first="t", second="s"), 1)):
        count: dict = {}
        for chi in vc.positive:
            count[chi] = count.get(chi, 0) + 1
        for chi in vc.negative if full else ():
            count[chi] = count.get(chi, 0) - 1
        out += [(chi, zexp, c) for chi, c in sorted(count.items()) if c]
    return out


def theta_kernel(q: Quiver, alpha, beta, full: bool = True,
                 zvar: str = "z") -> "RationalFunction | LaurentPoly":
    """The bilinear kernel: product over E^0_{alpha,beta} of (1 - z^-1 chi^-1)
    and over E^0_{beta,alpha} of (1 - z chi^-1), divided by the same products
    over E^1 when full=True; full=False returns just the numerator polynomial.

    >>> str(theta_kernel(jordan_quiver(), (1,), (1,), full=True))
    '1'
    """
    num = LP_ONE
    for chi, zexp, c in _kernel_characters(q, alpha, beta, full):
        if c > 0:
            num = num * (LP_ONE - LaurentPoly.term(1, chi.inv() * Monomial.var(zvar, zexp))) ** c
    return propagator_kernel(q, alpha, beta, zvar) * num if full else num


def translate(a: GradedElement, zvar: str = "z",
              convention: str = "substitution") -> GradedElement:
    """The grading operator: multiply each monomial of total block degree d
    by z^d (substitution convention) or z^-d (inverse-degree convention).

    >>> g = GradedElement(jordan_quiver(), (2,), LaurentPoly.var("s_{1,1}") * LaurentPoly.var("s_{1,2}"))
    >>> str(translate(g).poly)
    's_{1,1}*s_{1,2}*z^2'
    """
    plan = _plan(a.alpha, a.quiver.zero(), zvar, convention)
    poly = LaurentPoly(dict(_translated(plan, a.poly.terms.items())), a.poly.exp_den)
    return GradedElement._of(a.quiver, a.alpha, poly)


def _moves(src, dst) -> tuple:
    """The (from, to) pairs of the offsets src and dst that differ."""
    return tuple((s, t) for s, t in zip(src, dst) if s != t)


class _Plan:
    """Where the vertex operations of the grades (alpha, beta) move block fields.

    f's fields are at the offsets src_f (s_{i,1..a}, vertex by vertex), g's
    at s_{i,1..b}.  At each vertex a coset gives f's fields a of the a+b
    union slots in order, g's the others: s_{i,1..a+b} in the s naming,
    s_{i,1..a}, t_{i,1..b} in the s/t naming.  A coset is kept as move
    lists, the (from, to) offsets of just the fields it moves: cosets holds
    (f's, g's) into the s naming, st those of the s/t fields within the s/t
    naming (st[0] is the identity, ()), to_s the same cosets' moves of the
    s/t fields into the s naming; to_t moves g's fields to t_{i,1..b}.
    z gets sign times f's block degree, at the offset z.
    """

    def __init__(self, alpha, beta, zvar, convention):
        self.args = (alpha, beta, zvar)
        self.grade = dim_add(alpha, beta)
        self.sign = {"substitution": 1, "inverse_degree": -1}[convention]
        self.z = _shift(zvar)
        s_off, t_off = _offsets("s", self.grade), _offsets("t", beta)
        self.src_f = sum(_offsets("s", alpha), ())
        self.to_t = _moves(sum(_offsets("s", beta), ()), sum(t_off, ()))
        per_vertex = []
        for a, b, s, t in zip(alpha, beta, s_off, t_off):
            st = s[:a] + t
            choices = []
            for first in itertools.combinations(range(a + b), a):
                chosen = set(first)
                order = first + tuple(k for k in range(a + b) if k not in chosen)
                choices.append((_moves(s[:a], [s[k] for k in first]),
                                _moves(s[:b], [s[k] for k in order[a:]]),
                                _moves(st, [st[k] for k in order]),
                                _moves(st, [s[k] for k in order])))
            per_vertex.append(choices)
        mf, mg, self.st, self.to_s = zip(*(tuple(sum(parts, ()) for parts in zip(*combo))
                                           for combo in itertools.product(*per_vertex)))
        self.cosets = list(zip(mf, mg))
        self.kernels = {}

    def kernel(self, q: Quiver) -> RationalFunction:
        if q not in self.kernels:
            alpha, beta, zvar = self.args
            self.kernels[q] = RationalFunction(zvar, LP_ONE, [
                (Fraction(0), chi.inv(), zexp, -c)
                for chi, zexp, c in _kernel_characters(q, alpha, beta) if c < 0])
        return self.kernels[q]


@functools.lru_cache(maxsize=256)
def _plan(alpha: tuple, beta: tuple, zvar: str, convention: str) -> _Plan:
    return _Plan(alpha, beta, zvar, convention)


def _translated(plan: _Plan, pairs):
    """The (key, c) pairs times z^(sign * block degree of f), the z field
    range-checked."""
    src, z, sign = plan.src_f, plan.z, plan.sign
    if not src:
        return pairs
    h, bias = laurent._HALVES, _HALF * len(src)
    out = []
    for m, c in pairs:
        u = m + h
        deg = sign * (sum((u >> s) & _MASK for s in src) - bias)
        if deg:
            _field((((u >> z) & _MASK) - _HALF) + deg)
            m += deg << z
        out.append((m, c))
    return out


def _moved(pairs, moves):
    """The (key, c) pairs with the field at each from offset of moves put at
    its to offset.  A to offset gets at most one moved field and a stray
    field of the rest, so the keys are exact; OverflowError when a field
    of a moving coset's keys left the stored range."""
    if not moves:
        return pairs
    h, q = laurent._HALVES, laurent._QUARTERS
    chk = 0
    out = []
    for m, c in pairs:
        u = m + h
        for s, t in moves:
            e = ((u >> s) & _MASK) - _HALF
            if e:
                m += (e << t) - (e << s)
        chk |= m + q
        out.append((m, c))
    if chk & h:
        raise laurent._overflow()
    return out


def _shuffle(plan: _Plan, f: GradedElement, g: GradedElement, cosets) -> LaurentPoly:
    """Sum over the (f's moves, g's moves) of cosets of the translated f
    times g, with those fields moved: each term is translated once."""
    A, B, d = _common(f.poly, g.poly)
    F, G = _translated(plan, A.items()), B.items()
    out: dict = {}
    for mf, mg in cosets:
        _mul_into(out, _moved(F, mf), _moved(G, mg))
    return LaurentPoly(out, d)


def vertex_shuffle(f: GradedElement, g: GradedElement, zvar: str = "z",
                   convention: str = "substitution") -> GradedElement:
    """Holomorphic vertex operation: coset-symmetrized product of the
    z-translated first state with the second, in one pass over the cosets
    of the plan: each coset moves the block fields to its slots s_{i,k}.

    >>> q = Quiver(("1",), ())
    >>> f = GradedElement(q, (1,), LaurentPoly.var("s_{1,1}"))
    >>> str(vertex_shuffle(f, f))
    '2*s_{1,1}*s_{1,2}*z @ (2,)'
    """
    if f.quiver is not g.quiver and f.quiver != g.quiver:
        raise ValueError("states live on different quivers")
    plan = _plan(f.alpha, g.alpha, zvar, convention)
    return GradedElement._of(f.quiver, plan.grade, _shuffle(plan, f, g, plan.cosets))


def propagator_kernel(q: Quiver, alpha, beta, zvar: str = "z") -> RationalFunction:
    """The pole part of the bilinear kernel after virtual cancellation:
    1 over the surviving obstruction-side factors (1 - z^-1 chi^-1) and
    (1 - z chi^-1), in the s/t naming.  The surviving deformation-side
    factors of the full kernel are polynomial in z; they contribute no
    poles and are omitted here, which is exactly what makes the residue
    pairing close into a Lie bracket.  The plan of (alpha, beta) holds it
    per quiver.  lie_bracket takes the residue before the coset sum: a
    coset only moves block fields, and residue_k commutes with that."""
    return _plan(tuple(alpha), tuple(beta), zvar, "substitution").kernel(q)


def vertex_kernel(f: GradedElement, g: GradedElement, zvar: str = "z",
                  convention: str = "substitution") -> RationalFunction:
    """Vertex operation with the propagator kernel inserted: rational in z
    with poles only at 1 - c z^{+-1} (the reduced shape).  Variables stay in
    the s/t union naming; grade bookkeeping is carried by the caller.  Each
    coset of the plan moves the block fields of the one integrand; the
    identity coset is the integrand itself.

    When the kernel cancels completely (e.g. the one-loop quiver) this is
    the plain shuffle.

    >>> q = a2_quiver()
    >>> Y = vertex_kernel(GradedElement.unit(q, q.unit("1")), GradedElement.unit(q, q.unit("2")))
    >>> Y.factors()
    [(Fraction(0, 1), Monomial s_{1,1}^-1*t_{2,1}, 1, 1)]
    """
    if f.quiver != g.quiver:
        raise ValueError("states live on different quivers")
    plan = _plan(f.alpha, g.alpha, zvar, convention)
    integrand = plan.kernel(f.quiver) * _shuffle(plan, f, g, [((), plan.to_t)])
    N = integrand.num.terms.items()
    D = [(m.key, (a, m.den, n, e)) for (a, m, n), e in integrand.den.items()]
    total = integrand
    for moves in plan.st[1:]:
        # a coset permutes the s/t slots, so distinct keys stay distinct
        num = LaurentPoly(dict(_moved(N, moves)), integrand.num.exp_den)
        factors = [(a, _mono(m, den), n, e) for m, (a, den, n, e) in _moved(D, moves)]
        total = total + RationalFunction(zvar, num, factors)
    return total


def reduced_pole_shape(fz: RationalFunction) -> bool:
    """True when every denominator factor is linear in z (n = +-1 before
    normalization, n = 1 after)."""
    return all(n == 1 for (_a, _m, n) in fz.den)


def lie_bracket(f: GradedElement, g: GradedElement, zvar: str = "z") -> GradedElement:
    """[f, g] = residue of the kernel vertex operation; defined on states of
    block degree zero, where the output is again degree zero.

    The residue is taken once, of the un-symmetrized integrand
    propagator_kernel * (translated f) * g, and each coset of the plan moves
    its block fields to the slots s_{i,k}.  This is residue_k(vertex_kernel)
    with t_{i,b} read as s_{i,a+b}, since residue_k is linear and commutes
    with moves of block fields; no common denominator is built.

    >>> q = a2_quiver()
    >>> str(lie_bracket(GradedElement.unit(q, (1, 0)), GradedElement.unit(q, (0, 1))))
    '-1 @ (1, 1)'
    """
    if not f.is_degree_zero() or not g.is_degree_zero():
        raise ValueError("the bracket is defined on degree-0 states")
    if f.quiver != g.quiver:
        raise ValueError("states live on different quivers")
    plan = _plan(f.alpha, g.alpha, zvar, "substitution")
    res = residue_k(plan.kernel(f.quiver) * _shuffle(plan, f, g, [((), plan.to_t)]))
    total: dict = {}
    for moves in plan.to_s:
        for m, c in _moved(res.terms.items(), moves):
            _acc(total, m, c)
    return GradedElement._of(f.quiver, plan.grade, LaurentPoly(total, res.exp_den))


def axiom_check(q: Quiver, which: str, f: GradedElement, g: GradedElement,
                h: "GradedElement | None" = None, zvar: str = "z", wvar: str = "w",
                convention: str = "substitution"):
    """Exact verification of one vertex-algebra axiom on shuffle states.

    Returns (ok, witness); witness is None on success and a dict carrying
    both sides and the differing coefficient on failure.
    """
    if which == "vacuum":
        lhs = vertex_shuffle(GradedElement.vacuum(q), g, zvar, convention)
        ok1 = lhs.poly == g.poly and lhs.alpha == g.alpha
        rhs = vertex_shuffle(g, GradedElement.vacuum(q), zvar, convention)
        expect = translate(g, zvar, convention)
        ok = ok1 and rhs.poly == expect.poly
        return ok, None if ok else _witness(lhs.poly if not ok1 else rhs.poly,
                                            g.poly if not ok1 else expect.poly)
    if which == "skew":
        lhs = vertex_shuffle(f, g, zvar, convention)
        inner = vertex_shuffle(g, f, zvar, convention)
        inv = inner.poly.subs_mono(zvar, Monomial.var(zvar, -1))
        rhs = translate(GradedElement._of(q, inner.alpha, inv), zvar, convention)
        ok = lhs.poly == rhs.poly
        return ok, None if ok else _witness(lhs.poly, rhs.poly)
    if which == "weak_assoc":
        if h is None:
            raise ValueError("weak associativity needs three states")
        inner = vertex_shuffle(f, g, zvar, convention)
        lhs = vertex_shuffle(inner, h, wvar, convention)
        gh = vertex_shuffle(g, h, wvar, convention)
        # f translated by z and w: the shuffle adds z to f translated by w
        rhs = vertex_shuffle(translate(f, wvar, convention), gh, zvar, convention)
        ok = lhs.poly == rhs.poly
        return ok, None if ok else _witness(lhs.poly, rhs.poly)
    if which == "locality":
        if h is None:
            raise ValueError("locality needs three states")
        lhs = vertex_shuffle(f, vertex_shuffle(g, h, wvar, convention), zvar, convention)
        rhs = vertex_shuffle(g, vertex_shuffle(f, h, zvar, convention), wvar, convention)
        ok = lhs.poly == rhs.poly and lhs.alpha == rhs.alpha
        return ok, None if ok else _witness(lhs.poly, rhs.poly)
    raise ValueError(f"unknown axiom {which!r}")


def _witness(lhs: LaurentPoly, rhs: LaurentPoly):
    diff = lhs - rhs
    mono = min(diff.monomials(), key=Monomial.items)
    return {"lhs": lhs, "rhs": rhs, "monomial": mono,
            "coefficient": diff.coefficient(mono)}


# -- characteristic classes -----------------------------------------------------


def conner_floyd(e: VirtualCharacter, i: int):
    """The coefficient of (1-s)^(rank - i) in the dual wedge series
    prod_pos (1 - s/chi) / prod_neg (1 - s/chi): the K-theoretic analogue
    of the i-th Chern class.  Literal coefficient extraction; indices
    outside [0, rank] just read the series.

    Characters are counted on their (key, den) pairs.  One in both
    e.positive and e.negative cancels with its multiplicity: the rank
    stays, and so does the series, as 1 - s/chi = (1 - 1/chi) + u/chi is a
    unit in u = 1 - s for a non-trivial chi.  A trivial chi left is the
    factor u: it shifts the valuation val up (positive) or down by one.

    The positive part is built in s, W(s) = prod (1 - x s)^m over x = 1/chi
    of multiplicity m, on keys lifted to the lcm of the denominators.  Each
    factor has one monomial per s-power, so W's coefficients w_j are sums
    of monomials, (-1)^j e_j of the x's (Macdonald, Symmetric Functions and
    Hall Polynomials), and place K = rank - i - val in u is (-1)^K
    sum_(j >= K) binom(j, K) w_j, a digit of series._u_digits.  With no
    negative chi left that place is the value; else places 0..K go through
    one USeries.divide by ((1 - x) + x u)^m per negative chi.  Each chi
    left is range-checked once, at x^m, whatever the index; the products
    building W check their keys; a chi that cancels is never checked.

    Returns a LaurentPoly when the value is polynomial, else a PolyFraction
    (its num/den depend on how the divisions are grouped, its value not).
    """
    net: dict = {}
    for chi in e.positive:
        net[chi.key, chi.den] = net.get((chi.key, chi.den), 0) + 1
    for chi in e.negative:
        net[chi.key, chi.den] = net.get((chi.key, chi.den), 0) - 1
    val = net.pop((0, 1), 0)
    d = math.lcm(1, *(den for (_, den), m in net.items() if m > 0))
    pos, neg = [], []
    for (key, den), m in net.items():
        # the fields are linear in the power of x = 1/chi: x^|m| is the one check
        if m > 0:
            laurent._scaled(key, -m * (d // den))
            pos.append((-key * (d // den), m))
        elif m < 0:
            laurent._scaled(key, m)
            neg.append((-key, den, -m))
    place = e.rank - i - val
    if place < 0:
        return LP_ZERO
    w = [{0: 1}]
    for x, m in pos:
        out = [{} for _ in range(len(w) + m)]
        for l in range(m + 1):
            f = ((l * x, (-1) ** l * math.comb(m, l)),)
            for j, wj in enumerate(w):
                _mul_into(out[j + l], wj.items(), f)
        w = out
    zpows = {j: LaurentPoly(wj, d) for j, wj in enumerate(w)}
    if not neg:
        return next(_u_digits(zpows, place))
    ser = USeries(0, list(itertools.islice(_u_digits(zpows), place + 1)))
    for x, den, m in neg:
        ser = ser.divide([LaurentPoly({0: 1, x: -1}, den), LaurentPoly({x: 1}, den)], m)
    fr = ser.coeff(place)
    p = fr.as_poly()
    return p if p is not None else fr


def wedge_minus_one(e: VirtualCharacter):
    """prod_pos (1 - chi) / prod_neg (1 - chi) as a polynomial or fraction."""
    num, den = LP_ONE, LP_ONE
    for chi in e.positive:
        num = num * (LP_ONE - LaurentPoly.term(1, chi))
    for chi in e.negative:
        den = den * (LP_ONE - LaurentPoly.term(1, chi))
    fr = PolyFraction(num, den)
    p = fr.as_poly()
    return p if p is not None else fr


def symmetrized_wedge(e: VirtualCharacter):
    """wedge_{-1}(E) times the square root of det(E): half-integer exponents.

    >>> str(symmetrized_wedge(VirtualCharacter.make([Monomial.var("l")])))
    'l^(1/2) - l^(3/2)'
    """
    w = wedge_minus_one(e)
    half_det = LaurentPoly.term(1, e.det() ** Fraction(1, 2))
    if isinstance(w, PolyFraction):
        return w * PolyFraction.of(half_det)
    return w * half_det
