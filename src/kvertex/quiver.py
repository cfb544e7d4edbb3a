"""Shuffle and kernel vertex operations on quiver character rings.

States of grade alpha are symmetric Laurent polynomials in the block
variables s_{i,a} (vertex i, slot a <= alpha_i), tensored with arbitrary
equivariant characters.  The holomorphic vertex operation is the shuffle

    Y(f, z) g = (1/alpha! beta!) sum_{sigma} sigma . (f|_{s -> z s} g),

realized as a sum over coset representatives; the kernel operation inserts
the rational multiplier built from the deformation characters, giving poles
at 1 - c z^{+-1}, and the induced bracket applies the K-theoretic residue.

No variable is renamed by name: a coset plan per (alpha, beta, zvar,
convention) holds the bit offsets of both blocks' packed exponent fields,
one list of target offsets per coset of S_(alpha+beta)/(S_alpha x S_beta)
and the offset of z, so a coset moves fields and the shuffle adds keys.

Translation convention: the shuffle substitutes s -> z s, which acts as
z^(+deg); the opposite z^(-deg) convention is available behind a flag.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import lshift

from . import laurent
from .laurent import (_HALF, _MASK, LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial,
                      PolyFraction, _acc, _common, _field, _mono, _mul_into, _shift)
from .residues import residue_k
from .series import RationalFunction, USeries


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    edges: tuple  # ordered pairs of vertex names; loops and multi-edges allowed

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        for a, b in self.edges:
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a}, {b}) uses an undeclared vertex")

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
        return GradedElement(self.quiver, self.alpha, self.poly + other.poly, check=False)

    def __sub__(self, other):
        if self.alpha != other.alpha or self.quiver != other.quiver:
            raise ValueError("grades differ")
        return GradedElement(self.quiver, self.alpha, self.poly - other.poly, check=False)

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
    return all(dict(_place(_split(poly.terms.items(), (s1, s2)), (s2, s1))) == poly.terms
               for blk in _offsets(prefix, tuple(alpha)) for s1, s2 in zip(blk, blk[1:]))


@dataclass(frozen=True)
class VirtualCharacter:
    """E^0 - E^1 as multisets of character monomials; no forced cancellation."""

    positive: tuple
    negative: tuple

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
    F = _split(a.poly.terms.items(), plan.src_f, plan.z, plan.sign)
    poly = LaurentPoly(dict(_place(F, plan.src_f)), a.poly.exp_den)
    return GradedElement(a.quiver, a.alpha, poly, check=False)


class _Plan:
    """Where the vertex operations of the grades (alpha, beta) put block fields.

    f's fields are at the offsets src_f (s_{i,1..a}, vertex by vertex), g's
    at src_g (s_{i,1..b}), and src_st is src_f then t_{i,1..b}, g's block in
    the s/t naming.  At each vertex a coset gives f's fields a of the a+b
    union slots in order, g's the others: cosets holds the (f, g) targets
    when slot k is s_{i,k}, st when the slots are s_{i,1..a}, t_{i,1..b}
    (st[0] is the identity).  z gets sign times the block degree.
    """

    def __init__(self, alpha, beta, zvar, convention):
        self.args = (alpha, beta, zvar)
        self.sign = {"substitution": 1, "inverse_degree": -1}[convention]
        self.z = _shift(zvar)
        s_off, t_off = _offsets("s", dim_add(alpha, beta)), _offsets("t", beta)
        self.src_f, self.src_g = sum(_offsets("s", alpha), ()), sum(_offsets("s", beta), ())
        self.src_st = self.src_f + sum(t_off, ())
        per_vertex = []
        for a, b, s, t in zip(alpha, beta, s_off, t_off):
            choices = []
            for first in itertools.combinations(range(a + b), a):
                rest = [k for k in range(a + b) if k not in first]
                choices.append([tuple(u[k] for k in ks) for u in (s, s[:a] + t)
                                for ks in (first, rest)])
            per_vertex.append(choices)
        # per coset: f's and g's targets in the s naming, then in the s/t naming
        combos = [[tuple(x for c in combo for x in c[j]) for j in range(4)]
                  for combo in itertools.product(*per_vertex)]
        self.cosets = [(tf, tg) for tf, tg, _, _ in combos]
        self.st = [(tf, tg) for _, _, tf, tg in combos]
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


def _split(pairs, src, z: int = 0, sign: int = 0) -> list:
    """[(rest, fields, c)] for the (key, c) pairs: the key without its fields
    at the offsets src, and those fields.  With a sign, rest also carries
    z^(sign * block degree) at the offset z, range-checked."""
    h = laurent._HALVES
    out = []
    for m, c in pairs:
        u = m + h
        fields = [((u >> s) & _MASK) - _HALF for s in src]
        m -= sum(map(lshift, fields, src))
        deg = sign * sum(fields)
        if deg:
            _field((((u >> z) & _MASK) - _HALF) + deg)
            m += deg << z
        out.append((m, fields, c))
    return out


def _place(split, targets) -> list:
    """The (key, c) pairs of split with the fields added at the offsets
    targets.  A slot gets at most one field and a stray field of the rest,
    so the keys are exact; OverflowError when a slot left the stored range."""
    out = [(rest + sum(map(lshift, fields, targets)), c) for rest, fields, c in split]
    laurent._check_keys([m for m, _ in out])
    return out


def _shuffle(plan: _Plan, f: GradedElement, g: GradedElement, cosets) -> LaurentPoly:
    """Sum over the (f, g) targets of cosets of the translated f times g,
    with the block fields placed there: each term is split once."""
    A, B, d = _common(f.poly, g.poly)
    F = _split(A.items(), plan.src_f, plan.z, plan.sign)
    G = _split(B.items(), plan.src_g)
    out: dict = {}
    for tf, tg in cosets:
        _mul_into(out, _place(F, tf), _place(G, tg))
    return LaurentPoly(out, d)


def vertex_shuffle(f: GradedElement, g: GradedElement, zvar: str = "z",
                   convention: str = "substitution") -> GradedElement:
    """Holomorphic vertex operation: coset-symmetrized product of the
    z-translated first state with the second, in one pass over the cosets
    of the plan: each coset puts the block fields at its slots s_{i,k}.

    >>> q = Quiver(("1",), ())
    >>> f = GradedElement(q, (1,), LaurentPoly.var("s_{1,1}"))
    >>> str(vertex_shuffle(f, f))
    '2*s_{1,1}*s_{1,2}*z @ (2,)'
    """
    if f.quiver != g.quiver:
        raise ValueError("states live on different quivers")
    plan = _plan(f.alpha, g.alpha, zvar, convention)
    total = _shuffle(plan, f, g, plan.cosets)
    return GradedElement(f.quiver, dim_add(f.alpha, g.alpha), total, check=False)


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
    coset of the plan moves the block fields of the one integrand.

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
    integrand = plan.kernel(f.quiver) * _shuffle(plan, f, g, plan.st[:1])
    N = _split(integrand.num.terms.items(), plan.src_st)
    D = _split([(m.key, (a, m.den, n, e)) for (a, m, n), e in integrand.den.items()],
               plan.src_st)
    total = None
    for tf, tg in plan.st:
        num: dict = {}
        for m, c in _place(N, tf + tg):
            _acc(num, m, c)
        factors = [(a, _mono(m, den), n, e) for m, (a, den, n, e) in _place(D, tf + tg)]
        piece = RationalFunction(zvar, LaurentPoly(num, integrand.num.exp_den), factors)
        total = piece if total is None else total + piece
    return total


def reduced_pole_shape(fz: RationalFunction) -> bool:
    """True when every denominator factor is linear in z (n = +-1 before
    normalization, n = 1 after)."""
    return all(n == 1 for (_a, _m, n) in fz.den)


def lie_bracket(f: GradedElement, g: GradedElement, zvar: str = "z") -> GradedElement:
    """[f, g] = residue of the kernel vertex operation; defined on states of
    block degree zero, where the output is again degree zero.

    The residue is taken once, of the un-symmetrized integrand
    propagator_kernel * (translated f) * g, and each coset of the plan puts
    its block fields at the slots s_{i,k}.  This is residue_k(vertex_kernel)
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
    res = residue_k(plan.kernel(f.quiver) * _shuffle(plan, f, g, plan.st[:1]))
    R = _split(res.terms.items(), plan.src_st)
    total: dict = {}
    for tf, tg in plan.cosets:
        for m, c in _place(R, tf + tg):
            _acc(total, m, c)
    return GradedElement(f.quiver, dim_add(f.alpha, g.alpha),
                         LaurentPoly(total, res.exp_den), check=False)


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
        rhs = translate(GradedElement(q, inner.alpha, inv, check=False), zvar, convention)
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

    In u = 1 - s each factor is (1 - 1/chi) + u/chi, and a trivial chi in
    the denominator divides by u, so the coefficient wanted sits at place
    T = rank - i + depth of the u-series, depth the number of trivial
    characters among e.negative.  Only places 0..T are computed: place k of
    a u-adic product or quotient depends only on the operands' places <= k.

    Returns a LaurentPoly when the value is polynomial, else a PolyFraction.
    """
    depth = sum(1 for chi in e.negative if chi.is_one())
    places = e.rank - i + depth + 1
    if places <= 0:
        return LP_ZERO
    ser = USeries(0, [LP_ONE] + [LP_ZERO] * (places - 1))
    for chi in e.positive:
        ser = ser.times(_dual_factor(chi))
    for chi in e.negative:
        ser = ser.divide(_dual_factor(chi))
    fr = ser.coeff(e.rank - i)
    p = fr.as_poly()
    return p if p is not None else fr


def _dual_factor(chi: Monomial) -> list:
    """1 - s/chi in u = 1 - s, as the coefficient list [1 - 1/chi, 1/chi]."""
    inv = LaurentPoly.term(1, chi.inv())
    return [LP_ONE - inv, inv]


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
