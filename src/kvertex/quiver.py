"""Shuffle and kernel vertex operations on quiver character rings.

States of grade alpha are symmetric Laurent polynomials in the block
variables s_{i,a} (vertex i, slot a <= alpha_i), tensored with arbitrary
equivariant characters.  The holomorphic vertex operation is the shuffle

    Y(f, z) g = (1/alpha! beta!) sum_{sigma} sigma . (f|_{s -> z s} g),

realized as a sum over coset representatives; the kernel operation inserts
the rational multiplier built from the deformation characters, giving poles
at 1 - c z^{+-1}, and the induced bracket applies the K-theoretic residue.

Translation convention: the shuffle substitutes s -> z s, which acts as
z^(+deg); the opposite z^(-deg) convention is available behind a flag.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial, PolyFraction
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


class GradedElement:
    """A dimension vector plus a block-symmetric Laurent polynomial."""

    __slots__ = ("quiver", "alpha", "poly")

    def __init__(self, quiver: Quiver, alpha, poly: LaurentPoly, check: bool = True):
        alpha = tuple(alpha)
        if len(alpha) != quiver.n or any(a < 0 for a in alpha):
            raise ValueError("dimension vector does not match the quiver")
        if check and not is_block_symmetric(poly, alpha):
            raise ValueError("polynomial is not symmetric under the block permutations")
        if alpha == quiver.zero():
            extra = [v for v in poly.variables() if v.startswith("s_{")]
            if extra:
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

    def blocks(self, prefix: str = "s"):
        return [block_vars(prefix, i + 1, c) for i, c in enumerate(self.alpha)]

    def all_block_vars(self, prefix: str = "s"):
        return [v for blk in self.blocks(prefix) for v in blk]

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
        names = set(self.all_block_vars())
        return all(m.degree_on(names) == 0 for m in self.poly.monomials())

    def __str__(self):
        return f"{self.poly} @ {self.alpha}"

    def __repr__(self):
        return f"<GradedElement {self}>"


def is_block_symmetric(poly: LaurentPoly, alpha, prefix: str = "s") -> bool:
    """Invariance under adjacent transpositions of each block (generators)."""
    for i, c in enumerate(alpha):
        names = block_vars(prefix, i + 1, c)
        for a in range(c - 1):
            swap = {names[a]: names[a + 1], names[a + 1]: names[a]}
            if poly.rename(swap) != poly:
                return False
    return True


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
        for m in self.positive:
            out = out * m
        for m in self.negative:
            out = out * m.inv()
        return out

    def __add__(self, other):
        return VirtualCharacter.make(self.positive + other.positive,
                                     self.negative + other.negative)

    def minus(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return VirtualCharacter.make(self.positive + other.negative,
                                     self.negative + other.positive)


def deformation_character(q: Quiver, alpha, beta, first: str = "s",
                          second: str = "t") -> VirtualCharacter:
    """Characters of the bilinear deformation complex: positive part
    second_{i,b}/first_{i,a} over shared vertices, negative part
    second_{j,b}/first_{i,a} over edges i -> j.

    >>> deformation_character(a2_quiver(), (1, 0), (0, 1)).negative
    (Monomial s_{1,1}^-1*t_{2,1},)
    """
    alpha, beta = tuple(alpha), tuple(beta)
    pos = []
    for i in range(q.n):
        for a in range(1, alpha[i] + 1):
            for b in range(1, beta[i] + 1):
                pos.append(Monomial.var(f"{second}_{{{i+1},{b}}}")
                           * Monomial.var(f"{first}_{{{i+1},{a}}}", -1))
    neg = []
    for (vi, vj) in q.edges:
        i, j = q.vertex_index(vi), q.vertex_index(vj)
        for a in range(1, alpha[i] + 1):
            for b in range(1, beta[j] + 1):
                neg.append(Monomial.var(f"{second}_{{{j+1},{b}}}")
                           * Monomial.var(f"{first}_{{{i+1},{a}}}", -1))
    return VirtualCharacter.make(pos, neg)


def theta_kernel(q: Quiver, alpha, beta, full: bool = True,
                 zvar: str = "z") -> "RationalFunction | LaurentPoly":
    """The bilinear kernel: product over E^0_{alpha,beta} of (1 - z^-1 chi^-1)
    and over E^0_{beta,alpha} of (1 - z chi^-1), divided by the same products
    over E^1 when full=True; full=False returns just the numerator polynomial.

    >>> str(theta_kernel(jordan_quiver(), (1,), (1,), full=True))
    '1'
    """
    e_ab = deformation_character(q, alpha, beta)
    e_ba = deformation_character(q, beta, alpha, first="t", second="s")
    if not full:
        num = LP_ONE
        for chi in e_ab.positive:
            num = num * (LP_ONE - LaurentPoly.term(1, chi.inv() * Monomial.var(zvar, -1)))
        for chi in e_ba.positive:
            num = num * (LP_ONE - LaurentPoly.term(1, chi.inv() * Monomial.var(zvar, 1)))
        return num

    def excess(vc: VirtualCharacter) -> dict:
        # multiset E^0 - E^1; common characters cancel between the wedges
        count: dict = {}
        for chi in vc.positive:
            count[chi] = count.get(chi, 0) + 1
        for chi in vc.negative:
            count[chi] = count.get(chi, 0) - 1
        return count

    num = LP_ONE
    factors = []
    for vc, zexp in ((e_ab, -1), (e_ba, 1)):
        for chi, c in sorted(excess(vc).items()):
            if c > 0:
                num = num * (LP_ONE - LaurentPoly.term(1, chi.inv() * Monomial.var(zvar, zexp))) ** c
            elif c < 0:
                factors.append((Fraction(0), chi.inv(), zexp, -c))
    return RationalFunction(zvar, num, factors)


def translate(a: GradedElement, zvar: str = "z",
              convention: str = "substitution") -> GradedElement:
    """The grading operator: multiply each monomial of total block degree d
    by z^d (substitution convention) or z^-d (inverse-degree convention).

    >>> g = GradedElement(jordan_quiver(), (2,), LaurentPoly.var("s_{1,1}") * LaurentPoly.var("s_{1,2}"))
    >>> str(translate(g).poly)
    's_{1,1}*s_{1,2}*z^2'
    """
    sign = {"substitution": 1, "inverse_degree": -1}[convention]
    poly = a.poly.attach_degree(set(a.all_block_vars()), zvar, sign)
    return GradedElement(a.quiver, a.alpha, poly, check=False)


def _coset_renamings(alpha, beta, first: str = "s", second: str = "t"):
    """Renamings realizing S_{alpha+beta}/(S_alpha x S_beta) cosets.

    The union slots at vertex i are the names s_{i,1..a+b}; a representative
    chooses which slots play the first-block role.  Yields dicts mapping the
    canonical input names (first-block s_{i,1..a}, second-block t_{i,1..b})
    to union names from {s, t} so that the chosen slots are relabelled
    consistently.
    """
    per_vertex = []
    for i, (a, b) in enumerate(zip(alpha, beta)):
        union = block_vars(first, i + 1, a) + block_vars(second, i + 1, b)
        ins_first = block_vars(first, i + 1, a)
        ins_second = block_vars(second, i + 1, b)
        choices = []
        for subset in itertools.combinations(range(a + b), a):
            ren = {}
            rest = [k for k in range(a + b) if k not in subset]
            for src, k in zip(ins_first, subset):
                ren[src] = union[k]
            for src, k in zip(ins_second, rest):
                ren[src] = union[k]
            choices.append(ren)
        per_vertex.append(choices)
    for combo in itertools.product(*per_vertex):
        ren = {}
        for c in combo:
            ren.update(c)
        yield ren


def _relabel_second_block(g: GradedElement, second: str = "t") -> LaurentPoly:
    ren = {}
    for i, c in enumerate(g.alpha):
        for a in range(1, c + 1):
            ren[f"s_{{{i+1},{a}}}"] = f"{second}_{{{i+1},{a}}}"
    return g.poly.rename(ren)


def _union_to_s(alpha, beta) -> dict:
    """Rename the s/t union at grade alpha+beta to s_{i,1..a+b}."""
    ren = {}
    for i, (a, b) in enumerate(zip(alpha, beta)):
        for bslot in range(1, b + 1):
            ren[f"t_{{{i+1},{bslot}}}"] = f"s_{{{i+1},{a + bslot}}}"
    return ren


def vertex_shuffle(f: GradedElement, g: GradedElement, zvar: str = "z",
                   convention: str = "substitution") -> GradedElement:
    """Holomorphic vertex operation: coset-symmetrized product of the
    z-translated first state with the second.

    >>> q = Quiver(("1",), ())
    >>> f = GradedElement(q, (1,), LaurentPoly.var("s_{1,1}"))
    >>> str(vertex_shuffle(f, f))
    '2*s_{1,1}*s_{1,2}*z @ (2,)'
    """
    if f.quiver != g.quiver:
        raise ValueError("states live on different quivers")
    fz = translate(f, zvar, convention).poly
    gp = _relabel_second_block(g)
    integrand = fz * gp
    total = LP_ZERO
    for ren in _coset_renamings(f.alpha, g.alpha):
        total = total + integrand.rename(ren)
    gamma = dim_add(f.alpha, g.alpha)
    total = total.rename(_union_to_s(f.alpha, g.alpha))
    return GradedElement(f.quiver, gamma, total, check=False)


def propagator_kernel(q: Quiver, alpha, beta, zvar: str = "z") -> RationalFunction:
    """The pole part of the bilinear kernel after virtual cancellation:
    1 over the surviving obstruction-side factors (1 - z^-1 chi^-1) and
    (1 - z chi^-1).  The surviving deformation-side factors of the full
    kernel are polynomial in z; they contribute no poles and are omitted
    here, which is exactly what makes the residue pairing close into a Lie
    bracket.  lie_bracket takes that residue of the one un-symmetrized
    product of this kernel with the two states, before the coset sum of
    vertex_kernel: the cosets only rename block variables, and residue_k is
    exact and commutes with such renamings, so both orders agree."""
    e_ab = deformation_character(q, alpha, beta)
    e_ba = deformation_character(q, beta, alpha, first="t", second="s")

    def excess(vc: VirtualCharacter) -> dict:
        count: dict = {}
        for chi in vc.positive:
            count[chi] = count.get(chi, 0) + 1
        for chi in vc.negative:
            count[chi] = count.get(chi, 0) - 1
        return count

    factors = []
    for vc, zexp in ((e_ab, -1), (e_ba, 1)):
        for chi, c in sorted(excess(vc).items()):
            if c < 0:
                factors.append((Fraction(0), chi.inv(), zexp, -c))
    return RationalFunction(zvar, LP_ONE, factors)


def vertex_kernel(f: GradedElement, g: GradedElement, zvar: str = "z",
                  convention: str = "substitution") -> RationalFunction:
    """Vertex operation with the propagator kernel inserted: rational in z
    with poles only at 1 - c z^{+-1} (the reduced shape).  Variables stay in
    the s/t union naming; grade bookkeeping is carried by the caller.

    When the kernel cancels completely (e.g. the one-loop quiver) this is
    the plain shuffle.

    >>> q = a2_quiver()
    >>> Y = vertex_kernel(GradedElement.unit(q, q.unit("1")), GradedElement.unit(q, q.unit("2")))
    >>> Y.factors()
    [(Fraction(0, 1), Monomial s_{1,1}^-1*t_{2,1}, 1, 1)]
    """
    if f.quiver != g.quiver:
        raise ValueError("states live on different quivers")
    fz = translate(f, zvar, convention).poly
    gp = _relabel_second_block(g)
    kernel = propagator_kernel(f.quiver, f.alpha, g.alpha, zvar=zvar)
    integrand = kernel * (fz * gp)
    total = None
    for ren in _coset_renamings(f.alpha, g.alpha):
        piece = RationalFunction(zvar, integrand.num.rename(ren),
                                 [(a, m.rename(ren), n, e2)
                                  for (a, m, n), e2 in integrand.den.items()])
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
    propagator_kernel * (translated f) * (relabelled g), and the result is
    then renamed once per coset of _coset_renamings (each renaming composed
    with _union_to_s) and summed.  This equals residue_k(vertex_kernel(f, g))
    renamed by _union_to_s: every coset renaming is a bijection of the block
    names that leaves z alone, and residue_k is linear, exact and commutes
    with such renamings.  No common denominator over the cosets is built.

    >>> q = a2_quiver()
    >>> str(lie_bracket(GradedElement.unit(q, (1, 0)), GradedElement.unit(q, (0, 1))))
    '-1 @ (1, 1)'
    """
    if not f.is_degree_zero() or not g.is_degree_zero():
        raise ValueError("the bracket is defined on degree-0 states")
    if f.quiver != g.quiver:
        raise ValueError("states live on different quivers")
    kernel = propagator_kernel(f.quiver, f.alpha, g.alpha, zvar=zvar)
    res = residue_k(kernel * (translate(f, zvar).poly * _relabel_second_block(g)))
    to_s = _union_to_s(f.alpha, g.alpha)
    total = LP_ZERO
    for ren in _coset_renamings(f.alpha, g.alpha):
        total = total + res.rename({v: to_s.get(u, u) for v, u in ren.items()})
    return GradedElement(f.quiver, dim_add(f.alpha, g.alpha), total, check=False)


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
        fzw = f.poly.attach_degree(set(f.all_block_vars()), zvar,
                                   1 if convention == "substitution" else -1)
        fzw = fzw.attach_degree(set(f.all_block_vars()), wvar,
                                1 if convention == "substitution" else -1)
        rhs = vertex_shuffle(GradedElement(q, f.alpha, fzw, check=False), gh, "_unused_",
                             convention="substitution")
        # the z w translation was already attached, so the inner translate
        # must act trivially: use a fresh variable and drop it
        rhs_poly = rhs.poly.subs_mono("_unused_", MONO_ONE)
        ok = lhs.poly == rhs_poly
        return ok, None if ok else _witness(lhs.poly, rhs_poly)
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
