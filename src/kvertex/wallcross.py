"""Wall-crossing combinatorics: slope-filtered ordered partitions, the
nested-bracket transform from framed to unframed invariants, its
upper-triangular inversion, and the two-framing master identity evaluator.

Every sum runs over the equal-slope sub-classes of one class.  The forward
transform and the inversion share one recursion on the last part of the
ordered partitions (Reineke, Invent. Math. 2003), so they take polynomially
many brackets where the partitions are exponentially many.

Invariant tables map dimension vectors to Lie-algebra values, either free
symbolic ones (Lyndon normal form) or quiver-realized degree-0 states whose
bracket is the residue pairing.
"""
from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .freelie import LieElement
from .quiver import GradedElement, lie_bracket


class MissingEntryError(KeyError):
    """An invariant table lacks a class required by the transform; it names
    the lexicographically first equal-slope sub-class that is missing."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.alpha = alpha

    def __str__(self):
        return f"invariant table has no entry for class {self.alpha}"


class StabilityData:
    """Rank/slope weights per vertex and positive framing functionals.

    rank r(alpha) = sum rho_i alpha_i with rho_i > 0 (so r > 0 off zero and
    additivity on equal slopes is automatic), slope tau(alpha) =
    (sum theta_i alpha_i) / r(alpha), framing lambda_k(alpha) =
    sum L_{k,i} alpha_i with L_{k,i} > 0.  frame_weights holds pairs
    (name, weight tuple).  Immutable by convention, equal and hashed by value.
    """

    __slots__ = ("rank_weights", "slope_weights", "frame_weights")

    def __init__(self, rank_weights: tuple, slope_weights: tuple, frame_weights: tuple):
        if any(w <= 0 for w in rank_weights):
            raise ValueError("rank weights must be positive")
        for _k, ws in frame_weights:
            if len(ws) != len(rank_weights) or any(w <= 0 for w in ws):
                raise ValueError("framing weights must be positive, one per vertex")
        if len(slope_weights) != len(rank_weights):
            raise ValueError("slope weights must align with rank weights")
        self.rank_weights = rank_weights
        self.slope_weights = slope_weights
        self.frame_weights = frame_weights

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rank_weights, self.slope_weights, self.frame_weights)
                == (other.rank_weights, other.slope_weights, other.frame_weights))

    def __hash__(self):
        return hash((self.rank_weights, self.slope_weights, self.frame_weights))

    def __repr__(self):
        return (f"StabilityData(rank_weights={self.rank_weights!r}, "
                f"slope_weights={self.slope_weights!r}, frame_weights={self.frame_weights!r})")

    @staticmethod
    def make(rank, slope, frames: dict) -> "StabilityData":
        return StabilityData(tuple(rank), tuple(Fraction(s) for s in slope),
                             tuple(sorted((k, tuple(v)) for k, v in frames.items())))

    def rank(self, alpha) -> int:
        return sum(r * a for r, a in zip(self.rank_weights, alpha))

    def slope(self, alpha) -> Fraction:
        r = self.rank(alpha)
        if r == 0:
            raise ValueError("slope of the zero class is undefined")
        return Fraction(sum(th * a for th, a in zip(self.slope_weights, alpha)), r)

    def frame_dim(self, k, alpha) -> int:
        for name, ws in self.frame_weights:
            if name == k:
                return sum(w * a for w, a in zip(ws, alpha))
        raise KeyError(f"unknown framing index {k!r}")


def _equal_slope_classes(alpha, stability: StabilityData) -> list:
    """The nonzero classes b <= alpha (entrywise) of the slope of alpha, in
    lexicographic order, so alpha comes last."""
    alpha = tuple(alpha)
    n = len(stability.rank_weights)
    if len(alpha) != n:
        raise ValueError(f"class {alpha} has {len(alpha)} entries, but the stability data "
                         f"has {n} {'vertex' if n == 1 else 'vertices'}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"class {alpha} has a negative entry")
    if all(a == 0 for a in alpha):
        raise ValueError("ordered partitions of the zero class are not defined")
    target = stability.slope(alpha)
    return [b for b in itertools.product(*(range(a + 1) for a in alpha))
            if any(b) and stability.slope(b) == target]


def _splits(classes) -> dict:
    """Each equal-slope class b -> its splits (a, b - a), a in lex order."""
    return {b: [(a, tuple(y - x for x, y in zip(a, b))) for a in classes
                if a != b and all(x <= y for x, y in zip(a, b))] for b in classes}


def ordered_partitions(alpha, stability: StabilityData):
    """All ordered tuples of nonzero classes summing to alpha with every
    part of the same slope as alpha, in lexicographic order.

    >>> st = StabilityData.make((1,), (0,), {"k": (1,)})
    >>> ordered_partitions((2,), st)
    [((1,), (1,)), ((2,),)]
    """
    classes = _equal_slope_classes(alpha, stability)
    parts: dict = {}
    for b, splits in _splits(classes).items():
        parts[b] = [(a,) + p for a, c in splits for p in parts[c]] + [(b,)]
    return parts[classes[-1]]


class QuiverState:
    """Invariant-table value realized by a degree-0 quiver state."""

    __slots__ = ("element",)

    def __init__(self, element: GradedElement):
        if not element.is_degree_zero():
            raise ValueError("quiver-mode values must be degree-0 states")
        self.element = element

    def bracket(self, other: "QuiverState") -> "QuiverState":
        return QuiverState(lie_bracket(self.element, other.element))

    def __add__(self, other):
        return QuiverState(self.element + other.element)

    def __sub__(self, other):
        return QuiverState(self.element - other.element)

    def __mul__(self, c):
        return QuiverState(self.element * c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def __eq__(self, other):
        return isinstance(other, QuiverState) and self.element == other.element

    def __str__(self):
        return str(self.element)


def free_generator(alpha) -> LieElement:
    return LieElement.generator("Z(" + ",".join(str(a) for a in alpha) + ")")


def free_table(alphas) -> dict:
    """FreeMode table with one abstract generator per class."""
    return {tuple(a): free_generator(a) for a in alphas}


def _partition_sum(Z: dict, k, alpha, stability: StabilityData, first: int):
    """sum_(n >= first) T_n(alpha)/n!, or None, where T_n(b) is the sum of
    the n-part terms: T_1(b) = lambda_k(b) Z_b and
    T_n(b) = sum_a [Z_a, T_(n-1)(b - a)] over the equal-slope splits of b."""
    classes = _equal_slope_classes(alpha, stability)
    alpha = classes[-1]
    needed = classes if first == 1 else classes[:-1]
    for b in needed:
        if b not in Z:
            raise MissingEntryError(b)
    splits_of = _splits(classes)
    level = {b: stability.frame_dim(k, b) * Z[b] for b in needed}
    total, n = None, 1
    while level:
        if alpha in level:  # at n = 1 only when first == 1
            term = Fraction(1, math.factorial(n)) * level[alpha]
            total = term if total is None else total + term
        n += 1
        previous, level = level, {}
        for b, splits in splits_of.items():
            terms = [Z[a].bracket(previous[c]) for a, c in splits if c in previous]
            if terms:
                level[b] = sum(terms[1:], terms[0])
    return total


def forward_transform(Z: dict, k, alpha, stability: StabilityData):
    """sum over equal-slope ordered partitions of
    (1/n!) ad(Z_{a_n}) ... ad(Z_{a_2}) (lambda_k(a_1) Z_{a_1});
    the n=1 term is lambda_k(alpha) Z_alpha.

    Z needs every equal-slope class b <= alpha; a MissingEntryError names
    the lexicographically first one it lacks.
    """
    return _partition_sum(Z, k, alpha, stability, 1)


def invert_transform(Ztilde: dict, k, stability: StabilityData) -> dict:
    """Upper-triangular inversion by induction on the total dimension:
    Z_alpha = (Ztilde_alpha - higher partition terms in Z) / lambda_k(alpha).
    """
    Z: dict = {}
    for alpha in sorted(Ztilde, key=lambda a: (sum(a), a)):
        corr = _partition_sum(Z, k, alpha, stability, 2)
        val = Ztilde[alpha] if corr is None else Ztilde[alpha] - corr
        Z[alpha] = Fraction(1, stability.frame_dim(k, alpha)) * val
    return Z


def master_identity_residual(Zt1: dict, Zt2: dict, k1, k2, alpha,
                             stability: StabilityData):
    """lambda_{k2}(alpha) Zt1_alpha - lambda_{k1}(alpha) Zt2_alpha
    + sum_{a1+a2=alpha} [Zt1_{a1}, Zt2_{a2}] over the nonzero splits with
    a1 (so also a2) of the slope of alpha; zero exactly when the
    two-framing identity holds for the supplied tables.  Splits across
    slopes are left out, as in ordered_partitions: the tables that
    forward_transform makes from one Z satisfy the identity only within
    the slope class."""
    classes = _equal_slope_classes(alpha, stability)
    alpha = classes[-1]
    for table in (Zt1, Zt2):
        if alpha not in table:
            raise MissingEntryError(alpha)
    out = stability.frame_dim(k2, alpha) * Zt1[alpha] \
        - stability.frame_dim(k1, alpha) * Zt2[alpha]
    for a1, a2 in _splits(classes)[alpha]:
        if a1 not in Zt1:
            raise MissingEntryError(a1)
        if a2 not in Zt2:
            raise MissingEntryError(a2)
        out = out + Zt1[a1].bracket(Zt2[a2])
    return out


# -- FreeMode expression syntax ---------------------------------------------------


_TOKEN = re.compile(r"\s*(\[|\]|,|\+|-|\*|/|Z\((?:\d+,)*\d+\)|\d+)")


def parse_lie_text(text: str) -> LieElement:
    """Parse `3/2*[Z(1,0),Z(0,1)] + Z(1,1)` style FreeMode expressions."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad invariant expression at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    idx = 0

    def peek():
        return tokens[idx]

    def take(expect=None):
        nonlocal idx
        tok = tokens[idx]
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, found {tok!r}")
        idx += 1
        return tok

    def parse_atom() -> LieElement:
        tok = take()
        if tok == "[":
            left = parse_atom()
            take(",")
            right = parse_atom()
            take("]")
            return left.bracket(right)
        if tok is not None and tok.startswith("Z("):
            return LieElement.generator(tok)
        raise ValueError(f"unexpected token {tok!r}")

    def parse_term() -> LieElement:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        if peek() is not None and peek().isdigit():
            num = int(take())
            if peek() == "/":
                take()
                num = Fraction(num, int(take()))
            take("*")
            return (sign * num) * parse_atom()
        return sign * parse_atom()

    out = parse_term()
    while peek() in ("+", "-"):
        out = out + parse_term()  # parse_term reads the sign
    if peek() is not None:
        raise ValueError(f"trailing tokens: {tokens[idx:-1]}")
    return out


def lie_to_text(x: LieElement) -> str:
    return str(x)
