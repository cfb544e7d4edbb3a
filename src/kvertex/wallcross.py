"""Wall-crossing combinatorics: slope-filtered ordered partitions, the
nested-bracket transform from framed to unframed invariants, its
upper-triangular inversion, and the two-framing master identity evaluator.

Invariant tables map dimension vectors to Lie-algebra values, either free
symbolic ones (Lyndon normal form) or quiver-realized degree-0 states whose
bracket is the residue pairing.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .freelie import LieElement, tree_str
from .quiver import GradedElement, lie_bracket


class MissingEntryError(KeyError):
    """An invariant table lacks a class required by the transform."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.alpha = alpha

    def __str__(self):
        return f"invariant table has no entry for class {self.alpha}"


@dataclass(frozen=True)
class StabilityData:
    """Rank/slope weights per vertex and positive framing functionals.

    rank r(alpha) = sum rho_i alpha_i with rho_i > 0 (so r > 0 off zero and
    additivity on equal slopes is automatic), slope tau(alpha) =
    (sum theta_i alpha_i) / r(alpha), framing lambda_k(alpha) =
    sum L_{k,i} alpha_i with L_{k,i} > 0.
    """

    rank_weights: tuple
    slope_weights: tuple
    frame_weights: tuple  # pairs (name, weight tuple)

    def __post_init__(self):
        if any(w <= 0 for w in self.rank_weights):
            raise ValueError("rank weights must be positive")
        for _k, ws in self.frame_weights:
            if len(ws) != len(self.rank_weights) or any(w <= 0 for w in ws):
                raise ValueError("framing weights must be positive, one per vertex")
        if len(self.slope_weights) != len(self.rank_weights):
            raise ValueError("slope weights must align with rank weights")

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


def ordered_partitions(alpha, stability: StabilityData):
    """All ordered tuples of nonzero classes summing to alpha with every
    part of the same slope as alpha, in lexicographic order.

    >>> st = StabilityData.make((1,), (0,), {"k": (1,)})
    >>> ordered_partitions((2,), st)
    [((1,), (1,)), ((2,),)]
    """
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
    candidates = []
    for v in itertools.product(*(range(a + 1) for a in alpha)):
        if any(v) and stability.slope(v) == target:
            candidates.append(v)
    candidates.sort()
    out = []

    def rec(remaining, acc):
        if not any(remaining):
            out.append(tuple(acc))
            return
        for v in candidates:
            if all(x <= r for x, r in zip(v, remaining)):
                rec(tuple(r - x for r, x in zip(remaining, v)), acc + [v])

    rec(alpha, [])
    return out


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

    __hash__ = None

    def __str__(self):
        return str(self.element)


def generator_name(alpha) -> str:
    return "Z(" + ",".join(str(a) for a in alpha) + ")"


def free_generator(alpha) -> LieElement:
    return LieElement.generator(generator_name(alpha))


def free_table(alphas) -> dict:
    """FreeMode table with one abstract generator per class."""
    return {tuple(a): free_generator(a) for a in alphas}


def _nested_term(values, parts, lam1) -> object:
    term = lam1 * values[parts[0]]
    for a in parts[1:]:
        term = values[a].bracket(term)
    return term


def forward_transform(Z: dict, k, alpha, stability: StabilityData):
    """sum over equal-slope ordered partitions of
    (1/n!) ad(Z_{a_n}) ... ad(Z_{a_2}) (lambda_k(a_1) Z_{a_1});
    the n=1 term is lambda_k(alpha) Z_alpha.
    """
    alpha = tuple(alpha)
    total = None
    for parts in ordered_partitions(alpha, stability):
        for a in parts:
            if a not in Z:
                raise MissingEntryError(a)
        term = _nested_term(Z, parts, stability.frame_dim(k, parts[0]))
        term = Fraction(1, math.factorial(len(parts))) * term
        total = term if total is None else total + term
    return total


def invert_transform(Ztilde: dict, k, stability: StabilityData) -> dict:
    """Upper-triangular inversion by induction on the total dimension:
    Z_alpha = (Ztilde_alpha - higher partition terms in Z) / lambda_k(alpha).
    """
    Z: dict = {}
    for alpha in sorted(Ztilde, key=lambda a: (sum(a), a)):
        corr = None
        for parts in ordered_partitions(alpha, stability):
            if len(parts) == 1:
                continue
            for a in parts:
                if a not in Z:
                    raise MissingEntryError(a)
            term = _nested_term(Z, parts, stability.frame_dim(k, parts[0]))
            term = Fraction(1, math.factorial(len(parts))) * term
            corr = term if corr is None else corr + term
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
    alpha = tuple(alpha)
    for table, key in ((Zt1, alpha), (Zt2, alpha)):
        if key not in table:
            raise MissingEntryError(key)
    out = stability.frame_dim(k2, alpha) * Zt1[alpha] \
        - stability.frame_dim(k1, alpha) * Zt2[alpha]
    target = stability.slope(alpha)
    for a1 in itertools.product(*(range(a + 1) for a in alpha)):
        a2 = tuple(x - y for x, y in zip(alpha, a1))
        if not any(a1) or not any(a2) or stability.slope(a1) != target:
            continue
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
        if peek() == "+":
            take()
            out = out + parse_term()
        else:
            out = out + parse_term()  # sign handled inside parse_term
    if peek() is not None:
        raise ValueError(f"trailing tokens: {tokens[idx:-1]}")
    return out


def lie_to_text(x: LieElement) -> str:
    return str(x)
