"""Free Lie algebra over Q with Lyndon-basis normal forms.

Basis elements are standard bracketings of Lyndon words over an ordered
generator alphabet; an arbitrary bracket word rewrites into the basis by the
classical rule: for basis trees p < q (by word),

    [p, q] is itself basis when p is a letter or its right factor >= word(q),
    and otherwise, writing p = (p1, p2), Jacobi gives
    [p, q] = [p1, [p2, q]] - [p2, [p1, q]].

Antisymmetry and Jacobi identities hold exactly in this normal form; the
embedding into the free associative algebra ([x, y] -> xy - yx on words)
serves as an independent oracle in the tests.

Trees are nested tuples; a leaf is the generator string itself.  Every
sum (`LieElement` addition, the bracket, the rewrite and the embedding)
adds its terms in place into one term map with `laurent._acc`.
"""
from __future__ import annotations

from functools import lru_cache

from .laurent import _acc
from .scalars import exact, signed_sum


def tree_word(t) -> tuple:
    if isinstance(t, str):
        return (t,)
    return tree_word(t[0]) + tree_word(t[1])


def is_lyndon(w: tuple) -> bool:
    n = len(w)
    if n == 0:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, n))


def standard_factorization(w: tuple):
    """w = u v with v the longest proper Lyndon suffix."""
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError(f"{w!r} has no standard factorization")


@lru_cache(maxsize=None)
def standard_bracketing(w: tuple):
    if len(w) == 1:
        return w[0]
    u, v = standard_factorization(w)
    return (standard_bracketing(u), standard_bracketing(v))


def _right_factor_word(t):
    return tree_word(t[1]) if not isinstance(t, str) else None


@lru_cache(maxsize=None)
def bracket_basis(p, q) -> tuple:
    """Normal form of [p, q] for basis trees p, q, as a tuple of
    (tree, int) pairs."""
    u, v = tree_word(p), tree_word(q)
    if u == v:
        return ()
    if u > v:
        return tuple((t, -c) for t, c in bracket_basis(q, p))
    if isinstance(p, str) or _right_factor_word(p) >= v:
        return ((p, q), 1),
    p1, p2 = p
    out: dict = {}
    for t, c in bracket_basis(p2, q):
        for t2, c2 in bracket_basis(p1, t):
            _acc(out, t2, c * c2)
    for t, c in bracket_basis(p1, q):
        for t2, c2 in bracket_basis(t, p2):
            _acc(out, t2, c * c2)
    return tuple(sorted(out.items(), key=lambda kv: _tree_sort_key(kv[0])))


def _tree_sort_key(t):
    w = tree_word(t)
    return (len(w), w, _tree_shape(t))


def _tree_shape(t):
    if isinstance(t, str):
        return "."
    return "(" + _tree_shape(t[0]) + _tree_shape(t[1]) + ")"


class LieElement:
    """Q-linear combination of Lyndon basis trees."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {t: exact(c) for t, c in coeffs.items() if c}

    @staticmethod
    def generator(name: str) -> "LieElement":
        return LieElement({name: 1})

    @staticmethod
    def zero() -> "LieElement":
        return LieElement({})

    def __add__(self, other):
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            _acc(out, t, c)
        return LieElement(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, c):
        return LieElement({t: v * c for t, v in self.coeffs.items()})

    __rmul__ = __mul__

    def bracket(self, other: "LieElement") -> "LieElement":
        out: dict = {}
        for p, cp in self.coeffs.items():
            for q, cq in other.coeffs.items():
                for t, c in bracket_basis(p, q):
                    _acc(out, t, cp * cq * c)
        return LieElement(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.coeffs == other.coeffs

    __hash__ = None

    def to_assoc(self) -> dict:
        """Image in the free associative algebra: {word tuple: coefficient}."""
        out: dict = {}
        for t, c in self.coeffs.items():
            for w, cw in _assoc_expand(t):
                _acc(out, w, c * cw)
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for t in sorted(self.coeffs, key=_tree_sort_key):
            c = self.coeffs[t]
            body = tree_str(t)
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return signed_sum(parts)

    def __repr__(self):
        return f"<LieElement {self}>"


@lru_cache(maxsize=None)
def _assoc_expand(t) -> tuple:
    if isinstance(t, str):
        return ((t,), 1),
    left = _assoc_expand(t[0])
    right = _assoc_expand(t[1])
    out: dict = {}
    for wl, cl in left:
        for wr, cr in right:
            _acc(out, wl + wr, cl * cr)
            _acc(out, wr + wl, -cl * cr)
    return tuple(sorted(out.items()))


def tree_str(t) -> str:
    if isinstance(t, str):
        return t
    return f"[{tree_str(t[0])},{tree_str(t[1])}]"


def bracket_word(trees) -> LieElement:
    """Left-nested bracket of a list of generators/trees: [..[[t1,t2],t3]..]."""
    elems = [LieElement({t: 1}) if isinstance(t, str) else t for t in trees]
    out = elems[0]
    for e in elems[1:]:
        out = out.bracket(e if isinstance(e, LieElement) else LieElement({e: 1}))
    return out
