"""The dual Hopf algebra of the one-variable character ring.

Basis phi^k dual to powers of (1 - s): the pairing is
phi^k(s^n) = (-1)^k binom(n, k).  The product (star) dual to s -> s (x) s
is ordinary multiplication of the associated numerical polynomials in the
degree variable; the coproduct is dual to multiplication of characters.
The divided-power model (xi-basis, xi^m(x^n) = delta_mn n!) receives the
phi-basis through the homology Chern character phi^k -> (-1)^k binom(xi, k).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .laurent import LaurentPoly
from .scalars import exact, generalized_binomial, signed_sum
from .series import FormalSeries


def _clean(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


def _power_sum_str(coeffs: dict, name: str) -> str:
    """sum_k c_k name^k as text, the highest power first."""
    if not coeffs:
        return "0"
    parts = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        if not k:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"{name}^{k}")
        elif c == -1:
            parts.append(f"-{name}^{k}")
        else:
            parts.append(f"{c}*{name}^{k}")
    return signed_sum(parts)


class PhiElement:
    """Finite combination sum c_k phi^k with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = _clean({k: exact(c) for k, c in coeffs.items()})

    @staticmethod
    def basis(k: int) -> "PhiElement":
        if k < 0:
            raise ValueError("phi index must be nonnegative")
        return PhiElement({k: 1})

    @staticmethod
    def zero() -> "PhiElement":
        return PhiElement({})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return PhiElement(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return PhiElement(out)

    def __mul__(self, c):
        return PhiElement({k: v * c for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PhiElement) and self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return _power_sum_str(self.coeffs, "phi")

    def __repr__(self):
        return f"<PhiElement {self}>"


def phi_pair(a: PhiElement, n: int):
    """Pairing against the character s^n: sum c_k (-1)^k binom(n, k).

    >>> phi_pair(PhiElement.basis(3), 5)
    -10
    """
    out = 0
    for k, c in a.coeffs.items():
        out += c * (-1) ** k * generalized_binomial(n, k)
    return exact(out)


def star(a: PhiElement, b: PhiElement) -> PhiElement:
    """The product dual to s -> s (x) s, by the closed combinatorial formula
    phi^a * phi^b = sum_k (-1)^k binom(a+b-k, a) binom(a, k) phi^(a+b-k).

    >>> str(star(PhiElement.basis(1), PhiElement.basis(1)))
    '2*phi^2 - phi^1'
    """
    out: dict = {}
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            c = ci * cj
            for k in range(i + j + 1):
                w = (-1) ** k * generalized_binomial(i + j - k, i) \
                    * generalized_binomial(i, k)
                if w:
                    out[i + j - k] = out.get(i + j - k, 0) + c * w
    return PhiElement(out)


def coproduct(a: PhiElement):
    """Delta(phi^k) = sum_{i+j=k} phi^i (x) phi^j, extended linearly.

    Returns a list of (left, right) PhiElement pairs with the scalar folded
    into the left factor, ordered deterministically.
    """
    out = []
    for k in sorted(a.coeffs):
        c = a.coeffs[k]
        for i in range(k + 1):
            out.append((PhiElement({i: c}), PhiElement.basis(k - i)))
    return out


def pair_tensor(pairs, m: int, n: int):
    """Evaluate a coproduct-style list of tensor pairs against (s^m, s^n)."""
    return exact(sum(phi_pair(l, m) * phi_pair(r, n) for l, r in pairs))


class NumericalPoly:
    """Polynomial in the degree variable with rational coefficients.

    Integer-valuedness on all of Z (the numerical condition) is equivalent
    to integrality of the finite differences at 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def eval(self, n):
        out = 0
        for c in reversed(self.coeffs):
            out = out * n + c
        return exact(out)

    def __mul__(self, other):
        if not isinstance(other, NumericalPoly):
            return NumericalPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return NumericalPoly(out)

    __rmul__ = __mul__

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return NumericalPoly([(self.coeffs[i] if i < len(self.coeffs) else 0)
                              + (other.coeffs[i] if i < len(other.coeffs) else 0)
                              for i in range(n)])

    def finite_differences_at_zero(self):
        vals = [self.eval(n) for n in range(len(self.coeffs) + 1)]
        out = []
        while vals:
            out.append(vals[0])
            vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
        return out[:max(1, len(self.coeffs) + (0 if self.coeffs else 1))]

    def is_numerical(self) -> bool:
        return all(d.denominator == 1 for d in self.finite_differences_at_zero())

    def __eq__(self, other):
        return isinstance(other, NumericalPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            body = "deg" + (f"^{i}" if i > 1 else "") if i else ""
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return signed_sum(parts)


def _binomial_poly(k: int) -> NumericalPoly:
    # binom(X, k) = X(X-1)...(X-k+1)/k!
    coeffs = [1]
    for i in range(k):
        # multiply by (X - i)
        new = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] -= c * i
        coeffs = new
    inv = Fraction(1, math.factorial(k))
    return NumericalPoly([c * inv for c in coeffs])


def to_numerical(a: PhiElement) -> NumericalPoly:
    """phi^k -> (-1)^k binom(deg, k) as an honest rational polynomial."""
    out = NumericalPoly([])
    for k, c in a.coeffs.items():
        out = out + (c * (-1) ** k) * _binomial_poly(k)
    return out


def from_numerical(p: NumericalPoly) -> PhiElement:
    """Inverse basis change via Newton's forward differences; rejects
    polynomials that are not integer-valued.

    >>> from_numerical(NumericalPoly([0, 0, 1]))  # deg^2
    <PhiElement 2*phi^2 - phi^1>
    """
    diffs = p.finite_differences_at_zero()
    if any(d.denominator != 1 for d in diffs):
        raise ValueError("polynomial is not numerical (integer-valued)")
    out = {k: (-1) ** k * d for k, d in enumerate(diffs)}
    elem = PhiElement(out)
    # exactness guard: the two bases span the same space
    assert to_numerical(elem) == p
    return elem


class XiElement:
    """Polynomial in the divided-power generator: sum c_k xi^k with
    xi^m(x^n) = delta_mn n!, i.e. evaluation at xi = n pairs with e^(n x)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = _clean({k: exact(c) for k, c in coeffs.items()})

    @staticmethod
    def basis(k: int) -> "XiElement":
        return XiElement({k: 1})

    def eval(self, n):
        return exact(sum(c * n ** k for k, c in self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return XiElement(out)

    def __mul__(self, other):
        if isinstance(other, XiElement):
            out: dict = {}
            for i, a in self.coeffs.items():
                for j, b in other.coeffs.items():
                    out[i + j] = out.get(i + j, 0) + a * b
            return XiElement(out)
        return XiElement({k: c * other for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def to_divided(self) -> dict:
        """Coefficients in the divided-power basis xi^[k] = xi^k / k!."""
        return {k: c * math.factorial(k) for k, c in self.coeffs.items()}

    @staticmethod
    def from_divided(coeffs: dict) -> "XiElement":
        return XiElement({k: Fraction(c) / math.factorial(k) for k, c in coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, XiElement) and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        return _power_sum_str(self.coeffs, "xi")

    def __repr__(self):
        return f"<XiElement {self}>"


def chern_character(a: PhiElement) -> XiElement:
    """phi^k -> (-1)^k binom(xi, k); pairs with e^(nx) the same way phi^k
    pairs with s^n for every integer n."""
    out = XiElement({})
    for k, c in a.coeffs.items():
        p = _binomial_poly(k)
        out = out + (c * (-1) ** k) * XiElement({d: cc for d, cc in enumerate(p.coeffs)})
    return out


def divided_product(a: dict, b: dict) -> dict:
    """Product in the divided basis: xi^[i] xi^[j] = binom(i+j, i) xi^[i+j]."""
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            w = generalized_binomial(i + j, i)
            out[i + j] = out.get(i + j, 0) + ca * cb * w
    return _clean(out)


def translation_pairing(n: int, order: int) -> FormalSeries:
    """The series sum_k phi^k(s^n) (1-z)^k, which is exactly the
    multiplicative expansion of z^n.

    >>> translation_pairing(0, 5).coeffs
    {0: 1}
    """
    if order < 1:
        raise ValueError("order must be positive")
    coeffs = {}
    for k in range(order):
        c = phi_pair(PhiElement.basis(k), n)
        if c:
            coeffs[k] = c
    return FormalSeries("one", "z", coeffs, order)
