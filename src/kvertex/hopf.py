"""The dual Hopf algebra of the one-variable character ring.

Basis phi^k dual to powers of (1 - s): the pairing is
phi^k(s^n) = (-1)^k binom(n, k).  The product (star) dual to s -> s (x) s
is ordinary multiplication of the associated numerical polynomials in the
degree variable; the coproduct is dual to multiplication of characters.
The divided-power model (xi-basis, xi^m(x^n) = delta_mn n!) receives the
phi-basis through the homology Chern character phi^k -> (-1)^k binom(xi, k).

`PhiElement`, `NumericalPoly` and `XiElement` share one class body: an
exact {k: c} map with sums, scalar multiples and text, equal only within
one class.  `NumericalPoly` adds evaluation, the product and the finite
differences; `XiElement` is a `NumericalPoly` in the variable xi, so the
Chern character is `to_numerical` read in xi.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalars import exact, generalized_binomial, signed_sum
from .series import FormalSeries


class _Combination:
    """sum_k c_k VAR^k as an exact {k: c} map with the zero terms dropped,
    built from such a map or from a coefficient list [c_0, c_1, ...].  The
    one body of the three classes below: sums, scalar multiples, text with
    the highest power first, and equality within one class only."""

    __slots__ = ("coeffs",)
    VAR: str
    BARE_LINEAR = False  # print VAR^1 as VAR

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        self.coeffs = {k: exact(c) for k, c in items if c}

    @classmethod
    def basis(cls, k: int):
        if k < 0:
            raise ValueError(f"{cls.VAR} index must be nonnegative")
        return cls({k: 1})

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, c):
        return type(self)({k: v * c for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            body = self.VAR if k == 1 and self.BARE_LINEAR else f"{self.VAR}^{k}"
            if not k:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return signed_sum(parts) if parts else "0"

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class PhiElement(_Combination):
    """Finite combination sum c_k phi^k with exact rational coefficients."""

    __slots__ = ()
    VAR = "phi"


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


class NumericalPoly(_Combination):
    """Polynomial in the degree variable with rational coefficients.

    Integer-valuedness on all of Z (the numerical condition) is equivalent
    to integrality of the finite differences at 0.
    """

    __slots__ = ()
    VAR = "deg"
    BARE_LINEAR = True

    def eval(self, n):
        out = 0
        for k in range(max(self.coeffs, default=0), -1, -1):
            out = out * n + self.coeffs.get(k, 0)
        return exact(out)

    def __mul__(self, other):
        if not isinstance(other, NumericalPoly):
            return super().__mul__(other)
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return type(self)(out)

    def finite_differences_at_zero(self):
        """Delta^k p(0) for k = 0..deg p (one zero for p = 0)."""
        vals = [self.eval(n) for n in range(max(self.coeffs, default=0) + 1)]
        out = []
        while vals:
            out.append(vals[0])
            vals = [b - a for a, b in zip(vals, vals[1:])]
        return out

    def is_numerical(self) -> bool:
        return all(d.denominator == 1 for d in self.finite_differences_at_zero())


def _binomial_poly(k: int) -> NumericalPoly:
    """binom(deg, k) = deg (deg - 1) ... (deg - k + 1) / k!."""
    coeffs = [1]
    for i in range(k):  # times (deg - i), in integers
        coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return NumericalPoly([Fraction(c, math.factorial(k)) for c in coeffs])


def to_numerical(a: PhiElement) -> NumericalPoly:
    """phi^k -> (-1)^k binom(deg, k) as an honest rational polynomial."""
    return sum(((-1) ** k * c * _binomial_poly(k) for k, c in a.coeffs.items()),
               NumericalPoly())


def from_numerical(p: NumericalPoly) -> PhiElement:
    """Inverse basis change via Newton's forward differences; rejects
    polynomials that are not integer-valued.

    >>> from_numerical(NumericalPoly([0, 0, 1]))  # deg^2
    <PhiElement 2*phi^2 - phi^1>
    """
    diffs = p.finite_differences_at_zero()
    if any(d.denominator != 1 for d in diffs):
        raise ValueError("polynomial is not numerical (integer-valued)")
    elem = PhiElement({k: (-1) ** k * d for k, d in enumerate(diffs)})
    # exactness guard: the two bases span the same space
    assert to_numerical(elem) == p
    return elem


class XiElement(NumericalPoly):
    """Polynomial in the divided-power generator: sum c_k xi^k with
    xi^m(x^n) = delta_mn n!, i.e. evaluation at xi = n pairs with e^(n x)."""

    __slots__ = ()
    VAR = "xi"
    BARE_LINEAR = False

    def to_divided(self) -> dict:
        """Coefficients in the divided-power basis xi^[k] = xi^k / k!."""
        return {k: c * math.factorial(k) for k, c in self.coeffs.items()}

    @staticmethod
    def from_divided(coeffs: dict) -> "XiElement":
        return XiElement({k: Fraction(c) / math.factorial(k) for k, c in coeffs.items()})


def chern_character(a: PhiElement) -> XiElement:
    """phi^k -> (-1)^k binom(xi, k), that is to_numerical(a) read in xi;
    pairs with e^(nx) the same way phi^k pairs with s^n for every integer n."""
    return XiElement(to_numerical(a).coeffs)


def divided_product(a: dict, b: dict) -> dict:
    """Product in the divided basis: xi^[i] xi^[j] = binom(i+j, i) xi^[i+j]."""
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            w = generalized_binomial(i + j, i)
            out[i + j] = out.get(i + j, 0) + ca * cb * w
    return {k: c for k, c in out.items() if c}


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
