"""Exact scalars: integers, rationals and cyclotomic numbers.

One representation per value.  An integral value is a plain ``int``, a
non-integral rational is a stdlib ``fractions.Fraction`` (reduced, positive
denominator), and an element of Q(zeta_N) outside Q is a ``Cyclo``: an
integer vector in the power basis 1, zeta, ..., zeta^(d-1), reduced modulo
the N-th cyclotomic polynomial (d = deg Phi_N), over one positive common
denominator.  Every operation that can land in Q demotes its result to an
``int`` or a ``Fraction``; ``exact`` is the one demotion of an integral
``Fraction`` to ``int``, and ``RATIONAL`` the one type test for Q.

Storage is per order: N is whatever order the last operation lifted to.
Text is per value: a ``Cyclo`` prints in the power basis of its conductor,
the least zeta_d whose field holds it (as GAP stores a cyclotomic number;
T. Breuer, Integral bases for subfields of cyclotomic fields, AAECC 8,
1997), so equal values print alike whatever route computed them.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

RATIONAL = (int, Fraction)


def exact(c):
    """c with an integral Fraction demoted to int; other scalars unchanged.

    >>> exact(Fraction(4, 2)), exact(Fraction(1, 2)), exact(3)
    (2, Fraction(1, 2), 3)
    """
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def generalized_binomial(n, k: int):
    """binom(n, k) = n(n-1)...(n-k+1)/k! for any integer (or rational) n;
    an int whenever n is integral.

    >>> generalized_binomial(5, 2), generalized_binomial(-1, 3)
    (10, -1)
    """
    if k < 0:
        raise ValueError("binomial lower index must be nonnegative")
    n = exact(n)
    if isinstance(n, int):
        if n >= 0:
            return math.comb(n, k)
        # binom(-m, k) = (-1)^k binom(m + k - 1, k)
        c = math.comb(k - n - 1, k)
        return -c if k & 1 else c
    out = 1
    for i in range(k):
        out *= Fraction(n - i, i + 1)
    return out


def _int_polydiv_exact(num, den):
    # exact division of integer coefficient lists (low -> high), monic-ish den
    num = list(num)
    d = len(den) - 1
    q = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        lead = den[d]
        assert c % lead == 0
        f = c // lead
        q[i - d] = f
        for j, dj in enumerate(den):
            num[i - d + j] -= f * dj
    assert all(x == 0 for x in num), "inexact polynomial division"
    return q


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}
# the nonzero (power, coefficient) pairs of Phi_n below its leading term
_CYCLO_TAILS: dict[int, list] = {}


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    cached = _CYCLO_CACHE.get(n)
    if cached is not None:
        return cached
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _int_polydiv_exact(num, cyclotomic_poly(d))
    out = tuple(num)
    _CYCLO_CACHE[n] = out
    return out


def _reduce_mod_cyclo(order: int, vec: list) -> list:
    """Reduce an integer coefficient list (powers of zeta_order) to
    degree < deg Phi; Phi is monic, so the result stays integral."""
    phi = cyclotomic_poly(order)
    d = len(phi) - 1
    # first fold exponents mod order (zeta^order = 1)
    folded = list(vec[:order])
    for start in range(order, len(vec), order):
        chunk = vec[start:start + order]
        folded[:len(chunk)] = [x + y for x, y in zip(folded, chunk)]
    vec = folded
    if len(vec) <= d:
        return vec + [0] * (d - len(vec))
    tail = _CYCLO_TAILS.get(order)
    if tail is None:
        tail = _CYCLO_TAILS[order] = [(j, p) for j, p in enumerate(phi[:d]) if p]
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c:
            base = i - d
            for j, p in tail:
                vec[base + j] -= c * p
    del vec[d:]
    return vec


def _cyclo(order: int, num: list, den: int):
    """The canonical value of (sum num[k] zeta^k) / den, for num already
    reduced mod Phi_order and den > 0: an int or Fraction when only the
    constant term survives, else a Cyclo with the content gcd divided out."""
    if not any(num[1:]):
        c = num[0] if num else 0
        return c if den == 1 else exact(Fraction(c, den))
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return Cyclo(order, tuple(num), den)


class Cyclo:
    """An element of Q(zeta_N) outside Q: sum num[k] zeta_N^k / den, num reduced
    mod Phi_N and gcd(den, *num) = 1, so equal values of one order have
    equal fields.

    Arithmetic between different orders lifts both operands to the lcm
    order; results that land in Q come back as an int or a Fraction.  The
    order N is storage only: the text is that of the value, printed in its
    conductor, so one value has one text at every N.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple, den: int = 1):
        self.order = order
        self.num = num
        self.den = den

    # -- construction ---------------------------------------------------

    @staticmethod
    def make(order: int, coeffs) -> "Cyclo | int | Fraction":
        """Build from a {power: coeff} map or coefficient list of rationals;
        demotes.  Only the nonzero entries are read, and they are rescaled
        to the common denominator only when it is not 1."""
        items = [(k, c) for k, c in (coeffs.items() if isinstance(coeffs, dict)
                                     else enumerate(coeffs)) if c]
        den = math.lcm(*(c.denominator for _k, c in items))
        lst = [0] * (max((k for k, _c in items), default=0) + 1)
        for k, c in items:
            lst[k] = c.numerator if den == 1 else c.numerator * (den // c.denominator)
        return _cyclo(order, _reduce_mod_cyclo(order, lst), den)

    def lift(self, order: int) -> "Cyclo":
        """The same value in the power basis of a multiple order.  Z[zeta_n]
        is saturated in Z[zeta_order], so the content stays coprime to den."""
        if order == self.order:
            return self
        assert order % self.order == 0
        step = order // self.order
        lst = [0] * order
        for k, c in enumerate(self.num):
            lst[k * step] = c
        return Cyclo(order, tuple(_reduce_mod_cyclo(order, lst)), self.den)

    def conjugate(self, k: int) -> "Cyclo":
        """The Galois conjugate sigma_k(self), sigma_k: zeta -> zeta^k for k
        prime to the order, in the same order.  sigma_k maps Z[zeta] onto
        itself, so the content stays coprime to den and the value outside Q.

        >>> print(Cyclo.make(5, {1: 1}).conjugate(2))
        zeta5^2
        """
        order = self.order
        assert math.gcd(k, order) == 1, "conjugation needs k prime to the order"
        lst = [0] * order
        for i, c in enumerate(self.num):
            lst[i * k % order] = c
        return Cyclo(order, tuple(_reduce_mod_cyclo(order, lst)), self.den)

    # -- arithmetic ------------------------------------------------------

    def _common(self, other: "Cyclo"):
        if other.order == self.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if isinstance(other, Cyclo):
            a, b = self._common(other)
            if a.den == b.den:
                return _cyclo(a.order, [x + y for x, y in zip(a.num, b.num)], a.den)
            ad, bd = a.den, b.den
            return _cyclo(a.order, [x * bd + y * ad for x, y in zip(a.num, b.num)], ad * bd)
        if isinstance(other, int):
            # the content stays coprime to den, and the value stays outside Q
            num = list(self.num)
            num[0] += other * self.den
            return Cyclo(self.order, tuple(num), self.den)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            num = [c * q for c in self.num]
            num[0] += p * self.den
            return _cyclo(self.order, num, self.den * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, (Cyclo, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return 0
            g = math.gcd(other, self.den)
            k = other // g
            return Cyclo(self.order, tuple(c * k for c in self.num), self.den // g)
        if isinstance(other, Fraction):
            p = other.numerator
            return _cyclo(self.order, [c * p for c in self.num], self.den * other.denominator)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._common(other)
        an, bn = a.num, b.num
        # the sparser operand outside: a root of unity times a dense value is O(phi)
        if an.count(0) < bn.count(0):
            an, bn = bn, an
        inner = [(j, cj) for j, cj in enumerate(bn) if cj]
        prod = [0] * (len(an) + len(bn) - 1)
        for i, ci in enumerate(an):
            if ci:
                for j, cj in inner:
                    prod[i + j] += ci * cj
        return _cyclo(a.order, _reduce_mod_cyclo(a.order, prod), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Field inverse by an extended Euclid on integer lists mod Phi_N, a
        primitive polynomial remainder sequence (G. E. Collins, JACM 14,
        1967; Knuth, TAOCP vol. 2, 4.6.1).  Each pair (r, s) keeps
        s * num = r (mod Phi_N) over Z, from (Phi_N, 0) and (num, 1).  r0 is
        pseudo-divided by r1 one leading term at a time: r0 becomes
        (lead/g) r0 - (c/g) x^shift r1, for c and lead the leading
        coefficients of r0 and r1 and g = gcd(lead, c) signed as lead, and
        s0 the same combination of s0 and s1.  The new pair is divided by
        its content.  Phi_N is irreducible, so r ends at a constant c unless
        num = 0 mod Phi_N, and the inverse is den * s / c.

        >>> print((1 - root_of_unity(5, 1)).inverse())
        4/5 + 3/5*zeta5^1 + 2/5*zeta5^2 + 1/5*zeta5^3
        """
        r0, s0 = list(cyclotomic_poly(self.order)), []
        r1, s1 = list(self.num), [1]
        while r1 and not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            lead, top = r1[-1], len(r1) - 1
            while len(r0) > top:
                c = r0[-1]
                g = math.gcd(lead, c) if lead > 0 else -math.gcd(lead, c)
                a, b, shift = lead // g, c // g, len(r0) - 1 - top
                if a != 1:
                    r0, s0 = [a * x for x in r0], [a * x for x in s0]
                s0 += [0] * (shift + len(s1) - len(s0))
                for j, y in enumerate(r1):
                    r0[shift + j] -= b * y
                for j, y in enumerate(s1):
                    s0[shift + j] -= b * y
                while r0 and not r0[-1]:
                    r0.pop()
            g = math.gcd(*r0, *s0)
            if g > 1:
                r0, s0 = [x // g for x in r0], [x // g for x in s0]
            r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1:
            raise ZeroDivisionError("element is zero modulo the cyclotomic relation")
        den = self.den if r1[0] > 0 else -self.den
        return _cyclo(self.order, _reduce_mod_cyclo(self.order, [den * x for x in s1]), abs(r1[0]))

    def __truediv__(self, other):
        if isinstance(other, RATIONAL):
            return self * scalar_inv(other)
        if isinstance(other, Cyclo):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            base = self.inverse()
            k = -k
        else:
            base = self
        out = 1
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RATIONAL):
            return False  # demotion invariant: a Cyclo is never rational
        if isinstance(other, Cyclo):
            a, b = self._common(other)
            return a.num == b.num and a.den == b.den
        return NotImplemented

    def __bool__(self):
        return any(self.num)

    __hash__ = None  # not hashable: equal values may carry different orders

    def __repr__(self):
        return f"Cyclo({self.order}, {self.num!r}, {self.den})"

    def __str__(self):
        """The value in the power basis of its conductor, the least order
        d | N whose field Q(zeta_d) holds it (never 2 mod 4, as
        Q(zeta_2d) = Q(zeta_d) for odd d); a prime N is its own conductor.

        >>> print(Cyclo.make(6, {1: 1}))
        1 + zeta3^1
        """
        order, num = self.order, self.num
        # the conductor divides every order whose field holds the value, so
        # dropping primes while the value stays inside reaches it
        for p in _primes(order):
            while order % p == 0 and order // p > 2:
                sub = _subfield_coords(order, num, p)
                if sub is None:
                    break
                order, num = order // p, sub
        parts = []
        for k, n in enumerate(num):
            if not n:
                continue
            c = Fraction(n, self.den)
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"zeta{order}^{k}")
            elif c == -1:
                parts.append(f"-zeta{order}^{k}")
            else:
                parts.append(f"{c}*zeta{order}^{k}")
        return signed_sum(parts)


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple:
    """The distinct primes of n, ascending."""
    ps, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            ps.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return tuple(ps + [m] if m > 1 else ps)


def _subfield_coords(order: int, num, p: int):
    """The coordinates of sum num[k] zeta_order^k in the power basis of
    zeta_m, m = order / p for a prime p | order, or None when Q(zeta_m)
    does not hold the value.

    If p divides m, Phi_order(x) = Phi_m(x^p): the value lies in Q(zeta_m)
    exactly when its coordinates sit at multiples of p, and those are its
    zeta_m coordinates.  Otherwise, with u p + v m = 1, zeta_order^k is
    zeta_m^(u k) zeta_p^(v k), so the value is sum_(j < p) y_j zeta_p^j
    with y_j in Q(zeta_m).  The only relation over Q(zeta_m) among the
    zeta_p^j is that they sum to 0, so the value lies in Q(zeta_m) exactly
    when y_1 = ... = y_(p-1), and it is then y_0 - y_1."""
    m = order // p
    if m % p == 0:
        return None if any(c for k, c in enumerate(num) if k % p) else num[::p]
    u, v = pow(p, -1, m), pow(m, -1, p)
    y = [[0] * m for _ in range(p)]
    for k, c in enumerate(num):
        if c:
            y[v * k % p][u * k % m] += c
    if any(any(_reduce_mod_cyclo(m, [a - b for a, b in zip(yj, y[1])])) for yj in y[2:]):
        return None
    return _reduce_mod_cyclo(m, [a - b for a, b in zip(y[0], y[1])])


def root_of_unity(order: int, j: int):
    """zeta_order^j in canonical form (an int when it is rational).  It is
    built from its power-basis vector, reduced mod Phi_order after
    zeta^(order/2) = -1 has halved an even order's exponent; a unit has
    content 1, so no gcd or common denominator is taken.

    >>> root_of_unity(2, 1)
    -1
    >>> root_of_unity(6, 5)
    Cyclo(6, (1, -1), 1)
    """
    if order < 1:
        raise ValueError("root order must be positive")
    j %= order
    if not j:
        return 1
    if 2 * j == order:
        return -1
    sign = 1
    if 2 * j > order and not order & 1:
        j, sign = j - order // 2, -1
    vec = [0] * j + [sign]
    return Cyclo(order, tuple(_reduce_mod_cyclo(order, vec)), 1)


def cyclo_root(angle: Fraction):
    """The root of unity e^(2 pi i angle) for a rational angle."""
    angle = Fraction(angle) % 1
    return root_of_unity(angle.denominator, angle.numerator)


def scalar_inv(c):
    """Multiplicative inverse of an int, Fraction or Cyclo scalar."""
    if isinstance(c, Cyclo):
        return c.inverse()
    return exact(1 / Fraction(c))


def scalar_pow(c, k: int):
    if isinstance(c, Cyclo):
        return c ** k
    return exact(Fraction(c) ** k)


def scalar_str(c) -> str:
    """Render a scalar; cyclotomic combinations get wrapped in parens."""
    if isinstance(c, Cyclo):
        s = str(c)
        return f"({s})" if (" + " in s or " - " in s) else s
    return str(c)


def signed_sum(parts) -> str:
    """The printed terms joined by " + ", or by " - " before a term that
    starts with a minus sign, whose sign it takes."""
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
