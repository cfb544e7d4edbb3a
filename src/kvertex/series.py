"""Rational functions in one distinguished variable and their expansions.

A RationalFunction is a Laurent-polynomial prefactor over a multiset of
factors (1 - c*z^n)^e, where c is a root of unity times a monomial in the
other variables.  It can be expanded as a formal series at z=0, at z=infinity
(the expansion of f(z^-1) at zero) and at the multiplicative point z=1
(series in 1-z), and decomposed into partial fractions over a cyclotomic
cover that splits every 1 - c*z^n into linear factors.

Truncation orders are explicit arguments everywhere; no ambient state.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .laurent import LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial, PolyFraction
from .scalars import (RATIONAL, cyclo_root, generalized_binomial, scalar_inv, scalar_pow,
                      signed_sum)

POINTS = ("zero", "infinity", "one")


def factor_poly(var: str, angle: Fraction, mono: Monomial, n: int) -> LaurentPoly:
    """The Laurent polynomial 1 - root(angle)*mono*z^n."""
    return LP_ONE - LaurentPoly.term(cyclo_root(angle), mono * Monomial.var(var, n))


def unit_value(angle: Fraction, mono: Monomial, k=1) -> LaurentPoly:
    """(root(angle) * mono)^k as a one-term Laurent polynomial."""
    if not angle:
        return LaurentPoly.term(1, mono ** k)
    return LaurentPoly.term(cyclo_root(angle * k), mono ** k)


class RationalFunction:
    """prefactor / prod (1 - c z^n)^e with c = root-of-unity * monomial."""

    __slots__ = ("var", "num", "den")

    def __init__(self, var: str, num: LaurentPoly, factors=()):
        self.var = var
        den: dict = {}
        extra = None
        for angle, mono, n, e in factors:
            if e == 0:
                continue
            if e < 0:
                raise ValueError("factor multiplicity must be positive")
            if type(angle) is not Fraction or not 0 <= angle < 1:
                angle = Fraction(angle) % 1
            if mono.exponent(var):
                raise ValueError("factor character may not involve the expansion variable")
            if n == 0:
                raise ValueError("factor exponent n must be nonzero")
            if n < 0:
                # 1/(1 - u z^-n)^e = (-1)^e u^-e z^(ne) / (1 - u^-1 z^n)^e
                c = (-1) ** e
                if angle:
                    c = c * cyclo_root(-e * angle)
                    angle = 1 - angle
                mono, n = mono.inv(), -n
                scale = LaurentPoly.term(c, mono ** e * Monomial.var(var, n * e))
                extra = scale if extra is None else extra * scale
            key = (angle, mono, n)
            den[key] = den.get(key, 0) + e
        if extra is not None:
            num = num * extra
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_poly(num: LaurentPoly, var: str = "z") -> "RationalFunction":
        return RationalFunction(var, num)

    @staticmethod
    def one_over_factor(var: str, angle, mono: Monomial, n: int = 1, e: int = 1,
                        num: LaurentPoly = LP_ONE) -> "RationalFunction":
        return RationalFunction(var, num, [(angle, mono, n, e)])

    def factors(self):
        return [(a, m, n, e) for (a, m, n), e in self.den.items()]

    # -- algebra ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.den

    def den_poly(self) -> LaurentPoly:
        out = LP_ONE
        for (angle, mono, n), e in self.den.items():
            out = out * (factor_poly(self.var, angle, mono, n) ** e)
        return out

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            if other.var != self.var:
                raise ValueError("mismatched expansion variables")
            merged = dict(self.den)
            for k, e in other.den.items():
                merged[k] = merged.get(k, 0) + e
            return RationalFunction(self.var, self.num * other.num,
                                    [(a, m, n, e) for (a, m, n), e in merged.items()])
        return RationalFunction(self.var, self.num * other, self.factors())

    __rmul__ = __mul__

    def __neg__(self):
        return RationalFunction(self.var, -self.num, self.factors())

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            p = other if isinstance(other, LaurentPoly) else LaurentPoly.scalar(other)
            other = RationalFunction.from_poly(p, self.var)
        if other.var != self.var:
            raise ValueError("mismatched expansion variables")
        keys = set(self.den) | set(other.den)
        den = {k: max(self.den.get(k, 0), other.den.get(k, 0)) for k in keys}

        def lift(f):
            extra = LP_ONE
            for (a, m, n), e in den.items():
                miss = e - f.den.get((a, m, n), 0)
                if miss:
                    extra = extra * (factor_poly(self.var, a, m, n) ** miss)
            return f.num * extra

        return RationalFunction(self.var, lift(self) + lift(other),
                                [(a, m, n, e) for (a, m, n), e in den.items()])

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return self + (-other)
        return self + (-1 * (other if isinstance(other, LaurentPoly) else LaurentPoly.scalar(other)))

    def equals(self, other: "RationalFunction") -> bool:
        """Exact equality after clearing denominators."""
        if self.var != other.var:
            return False
        return self.num * other.den_poly() == other.num * self.den_poly()

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.equals(other)
        return NotImplemented

    __hash__ = None

    # -- substitutions --------------------------------------------------------

    def shift(self, k: int) -> "RationalFunction":
        return self * LaurentPoly.var(self.var, k)

    def rename_chars(self, ren: dict) -> "RationalFunction":
        if self.var in ren or self.var in ren.values():
            raise ValueError("cannot rename the expansion variable")
        factors = [(a, m.rename(ren), n, e) for (a, m, n), e in self.den.items()]
        return RationalFunction(self.var, self.num.rename(ren), factors)

    def unit_pole_depth(self) -> int:
        """Total vanishing order of the denominator at z=1."""
        return sum(e for (a, m, _n), e in self.den.items() if a == 0 and m.is_one())

    def total_pole_mult(self) -> int:
        return sum(n * e for (_a, _m, n), e in self.den.items())

    def __str__(self):
        num = str(self.num)
        if not self.den:
            return num
        parts = []
        for (a, m, n), e in sorted(self.den.items(),
                                   key=lambda kv: (kv[0][1].items(), kv[0][0], kv[0][2])):
            term = LaurentPoly.term(cyclo_root(a), m * Monomial.var(self.var, n))
            ts = str(term)
            base = f"(1 + {ts[1:]})" if ts.startswith("-") else f"(1 - {ts})"
            parts.append(base if e == 1 else f"{base}^{e}")
        den = "*".join(parts)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num} / ({den})" if len(parts) > 1 else f"{num} / {den}"

    def __repr__(self):
        return f"<RationalFunction {self}>"


# -- formal series -------------------------------------------------------------


def _ser_mul(A: dict, B: dict, tbound=math.inf) -> dict:
    """The product of two {index: coefficient} series or z-split
    polynomials, without the indices at or beyond tbound."""
    out: dict = {}
    for i, ci in A.items():
        for j, cj in B.items():
            k = i + j
            if k >= tbound:
                continue
            c = ci * cj
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
    return {k: c for k, c in out.items() if c}


def _powers(p, count: int) -> list:
    """p^0 .. p^(count - 1), with None for each power that is 1."""
    if p is None:
        return [None] * count
    out = [None]
    while len(out) < count:
        out.append(_times(out[-1], p))
    return out[:count]


def _times(p, q):
    """p * q, where None stands for 1."""
    if q is None:
        return p
    return q if p is None else p * q


class USeries(NamedTuple):
    """The truncated u-series sum_k num[k] u^(val + k) / (B C^k): the
    coefficient at place k above the valuation is the Laurent polynomial
    num[k] over B C^k (B and C Laurent polynomials, or None for 1), and
    the places kept are exact.

    Its one operation is division, used by the expansion at z = 1, by the
    pole terms of partial fractions and by the negative characters of
    quiver.conner_floyd; each builds the numerators it starts from.  Place
    k of a u-adic quotient depends only on the operands' places <= k, so a
    quotient keeps the number of places, and it is a polynomial recurrence
    on the numerators (fraction-free in the sense of Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, 1992).  Dividing by the e-th
    power of a u-polynomial whose constant term c is not a scalar
    multiplies B by c^e and C by c, so denominators grow linearly in k.  A
    scalar c is divided out in the field and leaves B and C alone; a zero c
    strips a u.
    """

    val: int
    num: list
    B: LaurentPoly = None
    C: LaurentPoly = None

    def divide(self, base: list, e: int = 1) -> "USeries":
        """The quotient by (sum_j base[j] u^j)^e, base not zero.  With c its
        constant term and C' = C c, it is over B c^e C'^k.  The first of the
        e divisions by base takes

            m_k = c^k n_k - sum_(j >= 1) base[j] C C'^(j - 1) m_(k - j),

        and the others the same recurrence without the c^k, since c divides
        C' already.  So place k gains c^(e + k), as in J. C. P. Miller's
        recurrence for base^-e, not c^(e (k + 1)).
        """
        val, num = self.val, self.num
        while not base[0]:
            base = base[1:]
            val -= e
        c = base[0]
        if c.is_scalar():
            ci = scalar_inv(c.constant())
            if ci != 1:
                base = [b * ci for b in base]
                num = [n * scalar_pow(ci, e) for n in num]
            c = None
        C = _times(self.C, c)
        # the weights -base[j] C C'^(j - 1), j >= 1
        w = [-_times(_times(b, self.C), p) for b, p in zip(base[1:], _powers(C, len(base) - 1))]
        cp = _powers(c, len(num))
        for r in range(e):
            out = []
            for k, n in enumerate(num):
                acc = n * cp[k] if n.terms and cp[k] is not None and not r else n
                for j, wj in enumerate(w[:k], 1):
                    if out[k - j].terms:
                        term = wj * out[k - j]
                        acc = acc + term if acc.terms else term
                out.append(acc)
            num = out
        return USeries(val, num, _times(self.B, None if c is None else c ** e), C)

    def coeff(self, index: int) -> PolyFraction:
        """The coefficient of u^index, a place kept, unreduced."""
        k = index - self.val
        den = _times(self.B, self.C ** k if self.C is not None and k else None)
        return PolyFraction(self.num[k], den or LP_ONE)

    def items(self):
        """(index, coefficient) for the nonzero places, in order."""
        return [(self.val + k, self.coeff(self.val + k)) for k, n in enumerate(self.num) if n]


class FormalSeries:
    """Truncated series in one of the uniformizers z, z^-1 or 1-z.

    Coefficients with index >= trunc are unknown and asking for them raises;
    absent indices below trunc are exact zeros.
    """

    __slots__ = ("point", "var", "coeffs", "trunc")

    def __init__(self, point: str, var: str, coeffs: dict, trunc: int):
        if point not in POINTS:
            raise ValueError(f"unknown expansion point {point!r}")
        self.point = point
        self.var = var
        self.coeffs = {k: c for k, c in coeffs.items() if c}
        self.trunc = trunc

    def coeff(self, k: int):
        if k >= self.trunc:
            raise ValueError(f"coefficient {k} is at or beyond truncation {self.trunc}")
        return self.coeffs.get(k, 0)

    def valuation(self) -> int:
        return min(self.coeffs) if self.coeffs else self.trunc

    def items(self):
        return sorted(self.coeffs.items())

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            self._check(other)
            t = min(self.trunc + other.valuation(), other.trunc + self.valuation())
            return FormalSeries(self.point, self.var, _ser_mul(self.coeffs, other.coeffs, t), t)
        return FormalSeries(self.point, self.var,
                            {k: c * other for k, c in self.coeffs.items()}, self.trunc)

    __rmul__ = __mul__

    def _check(self, other):
        if self.point != other.point or self.var != other.var:
            raise ValueError("series uniformizers differ")

    def same_up_to(self, other: "FormalSeries", order=None) -> bool:
        self._check(other)
        t = min(self.trunc, other.trunc)
        if order is not None:
            t = min(t, order)
        lo = min(self.valuation(), other.valuation(), 0)
        return all(self.coeffs.get(k, 0) == other.coeffs.get(k, 0)
                   for k in range(lo, t))

    def _upow(self, k: int) -> str:
        if k == 0:
            return "1"
        if self.point == "zero":
            return self.var + (f"^{k}" if k != 1 else "")
        if self.point == "infinity":
            # index k is the power of z^-1
            return self.var + (f"^{-k}" if k != -1 else "")
        return f"(1-{self.var})" + (f"^{k}" if k != 1 else "")

    def __str__(self):
        parts = []
        for k, c in self.items():
            cs = str(c)
            if k == 0:
                parts.append(cs if " " not in cs else f"({cs})")
                continue
            if c == 1:
                parts.append(self._upow(k))
            elif c == -1:
                parts.append("-" + self._upow(k))
            else:
                if " " in cs or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{self._upow(k)}")
        body = signed_sum(parts) if parts else "0"
        return f"{body} + O({self._upow(self.trunc)})"

    def __repr__(self):
        return f"<FormalSeries {self}>"


# -- expansions ------------------------------------------------------------------


def expand_at(f: RationalFunction, point: str, order: int) -> FormalSeries:
    """Expand f at z=0, z=infinity or z=1 with `order` exact coefficients
    counted from the leading term.  The expansion at infinity is that of
    f(z^-1) at zero, its index k the power of z^-1.  One call of
    _expand_raw, which keeps `order` places from the exact valuation of the
    numerator at the point.

    >>> f = RationalFunction.one_over_factor("z", 0, MONO_ONE)
    >>> str(expand_at(f, "zero", 3))
    '1 + z + z^2 + O(z^3)'
    >>> str(expand_at(f, "infinity", 3))
    '-z^-1 - z^-2 - z^-3 + O(z^-4)'
    """
    if order <= 0:
        raise ValueError("order must be positive")
    if point not in POINTS:
        raise ValueError(f"unknown expansion point {point!r}")
    if f.is_zero():
        return FormalSeries(point, f.var, {}, order)
    g, at = (_inverted(f), "zero") if point == "infinity" else (f, point)
    coeffs, tbound = _expand_raw(g, at, order)
    return FormalSeries(point, f.var, coeffs, tbound)


def _inverted(f: RationalFunction) -> RationalFunction:
    """f(z^-1): the numerator at z^-1 over the factors with n turned to -n,
    which the constructor turns back in one pass."""
    return RationalFunction(f.var, f.num.subs_mono(f.var, Monomial.var(f.var, -1)),
                            [(a, m, -n, e) for (a, m, n), e in f.den.items()])


def _expand_raw(f: RationalFunction, point: str, order: int):
    """The expansion of f, numerator not zero, at the point "zero" or "one"
    as ({index: coefficient}, tbound).  It keeps `order` places from the
    numerator's exact valuation v0 at the point (its lowest z-power, or its
    first nonzero u-digit), so its leading coefficient is at v0 minus the
    denominator's valuation and it is exact below tbound, `order` places
    above that.

    At zero the places v0 .. tbound - 1 are one dense list seeded with the
    numerator's z-powers.  Dividing by 1 - c z^n is the recurrence
    s_i += c s_(i-n) for ascending i (the division recurrence for power
    series, Knuth, TAOCP vol. 2, 4.7), so a factor (1 - c z^n)^e costs one
    unit value c and e passes, each at most `order` Laurent sums, and a
    zero place is skipped.  1/prod_(n <= 7) (1 - z^n) counts partitions:

    >>> f = RationalFunction("z", LP_ONE, [(0, MONO_ONE, n, 1) for n in range(1, 8)])
    >>> [str(c) for _k, c in sorted(_expand_raw(f, "zero", 8)[0].items())]
    ['1', '1', '2', '3', '5', '7', '11', '15']
    """
    num_split = f.num.split_var(f.var)
    if point == "zero":
        v0 = min(num_split)
        tbound = v0 + order
        ser = [num_split.get(v0 + i, LP_ZERO) for i in range(order)]
        for (a, m, n), e in f.den.items():
            c = None if a == 0 and m.is_one() else unit_value(a, m)
            for _ in range(e):
                for i in range(n, order):
                    prev = ser[i - n]
                    if prev.terms:
                        ser[i] = ser[i] + (prev if c is None else c * prev)
        return {v0 + i: s for i, s in enumerate(ser) if s.terms}, tbound

    # point == "one": series in u = 1-z; coefficients live in the fraction
    # field.  Each factor u that a (1 - z^n) strips lowers the valuation.
    digits = enumerate(_u_digits(num_split))
    v0, lead = next(digits)
    while not lead:
        v0, lead = next(digits)
    useries = USeries(v0, [lead] + [c for _j, c in islice(digits, order - 1)])
    for (a, m, n), e in f.den.items():
        # 1 - u_root*m*(1-u)^n as a u-polynomial
        c = unit_value(a, m)
        base = [LP_ONE - c] + [c * (generalized_binomial(n, j) * (-1) ** (j + 1))
                               for j in range(1, n + 1)]
        useries = useries.divide(base, e)
    return dict(useries.items()), v0 + order - f.unit_pole_depth()


def _u_digits(zpows: dict, start: int = 0):
    """The digits of sum_k p_k z^k for zpows = {k: p_k} in the basis
    u = 1 - z from place `start` on, one place at a time and without end,
    zero sums included: z^k = (1 - u)^k = sum_j d_j u^j,
    d_j = (-1)^j binom(k, j), so d_start is a generalized binomial (1 at
    place 0) and d_(j+1) = d_j (j - k) / (j + 1) in ints; z^k leaves the
    sum after j = k if k >= 0, and never enters it when 0 <= k < start.
    With p_k = A_k a^-k these are the digits of sum_k A_k z^k in
    w = 1 - a z.

    >>> [str(c) for c in islice(_u_digits({-1: LP_ONE, 2: LP_ONE}), 4)]
    ['2', '-1', '2', '1']
    >>> [str(c) for c in islice(_u_digits({-1: LP_ONE, 2: LP_ONE}, 2), 2)]
    ['2', '1']
    """
    live = []
    for k, p in zpows.items():
        d = (-1) ** start * generalized_binomial(k, start) if start else 1
        if d:
            live.append((k, p, d))
    j = start
    while True:
        acc, kept = None, []
        for k, p, d in live:
            term = p * d
            acc = term if acc is None else acc + term
            d = d * (j - k) // (j + 1)
            if d:
                kept.append((k, p, d))
        yield LP_ZERO if acc is None else acc
        live = kept
        j += 1


# -- partial fractions --------------------------------------------------------------


class PoleTerm(NamedTuple):
    angle: Fraction
    mono: Monomial
    mult: int
    coeff: PolyFraction


class PartialFractions:
    """f = sum_k poly_part[k] z^k + sum coeff / (1 - a z)^mult over distinct
    linear poles a = root(angle) * mono on the splitting cover."""

    __slots__ = ("var", "poly_part", "terms")

    def __init__(self, var: str, poly_part: dict, terms: list):
        self.var = var
        self.poly_part = poly_part
        self.terms = terms

    def recombines_to(self, f: RationalFunction) -> bool:
        """Exact identity N = Q D + sum_t A_t D / (1 - a_t z)^(m_t) for
        f = N / D, checked pole by pole without a common denominator.

        R = N - Q D must have its z-powers in [0, deg D), as the sum has.
        Then R equals the sum once they agree modulo every (1 - a z)^m in
        D (Chinese remainder theorem).  Modulo it the terms at the other
        poles vanish, and in base w = 1 - a z (digits from _pole_digits) the
        first m digits must satisfy R_i = sum_t A_t (D / w^m)_(i - m + m_t),
        where (D / w^m)_j is the w-digit j + m of D.  Q is a Laurent
        polynomial for every f, so a surviving denominator in it fails.
        """
        poles, D = _cover(f)
        R = dict(f.num.split_var(f.var))
        for k, c in self.poly_part.items():
            p = c.as_poly() if isinstance(c, PolyFraction) else c
            if p is None:
                return False
            for kk, dk in D.items():
                R[k + kk] = R.get(k + kk, LP_ZERO) - p * dk
        top = max(D)
        if any(c and not 0 <= k < top for k, c in R.items()) or \
           any(t.mult > poles.get((t.angle, t.mono), 0) for t in self.terms):
            return False
        for pole, m in poles.items():
            r, d = _pole_digits(R, pole, m), _pole_digits(D, pole, m, m)
            for i in range(m):
                rhs = sum((t.coeff * d[i - m + t.mult] for t in self.terms
                           if (t.angle, t.mono) == pole and i - m + t.mult >= 0),
                          PolyFraction.of(LP_ZERO))
                if not rhs == r[i]:
                    return False
        return True

    def coefficient_sum(self) -> PolyFraction:
        total = PolyFraction.of(LP_ZERO)
        for t in self.terms:
            total = total + t.coeff
        return total

    def __str__(self):
        lines = []
        pp = sorted(self.poly_part.items())
        if pp:
            body = " + ".join(f"({c})*{self.var}^{k}" if k else f"({c})" for k, c in pp)
            lines.append(f"polynomial part: {body}")
        else:
            lines.append("polynomial part: 0")
        for t in sorted(self.terms, key=lambda t: (t.mono.items(), t.angle, t.mult)):
            a = unit_value(t.angle, t.mono)
            ts = str(a)
            if ts == "1":
                base = f"(1 - {self.var})"
            elif ts == "-1":
                base = f"(1 + {self.var})"
            elif ts.startswith("-"):
                base = f"(1 + {ts[1:]}*{self.var})"
            else:
                base = f"(1 - {ts}*{self.var})"
            pw = f"^{t.mult}" if t.mult > 1 else ""
            lines.append(f"+ ({t.coeff}) / {base}{pw}")
        return "\n".join(lines)


def split_poles(f: RationalFunction) -> dict:
    """Linearize every factor over the n-fold cover: {(angle, mono): mult}.

    1 - u z^n = prod_{j<n} (1 - zeta_n^j u^(1/n) z), so a factor with angle a
    contributes poles at angles (a+j)/n with character mono^(1/n).
    """
    poles: dict = {}
    for (a, m, n), e in f.den.items():
        if n == 1:
            poles[(a, m)] = poles.get((a, m), 0) + e
        else:
            mroot = m ** Fraction(1, n)
            for j in range(n):
                key = (Fraction(a + j, n) % 1, mroot)
                poles[key] = poles.get(key, 0) + e
    return poles


def _cover(f: RationalFunction):
    """The cover poles of f as {(angle, mono): mult} in display order, and
    the denominator D = prod (1 - a z)^mult split by z: f.den_poly(), whose
    coefficients are those of the original factors (1 - c z^n)^e."""
    poles = split_poles(f)
    return ({pole: poles[pole] for pole in sorted(poles, key=lambda km: (km[1].items(), km[0]))},
            f.den_poly().split_var(f.var))


def _pole_digits(A: dict, pole, count: int, start: int = 0) -> list:
    """The digits start .. start + count - 1 of a z-split polynomial A in
    w = 1 - a z, a = root(angle) * mono for pole = (angle, mono).  The
    powers 0 <= k < start have no digit there and are not scaled.

    >>> D = (1 - LaurentPoly.var("z")) ** 2
    >>> [str(c) for c in _pole_digits(D.split_var("z"), (Fraction(0), MONO_ONE), 3)]
    ['0', '0', '1']
    >>> [str(c) for c in _pole_digits(D.split_var("z"), (Fraction(0), MONO_ONE), 2, 2)]
    ['1', '0']
    """
    scaled = {k: c * unit_value(*pole, -k) for k, c in A.items() if not 0 <= k < start}
    return list(islice(_u_digits(scaled, start), count))


def _galois_exponent(rep: Fraction, angle: Fraction, L: int) -> int:
    """A k prime to L with k rep = angle mod 1, for two angles of one
    denominator d | L: sigma_k maps root(rep) to root(angle), and every
    scalar of order dividing L to its conjugate."""
    d = angle.denominator
    k = angle.numerator * pow(rep.numerator, -1, d) % d
    while math.gcd(k, L) != 1:
        k += d
    return k


def _pole_terms(N: dict, D: dict, pole, m: int) -> list:
    """The terms A_(m-j) / (1 - a z)^(m-j), j < m, of N / D at the pole
    a = root(angle) * mono of multiplicity m, pole = (angle, mono).

    In w = 1 - a z, D = E w^m with E(1/a) not zero, so D's w-digits
    m..2m-1 are the first m of E, and A_(m-j) is the coefficient of w^j in
    N / E: the first m w-digits of N divided by those."""
    quot = USeries(0, _pole_digits(N, pole, m)).divide(_pole_digits(D, pole, m, m))
    return [PoleTerm(*pole, m - j, quot.coeff(j).simplified())
            for j in range(m) if quot.num[j].terms]


def partial_fractions(f: RationalFunction) -> PartialFractions:
    """Exact decomposition; recombining the output reproduces f.

    The denominator D = prod (1 - a_i z)^(m_i) over the cover poles is
    f.den_poly(), the product of the original factors (1 - c z^n)^e.  The
    Laurent-polynomial part is extracted by exact long division in the
    character ring (D has unit constant and leading terms).  The pole
    coefficients A_(m_i - j), j < m_i, are read from the first 2 m_i digits
    of D and the first m_i of the remainder N in w = 1 - a_i z
    (_pole_terms).  So every output coefficient is a single fraction of
    Laurent polynomials.

    Galois orbits.  f is Galois-invariant when every factor angle is 0 or
    1/2 and every numerator coefficient is rational, as for every input the
    CLI parses.  Then the cover poles root(p/d) * mono of one denominator d
    and one character are one orbit of Gal(Q(zeta_L)/Q), and so are their
    coefficients.  Only the first pole of an orbit, root(1/d) * mono, is
    evaluated; the pole root(p/d) * mono gets its terms mapped by
    sigma_k: zeta -> zeta^k, with k = p mod d and k prime to L, the lcm of
    the orders above 2 of all the cover roots.  sigma_k commutes with every
    step of the evaluation (products, reduction mod Phi, demotion to Q, the
    normalization of a PolyFraction by the coefficient of its lowest
    monomial, exact division), so the conjugate is the object that
    evaluating at its own pole gives.  When f is not invariant, every pole
    is an orbit of its own.

    >>> f = RationalFunction("z", LP_ONE, [(0, MONO_ONE, 2, 1)])
    >>> print(partial_fractions(f))
    polynomial part: 0
    + (1/2) / (1 - z)
    + (1/2) / (1 + z)
    >>> z = LaurentPoly.var("z")
    >>> print(partial_fractions(RationalFunction("z", z, [(0, MONO_ONE, 3, 1)])))
    polynomial part: 0
    + (1/3) / (1 - z)
    + ((-1/3 - 1/3*zeta3^1)) / (1 - zeta3^1*z)
    + (1/3*zeta3^1) / (1 - (-1 - zeta3^1)*z)
    """
    poles, D = _cover(f)
    M = max(D) if D else 0
    N = dict(f.num.split_var(f.var))
    Q: dict = {}

    def subtract_multiple(c, shift):
        # N -= c * z^shift * (D - z^shift-part already removed by caller)
        for k, dk in D.items():
            key = shift + k
            sub = c * dk
            acc = N.get(key)
            acc = -sub if acc is None else acc - sub
            if acc.is_zero():
                N.pop(key, None)
            else:
                N[key] = acc

    # clear negative z-powers:  c z^lo / D = c z^lo + (N - c z^lo D)/D
    while N and min(N) < 0:
        lo = min(N)
        c = N[lo]
        Q[lo] = Q.get(lo, LP_ZERO) + c
        subtract_multiple(c, lo)
    # ordinary long division on the high side; lead(D) is a unit term
    if M:
        lc, lm = D[M].as_unit()
        lead_inv = LaurentPoly.term(scalar_inv(lc), lm.inv())
        while N and max(N) >= M:
            hi = max(N)
            q = N[hi] * lead_inv
            Q[hi - M] = Q.get(hi - M, LP_ZERO) + q
            subtract_multiple(q, hi - M)
    else:
        for k, c in N.items():
            Q[k] = Q.get(k, LP_ZERO) + c
        N = {}

    # one orbit per (denominator, character) when f is Galois-invariant
    invariant = all(a.denominator <= 2 for a, _m, _n in f.den) and \
        all(isinstance(c, RATIONAL) for c in f.num.terms.values())
    L = math.lcm(1, *(a.denominator for a, _m in poles if a.denominator > 2))
    orbits: dict = {}
    terms: list = []
    for (angle, mono), m in poles.items():
        key = (angle.denominator, mono) if invariant else (angle, mono)
        rep = orbits.get(key)
        if rep is None:
            rep = orbits[key] = (angle, _pole_terms(N, D, (angle, mono), m))
            terms.extend(rep[1])
        else:
            k = _galois_exponent(rep[0], angle, L)
            terms.extend(PoleTerm(angle, mono, t.mult, t.coeff.conjugate(k)) for t in rep[1])
    poly_part = {k: c for k, c in Q.items() if not c.is_zero()}
    return PartialFractions(f.var, poly_part, terms)
