"""Residue maps on rational functions of the expansion variable.

Three functionals:

* residue_k      -- z^0 coefficient of (expansion at 0) - (expansion at oo),
                    computed from two series shared by all the numerator's
                    z-powers: S_+ = prod (1 - a_i z)^(-m_i) over the cover
                    poles and S_- = prod (1 - a_i^-1 z)^(-m_i), each up to
                    the largest index the numerator needs by the geometric
                    recurrence s_j += a s_(j-1), then one dot product with
                    the numerator's coefficients;
* residue_naive  -- minus the classical residue at z=1 of z^-1 f(z) dz;
* residue_coh    -- the classical residue at u=0 (coefficient of 1/u).

By the residue theorem on P^1, residue_k = residue_naive minus the local
residues Res_{z=gamma}(z^-1 f dz) at the other roots of unity.
local_residue_at_root rotates z -> gamma z, which leaves z^-1 dz
unchanged, and reads the residue at z=1 as one dot product: the first
u-digits of the rotated numerator (series._u_digits, u = 1-z) against the
scalar digits of the reciprocal of z times the rotated denominator.  It
does not call residue_naive, which divides the numerator's u-series by the
factors (series._expand_raw), so the theorem checks one against the other.

residue_k_oracle implements the defining series prescription directly: per
side it expands 1/D with series.expand_at only up to z^0, the one place it
reads, and multiplies that by the numerator's series in a Cauchy product
(FormalSeries.__mul__, series._ser_mul).  It shares no series code with
the closed form beyond LaurentPoly arithmetic: residue_k has its own
recurrence (_pole_series) and reads z^0 by a dot product.
diagonal_w_side_residue sums its k-vectors exactly in w, by Horner in the
pivot factors (1 - c_t w^-1): each k-vector costs one z-residue and one
product with a two-term polynomial, and the sum moves to u = 1 - w once at
the end.  For a < n it visits only the k-vectors with a + |k| <= 0, the
others having residue zero.  diagonal_z_side_residues groups equal pivots,
so each distinct factor of a z-part is one binomial power.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import islice

from .laurent import (LP_ONE, LP_ZERO, MONO_ONE, LaurentPoly, Monomial, PolyFraction, _acc,
                      _mul_into, _terms_over)
from .scalars import exact, generalized_binomial, root_of_unity, scalar_inv
from .series import (FormalSeries, RationalFunction, _expand_raw, _u_digits, expand_at,
                     split_poles, unit_value)


class ResidueKind:
    """One of the tags ktheory, naive and cohomological; equal and hashed by
    its tag."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        if tag not in ("ktheory", "naive", "cohomological"):
            raise ValueError(f"unknown residue kind {tag!r}")
        self.tag = tag

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tag == other.tag

    def __hash__(self):
        return hash((self.tag,))

    def __repr__(self):
        return f"ResidueKind(tag={self.tag!r})"


K_THEORY = ResidueKind("ktheory")
NAIVE = ResidueKind("naive")
COHOMOLOGICAL = ResidueKind("cohomological")


def residue_k(f: RationalFunction) -> LaurentPoly:
    """Closed-form K-theoretic residue.

    The denominator is linearized over the splitting cover into poles
    (a_i, m_i) with M = sum m_i.  The z^0 coefficient of z^k / prod (1 - a_i z)^m_i
    at z=0 is the entry -k of S_+ = prod (1 - a_i z)^(-m_i), and the one at
    z=infinity is (-1)^M prod a_i^(-m_i) times the entry k - M of
    S_- = prod (1 - a_i^-1 z)^(-m_i).  Both series are computed once, up to
    the largest index the numerator's z-powers need, and the residue is one
    dot product with the numerator's coefficients.  Fraction-free: the result
    is always a Laurent polynomial in the characters.

    >>> str(residue_k(RationalFunction.one_over_factor("z", 0, MONO_ONE)))
    '1'
    """
    if f.is_poly() or f.num.is_zero():
        return LP_ZERO
    return _rho(f.num.split_var(f.var), sorted(split_poles(f).items()))


def residue_k_oracle(f: RationalFunction, order: int) -> LaurentPoly:
    """The definition: z^0 term of f_+ minus z^0 term of f_-, each read from
    the expansion truncated `order` places above its leading term.

    order must exceed the total pole multiplicity.  A side whose expansion
    has valuation v0 (at zero the lowest z-power of the numerator, at
    infinity total_pole_mult() minus the highest) carries its z^0 term when
    v0 <= 0 < v0 + order, and contributes 0 otherwise; only the places
    v0..0 are read.  Such a side expands 1/D alone with 1 - v0 places
    (series.expand_at) and multiplies it by the numerator's series, a
    Cauchy product (FormalSeries.__mul__, through series._ser_mul) that is
    exact up to z^0; the z^0 term is read from that product.  So the oracle
    shares no series code with residue_k, which reads z^0 by one dot
    product with series of its own.
    """
    if order <= f.total_pole_mult():
        raise ValueError("order must exceed the total pole multiplicity")
    if f.is_zero():
        return LaurentPoly.scalar(0)
    zpows = f.num.split_var(f.var)
    recip = RationalFunction(f.var, LP_ONE, f.factors())

    def z0(point, v0, num):
        if v0 <= 0 < v0 + order:
            num = FormalSeries(point, f.var, num, math.inf)
            return (expand_at(recip, point, 1 - v0) * num).coeff(0)
        return 0

    out = z0("zero", min(zpows), zpows) - \
        z0("infinity", f.total_pole_mult() - max(zpows), {-k: p for k, p in zpows.items()})
    return out if isinstance(out, LaurentPoly) else LaurentPoly.scalar(out)


def rho_simple_product(var_power: int, poles) -> LaurentPoly:
    """residue_k of z^A / prod_i (1 - a_i z)^(m_i), poles a list of
    ((angle, mono), m_i); zero at once when 0 < A < sum(m_i)."""
    if 0 < var_power < sum(m for _p, m in poles):
        return LP_ZERO
    return _rho({var_power: LP_ONE}, poles)


def _pole_series(poles, count: int, invert: bool) -> dict:
    """The first count coefficients of prod_i (1 - a_i z)^(-m_i), or of
    prod_i (1 - a_i^-1 z)^(-m_i) when invert, with the zero ones dropped.

    Geometric recurrence: from the series 1, each of the m_i passes of a
    pole multiplies by 1/(1 - a z), that is s_j += a s_(j-1) for
    j = 1 .. count - 1.  The s_j are term maps over one exponent
    denominator, and a s_(j-1) is added into s_j in place, so a pole costs
    one unit value and m_i count products of one term by a term map, and
    the series makes one LaurentPoly per nonzero coefficient.

    >>> ser = _pole_series([((Fraction(0), MONO_ONE), 2)], 4, invert=False)
    >>> [str(ser[j]) for j in range(4)]
    ['1', '2', '3', '4']
    """
    units = [(unit_value(angle, mono, -1 if invert else 1), m) for (angle, mono), m in poles]
    den = math.lcm(1, *(a.exp_den for a, _m in units))
    ser = [{0: 1}] + [{} for _ in range(count - 1)]
    for a, m in units:
        a = tuple(_terms_over(a, den).items())
        for _ in range(m):
            for j in range(1, count):
                _mul_into(ser[j], a, ser[j - 1].items())
    return {j: LaurentPoly(c, den) for j, c in enumerate(ser) if c}


def _rho(num: dict, poles) -> LaurentPoly:
    """sum_k p_k residue_k(z^k / prod_i (1 - a_i z)^(m_i)) for num = {k: p_k}:
    sum_k p_k S_+[-k] - (-1)^M prod_i a_i^(-m_i) sum_k p_k S_-[k - M].

    Each dot product is added in place into one term map over the exponent
    denominator of the numerator and the poles, so it costs the term
    products of its pairs p_k S[j] and makes no LaurentPoly of its own.
    """
    total_m = sum(m for _p, m in poles)
    den = math.lcm(*(p.exp_den for p in num.values()), *(mono.den for (_a, mono), _m in poles))
    plus, minus = {}, {}
    top = -min(num)
    if top >= 0:
        ser = _pole_series(poles, top + 1, invert=False)
        for k, p in num.items():
            c = ser.get(-k)
            if c is not None:
                _mul_into(plus, _terms_over(p, den).items(), _terms_over(c, den).items())
    top = max(num) - total_m
    if top >= 0:
        ser = _pole_series(poles, top + 1, invert=True)
        for k, p in num.items():
            c = ser.get(k - total_m)
            if c is not None:
                _mul_into(minus, _terms_over(p, den).items(), _terms_over(c, den).items())
    out = LaurentPoly(plus, den)
    if minus:
        scale = LaurentPoly.scalar((-1) ** total_m)
        for (angle, mono), m in poles:
            scale = scale * unit_value(angle, mono, -m)
        out = out - LaurentPoly(minus, den) * scale
    return out


def residue_naive(f: RationalFunction):
    """-Res_{z=1}(z^-1 f(z) dz), read off the multiplicative expansion:
    with u = 1-z the value is the u^-1 coefficient of z^-1 f (the sign from
    dz = -du cancels against (z-1)^-1 = -u^-1).  With `depth` the pole's
    order, u^-1 is kept only when the numerator's valuation v0 at z=1 is
    below depth, which the first depth u-digits of the numerator show; a
    zero numerator, whose digits never turn nonzero, is answered there too.
    Otherwise the expansion keeps depth places from v0, so it is exact
    below u^v0 and reaches u^-1.

    Returns a LaurentPoly when polynomial in the characters, else the exact
    PolyFraction.

    >>> str(residue_naive(RationalFunction("z", LP_ONE, [(0, MONO_ONE, 2, 1)])))
    '1/2'
    >>> str(residue_naive(RationalFunction("z", LP_ONE, [(0, Monomial.var("t"), 1, 1)])))
    '0'
    """
    g = f.shift(-1)
    depth = g.unit_pole_depth()
    if depth == 0 or not any(islice(_u_digits(g.num.split_var(g.var)), depth)):
        return LP_ZERO
    c = _expand_raw(g, "one", depth)[0].get(-1)
    if c is None:
        return LP_ZERO
    p = c.as_poly()
    return p if p is not None else c


def residue_coh(f: LaurentPoly, var: str = "u") -> LaurentPoly:
    """Res_{u=0} f(u) du for f whose denominator is a power of u: the
    coefficient of u^-1 of the Laurent polynomial f."""
    return f.split_var(var).get(-1, LP_ZERO)


def local_residue_at_root(f: RationalFunction, angle: Fraction):
    """Res_{z=gamma}(z^-1 f dz) at gamma = root(angle); f may only have
    root-of-unity poles (trivial character parts).

    The rotation z -> gamma z leaves z^-1 dz unchanged, so the residue is
    Res_{z=1}(z^-1 f(gamma z) dz): the z^k coefficient p_k of the numerator
    becomes p_k gamma^k, and a factor 1 - root(a) z^n becomes
    1 - root(a + n angle) z^n.  In u = 1 - z (dz = -du) that residue is
    minus the u^-1 coefficient.  The D factors with a + n angle = 0 (mod 1),
    counted with multiplicity, vanish to first order at u = 0, so with d_j
    the u-digits of the rotated numerator and s_j those of the scalar series
    u^D / (z prod (1 - root(a + n angle) z^n)^e) the residue is
    -sum_(j < D) d_j s_(D-1-j).  A call costs D digits of series._u_digits,
    the D places of s (_reciprocal_digits: one scalar_inv) and the dot
    product; it builds no RationalFunction and no series.  D = 0 gives 0.

    >>> f = RationalFunction("z", LP_ONE, [(0, MONO_ONE, 2, 1)])
    >>> str(local_residue_at_root(f, Fraction(1, 2)))
    '-1/2'
    >>> g = RationalFunction("z", LP_ONE, [(0, MONO_ONE, 2, 2)])
    >>> str(local_residue_at_root(g, Fraction(1, 2)))
    '-1/2'
    """
    for (_a, m, _n), _e in f.den.items():
        if not m.is_one():
            raise ValueError("local residues are computed only at root-of-unity poles")
    rotated = [((a + n * angle) % 1, n, e) for (a, _m, n), e in f.den.items()]
    depth = sum(e for b, _n, e in rotated if not b)
    if depth == 0:
        return LP_ZERO
    step, order = angle.numerator, angle.denominator
    num = {k: p * root_of_unity(order, step * k) if step else p
           for k, p in f.num.split_var(f.var).items()}
    out = {}
    for d, s in zip(islice(_u_digits(num), depth), reversed(_reciprocal_digits(rotated, depth))):
        _mul_into(out, d.terms.items(), ((0, s),))
    # the digits share one exponent denominator
    return LaurentPoly({m: exact(-c) for m, c in out.items()}, d.exp_den)


def _reciprocal_digits(rotated, depth: int) -> list:
    """The first depth u-digits, all scalars, of
    u^D / (z prod (1 - root(b) z^n)^e) for rotated = [(b, n, e)], 0 <= b < 1,
    u = 1 - z and D the multiplicity of the factors with b = 0.  Such a
    factor is u times sum_(j >= 1) (-1)^(j+1) binom(n, j) u^(j-1), and
    another one is 1 - root(b) (1 - u)^n.  The product q of these digit
    lists with 1 - u, truncated to depth places, is inverted by the division
    recurrence s_i = -q_0^-1 sum_(1 <= j <= i) q_j s_(i-j) from s_0 = q_0^-1."""
    q = [1, -1][:depth]
    for b, n, e in rotated:
        signed = [(-1) ** (j + 1) * math.comb(n, j) for j in range(1, min(n, depth) + 1)]
        if b:
            c = root_of_unity(b.denominator, b.numerator)
            base = [1 - c] + [c * x for x in signed[:depth - 1]]
        else:
            base = signed
        for _ in range(e):
            prod = [0] * depth
            for i, x in enumerate(q):
                for k, y in enumerate(base[:depth - i], i):
                    prod[k] += x * y
            q = [exact(x) for x in prod]
    inv = scalar_inv(q[0])
    s = [inv]
    for i in range(1, depth):
        s.append(exact(-inv * sum(q[j] * s[i - j] for j in range(1, i + 1))))
    return s


def residue(f: RationalFunction, kind: ResidueKind = K_THEORY):
    if kind.tag == "ktheory":
        return residue_k(f)
    if kind.tag == "naive":
        return residue_naive(f)
    raise ValueError("the cohomological residue acts on Laurent data in u; use residue_coh")


def constraint_suite(kind: ResidueKind, n_max: int, k_max: int):
    """Evaluate rho(z^(nk+a)/(1 - z^n)^(k+1)) for n <= n_max, k <= k_max,
    0 <= a < n against the normalization forced by quasi-unipotent line
    bundles: 1 when k = a = 0, else 0.

    Returns a list of (n, k, a, value, expected, passed).
    """
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be at least 1")
    if kind.tag == "cohomological":
        raise ValueError("constraint family is not in the cohomological residue's domain")
    rows = []
    for n in range(1, n_max + 1):
        for k in range(0, k_max + 1):
            for a in range(0, n):
                f = RationalFunction("z", LaurentPoly.var("z", n * k + a),
                                     [(0, MONO_ONE, n, k + 1)])
                value = residue(f, kind)
                expected = LaurentPoly.scalar(1 if (k == 0 and a == 0) else 0)
                if isinstance(value, PolyFraction):
                    passed = value == PolyFraction.of(expected)
                else:
                    passed = value == expected
                rows.append((n, k, a, value, expected, passed))
    return rows


# -- diagonal expansions of f(z/w) ------------------------------------------------


# the w of the w-side sum: no parsed character has this name, and the
# characters passed in are checked for it
_W = "w'"


def diagonal_w_side_residue(a_pow: int, s: Monomial, n: int, pivots, w_order: int) -> dict:
    """rho_{K,z} applied term-by-term to the w-directed expansion of f(z/w),
    f = z^a/(1 - s z)^n, one pivot per factor, truncated at k < w_order.

    Each factor 1/(1 - s z w^-1) expands with pivot p as
    sum_k (-p z)^k/(1 - p z)^(k+1) (1 - (s/p) w^-1)^k; the prefactor
    contributes z^a w^-a.  Returns {j: LaurentPoly} for the (1-w)^j
    coefficients of the residue, j < w_order.

    The residue of z^(a+|k|) / prod_t (1 - p_t z)^(k_t+1) vanishes when
    0 < a + |k| < |k| + n, so for a < n only the k-vectors with |k| <= -a
    are visited: slot t runs over k_t <= -a - (k_0 + ... + k_(t-1)).

    The k-vectors are summed exactly in w, by Horner in the pivot factors:
    acc -> acc (1 - c_t w^-1) + child with c_t = s/p_t, one product with a
    two-term polynomial per step.  The sum times w^-a moves to u = 1 - w
    once, keeping j < w_order; truncation mod u^w_order is a ring map, so
    this equals the sum of the truncated w-series of every k-vector.

    With the pivot s the sum is exactly rho_K(z/(1 - s z)) = s^-1:

    >>> s = Monomial.var("s")
    >>> {j: str(c) for j, c in diagonal_w_side_residue(1, s, 1, [s], 3).items()}
    {0: 's^-1'}
    """
    if len(pivots) != n:
        raise ValueError("one pivot per denominator factor is required")
    if any(_W in m.variables() for m in (s, *pivots)):
        raise ValueError(f"the characters may not use the variable {_W!r}")

    zero_angle = Fraction(0)
    w_inv = Monomial.var(_W, -1)
    factors = [LP_ONE - LaurentPoly.term(1, s * p.inv() * w_inv) for p in pivots]

    def coefficient(kvec) -> LaurentPoly:
        # the z-residue times (-1)^|k| prod_t p_t^k_t; usually zero, so
        # the pole list is built only when the residue can be nonzero
        total_k = sum(kvec)
        A = a_pow + total_k
        if 0 < A < total_k + n:
            return LP_ZERO
        zres = rho_simple_product(A, [((zero_angle, p), k + 1) for p, k in zip(pivots, kvec)])
        if zres.is_zero():
            return zres
        mono = MONO_ONE
        for p, k in zip(pivots, kvec):
            mono = mono * p ** k
        return zres * LaurentPoly.term(-1 if total_k % 2 else 1, mono)

    def horner(kvec) -> LaurentPoly:
        # sum over the k-vectors extending kvec of coefficient(k) times
        # prod_{t >= len(kvec)} (1 - c_t w^-1)^k_t, by Horner in each factor
        t = len(kvec)
        if t == n:
            return coefficient(kvec)
        # for a_pow < n only a_pow + |k| <= 0 can give a nonzero residue, so
        # k_t stops at -a_pow - sum(kvec); a larger one fails 0 < A < |k| + n
        top = w_order if a_pow >= n else min(w_order, 1 - a_pow - sum(kvec))
        acc = LP_ZERO
        for k in reversed(range(top)):
            acc = acc * factors[t] + horner(kvec + [k])
        return acc

    wpows = {e - a_pow: c for e, c in horner([]).split_var(_W).items()}
    return {j: c for j, c in enumerate(islice(_u_digits(wpows), w_order)) if c}


def diagonal_z_side_residues(a_pow: int, s: Monomial, n: int, pivots, order: int) -> list:
    """rho_{K,z} of sample terms of the z-directed expansion of f(z/w): those
    z-parts are Laurent polynomials z^a prod_i (1 - (s/q_i) z)^(k_i), so each
    residue is exactly zero.  Equal pivots are grouped, so a pivot q of
    multiplicity m gives one binomial power (1 - (s/q) z)^(m k).  Returns
    the list of computed residues.

    >>> s = Monomial.var("s")
    >>> [str(r) for r in diagonal_z_side_residues(1, s, 2, [s, s], 3)]
    ['0', '0', '0']
    """
    if len(pivots) != n:
        raise ValueError("one pivot per denominator factor is required")
    z = Monomial.var("z")
    bases = [(LP_ONE - LaurentPoly.term(1, (s * q.inv()) * z), m)
             for q, m in Counter(pivots).items()]
    residues = []
    for k in range(order):
        poly = LaurentPoly.var("z", a_pow)
        for base, m in bases:
            poly = poly * base ** (m * k)
        residues.append(residue_k(RationalFunction.from_poly(poly, "z")))
    return residues


def iadic_valuation_at_least(p: LaurentPoly, m: int) -> bool:
    """True when p lies in I^m, I = (1 - v : v a character variable), decided
    by substituting v -> 1 - y_v and expanding below total y-degree m."""
    if p.is_zero() or m <= 0:
        return True
    acc: dict = {}
    for mono, c in zip(p.monomials(), p.terms.values()):
        # prod_v (1 - y_v)^e_v below total degree m, as {packed y-exponents
        # (y_v in the field of v): (total degree, coefficient)}
        term = {0: (0, c)}
        for v, e in mono.items():
            if not isinstance(e, int):
                raise ValueError("integer character exponents required")
            y = Monomial.var(v).key
            pw = [generalized_binomial(e, j) * (-1) ** j for j in range(m)]
            term = {key + j * y: (deg + j, ck * pw[j])
                    for key, (deg, ck) in term.items() for j in range(m - deg) if pw[j]}
        for key, (_deg, ck) in term.items():
            _acc(acc, key, ck)
    return not acc
