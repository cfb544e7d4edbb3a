"""Multivariate Laurent monomials and polynomials with exact coefficients.

A Monomial is a canonical sorted tuple of (variable, exponent) pairs;
exponents are ints or Fractions (fractional exponents model characters
pulled back along an N-fold cover).  A LaurentPoly maps monomials to
nonzero exact coefficients: int, Fraction or Cyclo (see scalars).  The
constructors and the scalar product demote integral Fractions to int, so
integer-coefficient polynomials compute with ints only; the kernels below
do no demotion of their own.  PolyFraction is the fraction field, needed
for partial-fraction coefficients such as 1/(1 - t).

The inner loops of the arithmetic are the term-map kernels below
(_mono_mul, _terms_add, _terms_mul, _terms_scale, _terms_rename): plain
Python functions on the raw exponent tuples and {tuple: coefficient} dicts
that LaurentPoly wraps.

All values are immutable after construction; every operation is pure.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .scalars import RATIONAL, Cyclo, exact, scalar_inv, scalar_str


# -- term-map kernels ------------------------------------------------------


def _mono_mul(a, b):
    """Merge two sorted exponent tuples, adding exponents, dropping zeros."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = 0
    j = 0
    na = len(a)
    nb = len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    while i < na:
        out.append(a[i])
        i += 1
    while j < nb:
        out.append(b[j])
        j += 1
    return tuple(out)


def _terms_add(A, B):
    """Sum of two term maps; never mutates its arguments."""
    if not A:
        return dict(B)
    if not B:
        return dict(A)
    out = dict(A)
    for m, c in B.items():
        acc = out.get(m)
        if acc is None:
            out[m] = c
        else:
            acc = acc + c
            if acc:
                out[m] = acc
            else:
                del out[m]
    return out


def _terms_mul(A, B):
    """Distributive product of two term maps."""
    if not A or not B:
        return {}
    out = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            m = _mono_mul(ma, mb)
            c = ca * cb
            acc = out.get(m)
            if acc is None:
                if c:
                    out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return out


def _terms_scale(A, c):
    """Multiply every coefficient by the scalar c."""
    if not c:
        return {}
    return {m: cc for m, cc in ((m, c * c0) for m, c0 in A.items()) if cc}


def _terms_rename(A, ren):
    """Rename variables via the map ren (missing names pass through).

    Renaming can merge or reorder variables, so monomial keys are rebuilt
    and collisions are accumulated.
    """
    out = {}
    for m, c in A.items():
        if m:
            acc = {}
            for v, e in m:
                v2 = ren.get(v, v)
                e0 = acc.get(v2)
                acc[v2] = e if e0 is None else e0 + e
            m2 = tuple(sorted((v, e) for v, e in acc.items() if e))
        else:
            m2 = m
        prev = out.get(m2)
        if prev is None:
            out[m2] = c
        else:
            prev = prev + c
            if prev:
                out[m2] = prev
            else:
                del out[m2]
    return out


def _ex(e):
    """Normalize an exponent: plain int when integral."""
    if isinstance(e, int):
        return e
    e = Fraction(e)
    return e.numerator if e.denominator == 1 else e


class Monomial(tuple):
    """Product of variable powers; the empty tuple is the unit.

    >>> Monomial.var("s") * Monomial.var("t", -1)
    Monomial s*t^-1
    """

    __slots__ = ()

    @staticmethod
    def make(exps: dict) -> "Monomial":
        return Monomial(sorted((v, _ex(e)) for v, e in exps.items() if e))

    @staticmethod
    def var(name: str, exp=1) -> "Monomial":
        e = _ex(exp)
        return Monomial(((name, e),)) if e else MONO_ONE

    def __mul__(self, other):
        return Monomial(_mono_mul(self, other))

    def __pow__(self, k):
        k = _ex(k)
        if not k:
            return MONO_ONE
        return Monomial((v, _ex(e * k)) for v, e in self)

    def inv(self) -> "Monomial":
        return Monomial((v, -e) for v, e in self)

    def exponent(self, name: str):
        for v, e in self:
            if v == name:
                return e
        return 0

    def variables(self):
        return [v for v, _ in self]

    def degree_on(self, names):
        """Total exponent over the given variable set."""
        return sum(e for v, e in self if v in names)

    def is_one(self) -> bool:
        return not self

    def __str__(self):
        if not self:
            return "1"
        parts = []
        for v, e in self:
            if e == 1:
                parts.append(v)
            elif e.denominator == 1:
                # an int, or an integral Fraction that _mono_mul left as a sum
                parts.append(f"{v}^{e.numerator}")
            else:
                parts.append(f"{v}^({e})")
        return "*".join(parts)

    def __repr__(self):
        return f"Monomial {self}"


MONO_ONE = Monomial(())


class LaurentPoly:
    """Finite sum of monomials with exact nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        # terms: {raw exponent tuple or Monomial: coeff}; owned by this object
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def scalar(c) -> "LaurentPoly":
        c = exact(c)
        return LaurentPoly({MONO_ONE: c} if c else {})

    @staticmethod
    def var(name: str, exp=1) -> "LaurentPoly":
        return LaurentPoly({Monomial.var(name, exp): 1})

    @staticmethod
    def term(c, mono: Monomial) -> "LaurentPoly":
        c = exact(c)
        return LaurentPoly({Monomial(mono): c} if c else {})

    @staticmethod
    def from_terms(pairs) -> "LaurentPoly":
        out: dict = {}
        for mono, c in pairs:
            c = exact(c)
            if not c:
                continue
            key = Monomial(mono)
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return LaurentPoly(out)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (RATIONAL, Cyclo)):
            return LaurentPoly.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly(_terms_add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (RATIONAL, Cyclo)):
            return LaurentPoly(_terms_scale(self.terms, exact(other)))
        if isinstance(other, LaurentPoly):
            return LaurentPoly(_terms_mul(self.terms, other.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if len(self.terms) == 1:
                (m, c), = self.terms.items()
                return LaurentPoly.term(scalar_inv(c), Monomial(m).inv()) ** (-k)
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        out = LaurentPoly.scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.terms) != len(o.terms):
            return False
        for m, c in self.terms.items():
            c2 = o.terms.get(m)
            if c2 is None or not (c == c2):
                return False
        return True

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure --------------------------------------------------------

    def monomials(self):
        return [Monomial(m) for m in self.terms]

    def coefficient(self, mono: Monomial):
        return self.terms.get(Monomial(mono), 0)

    def constant(self):
        return self.terms.get(MONO_ONE, 0)

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def is_scalar(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def as_unit(self):
        """Return (coeff, Monomial) when this is a single term, else None."""
        if len(self.terms) != 1:
            return None
        (m, c), = self.terms.items()
        return c, Monomial(m)

    def rename(self, ren: dict) -> "LaurentPoly":
        return LaurentPoly(_terms_rename(self.terms, ren))

    def subs_mono(self, name: str, value: Monomial, coeff=None) -> "LaurentPoly":
        """Substitute a variable by coeff*value (value a monomial)."""
        out: dict = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for v, ee in m:
                if v == name:
                    e = ee
                else:
                    rest.append((v, ee))
            if e:
                if not isinstance(e, int):
                    raise ValueError(f"non-integer exponent of {name} in substitution")
                m2 = _mono_mul(tuple(rest), value ** e)
                c2 = c * (coeff ** e) if coeff is not None else c
            else:
                m2, c2 = tuple(rest), c
            if not c2:
                continue
            acc = out.get(m2)
            if acc is None:
                out[m2] = c2
            else:
                acc = acc + c2
                if acc:
                    out[m2] = acc
                else:
                    del out[m2]
        return LaurentPoly(out)

    def attach_degree(self, blockvars, name: str, sign: int = 1) -> "LaurentPoly":
        """Multiply each term by name^(sign * total degree in blockvars)."""
        bs = set(blockvars)
        out: dict = {}
        for m, c in self.terms.items():
            d = sum(e for v, e in m if v in bs)
            m2 = _mono_mul(m, Monomial.var(name, sign * d)) if d else m
            acc = out.get(m2)
            if acc is None:
                out[m2] = c
            else:
                acc = acc + c
                if acc:
                    out[m2] = acc
                else:
                    del out[m2]
        return LaurentPoly(out)

    def split_var(self, name: str) -> dict:
        """Decompose as sum_k name^k * residual; keys are integer exponents."""
        out: dict = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for v, ee in m:
                if v == name:
                    e = ee
                else:
                    rest.append((v, ee))
            if not isinstance(e, int):
                raise ValueError(f"non-integer exponent of {name}")
            bucket = out.setdefault(e, {})
            key = tuple(rest)
            acc = bucket.get(key)
            if acc is None:
                bucket[key] = c
            else:
                acc = acc + c
                if acc:
                    bucket[key] = acc
                else:
                    del bucket[key]
        return {k: LaurentPoly(v) for k, v in out.items() if v}

    # -- display -----------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self._sorted_terms():
            mono = Monomial(m)
            cs = scalar_str(c)
            if mono.is_one():
                parts.append(cs)
            elif c == 1:
                parts.append(str(mono))
            elif c == -1:
                parts.append("-" + str(mono))
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"<LaurentPoly {self}>"


def _mono_sort_key(m):
    # deterministic order: by variable names then exponents (as Fractions)
    return tuple((v, Fraction(e)) for v, e in m)


LP_ONE = LaurentPoly.scalar(1)
LP_ZERO = LaurentPoly.zero()


# -- exact division ------------------------------------------------------


def laurent_exact_div(f: LaurentPoly, g: LaurentPoly):
    """Return f/g as a LaurentPoly if g divides f exactly, else None.

    Works over the fraction field coefficients (Fraction or Cyclo) by
    rescaling fractional exponents to integers, shifting to ordinary
    polynomials and running single-divisor lex division.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return LP_ZERO
    unit = g.as_unit()
    if unit is not None:
        c, m = unit
        ci = scalar_inv(c)
        mi = m.inv()
        return LaurentPoly.from_terms((Monomial(_mono_mul(mm, mi)), cc * ci)
                                      for mm, cc in f.terms.items())
    vs = sorted(f.variables() | g.variables())
    D = 1
    for p in (f, g):
        for m in p.terms:
            for _, e in m:
                if not isinstance(e, int):
                    D = math.lcm(D, e.denominator)

    def vecs(p):
        out = {}
        for m, c in p.terms.items():
            key = [0] * len(vs)
            for v, e in m:
                key[vs.index(v)] = int(e * D)
            out[tuple(key)] = c
        return out

    F, G = vecs(f), vecs(g)
    fshift = [min(k[i] for k in F) for i in range(len(vs))]
    gshift = [min(k[i] for k in G) for i in range(len(vs))]
    F = {tuple(a - b for a, b in zip(k, fshift)): c for k, c in F.items()}
    G = {tuple(a - b for a, b in zip(k, gshift)): c for k, c in G.items()}
    ltg = max(G)
    cg = G[ltg]
    Q: dict = {}
    while F:
        ltf = max(F)
        if any(a < b for a, b in zip(ltf, ltg)):
            return None
        qm = tuple(a - b for a, b in zip(ltf, ltg))
        qc = F[ltf] * scalar_inv(cg)
        Q[qm] = qc
        for gm, gc in G.items():
            key = tuple(a + b for a, b in zip(qm, gm))
            acc = F.get(key)
            sub = qc * gc
            if acc is None:
                F[key] = -sub
            else:
                acc = acc - sub
                if acc:
                    F[key] = acc
                else:
                    del F[key]
    shift = [a - b for a, b in zip(fshift, gshift)]
    out = {}
    for k, c in Q.items():
        mono = Monomial.make({v: Fraction(k[i] + shift[i], D) for i, v in enumerate(vs)})
        out[mono] = c
    return LaurentPoly(out)


class PolyFraction:
    """Exact ratio of Laurent polynomials (no gcd reduction attempted).

    Equality is decided by cross-multiplication; normalization divides out
    single-term content and fixes the denominator's leading coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LP_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        unit = den.as_unit()
        if unit is not None and not (unit[0] == 1 and unit[1].is_one()):
            c, m = unit
            ci = scalar_inv(c)
            mi = m.inv()
            num = LaurentPoly.from_terms((Monomial(_mono_mul(mm, mi)), cc * ci)
                                         for mm, cc in num.terms.items())
            den = LP_ONE
        elif len(den.terms) > 1:
            low = min(den.terms, key=_mono_sort_key)
            c = den.terms[low]
            if not (c == 1):
                ci = scalar_inv(c)
                num = num * ci
                den = den * ci
        self.num = num
        self.den = den

    @staticmethod
    def of(x) -> "PolyFraction":
        if isinstance(x, PolyFraction):
            return x
        if isinstance(x, LaurentPoly):
            return PolyFraction(x)
        return PolyFraction(LaurentPoly.scalar(x))

    def __add__(self, other):
        o = PolyFraction.of(other)
        if self.den == o.den:
            return PolyFraction(self.num + o.num, self.den)
        return PolyFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-PolyFraction.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = PolyFraction.of(other)
        return PolyFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = PolyFraction.of(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return PolyFraction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return PolyFraction.of(other) / self

    def inv(self) -> "PolyFraction":
        return PolyFraction(self.den, self.num)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return PolyFraction(self.num ** k, self.den ** k)

    def __eq__(self, other):
        o = PolyFraction.of(other) if isinstance(other, (PolyFraction, LaurentPoly, RATIONAL, Cyclo)) else None
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    __hash__ = None

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self):
        """Exact LaurentPoly value, or None when the denominator survives."""
        if self.den == LP_ONE:
            return self.num
        return laurent_exact_div(self.num, self.den)

    def simplified(self) -> "PolyFraction":
        p = self.as_poly()
        return PolyFraction(p) if p is not None else self

    def __str__(self):
        if self.den == LP_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<PolyFraction {self}>"


# -- symmetric group actions ----------------------------------------------


def distinct_permutations(seq):
    """All distinct orderings of seq (handles repeated entries)."""
    seq = sorted(seq, key=lambda x: (str(type(x)), str(x)))
    n = len(seq)
    if n == 0:
        yield ()
        return

    def rec(rest):
        if not rest:
            yield ()
            return
        seen = []
        for i, x in enumerate(rest):
            if any(x == s for s in seen):
                continue
            seen.append(x)
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield (x,) + tail

    yield from rec(tuple(seq))


def symmetrize(p: LaurentPoly, blocks, normalization: str = "orbit_sum") -> LaurentPoly:
    """Sum of p over the product of symmetric groups permuting each block.

    orbit_sum is the full group sum (|S_b1| x |S_b2| x ... terms, counted
    with stabilizers so only distinct images are enumerated); averaged
    divides by the group order and is idempotent.

    >>> p = LaurentPoly.var("s1")
    >>> str(symmetrize(p, [["s1", "s2"]]))
    's1 + s2'
    """
    if normalization not in ("orbit_sum", "averaged"):
        raise ValueError(f"unknown normalization {normalization!r}")
    seen: set = set()
    for block in blocks:
        for v in block:
            if v in seen:
                raise ValueError(f"variable {v!r} appears in more than one block")
            seen.add(v)
    result = p
    group_order = 1
    for block in blocks:
        block = list(block)
        group_order *= math.factorial(len(block))
        out: dict = {}
        for m, c in result.terms.items():
            exps = [0] * len(block)
            rest = []
            for v, e in m:
                if v in block:
                    exps[block.index(v)] = e
                else:
                    rest.append((v, e))
            rest = tuple(rest)
            images = list(distinct_permutations(exps))
            stab = math.factorial(len(block)) // len(images)
            cc = c * stab
            for img in images:
                mono = Monomial(sorted(rest + tuple((v, e) for v, e in zip(block, img) if e)))
                acc = out.get(mono)
                if acc is None:
                    out[mono] = cc
                else:
                    acc = acc + cc
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        result = LaurentPoly(out)
    if normalization == "averaged":
        result = result * Fraction(1, group_order)
    return result

