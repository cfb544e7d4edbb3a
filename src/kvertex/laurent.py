"""Multivariate Laurent monomials and polynomials with exact coefficients.

A monomial is one Python int, its key.  Each variable name gets a slot in
a process-wide registry when first seen, and the key holds the exponent
of the variable in slot i as a signed 32-bit field: key = sum_i e_i 2^(32 i).
The packing is linear, so a monomial product is the sum of two keys, the
unit is 0 and a renaming moves fields between slots.  Keys are meaningful
only in the process whose registry made them.

Fractional exponents use one scheme: a LaurentPoly has an exponent
denominator exp_den (1 when integral, n for a cover root t^(1/n)) and its
keys hold the exponents times exp_den.  Values with different
denominators are lifted to the lcm by multiplying their keys by one
integer.  A Monomial is the typed view (key, den) of a key with den
reduced, so t^(1/2) * t^(1/2) is t.  Overflow is never silent: stored
fields lie in [-2^30, 2^30), so the sum of two keys is exact and one bit
test shows a field that left the range; then OverflowError is raised
(exit code 1 in the CLI).  MAX_EXPONENT = 2^30 - 1 counts units of 1/exp_den.

Coefficients are nonzero exact scalars (int, Fraction or Cyclo); the
constructors and the scalar product (_terms_scale) demote integral
Fractions to int, the other kernels do no demotion of their own.
PolyFraction is the fraction field.  All values are immutable; every
operation is pure.

>>> s, t = Monomial.var("s"), Monomial.var("t")
>>> (s * s * t.inv()).key == 2 * s.key - t.key
True
>>> half = LaurentPoly.var("t", Fraction(1, 2))
>>> half.exp_den, half.terms == {t.key: 1}, str(half * half)
(2, True, 't')
>>> LaurentPoly.var("t", MAX_EXPONENT) * LaurentPoly.var("t")
Traceback (most recent call last):
  ...
OverflowError: exponent out of range: exponents times their denominator must lie in [-2^30, 2^30)
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .scalars import RATIONAL, Cyclo, exact, scalar_inv, scalar_pow, scalar_str, signed_sum


# -- the variable registry and the packed keys -------------------------------

_W = 32                     # bits per exponent field
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)
_Q = 1 << (_W - 2)          # stored fields lie in [-_Q, _Q)
MAX_EXPONENT = _Q - 1

_SHIFT: dict = {}           # variable name -> bit offset of its field (32 * slot)
_NAMES: list = []           # slot index -> variable name
# _HALF and _Q in every registered field.  key + _HALVES has the fields
# e + 2^31 in [0, 2^32), each read off by a shift and a mask.  For an exact
# sum of stored keys, key + _QUARTERS has a bit 31 set iff a field left [-_Q, _Q).
_HALVES = 0
_QUARTERS = 0


def _shift(name: str) -> int:
    """The bit offset of the field of `name`, registering the name."""
    global _HALVES, _QUARTERS
    s = _SHIFT.get(name)
    if s is None:
        s = _SHIFT[name] = _W * len(_NAMES)
        _NAMES.append(name)
        _HALVES += _HALF << s
        _QUARTERS += _Q << s
    return s


def _overflow() -> OverflowError:
    return OverflowError("exponent out of range: exponents times their "
                         "denominator must lie in [-2^30, 2^30)")


def _field(e) -> int:
    """A field value (an integral int or Fraction), range-checked."""
    e = int(e)
    if not -_Q <= e < _Q:
        raise _overflow()
    return e


def _check_keys(keys):
    """Raise OverflowError when a field of these keys, exact sums of stored
    keys, has left [-_Q, _Q)."""
    q = _QUARTERS
    acc = 0
    for m in keys:
        acc |= m + q
    if acc & _HALVES:
        raise _overflow()


def _fields(key):
    """[(slot index, field)] of the nonzero fields of a key."""
    out = []
    i = 0
    while key:
        e = ((key + _HALF) & _MASK) - _HALF
        if e:
            out.append((i, e))
            key -= e
        key >>= _W
        i += 1
    return out


def _scaled(key, f: int) -> int:
    """The key with every field multiplied by f, range-checked."""
    if f == 1:
        return key
    for _, e in _fields(key):
        if not -_Q <= e * f < _Q:
            raise _overflow()
    return key * f


def _terms_over(p: "LaurentPoly", d: int) -> dict:
    """The term map of p over the exponent denominator d, a multiple of
    p.exp_den; p's own map when d is its denominator."""
    if p.exp_den == d:
        return p.terms
    f = d // p.exp_den
    return {_scaled(m, f): c for m, c in p.terms.items()}


def _common(p: "LaurentPoly", q: "LaurentPoly"):
    """The term maps of p and q over the lcm d of their exponent denominators."""
    if p.exp_den == q.exp_den:
        return p.terms, q.terms, p.exp_den
    d = math.lcm(p.exp_den, q.exp_den)
    return _terms_over(p, d), _terms_over(q, d), d


def _exponent(e: int, den: int):
    """The exponent of a field over den: an int when integral."""
    if den == 1 or not e % den:
        return e // den
    return Fraction(e, den)


@functools.lru_cache(maxsize=4096)
def _pairs(key, den) -> tuple:
    """The sorted (name, exponent) pairs of a key: the display order."""
    return tuple(sorted((_NAMES[i], _exponent(e, den)) for i, e in _fields(key)))


def _mono_text(pairs) -> str:
    if not pairs:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" if type(e) is int else f"{v}^({e})"
                    for v, e in pairs)


# -- term-map kernels ------------------------------------------------------


def _acc(out: dict, m, c):
    """out[m] += c, dropping a zero sum."""
    acc = out.get(m)
    if acc is None:
        out[m] = c
    else:
        acc = acc + c
        if acc:
            out[m] = acc
        else:
            del out[m]


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
    """Distributive product of two term maps: a monomial product is the sum
    of two keys."""
    out = {}
    if A and B:
        _mul_into(out, A.items(), B.items())
    return out


def _mul_into(out: dict, A, B):
    """Add the products of the (key, coeff) pairs of A and B into the term
    map out.  The pairs' keys must be stored keys, so each sum is exact;
    every key the products add is range-checked."""
    q = _QUARTERS
    chk = 0
    for ma, ca in A:
        for mb, cb in B:
            m = ma + mb
            c = ca * cb
            acc = out.get(m)
            if acc is None:
                if c:
                    out[m] = c
                    chk |= m + q
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    if chk & _HALVES:
        raise _overflow()


def _terms_scale(A, c):
    """Multiply every coefficient by the scalar c.  A Fraction factor on
    either side can make an integral product; it is stored as an int."""
    if not c:
        return {}
    out = {}
    for m, c0 in A.items():
        cc = c * c0
        if cc:
            out[m] = cc.numerator if type(cc) is Fraction and cc.denominator == 1 else cc
    return out


def _rename_key(key, ren: dict) -> int:
    """One key with its variables renamed; renamed fields add up."""
    exps: dict = {}
    for i, e in _fields(key):
        v = ren.get(_NAMES[i], _NAMES[i])
        exps[v] = exps.get(v, 0) + e
    return sum(_field(e) << _shift(v) for v, e in exps.items())


def _terms_rename(A, ren: dict):
    """Rename variables via the map ren (missing names pass through).

    Fields move to their new slots and add up.  When no two renamed names
    share a target, at most two fields meet, the result is exact and one
    range check suffices; otherwise each key is decoded and checked.
    """
    moves = []
    for v, w in ren.items():
        s = _SHIFT.get(v)
        if s is not None and v != w:
            d = _SHIFT.get(w)
            moves.append((s, _shift(w) if d is None else d))
    if not moves:
        return dict(A)
    out: dict = {}
    if len({d for _, d in moves}) < len(moves):
        for m, c in A.items():
            _acc(out, _rename_key(m, ren), c)
        return out
    h = _HALVES
    for m, c in A.items():
        u = m + h
        for s, d in moves:
            e = ((u >> s) & _MASK) - _HALF
            if e:
                m += (e << d) - (e << s)
        _acc(out, m, c)
    _check_keys(out)
    return out


# -- monomials ---------------------------------------------------------------


def _mono(key: int, den: int) -> "Monomial":
    """The Monomial of a key over den, with den reduced."""
    if den != 1:
        g = math.gcd(den, *(e for _, e in _fields(key)))
        key, den = key // g, den // g
    m = object.__new__(Monomial)
    m.key, m.den = key, den
    return m


@functools.total_ordering
class Monomial:
    """Product of variable powers, built from (name, exponent) pairs: a view
    of one packed key over its reduced exponent denominator den.

    >>> Monomial.var("s") * Monomial.var("t", -1)
    Monomial s*t^-1
    """

    __slots__ = ("key", "den")

    def __init__(self, pairs=()):
        m = Monomial.make(dict(pairs))
        self.key, self.den = m.key, m.den

    @staticmethod
    def make(exps: dict) -> "Monomial":
        exps = {v: e if type(e) is int else Fraction(e) for v, e in exps.items() if e}
        den = math.lcm(1, *(e.denominator for e in exps.values()))
        return _mono(sum(_field(e * den) << _shift(v) for v, e in exps.items()), den)

    @staticmethod
    def var(name: str, exp=1) -> "Monomial":
        if type(exp) is int:
            return _mono(_field(exp) << _shift(name), 1)
        return Monomial.make({name: exp})

    def __mul__(self, other):
        if self.den == other.den:
            key, d = self.key + other.key, self.den
        else:
            d = math.lcm(self.den, other.den)
            key = _scaled(self.key, d // self.den) + _scaled(other.key, d // other.den)
        _check_keys((key,))
        return _mono(key, d)

    def __pow__(self, k):
        if type(k) is int:
            return _mono(_scaled(self.key, k), self.den)
        k = Fraction(k)
        return _mono(_scaled(self.key, k.numerator), self.den * k.denominator)

    def inv(self) -> "Monomial":
        _check_keys((-self.key,))
        return _mono(-self.key, self.den)

    def exponent(self, name: str):
        s = _SHIFT.get(name)
        if s is None:
            return 0
        return _exponent((((self.key + _HALVES) >> s) & _MASK) - _HALF, self.den)

    def items(self) -> tuple:
        """The sorted (name, exponent) pairs."""
        return _pairs(self.key, self.den)

    def variables(self):
        return [v for v, _ in self.items()]

    def rename(self, ren: dict) -> "Monomial":
        return _mono(_rename_key(self.key, ren), self.den)

    def is_one(self) -> bool:
        return not self.key

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.key == other.key and self.den == other.den

    def __lt__(self, other):
        return self.items() < other.items()

    def __hash__(self):
        return hash((self.key, self.den))

    def __str__(self):
        return _mono_text(self.items())

    def __repr__(self):
        return f"Monomial {self}"


MONO_ONE = _mono(0, 1)


class LaurentPoly:
    """Finite sum of monomials with exact nonzero coefficients: terms maps
    packed keys over the exponent denominator exp_den to coefficients."""

    __slots__ = ("terms", "exp_den")

    def __init__(self, terms: dict, exp_den: int = 1):
        # terms: {packed key: coeff}; owned by this object
        self.terms = terms
        self.exp_den = exp_den

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def scalar(c) -> "LaurentPoly":
        c = exact(c)
        return LaurentPoly({0: c} if c else {})

    @staticmethod
    def var(name: str, exp=1) -> "LaurentPoly":
        return LaurentPoly.term(1, Monomial.var(name, exp))

    @staticmethod
    def term(c, mono: Monomial) -> "LaurentPoly":
        c = exact(c)
        return LaurentPoly({mono.key: c} if c else {}, mono.den)

    @staticmethod
    def from_terms(pairs) -> "LaurentPoly":
        pairs = [(mono, exact(c)) for mono, c in pairs]
        d = math.lcm(1, *(mono.den for mono, _ in pairs))
        out: dict = {}
        for mono, c in pairs:
            if c:
                _acc(out, _scaled(mono.key, d // mono.den), c)
        return LaurentPoly(out, d)

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
        if self.exp_den == o.exp_den:
            return LaurentPoly(_terms_add(self.terms, o.terms), self.exp_den)
        A, B, d = _common(self, o)
        return LaurentPoly(_terms_add(A, B), d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()}, self.exp_den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.exp_den == other.exp_den:
                return LaurentPoly(_terms_mul(self.terms, other.terms), self.exp_den)
            A, B, d = _common(self, other)
            return LaurentPoly(_terms_mul(A, B), d)
        if isinstance(other, (RATIONAL, Cyclo)):
            return LaurentPoly(_terms_scale(self.terms, exact(other)), self.exp_den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self^k: a monomial power for one term; for two terms x + y the
        binomial theorem, sum_j binom(k, j) x^j y^(k - j) with no product of
        term maps; else repeated squaring.  The coefficients have the value
        and type that repeated squaring gives them.

        >>> str((1 - LaurentPoly.var("z")) ** 3)
        '1 - 3*z + 3*z^2 - z^3'
        """
        unit = self.as_unit()
        if unit is not None:
            return LaurentPoly.term(scalar_pow(unit[0], k), unit[1] ** k)
        if k < 0:
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        if k == 0:
            return LaurentPoly.scalar(1)
        if len(self.terms) == 2:
            return self._binomial_pow(k)
        # bit_length(k) - 1 squarings and popcount(k) - 1 other products:
        # no square after the top bit, no product with the scalar 1
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def _binomial_pow(self, k: int) -> "LaurentPoly":
        """(x + y)^k for the two terms x, y and k >= 1.  The keys
        j mx + (k - j) my are distinct and their fields linear in j, so only
        the extreme keys k mx and k my are range-checked."""
        (mx, cx), (my, cy) = self.terms.items()
        _scaled(mx, k)
        key = _scaled(my, k)
        px, py = [cx], [cy]         # cx^(i + 1), cy^(i + 1)
        for _ in range(k - 1):
            px.append(px[-1] * cx)
            py.append(py[-1] * cy)
        out = {key: py[-1]}
        binom = 1
        for j in range(1, k):
            binom = binom * (k - j + 1) // j
            key += mx - my
            out[key] = binom * px[j - 1] * py[k - j - 1]
        out[key + mx - my] = px[-1]
        return LaurentPoly(out, self.exp_den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A, B = self.terms, o.terms
        if len(A) != len(B):
            return False
        if self.exp_den != o.exp_den:
            A, B, _ = _common(self, o)
        for m, c in A.items():
            c2 = B.get(m)
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
        """The Monomial of every term, in the order of terms."""
        return [_mono(m, self.exp_den) for m in self.terms]

    def coefficient(self, mono: Monomial):
        d = self.exp_den
        if d % mono.den:
            return 0
        return self.terms.get(_scaled(mono.key, d // mono.den), 0)

    def constant(self):
        return self.terms.get(0, 0)

    def variables(self) -> set:
        return {_NAMES[i] for m in self.terms for i, _ in _fields(m)}

    def is_scalar(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def as_unit(self):
        """Return (coeff, Monomial) when this is a single term, else None."""
        if len(self.terms) != 1:
            return None
        (m, c), = self.terms.items()
        return c, _mono(m, self.exp_den)

    def rename(self, ren: dict) -> "LaurentPoly":
        return LaurentPoly(_terms_rename(self.terms, ren), self.exp_den)

    def conjugate(self, k: int) -> "LaurentPoly":
        """The Galois conjugate zeta -> zeta^k of every Cyclo coefficient."""
        return LaurentPoly({m: c.conjugate(k) if isinstance(c, Cyclo) else c
                            for m, c in self.terms.items()}, self.exp_den)

    def subs_mono(self, name: str, value: Monomial) -> "LaurentPoly":
        """Substitute the variable `name` by the monomial value."""
        s = _shift(name)
        A, (vkey,), d = _common(self, LaurentPoly.term(1, value))
        h = _HALVES
        out: dict = {}
        for m, c in A.items():
            e = (((m + h) >> s) & _MASK) - _HALF
            if e:
                if e % d:
                    raise ValueError(f"non-integer exponent of {name} in substitution")
                m += _scaled(vkey, e // d) - (e << s)
            _acc(out, m, c)
        _check_keys(out)
        return LaurentPoly(out, d)

    def attach_degree(self, blockvars, name: str, sign: int = 1) -> "LaurentPoly":
        """Multiply each term by name^(sign * total degree in blockvars)."""
        shifts = [_SHIFT[v] for v in set(blockvars) if v in _SHIFT]
        t = _shift(name)
        h = _HALVES
        out: dict = {}
        for m, c in self.terms.items():
            u = m + h
            d = sign * sum(((u >> s) & _MASK) - _HALF for s in shifts)
            if d:
                _field((((u >> t) & _MASK) - _HALF) + d)
                m += d << t
            _acc(out, m, c)
        return LaurentPoly(out, self.exp_den)

    def split_var(self, name: str) -> dict:
        """Decompose as sum_k name^k * residual; keys are integer exponents."""
        s = _shift(name)
        den = self.exp_den
        h = _HALVES
        out: dict = {}
        for m, c in self.terms.items():
            e = (((m + h) >> s) & _MASK) - _HALF
            if e % den:
                raise ValueError(f"non-integer exponent of {name}")
            out.setdefault(e // den, {})[m - (e << s)] = c
        return {k: LaurentPoly(v, den) for k, v in out.items()}

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        d = self.exp_den
        parts = []
        for pairs, c in sorted(((_pairs(m, d), c) for m, c in self.terms.items()),
                               key=lambda pc: pc[0]):
            cs = scalar_str(c)
            if not pairs:
                parts.append(cs)
            elif c == 1:
                parts.append(_mono_text(pairs))
            elif c == -1:
                parts.append("-" + _mono_text(pairs))
            else:
                parts.append(f"{cs}*{_mono_text(pairs)}")
        return signed_sum(parts)

    def __repr__(self):
        return f"<LaurentPoly {self}>"


LP_ONE = LaurentPoly.scalar(1)
LP_ZERO = LaurentPoly.zero()


def _times_unit(p: LaurentPoly, c, mono: Monomial) -> LaurentPoly:
    """p * c * mono for a nonzero scalar c, without a product of term maps."""
    A, (mkey,), d = _common(p, LaurentPoly.term(1, mono))
    out = {m + mkey: exact(cc * c) for m, cc in A.items()}
    _check_keys(out)
    return LaurentPoly(out, d)


# -- exact division ------------------------------------------------------


def laurent_exact_div(f: LaurentPoly, g: LaurentPoly):
    """Return f/g as a LaurentPoly if g divides f exactly, else None.

    Works over the fraction field coefficients (Fraction or Cyclo).  The
    keys are re-packed with the variables in name order, the first most
    significant, and shifted to nonnegative fields; integer order is then
    the lex order of ordinary polynomials, and lex division runs on them.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return LP_ZERO
    unit = g.as_unit()
    if unit is not None:
        c, m = unit
        return _times_unit(f, scalar_inv(c), m.inv())
    F, G, d = _common(f, g)
    h = _HALVES
    used = 0
    for m in (*F, *G):
        used |= (m + h) ^ h
    # the slots in use, first name first; each becomes a nonnegative local
    # field, the first name most significant
    slots = sorted((i for i in range(len(_NAMES)) if (used >> (_W * i)) & _MASK),
                   key=lambda i: _NAMES[i])
    shifts = [_W * i for i in slots]
    local = [_W * j for j in reversed(range(len(slots)))]

    def packed(terms):
        vecs = [[(((m + h) >> s) & _MASK) - _HALF for s in shifts] for m in terms]
        low = [min(col) for col in zip(*vecs)]
        return {sum((e - lo) << p for e, lo, p in zip(v, low, local)): c
                for v, c in zip(vecs, terms.values())}, low

    F, flow = packed(F)
    G, glow = packed(G)
    guard = sum(_HALF << p for p in local)
    ltg = max(G)
    cg = G[ltg]
    Q: dict = {}
    while F:
        ltf = max(F)
        qm = ltf - ltg
        if (qm + guard) & guard != guard:
            return None
        qc = F[ltf] * scalar_inv(cg)
        Q[qm] = qc
        for gm, gc in G.items():
            key = qm + gm
            if key & guard:
                raise _overflow()
            _acc(F, key, -(qc * gc))
    shift = [a - b for a, b in zip(flow, glow)]
    out = {}
    for qm, c in Q.items():
        out[sum(_field(((qm >> p) & _MASK) + e) << s
                for p, e, s in zip(local, shift, shifts))] = c
    return LaurentPoly(out, d)


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
            num = _times_unit(num, scalar_inv(c), m.inv())
            den = LP_ONE
        elif len(den.terms) > 1:
            low = min(den.terms, key=lambda m: _pairs(m, den.exp_den))
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

    def conjugate(self, k: int) -> "PolyFraction":
        """The Galois conjugate zeta -> zeta^k of numerator and denominator;
        it fixes the monomials, so the normalization carries over."""
        return PolyFraction(self.num.conjugate(k), self.den.conjugate(k))

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


def symmetrize(p: LaurentPoly, blocks) -> LaurentPoly:
    """Sum of p over the product of symmetric groups permuting each block:
    the full group sum of |S_b1| x |S_b2| x ... terms, counted with
    stabilizers so only distinct images are enumerated.

    >>> p = LaurentPoly.var("s1")
    >>> str(symmetrize(p, [["s1", "s2"]]))
    's1 + s2'
    """
    seen: set = set()
    for block in blocks:
        for v in block:
            if v in seen:
                raise ValueError(f"variable {v!r} appears in more than one block")
            seen.add(v)
    result = p
    for block in blocks:
        shifts = [_shift(v) for v in block]
        h = _HALVES
        out: dict = {}
        for m, c in result.terms.items():
            # the block's fields are permuted; the others stay in place
            u = m + h
            exps = [((u >> s) & _MASK) - _HALF for s in shifts]
            rest = m - sum(e << s for e, s in zip(exps, shifts))
            images = list(distinct_permutations(exps))
            cc = c * (math.factorial(len(block)) // len(images))
            for img in images:
                _acc(out, rest + sum(e << s for e, s in zip(img, shifts)), cc)
        result = LaurentPoly(out, result.exp_den)
    return result

