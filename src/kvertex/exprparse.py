"""Text expressions for the command line.

Grammar (standard precedence, ^ > unary- > * / > + -, no implicit
multiplication):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom ("^" exponent)?
    atom   := INT | NAME | "(" expr ")"
    NAME   := [a-zA-Z][a-zA-Z0-9]* ( "_{" INT "," INT "}" )?

Exponents are integers or parenthesized rationals, e.g. t^(1/2).  Division
is permitted when the divisor normalizes to a monomial, to a product of
(1 - c z^n) factors in the distinguished variable (|c|-part a sign), or to
expansion-variable-free content, which is carried along as an exact
coefficient denominator.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LP_ONE, LaurentPoly, Monomial, PolyFraction
from .scalars import RATIONAL, scalar_inv
from .series import RationalFunction


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    pass


_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9]*(_\{\d+,\d+\})?")
_INT = re.compile(r"\d+")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = _NAME.match(text, pos)
        if m and not ch.isdigit():
            tokens.append(("name", m.group(0), pos))
            pos = m.end()
            continue
        m = _INT.match(text, pos)
        if m:
            tokens.append(("int", int(m.group(0)), pos))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("eof", None, n))
    return tokens


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: Fraction


def parse_expr(text: str):
    """Parse to an AST; syntax errors carry the offending position.

    >>> parse_expr("z^2").exp
    Fraction(2, 1)
    """
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def take(kind=None):
        nonlocal idx
        tok = tokens[idx]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        idx += 1
        return tok

    def parse_exponent() -> Fraction:
        sign = 1
        if peek()[0] == "-":
            take()
            sign = -1
        if peek()[0] == "int":
            return Fraction(sign * take()[1])
        if peek()[0] == "(":
            take()
            s2 = 1
            if peek()[0] == "-":
                take()
                s2 = -1
            num = take("int")[1]
            den = 1
            if peek()[0] == "/":
                take()
                tok = take("int")
                den = tok[1]
                if not den:
                    raise ParseError("zero denominator in exponent", tok[2])
            take(")")
            return Fraction(sign * s2 * num, den)
        raise ParseError("expected an integer or (p/q) exponent", peek()[2])

    def parse_atom():
        tok = take()
        if tok[0] == "int":
            return Num(tok[1])
        if tok[0] == "name":
            return Var(tok[1])
        if tok[0] == "(":
            e = parse_sum()
            take(")")
            return e
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def parse_factor():
        if peek()[0] == "-":
            take()
            return Neg(parse_factor())
        a = parse_atom()
        if peek()[0] == "^":
            take()
            return Pow(a, parse_exponent())
        return a

    def parse_term():
        out = parse_factor()
        while peek()[0] in ("*", "/"):
            op = take()[0]
            out = Bin(op, out, parse_factor())
        return out

    def parse_sum():
        out = parse_term()
        while peek()[0] in ("+", "-"):
            op = take()[0]
            out = Bin(op, out, parse_term())
        return out

    out = parse_sum()
    if peek()[0] != "eof":
        raise ParseError(f"trailing input {peek()[1]!r}", peek()[2])
    return out


class FactoredRat:
    """Evaluation value: numerator / (z-factors * z-free content)."""

    __slots__ = ("var", "num", "zden", "cden")

    def __init__(self, var: str, num: LaurentPoly, zden=None, cden: LaurentPoly = LP_ONE):
        self.var = var
        self.num = num
        self.zden = dict(zden or {})
        self.cden = cden

    def _den_poly(self) -> LaurentPoly:
        rf = RationalFunction(self.var, LP_ONE,
                              [(a, m, n, e) for (a, m, n), e in self.zden.items()])
        return rf.den_poly() * self.cden

    def __neg__(self):
        return FactoredRat(self.var, -self.num, self.zden, self.cden)

    def add(self, other: "FactoredRat", sign=1) -> "FactoredRat":
        keys = set(self.zden) | set(other.zden)
        zden = {k: max(self.zden.get(k, 0), other.zden.get(k, 0)) for k in keys}

        def lift(f: "FactoredRat", other_c: LaurentPoly):
            extra = other_c
            for k, e in zden.items():
                miss = e - f.zden.get(k, 0)
                if miss:
                    a, m, n = k
                    from .series import factor_poly
                    extra = extra * factor_poly(self.var, a, m, n) ** miss
            return f.num * extra

        num = lift(self, other.cden) + sign * lift(other, self.cden)
        return FactoredRat(self.var, num, zden, self.cden * other.cden)

    def mul(self, other: "FactoredRat") -> "FactoredRat":
        zden = dict(self.zden)
        for k, e in other.zden.items():
            zden[k] = zden.get(k, 0) + e
        return FactoredRat(self.var, self.num * other.num, zden, self.cden * other.cden)

    def divide(self, other: "FactoredRat") -> "FactoredRat":
        if other.num.is_zero():
            raise EvalError("division by zero")
        # self / other: other's denominators move up
        num = self.num * other._den_poly()
        out = FactoredRat(self.var, num, self.zden, self.cden)
        return out._divide_poly(other.num)

    def _divide_poly(self, g: LaurentPoly) -> "FactoredRat":
        unit = g.as_unit()
        if unit is not None:
            c, m = unit
            num = self.num * LaurentPoly.term(scalar_inv(c), m.inv())
            return FactoredRat(self.var, num, self.zden, self.cden)
        zsplit = g.split_var(self.var)
        if list(zsplit) == [0]:
            # z-free content denominator
            return FactoredRat(self.var, self.num, self.zden, self.cden * g)
        fact = self._recognize_factor(g)
        if fact is None:
            raise EvalError(
                f"denominator {g} is not a monomial, {self.var}-free content, "
                f"or of the form (1 - c*{self.var}^n)")
        (angle, mono, n), unit_c, unit_m = fact
        num = self.num * LaurentPoly.term(scalar_inv(unit_c), unit_m.inv())
        zden = dict(self.zden)
        key = (angle, mono, n)
        zden[key] = zden.get(key, 0) + 1
        return FactoredRat(self.var, num, zden, self.cden)

    def _recognize_factor(self, g: LaurentPoly):
        """Match g = unit * (1 - c z^n) with c = (+-1) * monomial, n != 0."""
        if len(g.terms) != 2:
            return None
        items = sorted(g.terms.items(), key=lambda kv: Monomial(kv[0]).exponent(self.var))
        (m_lo, c_lo), (m_hi, c_hi) = items
        e_lo = Monomial(m_lo).exponent(self.var)
        e_hi = Monomial(m_hi).exponent(self.var)
        if e_lo == e_hi:
            return None
        if not isinstance(c_lo, RATIONAL) or not isinstance(c_hi, RATIONAL):
            return None
        ratio = Fraction(-c_hi, c_lo)
        if ratio == 1:
            angle = Fraction(0)
        elif ratio == -1:
            angle = Fraction(1, 2)
        else:
            return None
        n = e_hi - e_lo
        if not isinstance(n, int):
            return None
        cm = Monomial(m_hi) * Monomial(m_lo).inv() * Monomial.var(self.var, -n)
        return (angle, cm, n), c_lo, Monomial(m_lo)

    def pow(self, e: Fraction) -> "FactoredRat":
        if e.denominator != 1:
            unit = self.num.as_unit()
            if unit is None or self.zden or not (self.cden == LP_ONE):
                raise EvalError("fractional powers apply to monomials only")
            c, m = unit
            if not (c == 1):
                raise EvalError("fractional powers apply to monomials with coefficient 1")
            return FactoredRat(self.var, LaurentPoly.term(1, m ** e))
        k = e.numerator
        if k >= 0:
            out = FactoredRat(self.var, self.num ** k,
                              {key: ee * k for key, ee in self.zden.items()},
                              self.cden ** k)
            return out
        inv = FactoredRat(self.var, self._den_poly())._divide_poly(self.num)
        return inv.pow(Fraction(-k))

    # conversions ---------------------------------------------------------

    def as_rational_function(self):
        """(RationalFunction, z-free content denominator)."""
        rf = RationalFunction(self.var, self.num,
                              [(a, m, n, e) for (a, m, n), e in self.zden.items()])
        return rf, self.cden

    def as_laurent(self) -> LaurentPoly:
        if self.zden:
            raise EvalError("expression has poles in the expansion variable")
        if self.cden == LP_ONE:
            return self.num
        raise EvalError("expression carries a nontrivial coefficient denominator")

    def as_fraction(self) -> PolyFraction:
        return PolyFraction(self.num, self._den_poly())


def evaluate(ast, var: str) -> FactoredRat:
    """Evaluate an AST with `var` as the distinguished expansion variable."""
    if isinstance(ast, Num):
        return FactoredRat(var, LaurentPoly.scalar(ast.value))
    if isinstance(ast, Var):
        return FactoredRat(var, LaurentPoly.var(ast.name))
    if isinstance(ast, Neg):
        return -evaluate(ast.arg, var)
    if isinstance(ast, Pow):
        return evaluate(ast.base, var).pow(ast.exp)
    if isinstance(ast, Bin):
        left = evaluate(ast.left, var)
        if ast.op == "+":
            return left.add(evaluate(ast.right, var))
        if ast.op == "-":
            return left.add(evaluate(ast.right, var), sign=-1)
        if ast.op == "*":
            return left.mul(evaluate(ast.right, var))
        if ast.op == "/":
            return _divide_ast(left, ast.right, var)
    raise EvalError(f"cannot evaluate node {ast!r}")


def _divide_ast(val: FactoredRat, ast, var: str) -> FactoredRat:
    """Divide structurally so powers and products of factor-form atoms are
    recognized before anything gets expanded."""
    if isinstance(ast, Pow) and ast.exp.denominator == 1:
        k = ast.exp.numerator
        if k >= 0:
            for _ in range(k):
                val = _divide_ast(val, ast.base, var)
            return val
        return val.mul(evaluate(Pow(ast.base, Fraction(-k)), var))
    if isinstance(ast, Bin) and ast.op == "*":
        return _divide_ast(_divide_ast(val, ast.left, var), ast.right, var)
    if isinstance(ast, Bin) and ast.op == "/":
        return _divide_ast(val, ast.left, var).mul(evaluate(ast.right, var))
    if isinstance(ast, Neg):
        return -_divide_ast(val, ast.arg, var)
    return val.divide(evaluate(ast, var))


def parse_rational(text: str, var: str = "z"):
    """Text to (RationalFunction, content denominator)."""
    return evaluate(parse_expr(text), var).as_rational_function()


def parse_laurent(text: str, var: str = "z") -> LaurentPoly:
    return evaluate(parse_expr(text), var).as_laurent()
