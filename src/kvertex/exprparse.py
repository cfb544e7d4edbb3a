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

An evaluated expression is a pair (f, content): f is a RationalFunction in
the distinguished variable and content is a Laurent polynomial free of that
variable, so the value is f / content.  Sums, products and negation are
those of RationalFunction; division, factor recognition and powers are the
module functions _divide, _recognize_factor and _power on the pair.

>>> f, content = parse_rational("z/((1-x)*(1-t*z)^2)")
>>> print(f, "|", content)
z / (1 - t*z)^2 | 1 - x
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LP_ONE, LaurentPoly, Monomial
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


def _scaled(f, c: LaurentPoly):
    """f * c, skipping the product for a content of 1."""
    return f if c == LP_ONE else f * c


def _mul(val, other):
    (f, c), (g, d) = val, other
    return f * g, _scaled(c, d)


def _nonzero(val):
    if val[0].is_zero():
        raise EvalError("division by zero")
    return val


def _divide(val, g: LaurentPoly):
    """Divide an evaluated value by a Laurent polynomial g."""
    f, content = val
    if g.is_zero():
        raise EvalError("division by zero")
    unit = g.as_unit()
    if unit is not None:
        c, m = unit
        return f * LaurentPoly.term(scalar_inv(c), m.inv()), content
    if list(g.split_var(f.var)) == [0]:
        return f, _scaled(content, g)
    fact = _recognize_factor(g, f.var)
    if fact is None:
        raise EvalError(
            f"denominator {g} is not a monomial, {f.var}-free content, "
            f"or of the form (1 - c*{f.var}^n)")
    (angle, mono, n), unit_c, unit_m = fact
    num = f.num * LaurentPoly.term(scalar_inv(unit_c), unit_m.inv())
    return RationalFunction(f.var, num, f.factors() + [(angle, mono, n, 1)]), content


def _recognize_factor(g: LaurentPoly, var: str):
    """Match g = unit * (1 - c z^n) with c = (+-1) * monomial, n > 0."""
    if len(g.terms) != 2:
        return None
    (m_lo, c_lo), (m_hi, c_hi) = sorted(zip(g.monomials(), g.terms.values()),
                                        key=lambda mc: mc[0].exponent(var))
    e_lo = m_lo.exponent(var)
    e_hi = m_hi.exponent(var)
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
    cm = m_hi * m_lo.inv() * Monomial.var(var, -n)
    return (angle, cm, n), c_lo, m_lo


def _power(val, e: Fraction):
    """An evaluated value to an integer power, or a monomial to a rational one."""
    f, content = val
    if e.denominator != 1:
        unit = f.num.as_unit()
        if unit is None or f.den or not (content == LP_ONE):
            raise EvalError("fractional powers apply to monomials only")
        c, m = unit
        if not (c == 1):
            raise EvalError("fractional powers apply to monomials with coefficient 1")
        return RationalFunction(f.var, LaurentPoly.term(1, m ** e)), LP_ONE
    k = e.numerator
    if k >= 0:
        return (RationalFunction(f.var, f.num ** k,
                                 [(a, m, n, ee * k) for (a, m, n), ee in f.den.items()]),
                content ** k)
    inv = _divide((RationalFunction(f.var, _scaled(f.den_poly(), content)), LP_ONE), f.num)
    return _power(inv, Fraction(-k))


def evaluate(ast, var: str):
    """Evaluate an AST with `var` as the distinguished expansion variable,
    to a pair (RationalFunction, z-free content denominator)."""
    if isinstance(ast, Num):
        return RationalFunction(var, LaurentPoly.scalar(ast.value)), LP_ONE
    if isinstance(ast, Var):
        return RationalFunction(var, LaurentPoly.var(ast.name)), LP_ONE
    if isinstance(ast, Neg):
        f, content = evaluate(ast.arg, var)
        return -f, content
    if isinstance(ast, Pow):
        return _power(evaluate(ast.base, var), ast.exp)
    if isinstance(ast, Bin):
        f, c = evaluate(ast.left, var)
        if ast.op == "/":
            return _divide_ast((f, c), ast.right, var)
        g, d = evaluate(ast.right, var)
        if ast.op == "*":
            return _mul((f, c), (g, d))
        if ast.op == "+":
            return _scaled(f, d) + _scaled(g, c), _scaled(c, d)
        if ast.op == "-":
            return _scaled(f, d) - _scaled(g, c), _scaled(c, d)
    raise EvalError(f"cannot evaluate node {ast!r}")


def _divide_ast(val, ast, var: str):
    """Divide structurally so powers and products of factor-form atoms are
    recognized before anything gets expanded."""
    if isinstance(ast, Pow) and ast.exp.denominator == 1:
        k = ast.exp.numerator
        if k == 1:
            return _divide_ast(val, ast.base, var)
        if k > 1:
            # recognise the factors of a once, then x / a^k = x * (1/a)^k
            q = _divide_ast((RationalFunction(var, LP_ONE), LP_ONE), ast.base, var)
            return _mul(val, _power(q, Fraction(k)))
        # x / a^-k = x * a^k, also for k = 0 so that a is still evaluated
        return _mul(val, _nonzero(evaluate(Pow(ast.base, Fraction(-k)), var)))
    if isinstance(ast, Bin) and ast.op == "*":
        return _divide_ast(_divide_ast(val, ast.left, var), ast.right, var)
    if isinstance(ast, Bin) and ast.op == "/":
        # x / (a/b) = (x/a) * b
        return _mul(_divide_ast(val, ast.left, var), _nonzero(evaluate(ast.right, var)))
    if isinstance(ast, Neg):
        f, c = _divide_ast(val, ast.arg, var)
        return -f, c
    g, d = evaluate(ast, var)
    return _divide((_scaled(val[0], _scaled(g.den_poly(), d)), val[1]), g.num)


def parse_rational(text: str, var: str = "z"):
    """Text to (RationalFunction, content denominator)."""
    return evaluate(parse_expr(text), var)


def parse_laurent(text: str, var: str = "z") -> LaurentPoly:
    f, content = evaluate(parse_expr(text), var)
    if f.den:
        raise EvalError("expression has poles in the expansion variable")
    if content == LP_ONE:
        return f.num
    raise EvalError("expression carries a nontrivial coefficient denominator")
