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

An evaluated expression is a LaurentPoly when it has no pole in the
distinguished variable and no content, else a pair (f, content): f is a
RationalFunction in that variable and content a Laurent polynomial free of
it, or None for 1, so the value is f / content.  Sums, products and
nonnegative powers of polynomials, and negative powers of monomials, stay
LaurentPolys.  A product x * y or a quotient x / d collects numerator,
(1 - c z^n) factors and content into one _Quotient, in the order of the
AST, and makes one RationalFunction at the end.  RationalFunction
arithmetic runs only in a sum with a side that has poles (where one side is
lifted to the other's denominator) and in the negation of a pair.

>>> f, content = parse_rational("z/((1-x)*(1-t*z)^2)")
>>> print(f, "|", content)
z / (1 - t*z)^2 | 1 - x
"""
from __future__ import annotations

import re
from fractions import Fraction

from .laurent import LP_ONE, LaurentPoly, Monomial
from .scalars import RATIONAL, scalar_inv
from .series import RationalFunction, _times


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


class Num:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Var:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


class Pow:
    """base ^ exp, exp an int or a non-integral Fraction."""

    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        self.base = base
        self.exp = exp


def parse_expr(text: str):
    """Parse to an AST; syntax errors carry the offending position.

    >>> parse_expr("z^2").exp, parse_expr("t^(4/2)").exp, parse_expr("t^(1/2)").exp
    (2, 2, Fraction(1, 2))
    """
    tokens = _tokenize(text)
    idx = 0

    def take(kind):
        nonlocal idx
        tok = tokens[idx]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        idx += 1
        return tok[1]

    def parse_exponent():
        nonlocal idx
        sign = 1
        if tokens[idx][0] == "-":
            idx += 1
            sign = -1
        kind = tokens[idx][0]
        if kind == "int":
            idx += 1
            return sign * tokens[idx - 1][1]
        if kind == "(":
            idx += 1
            if tokens[idx][0] == "-":
                idx += 1
                sign = -sign
            num = take("int")
            den = 1
            if tokens[idx][0] == "/":
                idx += 1
                pos = tokens[idx][2]
                den = take("int")
                if not den:
                    raise ParseError("zero denominator in exponent", pos)
            take(")")
            e = Fraction(sign * num, den)
            return e.numerator if e.denominator == 1 else e
        raise ParseError("expected an integer or (p/q) exponent", tokens[idx][2])

    def parse_factor():
        nonlocal idx
        kind, value, pos = tokens[idx]
        idx += 1
        if kind == "-":
            return Neg(parse_factor())
        if kind == "int":
            atom = Num(value)
        elif kind == "name":
            atom = Var(value)
        elif kind == "(":
            atom = parse_sum()
            take(")")
        else:
            raise ParseError(f"unexpected token {value!r}", pos)
        if tokens[idx][0] == "^":
            idx += 1
            return Pow(atom, parse_exponent())
        return atom

    def parse_term():
        nonlocal idx
        out = parse_factor()
        while (op := tokens[idx][0]) == "*" or op == "/":
            idx += 1
            out = Bin(op, out, parse_factor())
        return out

    def parse_sum():
        nonlocal idx
        out = parse_term()
        while (op := tokens[idx][0]) == "+" or op == "-":
            idx += 1
            out = Bin(op, out, parse_term())
        return out

    out = parse_sum()
    kind, value, pos = tokens[idx]
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", pos)
    return out


# the angles of the roots of unity 1 and -1
_ANGLE_ONE, _ANGLE_MINUS_ONE = Fraction(0), Fraction(1, 2)


def _recognize_factor(g: LaurentPoly, var: str):
    """Match g = unit * (1 - c z^n) with c = (+-1) * monomial, n > 0."""
    if len(g.terms) != 2:
        return None
    (m_lo, m_hi), (c_lo, c_hi) = g.monomials(), g.terms.values()
    e_lo = m_lo.exponent(var)
    e_hi = m_hi.exponent(var)
    if e_lo == e_hi:
        return None
    if e_lo > e_hi:
        m_lo, c_lo, e_lo, m_hi, c_hi, e_hi = m_hi, c_hi, e_hi, m_lo, c_lo, e_lo
    if not isinstance(c_lo, RATIONAL) or not isinstance(c_hi, RATIONAL):
        return None
    if c_hi == -c_lo:
        angle = _ANGLE_ONE
    elif c_hi == c_lo:
        angle = _ANGLE_MINUS_ONE
    else:
        return None
    n = e_hi - e_lo
    if not isinstance(n, int):
        return None
    cm = m_hi * m_lo.inv() * Monomial.var(var, -n)
    return (angle, cm, n), c_lo, m_lo


class _Quotient:
    """A product or quotient under evaluation, num / (prod of factors *
    content), started from an evaluated value or from 1 (None): num and
    content are Laurent polynomials or None for 1, factors a list of
    (angle, mono, n, e).  Each step multiplies in place, in the order of the
    AST; value() makes the evaluated value, with one RationalFunction."""

    __slots__ = ("var", "num", "factors", "content")

    def __init__(self, var: str, value=None):
        self.var = var
        self.factors = []
        self.content = None
        if value is None or type(value) is LaurentPoly:
            self.num = value
        else:
            f, self.content = value
            self.num = f.num
            self.factors = f.factors()

    def times(self, value):
        """Multiply by an evaluated value."""
        if type(value) is LaurentPoly:
            self.num = _times(self.num, value)
        else:
            f, c = value
            self.num = _times(self.num, f.num)
            self.factors += f.factors()
            self.content = _times(self.content, c)

    def times_power(self, q: "_Quotient", k: int):
        """Multiply by q^k, k > 1."""
        num = None if q.num is None else q.num ** k
        content = None if q.content is None else q.content ** k
        self.num = _times(self.num, num)
        self.factors += [(a, m, n, e * k) for a, m, n, e in q.factors]
        self.content = _times(self.content, content)

    def negate(self):
        self.num = -(LP_ONE if self.num is None else self.num)

    def divide_value(self, value):
        """Divide by an evaluated value: x / (f/c) = x * c * den(f) / num(f)."""
        if type(value) is not LaurentPoly:
            f, c = value
            self.num = _times(self.num, _times(f.den_poly() if f.den else None, c))
            value = f.num
        self.divide(value)

    def divide(self, g: LaurentPoly):
        """Divide by a unit, by content or by one factor (1 - c z^n)."""
        if g.is_zero():
            raise EvalError("division by zero")
        unit = g.as_unit()
        if unit is not None:
            self._divide_unit(*unit)
            return
        var = self.var
        if list(g.split_var(var)) == [0]:
            self.content = _times(self.content, g)
            return
        fact = _recognize_factor(g, var)
        if fact is None:
            raise EvalError(
                f"denominator {g} is not a monomial, {var}-free content, "
                f"or of the form (1 - c*{var}^n)")
        (angle, mono, n), unit_c, unit_m = fact
        self._divide_unit(unit_c, unit_m)
        self.factors.append((angle, mono, n, 1))

    def _divide_unit(self, c, m: Monomial):
        if not (c == 1 and m.is_one()):
            self.num = _times(self.num, LaurentPoly.term(scalar_inv(c), m.inv()))

    def value(self):
        num = LP_ONE if self.num is None else self.num
        if not self.factors and self.content is None:
            return num
        return RationalFunction(self.var, num, self.factors), self.content


def _nonzero(value):
    if (value if type(value) is LaurentPoly else value[0].num).is_zero():
        raise EvalError("division by zero")
    return value


def _parts(value):
    """(numerator, the RationalFunction when it has poles or None, content)."""
    if type(value) is LaurentPoly:
        return value, None, None
    f, c = value
    return f.num, f if f.den else None, c


def _add(a, b, minus: bool, var: str):
    """a + b, or a - b when minus."""
    if type(a) is LaurentPoly and type(b) is LaurentPoly:
        return a - b if minus else a + b
    (p, f, c), (q, g, d) = _parts(a), _parts(b)
    p, q = _times(p, d), _times(q, c)
    if minus:
        q = -q
    content = _times(c, d)
    if f is None and g is None:
        s = p + q
        return s if content is None else (RationalFunction(var, s), content)
    # RationalFunction.__add__ lifts each side to the common denominator
    return (RationalFunction(var, p, () if f is None else f.factors())
            + RationalFunction(var, q, () if g is None else g.factors())), content


def _power(value, e, var: str):
    """An evaluated value to an integer power, or a monomial to a rational one."""
    if type(e) is not int:
        unit = value.as_unit() if type(value) is LaurentPoly else None
        if unit is None:
            raise EvalError("fractional powers apply to monomials only")
        c, m = unit
        if not (c == 1):
            raise EvalError("fractional powers apply to monomials with coefficient 1")
        return LaurentPoly.term(1, m ** e)
    if e == 0:
        return LP_ONE
    if type(value) is LaurentPoly:
        if e > 0 or value.as_unit() is not None:
            return value ** e
    elif e > 0:
        f, c = value
        return (RationalFunction(var, f.num ** e,
                                 [(a, m, n, ee * e) for (a, m, n), ee in f.den.items()]),
                None if c is None else c ** e)
    inv = _Quotient(var)
    inv.divide_value(value)
    return inv.value() if e == -1 else _power(inv.value(), -e, var)


def _divide_ast(q: _Quotient, ast):
    """Divide q by the value of ast structurally, so that powers and products
    of factor-form atoms are recognized before anything gets expanded."""
    t = type(ast)
    if t is Bin:
        if ast.op == "*":
            _divide_ast(q, ast.left)
            _divide_ast(q, ast.right)
            return
        if ast.op == "/":
            # x / (a/b) = (x/a) * b
            _divide_ast(q, ast.left)
            q.times(_nonzero(evaluate(ast.right, q.var)))
            return
    elif t is Pow and type(ast.exp) is int:
        k = ast.exp
        if k == 1:
            _divide_ast(q, ast.base)
        elif k > 1:
            # recognise the factors of a once, then x / a^k = x * (1/a)^k
            inner = _Quotient(q.var)
            _divide_ast(inner, ast.base)
            q.times_power(inner, k)
        else:
            # x / a^-k = x * a^k, also for k = 0 so that a is still evaluated
            q.times(_nonzero(_power(evaluate(ast.base, q.var), -k, q.var)))
        return
    elif t is Neg:
        _divide_ast(q, ast.arg)
        q.negate()
        return
    q.divide_value(evaluate(ast, q.var))


def evaluate(ast, var: str):
    """Evaluate an AST with `var` as the distinguished expansion variable,
    to a LaurentPoly or a pair (RationalFunction, content or None)."""
    t = type(ast)
    if t is Bin:
        left = evaluate(ast.left, var)
        if ast.op == "+" or ast.op == "-":
            return _add(left, evaluate(ast.right, var), ast.op == "-", var)
        q = _Quotient(var, left)
        if ast.op == "*":
            q.times(evaluate(ast.right, var))
        else:
            _divide_ast(q, ast.right)
        return q.value()
    if t is Pow:
        return _power(evaluate(ast.base, var), ast.exp, var)
    if t is Num:
        return LaurentPoly.scalar(ast.value)
    if t is Var:
        return LaurentPoly.var(ast.name)
    value = evaluate(ast.arg, var)
    if type(value) is LaurentPoly:
        return -value
    f, c = value
    return -f, c


def parse_rational(text: str, var: str = "z"):
    """Text to (RationalFunction, content denominator)."""
    value = evaluate(parse_expr(text), var)
    if type(value) is LaurentPoly:
        return RationalFunction(var, value), LP_ONE
    f, content = value
    return f, LP_ONE if content is None else content


def parse_laurent(text: str, var: str = "z") -> LaurentPoly:
    value = evaluate(parse_expr(text), var)
    if type(value) is LaurentPoly:
        return value
    if value[0].den:
        raise EvalError("expression has poles in the expansion variable")
    raise EvalError("expression carries a nontrivial coefficient denominator")
