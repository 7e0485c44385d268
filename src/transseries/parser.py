"""Expression front end: a small exact grammar for transseries.

Precedence: ^  >  unary -  >  * /  >  + -.  Powers take rational literal
exponents only (`x^2`, `x^-1`, `x^(3/2)`); log and exp are function
applications.  Numeric literals (integers or decimal fractions) are exact
rationals.  The renderer in the kernel emits this same grammar, so
parse(render(s)) round-trips.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import KernelError, ParseError
from .monomial import X, mono_pow
from .series import (TransSeries, const, invert, mono_series, mul, scale,
                     sum_family)
from .calculus import X_SERIES, exp_series, log_series, pow_series


# -- abstract syntax -----------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int = 0


@dataclass(frozen=True)
class Var:
    pos: int = 0


@dataclass(frozen=True)
class Unary:
    op: str                  # 'neg' | 'log' | 'exp'
    arg: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class Binary:
    op: str                  # '+' | '-' | '*' | '/'
    left: "Expr"
    right: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: Fraction
    pos: int = 0


Expr = Union[Num, Var, Unary, Binary, Power]


# -- tokenizer -----------------------------------------------------------------

# A token is an operator, a number (decimal digits, which int() reads, and an
# optional fraction part), a name, or any other non-space character.
_TOKEN = re.compile(r"([-+*/^()])|(\d+(?:\.\d*)?)|([A-Za-z][A-Za-z\d]*)|(\S)")


def _tokenize(src: str):
    out = []
    for m in _TOKEN.finditer(src):
        op, num, name, bad = m.groups()
        pos = m.start()
        if bad:
            raise ParseError(f"unexpected character {bad!r}", pos)
        if num and num.endswith("."):
            raise ParseError("malformed decimal literal", pos)
        if name and name not in ("x", "log", "exp"):
            raise ParseError(f"unknown name {name!r}", pos)
        out.append((op or ("num" if num else "name"), m[0], pos))
    out.append(("end", "", len(src)))
    return out


# Parentheses, function calls and chained minus signs nest at most this
# deep.  Each level costs the recursive-descent parser up to five Python
# frames; the cap keeps parsing well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: Optional[str] = None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'}",
                             tok[2])
        self.i += 1
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            node = Binary(op, node, self.term(), pos)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            node = Binary(op, node, self.unary(), pos)
        return node

    def nested(self, pos: int, rule):
        """rule() one nesting level deeper; ParseError past MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        try:
            return rule()
        finally:
            self.depth -= 1

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            _, _, pos = self.take()
            return Unary("neg", self.nested(pos, self.unary), pos)
        return self.power()

    def power(self) -> Expr:
        node = self.primary()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            node = Power(node, self.exponent(), pos)
        return node

    # exponent := ['-'] num | '(' ['-'] num ['/' num] ')'
    def exponent(self) -> Fraction:
        paren = self.peek()[0] == "("
        if paren:
            self.take()
        negative = self.peek()[0] == "-"
        if negative:
            self.take()
        if self.peek()[0] != "num":
            raise ParseError("expected a rational exponent", self.peek()[2])
        value = self.number()
        if paren:
            if self.peek()[0] == "/":
                self.take()
                pos = self.peek()[2]
                den = self.number()
                if den == 0:
                    raise ParseError("zero denominator in exponent", pos)
                value /= den
            self.take(")")
        return -value if negative else value

    def number(self) -> Fraction:
        _, text, pos = self.take("num")
        whole, _, frac = text.partition(".")
        try:
            return Fraction(int(whole + frac), 10 ** len(frac))
        except ValueError:  # the pattern admits digits only: too many of them
            raise ParseError("literal longer than "
                             f"{sys.get_int_max_str_digits()} digits", pos) from None

    def primary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "num":
            return Num(self.number(), pos)
        if kind == "name":
            self.take()
            if text == "x":
                return Var(pos)
            self.take("(")
            arg = self.nested(pos, self.expr)
            self.take(")")
            return Unary(text, arg, pos)
        if kind == "(":
            self.take()
            node = self.nested(pos, self.expr)
            self.take(")")
            return node
        raise ParseError(f"expected an expression, found {text or 'end of input'}",
                         pos)


def parse(src: str) -> Expr:
    """Parse source text into an expression tree; ParseError carries the
    offending offset."""
    p = _Parser(src)
    node = p.expr()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    return node


def elaborate(e: Expr) -> TransSeries:
    """Evaluate an expression tree into the kernel; kernel errors are
    re-raised with the source offset appended."""
    try:
        if isinstance(e, Num):
            return const(e.value)
        if isinstance(e, Var):
            return X_SERIES
        if isinstance(e, Unary):
            arg = elaborate(e.arg)
            if e.op == "neg":
                return scale(arg, -1)
            if e.op == "log":
                return log_series(arg)
            return exp_series(arg)
        if isinstance(e, Binary) and e.op in ("+", "-"):
            # a +/- chain leans left; walking it without recursion makes a
            # chain of any length one flat sum
            node, chain = e, []
            while isinstance(node, Binary) and node.op in ("+", "-"):
                chain.append(node)
                node = node.left
            terms = [elaborate(node)]
            for b in reversed(chain):
                t = elaborate(b.right)
                terms.append(t if b.op == "+" else scale(t, -1))
            return sum_family(terms)
        if isinstance(e, Binary):
            left = elaborate(e.left)
            right = elaborate(e.right)
            if e.op == "*":
                return mul(left, right)
            return mul(left, invert(right))
        if isinstance(e, Power):
            # a power of x is one monomial, built without a product
            if isinstance(e.base, Var):
                return mono_series(mono_pow(X, e.exponent))
            return pow_series(elaborate(e.base), e.exponent)
    except ParseError:
        raise
    except KernelError as err:
        if "[at offset" in str(err):
            raise
        raise type(err)(f"{err} [at offset {e.pos}]") from err
    raise ParseError(f"unhandled expression node {e!r}", getattr(e, "pos", 0))


def parse_series(src: str) -> TransSeries:
    return elaborate(parse(src))
