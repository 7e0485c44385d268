"""Expression front end: a small exact grammar for transseries.

Precedence: ^  >  unary -  >  * /  >  + -.  Powers take rational literal
exponents only (`x^2`, `x^-1`, `x^(3/2)`); log and exp are function
applications.  Numeric literals (integers or decimal fractions) are exact
rationals.  The renderer in the kernel emits this same grammar, so
parse(render(s)) round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import KernelError, ParseError
from .series import (TransSeries, active_backend, const, invert, mul, scale,
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

_SYMBOLS = set("+-*/^()")


def _tokenize(src: str):
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                if j >= n or not src[j].isdigit():
                    raise ParseError("malformed decimal literal", i)
                while j < n and src[j].isdigit():
                    j += 1
            out.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalpha() or src[j].isdigit()):
                j += 1
            word = src[i:j]
            if word not in ("x", "log", "exp"):
                raise ParseError(f"unknown name {word!r}", i)
            out.append(("name", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


# Parentheses, function calls and chained minus signs nest at most this
# deep.  Each level costs the recursive-descent parser up to five Python
# frames; the cap keeps parsing well inside Python's recursion limit.
MAX_NESTING = 100


def _literal(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        return Fraction(int(whole or 0)) + Fraction(int(frac), 10 ** len(frac))
    return Fraction(int(text))


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

    # a rational literal, possibly negative, possibly (p/q)
    def exponent(self) -> Fraction:
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            value = self._signed_ratio()
            self.take(")")
            return value
        return self._signed_number()

    def _signed_number(self) -> Fraction:
        sign = Fraction(1)
        if self.peek()[0] == "-":
            self.take()
            sign = Fraction(-1)
        tok = self.peek()
        if tok[0] != "num":
            raise ParseError("expected a rational exponent", tok[2])
        self.take()
        return sign * _literal(tok[1])

    def _signed_ratio(self) -> Fraction:
        value = self._signed_number()
        if self.peek()[0] == "/":
            self.take()
            tok = self.take("num")
            den = _literal(tok[1])
            if den == 0:
                raise ParseError("zero denominator in exponent", tok[2])
            value = value / den
        return value

    def primary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return Num(_literal(text), pos)
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
            return const(active_backend().coerce(e.value))
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
