"""Closed-form expected outputs, computed without the kernel.

Expected terms are truncated power series in t = 1/x with `Fraction`
coefficients, optionally times a fixed x-power, log(x)-power or exp
factor.  Rendered kernel output is parsed back into (coefficient,
monomial) pairs and compared against them.  Nothing here imports
`transseries`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

F = Fraction


# -- truncated power series in t = 1/x -----------------------------------------


def ps_mul(a: list, b: list, n: int) -> list:
    out = [F(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                out[i + j] += ai * bj
    return out


def ps_inv(a: list, n: int) -> list:
    """1/a for a[0] != 0."""
    out = [F(0)] * n
    out[0] = 1 / F(a[0])
    for k in range(1, n):
        acc = sum((a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)),
                  F(0))
        out[k] = -acc / a[0]
    return out


def binomial_series(r, a, n: int) -> list:
    """(1 + a t)^r for rational r."""
    out, c = [], F(1)
    for k in range(n):
        out.append(c * F(a) ** k)
        c = c * (F(r) - k) / (k + 1)
    return out


def log1p_series(a, n: int) -> list:
    """log(1 + a t)."""
    return [F(0)] + [F((-1) ** (k + 1), k) * F(a) ** k for k in range(1, n)]


def exp_series(a, n: int) -> list:
    """exp(a t)."""
    return [F(a) ** k / factorial(k) for k in range(n)]


def poly(*cs) -> list:
    return [F(c) for c in cs]


# -- expected terms ---------------------------------------------------------------


class Terms:
    """An exact expansion: a list of (coeff, x exponent, log(x) exponent)
    over a common exp factor, largest first, zeros dropped."""

    def __init__(self, items, exp_factor: str = ""):
        keep = [(F(c), F(a), F(b)) for c, a, b in items if c]
        keep.sort(key=lambda t: (t[1], t[2]), reverse=True)
        self.items = keep
        self.exp_factor = exp_factor

    @staticmethod
    def from_ps(coeffs: list, x_shift=0, log_power=0, exp_factor: str = "") -> "Terms":
        """x^x_shift * log(x)^log_power * exp_factor * sum_k coeffs[k] x^-k."""
        return Terms([(c, F(x_shift) - k, F(log_power))
                      for k, c in enumerate(coeffs)], exp_factor)

    def __add__(self, other: "Terms") -> "Terms":
        assert self.exp_factor == other.exp_factor
        acc: dict = {}
        for c, a, b in self.items + other.items:
            acc[(a, b)] = acc.get((a, b), F(0)) + c
        return Terms([(c, a, b) for (a, b), c in acc.items()], self.exp_factor)

    def rendered(self) -> list:
        """[(coeff, monomial text, order key)], largest first."""
        return [(c, mono_text(a, b, self.exp_factor), mono_key_of(a, b, self.exp_factor))
                for c, a, b in self.items]


def _suffix(r: Fraction) -> str:
    if r == 1:
        return ""
    if r.denominator == 1:
        return f"^{r.numerator}"
    return f"^({r})"


def mono_text(a, b, exp_factor: str = "") -> str:
    parts = []
    if a:
        parts.append("x" + _suffix(F(a)))
    if b:
        parts.append("log(x)" + _suffix(F(b)))
    if exp_factor:
        parts.append(exp_factor)
    return "*".join(parts) or "1"


def mono_key_of(a, b, exp_factor: str = "") -> tuple:
    # every exp factor used here has a positive, purely large argument
    return (1 if exp_factor else 0, F(a), F(b))


# -- parsing rendered output ------------------------------------------------------


def _split_top(text: str, seps: tuple) -> list:
    """Split at separators that sit outside parentheses: [(separator before
    the piece, piece)], the first piece tagged "+"."""
    out, depth, start, sign, i = [], 0, 0, "+", 0
    while i < len(text):
        sep = next((s for s in seps if text.startswith(s, i)), None) if depth == 0 else None
        if sep is None:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
            continue
        out.append((sign, text[start:i]))
        sign, i = sep.strip(), i + len(sep)
        start = i
    out.append((sign, text[start:]))
    return out


_EXP = re.compile(r"^\^(-?\d+|\((-?\d+/\d+)\))$")


def _exponent(text: str) -> Fraction:
    if not text:
        return F(1)
    m = _EXP.match(text)
    if not m:
        raise ValueError(f"bad exponent {text!r}")
    return F(m.group(2) or m.group(1))


def mono_key(text: str) -> tuple:
    """Order key of a rendered height-0 monomial times at most one exp factor."""
    if text == "1":
        return (0, F(0), F(0))
    a, b, e = F(0), F(0), 0
    for _, part in _split_top(text, ("*",)):
        if part.startswith("log(x)"):
            b = _exponent(part[len("log(x)"):])
        elif part.startswith("exp("):
            e = 1
        elif part.startswith("x"):
            a = _exponent(part[1:])
        else:
            raise ValueError(f"unsupported monomial factor {part!r} in {text!r}")
    return (e, a, b)


_COEFF = re.compile(r"^(\d+(?:/\d+)?)(?:\*(.+))?$")


def parse_rendered(text: str):
    """`c1*m1 + ... + O(m)` -> ([(coeff, monomial text)], O-monomial or None)."""
    text = text.strip()
    if text == "0":
        return [], None
    omark = None
    pieces = _split_top(text, (" + ", " - "))
    if pieces[-1][1].startswith("O(") and pieces[-1][0] == "+":
        omark = pieces[-1][1][2:-1]
        pieces = pieces[:-1]
    terms = []
    for sign, piece in pieces:
        neg = sign == "-"
        if piece.startswith("-"):
            neg, piece = True, piece[1:]
        m = _COEFF.match(piece)
        if m:
            coeff, mono = F(m.group(1)), (m.group(2) or "1")
        else:
            coeff, mono = F(1), piece
        terms.append((-coeff if neg else coeff, mono))
    return terms, omark


def check_render(text: str, expected: Terms, nterms: int,
                 min_terms: int | None = None) -> str | None:
    """None when `text` is a correct rendering of `expected` to nterms terms.

    Correct means: every shown term is exact; the shown terms are all the
    nonzero terms above the O-monomial, or all the nonzero terms of
    `expected` when there is no O-monomial; at most nterms are shown, and
    at least `min_terms`, which defaults to min(nterms, number of nonzero
    terms of `expected`).  `expected` must reach well past nterms terms
    when the series is infinite.
    """
    try:
        shown, omark = parse_rendered(text)
        okey = mono_key(omark) if omark is not None else None
    except ValueError as err:
        return f"unparseable output {text!r}: {err}"
    want = [(c, m) for c, m, k in expected.rendered() if okey is None or k > okey]
    if shown != want or len(shown) > nterms:
        return f"got {text!r}, expected terms {_fmt(want[:nterms + 1])}"
    if min_terms is None:
        min_terms = min(nterms, len(expected.items))
    if len(shown) < min_terms:
        return f"got {len(shown)} terms in {text!r}, expected at least {min_terms}"
    return None


def check_json_terms(terms: list, expected: Terms, nterms: int) -> str | None:
    want = [{"coeff": str(c), "monomial": m} for c, m, _ in expected.rendered()[:nterms]]
    if terms != want:
        return f"JSON terms {terms} differ from expected {want}"
    return None


def _fmt(terms) -> str:
    return ", ".join(f"{c}*{m}" for c, m in terms)


# -- the closed forms used by the workloads ---------------------------------------


def render_deep_form(key: str, a, b, n: int) -> Terms:
    """Expected expansion of a render_deep expression, n terms deep."""
    if key == "1/(1 - 1/x)":
        return Terms.from_ps([1] * n)
    if key == "exp(1/x)*log(x)/(1-1/x)":
        # sum_{j<=k} 1/j! at log(x) x^-k
        partial = [sum(F(1, factorial(j)) for j in range(k + 1)) for k in range(n)]
        return Terms.from_ps(partial, log_power=1)
    if key == "exp(x + 1/x)/(1 - 1/log(x))":
        # exp(x) x^-i log(x)^-j / i!: the log(x)^-j terms with i = 0 come
        # first, all with coefficient 1
        return Terms([(F(1, factorial(i)), -i, -j) for i in range(2) for j in range(n)],
                     "exp(x)")
    if key == "dense2":
        return Terms.from_ps(ps_inv(poly(1, -a, -b), n))      # 1/(1 - a t - b t^2)
    if key == "sqrt":
        return Terms.from_ps(binomial_series(F(1, 2), a, n))  # (1 + a t)^(1/2)
    raise KeyError(key)


def taylor_form(f: str, g: str, d: str, c, a, n: int) -> Terms:
    """f(g + d) in closed form, n terms deep, for the taylor_identity
    triples; `c` and `a` are the seeded shifts named in the texts."""
    c, a = F(c), F(a)
    recip = ps_inv(poly(1, c), n)                  # x/(x + c)
    over_x2x = ps_inv(poly(1, 1), n)               # x^2/(x^2 + x)
    forms = {
        # 1/(x + c) = x^-1 / (1 + c t)
        ("1/x", "x", str_num(c)): lambda: Terms.from_ps(recip, x_shift=-1),
        # log(x + c) = log x + log(1 + c t)
        ("log(x)", "x", str_num(c)):
            lambda: Terms([(1, 0, 1)]) + Terms.from_ps(log1p_series(c, n)),
        # exp(x^2 + 1/x) = exp(x^2) exp(t)
        ("exp(x)", "x^2", "1/x"):
            lambda: Terms.from_ps(exp_series(1, n), exp_factor="exp(x^2)"),
        # u/(u - 1) at u = x^2 + 1/x is (1 + t^3)/(1 - t^2 + t^3)
        ("1/(1-1/x)", "x^2", "1/x"):
            lambda: Terms.from_ps(ps_mul(poly(1, 0, 0, 1), ps_inv(poly(1, 0, -1, 1), n), n)),
        ("x^2+3*x", "x", "1"): lambda: Terms([(1, 2, 0), (5, 1, 0), (4, 0, 0)]),
        # (x + c)^-2 = x^-2 (1 + c t)^-2
        ("x^-2", "x", str_num(c)):
            lambda: Terms.from_ps(ps_mul(recip, recip, n), x_shift=-2),
        ("x^(3/2)", "x", "1"):
            lambda: Terms.from_ps(binomial_series(F(3, 2), 1, n), x_shift=F(3, 2)),
        # 1/u - 2/u^3 at u = x^2 (1 + t)
        ("1/x-2*x^-3", "x^2", "x"):
            lambda: Terms.from_ps(over_x2x, x_shift=-2) + Terms.from_ps(
                [-2 * v for v in ps_mul(over_x2x, ps_mul(over_x2x, over_x2x, n), n)],
                x_shift=-6),
        # log(x^2 + x) = 2 log x + log(1 + t)
        ("log(x)", "x^2", "x"):
            lambda: Terms([(2, 0, 1)]) + Terms.from_ps(log1p_series(1, n)),
        # (x + 1)/2 + 1 + 1/(x + 1)
        ("x/2+1+1/x", "x", "1"):
            lambda: Terms([(F(1, 2), 1, 0), (F(3, 2), 0, 0)])
            + Terms.from_ps(ps_inv(poly(1, 1), n), x_shift=-1),
        # 1/(1 - a/(x + a)) = (x + a)/x = 1 + a/x: every later grid
        # coefficient of the composite cancels
        (f"1/(1-{str_num(a)}/x)", "x", str_num(a)): lambda: Terms([(1, 0, 0), (a, -1, 0)]),
        # (1 - 1/(x + a))/(1 - a/(x + a)) = (x + a - 1)/x = 1 + (a - 1)/x
        (f"(1-1/x)/(1-{str_num(a)}/x)", "x", str_num(a)):
            lambda: Terms([(1, 0, 0), (a - 1, -1, 0)]),
    }
    return forms[(f, g, d)]()


def str_num(c) -> str:
    """A rational as expression text: `3` or `(3/2)`."""
    c = F(c)
    return str(c.numerator) if c.denominator == 1 else f"({c})"
