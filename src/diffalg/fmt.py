"""Canonical text form for polynomials and rational functions.

The grammar printed here is exactly what the expression parser accepts,
and printing is deterministic: terms come out in descending graded-lex
order, so parse(print(e)) reproduces e.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly, mono_items, mono_key
from .ratfunc import RatFunc


def _format_coeff(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_poly(p: MultiPoly, name_of) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for m in sorted(p.terms, key=mono_key, reverse=True):
        c = Fraction(p.terms[m], p.den)
        factors = []
        for g, e in mono_items(m):
            factors.append(name_of(g) if e == 1 else f"{name_of(g)}^{e}")
        mag = abs(c)
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(mag)] + factors)
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append((" + " if c > 0 else " - ") + body)
    return "".join(bits)


def format_ratfunc(rf: RatFunc, name_of) -> str:
    num = format_poly(rf.num, name_of)
    if rf.den.is_const() and rf.den.const_value() == 1:
        return num
    den = format_poly(rf.den, name_of)
    nwrap = f"({num})" if _needs_parens(rf.num) else num
    dwrap = f"({den})" if _needs_parens(rf.den) else den
    return f"{nwrap}/{dwrap}"


def _needs_parens(p: MultiPoly) -> bool:
    if len(p.terms) > 1:
        return True
    # Single negative or composite terms still need protection.
    for m, c in p.terms.items():
        c = Fraction(c, p.den)
        if c < 0:
            return True
        items = mono_items(m)
        if items and (c != 1 or len(items) > 1 or items[0][1] > 1):
            return True
        if not items and c.denominator != 1:
            return True
    return False

