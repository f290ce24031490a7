"""Canonical text form for polynomials and rational functions.

The grammar printed here is exactly what the expression parser accepts,
and printing is deterministic: terms come out in descending graded-lex
order, so parse(print(e)) reproduces e.  An operand of / is bracketed
unless it prints as one atom of the grammar, one INT or NAME token.
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
    return "/".join(text if _is_atom(p) else f"({text})"
                    for p, text in ((rf.num, num), (rf.den, den)))


def _is_atom(p: MultiPoly) -> bool:
    """Whether p prints as one atom of the grammar, an INT or a NAME, and
    so bare as an operand of /: zero, or a single term with denominator
    1 that is a positive integer or one generator to the first power."""
    if len(p.terms) != 1 or p.den != 1:
        return not p.terms
    (m, c), = p.terms.items()
    return c > 0 if not m else c == 1 and [e for _, e in mono_items(m)] == [1]
