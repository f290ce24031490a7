"""Canonical text form for polynomials and rational functions.

The grammar printed here is exactly what the expression parser accepts,
and printing is deterministic: terms come out in descending graded-lex
order, so parse(print(e)) reproduces e.  An operand of / is bracketed
unless it prints as one atom of the grammar, one INT or NAME token.
A coefficient past the interpreter's digit limit could not be read
back, so the grammar form refuses it (CoefficientTooLong), while the
reprs of Element and MultiPoly show it by its bit length.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import CoefficientTooLong
from .poly import MultiPoly, mono_items, mono_key
from .ratfunc import RatFunc


def _format_int(n: int, abbreviate: bool) -> str:
    try:
        return str(n)
    except ValueError:
        # str(int) refuses past the interpreter's digit limit, and so does
        # the parser's int(): such a literal could not be read back, so
        # only a repr shows it, by its bit length
        if abbreviate:
            return f"<{n.bit_length()}-bit integer>"
        raise CoefficientTooLong(
            f"a coefficient has more than {sys.get_int_max_str_digits()} "
            "digits") from None


def _format_coeff(q: Fraction, abbreviate: bool) -> str:
    num = _format_int(q.numerator, abbreviate)
    if q.denominator == 1:
        return num
    return f"{num}/{_format_int(q.denominator, abbreviate)}"


def format_poly(p: MultiPoly, name_of, abbreviate: bool = False) -> str:
    """p in the grammar; with abbreviate, a coefficient past the digit
    limit shows its bit length instead of raising CoefficientTooLong."""
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
            body = _format_coeff(mag, abbreviate)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(mag, abbreviate)] + factors)
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append((" + " if c > 0 else " - ") + body)
    return "".join(bits)


def format_ratfunc(rf: RatFunc, name_of, abbreviate: bool = False) -> str:
    num = format_poly(rf.num, name_of, abbreviate)
    if rf.den.is_const() and rf.den.const_value() == 1:
        return num
    den = format_poly(rf.den, name_of, abbreviate)
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


def poly_repr(p: MultiPoly) -> str:
    """MultiPoly's repr: each term's coefficient and (gid, exponent)
    pairs, leading term first, a coefficient past the digit limit by its
    bit length."""
    bits = [f"{_format_coeff(Fraction(p.terms[m], p.den), True)}*"
            f"{tuple(mono_items(m))}"
            for m in sorted(p.terms, key=mono_key, reverse=True)]
    return "MultiPoly(" + (" + ".join(bits) or "0") + ")"
