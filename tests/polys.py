"""Polynomials for tests, built and read through the public MultiPoly API.

A test states a polynomial as a dict {tuple monomial: coefficient}, each
monomial ((gid, exp), ...) sorted by gid and () the unit, and a
coefficient an int or a Fraction.  from_dict builds it through var, **,
scale and +; evaluate, lead_mono and deg_in read a MultiPoly back
through poly.mono_items, so only poly.py packs a monomial.
"""

from fractions import Fraction

from diffalg.poly import MultiPoly, mono_items, mono_key


def monomial(mono) -> MultiPoly:
    """The MultiPoly of one tuple monomial."""
    p = MultiPoly.one()
    for gid, e in mono:
        p = p * MultiPoly.var(gid) ** e
    return p


def from_dict(terms: dict) -> MultiPoly:
    """The sum of c * monomial over {tuple monomial: c}."""
    total = MultiPoly.zero()
    for mono, c in terms.items():
        total = total + monomial(mono).scale(c)
    return total


def evaluate(p: MultiPoly, values: dict):
    """p at values[gid], term by term from its Fraction coefficients, so a
    float or sympy value makes the result one too; 0 for the zero
    polynomial."""
    total = 0
    for m, c in p.terms.items():
        v = Fraction(c, p.den)
        for gid, e in mono_items(m):
            v = v * values[gid] ** e
        total = total + v
    return total


def lead_mono(p: MultiPoly) -> tuple:
    """The tuple monomial of p's leading term under poly.mono_key."""
    return tuple(mono_items(max(p.terms, key=mono_key)))


def deg_in(p: MultiPoly, gid: int) -> int:
    """p's degree in the generator gid; 0 for the zero polynomial."""
    return max((e for m in p.terms for g, e in mono_items(m) if g == gid),
               default=0)
