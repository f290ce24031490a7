"""Reduced rational functions and normal forms modulo square-root relations.

A RatFunc is a pair of polynomials with gcd 1 and a monic denominator,
and has no arithmetic: Element and the parser apply quotient, the one
copy of the quotient rules on raw (num, den) pairs, which cancels a
shared denominator before it multiplies.  The quadratic
relations g^2 = r of the algebraic generators are a plain dict rels,
generator id -> radicand r.  Each radicand is a normal form over the
strictly earlier part of the tower, so rewriting a later generator can
only surface earlier ones.  normal_form rewrites an element
so that every such g appears with exponent at most one in the numerator
and not at all in the denominator (conjugate rationalization).

Two normal forms n1/d1 and n2/d2 are compared structurally.  That rests
on unique factorization in the polynomial ring alone: their difference
has the numerator n1*d2 - n2*d1, already multilinear over a denominator
free of relation generators, so it normalizes to 0 exactly when
n1*d2 = n2*d1, which for gcd-reduced pairs with monic denominators means
n1 = n2 and d1 = d2.  That distinct normal forms are distinct values
needs more: the declared-nonsquare convention, under which the products
of distinct relation generators are independent over the field below.

reduce_powers, the power reduction of every caller (normal_form, the lazy
clearing of curves and the parser), folds g^2 -> r through the polynomial
view MultiPoly.fold_squares; this module reads no monomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ZeroDenominator
from .poly import MultiPoly, poly_divexact, poly_gcd


class RatFunc(NamedTuple):
    """num/den, gcd-reduced, denominator monic; unpacks as the pair.  The
    constructor trusts its input; ratfunc_normalize takes raw pairs."""

    num: MultiPoly
    den: MultiPoly

    @staticmethod
    def const(q) -> "RatFunc":
        return RatFunc(MultiPoly.const(q), MultiPoly.one())

    @staticmethod
    def var(gid: int) -> "RatFunc":
        return RatFunc(MultiPoly.var(gid), MultiPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def gens(self) -> set:
        return self.num.gens() | self.den.gens()


def quotient(op: str, a, b):
    """a op b as a raw (num, den) pair, b a pair or for ^ an integer: the
    quotient rules of Element and the parser, written once.  Equal
    denominators of + - / cancel first, found by ==, not a gcd (Henrici;
    Knuth, TAOCP vol. 2, 4.5.1).  That is exact: every denominator that
    reaches here is free of relation generators, so it is no zero
    divisor, and normal forms are unique."""
    an, ad = a
    if op == "^":
        if b < 0 and an.is_zero():
            raise ZeroDenominator("negative power of zero")
        return (an ** b, ad ** b) if b >= 0 else (ad ** -b, an ** -b)
    bn, bd = b
    if op == "*":
        return an * bn, ad * bd
    if op == "/":
        if bn.is_zero():
            raise ZeroDenominator("division by zero element")
        return (an, bn) if ad == bd else (an * bd, ad * bn)
    if ad == bd:
        return (an + bn if op == "+" else an - bn), ad
    if op == "+":
        return an * bd + bn * ad, ad * bd
    return an * bd - bn * ad, ad * bd


def ratfunc_normalize(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """Canonical reduced form; rejects zero denominators."""
    if den.is_zero():
        raise ZeroDenominator("denominator reduced to zero")
    if num.is_zero():
        return RatFunc(MultiPoly.zero(), MultiPoly.one())
    if not den.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
    lc = den.lead_coeff()
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return RatFunc(num, den)


def reduce_powers(num: MultiPoly, den: MultiPoly, rels: dict):
    """Power-reduce numerator and denominator; returns a raw (num, den)."""
    n1, d1 = num.fold_squares(rels)
    n2, d2 = den.fold_squares(rels)
    return n1 * d2, n2 * d1


def rationalize(num: MultiPoly, den: MultiPoly, rels: dict):
    """Power-reduce num/den and clear the relation generators out of den,
    latest first so squares surfacing in earlier ones get picked up; a
    raw pair.  Raises ZeroDenominator if den is 0 or a zero divisor."""
    if den.is_zero():
        raise ZeroDenominator("denominator reduced to zero")
    num, den = reduce_powers(num, den, rels)
    if den.is_zero():
        raise ZeroDenominator("denominator is zero modulo the relations")
    for gid in sorted(rels, reverse=True):
        if den.deg_in(gid) == 0:
            continue
        conj = den.conj_gen(gid)
        num, den = reduce_powers(num * conj, den * conj, rels)
        if den.is_zero():
            raise ZeroDenominator(
                "denominator is a zero divisor modulo the relations")
    return num, den


def normal_form(num: MultiPoly, den: MultiPoly, rels: dict) -> RatFunc:
    """Unique representative: numerator multilinear in relation
    generators, denominator free of them, then gcd-reduced and monic."""
    return ratfunc_normalize(*rationalize(num, den, rels))
