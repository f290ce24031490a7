"""Reduced rational functions and normal forms modulo square-root relations.

A RatFunc is a pair of polynomials with gcd 1 and a monic denominator,
and has no arithmetic: on raw (num, den) pairs, Element and the parser
apply quotient, the one copy of the rules + - * /, which cancels a shared
denominator before it multiplies, and power, the one power rule.  The
quadratic relations g^2 = r of the algebraic generators are a plain dict
rels, generator id -> radicand r.  Each radicand is a normal form over
the strictly earlier part of the tower, so rewriting a later generator
can only surface earlier ones.  normal_form rewrites an element so that
every such g appears with exponent at most one in the numerator and not
at all in the denominator (conjugate rationalization), then divides out
the gcd.  No divisor of that denominator holds a g either, so the gcd is
folded from the numerator's coefficients over the g (_gcd_over), and no
gcd of a normal form sees a relation generator.

Two normal forms n1/d1 and n2/d2 are compared structurally.  That rests
on unique factorization in the polynomial ring alone: their difference
has the numerator n1*d2 - n2*d1, already multilinear over a denominator
free of relation generators, so it normalizes to 0 exactly when
n1*d2 = n2*d1, which for gcd-reduced pairs with monic denominators means
n1 = n2 and d1 = d2.  That distinct normal forms are distinct values
needs more: the declared-nonsquare convention, under which the products
of distinct relation generators are independent over the field below.

reduce_powers, the power reduction of every caller (normal_form, power
after each product, the lazy clearing _clear and the parser), folds
g^2 -> r through MultiPoly.fold_squares; this module reads no monomials.
A lazy sum keeps each part's denominator as a bag of factors; _clear
adds the parts over a common multiple of the bags, which a division
basis of the factors gives with no gcd, and power-reduces the numerator.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .errors import ZeroDenominator
from .poly import MultiPoly, poly_divexact, poly_gcd, square_multiply


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
    """a op b for op in + - * / and raw (num, den) pairs a and b, as a raw
    pair: the quotient rules of Element and the parser, written once.  Equal
    denominators of + - / cancel first, found by ==, not a gcd (Henrici;
    Knuth, TAOCP vol. 2, 4.5.1).  That is exact: every denominator that
    reaches here is free of relation generators, so it is no zero
    divisor, and normal forms are unique."""
    (an, ad), (bn, bd) = a, b
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


def ratfunc_normalize(num: MultiPoly, den: MultiPoly, gids=()) -> RatFunc:
    """Canonical reduced form; rejects zero denominators.  den must hold
    none of the generators gids (normal_form passes the relation
    generators), and the gcd is taken over num's coefficients in them."""
    if den.is_zero():
        raise ZeroDenominator("denominator reduced to zero")
    if num.is_zero():
        return RatFunc(MultiPoly.zero(), MultiPoly.one())
    if not den.is_const():
        g = _gcd_over(num, den, gids)
        if not g.is_const():
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
    lc = den.lead_coeff()
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return RatFunc(num, den)


def _gcd_over(num: MultiPoly, den: MultiPoly, gids) -> MultiPoly:
    """gcd(num, den) for a den free of the generators gids.  A divisor of
    den is free of them too, and such a g divides num exactly when it
    divides each coefficient of num over the monomials in gids; so the gcd
    is den's with those coefficients, folded in smallest first until it
    is a constant.  A num free of gids is its own one coefficient."""
    if not num.holds(gids):
        return poly_gcd(num, den)
    g = den
    for c in sorted(num.split_by(gids).values(), key=lambda c: len(c.terms)):
        g = poly_gcd(g, c)
        if g.is_const():
            break
    return g


def reduce_powers(num: MultiPoly, den: MultiPoly, rels: dict):
    """Power-reduce numerator and denominator; returns a raw (num, den),
    the operands themselves when nothing folds (d1 and d2 are the unit)."""
    if not rels:
        return num, den
    n1, d1 = num.fold_squares(rels)
    n2, d2 = den.fold_squares(rels)
    return n1 * d2, n2 * d1


def power(a, k: int, rels: dict):
    """a ** k for a raw pair a: the one power rule, whose product folds by
    reduce_powers, raw when a holds no relation generator; a lone factor
    is left as it is, and k < 0 swaps a."""
    if k < 0:
        if a[0].is_zero():
            raise ZeroDenominator("negative power of zero")
        a, k = a[::-1], -k
    if not (a[0].holds(rels) or a[1].holds(rels)):
        rels = {}
    return square_multiply(a, k, lambda p, q: reduce_powers(
        p[0] * q[0], p[1] * q[1], rels), RatFunc.const(1))


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
        if not den.holds((gid,)):
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
    return ratfunc_normalize(*rationalize(num, den, rels), rels)


class _Part(NamedTuple):
    """A summand of a lazy sum: a numerator polynomial over a bag of
    denominator factors, with no normal form of its own."""
    num: MultiPoly
    dens: Counter  # MultiPoly factor -> exponent


def _division_basis(factors) -> dict:
    """Each nonzero factor f as (u, e): f = u * prod(b^k for b, k in e),
    with u rational and the b of all factors monic, none dividing another.
    A pair splits only where one divides the other exactly, into the
    divisor and the quotient of that division, so no gcd runs; two that
    share a factor neither divides stay apart."""
    units, monics = {}, {}
    for f in factors:
        if f in units:
            continue
        u = units[f] = f.lead_coeff()
        if not f.is_const():
            monics[f] = f if u == 1 else f.scale(1 / u)
    basis, splits = {}, {}  # b -> its generators; a -> [b, a/b]
    work = list(monics.values())
    while work:
        a = work.pop()
        if a in basis or a in splits:
            continue
        gens = a.gens()
        for b, bgens in basis.items():
            if bgens <= gens and (q := poly_divexact(a, b)) is not None:
                splits[a] = [b, q]
                work.append(q)
                break
            if gens <= bgens and (q := poly_divexact(b, a)) is not None:
                del basis[b]
                splits[b] = [a, q]
                work += splits[b]
                break
        else:
            basis[a] = gens

    def expand(a: MultiPoly) -> Counter:
        if a in basis:
            return Counter({a: 1})
        return sum((expand(c) for c in splits[a]), Counter())

    return {f: (u, expand(monics[f]) if f in monics else Counter())
            for f, u in units.items()}


def _clear(parts, rels):
    """The sum of the parts as (num, den, common): it equals num over
    den times the product of b^k over common, with num power-reduced.
    common, the top powers over the division basis of the parts'
    denominators, is a common multiple of them that holds a factor shared
    by parts once.  The parts join a running sum, lightest denominator
    first (terms times exponent over the basis factors; ties keep their
    order): the sum is lifted only by the factors a part brings, and the
    part only by those it lacks, so where partial sums cancel no
    full-size product repeats."""
    parts = [p for p in parts if not p.num.is_zero()]
    over = _division_basis(f for p in parts for f in p.dens)
    scaled = []
    for p in parts:
        unit, exps = Fraction(1), Counter()
        for f, k in p.dens.items():
            u, e = over[f]
            unit *= u ** k
            for b, j in e.items():
                exps[b] += j * k
        scaled.append((p.num if unit == 1 else p.num.scale(1 / unit), exps))
    scaled.sort(key=lambda s: sum(len(b.terms) * k for b, k in s[1].items()))
    one = MultiPoly.one()
    total_num, total_den, common = MultiPoly.zero(), one, Counter()
    for piece, exps in scaled:
        for b in (exps - common).elements():
            total_num, d = reduce_powers(total_num * b, one, rels)
            total_den = total_den * d
        pden = one
        for b in (common - exps).elements():
            piece, d = reduce_powers(piece * b, one, rels)
            pden = pden * d
        common |= exps  # the largest power of each basis element
        # piece/pden joins total_num/total_den
        total_num = total_num * pden + piece * total_den
        total_den = total_den * pden
    # a piece that needed no factor joined unreduced, and a coefficient's
    # numerator may hold relation generators
    total_num, d = reduce_powers(total_num, one, rels)
    return total_num, total_den * d, common


def _product(bag: Counter) -> MultiPoly:
    """Raw: a bag of denominators holds no relation generator to fold."""
    return prod((f ** k for f, k in bag.items()), start=MultiPoly.one())
