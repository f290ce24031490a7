"""Elliptic curve group laws and the one zero test of phi sums.

Two curve shapes are supported: the Legendre quartic
y^2 = (1-x^2)(1-m*x^2) with the sn/cn-dn addition law, and monic
depressed Weierstrass cubics y^2 = x^3 - a*x - b with the chord-tangent
law.  On top of the group laws sit the pieces needed to push elliptic
integrands through point addition: the third-kind log argument, the
second-kind corrections, and the five differential addition identities
checked under both coordinate partials.

The phi terms of phi.py become lazy parts here: a numerator over a bag
of denominator factors read off phi_shape; a log term enters as one
part c Dp/p per polynomial factor p of its argument.  phi_sum_is_zero,
the zero test that the Abel identities and liouville.verify_liouville
share, clears D_h(v0) + sum c_i phi(h v_i, v_i) - f once over the least
common multiple of its denominators, power-reduces the single big
numerator and tests it for zero.  The parts join a running sum, lightest
denominator first, and each join lifts the sum and the part only by the
factors the other holds, so where partial sums cancel, each full-size
product is formed once.  The lcm is taken over a pairwise coprime basis
of the denominator factors, so gcds run only between those small
factors, never on the big numerator.  That is orders of magnitude
cheaper than canonical arithmetic and just as conclusive.  phi_sum turns
the same cleared sum into a canonical value with one normal_form.  Both
take terms that passed phi.check_term.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .errors import (DegenerateChord, DegenerateDenominator,
                     InvalidDefiningData, ZeroDenominator)
from .poly import MultiPoly, poly_divexact, poly_gcd
from .phi import LogPhi, LPhi, ThirdKindParam, WPhi, phi_shape
from .ratfunc import normal_form, reduce_powers
from .tower import Element, PartialD, Tower, _diff_poly, _diff_rf


@dataclass(frozen=True)
class CurvePoint:
    x: Element | None
    y: Element | None
    at_infinity: bool = False

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(None, None, True)


class LegendreCurve:
    """y^2 = (1 - x^2)(1 - m x^2); identity element (0, 1)."""

    __slots__ = ("m",)

    def __init__(self, m: Element):
        if m == 0 or m == 1:
            raise InvalidDefiningData(f"modulus m = {m} is degenerate")
        self.m = m

    def rhs(self, x: Element) -> Element:
        return (1 - x * x) * (1 - self.m * x * x)

    def contains(self, p: CurvePoint) -> bool:
        if p.at_infinity:
            return False
        return p.y * p.y == self.rhs(p.x)

    def identity(self, tower: Tower) -> CurvePoint:
        return CurvePoint(tower.zero(), tower.one())


class WeierstrassCurve:
    """y^2 = x^3 - a*x - b; identity element at infinity."""

    __slots__ = ("a", "b")

    def __init__(self, a: Element, b: Element):
        disc = 4 * a ** 3 - 27 * b ** 2
        if disc.is_zero():
            raise InvalidDefiningData("singular cubic: 4a^3 - 27b^2 = 0")
        self.a = a
        self.b = b

    def rhs(self, x: Element) -> Element:
        return x ** 3 - self.a * x - self.b

    def contains(self, p: CurvePoint) -> bool:
        if p.at_infinity:
            return True
        return p.y * p.y == self.rhs(p.x)


def legendre_add(curve: LegendreCurve, p1: CurvePoint,
                 p2: CurvePoint) -> CurvePoint:
    """Addition in sn coordinates: x = sn, y = cn*dn."""
    m = curve.m
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    w = m * x1 * x1 * x2 * x2
    den = 1 - w
    if den.is_zero():
        raise DegenerateDenominator("1 - m x1^2 x2^2 = 0")
    x3 = (x1 * y2 + x2 * y1) / den
    y3 = (y1 * y2 * (1 + w)
          - x1 * x2 * (m * (1 - x1 * x1) * (1 - x2 * x2)
                       + (1 - m * x1 * x1) * (1 - m * x2 * x2))) / (den * den)
    return CurvePoint(x3, y3)


def weierstrass_add(curve: WeierstrassCurve, p1: CurvePoint,
                    p2: CurvePoint) -> CurvePoint:
    """Chord-tangent addition with the point at infinity as identity."""
    if p1.at_infinity:
        return p2
    if p2.at_infinity:
        return p1
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    if x1 == x2:
        if y1 == -y2:
            return CurvePoint.infinity()
        if y1 == y2:
            if y1.is_zero():
                return CurvePoint.infinity()
            lam = (3 * x1 * x1 - curve.a) / (2 * y1)
        else:
            raise InvalidDefiningData(
                "points share x but are not equal or opposite")
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return CurvePoint(x3, y3)


def chord_slope(p1: CurvePoint, p2: CurvePoint) -> Element:
    """(y2 - y1)/(x2 - x1) for distinct-x points."""
    dx = p2.x - p1.x
    if dx.is_zero():
        raise DegenerateChord("points share their x coordinate")
    return (p2.y - p1.y) / dx


def weierstrass_e_correction(curve: WeierstrassCurve, p1: CurvePoint,
                             p2: CurvePoint) -> Element:
    """w with x1 Dx1/y1 + x2 Dx2/y2 - x3 Dx3/y3 = D(w).

    The normalization (twice the chord slope) is pinned by the symbolic
    identity check in the test suite before this path is trusted.
    """
    return 2 * chord_slope(p1, p2)


def _chord_denominator(p1: CurvePoint, p2: CurvePoint) -> Element:
    d = p1.x * p2.y - p2.x * p1.y
    if d.is_zero():
        raise DegenerateChord("x1*y2 - x2*y1 = 0")
    return d


def abel_a0(p1: CurvePoint, p2: CurvePoint) -> Element:
    """(x2^3 y1 - x1^3 y2)/(x1 y2 - x2 y1)."""
    den = _chord_denominator(p1, p2)
    return (p2.x ** 3 * p1.y - p1.x ** 3 * p2.y) / den


def abel_e_correction(curve: LegendreCurve, p1: CurvePoint,
                      p2: CurvePoint) -> Element:
    """g = m(x1^3 x2 - x1 x2^3)/(x1 y2 - x2 y1)."""
    den = _chord_denominator(p1, p2)
    x1, x2 = p1.x, p2.x
    return curve.m * (x1 ** 3 * x2 - x1 * x2 ** 3) / den


def _abel_f_parts(prm: ThirdKindParam, p1: CurvePoint, p2: CurvePoint,
                  p3: CurvePoint):
    """Numerator and denominator of the third-kind log argument."""
    a0 = abel_a0(p1, p2)
    a = prm.a
    core = a0 * a + a ** 3
    tail = p1.x * p2.x * p3.x * prm.delta
    return core + tail, core - tail


def abel_log_argument(curve: LegendreCurve, prm: ThirdKindParam,
                      p1: CurvePoint, p2: CurvePoint,
                      p3: CurvePoint) -> Element:
    """f with Pi'(x1) + Pi'(x2) - Pi'(x3) = -(a/(2 delta)) Df/f."""
    num, den = _abel_f_parts(prm, p1, p2, p3)
    if den.is_zero():
        raise ZeroDenominator("log argument denominator vanishes")
    return num / den


# --------------------------------------------------------------------------
# Lazy sums of quotients: each part is a numerator polynomial over a bag
# of denominator factor polynomials, with no normal form of its own.  Zero
# testing clears the least common multiple of the parts' denominators,
# factored over a coprime basis, as a running sum that takes the lightest
# denominator first, then power-reduces once.


class _Part(NamedTuple):
    num: MultiPoly  # numerator polynomial
    dens: Counter   # Counter of MultiPoly factors


def _part(nums, *dens: Element) -> _Part:
    """product(nums) / product(dens), denominators kept factored: the
    nums' numerators multiply raw and their denominators join the bag."""
    num, bag = nums[0].rf.num, Counter(e.rf.den for e in nums)
    for e in nums[1:]:
        num = num * e.rf.num
    for d in dens:
        bag[d.rf.num] += 1
        if not (d.rf.den.is_const() and d.rf.den.const_value() == 1):
            num = num * d.rf.den
    return _Part(num, bag)


def _split(a: MultiPoly, g: MultiPoly) -> list:
    """[g, a/g] for monic a and g with g a proper divisor of a."""
    q = poly_divexact(a, g)
    if q is None:
        raise RuntimeError("coprime basis: a gcd does not divide its "
                           "argument")
    return [g, q]


def _coprime_basis(factors) -> dict:
    """Each nonzero factor f as (u, e): f = u * prod(b^k for b, k in e),
    with u rational and the b of all factors monic and pairwise coprime.

    Naive factor refinement (Bach, Driscoll & Shallit 1993): a factor
    that shares a gcd g with a basis element b replaces both by g and the
    cofactors.  Each split is recorded, so every factor rewrites by
    expansion, with no trial division.  Factors with no generator in
    common are coprime and skip the gcd."""
    units, monics = {}, {}
    for f in factors:
        if f in units:
            continue
        u = units[f] = f.lead_coeff()
        if not f.is_const():
            monics[f] = f if u == 1 else f.scale(1 / u)
    basis: dict = {}  # b -> its generators
    splits: dict = {}  # a -> [g, a/g], whose product is a
    work = list(monics.values())
    while work:
        a = work.pop()
        if a in basis or a in splits:
            continue
        gens = a.gens()
        for b, bgens in basis.items():
            if gens.isdisjoint(bgens):
                continue
            g = poly_gcd(a, b)
            if g.is_const():
                continue
            if g != b:
                del basis[b]
                splits[b] = _split(b, g)
                work += splits[b]
            if g != a:  # else a = g is among the pieces of b
                splits[a] = _split(a, g)
                work += splits[a]
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
    common is the least common multiple of the parts' denominators over
    a coprime basis, so a factor shared by parts is cleared once.  The
    parts join a running sum, lightest denominator first (terms times
    exponent over the basis factors; ties keep their order): the sum is
    lifted only by the factors a part brings, and the part only by those
    it lacks, so where partial sums cancel no full-size product repeats."""
    parts = [p for p in parts if not p.num.is_zero()]
    over = _coprime_basis(f for p in parts for f in p.dens)
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


def _sum_reduces_to_zero(parts, rels) -> bool:
    return _clear(parts, rels)[0].is_zero()


def phi_part(t: Tower, term: WPhi | LPhi, h) -> _Part:
    """phi(hv, v) of an elliptic shape as a lazy part: D_h(v) in the
    first slot, the shape's divisors kept apart."""
    factors, divisors = phi_shape(term)
    return _part([*factors, t.derive(h, term.v)], *divisors)


def _product(bag: Counter) -> MultiPoly:
    return prod((f ** k for f, k in bag.items()), start=MultiPoly.one())


def _phi_parts(t: Tower, h, v0: Element, terms, f) -> list:
    """The lazy parts of D_h(v0) + sum c * phi(h v, v) - f.  A log term
    c log(n/d) adds c to factor n and -c to d; each factor p whose sum c is
    not 0 gives one part c Dp/p, Dp raw."""
    get = t._dget(h)
    parts, logs = [], {}  # logs: p -> ([signed coefficients], raw Dp)
    for c, term in terms:
        c = t.coerce(c)
        if not isinstance(term, LogPhi):
            p = phi_part(t, term, h)
            parts.append(_Part(p.num * c.rf.num, p.dens + Counter([c.rf.den])))
            continue
        n, d = term.v.rf
        for p in (n, d):
            if p not in logs:
                logs[p] = ([], _diff_poly(p, get))
        logs[n][0].append(c)
        logs[d][0].append(-c)
    for p, (cs, (dn, dd)) in logs.items():
        c = sum(cs[1:], cs[0])
        if not (dn.is_zero() or c.is_zero()):
            parts.append(_Part(c.rf.num * dn, Counter((p, c.rf.den, dd))))
    dn, dd = _diff_rf(t.coerce(v0).rf, get)
    fn, fd = t.coerce(f).rf
    return parts + [_Part(dn, Counter([dd])), _Part(-fn, Counter([fd]))]


def phi_sum_is_zero(t: Tower, h, v0: Element, terms, f=0) -> bool:
    """Whether D_h(v0) + sum c * phi(h v, v) - f is zero in t.

    terms holds (c, phi term) pairs.  Every summand stays a lazy part,
    the log terms merged per factor, so the test builds no canonical sum;
    its gcds run only between denominator factors, never on the big
    numerator.  Clearing multiplies through by every divisor, so the
    terms must have passed phi.check_term, as a LiouvilleForm's have.
    """
    return _sum_reduces_to_zero(_phi_parts(t, h, v0, terms, f), t.rels)


def phi_sum(t: Tower, h, v0: Element, terms, f=0) -> Element:
    """D_h(v0) + sum c * phi(h v, v) - f as a canonical element: the
    same cleared sum as phi_sum_is_zero, put in normal form once, with
    the same precondition on the terms."""
    num, den, common = _clear(_phi_parts(t, h, v0, terms, f), t.rels)
    return Element(t, normal_form(num, den * _product(common), t.rels))


# --------------------------------------------------------------------------
# Symbolic verification towers and the identity checks.  Each identity
# phi(p1) + phi(p2) - phi(p3) + D(v0) + (log terms) = 0 for p3 = p1 + p2
# is tested under both coordinate partials.


@dataclass(frozen=True)
class AbelReport:
    kind: str
    residues: tuple  # (label, zero: bool)
    passed: bool


def _legendre_tower(with_pole: bool):
    t = Tower.base().const("m")
    if with_pole:
        t = t.const("a")
    t = t.var("x1").var("x2")
    m = t["m"]
    t = t.sqrt_ext("y1", (1 - t["x1"] ** 2) * (1 - m * t["x1"] ** 2))
    t = t.sqrt_ext("y2", (1 - t["x2"] ** 2) * (1 - m * t["x2"] ** 2))
    if with_pole:
        a = t["a"]
        t = t.sqrt_ext("delta", (1 - a ** 2) * (1 - m * a ** 2))
    return t


def _weierstrass_tower():
    t = Tower.base().const("a").const("b").var("x1").var("x2")
    t = t.sqrt_ext("y1", t["x1"] ** 3 - t["a"] * t["x1"] - t["b"])
    t = t.sqrt_ext("y2", t["x2"] ** 3 - t["a"] * t["x2"] - t["b"])
    return t


def _symbolic_sum(t: Tower, curve, add):
    """The two generic points of t and their sum under add."""
    p1 = CurvePoint(t["x1"], t["y1"])
    p2 = CurvePoint(t["x2"], t["y2"])
    return p1, p2, add(curve, p1, p2)


def _addition_terms(shape, p1, p2, p3) -> list:
    return [(1, shape(p1)), (1, shape(p2)), (-1, shape(p3))]


def _under_partials(t: Tower, v0: Element, terms) -> list:
    """(label, zero) for the identity under d/dx1 and d/dx2."""
    return [(f"d/d{label}",
             phi_sum_is_zero(t, PartialD(t.gen_of(label).gid), v0, terms))
            for label in ("x1", "x2")]


ABEL_KINDS = ("f", "e", "pi", "w1", "w2")


def check_abel_identity(kind: str) -> AbelReport:
    """Verify one addition identity under both coordinate partials.

    Kinds (ABEL_KINDS): "f" and "e" and "pi" run on the symbolic Legendre
    tower, "w1" and "w2" on the symbolic Weierstrass tower, "w2" with the
    correction x1 Dx1/y1 + x2 Dx2/y2 - x3 Dx3/y3 = D(2 lambda).  Everything
    stays exact; the verdict is per-derivation reduction to zero.
    """
    kind = kind.lower()
    if kind in ("f", "e", "pi"):
        t = _legendre_tower(with_pole=(kind == "pi"))
        curve = LegendreCurve(t["m"])
        p1, p2, p3 = _symbolic_sum(t, curve, legendre_add)
        prm = ThirdKindParam(t["a"], t["delta"]) if kind == "pi" else None
        lkind = {"f": 1, "e": 2, "pi": 3}[kind]
        terms = _addition_terms(
            lambda p: LPhi(lkind, p.x, p.y, curve.m, prm), p1, p2, p3)
    elif kind in ("w1", "w2"):
        t = _weierstrass_tower()
        curve = WeierstrassCurve(t["a"], t["b"])
        p1, p2, p3 = _symbolic_sum(t, curve, weierstrass_add)
        wkind = int(kind[1])
        terms = _addition_terms(
            lambda p: WPhi(wkind, p.x, p.y, curve.a, curve.b), p1, p2, p3)
    else:
        raise InvalidDefiningData(f"unknown identity kind {kind!r}")

    v0 = t.zero()
    if kind == "e":
        v0 = -abel_e_correction(curve, p1, p2)
    elif kind == "w2":
        v0 = -weierstrass_e_correction(curve, p1, p2)
    elif kind == "pi":
        # + (a/(2 delta)) * (D num/num - D den/den) of the log argument
        fnum, fden = _abel_f_parts(prm, p1, p2, p3)
        scale = prm.a / (2 * prm.delta)
        terms += [(scale, LogPhi(fnum)), (-scale, LogPhi(fden))]
    # no check_term: the towers adjoin square roots of radicands in
    # distinct variables x1, x2, and one constant radicand in the free
    # parameters a and m, so they hold no zero divisor
    rows = _under_partials(t, v0, terms)
    return AbelReport(kind, tuple(rows), all(zero for _, zero in rows))
