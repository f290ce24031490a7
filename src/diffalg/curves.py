"""Elliptic curve group laws and the Abel addition identities.

Two curve shapes are supported: the Legendre quartic
y^2 = (1-x^2)(1-m*x^2) with the sn/cn-dn addition law, and monic
depressed Weierstrass cubics y^2 = x^3 - a*x - b with the chord-tangent
law.  On top of the group laws sit the pieces needed to push elliptic
integrands through point addition: the third-kind log argument, the
second-kind corrections, and coefficient-wise verification of the four
differential addition identities under both coordinate partials.

The identity checks never rationalize their way to a canonical form.
Each summand is kept as numerator over a bag of denominator factors;
the whole sum is cleared over the common denominator and the single
big numerator is power-reduced and tested for zero.  That is orders of
magnitude cheaper than canonical arithmetic and just as conclusive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (DegenerateChord, DegenerateDenominator,
                     InvalidDefiningData, ZeroDenominator)
from .poly import MultiPoly
from .ratfunc import reduce_powers
from .tower import Element, PartialD, Tower


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
        for bad, what in ((0, "0"), (1, "1")):
            if (m - bad).is_zero():
                raise InvalidDefiningData(f"modulus m = {what} is degenerate")
        self.m = m

    def rhs(self, x: Element) -> Element:
        return (1 - x * x) * (1 - self.m * x * x)

    def contains(self, p: CurvePoint) -> bool:
        if p.at_infinity:
            return False
        return (p.y * p.y - self.rhs(p.x)).is_zero()

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
        return (p.y * p.y - self.rhs(p.x)).is_zero()


@dataclass(frozen=True)
class ThirdKindParam:
    """Pole data for third-kind integrands: constant a and
    delta = sqrt((1-a^2)(1-m*a^2)) realized in the tower."""

    a: Element
    delta: Element

    def validate(self, m: Element) -> None:
        a = self.a
        rel = self.delta * self.delta - (1 - a * a) * (1 - m * a * a)
        if not rel.is_zero():
            raise InvalidDefiningData(
                "delta^2 = (1-a^2)(1-m a^2) fails in the tower")


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
    if (x1 - x2).is_zero():
        if (y1 + y2).is_zero():
            return CurvePoint.infinity()
        if (y1 - y2).is_zero():
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
# of denominator factor polynomials.  Zero testing clears the common
# denominator and power-reduces once.


class _Part:
    __slots__ = ("num", "den_extra", "dens")

    def __init__(self, num: MultiPoly, den_extra: MultiPoly, dens: Counter):
        self.num = num          # numerator polynomial
        self.den_extra = den_extra  # uncounted denominator (from reductions)
        self.dens = dens        # Counter of MultiPoly factors


def _part(numel: Element, *dens: Element) -> _Part:
    """numel / product(dens), denominators kept factored."""
    num = numel.rf.num
    extra = numel.rf.den
    bag: Counter = Counter()
    for d in dens:
        if d.rf.num.is_zero():
            raise ZeroDenominator("zero denominator in identity part")
        bag[d.rf.num] += 1
        if not (d.rf.den.is_const() and d.rf.den.const_value() == 1):
            num = num * d.rf.den
    return _Part(num, extra, bag)


def _part_scale(p: _Part, c: Element) -> _Part:
    num = p.num * c.rf.num
    extra = p.den_extra * c.rf.den
    return _Part(num, extra, p.dens)


def _part_neg(p: _Part) -> _Part:
    return _Part(-p.num, p.den_extra, p.dens)


def _sum_reduces_to_zero(parts, rels) -> bool:
    parts = [p for p in parts if not p.num.is_zero()]
    if not parts:
        return True
    common: Counter = Counter()
    for p in parts:
        for f, k in p.dens.items():
            if common[f] < k:
                common[f] = k
    total_num = MultiPoly.zero()
    total_den = MultiPoly.one()
    for p in parts:
        piece, pden = p.num, p.den_extra
        missing = common - p.dens
        for f, k in missing.items():
            for _ in range(k):
                piece = piece * f
                piece, d = reduce_powers(piece, MultiPoly.one(), rels)
                pden = pden * d
        # piece/pden joins total_num/total_den
        total_num = total_num * pden + piece * total_den
        total_den = total_den * pden
        total_num, d = reduce_powers(total_num, MultiPoly.one(), rels)
        total_den = total_den * d
    return total_num.is_zero()


# --------------------------------------------------------------------------
# Canonical verification towers and the identity checks.


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


def check_abel_identity(kind: str) -> AbelReport:
    """Verify one addition identity under both coordinate partials.

    Kinds: "f" and "e" and "pi" run on the symbolic Legendre tower,
    "w1" on the symbolic Weierstrass tower.  Everything stays exact;
    the verdict is per-derivation reduction to zero.
    """
    kind = kind.lower()
    if kind in ("f", "e", "pi"):
        t = _legendre_tower(with_pole=(kind == "pi"))
        curve = LegendreCurve(t["m"])
        p1 = CurvePoint(t["x1"], t["y1"])
        p2 = CurvePoint(t["x2"], t["y2"])
        p3 = legendre_add(curve, p1, p2)
        builder = {"f": _parts_first_kind_legendre,
                   "e": _parts_second_kind_legendre,
                   "pi": _parts_third_kind_legendre}[kind]
        ctx = (t, curve, p1, p2, p3)
    elif kind == "w1":
        t = _weierstrass_tower()
        curve = WeierstrassCurve(t["a"], t["b"])
        p1 = CurvePoint(t["x1"], t["y1"])
        p2 = CurvePoint(t["x2"], t["y2"])
        p3 = weierstrass_add(curve, p1, p2)
        builder = _parts_first_kind_weierstrass
        ctx = (t, curve, p1, p2, p3)
    else:
        raise InvalidDefiningData(f"unknown identity kind {kind!r}")

    rows = []
    passed = True
    for label in ("x1", "x2"):
        handle = PartialD(t.gen_of(label).gid)
        parts = builder(ctx, handle)
        zero = _sum_reduces_to_zero(parts, t.rels)
        rows.append((f"d/d{label}", zero))
        passed = passed and zero
    return AbelReport(kind, tuple(rows), passed)


def _dx(t: Tower, handle, pt: CurvePoint) -> Element:
    return t.derive(handle, pt.x)


def _parts_first_kind_legendre(ctx, handle):
    t, curve, p1, p2, p3 = ctx
    return [
        _part(_dx(t, handle, p1), p1.y),
        _part(_dx(t, handle, p2), p2.y),
        _part_neg(_part(_dx(t, handle, p3), p3.y)),
    ]


def _parts_first_kind_weierstrass(ctx, handle):
    return _parts_first_kind_legendre(ctx, handle)


def _parts_second_kind_legendre(ctx, handle):
    t, curve, p1, p2, p3 = ctx
    m = curve.m
    g = abel_e_correction(curve, p1, p2)
    dg = t.derive(handle, g)
    return [
        _part((1 - m * p1.x ** 2) * _dx(t, handle, p1), p1.y),
        _part((1 - m * p2.x ** 2) * _dx(t, handle, p2), p2.y),
        _part_neg(_part((1 - m * p3.x ** 2) * _dx(t, handle, p3), p3.y)),
        _part_neg(_part(dg)),
    ]


def _parts_third_kind_legendre(ctx, handle):
    t, curve, p1, p2, p3 = ctx
    a = t["a"]
    delta = t["delta"]
    prm = ThirdKindParam(a, delta)
    fnum, fden = _abel_f_parts(prm, p1, p2, p3)
    scale = a / (2 * delta)

    parts = []
    for p in (p1, p2):
        parts.append(_part(_dx(t, handle, p), (1 - p.x ** 2 / a ** 2) * p.y))
    parts.append(_part_neg(
        _part(_dx(t, handle, p3), (1 - p3.x ** 2 / a ** 2) * p3.y)))
    # + (a/(2 delta)) * (D num/num - D den/den)
    parts.append(_part_scale(_part(t.derive(handle, fnum), fnum), scale))
    parts.append(_part_neg(
        _part_scale(_part(t.derive(handle, fden), fden), scale)))
    return parts


def check_w2_chord_identity() -> bool:
    """Oracle for the second-kind Weierstrass correction:
    x1 Dx1/y1 + x2 Dx2/y2 - x3 Dx3/y3 - D(2 lambda) = 0."""
    t = _weierstrass_tower()
    curve = WeierstrassCurve(t["a"], t["b"])
    p1 = CurvePoint(t["x1"], t["y1"])
    p2 = CurvePoint(t["x2"], t["y2"])
    p3 = weierstrass_add(curve, p1, p2)
    corr = weierstrass_e_correction(curve, p1, p2)
    for label in ("x1", "x2"):
        handle = PartialD(t.gen_of(label).gid)
        parts = [
            _part(p1.x * _dx(t, handle, p1), p1.y),
            _part(p2.x * _dx(t, handle, p2), p2.y),
            _part_neg(_part(p3.x * _dx(t, handle, p3), p3.y)),
            _part_neg(_part(t.derive(handle, corr))),
        ]
        if not _sum_reduces_to_zero(parts, t.rels):
            return False
    return True
