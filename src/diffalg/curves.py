"""Elliptic curve group laws and the one zero test of phi sums.

The two curve models, each stated once with its nonsingularity by its
class in phi.py and re-exported here, add points by the sn/cn-dn law on
the Legendre quartic and the chord-tangent law on the Weierstrass
cubic.  On top of the group laws sits Abel's addition theorem, stated
once for both models by abel_step: phi at p1 and p2 becomes phi at
p1 + p2 under the model's group law, the second kind adds a rational
correction and the Legendre third kind a log term.  The five
differential addition identities check that statement at symbolic
points under both coordinate partials, the second by the exchange
(x1, y1) <-> (x2, y2) where that is a symmetry, and
liouville.reduce_algebraic applies it to a point and its conjugate.

The phi terms of phi.py become lazy parts here: a numerator over a bag
of denominator factors read off phi_shape; a log term enters as one
part c Dp/p per polynomial factor p of its argument, but a factor and
its conjugate under a square root share one part over their norm.
phi_sum_is_zero, the zero test that the Abel identities and
liouville.verify_liouville share, clears D_h(v0) + sum c_i phi(h v_i,
v_i) - f once over a common multiple of its denominators (ratfunc._clear),
power-reduces the single big numerator and tests it for zero.  The
parts join a running sum, lightest denominator first, and each join
lifts the sum and the part only by the factors the other holds, so
where partial sums cancel, each full-size product is formed once.  The
multiple is the top powers over a division basis of the denominator
factors, which splits two only where one divides the other exactly, so
the clearing runs no gcd.  That is orders of magnitude cheaper than
canonical arithmetic and just as conclusive.  phi_sum turns the same
cleared sum into a canonical value with one normal_form.  Both take
terms that passed phi.check_term.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (DegenerateChord, DegenerateDenominator,
                     InvalidDefiningData)
from .poly import MultiPoly
from .phi import (TERM_KINDS, CurvePoint, LegendreCurve, LogPhi, LPhi,
                  ThirdKindParam, WeierstrassCurve, WPhi, make_term,
                  phi_shape, term_args)
from .ratfunc import _clear, _Part, _product, reduce_powers
from .tower import (AlgebraicSqrt, ConstParam, Element, PartialD, Tower,
                    _diff_poly, _diff_rf)


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
            lam = (3 * x1 * x1 - curve.a) / (2 * y1)
        else:
            raise InvalidDefiningData(
                "points share x but are not equal or opposite")
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return CurvePoint(x3, y3)


def abel_step(name: str, data, p1: CurvePoint, p2: CurvePoint):
    """Abel's addition theorem for the curve phi term name: (p3, w, log).

    name is l1, l2, l3, w1 or w2, and data the term's elements after v
    and y (m; m, a, delta; or a, b).  With phi(p) = phi(D x, x) at
    p = (x, y) and p3 = p1 + p2 under the model's group law,

        phi(p1) + phi(p2) = phi(p3) + D(w) + c D log(num/den),

    where log = (c, num, den) for the Legendre third kind and None
    otherwise.  w is 0 but for the second kind: twice the chord slope
    lambda on the cubic, m(x1^3 x2 - x1 x2^3)/(x1 y2 - x2 y1) on the
    quartic.  On the third kind c = -a/(2 delta), and with
    a0 = (x2^3 y1 - x1^3 y2)/(x1 y2 - x2 y1) the log argument is
    (a0 a + a^3 + x1 x2 x3 delta)/(a0 a + a^3 - x1 x2 x3 delta), whose
    numerator times denominator is (x1^2 - a^2)(x2^2 - a^2)(a^2 - x3^2)
    on the curve: one of them is 0 only when a point lies on the pole
    x = +-a, where a term at p1 or p2 is refused and p3 is refused here.
    check_abel_identity verifies each statement on symbolic points, and
    liouville.reduce_algebraic applies it to a point and its conjugate.
    """
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    w = x1.tower.zero()
    if name[0] == "w":
        p3 = weierstrass_add(WeierstrassCurve(*data), p1, p2)
        if name == "w2":
            dx = x2 - x1
            if dx.is_zero():
                raise DegenerateChord("points share their x coordinate")
            w = 2 * ((y2 - y1) / dx)
        return p3, w, None
    m = data[0]
    p3 = legendre_add(LegendreCurve(m), p1, p2)
    if name == "l1":
        return p3, w, None
    chord = x1 * y2 - x2 * y1
    if chord.is_zero():
        raise DegenerateChord("x1*y2 - x2*y1 = 0")
    if name == "l2":
        return p3, m * (x1 ** 3 * x2 - x1 * x2 ** 3) / chord, None
    a, delta = data[1:]
    core = (x2 ** 3 * y1 - x1 ** 3 * y2) / chord * a + a ** 3
    tail = x1 * x2 * p3.x * delta
    num, den = core + tail, core - tail
    if num.is_zero() or den.is_zero():
        raise DegenerateDenominator("the sum point lies on the third-kind "
                                    "pole x = +-a")
    return p3, w, (-a / (2 * delta), num, den)


def _part(nums, *dens: Element) -> _Part:
    """product(nums) / product(dens), denominators kept factored: the
    nums' numerators multiply raw and their denominators join the bag."""
    num, bag = nums[0].rf.num, Counter(e.rf.den for e in nums)
    for e in nums[1:]:
        num = num * e.rf.num
    for d in dens:
        bag[d.rf.num] += 1
        num = num * d.rf.den  # a unit denominator multiplies by nothing
    return _Part(num, bag)


def _sum_reduces_to_zero(parts, rels) -> bool:
    return _clear(parts, rels)[0].is_zero()


def phi_part(t: Tower, term: WPhi | LPhi, h) -> _Part:
    """phi(hv, v) of an elliptic shape as a lazy part: D_h(v) in the
    first slot, the shape's divisors kept apart."""
    factors, divisors = phi_shape(term)
    return _part([*factors, t.derive(h, term.v)], *divisors)


def _phi_parts(t: Tower, h, v0: Element, terms, f) -> list:
    """The lazy parts of D_h(v0) + sum c * phi(h v, v) - f.

    A log term c log(n/d) adds c to factor n and -c to d; each factor p
    whose sum c is not 0 gives one part c Dp/p, Dp raw, but a conjugate
    pair.  Where p holds a relation generator g and its conjugate pb
    (g -> -g) is a factor too, with sum cb, the two share one part

        (c Dp pb + cb Dpb p) / (p pb) = F (c Dp pb + cb Dpb p) / N,

    where reduce_powers folds p pb to N/F, free of g.  A norm is often
    the product of factors the sum holds anyway, as in the third-kind
    Abel identity and the integrands of square-root logs, so less is
    cleared than with p and pb apart (Trager 1984 takes a log and its
    conjugate over their norm too).  A factor without its conjugate keeps
    its own part: multiplying it through by the conjugate was slower.

    The pair is sound: the shared part is an identity in the polynomial
    ring, and p pb = N/F modulo the relations.  Clearing multiplies
    through by N, so N must be no zero divisor.  Canonical denominators
    hold no relation generator, so only log-argument numerators pair;
    phi.check_term has refused a numerator that is a zero divisor, and
    conjugation is an automorphism, so p, pb and p pb are none.  The
    towers of the Abel identities hold no zero divisor by construction.
    """
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
    live = {}  # p -> (summed c, raw Dp), for each p whose part is not 0
    for p, (cs, (dn, dd)) in logs.items():
        c = sum(cs[1:], cs[0])
        if not (dn.is_zero() or c.is_zero()):
            live[p] = (c, dn, dd)
    for p in list(live):
        if p not in live:
            continue  # taken by its conjugate
        c, dn, dd = live.pop(p)
        gens = sorted(p.gens() & t.rels.keys())
        bar = next((q for q in map(p.conj_gen, gens) if q in live), None)
        if bar is None:
            parts.append(_Part(c.rf.num * dn, Counter((p, c.rf.den, dd))))
            continue
        cb, bn, bd = live.pop(bar)
        mine, its = Counter((c.rf.den, dd)), Counter((cb.rf.den, bd))
        bag = mine | its
        norm, fold_den = reduce_powers(p * bar, MultiPoly.one(), t.rels)
        num = (c.rf.num * dn * bar * _product(bag - mine)
               + cb.rf.num * bn * p * _product(bag - its))
        parts.append(_Part(num * fold_den, bag + Counter([norm])))
    dn, dd = _diff_rf(t.coerce(v0).rf, get)
    fn, fd = t.coerce(f).rf
    return parts + [_Part(dn, Counter([dd])), _Part(-fn, Counter([fd]))]


def phi_sum_is_zero(t: Tower, h, v0: Element, terms, f=0) -> bool:
    """Whether D_h(v0) + sum c * phi(h v, v) - f is zero in t.

    terms holds (c, phi term) pairs.  Every summand stays a lazy part,
    the log terms merged per factor, so the test builds no canonical sum,
    and it runs no gcd: denominator factors split by exact division
    alone.  Clearing multiplies through by every divisor, so the
    terms must have passed phi.check_term, as a LiouvilleForm's have.
    """
    return _sum_reduces_to_zero(_phi_parts(t, h, v0, terms, f), t.rels)


def phi_sum(t: Tower, h, v0: Element, terms, f=0) -> Element:
    """D_h(v0) + sum c * phi(h v, v) - f as a canonical element: the
    same cleared sum as phi_sum_is_zero, put in normal form once, with
    the same precondition on the terms."""
    num, den, common = _clear(_phi_parts(t, h, v0, terms, f), t.rels)
    return Element(t, t._nf(num, den * _product(common)))


# --------------------------------------------------------------------------
# Symbolic verification towers and the identity checks.  Each identity
# phi(p1) + phi(p2) - phi(p3) + D(v0) + (log terms) = 0 for p3 = p1 + p2
# is tested under d/dx1; the d/dx2 row copies that verdict where the
# exchange of p1 and p2 is proved a symmetry, and is tested otherwise.


@dataclass(frozen=True)
class AbelReport:
    kind: str
    residues: tuple  # (label, zero: bool)
    passed: bool
    by_exchange: tuple  # labels of the rows copied by x1 <-> x2


def _legendre_tower(with_pole: bool):
    t = Tower.base().const("m")
    if with_pole:
        t = t.const("a")
    t = t.var("x1").var("x2")
    curve = LegendreCurve(t["m"])
    t = t.sqrt_ext("y1", curve.rhs(t["x1"]))
    t = t.sqrt_ext("y2", curve.rhs(t["x2"]))
    if with_pole:
        t = t.sqrt_ext("delta", curve.rhs(t["a"]))
    return t


def _weierstrass_tower():
    # the radicands are written out, not read from WeierstrassCurve.rhs:
    # abel_step builds the curve of the identity, and a second one here
    # would form the discriminant again inside the pinned work
    t = Tower.base().const("a").const("b").var("x1").var("x2")
    t = t.sqrt_ext("y1", t["x1"] ** 3 - t["a"] * t["x1"] - t["b"])
    t = t.sqrt_ext("y2", t["x2"] ** 3 - t["a"] * t["x2"] - t["b"])
    return t


def _exchange_fixes(t: Tower, v0: Element, terms) -> bool:
    """Whether the exchange sigma: (x1, y1) <-> (x2, y2) is an automorphism
    of t that fixes the form.  On t: every generator keeps its kind, sigma
    maps the radicand of each square root to that of its image, and every
    generator that sigma fixes is a constant or a square root.  On the
    form: sigma fixes v0 and maps the table {term: summed coefficient}
    onto itself, coefficients included.  Each test is == on canonical
    values."""
    pairs = [(t.gen_of(a).gid, t.gen_of(b).gid)
             for a, b in (("x1", "x2"), ("y1", "y2"))]
    ids = dict(pairs + [(h, g) for g, h in pairs])

    def sigma(e) -> Element:
        return t.coerce(e).swap(*pairs)

    for g in t.generators:
        image = t.gen_of(ids.get(g.gid, g.gid)).kind
        if type(image) is not type(g.kind):
            return False
        if isinstance(image, AlgebraicSqrt):
            if sigma(g.kind.radicand) != t.coerce(image.radicand):
                return False
        elif g.gid not in ids and not isinstance(image, ConstParam):
            return False
    table: dict = {}
    for c, term in terms:
        c = t.coerce(c)
        table[term] = table[term] + c if term in table else c
    for term, c in table.items():
        name, args = term_args(term)
        if table.get(make_term(name, [sigma(e) for e in args])) != sigma(c):
            return False
    return sigma(v0) == v0


def _under_partials(t: Tower, v0: Element, terms) -> tuple:
    """The rows (label, zero) of the identity under d/dx1 and d/dx2, and
    the labels of the rows that the exchange sigma decided.

    sigma: (x1, y1) <-> (x2, y2) fixes Q and the constants, and
    sigma d/dx1 = d/dx2 sigma on every generator: on x1 and x2 by the
    definition of PartialD, on a square root s of r by h(s) = h(r)/(2s).
    So when sigma is an automorphism of t that fixes the form
    (_exchange_fixes), the d/dx2 sum is sigma of the d/dx1 sum, and sigma
    is injective: the d/dx2 row copies the d/dx1 verdict, PASS and FAIL
    alike.  Otherwise it takes its own zero test.
    """
    h1, h2 = (PartialD(t.gen_of(label).gid) for label in ("x1", "x2"))
    zero = phi_sum_is_zero(t, h1, v0, terms)
    if _exchange_fixes(t, v0, terms):
        return [("d/dx1", zero), ("d/dx2", zero)], ("d/dx2",)
    return [("d/dx1", zero),
            ("d/dx2", phi_sum_is_zero(t, h2, v0, terms))], ()


ABEL_KINDS = ("f", "e", "pi", "w1", "w2")
# the phi term each identity adds at p1, p2 and p3 = p1 + p2
_IDENTITY_TERMS = {"f": "l1", "e": "l2", "pi": "l3", "w1": "w1", "w2": "w2"}


def check_abel_identity(kind: str) -> AbelReport:
    """Verify one addition identity under both coordinate partials.

    Kinds (ABEL_KINDS): "f" and "e" and "pi" run on the symbolic Legendre
    tower, "w1" and "w2" on the symbolic Weierstrass tower.  The identity
    is abel_step's statement at p1 = (x1, y1) and p2 = (x2, y2), with
    v0 = -w and the log terms moved to the left.  Everything stays exact;
    the verdict is per-derivation reduction to zero.  The
    group law commutes, so the exchange sigma: (x1, y1) <-> (x2, y2) maps
    the d/dx1 sum onto the d/dx2 sum; where _under_partials proves sigma
    an automorphism of the tower that fixes the form, the d/dx2 row copies
    the d/dx1 verdict, and the report's by_exchange names it.
    """
    name = _IDENTITY_TERMS.get(kind.lower())
    if name is None:
        raise InvalidDefiningData(f"unknown identity kind {kind!r}")
    t = (_weierstrass_tower() if name[0] == "w"
         else _legendre_tower(with_pole=(name == "l3")))
    data = [t[g] for g in TERM_KINDS[name].split(", ")[2:]]
    p1, p2 = CurvePoint(t["x1"], t["y1"]), CurvePoint(t["x2"], t["y2"])
    p3, w, log = abel_step(name, data, p1, p2)
    terms = [(c, make_term(name, [p.x, p.y, *data]))
             for c, p in ((1, p1), (1, p2), (-1, p3))]
    if log is not None:
        # the log split in two keeps num/den out of normal form
        c, num, den = log
        terms += [(-c, LogPhi(num)), (c, LogPhi(den))]
    # no check_term: the towers adjoin square roots of radicands in
    # distinct variables x1, x2, and one constant radicand in the free
    # parameters a and m, so they hold no zero divisor
    rows, by_exchange = _under_partials(t, -w, terms)
    return AbelReport(kind.lower(), tuple(rows),
                      all(zero for _, zero in rows), by_exchange)
