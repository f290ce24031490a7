"""Curve group laws, Abel addition identities, numeric cross-checks."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipj

from diffalg import curves
from diffalg.curves import (CurvePoint, LegendreCurve, LPhi, ThirdKindParam,
                            WeierstrassCurve, abel_a0, abel_e_correction,
                            abel_log_argument, check_abel_identity,
                            check_w2_chord_identity, chord_slope,
                            legendre_add, phi_sum_is_zero, weierstrass_add,
                            weierstrass_e_correction, _abel_f_parts, _clear,
                            _coprime_basis, _legendre_tower, _Part,
                            _weierstrass_tower)
from diffalg.errors import (DegenerateChord, DegenerateDenominator,
                            InvalidDefiningData)
from diffalg.poly import MONO_ONE, MultiPoly, poly_gcd
from diffalg.ratfunc import normal_form
from diffalg.tower import PartialD, Tower


def legendre_setup():
    t = _legendre_tower(with_pole=False)
    curve = LegendreCurve(t["m"])
    p1 = CurvePoint(t["x1"], t["y1"])
    p2 = CurvePoint(t["x2"], t["y2"])
    return t, curve, p1, p2


def weierstrass_setup():
    t = _weierstrass_tower()
    curve = WeierstrassCurve(t["a"], t["b"])
    p1 = CurvePoint(t["x1"], t["y1"])
    p2 = CurvePoint(t["x2"], t["y2"])
    return t, curve, p1, p2


def test_curve_constructors_reject_degenerate():
    t = Tower.base().var("x")
    with pytest.raises(InvalidDefiningData):
        LegendreCurve(t.lit(0))
    with pytest.raises(InvalidDefiningData):
        LegendreCurve(t.lit(1))
    with pytest.raises(InvalidDefiningData):
        WeierstrassCurve(t.lit(3), t.lit(2))  # 4*27 - 27*4 = 0


def test_legendre_identity_point():
    t, curve, p1, _ = legendre_setup()
    e = curve.identity(t)
    assert curve.contains(e)
    q = legendre_add(curve, p1, e)
    assert (q.x - p1.x).is_zero() and (q.y - p1.y).is_zero()


def test_legendre_add_stays_on_curve():
    t, curve, p1, p2 = legendre_setup()
    assert curve.contains(p1) and curve.contains(p2)
    p3 = legendre_add(curve, p1, p2)
    assert curve.contains(p3)


def test_legendre_add_commutes():
    t, curve, p1, p2 = legendre_setup()
    q12 = legendre_add(curve, p1, p2)
    q21 = legendre_add(curve, p2, p1)
    assert (q12.x - q21.x).is_zero() and (q12.y - q21.y).is_zero()


def test_legendre_degenerate_denominator():
    # m = 1/4, x1 = 2, x2 = 1 gives m x1^2 x2^2 = 1
    t = Tower.base().var("x")
    curve = LegendreCurve(t.lit(1) / 4)
    p1 = CurvePoint(t.lit(2), t.lit(0))
    p2 = CurvePoint(t.lit(1), t.lit(0))
    assert curve.contains(p1) and curve.contains(p2)
    with pytest.raises(DegenerateDenominator):
        legendre_add(curve, p1, p2)


def test_weierstrass_identity_and_negation():
    t, curve, p1, _ = weierstrass_setup()
    inf = CurvePoint.infinity()
    assert curve.contains(inf)
    assert weierstrass_add(curve, p1, inf) is p1
    assert weierstrass_add(curve, inf, p1) is p1
    neg = CurvePoint(p1.x, -p1.y)
    assert weierstrass_add(curve, p1, neg).at_infinity


def test_weierstrass_add_stays_on_curve():
    t, curve, p1, p2 = weierstrass_setup()
    p3 = weierstrass_add(curve, p1, p2)
    assert curve.contains(p3)


def test_weierstrass_doubling():
    t, curve, p1, _ = weierstrass_setup()
    dbl = weierstrass_add(curve, p1, p1)
    assert curve.contains(dbl)
    # doubling a 2-torsion point (y = 0) lands at infinity
    tt = Tower.base().var("x")
    c2 = WeierstrassCurve(tt.lit(1), tt.lit(0))  # y^2 = x^3 - x
    tors = CurvePoint(tt.lit(1), tt.lit(0))
    assert c2.contains(tors)
    assert weierstrass_add(c2, tors, tors).at_infinity


def test_weierstrass_same_x_mismatch_rejected():
    t = Tower.base().var("x")
    curve = WeierstrassCurve(t.lit(1), t.lit(0))
    with pytest.raises(InvalidDefiningData):
        weierstrass_add(curve, CurvePoint(t.lit(2), t.lit(1)),
                        CurvePoint(t.lit(2), t.lit(3)))


def test_chord_slope_degenerate():
    t, curve, p1, _ = weierstrass_setup()
    with pytest.raises(DegenerateChord):
        chord_slope(p1, p1)


# -- Abel identities -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["f", "e", "w1"])
def test_abel_identity(kind):
    rep = check_abel_identity(kind)
    assert rep.kind == kind
    assert rep.passed
    assert all(zero for _, zero in rep.residues)
    assert len(rep.residues) == 2  # both coordinate derivations


def test_doubled_second_kind_correction_fails():
    # phi(p1) + phi(p2) - phi(p3) = D(g) holds with v0 = -g, and the same
    # shared zero test must reject v0 = -2g under each partial.
    t, curve, p1, p2 = legendre_setup()
    p3 = legendre_add(curve, p1, p2)
    terms = [(c, LPhi(2, p.x, p.y, curve.m))
             for c, p in ((1, p1), (1, p2), (-1, p3))]
    g = abel_e_correction(curve, p1, p2)
    for label in ("x1", "x2"):
        h = PartialD(t.gen_of(label).gid)
        assert phi_sum_is_zero(t, h, -g, terms)
        assert not phi_sum_is_zero(t, h, -2 * g, terms)


def test_w2_correction_normalization():
    # pins the 2*lambda normalization used by the reduction engine
    assert check_w2_chord_identity()
    t, curve, p1, p2 = weierstrass_setup()
    w = weierstrass_e_correction(curve, p1, p2)
    assert (w - 2 * chord_slope(p1, p2)).is_zero()


def test_abel_f_properties():
    t = _legendre_tower(with_pole=True)
    curve = LegendreCurve(t["m"])
    prm = ThirdKindParam(t["a"], t["delta"])
    prm.validate(t["m"])
    p1 = CurvePoint(t["x1"], t["y1"])
    p2 = CurvePoint(t["x2"], t["y2"])
    p3 = legendre_add(curve, p1, p2)
    num, den = _abel_f_parts(prm, p1, p2, p3)

    # swapping the points leaves f unchanged
    n2, d2 = _abel_f_parts(prm, p2, p1, p3)
    assert (num * d2 - n2 * den).is_zero()

    # delta -> -delta inverts f
    neg = ThirdKindParam(t["a"], -t["delta"])
    n3, d3 = _abel_f_parts(neg, p1, p2, p3)
    assert (num * n3 - den * d3).is_zero() or (num * d3 - den * n3).is_zero()
    # specifically num<->den swap
    assert (n3 - den).is_zero() and (d3 - num).is_zero()


def test_abel_f_trivial_at_origin():
    # x3 = 0 kills the delta tail, so f = 1
    t = _legendre_tower(with_pole=True)
    prm = ThirdKindParam(t["a"], t["delta"])
    p1 = CurvePoint(t["x1"], t["y1"])
    p2 = CurvePoint(t["x2"], t["y2"])
    origin = CurvePoint(t.zero(), t.one())
    num, den = _abel_f_parts(prm, p1, p2, origin)
    assert (num - den).is_zero()


def test_abel_a0_symmetric():
    t, curve, p1, p2 = weierstrass_setup()
    a01 = abel_a0(p1, p2)
    a02 = abel_a0(p2, p1)
    assert (a01 - a02).is_zero()


def test_third_kind_param_validation():
    t = _legendre_tower(with_pole=True)
    ThirdKindParam(t["a"], t["delta"]).validate(t["m"])
    with pytest.raises(InvalidDefiningData):
        ThirdKindParam(t["a"], t["a"]).validate(t["m"])


# -- numeric oracle ------------------------------------------------------------


def sn_point(u, m):
    sn, cn, dn, _ = ellipj(u, m)
    return sn, cn * dn


def test_legendre_add_matches_jacobi_sn():
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(25):
        m = rng.uniform(0.05, 0.95)
        u, v = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        x1, y1 = sn_point(u, m)
        x2, y2 = sn_point(v, m)
        x3, y3 = sn_point(u + v, m)
        den = 1 - m * x1 * x1 * x2 * x2
        if abs(den) < 1e-6:
            continue
        got_x = (x1 * y2 + x2 * y1) / den
        got_y = (y1 * y2 * (1 + m * x1 * x1 * x2 * x2)
                 - x1 * x2 * (m * (1 - x1 * x1) * (1 - x2 * x2)
                              + (1 - m * x1 * x1) * (1 - m * x2 * x2))) / den ** 2
        worst = max(worst, abs(got_x - x3), abs(got_y - y3))
    assert worst < 1e-12, worst


def test_symbolic_add_evaluates_numerically():
    # same check but driven through the Element pipeline
    t, curve, p1, p2 = legendre_setup()
    p3 = legendre_add(curve, p1, p2)
    m, u, v = 0.36, 0.7, -0.4
    import fractions
    q = lambda f: fractions.Fraction(f).limit_denominator(10 ** 12)
    x1, y1 = sn_point(u, m)
    x2, y2 = sn_point(v, m)
    vals = {t.gen_of("m").gid: q(m),
            t.gen_of("x1").gid: q(x1), t.gen_of("y1").gid: q(y1),
            t.gen_of("x2").gid: q(x2), t.gen_of("y2").gid: q(y2)}
    x3 = float(p3.x.rf.num.evaluate(vals)) / float(p3.x.rf.den.evaluate(vals))
    want, _ = sn_point(u + v, m)
    assert math.isclose(x3, want, abs_tol=1e-7)


# -- clearing over a coprime basis -------------------------------------------

GENS = sympy.symbols("x0:3")


def to_sympy(p: MultiPoly) -> sympy.Poly:
    return sympy.Poly(p.evaluate(dict(enumerate(GENS))), *GENS, domain="QQ")


def _rebuild(u, exps) -> MultiPoly:
    out = MultiPoly.const(u)
    for b, k in exps.items():
        out = out * b ** k
    return out


@st.composite
def small_polys(draw, nvars):
    """A nonconstant polynomial of 1-3 terms over nvars variables."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = MONO_ONE
        for gid in range(nvars):
            e = draw(st.integers(0, 2))
            if e:
                mono += ((gid, e),)
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-3, 3))
    p = MultiPoly.from_dict({m: Fraction(c) for m, c in terms.items() if c})
    if p.is_const():
        p = p + MultiPoly.var(draw(st.integers(0, nvars - 1)))
    return p


@st.composite
def bag_products(draw):
    """Products of 1-3 small polynomials, drawing often from a shared pool
    so that factors recur across products."""
    nvars = draw(st.integers(2, 3))
    pool = draw(st.lists(small_polys(nvars), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(2, 4))):
        prod = MultiPoly.one()
        for _ in range(draw(st.integers(1, 3))):
            shared = draw(st.booleans())
            prod = prod * (draw(st.sampled_from(pool)) if shared
                           else draw(small_polys(nvars)))
        out.append(prod)
    return out


@given(bag_products())
@settings(max_examples=60, deadline=None)
def test_coprime_basis_matches_sympy_lcm(products):
    over = _coprime_basis(products)
    basis = {b for _, exps in over.values() for b in exps}
    for b, c in combinations(basis, 2):
        assert poly_gcd(b, c) == MultiPoly.one()
    for f in products:
        u, exps = over[f]
        assert f == _rebuild(u, exps)
    top: Counter = Counter()
    for _, exps in over.values():
        top |= exps
    want = reduce(sympy.lcm, [to_sympy(f) for f in products])
    assert to_sympy(_rebuild(1, top)).monic() == want.monic()


def test_clear_holds_each_shared_factor_once():
    # the shape of abel pi: two log parts share one denominator, and a
    # third part's factor divides it; the lcm holds p and q once each
    t = Tower.base().var("x").var("z")
    x, z = t["x"].rf.num, t["z"].rf.num
    one = MultiPoly.one()
    p, q = x + one, x * z + MultiPoly.const(2)
    parts = [_Part(x, p * q, Counter()), _Part(z, p * q, Counter()),
             _Part(one, one, Counter({p: 1})),
             _Part(one, one, Counter({p.scale(Fraction(2)): 1}))]
    num, den, common = _clear(parts, t.rels)
    assert common == Counter({p: 1, q: 1})
    half = MultiPoly.const(Fraction(1, 2))
    assert (normal_form(num, den * p * q, t.rels)
            == normal_form(x + z + q + half * q, p * q, t.rels))


def test_basis_split_that_does_not_divide_raises(monkeypatch):
    x = MultiPoly.var(0)
    monkeypatch.setattr(curves, "poly_divexact", lambda p, q: None)
    with pytest.raises(RuntimeError):
        _coprime_basis([x * (x + MultiPoly.one()), x])
