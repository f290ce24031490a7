"""Curve group laws, Abel addition identities, numeric cross-checks."""

import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipj

from diffalg import curves, poly
from diffalg.curves import (ABEL_KINDS, CurvePoint, LegendreCurve, LogPhi,
                            LPhi, ThirdKindParam, WeierstrassCurve, WPhi,
                            abel_step, check_abel_identity, legendre_add,
                            phi_sum, phi_sum_is_zero, weierstrass_add, _clear,
                            _legendre_tower, _Part, _product,
                            _weierstrass_tower)
from diffalg.errors import (DegenerateChord, DegenerateDenominator,
                            InvalidDefiningData)
from diffalg.liouville import LiouvilleForm
from diffalg.poly import MultiPoly
from diffalg.ratfunc import _division_basis, normal_form
from diffalg.tower import FULL_D, Element, PartialD, Tower
from polys import evaluate, from_dict


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


# degenerate data, "x" for the base variable: two singular cubics, a
# coefficient that is not constant, and the moduli where the quartic has
# a square factor
@pytest.mark.parametrize("model, data", [
    (WeierstrassCurve, (3, 2)), (WeierstrassCurve, (0, 0)),
    (WeierstrassCurve, (1, "x")), (LegendreCurve, (0,)),
    (LegendreCurve, (1,)), (LegendreCurve, ("x",)),
], ids=["w-node", "w-cusp", "w-b", "l-m-0", "l-m-1", "l-m"])
def test_terms_and_generators_refuse_what_their_curve_refuses(model, data):
    t = Tower.base().var("x")
    x = t["x"]
    data = [x if d == "x" else t.lit(d) for d in data]
    with pytest.raises(InvalidDefiningData) as refused:
        model(*data)
    match = f"^{re.escape(str(refused.value))}$"
    if model is WeierstrassCurve:
        a, b = data
        with pytest.raises(InvalidDefiningData, match=match):
            t.elliptic("p", x, a, b)
        u = t.sqrt_ext("q", x ** 3 - a * x - b)  # (x, q) is on the curve
        for kind in (1, 2):
            with pytest.raises(InvalidDefiningData, match=match):
                WPhi(kind, x, u["q"], a, b).validate()
    else:
        m, = data
        u = t.sqrt_ext("y", (1 - x ** 2) * (1 - m * x ** 2))
        for kind in (1, 2):
            with pytest.raises(InvalidDefiningData, match=match):
                LPhi(kind, x, u["y"], m).validate()
        # the pole data is validated against a built curve, so its
        # refusal is the curve's
        with pytest.raises(InvalidDefiningData, match=match):
            ThirdKindParam(t.lit(2), t.lit(3)).validate(LegendreCurve(m))


def test_legendre_identity_point():
    t, curve, p1, _ = legendre_setup()
    # the quartic model's identity is (0, 1), and infinity is no point
    e = CurvePoint(t.zero(), t.one())
    assert curve.contains(e)
    assert curve.contains(CurvePoint.infinity()) is False
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
    # p1 + p1 on the cubic: the w2 chord slope has no run
    t, curve, p1, _ = weierstrass_setup()
    with pytest.raises(DegenerateChord,
                       match="^points share their x coordinate$"):
        abel_step("w2", [curve.a, curve.b], p1, p1)


def test_abel_e_correction_refuses_a_degenerate_chord():
    # p1 + p1: x1*y1 - x1*y1 = 0 is refused before it divides
    t, curve, p1, _ = legendre_setup()
    with pytest.raises(DegenerateChord, match=r"^x1\*y2 - x2\*y1 = 0$"):
        abel_step("l2", [curve.m], p1, p1)


# -- Abel identities -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["f", "e", "w1"])
def test_abel_identity(kind):
    rep = check_abel_identity(kind)
    assert rep.kind == kind
    assert rep.passed
    assert all(zero for _, zero in rep.residues)
    assert len(rep.residues) == 2  # both coordinate derivations


def test_abel_identity_kind_is_read_case_blind_and_checked():
    assert check_abel_identity("W1").kind == "w1"
    with pytest.raises(InvalidDefiningData,
                       match="^unknown identity kind 'g'$"):
        check_abel_identity("g")

def test_doubled_second_kind_correction_fails():
    # phi(p1) + phi(p2) - phi(p3) = D(g) holds with v0 = -g, and the same
    # shared zero test must reject v0 = -2g under each partial.
    t, curve, p1, p2 = legendre_setup()
    p3, g, log = abel_step("l2", [curve.m], p1, p2)
    assert log is None
    terms = [(c, LPhi(2, p.x, p.y, curve.m))
             for c, p in ((1, p1), (1, p2), (-1, p3))]
    for label in ("x1", "x2"):
        h = PartialD(t.gen_of(label).gid)
        assert phi_sum_is_zero(t, h, -g, terms)
        assert not phi_sum_is_zero(t, h, -2 * g, terms)


def test_w2_correction_normalization():
    # pins the 2*lambda normalization used by the reduction engine
    assert check_abel_identity("w2").passed
    t, curve, p1, p2 = weierstrass_setup()
    p3, w, log = abel_step("w2", [curve.a, curve.b], p1, p2)
    assert log is None and p3 == weierstrass_add(curve, p1, p2)
    assert w == 2 * (p2.y - p1.y) / (p2.x - p1.x)


# -- the exchange sigma: (x1, y1) <-> (x2, y2) -------------------------------


def exchange(t):
    """sigma on the elements of t."""
    pairs = [(t.gen_of(a).gid, t.gen_of(b).gid)
             for a, b in (("x1", "x2"), ("y1", "y2"))]
    return lambda e: t.coerce(e).swap(*pairs)


def partials(t):
    return [PartialD(t.gen_of(label).gid) for label in ("x1", "x2")]


def direct_rows(t, v0, terms):
    return [(f"d/d{label}", phi_sum_is_zero(t, h, v0, terms))
            for label, h in zip(("x1", "x2"), partials(t))]


@st.composite
def tower_elements(draw, t):
    """A small polynomial in the generators of t over one in those that
    are no square root, so no draw has to rationalize."""
    gens = [t[g.name] for g in t.generators]
    below = [t[g.name] for g in t.generators if g.gid not in t.rels]

    def poly(gens):
        out = t.lit(draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(1, 3))):
            mono = t.lit(draw(st.integers(1, 3)))
            for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
                mono = mono * g
            out = out + mono
        return out

    num, den = poly(gens), poly(below)
    return num / (den if not den.is_zero() else den + 1)


@pytest.mark.parametrize("tower", [lambda: _legendre_tower(with_pole=True),
                                   _weierstrass_tower],
                         ids=["legendre", "weierstrass"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_exchange_is_an_automorphism_that_swaps_the_partials(tower, data):
    t = tower()
    sigma, (h1, h2) = exchange(t), partials(t)
    e, f = data.draw(tower_elements(t)), data.draw(tower_elements(t))
    img = sigma(e)
    assert img.rf == normal_form(*img.rf, t.rels)  # canonical as it is
    assert sigma(img) == e
    assert sigma(e + f) == img + sigma(f)
    assert sigma(e * f) == img * sigma(f)
    assert sigma(t.derive(h1, e)) == t.derive(h2, img)


def test_exchange_makes_the_denominator_monic_again():
    t = _weierstrass_tower()
    x1, x2 = t["x1"], t["x2"]
    # x1 + 2 x2 is x2 + x1/2 made monic; its image x2 + 2 x1 leads with 1
    assert exchange(t)(1 / (x1 + 2 * x2)) == 1 / (x2 + 2 * x1)


def spy_identity(monkeypatch, shift=None):
    """Run check_abel_identity with v0 + shift(t) in place of v0; the
    (t, v0, terms) it tested land in the list returned."""
    seen, under = [], curves._under_partials

    def spy(t, v0, terms):
        if shift is not None:
            v0 = v0 + shift(t)
        seen.append((t, v0, terms))
        return under(t, v0, terms)

    monkeypatch.setattr(curves, "_under_partials", spy)
    return seen


def test_exchange_leaves_a_v0_it_moves_to_the_direct_row(monkeypatch):
    # D_x1(x2) = 0 but D_x2(x2) = 1: sigma does not fix v0 = x2, so the
    # d/dx2 row is tested on its own and fails
    spy_identity(monkeypatch, lambda t: t["x2"])
    rep = check_abel_identity("f")
    assert rep.residues == (("d/dx1", True), ("d/dx2", False))
    assert not rep.passed and rep.by_exchange == ()


def test_exchange_copies_a_nonzero_row(monkeypatch):
    # sigma fixes v0 = x1 + x2, so d/dx2 copies the nonzero d/dx1 row,
    # as the direct test agrees
    seen = spy_identity(monkeypatch, lambda t: t["x1"] + t["x2"])
    rep = check_abel_identity("f")
    assert rep.residues == (("d/dx1", False), ("d/dx2", False))
    assert not rep.passed and rep.by_exchange == ("d/dx2",)
    assert direct_rows(*seen[0]) == list(rep.residues)


@pytest.mark.parametrize("kind", ABEL_KINDS)
def test_exchange_row_matches_the_direct_test(monkeypatch, kind):
    seen = spy_identity(monkeypatch)
    rep = check_abel_identity(kind)
    assert rep.passed and rep.by_exchange == ("d/dx2",)
    assert direct_rows(*seen[0]) == list(rep.residues)


def legendre_rhs(x, m):
    return (1 - x * x) * (1 - m * x * x)


def log_root_form(t):
    """log y1 + log y2 - log(r(x1))/2 - log(r(x2))/2: sigma maps it onto
    itself, and D_x1 of it is 0 when y1 is the square root of r(x1)."""
    m, c = t["m"], Fraction(-1, 2)
    return t.zero(), [(1, LogPhi(t["y1"])), (1, LogPhi(t["y2"])),
                      (c, LogPhi(legendre_rhs(t["x1"], m))),
                      (c, LogPhi(legendre_rhs(t["x2"], m)))]


def two_roots(r2=None, y2_var=False, extra=False):
    """m, x1, x2, y1 = sqrt(r(x1)), then y2 = sqrt(r2(x2)), r2 = r by
    default, or a base variable y2; extra adds a base variable z."""
    t = Tower.base().const("m").var("x1").var("x2")
    if extra:
        t = t.var("z")
    t = t.sqrt_ext("y1", legendre_rhs(t["x1"], t["m"]))
    if y2_var:
        return t.var("y2")
    return t.sqrt_ext("y2", (r2 or legendre_rhs)(t["x2"], t["m"]))


@pytest.mark.parametrize("t, rows", [
    # sigma(r1) = r(x2) is not the radicand r(x2)(1 + x2^2) of y2
    (two_roots(r2=lambda x, m: legendre_rhs(x, m) * (1 + x * x)),
     [("d/dx1", True), ("d/dx2", False)]),
    # sigma would swap the square root y1 with the variable y2
    (two_roots(y2_var=True), [("d/dx1", True), ("d/dx2", False)]),
    # sigma fixes z, which is no constant
    (two_roots(extra=True), [("d/dx1", True), ("d/dx2", True)]),
], ids=["radicand", "kind", "extra"])
def test_exchange_needs_an_automorphism_of_the_tower(t, rows):
    v0, terms = log_root_form(t)
    assert curves._under_partials(t, v0, terms) == (rows, ())
    assert direct_rows(t, v0, terms) == rows


def test_exchange_needs_the_terms_to_map_onto_themselves():
    # sigma sends log x2 to log x1, which the form lacks
    t = _legendre_tower(with_pole=False)
    rows = [("d/dx1", True), ("d/dx2", False)]
    terms = [(1, LogPhi(t["x2"]))]
    assert curves._under_partials(t, t.zero(), terms) == (rows, ())
    assert direct_rows(t, t.zero(), terms) == rows


def l3_step(t, p1, p2, delta=None):
    data = [t["m"], t["a"], t["delta"] if delta is None else delta]
    p3, w, (c, num, den) = abel_step("l3", data, p1, p2)
    assert w == 0
    return p3, c, num, den


def test_abel_f_properties():
    t = _legendre_tower(with_pole=True)
    ThirdKindParam(t["a"], t["delta"]).validate(LegendreCurve(t["m"]))
    p1 = CurvePoint(t["x1"], t["y1"])
    p2 = CurvePoint(t["x2"], t["y2"])
    p3, c, num, den = l3_step(t, p1, p2)
    assert c == -t["a"] / (2 * t["delta"])

    # swapping the points leaves p3, c and f = num/den unchanged, since
    # a0 = (x2^3 y1 - x1^3 y2)/(x1 y2 - x2 y1) is symmetric
    q3, c2, n2, d2 = l3_step(t, p2, p1)
    assert (q3, c2) == (p3, c)
    assert (num * d2 - n2 * den).is_zero()

    # delta -> -delta swaps num and den, so it inverts f and negates c
    q3, c3, n3, d3 = l3_step(t, p1, p2, -t["delta"])
    assert (q3, c3) == (p3, -c)
    assert (n3 - den).is_zero() and (d3 - num).is_zero()


def test_abel_f_trivial_at_origin():
    # p2 = -p1 puts p3 at the identity (0, 1), where x3 = 0 kills the
    # delta tail, so f = 1
    t = _legendre_tower(with_pole=True)
    p1 = CurvePoint(t["x1"], t["y1"])
    p3, _, num, den = l3_step(t, p1, CurvePoint(-t["x1"], t["y1"]))
    assert p3 == CurvePoint(t.zero(), t.one())
    assert (num - den).is_zero()


def test_third_kind_param_validation():
    t = _legendre_tower(with_pole=True)
    ThirdKindParam(t["a"], t["delta"]).validate(LegendreCurve(t["m"]))
    with pytest.raises(InvalidDefiningData):
        ThirdKindParam(t["a"], t["a"]).validate(LegendreCurve(t["m"]))


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
    x3 = (float(evaluate(p3.x.rf.num, vals))
          / float(evaluate(p3.x.rf.den, vals)))
    want, _ = sn_point(u + v, m)
    assert math.isclose(x3, want, abs_tol=1e-7)


# Abel's theorem integrated from the origin, where p3 = (0, 1), w = 0 and
# num/den = 1: with x = sn(u), y = cn(u) dn(u), phi(p) = phi(D x, x)
# integrates to I(x), the incomplete integral of the term's kind at
# asin(x), so I(x1) + I(x2) - I(x3) = w + c log(num/den).  Every x stays
# below the pole a, where the third-kind integral is real.
ELLIPTIC_INTEGRALS = {
    "l1": lambda phi, m, a: mpmath.ellipf(phi, m),
    "l2": lambda phi, m, a: mpmath.ellipe(phi, m),
    "l3": lambda phi, m, a: mpmath.ellippi(1 / a ** 2, phi, m),
}


@pytest.mark.parametrize("name", sorted(ELLIPTIC_INTEGRALS))
@mpmath.workdps(40)
def test_abel_step_matches_the_elliptic_integrals(name):
    rng = random.Random(20261019)
    t = _legendre_tower(with_pole=(name == "l3"))
    data = [t["m"], t["a"], t["delta"]] if name == "l3" else [t["m"]]
    p3, w, log = abel_step(name, data, CurvePoint(t["x1"], t["y1"]),
                           CurvePoint(t["x2"], t["y2"]))
    integral = ELLIPTIC_INTEGRALS[name]
    for m, a in (((1, 3), (9, 10)), ((3, 5), (19, 20))):
        m, a = (mpmath.mpf(n) / d for n, d in (m, a))
        vals = {t.gen_of("m").gid: m}
        if name == "l3":
            vals[t.gen_of("a").gid] = a
            vals[t.gen_of("delta").gid] = mpmath.sqrt((1 - a * a)
                                                      * (1 - m * a * a))
        for _ in range(3):
            u1 = mpmath.mpf(rng.uniform(0.05, 0.25))
            u2 = mpmath.mpf(rng.uniform(0.3, 0.5))
            for i, u in (("1", u1), ("2", u2)):
                sn, cn, dn = (mpmath.ellipfun(f, u, m=m)
                              for f in ("sn", "cn", "dn"))
                vals[t.gen_of("x" + i).gid] = sn
                vals[t.gen_of("y" + i).gid] = cn * dn

            def ev(e):
                return evaluate(e.rf.num, vals) / evaluate(e.rf.den, vals)

            xs = [vals[t.gen_of("x1").gid], vals[t.gen_of("x2").gid],
                  ev(p3.x)]
            assert max(xs) < a
            assert abs(xs[2] - mpmath.ellipfun("sn", u1 + u2, m=m)) < 1e-35
            lhs = sum(s * integral(mpmath.asin(x), m, a)
                      for s, x in zip((1, 1, -1), xs))
            rhs = ev(w)
            if log is not None:
                c, num, den = log
                rhs += ev(c) * mpmath.log(ev(num) / ev(den))
            assert abs(lhs - rhs) < 1e-30, (name, float(m), u1, u2)


# The Weierstrass half.  On y^2 = x^3 - 7x - 6 = (x - 3)(x + 1)(x + 2),
# with roots e1 > e2 > e3, the point (wp(u), wp'(u)/2) for the
# Weierstrass function of g2 = 4a and g3 = 4b, where wp(u) = e3 +
# (e1 - e3)/sn^2(u sqrt(e1 - e3), (e2 - e3)/(e1 - e3)), adds as u does,
# and phi(p) integrates to the integral of 2 (w1) or of 2 wp (w2) in u.
# So with u2 fixed, w(u1, u2) - w(u1', u2) is that integral over
# [u1', u1] minus the one over [u1' + u2, u1 + u2].  Every u stays inside
# (0, 2 omega), the real period, clear of the lattice.
WEIERSTRASS_INTEGRANDS = {"w1": lambda wp: 2, "w2": lambda wp: 2 * wp}


@pytest.mark.parametrize("name", sorted(WEIERSTRASS_INTEGRANDS))
@mpmath.workdps(40)
def test_abel_step_matches_the_weierstrass_functions(name):
    rng = random.Random(20261020)
    t = _weierstrass_tower()
    p3, w, log = abel_step(name, [t["a"], t["b"]],
                           CurvePoint(t["x1"], t["y1"]),
                           CurvePoint(t["x2"], t["y2"]))
    assert log is None
    e1, e2, e3 = 3, -1, -2
    lam, k2 = mpmath.sqrt(e1 - e3), mpmath.mpf(e2 - e3) / (e1 - e3)

    def point(u):
        sn, cn, dn = (mpmath.ellipfun(f, u * lam, m=k2)
                      for f in ("sn", "cn", "dn"))
        return e3 + lam ** 2 / sn ** 2, -lam ** 3 * cn * dn / sn ** 3

    def integral(start, end):
        return mpmath.quad(
            lambda u: WEIERSTRASS_INTEGRANDS[name](point(u)[0]), [start, end])

    vals = {t.gen_of("a").gid: 7, t.gen_of("b").gid: 6}

    def ev(e, u1, u2):
        for i, u in (("1", u1), ("2", u2)):
            x, y = point(u)
            assert abs(y * y - (x ** 3 - 7 * x - 6)) < 1e-30
            vals[t.gen_of("x" + i).gid], vals[t.gen_of("y" + i).gid] = x, y
        return evaluate(e.rf.num, vals) / evaluate(e.rf.den, vals)

    for _ in range(3):
        u1s, u1 = (mpmath.mpf(rng.uniform(0.15, 0.45)) for _ in range(2))
        u2 = mpmath.mpf(rng.uniform(0.3, 0.5))
        x3, y3 = point(u1 + u2)
        assert abs(ev(p3.x, u1, u2) - x3) < 1e-35
        assert abs(ev(p3.y, u1, u2) - y3) < 1e-35
        lhs = ev(w, u1, u2) - ev(w, u1s, u2)
        rhs = integral(u1s, u1) - integral(u1s + u2, u1 + u2)
        assert abs(rhs - lhs) < 1e-30, (name, u1s, u1, u2)


# -- clearing over a division basis ------------------------------------------

GENS = sympy.symbols("x0:3")


def to_sympy(p: MultiPoly) -> sympy.Poly:
    return sympy.Poly(evaluate(p, dict(enumerate(GENS))), *GENS, domain="QQ")


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
        mono = ()
        for gid in range(nvars):
            e = draw(st.integers(0, 2))
            if e:
                mono += ((gid, e),)
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-3, 3))
    p = from_dict({m: Fraction(c) for m, c in terms.items() if c})
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
    # every factor rebuilds exactly from its unit and basis powers, and the
    # top powers are a common multiple of the factors: sympy's lcm when the
    # basis came out pairwise coprime.  Above it only where two basis
    # elements share a factor that neither divides: x^3(x + 1), x(x + 1)
    # and x^3(x + 1)^3, taken in that order, give x^2 and (x(x + 1))^3
    over = _division_basis(products)
    for f in products:
        u, exps = over[f]
        assert f == _rebuild(u, exps)
    top: Counter = Counter()
    for _, exps in over.values():
        top |= exps
    want = reduce(sympy.lcm, [to_sympy(f) for f in products]).monic()
    got = to_sympy(_rebuild(1, top))
    assert got.rem(want).is_zero
    basis = [to_sympy(b) for b in top]
    if all(sympy.gcd(b, c).is_ground for b, c in combinations(basis, 2)):
        assert got.monic() == want


def test_clearing_the_pi_identity_runs_no_gcd(monkeypatch):
    # the division basis splits a factor only by an exact division, so
    # clearing the lazy parts of the third-kind identity takes no gcd
    seen = []
    monkeypatch.setattr(curves, "_clear", lambda parts, rels: seen.append(
        (parts, rels)) or _clear(parts, rels))
    assert check_abel_identity("pi").passed
    gcds = []
    igcd = poly._igcd
    monkeypatch.setattr(poly, "_igcd", lambda *args: gcds.append(args)
                        or igcd(*args))
    for parts, rels in seen:
        assert _clear(parts, rels)[0].is_zero()
    assert seen and not gcds


def test_clear_holds_each_shared_factor_once():
    # the shape of abel pi: two log parts share one denominator, and a
    # third part's factor divides it; the lcm holds p and q once each
    t = Tower.base().var("x").var("z")
    x, z = t["x"].rf.num, t["z"].rf.num
    one = MultiPoly.one()
    p, q = x + one, x * z + MultiPoly.const(2)
    parts = [_Part(x, Counter({p * q: 1})), _Part(z, Counter({p * q: 1})),
             _Part(one, Counter({p: 1})),
             _Part(one, Counter({p.scale(Fraction(2)): 1}))]
    num, den, common = _clear(parts, t.rels)
    assert common == Counter({p: 1, q: 1})
    half = MultiPoly.const(Fraction(1, 2))
    assert (normal_form(num, den * p * q, t.rels)
            == normal_form(x + z + q + half * q, p * q, t.rels))


def _two_root_tower():
    t = Tower.base().var("x")
    t = t.sqrt_ext("y", t["x"] ** 2 + 1)
    return t.sqrt_ext("w", 1 / (t["x"] + 2))  # w^2 folds over x + 2


TWO_ROOTS = _two_root_tower()


@st.composite
def lazy_parts(draw, t, cancel):
    """2-4 parts over t.  With cancel, each drawn part comes back negated,
    as -1 = -(x + 2) * w^2, which only folding undoes, so the sum is 0;
    without, one part has a pole at x = -3, which no other part has."""
    x, y, w = (t[n].rf.num for n in ("x", "y", "w"))
    one, c = MultiPoly.one(), MultiPoly.const
    pool = [x, x + c(2), x.scale(2) - one, x * x + one, y + x, w + one]
    parts = []
    for _ in range(draw(st.integers(1, 2 if cancel else 3))):
        dens: Counter = Counter()
        for f in draw(st.lists(st.sampled_from(pool), max_size=2)):
            dens[f] += draw(st.integers(1, 2))
        parts.append(_Part(draw(small_polys(3)), dens))
    if cancel:
        minus_one = -(x + c(2)) * w * w
        return parts + [_Part(p.num * minus_one, p.dens) for p in parts]
    return parts + [_Part(one, Counter({x + c(3): 1}))]


@pytest.mark.parametrize("cancel", [True, False])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_clear_is_order_independent(cancel, data):
    # the running sum joins the parts in an order of its own; whatever
    # order they come in, it clears the same lcm (the pool's factors are
    # coprime) to the value that the canonical term-by-term sum gives
    t = TWO_ROOTS
    parts = data.draw(lazy_parts(t, cancel))
    want = sum((Element(t, normal_form(p.num, _product(p.dens), t.rels))
                for p in parts), t.zero())
    assert want.is_zero() == cancel
    commons = []
    for order in permutations(parts):
        num, den, common = _clear(order, t.rels)
        commons.append(common)
        assert normal_form(num, den * _product(common), t.rels) == want.rf
    assert all(common == commons[0] for common in commons)


def _pair_tower(radicands):
    """Over const k and x, a square root of each radicand in turn: s,
    then u, each radicand a function of the tower so far."""
    t = Tower.base().const("k").var("x")
    for name, radicand in zip("su", radicands):
        t = t.sqrt_ext(name, radicand(t))
    return t


# name -> (the tower's radicands, [log factors]): first a factor p, then
# one whose conjugate is not a term, then the conjugates of p, which are
PAIR_TOWERS = {
    "polynomial": ([lambda t: t["x"] ** 2 + 1],
                   lambda t: [t["x"] + 2 + t["s"], t["x"] + t["s"],
                              t["x"] + 2 - t["s"]]),
    "denominator": ([lambda t: (t["x"] - 1) / (t["x"] + 1)],
                    lambda t: [1 + t["x"] * t["s"], t["x"] + t["s"],
                               1 - t["x"] * t["s"]]),
    "nested": ([lambda t: t["x"], lambda t: 1 + t["s"]],
               lambda t: [t["x"] * t["s"] + t["u"], t["s"] + t["u"],
                          t["x"] * t["s"] - t["u"]]),
    "two roots": ([lambda t: t["x"], lambda t: t["x"] + 1],
                  lambda t: [t["s"] + t["u"] + 1, t["s"] + 2,
                             t["s"] - t["u"] + 1]),
    # (x + s)(x - s) = -1: the pair's norm is a constant
    "unit norm": ([lambda t: t["x"] ** 2 + 1],
                  lambda t: [t["x"] + t["s"], t["x"] + 2 + t["s"],
                             t["x"] - t["s"]]),
    # p's conjugates under s and under u are both terms: one pairs
    "both conjugates": ([lambda t: t["x"], lambda t: t["x"] + 1],
                        lambda t: [t["s"] + t["u"] + 1, t["s"] + 2,
                                   t["s"] - t["u"] + 1, -t["s"] + t["u"] + 1]),
}
# the coefficients of p and of its conjugates
PAIR_COEFFS = {"c, c": lambda k: [k, k, k], "c, -c": lambda k: [k, -k, k],
               "c, c'": lambda k: [k, 1 / (k + 1), Fraction(-2, 3)]}


@pytest.mark.parametrize("coeffs", PAIR_COEFFS.values(), ids=PAIR_COEFFS)
@pytest.mark.parametrize("tower", PAIR_TOWERS.values(), ids=PAIR_TOWERS)
def test_a_conjugate_pair_of_log_factors_shares_one_part(tower, coeffs):
    # each factor is one part but a conjugate pair, which shares one
    # part over its norm; the lazy sums agree with the sum of canonical
    # D(v)/v, and the zero test tells it from a perturbed integrand
    radicands, factors = tower
    t = _pair_tower(radicands)
    p, other, *bars = factors(t)
    k = t["k"]
    cs = coeffs(k)
    form = LiouvilleForm(t["x"] * t["s"], [(cs[0], LogPhi(p)),
                                           (2, LogPhi(other))]
                         + [(c, LogPhi(v)) for c, v in zip(cs[1:], bars)])
    want = t.derive(FULL_D, form.v0) + sum(
        (c * t.derive(FULL_D, term.v) / term.v for c, term in form.terms),
        t.zero())
    assert phi_sum(t, FULL_D, form.v0, form.terms) == want
    assert phi_sum_is_zero(t, FULL_D, form.v0, form.terms, want)
    assert not phi_sum_is_zero(t, FULL_D, form.v0, form.terms,
                               want + 1 / (t["x"] + 3))
    # v0 and f are a part each, the pair one and each other factor one
    parts = curves._phi_parts(t, FULL_D, form.v0, form.terms, want)
    assert len(parts) == 2 + 1 + len(form.terms) - 2


@pytest.mark.parametrize("kind, most", [("f", 334), ("e", 1680),
                                        ("w1", 445), ("w2", 1616),
                                        ("pi", 5_147)],
                         ids=["f", "e", "w1", "w2", "pi"])
def test_abel_clearing_work_is_pinned(kind, most, monkeypatch):
    # term pairs over every polynomial product of the identity; pi took
    # 329,179 when each part was lifted to the full lcm on its own,
    # 119,107 while each log term entered as D(v)/v over d^2, 106,201
    # while every lazy sum rationalized its terms' divisors again, 99,067
    # while the d/dx2 row took its own zero test, and 49,708 while its
    # two conjugate log factors were cleared apart, not over their norm
    pairs = []
    mul = poly._dict_mul

    def counted(a, b, deg):
        pairs.append(len(a) * len(b))
        return mul(a, b, deg)

    monkeypatch.setattr(poly, "_dict_mul", counted)
    assert check_abel_identity(kind).passed
    assert sum(pairs) <= most
