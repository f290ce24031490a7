"""Liouville forms: evaluation, verification, and tower reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import curves, liouville, poly, ratfunc
from diffalg.curves import LegendreCurve, ThirdKindParam, phi_part, phi_sum
from diffalg.errors import (FieldMismatch, FNotBelow, IntegrandNotReducible,
                            InvalidDefiningData, NonConstantCoefficient,
                            NotConstant, PartNotBelow, SelfCheckFailed,
                            UnsupportedHandle, UnsupportedTermKind,
                            ZeroDenominator)
from diffalg.liouville import (LiouvilleForm, LogPhi, LPhi, WPhi,
                               form_derivative, log_canonical, reduce,
                               reduce_algebraic, reduce_top, verify_liouville,
                               x_constant)
from diffalg.poly import MultiPoly
from diffalg.ratfunc import normal_form
from diffalg.tower import FULL_D, CommutingX, Element, Tower
from lemmas import phi_value, step1


def log_tower():
    t = Tower.base().var("x")
    return t.log_ext("th", t["x"])


def exp_tower():
    t = Tower.base().var("x")
    return t.exp_ext("th", t["x"])


# -- phi evaluation and form arithmetic ---------------------------------------


def test_out_of_range_kind_reaches_validate():
    t = Tower.base().const("a").const("b").const("m").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    p, q, a, b, m = t["p"], t["p_q"], t["a"], t["b"], t["m"]
    with pytest.raises(InvalidDefiningData, match="W-kind 4 out of range"):
        LiouvilleForm(t.zero(), [(1, WPhi(4, p, q, a, b))])
    with pytest.raises(InvalidDefiningData, match="L-kind 0 out of range"):
        LiouvilleForm(t.zero(), [(1, LPhi(0, p, q, m))])
    with pytest.raises(InvalidDefiningData, match="pole c only belongs"):
        LiouvilleForm(t.zero(), [(1, WPhi(1, p, q, a, b, m))])



def test_pole_data_belongs_to_the_third_kind_only():
    # the form grammar's arity check refuses these documents before the
    # terms are built, so the refusals are reached from the library
    t = Tower.base().const("m").const("pa").var("x")
    m, pa, x = t["m"], t["pa"], t["x"]
    t = t.sqrt_ext("y", (1 - x ** 2) * (1 - m * x ** 2))
    t = t.sqrt_ext("delta", (1 - pa ** 2) * (1 - m * pa ** 2))
    x, y, m = t["x"], t["y"], t["m"]
    prm = ThirdKindParam(t["pa"], t["delta"])
    with pytest.raises(InvalidDefiningData,
                       match="^third kind needs pole data$"):
        LiouvilleForm(t.zero(), [(1, LPhi(3, x, y, m))])
    with pytest.raises(InvalidDefiningData,
                       match="^pole data only belongs to the third kind$"):
        LiouvilleForm(t.zero(), [(1, LPhi(1, x, y, m, prm))])
    LiouvilleForm(t.zero(), [(1, LPhi(3, x, y, m, prm))])

def test_phi_eval_log():
    t = Tower.base().var("x")
    got = phi_value(t, LogPhi(t["x"]), FULL_D)
    assert (got - 1 / t["x"]).is_zero()


def test_phi_eval_log_under_x():
    t = exp_tower()
    h = CommutingX(t.gen_of("th").gid)
    got = phi_value(t, LogPhi(t["th"]), h)
    assert (got - 1).is_zero()


def test_phi_eval_w1_matches_generator_integrand():
    t = Tower.base().const("a").const("b").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    t = t.ellint("F", 1, t["p"], t["p_q"])
    term = WPhi(1, t["p"], t["p_q"], t["a"], t["b"])
    got = phi_value(t, term, FULL_D)
    assert (got - t.derive(FULL_D, t["F"])).is_zero()


def _log_of(h):
    def build():
        t = Tower.base().var("x")
        t = t.sqrt_ext("y", t["x"])
        return t.log_ext("g", h(t))
    return build


def _ellint_of(kind):
    def build():
        t = Tower.base().const("a").const("b").const("c").var("x")
        t = t.elliptic("p", t["x"], t["a"], t["b"])
        c = [t["c"]] if kind == 3 else []
        return t.ellint("g", kind, t["p"], t["p_q"], *c)
    return build


@pytest.mark.parametrize("build", [
    _log_of(lambda t: t["x"]), _log_of(lambda t: t["x"] ** 2 + 1),
    _log_of(lambda t: t["y"] + t["x"]), _log_of(lambda t: t.lit(2)),
    _ellint_of(1), _ellint_of(2), _ellint_of(3),
], ids=["log-x", "log-x2+1", "log-y+x", "log-2", "ellint-1", "ellint-2",
        "ellint-3"])
def test_a_tag_is_the_phi_term_its_generator_integrates(build):
    # D g by Element arithmetic equals the lazy phi sum of g's tag, and a
    # reduction through g hands the tag down as its term
    t = build()
    g = t.gen_of("g")
    tag = g.kind.tag
    assert t.derive(FULL_D, t["g"]) == phi_value(t, tag, FULL_D)
    if t["g"].is_constant():
        return  # log(2): a reduction passes over constants
    out = reduce_top(t, t.derive(FULL_D, t["g"]), LiouvilleForm(t["g"]))
    t2 = out.tower
    assert [gen.gid for gen in t2.generators] == [
        gen.gid for gen in t.generators if gen.gid != g.gid]
    assert out.v0.is_zero() and out.terms == ((1, tag),)


def test_form_derivative_worked_integral():
    t = Tower.base().var("x")
    t = t.exp_ext("t", 1 / t["x"] ** 2)
    x, th = t["x"], t["t"]
    form = LiouvilleForm(x * th)
    got = form_derivative(t, form)
    assert (got - (x ** 2 - 2) * th / x ** 2).is_zero()


def test_form_derivative_log_term():
    t = Tower.base().var("x")
    form = LiouvilleForm(t.zero(), [(1, LogPhi(t["x"]))])
    assert (form_derivative(t, form) - 1 / t["x"]).is_zero()


def test_form_derivative_exp_log():
    t = exp_tower()
    form = LiouvilleForm(t["x"] ** 2 / 2, [(1, LogPhi(t["th"]))])
    assert (form_derivative(t, form) - (t["x"] + 1)).is_zero()


def test_form_derivative_linear_in_terms():
    t = log_tower()
    x = t["x"]
    f1 = LiouvilleForm(x ** 3, [(2, LogPhi(x + 1))])
    f2 = LiouvilleForm(t["th"], [(Fraction(1, 2), LogPhi(x ** 2 + 1))])
    combined = LiouvilleForm(f1.v0 + f2.v0, list(f1.terms) + list(f2.terms))
    got = form_derivative(t, combined)
    want = form_derivative(t, f1) + form_derivative(t, f2)
    assert (got - want).is_zero()


def test_verify_examples():
    t = Tower.base().var("x")
    x = t["x"]
    assert verify_liouville(t, 1 / x, LiouvilleForm(t.zero(), [(1, LogPhi(x))]))
    # non-unique representation: (1/2) log(x^2)
    assert verify_liouville(
        t, 1 / x,
        LiouvilleForm(t.zero(), [(Fraction(1, 2), LogPhi(x ** 2))]))
    assert not verify_liouville(t, x, LiouvilleForm(x))


def test_verify_refuses_zero_divisor_log():
    # (y2 - 2 y1)(y2 + 2 y1) = 0, so clearing through the log's
    # denominator y2 - 2 y1 would read the residual y2 + 2 y1 as 0
    t = Tower.base().var("x")
    t = t.sqrt_ext("y1", t["x"]).sqrt_ext("y2", 4 * t["x"])
    y1, y2 = t["y1"], t["y2"]
    with pytest.raises(ZeroDenominator, match="^denominator is a zero "
                       "divisor modulo the relations$"):
        form = LiouvilleForm(t.zero(), [(1, LogPhi(y2 - 2 * y1))])
        verify_liouville(t, 1 / (2 * t["x"]) + y2 + 2 * y1, form)


ZERO = "^division by zero element$"
ZERO_DIVISOR = "^denominator is a zero divisor modulo the relations$"


@pytest.mark.parametrize("make, msg", [
    (lambda t, z: LogPhi(z), ZERO_DIVISOR),
    # q of w1, the pole v - c of w3, y of l1, the pole 1 - v^2/a^2 of l3
    (lambda t, z: WPhi(1, t.one(), t.zero(), t.zero(), t.one()), ZERO),
    (lambda t, z: WPhi(1, t.zero(), z, t.zero(), -z * z), ZERO_DIVISOR),
    (lambda t, z: WPhi(3, t.lit(2), t.one(), t.zero(), t.lit(7), t.lit(2)),
     ZERO),
    (lambda t, z: WPhi(3, z, t.one(), t.zero(), z ** 3 - 1, t.zero()),
     ZERO_DIVISOR),
    # l1 at v = 2 with y = z; l3 with m = 7/3 and the pole a = 2, where
    # delta = 5, at v = 2 and at v = 2 - z^2/16, whose pole factor
    # 1 - v^2/4 is z^2 (1/16 - z^2/1024)
    (lambda t, z: LPhi(1, t.one(), t.zero(), t.lit(2)), ZERO),
    (lambda t, z: LPhi(1, t.lit(2), z, (3 + z * z) / 12), ZERO_DIVISOR),
    (lambda t, z: LPhi(3, t.lit(2), t.lit(5), t.lit(Fraction(7, 3)),
                       ThirdKindParam(t.lit(2), t.lit(5))), ZERO),
    (lambda t, z: LPhi(3, 2 - z * z / 16, 5 - z * z / 8, t.lit(Fraction(7, 3)),
                       ThirdKindParam(t.lit(2), t.lit(5))), ZERO_DIVISOR),
], ids=["log", "w1-q-0", "w1-q", "w3-pole-0", "w3-pole", "l1-y-0", "l1-y",
        "l3-pole-0", "l3-pole"])
def test_form_refuses_each_shapes_zero_divisor(make, msg):
    # z = 2 sqrt(2) - sqrt(8) is a nonzero zero divisor, and so is z times
    # a unit; each term satisfies its shape's relations, so validate
    # passes, and the form refuses it by its divisors
    t = Tower.base().var("x").sqrt_ext("ya", 2).sqrt_ext("yb", 8)
    term = make(t, 2 * t["ya"] - t["yb"])
    term.validate()
    with pytest.raises(ZeroDenominator, match=msg):
        LiouvilleForm(t["x"], [(1, term)])


# -- the lazy zero test agrees with the canonical residual --------------------


def _mixed_tower():
    """x with exp(x), log(x), y^2 = (1-x^2)(1-2x^2) and a constant
    delta^2 = (1-9)(1-18) for a third-kind pole at 3."""
    t = Tower.base().var("x")
    t = t.exp_ext("E", t["x"]).log_ext("L", t["x"])
    t = t.sqrt_ext("y", (1 - t["x"] ** 2) * (1 - 2 * t["x"] ** 2))
    return t.sqrt_ext("delta", (1 - 3 ** 2) * (1 - 2 * 3 ** 2))


_MIXED = _mixed_tower()
small = st.integers(min_value=-2, max_value=2)


@st.composite
def mixed_forms(draw):
    t = _MIXED
    x, big_e, big_l, y = t["x"], t["E"], t["L"], t["y"]
    atoms = (x, big_e, big_l, y, x * big_e, big_l * y)

    def coeff():
        return Fraction(draw(small), draw(st.integers(1, 3)))

    v0 = t.lit(draw(small))
    for atom in atoms:
        v0 = v0 + draw(small) * atom
    v0 = v0 / (1 + abs(draw(small)) * x ** 2)
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        # log arguments stay binomials: the canonical side of the
        # comparison grows fast with their size
        v = draw(small) + draw(small) * draw(st.sampled_from(atoms))
        if not v.is_zero():
            terms.append((coeff(), LogPhi(v)))
    prm = ThirdKindParam(t.lit(3), t["delta"])
    for kind in draw(st.lists(st.sampled_from([1, 2, 3]), max_size=2)):
        sign = draw(st.sampled_from([1, -1]))
        terms.append((coeff(), LPhi(kind, sign * x, y, t.lit(2),
                                    prm if kind == 3 else None)))
    return LiouvilleForm(v0, terms)


@given(mixed_forms())
@settings(max_examples=25, deadline=None)
def test_lazy_verify_matches_canonical_residual(form):
    t = _MIXED
    # the canonical residual form_derivative - f is zero for f = D(form)
    # and x for f = D(form) + x; the lazy test must agree with both
    df = form_derivative(t, form)
    assert verify_liouville(t, df, form)
    assert not verify_liouville(t, df + t["x"], form)


def _canonical_part(t, part):
    """A lazy part as one canonical element."""
    den = MultiPoly.one()
    for f, k in part.dens.items():
        den = den * f ** k
    return Element(t, normal_form(part.num, den, t.rels))


def _canonical_phi(t, term, h):
    """phi(hv, v) as one canonical element, the reference for phi_value:
    a log term has no lazy part of its own, so it is D_h(v)/v."""
    if isinstance(term, LogPhi):
        return t.derive(h, term.v) / term.v
    return _canonical_part(t, phi_part(t, term, h))


def _term_by_term(t, h, form):
    """D_h(v0) + sum c * phi(h v, v), summed one canonical term at a time."""
    total = t.derive(h, form.v0)
    for coeff, term in form.terms:
        total = total + coeff * _canonical_phi(t, term, h)
    return total


@given(mixed_forms())
@settings(max_examples=25, deadline=None)
def test_canonical_values_match_term_by_term_sums(form):
    # form_derivative, phi_value and x_constant normalize one cleared sum;
    # each must equal the canonical sum built one term at a time
    t = _MIXED
    assert form_derivative(t, form) == _term_by_term(t, FULL_D, form)
    for name in ("E", "L"):
        h = CommutingX(t.gen_of(name).gid)
        for handle in (FULL_D, h):
            for _, term in form.terms:
                assert phi_value(t, term, handle) == _canonical_phi(
                    t, term, handle)
        want = _term_by_term(t, h, form)
        if want.is_constant():
            assert x_constant(t, form, name) == want
        else:
            with pytest.raises(NotConstant):
                x_constant(t, form, name)


@st.composite
def shared_factor_logs(draw):
    """Log terms over p^i q^j r^k, i, j, k in {-1, 0, 1}, for three
    binomials p, q, r (log(p/q), log(q*r), log(1/p), ...), and a copy of
    one term scaled by -1 or -1/2, which cancels it in full or in part,
    or by 1/3."""
    t = _MIXED
    atoms = (t["x"], t["E"], t["L"], t["y"], t["L"] * t["y"])
    pool = [draw(small) + draw(st.sampled_from([1, 2])) * atom
            for atom in draw(st.permutations(atoms))[:3]]
    coeffs = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-2, 3), 2])
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.sampled_from([1, -1, 0]), min_size=3,
                             max_size=3).filter(any))
        v = t.one()
        for p, k in zip(pool, exps):
            v = v * p ** k
        terms.append((draw(coeffs), LogPhi(v)))
    c, term = terms[draw(st.integers(0, len(terms) - 1))]
    share = draw(st.sampled_from([-1, Fraction(-1, 2), Fraction(1, 3)]))
    terms.append((share * c, term))
    return LiouvilleForm(draw(small) * t["x"], draw(st.permutations(terms)))


@given(shared_factor_logs())
@settings(max_examples=25, deadline=None)
def test_log_terms_merge_per_factor(form):
    # each log term enters as +c on the numerator of its argument and -c on
    # the denominator, summed per polynomial factor; the merged sum must be
    # the canonical one built term by term, under every handle
    t = _MIXED
    want = _term_by_term(t, FULL_D, form)
    assert verify_liouville(t, want, form)
    assert not verify_liouville(t, want + t["x"], form)
    for h in (FULL_D, CommutingX(t.gen_of("E").gid),
              CommutingX(t.gen_of("L").gid)):
        assert phi_sum(t, h, form.v0, form.terms) == _term_by_term(t, h, form)


def test_coefficients_must_be_constant():
    t = Tower.base().var("x")
    with pytest.raises(NonConstantCoefficient):
        LiouvilleForm(t.zero(), [(t["x"], LogPhi(t["x"] + 1))])


def _exp_and_log_over_x():
    x = Tower.base().var("x")
    return x.exp_ext("t", x["x"]), x.log_ext("u", x["x"])


def test_form_rejects_sibling_tower_element():
    # u = log x lives in a sibling of (x, t = exp x); read as t it would
    # make D(x + log u) = 1 + 1/(x log x) pass as 2.
    a, b = _exp_and_log_over_x()
    with pytest.raises(FieldMismatch):
        verify_liouville(a, a.lit(2),
                         LiouvilleForm(a["x"], [(1, LogPhi(b["u"]))]))


def test_form_rejects_same_gids_other_derivation():
    # Same generator id, different field: D x = 2 here, D x = 1 in a.
    a, _ = _exp_and_log_over_x()
    d = Tower.base().var("x", 2)
    with pytest.raises(FieldMismatch):
        verify_liouville(d, 2 / d["x"],
                         LiouvilleForm(d.zero(), [(1, LogPhi(a["x"]))]))


def test_verify_rejects_integrand_from_sibling_tower():
    a, b = _exp_and_log_over_x()
    with pytest.raises(FieldMismatch):
        verify_liouville(a, b["u"], LiouvilleForm(a["x"]))


def test_equal_towers_built_apart_combine():
    a, _ = _exp_and_log_over_x()
    a2, _ = _exp_and_log_over_x()
    assert a is not a2
    assert (a["t"] - a2["t"]).is_zero()
    assert verify_liouville(a, a2["t"], LiouvilleForm(a2["t"]))


# -- x_constant ----------------------------------------------------------------


def test_x_constant_log_tower():
    t = log_tower()
    form = LiouvilleForm(t["th"])
    c = x_constant(t, form, t.gen_of("th"))
    assert (c - 1).is_zero()


def test_x_constant_exp_tower():
    t = exp_tower()
    form = LiouvilleForm(t["x"] ** 2 / 2, [(1, LogPhi(t["th"]))])
    c = x_constant(t, form, t.gen_of("th"))
    assert (c - 1).is_zero()


def test_x_constant_all_below():
    t = log_tower()
    x = t["x"]
    form = LiouvilleForm(x ** 2, [(3, LogPhi(x + 1))])
    assert x_constant(t, form, t.gen_of("th")).is_zero()


def test_x_constant_invariant_under_below_parts():
    t = log_tower()
    x = t["x"]
    base = LiouvilleForm(t["th"] * 2, [(1, LogPhi(x))])
    extra = LiouvilleForm(base.v0 + x ** 5,
                          list(base.terms) + [(7, LogPhi(x ** 2 + 1))])
    c1 = x_constant(t, base, t.gen_of("th"))
    c2 = x_constant(t, extra, t.gen_of("th"))
    assert (c1 - c2).is_zero()


def test_x_constant_rejects_nonconstant():
    t = log_tower()
    form = LiouvilleForm(t["x"] * t["th"])  # X(x th) = x, not constant
    with pytest.raises(NotConstant):
        x_constant(t, form, t.gen_of("th"))


# -- Step 1 commutation grid ----------------------------------------------------


# numeric curve data keeps the grid cheap; symbolic constants send the
# third-kind formulas into enormous gcds for the lambertw tower
_CA, _CB, _POLE, _MOD, _LPOLE = -1, 1, 2, 2, 3


def _x_towers():
    """One tower per CommutingX kind, top generator named th."""
    base = Tower.base().var("x")
    return {
        "primitive": base.primitive("th", 1 / base["x"]),
        "exponential": base.exp_ext("th", base["x"]),
        "lambertw": base.lambertw("th", base["x"]),
        "elliptic": base.elliptic("th", base["x"], base.lit(_CA),
                                  base.lit(_CB)),
    }


def _phi_terms(t):
    """Terms whose argument involves the top generator th, with any curve
    companions adjoined above it."""
    yield "log", LogPhi(t["th"]), t

    if t.gen_of("th").kind.__class__.__name__ == "EllipticFunction":
        tv = t
        q = t["th_q"]
    else:
        tv = t.sqrt_ext("q", t["th"] ** 3 - _CA * t["th"] - _CB)
        q = tv["q"]
    thv, ca, cb = tv["th"], tv.lit(_CA), tv.lit(_CB)
    yield "w1", WPhi(1, thv, q, ca, cb), tv
    yield "w2", WPhi(2, thv, q, ca, cb), tv
    yield "w3", WPhi(3, thv, q, ca, cb, tv.lit(_POLE)), tv

    ty = t.sqrt_ext("y", (1 - t["th"] ** 2) * (1 - _MOD * t["th"] ** 2))
    yield "l1", LPhi(1, ty["th"], ty["y"], ty.lit(_MOD)), ty
    yield "l2", LPhi(2, ty["th"], ty["y"], ty.lit(_MOD)), ty
    tp = ty.sqrt_ext("delta", (1 - _LPOLE ** 2) * (1 - _MOD * _LPOLE ** 2))
    prm = ThirdKindParam(tp.lit(_LPOLE), tp["delta"])
    yield "l3", LPhi(3, tp["th"], tp["y"], tp.lit(_MOD), prm), tp


@pytest.mark.parametrize("xkind", ["primitive", "exponential", "lambertw",
                                   "elliptic"])
def test_step1_grid(xkind):
    t = _x_towers()[xkind]
    k = t.gen_of("th")
    for label, term, tv in _phi_terms(t):
        assert step1(tv, term, k), f"step 1 fails for {label}/{xkind}"


def test_step1_below_is_trivially_true():
    t = log_tower()
    assert step1(t, LogPhi(t["x"] + 1), t.gen_of("th"))


# -- reduce_top regressions -------------------------------------------------------


def test_reduce_log_primitive():
    t = log_tower()
    f = 1 / t["x"]
    form = LiouvilleForm(t["th"])
    out = reduce_top(t, f, form)
    t2 = out.tower
    assert [g.name for g in t2.generators] == ["x"]
    assert out.v0.is_zero()
    (coeff, term), = out.terms
    assert (coeff - 1).is_zero()
    assert isinstance(term, LogPhi) and (term.v - t2["x"]).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)


def test_reduce_exponential():
    t = exp_tower()
    x = t["x"]
    f = x + 1
    form = LiouvilleForm(x ** 2 / 2, [(1, LogPhi(t["th"]))])
    out = reduce_top(t, f, form)
    t2 = out.tower
    assert not out.terms
    assert (out.v0 - (t2["x"] ** 2 / 2 + t2["x"])).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)


def test_reduce_elliptic_function_pair():
    # the pair (p, p_q) is consumed together; c*v lands in v0
    t = Tower.base().const("a").const("b").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    t = t.ellint("E2", 2, t["p"], t["p_q"])
    f = t.derive(FULL_D, t["E2"])
    form = LiouvilleForm(t["E2"])
    out = reduce_top(t, f, form)  # strips E2 into a W2 term first
    t2 = out.tower
    (coeff, term), = out.terms
    assert isinstance(term, WPhi) and term.kind == 2
    assert verify_liouville(t2, t2.coerce(f), out)
    assert [g.name for g in t2.generators] == ["a", "b", "x", "p", "p_q"]
    # the tag recovered the curve of the elliptic function it integrates
    tag, ell = t.gen_of("E2").kind.tag, t.gen_of("p").kind
    assert (tag.a, tag.b) == (ell.a, ell.b)


def test_reduce_third_kind_integral():
    t = Tower.base().const("a").const("b").const("c").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    t = t.ellint("P", 3, t["p"], t["p_q"], t["c"])
    f = t.derive(FULL_D, t["P"])
    form = LiouvilleForm(t["P"])
    out = reduce_top(t, f, form)
    t2 = out.tower
    assert out.v0.is_zero()
    (coeff, term), = out.terms
    assert (coeff - 1).is_zero()
    assert isinstance(term, WPhi) and term.kind == 3
    assert (term.v - t2["p"]).is_zero() and (term.c - t2["c"]).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)


def test_reduce_lambertw_log_identity():
    # D(w + log w) = Dx/x for w = W(x)
    t = Tower.base().var("x")
    t = t.lambertw("w", t["x"])
    x, w = t["x"], t["w"]
    f = 1 / x
    form = LiouvilleForm(w, [(1, LogPhi(w))])
    assert verify_liouville(t, f, form)
    out = reduce_top(t, f, form)
    t2 = out.tower
    assert verify_liouville(t2, t2.coerce(f), out)
    (coeff, term), = out.terms
    assert isinstance(term, LogPhi) and (term.v - t2["x"]).is_zero()
    assert (coeff - 1).is_zero()
    assert out.v0.is_zero()


def test_reduce_untagged_primitive():
    t = Tower.base().var("x")
    x = t["x"]
    tn = t.primitive("th", x ** 2)  # integrand x^2, nothing recorded
    form = LiouvilleForm(tn["th"])
    with pytest.raises(IntegrandNotReducible):
        reduce_top(tn, tn["x"] ** 2, form)
    # same extension with the antiderivative recorded
    tr = t.primitive("th", x ** 2, antiderivative=x ** 3 / 3)
    out = reduce_top(tr, tr["x"] ** 2, LiouvilleForm(tr["th"]))
    t2 = out.tower
    assert not out.terms
    assert (out.v0 - t2["x"] ** 3 / 3).is_zero()
    assert verify_liouville(t2, t2["x"] ** 2, out)


def test_reduce_f_not_below():
    t = exp_tower()
    form = LiouvilleForm(t["x"])
    with pytest.raises(FNotBelow):
        reduce_top(t, t["th"], form)
    tb = Tower.base().var("x")
    tw = tb.lambertw("w", tb["x"])
    f = tw.derive(FULL_D, tw["w"])  # Dw mentions w itself
    with pytest.raises(FNotBelow):
        reduce_top(tw, f, LiouvilleForm(tw["w"]))


def test_reduce_nonconstant_slice_rejected():
    t = log_tower()
    form = LiouvilleForm(t["x"] * t["th"])
    with pytest.raises(NotConstant):
        reduce_top(t, 1 / t["x"], form)


def test_reduce_part_not_below():
    # x_constant comes out constant (-1) but Log{th + x} cannot be
    # rewritten below the exponential: its argument is no theta-monomial
    t = exp_tower()
    x, th = t["x"], t["th"]
    form = LiouvilleForm(t.zero(), [(1, LogPhi(th + x)),
                                    (-1, LogPhi(th ** 2 + x * th))])
    f = form_derivative(t, form)
    assert not f.used_gids() & {t.gen_of("th").gid}  # f = -1, below
    with pytest.raises(PartNotBelow):
        reduce_top(t, f, form)


def test_reduce_log_strips_monomial():
    # Log{x th^2} over exp x: c picks up the factor 2, Log{x} remains
    t = exp_tower()
    x, th = t["x"], t["th"]
    form = LiouvilleForm(t.zero(), [(1, LogPhi(x * th ** 2))])
    f = form_derivative(t, form)  # Dx/x + 2 Dth/th = 1/x + 2, below
    out = reduce_top(t, f, form)
    t2 = out.tower
    assert verify_liouville(t2, t2.coerce(f), out)
    assert (out.v0 - 2 * t2["x"]).is_zero()
    (coeff, term), = out.terms
    assert (coeff - 1).is_zero() and (term.v - t2["x"]).is_zero()


# -- reduce_algebraic -------------------------------------------------------------


def test_reduce_algebraic_log_regression():
    t = Tower.base().var("x")
    x = t["x"]
    t = t.sqrt_ext("s", (x - 1) / (x + 1))
    s = t["s"]
    f = 1 / (t["x"] ** 2 - 1)
    form = LiouvilleForm(t.zero(), [(1, LogPhi(s))])
    assert verify_liouville(t, f, form)
    out = reduce_algebraic(t, f, form)
    t2 = out.tower
    assert [g.name for g in t2.generators] == ["x"]
    (coeff, term), = out.terms
    assert (coeff - Fraction(1, 2)).is_zero()
    x2 = t2["x"]
    want = (x2 - 1) / (x2 + 1)
    # sign of the norm is immaterial under D log
    assert (term.v - want).is_zero() or (term.v + want).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)


def test_reduce_algebraic_all_below_is_identity():
    t = Tower.base().var("x")
    x = t["x"]
    t = t.sqrt_ext("s", x ** 2 + 1)
    f = 2 * t["x"] + 1 / t["x"]
    form = LiouvilleForm(t["x"] ** 2, [(1, LogPhi(t["x"]))])
    out = reduce_algebraic(t, f, form)
    t2 = out.tower
    assert (out.v0 - t2["x"] ** 2).is_zero()
    (coeff, term), = out.terms
    assert (coeff - 1).is_zero()
    assert (term.v - t2["x"]).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)


def test_reduce_algebraic_needs_the_top_root():
    t = Tower.base().var("x")
    t = t.sqrt_ext("s", t["x"] ** 2 + 1)
    f = 2 * t["x"] + 1 / t["x"]
    form = LiouvilleForm(t["x"] ** 2, [(1, LogPhi(t["x"]))])
    # a log above the root is the top extension
    above = t.log_ext("th", t["x"])
    with pytest.raises(UnsupportedHandle, match="^no square root on top$"):
        reduce_algebraic(above, f, form)
    # so is an elliptic function, which its companion root goes with
    e = Tower.base().const("a").const("b").var("x")
    e = e.elliptic("p", e["x"], e["a"], e["b"])
    with pytest.raises(UnsupportedHandle, match="^no square root on top$"):
        reduce_algebraic(e, e.one(), LiouvilleForm(e["x"]))
    # a root on top is no transcendental
    with pytest.raises(UnsupportedHandle,
                       match="^no reducible transcendental on top$"):
        reduce_top(t, f, form)
    # a constant parameter and a constant root above it are not
    above = t.const("c").sqrt_ext("r", 2)
    out = reduce_algebraic(above, f, form)
    assert [g.name for g in out.tower.generators] == ["x", "c", "r"]


def test_each_step_returns_the_form_over_the_tower_without_its_generator():
    t = Tower.base().const("a").const("b").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    t = t.sqrt_ext("s", t["x"] ** 2 + 1)
    t = t.log_ext("L", t["x"])
    x, s = t["x"], t["s"]
    form = LiouvilleForm(t["L"] + x ** 2, [(1, LogPhi(x + 1 + s)),
                                           (1, LogPhi(x + 1 - s))])
    f = form_derivative(t, form)
    # the elliptic function goes with its companion root
    for step, gone in ((reduce_top, {"L"}), (reduce_algebraic, {"s"}),
                       (reduce_top, {"p", "p_q"})):
        kept = [g.name for g in t.generators if g.name not in gone]
        form = step(t, f, form)
        assert [g.name for g in form.tower.generators] == kept
        assert form.v0.tower is form.tower
        assert verify_liouville(form.tower, form.tower.coerce(f), form)
        t = form.tower


def test_reduce_algebraic_refuses_an_integrand_in_the_root():
    # the driver stops at the integrand's floor on this refusal, so it
    # is seen from the library
    t = Tower.base().var("x")
    t = t.sqrt_ext("s", t["x"] ** 2 + 1)
    f, form = t["x"] / t["s"], LiouvilleForm(t["s"])
    assert verify_liouville(t, f, form)
    with pytest.raises(FNotBelow, match="^integrand involves s$"):
        reduce_algebraic(t, f, form)


def test_reduce_top_refuses_a_tower_with_no_transcendental():
    # a base variable is the floor of reduction, so nothing is on top
    t = Tower.base().var("x")
    with pytest.raises(UnsupportedHandle,
                       match="^no reducible transcendental on top$"):
        reduce_top(t, t.one(), LiouvilleForm(t["x"]))


def test_reduce_of_a_tower_of_constants_takes_no_step():
    # every generator is skipped as constant, down to the empty base
    t = Tower.base().const("c")
    t = t.sqrt_ext("r", t["c"] + 1)
    assert reduce(t, t.zero(), LiouvilleForm(t["r"])) == []


def legendre_pushdown_tower():
    """Conjugate points x +- s on one Legendre curve.

    With r = (1+m)/(2m) - x^2 the curve value (1-v^2)(1-m v^2) is the
    same s-free quantity at v = x+s and v = x-s, so a single generator y
    adjoined below s covers both points.
    """
    t = Tower.base().const("m").var("x")
    m, x = t["m"], t["x"]
    big_e = (1 + m) / (2 * m)
    r = big_e - x ** 2
    a_val = (1 - big_e) * (1 - m * big_e) + 4 * m * x ** 2 * r
    t = t.sqrt_ext("y", a_val)
    t = t.sqrt_ext("s", r)
    return t


def test_legendre_pushdown_tower_is_consistent():
    t = legendre_pushdown_tower()
    m, x, y, s = t["m"], t["x"], t["y"], t["s"]
    for v in (x + s, x - s):
        assert (y ** 2 - (1 - v ** 2) * (1 - m * v ** 2)).is_zero()


def test_reduce_algebraic_l1_merges():
    t = legendre_pushdown_tower()
    m, x, y, s = t["m"], t["x"], t["y"], t["s"]
    sgid = t.gen_of("s").gid
    form = LiouvilleForm(t.zero(),
                         [(Fraction(1, 2), LPhi(1, x + s, y, m)),
                          (Fraction(1, 2), LPhi(1, x - s, y, m))])
    f = form_derivative(t, form)
    assert (f - f.conj(sgid)).is_zero()
    assert sgid not in f.used_gids()
    out = reduce_algebraic(t, f, form)
    # both halves land on the same summed point and merge
    (coeff, term), = out.terms
    assert isinstance(term, LPhi) and term.kind == 1
    assert (coeff - Fraction(1, 2)).is_zero()
    assert verify_liouville(out.tower, out.tower.coerce(f), out)


def test_reduce_algebraic_l2_correction():
    t = legendre_pushdown_tower()
    m, x, y, s = t["m"], t["x"], t["y"], t["s"]
    sgid = t.gen_of("s").gid
    form = LiouvilleForm(t.zero(),
                         [(Fraction(1, 2), LPhi(2, x + s, y, m)),
                          (Fraction(1, 2), LPhi(2, x - s, y, m))])
    f = form_derivative(t, form)
    assert (f - f.conj(sgid)).is_zero()
    out = reduce_algebraic(t, f, form)
    assert verify_liouville(out.tower, out.tower.coerce(f), out)
    assert any(isinstance(term, LPhi) and term.kind == 2
               for _, term in out.terms)
    # the rational correction went into v0
    assert not out.v0.is_zero()


def weierstrass_pushdown_tower():
    """Conjugate points x +- s sharing the s-free companion q."""
    t = Tower.base().const("a").const("b").var("x")
    a, b, x = t["a"], t["b"], t["x"]
    t = t.sqrt_ext("q", -8 * x ** 3 + 2 * a * x - b)
    t = t.sqrt_ext("s", a - 3 * x ** 2)
    return t


def test_weierstrass_pushdown_tower_is_consistent():
    t = weierstrass_pushdown_tower()
    a, b, x, q, s = t["a"], t["b"], t["x"], t["q"], t["s"]
    for v in (x + s, x - s):
        assert (q ** 2 - (v ** 3 - a * v - b)).is_zero()


@pytest.mark.parametrize("kind", [1, 2])
def test_reduce_algebraic_weierstrass(kind):
    t = weierstrass_pushdown_tower()
    a, b, x, q, s = t["a"], t["b"], t["x"], t["q"], t["s"]
    sgid = t.gen_of("s").gid
    form = LiouvilleForm(t.zero(),
                         [(Fraction(1, 2), WPhi(kind, x + s, q, a, b)),
                          (Fraction(1, 2), WPhi(kind, x - s, q, a, b))])
    f = form_derivative(t, form)
    assert (f - f.conj(sgid)).is_zero()
    out = reduce_algebraic(t, f, form)
    assert verify_liouville(out.tower, out.tower.coerce(f), out)
    (coeff, term), = out.terms
    assert isinstance(term, WPhi) and term.kind == kind
    assert (coeff - Fraction(1, 2)).is_zero()
    # the summed point is (-2x, -q): zero chord slope, so W2 adds nothing
    t2 = out.tower
    assert (term.v + 2 * t2["x"]).is_zero()
    assert (term.q + t2["q"]).is_zero()
    if kind == 2:
        assert out.v0.is_zero()


def test_reduce_algebraic_w3_unsupported():
    t = weierstrass_pushdown_tower().const("c")
    a, b, x, q, s, c = (t["a"], t["b"], t["x"], t["q"], t["s"], t["c"])
    form = LiouvilleForm(t.zero(),
                         [(Fraction(1, 2), WPhi(3, x + s, q, a, b, c)),
                          (Fraction(1, 2), WPhi(3, x - s, q, a, b, c))])
    f = form_derivative(t, form)
    with pytest.raises(UnsupportedTermKind):
        reduce_algebraic(t, f, form)


def _l3_tower(*roots):
    """The third-kind Legendre tower of the l3_pushdown benchmark, with
    the roots (name, radicand) adjoined after x."""
    t = Tower.base().const("m").const("pa").var("x")
    for name, radicand in roots:
        t = t.sqrt_ext(name, radicand)
    m, pa, x = t["m"], t["pa"], t["x"]
    big_e = (1 + m) / (2 * m)
    r = big_e - x ** 2
    a_val = (1 - big_e) * (1 - m * big_e) + 4 * m * x ** 2 * r
    t = t.sqrt_ext("y", a_val)
    t = t.sqrt_ext("delta", (1 - pa ** 2) * (1 - m * pa ** 2))
    t = t.sqrt_ext("s", r)
    prm = ThirdKindParam(t["pa"], t["delta"])
    prm.validate(LegendreCurve(t["m"]))
    return t, prm


def _l3_pair(t: Tower, prm: ThirdKindParam) -> list:
    """The conjugate pair of third-kind terms at x + s and x - s on the
    tower of _l3_tower: the form that the l3_pushdown benchmark reduces."""
    m, x, y, s = t["m"], t["x"], t["y"], t["s"]
    return [(Fraction(1, 2), LPhi(3, x + s, y, m, prm)),
            (Fraction(1, 2), LPhi(3, x - s, y, m, prm))]


def _count_abel_calls(monkeypatch) -> dict:
    """Count curves.legendre_add, which abel_step calls, and abel_step at
    its liouville binding, which reduce_algebraic calls."""
    calls = {"legendre_add": 0, "abel_step": 0}
    for module, name in ((curves, "legendre_add"), (liouville, "abel_step")):
        fn = getattr(module, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_reduce_algebraic_l3_log_correction(monkeypatch):
    t, prm = _l3_tower()
    sgid = t.gen_of("s").gid
    form = LiouvilleForm(t.zero(), _l3_pair(t, prm))
    f = form_derivative(t, form)
    assert (f - f.conj(sgid)).is_zero()
    calls = _count_abel_calls(monkeypatch)
    out = reduce_algebraic(t, f, form)
    # the two terms are one conjugate pair, pushed once
    assert calls == {"legendre_add": 1, "abel_step": 1}
    assert verify_liouville(out.tower, out.tower.coerce(f), out)
    assert any(isinstance(term, LPhi) and term.kind == 3
               for _, term in out.terms)
    assert any(isinstance(term, LogPhi) for _, term in out.terms)


def test_l3_reduction_work_is_pinned(monkeypatch):
    # term pairs over every polynomial product of the reduction that the
    # l3_pushdown benchmark times, its self-check included; it took 70,228
    # when each log term entered as the quotient rule's D(v)/v over d^2,
    # and 35,405 when the self-check read the Abel correction as its one
    # canonical log instead of the conjugate pair log(num) - log(den).
    # Every GCDHEU call too, its recursion on the evaluated images
    # included: 33 when each normal form's gcd found the tower's radicand
    # factors itself, before normal forms divided them out first
    t, prm = _l3_tower()
    form = LiouvilleForm(t.zero(), _l3_pair(t, prm))
    f = form_derivative(t, form)
    pairs, heu_calls = [], []
    mul, heu = poly._dict_mul, poly._heu_gcd

    def counted(a, b, deg):
        pairs.append(len(a) * len(b))
        return mul(a, b, deg)

    def counted_heu(p, q):
        heu_calls.append(1)
        return heu(p, q)

    monkeypatch.setattr(poly, "_dict_mul", counted)
    monkeypatch.setattr(poly, "_heu_gcd", counted_heu)
    steps = reduce(t, f, form)
    assert len(steps) == 1
    assert sum(pairs) <= 10_400
    assert len(heu_calls) <= 8


def test_reduction_checks_each_term_once(monkeypatch):
    # the self-check form checks the correction's two split logs and the
    # l3 term; the returned form reuses them, and its canonical log needs
    # no check: its numerator divides the split numerator times the
    # conjugates of the split denominator
    t, prm = _l3_tower()
    form = LiouvilleForm(t.zero(), _l3_pair(t, prm))
    f = form_derivative(t, form)
    checked = []
    check = liouville.check_term

    def counted(term, rels):
        checked.append(type(term).__name__)
        return check(term, rels)

    monkeypatch.setattr(liouville, "check_term", counted)
    reduce(t, f, form)
    assert checked == ["LogPhi", "LogPhi", "LPhi"]


@pytest.mark.parametrize("side", ["num", "den"])
def test_a_zero_divisor_correction_is_refused(monkeypatch, side):
    # z = 2 ya - yb with ya^2 = 2, yb^2 = 8 is a nonzero zero divisor; an
    # Abel correction log(num/den) with z times num or den is refused,
    # though the canonical log of the returned form is not checked
    t, prm = _l3_tower(("ya", 2), ("yb", 8))
    form = LiouvilleForm(t.zero(), _l3_pair(t, prm))
    f = form_derivative(t, form)
    assert reduce_algebraic(t, f, form).terms
    z = 2 * t["ya"] - t["yb"]
    step = liouville.abel_step

    def spoiled(*args):
        p3, w, (c, num, den) = step(*args)
        return p3, w, ((c, num * z, den) if side == "num"
                       else (c, num, den * z))

    monkeypatch.setattr(liouville, "abel_step", spoiled)
    with pytest.raises(ZeroDenominator, match=ZERO_DIVISOR):
        reduce_algebraic(t, f, form)


def test_no_normal_form_gcd_takes_a_relation_generator(monkeypatch):
    # a normal form's denominator holds no relation generator, so its gcd
    # is folded from the numerator's coefficients over them: over the l3
    # reduction, no gcd that a normal form takes sees a root
    t, prm = _l3_tower()
    form = LiouvilleForm(t.zero(), _l3_pair(t, prm))
    f = form_derivative(t, form)
    operands = []
    gcd = ratfunc.poly_gcd

    def seen(p, q):
        operands.extend((p, q))
        return gcd(p, q)

    monkeypatch.setattr(ratfunc, "poly_gcd", seen)
    assert len(reduce(t, f, form)) == 1
    assert operands
    assert all(p.gens().isdisjoint(t.rels) for p in operands)


def test_self_check_catches_a_wrong_third_kind_correction(monkeypatch):
    # the self-check reads the correction as its two logs; a doubled
    # coefficient c changes the derivative, and the step refuses it
    t, prm = _l3_tower()
    form = LiouvilleForm(t.zero(), _l3_pair(t, prm))
    f = form_derivative(t, form)
    step = liouville.abel_step

    def doubled(*args):
        p3, w, (c, num, den) = step(*args)
        return p3, w, (2 * c, num, den)

    monkeypatch.setattr(liouville, "abel_step", doubled)
    with pytest.raises(SelfCheckFailed):
        reduce(t, f, form)


@pytest.mark.parametrize("same", [False, True], ids=["k=3", "k=-c"])
def test_correction_merges_with_a_log_of_its_argument(same):
    # an s-free log k*log(v) in the input, v the correction's canonical
    # argument: the returned form holds one log of v with coefficient
    # c + k, or none when k = -c, and the self-check passes either way
    t, prm = _l3_tower()
    pair = _l3_pair(t, prm)
    bare = LiouvilleForm(t.zero(), pair)
    first = reduce_algebraic(t, form_derivative(t, bare), bare)
    (c, log), = [(c, term) for c, term in first.terms
                 if isinstance(term, LogPhi)]
    k = -t.coerce(c) if same else t.lit(3)
    form = LiouvilleForm(t.zero(), pair + [(k, LogPhi(t.coerce(log.v)))])
    f = form_derivative(t, form)
    out = reduce_algebraic(t, f, form)
    logs = [(d, term) for d, term in out.terms if isinstance(term, LogPhi)]
    assert logs == ([] if same else [(c + 3, log)])
    assert verify_liouville(out.tower, out.tower.coerce(f), out)


def test_each_tower_finds_its_reduction_target_once(monkeypatch):
    # the driver picks each step by the target and the step opens on it
    # again, so the l3 reduction asks four times: on t, and on the tower
    # below, where the step refuses at the integrand's floor.  It visits
    # two towers, and each finds its target once
    t, prm = _l3_tower()
    form = LiouvilleForm(t.zero(), _l3_pair(t, prm))
    f = form_derivative(t, form)
    found, asked = [], []
    find, target = liouville._find_target, liouville._reduction_target
    monkeypatch.setattr(liouville, "_find_target",
                        lambda u: found.append(u) or find(u))
    monkeypatch.setattr(liouville, "_reduction_target",
                        lambda u: asked.append(u) or target(u))
    steps = reduce(t, f, form)
    assert found == [t, steps[0].tower]
    assert len(asked) == 4  # driver and step on t, driver and step below
    top = t.gen_of("s")
    assert liouville._reduction_target(t) == (top, {top.gid})


def test_reduce_algebraic_pushes_each_orbit_once_in_order(monkeypatch):
    # a conjugate log pair (conjugate first), a conjugate third-kind pair
    # and an s-free log, interleaved: each pair is pushed once at the
    # place where it first appears, and the s-free term keeps its place
    t, prm = _l3_tower()
    m, x, y, s = t["m"], t["x"], t["y"], t["s"]
    sgid = t.gen_of("s").gid
    form = LiouvilleForm(t.zero(),
                         [(1, LogPhi(x - s)),
                          (Fraction(1, 2), LPhi(3, x + s, y, m, prm)),
                          (3, LogPhi(x)),
                          (1, LogPhi(x + s)),
                          (Fraction(1, 2), LPhi(3, x - s, y, m, prm))])
    f = form_derivative(t, form)
    assert (f - f.conj(sgid)).is_zero()
    calls = _count_abel_calls(monkeypatch)
    out = reduce_algebraic(t, f, form)
    assert calls == {"legendre_add": 1, "abel_step": 1}
    assert verify_liouville(out.tower, out.tower.coerce(f), out)
    down = out.tower.coerce
    correction = down(-t["pa"] / (4 * t["delta"]))
    assert [(type(term).__name__, cf) for cf, term in out.terms] == [
        ("LogPhi", 1), ("LogPhi", correction), ("LPhi", Fraction(1, 2)),
        ("LogPhi", 3)]
    assert out.terms[0][1] == LogPhi(log_canonical(down(x * x - s * s)))
    assert out.terms[3][1] == LogPhi(down(x))


def test_log_canonical_makes_the_leading_coefficient_positive():
    t = Tower.base().var("x")
    x = t["x"]
    assert log_canonical(-(x + 1)) == x + 1
    assert log_canonical(x + 1) == x + 1
    assert log_canonical(-2 / (x - 3)) == 2 / (x - 3)


def test_reduce_algebraic_weierstrass_cancellation():
    # v is s-free and the curve coordinate is s itself, so the conjugate
    # point is the negation and the pair drops entirely
    t = Tower.base().const("a").const("b").var("x")
    a, b, x = t["a"], t["b"], t["x"]
    t = t.sqrt_ext("s", x ** 3 - a * x - b)
    a, b, x, s = t["a"], t["b"], t["x"], t["s"]
    form = LiouvilleForm(t.zero(),
                         [(Fraction(1, 2), WPhi(1, x, s, a, b)),
                          (Fraction(1, 2), WPhi(1, x, -s, a, b))])
    f = form_derivative(t, form)
    assert f.is_zero()
    out = reduce_algebraic(t, f, form)
    assert not out.terms
    assert out.v0.is_zero()


def test_reduce_algebraic_legendre_cancellation():
    # as on the cubic: v is s-free and y is s itself, so the conjugate
    # point is the negation and the pair drops entirely
    t = Tower.base().const("m").var("x")
    m, x = t["m"], t["x"]
    t = t.sqrt_ext("s", (1 - x ** 2) * (1 - m * x ** 2))
    m, x, s = t["m"], t["x"], t["s"]
    form = LiouvilleForm(t.zero(), [(Fraction(1, 2), LPhi(1, x, s, m)),
                                    (Fraction(1, 2), LPhi(1, x, -s, m))])
    f = form_derivative(t, form)
    assert f.is_zero()
    out = reduce_algebraic(t, f, form)
    assert not out.terms
    assert out.v0.is_zero()

def test_reduce_algebraic_legendre_identity_point():
    # conjugate first-kind points (s, y), (-s, y) sum to the identity
    # (0, 1); the resulting term is vacuous but legal
    t = Tower.base().const("m").var("x")
    m, x = t["m"], t["x"]
    t = t.sqrt_ext("y", (1 - x) * (1 - m * x))
    t = t.sqrt_ext("s", x)
    m, x, y, s = t["m"], t["x"], t["y"], t["s"]
    assert (y ** 2 - (1 - s ** 2) * (1 - m * s ** 2)).is_zero()
    form = LiouvilleForm(t.zero(), [(Fraction(1, 2), LPhi(1, s, y, m)),
                                    (Fraction(1, 2), LPhi(1, -s, y, m))])
    f = form_derivative(t, form)
    assert f.is_zero()
    out = reduce_algebraic(t, f, form)
    assert verify_liouville(out.tower, out.tower.zero(), out)
    for _, term in out.terms:
        assert phi_value(out.tower, term, FULL_D).is_zero()


# -- driver ---------------------------------------------------------------------


def test_reduce_driver_two_steps():
    t = Tower.base().var("x")
    x = t["x"]
    t = t.sqrt_ext("s", (x - 1) / (x + 1))
    t = t.log_ext("th", t["x"])
    f = 1 / t["x"] + 1 / (t["x"] ** 2 - 1)
    form = LiouvilleForm(t["th"], [(1, LogPhi(t["s"]))])
    assert verify_liouville(t, f, form)
    steps = reduce(t, f, form)
    assert len(steps) == 2
    assert [g.name for g in steps[-1].tower.generators] == ["x"]
    for step in steps:
        assert verify_liouville(step.tower, step.tower.coerce(f), step.form)
    assert len(steps[-1].form.terms) == 2


def test_reduce_driver_stops_at_floor():
    t = exp_tower()
    f = t["th"] + 1
    form = LiouvilleForm(t["x"] + t["th"])
    assert reduce(t, f, form) == []


def test_reduce_driver_skips_constants():
    t = Tower.base().const("m").var("x")
    t = t.log_ext("th", t["x"])
    f = t["m"] / t["x"]
    form = LiouvilleForm(t["th"] * t["m"])
    steps = reduce(t, f, form)
    assert len(steps) == 1
    t2 = steps[-1].tower
    assert [g.name for g in t2.generators] == ["m", "x"]
    assert verify_liouville(t2, t2.coerce(f), steps[-1].form)


def test_reduce_driver_max_steps():
    t = Tower.base().var("x")
    t = t.log_ext("u", t["x"])
    t = t.log_ext("v", t["x"] + 1)
    f = 1 / t["x"] + 1 / (t["x"] + 1)
    form = LiouvilleForm(t["u"] + t["v"])
    steps = reduce(t, f, form, max_steps=1)
    assert len(steps) == 1


def test_reduce_driver_consumes_an_elliptic_pair():
    # the companion p_q on top routes to p, and one step removes both
    t = Tower.base().const("a").const("b").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    f, form = t.one(), LiouvilleForm(t["x"])
    steps = reduce(t, f, form)
    assert len(steps) == 1
    t2 = steps[0].tower
    assert [g.name for g in t2.generators] == ["a", "b", "x"]
    assert verify_liouville(t2, t2.coerce(f), steps[0].form)


def test_two_derivation_constants_commute():
    # the x_constant weights of two commuting X handles annihilate each other
    t = Tower.base().const("m").var("x")
    t = t.primitive("u", 1 / t["x"])
    t = t.primitive("v", t["x"])
    form = LiouvilleForm(t["m"] * t["u"] + t["v"] + t["x"] ** 2 / 2)
    cu = x_constant(t, form, t.gen_of("u"))
    cv = x_constant(t, form, t.gen_of("v"))
    assert (cu - t["m"]).is_zero() and (cv - 1).is_zero()
    xu = CommutingX(t.gen_of("u").gid)
    xv = CommutingX(t.gen_of("v").gid)
    assert t.derive(xv, cu).is_zero()
    assert t.derive(xu, cv).is_zero()
    assert t.derive(FULL_D, cu).is_zero()


def test_form_repr_lists_v0_and_each_term():
    t = Tower.base().var("x")
    x = t["x"]
    assert repr(LiouvilleForm(x)) == "LiouvilleForm(v0 = x)"
    assert (repr(LiouvilleForm(x, [(2, LogPhi(x))]))
            == "LiouvilleForm(v0 = x; (2) * LogPhi(v=<Element x>))")
