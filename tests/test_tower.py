"""Differential towers: extensions, derivations, commutation, trace/norm."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffalg.errors import (CyclicDefinition, FieldMismatch,
                            InvalidDefiningData, NameClash, NotQuadratic,
                            PsiNotRealizable, UnsupportedHandle, ZeroElement)
from diffalg.tower import (BelowD, CommutingX, FULL_D, PartialD, PsiRational,
                           PsiSqrtCubic, Tower)


def exp_inv_square():
    """Q(x)(t), t = exp(1/x^2)."""
    t = Tower.base().var("x")
    return t.exp_ext("t", 1 / t["x"] ** 2)


def test_worked_exponential_derivative():
    t = exp_inv_square()
    x, th = t["x"], t["t"]
    # D(t) = D(1/x^2) t = (-2/x^3) t
    assert (t.derive(FULL_D, th) - (-2 / x ** 3) * th).is_zero()
    # D(x t) = ((x^2 - 2)/x^2) t, the worked indefinite integral
    lhs = t.derive(FULL_D, x * th)
    assert (lhs - (x ** 2 - 2) * th / x ** 2).is_zero()


def test_elliptic_pair_relation():
    t = Tower.base().const("a").const("b").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    assert [g.name for g in t.generators] == ["a", "b", "x", "p", "p_q"]
    p, q, a, b = t["p"], t["p_q"], t["a"], t["b"]
    assert (q * q - (p ** 3 - a * p - b)).is_zero()
    # D(p) = D(x) q = q and D(q) = (3p^2 - a)/2
    assert (t.derive(FULL_D, p) - q).is_zero()
    assert (t.derive(FULL_D, q) - (3 * p ** 2 - a) / 2).is_zero()


def test_constants():
    t = Tower.base().const("m").var("x")
    assert t.derive(FULL_D, t.lit(7)).is_zero()
    assert t.lit(Fraction(3, 5)).is_constant()
    assert t["m"].is_constant()
    assert not t["x"].is_constant()


def test_quotient_identity_is_constant():
    t = Tower.base().var("x")
    t = t.exp_ext("t", t["x"])
    th = t["t"]
    assert (th / th).is_constant()


def test_commuting_x_exponential():
    t = exp_inv_square()
    th = t["t"]
    h = CommutingX(t.gen_of("t").gid)
    # X = theta d/dtheta, so X(t^2) = 2 t^2 and X kills the base
    assert (t.derive(h, th ** 2) - 2 * th ** 2).is_zero()
    assert t.derive(h, t["x"]).is_zero()


def test_partial_and_below():
    t = exp_inv_square()
    x, th = t["x"], t["t"]
    gid = t.gen_of("t").gid
    e = x * th
    assert (t.derive(PartialD(gid), e) - x).is_zero()
    # BelowD differentiates the coefficients only
    assert (t.derive(BelowD(gid), e) - th).is_zero()
    assert t.derive(BelowD(gid), th).is_zero()


def test_below_fill_raises_only_on_read():
    # BelowD(t) is undefined on the exponential u above t and on the root
    # r of u; filling the table up to s passes both without raising
    t = Tower.base().var("x")
    t = t.exp_ext("t", t["x"]).exp_ext("u", t["x"])
    t = t.sqrt_ext("r", t["u"])
    t = t.sqrt_ext("s", t["x"])
    h = BelowD(t.gen_of("t").gid)
    assert (t.derive(h, t["s"]) - 1 / (2 * t["s"])).is_zero()
    for name in ("u", "r"):
        with pytest.raises(UnsupportedHandle):
            t.derive(h, t[name])


def test_below_fill_computes_failed_entries_once(monkeypatch):
    # BelowD(t) is undefined on the exponential u, so each root r_k of
    # r_(k-1) fails through the one below it.  Every entry is computed
    # once per fill, not once per reader; the guard stops the
    # exponential recount that retrying failed entries would take
    from diffalg import tower as tower_mod
    t = Tower.base().var("x")
    t = t.exp_ext("t", t["x"]).exp_ext("u", t["x"])
    prev = "u"
    for k in range(1, 31):
        t = t.sqrt_ext(f"r{k}", t[prev])
        prev = f"r{k}"
    calls = []
    real = tower_mod._diff_rf

    def counted(rf, get):
        calls.append(1)
        if len(calls) > 100:
            raise RuntimeError("derivative table recomputed")
        return real(rf, get)
    monkeypatch.setattr(tower_mod, "_diff_rf", counted)
    with pytest.raises(UnsupportedHandle):
        t.derive(BelowD(t.gen_of("t").gid), t["r30"])
    assert len(calls) <= 32  # one per root, one for D r30 itself


def test_fill_failure_is_not_kept_past_the_fill():
    # D t9 overflows a degree limit of 8; once the limit is lifted, the
    # same tower derives, so no failure outlives the fill that saw it
    from diffalg.errors import DegreeOverflow
    from diffalg.poly import set_degree_limit
    t = Tower.base().var("x")
    t = t.exp_ext("t1", t["x"])
    for k in range(2, 13):
        t = t.exp_ext(f"t{k}", t[f"t{k - 1}"])
    set_degree_limit(8)
    try:
        with pytest.raises(DegreeOverflow):
            t.derive(FULL_D, t["t12"])
    finally:
        set_degree_limit(None)
    want = t["t1"]
    for k in range(2, 13):
        want = want * t[f"t{k}"]
    assert (t.derive(FULL_D, t["t12"]) - want).is_zero()


def test_chain_rule():
    t = exp_inv_square()
    x, th = t["x"], t["t"]
    gen = t.gen_of("t")
    assert t.check_chain_rule(gen, x * th)
    assert t.check_chain_rule(gen, x ** 2 / (x + 1))  # e below theta
    assert t.check_chain_rule(gen, th)
    with pytest.raises(UnsupportedHandle):
        t2 = Tower.base().var("x")
        t2 = t2.sqrt_ext("s", t2["x"])
        t2.check_chain_rule(t2.gen_of("s"), t2["s"])


def lie_towers():
    base = Tower.base().var("x")
    yield base.primitive("u", 1 / base["x"])
    yield base.exp_ext("t", base["x"] ** 2)
    yield base.lambertw("w", base["x"])
    ab = Tower.base().const("a").const("b").var("x")
    yield ab.elliptic("p", ab["x"], ab["a"], ab["b"])


@pytest.mark.parametrize("t", list(lie_towers()),
                         ids=["primitive", "exponential", "lambertw",
                              "elliptic"])
def test_lie_closed_all_kinds(t):
    # check every eligible generator, not just one
    from diffalg.tower import _X_KINDS
    for g in t.generators:
        if isinstance(g.kind, _X_KINDS):
            rep = t.check_lie_closed(g)
            assert rep.passed, f"[D, X_{g.name}] != 0: {rep.residues}"
            assert all(res.is_zero() for _, res in rep.residues)


# -- der-comm weights ---------------------------------------------------------

PSI_SQUARE = PsiRational(num=(0, 0, 1), den=(1,))
PSI_INV = PsiRational(num=(1,), den=(0, 1))


def two_primitive_tower():
    t = Tower.base().var("x")
    t = t.primitive("u", 1 / t["x"])
    t = t.primitive("v", t["x"] ** 2 + 1)
    return t


def test_der_comm_same_handle():
    t = two_primitive_tower()
    h = CommutingX(t.gen_of("u").gid)
    p = t["u"] * t["x"]
    assert t.check_der_comm(h, h, p, PSI_SQUARE)


def test_der_comm_two_primitives():
    t = two_primitive_tower()
    xu = CommutingX(t.gen_of("u").gid)
    xv = CommutingX(t.gen_of("v").gid)
    p = t["u"] + t["v"] ** 2
    assert t.check_der_comm(xu, xv, p, PSI_INV)
    assert t.check_der_comm(xu, xv, p, PSI_SQUARE)


def test_der_comm_sqrt_cubic_weight():
    t = Tower.base().const("a").const("b").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    t = t.primitive("u", 1 / t["x"])
    psi = PsiSqrtCubic(t["a"], t["b"], t["p_q"])
    xp = CommutingX(t.gen_of("p").gid)
    xu = CommutingX(t.gen_of("u").gid)
    assert t.check_der_comm(xp, xu, t["p"], psi)
    with pytest.raises(PsiNotRealizable):
        psi.realize(t, t["x"])  # x is not the curve coordinate


# -- trace, norm, log-derivative ----------------------------------------------


def sqrt_tower(radicand):
    t = Tower.base().var("x")
    return t.sqrt_ext("s", radicand(t["x"]))


def test_trace_norm_generic():
    t = sqrt_tower(lambda x: x ** 3 - x)
    x, s = t["x"], t["s"]
    a = x + 1
    b = x ** 2
    e = a + b * s
    gen = t.gen_of("s")
    assert (t.trace(gen, e) - 2 * a).is_zero()
    assert (t.norm(gen, e) - (a ** 2 - b ** 2 * (x ** 3 - x))).is_zero()


def test_trace_norm_pure_root():
    t = sqrt_tower(lambda x: x)
    s, x = t["s"], t["x"]
    gen = t.gen_of("s")
    assert t.trace(gen, s).is_zero()
    assert (t.norm(gen, s) + x).is_zero()


def test_norm_collapses_to_one():
    t = sqrt_tower(lambda x: x ** 2 - 1)
    e = t["x"] + t["s"]
    assert (t.norm("s", e) - 1).is_zero()


@pytest.mark.parametrize("radicand", [
    lambda x: x ** 2 - 1,
    lambda x: (x - 1) / (x + 1),
    lambda x: x ** 3 - x,
], ids=["x2-1", "mobius", "cubic"])
def test_lognorm_identity(radicand):
    t = sqrt_tower(radicand)
    x, s = t["x"], t["s"]
    for e in (s, x + s, x * s + 1):
        assert t.check_lognorm("s", e)
    assert t.check_lognorm("s", x + 2)  # below s: reduces to a tautology
    with pytest.raises(ZeroElement):
        t.check_lognorm("s", t.zero())


def test_trace_requires_sqrt_generator():
    t = exp_inv_square()
    with pytest.raises(NotQuadratic):
        t.trace("t", t["x"])


def test_trace_rejects_higher_elements():
    t = sqrt_tower(lambda x: x)
    t = t.exp_ext("t", t["x"])
    with pytest.raises(FieldMismatch):
        t.trace("s", t["t"])


# -- extension validation ------------------------------------------------------


def test_name_clash():
    t = Tower.base().var("x")
    with pytest.raises(NameClash):
        t.var("x")
    with pytest.raises(NameClash):
        t.elliptic("x", t["x"], 1, 2)  # would need x and x_q


def test_defining_data_must_be_below():
    t1 = Tower.base().var("x")
    t2 = t1.exp_ext("t", t1["x"])
    with pytest.raises(CyclicDefinition):
        t1.exp_ext("u", t2["t"])  # data from a taller tower


def test_invalid_defining_data():
    t = Tower.base().var("x")
    with pytest.raises(InvalidDefiningData):
        t.log_ext("l", 0)
    with pytest.raises(InvalidDefiningData):
        t.sqrt_ext("s", 0)
    with pytest.raises(InvalidDefiningData):
        t.elliptic("p", t["x"], t["x"], 1)  # a must be constant
    with pytest.raises(InvalidDefiningData):
        t.ellint("E", 4, t["x"], t["x"])
    ab = Tower.base().const("a").const("b").var("x")
    ab = ab.elliptic("p", ab["x"], ab["a"], ab["b"])
    with pytest.raises(InvalidDefiningData):
        ab.ellint("P", 3, ab["p"], ab["p_q"])  # third kind needs the pole


def test_wrap_rejects_foreign_gids():
    t = Tower.base().var("x")
    taller = t.exp_ext("t", t["x"])
    with pytest.raises(FieldMismatch):
        t.wrap(taller["t"].rf)


def test_derive_lifts_prefix_elements():
    t = Tower.base().var("x")
    taller = t.exp_ext("t", t["x"])
    # element of the prefix is usable in the taller tower
    assert (taller.derive(FULL_D, t["x"]) - 1).is_zero()
    other = Tower.base().var("y")
    with pytest.raises(FieldMismatch):
        taller.derive(FULL_D, other["y"])


# -- Leibniz rule on random elements -------------------------------------------

ints = st.integers(min_value=-3, max_value=3)


@st.composite
def tower_elements(draw):
    t = sqrt_tower(lambda x: x ** 2 - 1)
    x, s = t["x"], t["s"]

    def build():
        e = t.lit(draw(ints))
        e = e + draw(ints) * x + draw(ints) * s
        e = e + draw(ints) * x * s + draw(ints) * x ** 2
        d = t.lit(abs(draw(ints)) + 1) + abs(draw(ints)) * x ** 2
        return e / d
    return t, build(), build()


@given(tower_elements())
@settings(max_examples=40, deadline=None)
def test_leibniz_rule(te):
    t, e1, e2 = te
    lhs = t.derive(FULL_D, e1 * e2)
    rhs = t.derive(FULL_D, e1) * e2 + e1 * t.derive(FULL_D, e2)
    assert (lhs - rhs).is_zero()


@given(tower_elements())
@settings(max_examples=25, deadline=None)
def test_derivation_additive(te):
    t, e1, e2 = te
    lhs = t.derive(FULL_D, e1 + e2)
    rhs = t.derive(FULL_D, e1) + t.derive(FULL_D, e2)
    assert (lhs - rhs).is_zero()


# -- sympy as an independent oracle for D ------------------------------------

SX = sympy.Symbol("x")
coeffs = st.integers(min_value=-2, max_value=2)


@st.composite
def exp_log_towers(draw):
    """x with one or two generators exp(p) or log(q) on top, and an
    element of the tower; each generator's sympy image rides along.

    p and q are small polynomials in x and the earlier generators.  An
    exp argument never holds a log generator, so sympy's exp(log u) = u
    cannot fold two generators into one."""
    t = Tower.base().var("x")
    image = {t.gen_of("x").gid: SX}

    def poly(atoms):
        e = t.lit(draw(coeffs))
        for _ in range(draw(st.integers(1, 2))):
            mono = draw(st.sampled_from(atoms)) ** draw(st.integers(1, 2))
            if draw(st.booleans()):
                mono = mono * draw(st.sampled_from(atoms))
            e = e + draw(coeffs) * mono
        return e

    def to_sympy(e):
        return e.rf.num.evaluate(image) / e.rf.den.evaluate(image)

    exp_atoms, atoms = [t["x"]], [t["x"]]
    for k in range(draw(st.integers(1, 2))):
        name = f"g{k}"
        if draw(st.booleans()):
            arg = poly(exp_atoms)
            t = t.exp_ext(name, arg)
            image[t.gen_of(name).gid] = sympy.exp(to_sympy(arg))
            exp_atoms.append(t[name])
        else:
            arg = poly(atoms)
            # sympy reads log(1) as 0, so a division by it becomes zoo
            assume(not (arg.is_zero() or (arg - 1).is_zero()))
            t = t.log_ext(name, arg)
            image[t.gen_of(name).gid] = sympy.log(to_sympy(arg))
        atoms.append(t[name])
    num, den = poly(atoms), poly(atoms)
    assume(not den.is_zero())
    return t, num / den, to_sympy


@given(exp_log_towers())
@settings(max_examples=25, deadline=None)
def test_derive_matches_sympy(case):
    t, e, to_sympy = case
    got = to_sympy(t.derive(FULL_D, e))
    assert sympy.cancel(got - sympy.diff(to_sympy(e), SX)) == 0
