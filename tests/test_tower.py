"""Differential towers: extensions, derivations, commutation, trace/norm."""

import operator
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffalg.cli import main
from diffalg.dsl import parse_expr, parse_tower
from diffalg.errors import (CoefficientTooLong, CyclicDefinition,
                            DegreeOverflow, FieldMismatch, InvalidDefiningData,
                            NameClash, NotQuadratic, UnsupportedHandle,
                            ZeroDenominator, ZeroElement)
from diffalg.poly import set_degree_limit
from diffalg.tower import (CommutingX, FULL_D, Generator, LambertW, PartialD,
                           Tower)
from lemmas import chain_rule, d_below, der_comm
from polys import evaluate


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


# The normal form of D(num/den) over this tower takes the gcd of a 307-term
# and a 238-term polynomial, which is (x + 1)(x^2 + 2)^2.  By the
# pseudo-remainder sequence alone that gcd runs for minutes.
BIG_GCD_TOWER = """\
var x = d/dx 1
gen g0 = log(x^2 + 2)
gen s = sqrt(-3*x^2 - 2*g0 - 2)
gen g1 = log(x + 1)
"""
BIG_GCD_NUM = "g0^2*g1^2 - 2*g0^3*s - g0^2"
BIG_GCD_DEN = "g1^4 + 12*x^2*g0^2 + 8*g0^3 - 2*g1^2 + 8*g0^2 + 1"


def test_derive_through_a_large_gcd(tmp_path, capsys):
    started = time.monotonic()
    t = parse_tower(BIG_GCD_TOWER).tower
    num, den = parse_expr(BIG_GCD_NUM, t), parse_expr(BIG_GCD_DEN, t)
    got = t.derive(FULL_D, num / den)
    dnum, dden = t.derive(FULL_D, num), t.derive(FULL_D, den)
    assert (got - (dnum * den - num * dden) / den ** 2).is_zero()
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"library derive took {elapsed:.1f}s"

    started = time.monotonic()
    path = tmp_path / "t.tower"
    path.write_text(BIG_GCD_TOWER)
    rc = main(["derive", str(path), "-e",
               f"({BIG_GCD_NUM})/({BIG_GCD_DEN})"])
    assert rc == 0 and capsys.readouterr().out.rstrip().endswith("PASS")
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"diffalg derive took {elapsed:.1f}s"


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


@pytest.mark.parametrize("make", [
    lambda t: t.exp_ext("th", 1 / t["x"]),
    lambda t: t.elliptic("th", t["x"], t["a"], t["b"]),
    lambda t: t.lambertw("th", t["x"]),
], ids=["exp", "ellfun", "lambertw"])
def test_full_derivative_is_w_times_the_commuting_image(make):
    # D = D_below + w X on theta, so D theta = w X theta, with w = D v
    # (D v / v for lambertw)
    t = make(Tower.base().const("a").const("b").var("x"))
    gen = t.gen_of("th")
    v = gen.kind.v
    w = t.derive(FULL_D, v)
    if isinstance(gen.kind, LambertW):
        w = w / v
    th = t["th"]
    x_theta = t.derive(CommutingX(gen.gid), th)
    assert not x_theta.is_zero()
    assert t.derive(FULL_D, th) == w * x_theta


def test_partial_and_below():
    t = exp_inv_square()
    x, th = t["x"], t["t"]
    gid = t.gen_of("t").gid
    e = x * th
    assert (t.derive(PartialD(gid), e) - x).is_zero()
    # D_below differentiates the coefficients only
    assert (d_below(t, "t", e) - th).is_zero()
    assert d_below(t, "t", th).is_zero()


def exp_chain():
    """x, t1 = exp(x) and t_k = exp(t_(k-1)) up to t12: D t_k is the
    product t1 ... t_k, so D t9 overflows a degree limit of 8."""
    t = Tower.base().var("x")
    t = t.exp_ext("t1", t["x"])
    for k in range(2, 13):
        t = t.exp_ext(f"t{k}", t[f"t{k - 1}"])
    return t


def test_fill_failure_raises_only_on_read():
    # under a degree limit of 8, D t9 to D t12 overflow and so does the
    # root r of t12; filling the table up to s passes them without raising
    t = exp_chain()
    t = t.sqrt_ext("r", t["t12"])
    t = t.sqrt_ext("s", t["x"])
    set_degree_limit(8)
    try:
        assert (t.derive(FULL_D, t["s"]) - 1 / (2 * t["s"])).is_zero()
        for name in ("t12", "r"):
            with pytest.raises(DegreeOverflow):
                t.derive(FULL_D, t[name])
    finally:
        set_degree_limit(None)


def test_fill_computes_failed_entries_once(monkeypatch):
    # under a degree limit of 8, D t12 overflows, so each root r_k of
    # r_(k-1) fails through the one below it.  Every entry is computed
    # once per fill, not once per reader; the guard stops the
    # exponential recount that retrying failed entries would take
    from diffalg import tower as tower_mod
    t = exp_chain()
    prev = "t12"
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
    set_degree_limit(8)
    try:
        with pytest.raises(DegreeOverflow):
            t.derive(FULL_D, t["r30"])
    finally:
        set_degree_limit(None)
    # one per exponential and root, one for D r30 itself
    assert len(calls) <= 12 + 30 + 1


def test_fill_failure_is_not_kept_past_the_fill():
    # D t9 overflows a degree limit of 8; once the limit is lifted, the
    # same tower derives, so a failure is kept only under its own limit
    t = exp_chain()
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
    assert chain_rule(t, "t", x * th)
    assert chain_rule(t, "t", x ** 2 / (x + 1))  # e below theta
    assert chain_rule(t, "t", th)


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


# -- der-comm weights: psi(p) = p^2, 1/p, or 1/q on q^2 = p^3 - a p - b ------


def two_primitive_tower():
    t = Tower.base().var("x")
    t = t.primitive("u", 1 / t["x"])
    t = t.primitive("v", t["x"] ** 2 + 1)
    return t


def test_der_comm_same_handle():
    t = two_primitive_tower()
    h = CommutingX(t.gen_of("u").gid)
    p = t["u"] * t["x"]
    assert der_comm(t, h, h, p, p ** 2)


def test_der_comm_two_primitives():
    t = two_primitive_tower()
    xu = CommutingX(t.gen_of("u").gid)
    xv = CommutingX(t.gen_of("v").gid)
    p = t["u"] + t["v"] ** 2
    assert der_comm(t, xu, xv, p, 1 / p)
    assert der_comm(t, xu, xv, p, p ** 2)


def test_der_comm_sqrt_cubic_weight():
    t = Tower.base().const("a").const("b").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    t = t.primitive("u", 1 / t["x"])
    p, q = t["p"], t["p_q"]
    assert q ** 2 == p ** 3 - t["a"] * p - t["b"]
    xp = CommutingX(t.gen_of("p").gid)
    xu = CommutingX(t.gen_of("u").gid)
    assert der_comm(t, xp, xu, p, 1 / q)


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


def test_conj_requires_sqrt_generator():
    # one square-root check, Tower._sqrt_gen's, with its message
    t = exp_inv_square()
    with pytest.raises(NotQuadratic,
                       match="^'t' is not a square-root generator$"):
        t["x"].conj("t")


def test_trace_rejects_higher_elements():
    t = sqrt_tower(lambda x: x)
    t = t.exp_ext("t", t["x"])
    with pytest.raises(FieldMismatch):
        t.trace("s", t["t"])


# -- extension validation ------------------------------------------------------


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv],
                         ids=["add", "sub", "mul", "truediv"])
def test_reflected_operators_refuse_floats(op):
    # an operand the element cannot take gives Python's TypeError, never
    # an AttributeError from inside the operator
    t = Tower.base().var("x")
    with pytest.raises(TypeError):
        op(1.5, t["x"])


def test_a_float_literal_is_refused():
    # t.lit(0.1) * 10 == 1 was False: the binary fraction of 0.1 entered
    t = Tower.base().var("x")
    with pytest.raises(TypeError, match="not 'float'$"):
        t.lit(0.1)
    assert t.lit(Fraction(1, 10)) * 10 == 1


def elliptic_base():
    """a, b, x and the elliptic pair p, p_q = ellfun(x, a, b)."""
    t = Tower.base().const("a").const("b").var("x")
    return t.elliptic("p", t["x"], t["a"], t["b"])


@pytest.mark.parametrize("declare, name", [
    (lambda t: t.const("x"), "x"),
    (lambda t: t.var("x"), "x"),
    (lambda t: t.primitive("x", t["x"]), "x"),
    (lambda t: t.log_ext("x", t["x"]), "x"),
    (lambda t: t.exp_ext("x", t["x"]), "x"),
    (lambda t: t.lambertw("x", t["x"]), "x"),
    (lambda t: t.sqrt_ext("x", t["x"]), "x"),
    (lambda t: t.elliptic("x", t["x"], t["a"], t["b"]), "x"),
    (lambda t: t.const("u_q").elliptic("u", t["x"] + 1, t["a"], t["b"]),
     "u_q"),
    (lambda t: t.ellint("x", 1, t["p"], t["p_q"]), "x"),
], ids=["const", "var", "primitive", "log_ext", "exp_ext", "lambertw",
        "sqrt_ext", "elliptic", "elliptic_q", "ellint"])
def test_every_constructor_refuses_a_taken_name(declare, name):
    # the one name check sits in Tower._adjoin, where every constructor ends
    with pytest.raises(NameClash,
                       match=f"^generator '{name}' already declared$"):
        declare(elliptic_base())


def test_invalid_data_is_reported_before_a_taken_name():
    # the data are checked first, and the name when the generator is
    # adjoined
    t = Tower.base().var("x")
    with pytest.raises(InvalidDefiningData, match="^log of 0$"):
        t.log_ext("x", 0)


def test_defining_data_must_be_below():
    t1 = Tower.base().var("x")
    t2 = t1.exp_ext("t", t1["x"])
    with pytest.raises(CyclicDefinition):
        t1.exp_ext("u", t2["t"])  # data from a taller tower


def test_defining_data_from_an_unrelated_tower_of_the_same_height():
    # m of the other tower has x's generator id 0; it is still refused
    t = Tower.base().var("x")
    other = Tower.base().const("m")
    with pytest.raises(CyclicDefinition):
        t.exp_ext("u", other["m"])
    with pytest.raises(CyclicDefinition):
        t.sqrt_ext("s", other["m"] + 1)


@pytest.mark.parametrize("extend", [
    lambda t, rf: t.sqrt_ext("s", rf),
    lambda t, rf: t.exp_ext("u", rf),
    lambda t, rf: t.var("y", rf),
], ids=["sqrt_ext", "exp_ext", "var"])
def test_raw_ratfunc_is_not_defining_data(extend):
    # a bare RatFunc carries generator ids of no known tower; it is
    # refused, never read as an element of this one
    t = Tower.base().var("x")
    with pytest.raises(InvalidDefiningData, match="as defining data"):
        extend(t, t["x"].rf)


def test_invalid_defining_data():
    t = Tower.base().var("x")
    with pytest.raises(InvalidDefiningData):
        t.log_ext("l", 0)
    with pytest.raises(InvalidDefiningData):
        t.sqrt_ext("s", 0)
    with pytest.raises(InvalidDefiningData, match="lambertw of zero"):
        t.lambertw("w", 0)
    with pytest.raises(InvalidDefiningData):
        t.elliptic("p", t["x"], t["x"], 1)  # a must be constant
    with pytest.raises(InvalidDefiningData, match="monic depressed cubic"):
        t.ellint("E", 4, t["x"], t["x"])
    ab = Tower.base().const("a").const("b").var("x")
    ab = ab.elliptic("p", ab["x"], ab["a"], ab["b"])
    with pytest.raises(InvalidDefiningData, match="third kind needs a pole c"):
        ab.ellint("P", 3, ab["p"], ab["p_q"])  # third kind needs the pole
    # an ellint is checked as the form term WPhi(kind, p, q, a, b, c) is
    p, q = ab["p"], ab["p_q"]
    with pytest.raises(InvalidDefiningData, match="W-kind 4 out of range"):
        ab.ellint("E", 4, p, q)
    with pytest.raises(InvalidDefiningData, match="pole c not constant"):
        ab.ellint("P", 3, p, q, ab["x"])
    with pytest.raises(InvalidDefiningData,
                       match="pole c only belongs to the third kind"):
        ab.ellint("F", 1, p, q, ab["a"])
    with pytest.raises(InvalidDefiningData, match="monic depressed cubic"):
        ab.ellint("F", 1, p, 0)  # q = 0
    lx = t.log_ext("L", t["x"])
    lx = lx.sqrt_ext("s", lx["x"] ** 3 - lx["L"] * lx["x"])
    with pytest.raises(InvalidDefiningData,
                       match="curve parameter a not constant"):
        lx.ellint("F", 1, lx["x"], lx["s"])
    # p a constant c on c^3 - a c - b: the pole c meets p
    cc = ab.const("c")
    cc = cc.sqrt_ext("r", cc["c"] ** 3 - cc["a"] * cc["c"] - cc["b"])
    with pytest.raises(ZeroDenominator, match="division by zero element"):
        cc.ellint("P", 3, cc["c"], cc["r"], cc["c"])


@pytest.mark.parametrize("q", [4, Fraction(9, 16), Fraction(1, 25), 1])
def test_sqrt_of_a_rational_square_is_refused(q):
    # s = sqrt(q) with q a square would make s - sqrt(q) a zero divisor
    t = Tower.base().var("x")
    with pytest.raises(InvalidDefiningData, match="square of a rational"):
        t.sqrt_ext("s", q)
    for nonsquare in (2, -4, Fraction(4, 3), 136):
        t.sqrt_ext("s", nonsquare)


def test_exp_of_0_and_log_of_1_are_refused():
    # exp(0) = 1 and log(1) = 0, so g - 1 or g would be a nonzero zero
    t = Tower.base().var("x")
    with pytest.raises(InvalidDefiningData, match="exp of 0"):
        t.exp_ext("g", 0)
    with pytest.raises(InvalidDefiningData, match="exp of 0"):
        t.exp_ext("g", t["x"] - t["x"])
    with pytest.raises(InvalidDefiningData, match="log of 1"):
        t.log_ext("g", t["x"] / t["x"])
    t.exp_ext("g", 1)
    t.log_ext("g", 2)


def test_primitive_refuses_a_wrong_antiderivative():
    # D x = 1, not x^2: once accepted, reduce_top later failed its
    # self-check with this value
    t = Tower.base().var("x")
    x = t["x"]
    with pytest.raises(InvalidDefiningData,
                       match="x is not an antiderivative of x\\^2"):
        t.primitive("th", x ** 2, antiderivative=x)
    t.primitive("th", x ** 2, antiderivative=x ** 3 / 3 + 5)


def test_coerce_rejects_foreign_gids():
    # down into a sub-tower only what uses none of the generators left out
    t = Tower.base().var("x")
    taller = t.exp_ext("t", t["x"])
    with pytest.raises(FieldMismatch):
        t.coerce(taller["t"])
    assert t.coerce(taller["x"] + 1) == t["x"] + 1


def test_coerce_never_reads_an_unrelated_tower():
    # m of the other tower has x's generator id 0; it is not x
    t = Tower.base().var("x")
    with pytest.raises(FieldMismatch):
        t.coerce(Tower.base().const("m")["m"])


def test_coerce_moves_into_a_sub_tower_that_is_no_prefix():
    # dropping g keeps the constant m above it; m*x moves down and up
    t = Tower.base().var("x")
    t = t.log_ext("g", t["x"]).const("m")
    down = t.drop_gens({t.gen_of("g").gid})
    assert [g.name for g in down.generators] == ["x", "m"]
    mx = down.coerce(t["m"] * t["x"])
    assert mx.tower is down and mx == down["m"] * down["x"]
    assert t.coerce(mx) == t["m"] * t["x"]
    with pytest.raises(FieldMismatch):
        down.coerce(t["g"] * t["m"])
    # neither tower is the other with generators left out
    with pytest.raises(FieldMismatch):
        down.coerce(Tower.base().var("x").const("n")["x"])


def test_drop_gens_refuses_to_strand_defining_data():
    # h = exp(g1 - g2) is a constant, but its defining data uses g2
    t = Tower.base().var("x")
    t = t.log_ext("g1", t["x"]).log_ext("g2", t["x"])
    t = t.exp_ext("h", t["g1"] - t["g2"])
    with pytest.raises(FieldMismatch,
                       match="cannot drop g2: the defining data of h uses"):
        t.drop_gens({t.gen_of("g2").gid})
    assert [g.name for g in t.drop_gens({t.gen_of("h").gid}).generators] \
        == ["x", "g1", "g2"]


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


# -- equality of normal forms is structural ------------------------------------

# y2 = sqrt(4x) is +-2 y1, so y2 - 2*y1 and y2 + 2*y1 are nonzero elements
# whose product is 0
ZERO_DIVISOR_TOWER = parse_tower("""\
const m
var x = d/dx 1
gen y1 = sqrt(x)
gen y2 = sqrt(4*x)
gen s = sqrt(y1 + x + m)
""").tower


@st.composite
def element_pairs(draw):
    """(a, b, same): b is a built another way (same True), a over x + k
    (same unless a is 0), a moved by a nonzero zero divisor (same False)
    or another drawn element (same None).  Denominators have at most two
    terms: dividing by longer ones over three roots can take seconds."""
    t = ZERO_DIVISOR_TOWER
    atoms = [t[name] for name in ("m", "x", "y1", "y2", "s")]

    def poly(terms=3):
        e = t.lit(draw(ints))
        for _ in range(draw(st.integers(1, terms))):
            term = t.lit(draw(ints))
            for a in draw(st.lists(st.sampled_from(atoms), max_size=2)):
                term = term * a
            e = e + term
        return e

    def element():
        return poly() / poly(1)

    zd = t["y2"] - 2 * t["y1"]
    try:
        a = element()
        how = draw(st.sampled_from(["times", "plus", "split", "annihilated",
                                    "other", "shifted", "divided"]))
        if how == "times":
            c = poly(1)
            return a, a * c / c, True
        if how == "plus":
            c = element()
            return a, (a + c) - c, True
        if how == "split":  # (n1 + n2)/d as n1/d + n2/d
            n1, n2, d = poly(), poly(), poly(1)
            return (n1 + n2) / d, n1 / d + n2 / d, True
        if how == "annihilated":
            return a, a + zd * (t["y2"] + 2 * t["y1"]) * element(), True
        if how == "other":
            return a, element(), None
        if how == "divided":  # most often the same numerator
            return a, a / (t["x"] + draw(st.integers(1, 3))), a.is_zero()
        return a, a + zd * draw(st.sampled_from(atoms)), False
    except ZeroDenominator:  # a drawn denominator was 0 or a zero divisor
        assume(False)


@given(element_pairs())
@settings(max_examples=150, deadline=None)
def test_equality_is_the_zero_test_of_the_difference(pair):
    # a normal form is unique as a pair of polynomials, so comparing two
    # of them decides what normalizing their difference would
    a, b, same = pair
    assert (a == b) == (a - b).is_zero()
    if same is not None:
        assert (a == b) == same


# -- sympy as an independent oracle for D ------------------------------------

SX = sympy.Symbol("x")
coeffs = st.integers(min_value=-2, max_value=2)


@st.composite
def exp_log_towers(draw, root=False):
    """x with one or two generators exp(p), log(q), int(g) or int(g, G) on
    top, and an element of the tower; each generator's sympy image rides
    along, a primitive's as the unevaluated sympy.Integral(g, x).

    p, q, g and G are small polynomials in x and the earlier generators,
    and g = D G where G is given.  An exp argument never holds a log
    generator, so sympy's exp(log u) = u cannot fold two generators into
    one, nor does a tower hold two primitives of one integrand, which
    sympy would read as one.  With root, the one generator g
    has s = sqrt(k*a + r) just below or just above it, for an atom a that
    r does not hold, so the radicand is never a square.

    Returns the tower, the element, g's name and to_sympy(e, frozen):
    e's sympy image, where frozen reads every generator but s as its own
    symbol."""
    t = Tower.base().var("x")
    images = ({t.gen_of("x").gid: SX}, {t.gen_of("x").gid: SX})

    def poly(atoms):
        e = t.lit(draw(coeffs))
        for _ in range(draw(st.integers(1, 2))):
            mono = draw(st.sampled_from(atoms)) ** draw(st.integers(1, 2))
            if draw(st.booleans()):
                mono = mono * draw(st.sampled_from(atoms))
            e = e + draw(coeffs) * mono
        return e

    def to_sympy(e, frozen=False):
        image = images[frozen]
        return evaluate(e.rf.num, image) / evaluate(e.rf.den, image)

    def adjoin(name, what, *args):
        nonlocal t
        t = getattr(t, what)(name, *args)
        gid = t.gen_of(name).gid
        if what == "sqrt_ext":
            images[1][gid] = sympy.sqrt(to_sympy(args[0], True))
        else:
            images[1][gid] = sympy.Symbol(name)
        fn = {"exp_ext": sympy.exp, "log_ext": sympy.log,
              "sqrt_ext": sympy.sqrt,
              "primitive": lambda g: sympy.Integral(g, SX)}[what]
        images[0][gid] = fn(to_sympy(args[0]))
        return t[name]

    exp_atoms, atoms = [t["x"]], [t["x"]]
    # with a root, one generator g keeps the canonical arithmetic small
    n = 1 if root else draw(st.integers(1, 2))
    root_at = draw(st.sampled_from([n - 1, n])) if root else None
    for k in range(n + 1):
        if k == root_at:
            a = draw(st.sampled_from(atoms))
            rest = [b for b in atoms if b is not a]
            r = poly(rest) if rest else t.lit(draw(coeffs))
            # sympy would split the root of k*a alone into two factors
            assume(not r.is_zero())
            s = adjoin("s", "sqrt_ext", draw(coeffs.filter(bool)) * a + r)
            exp_atoms.append(s)
            atoms.append(s)
        if k == n:
            break
        name = f"g{k}"
        what = draw(st.sampled_from(["exp_ext", "log_ext", "primitive"]))
        if what == "exp_ext":
            arg = poly(exp_atoms)
            # the tower refuses exp(0), as test_exp_of_0_and_log_of_1 pins
            assume(not arg.is_zero())
            g = adjoin(name, "exp_ext", arg)
            exp_atoms.append(g)
        elif what == "primitive":
            p = poly(atoms)
            # int(p), or int(D p, p) with p as its antiderivative
            args = (t.derive(FULL_D, p), p) if draw(st.booleans()) else (p,)
            # sympy differentiates Integral(0, x)**2 to nan
            assume(not args[0].is_zero())
            assume(sympy.Integral(to_sympy(args[0]), SX)
                   not in images[0].values())
            g = adjoin(name, "primitive", *args)
            exp_atoms.append(g)
        else:
            arg = poly(atoms)
            # sympy reads log(1) as 0, so a division by it becomes zoo
            assume(not (arg.is_zero() or (arg - 1).is_zero()))
            g = adjoin(name, "log_ext", arg)
        atoms.append(g)
    num, den = poly(atoms), poly(atoms)
    assume(not den.is_zero())
    return t, num / den, f"g{n - 1}", to_sympy


def is_zero_expr(expr) -> bool:
    """expr == 0 by expanding the numerator of its one-fraction form: exact
    like sympy.cancel, and much cheaper on these towers' expressions.  Each
    primitive's Integral is one atom on both sides, so it becomes a symbol
    first; expanding inside nested integrands could take minutes."""
    expr = expr.xreplace({i: sympy.Dummy()
                          for i in expr.atoms(sympy.Integral)})
    return sympy.expand(sympy.numer(sympy.together(expr))) == 0


@given(exp_log_towers())
@settings(max_examples=25, deadline=None)
def test_derive_matches_sympy(case):
    t, e, _, to_sympy = case
    got = to_sympy(t.derive(FULL_D, e))
    assert is_zero_expr(got - sympy.diff(to_sympy(e), SX))


@given(exp_log_towers(root=True))
@settings(max_examples=25, deadline=None)
def test_partial_with_root_matches_sympy(case):
    # the root s, below or above g, is derived by d(s) = d(r)/(2s) like
    # every other root, so the partial in g is sympy's with g a symbol
    t, e, g, to_sympy = case
    got = to_sympy(t.derive(PartialD(t.gen_of(g).gid), e), True)
    want = sympy.diff(to_sympy(e, True), sympy.Symbol(g))
    assert is_zero_expr(got - want)


@given(exp_log_towers(root=True))
@settings(max_examples=25, deadline=None)
def test_chain_rule_with_root(case):
    # D_below g is D on a root below g and takes h(s) = h(r)/(2s) on one
    # above it; either way D = D_below + (D g) * partial_g
    t, e, g, _ = case
    assert chain_rule(t, g, e)


def test_repr_shows_a_coefficient_past_the_digit_limit_by_its_bits():
    # repr must show any value, for a debugger or an assertion report;
    # str, which prints the grammar, still refuses such a literal
    x = Tower.base().var("x")["x"]
    big = x * 2 ** 20000
    assert repr(big) == "<Element <20001-bit integer>*x>"
    assert repr(x / 2 ** 20000) == "<Element 1/<20001-bit integer>*x>"
    assert repr(big.rf.num) == "MultiPoly(<20001-bit integer>*((0, 1),))"
    with pytest.raises(CoefficientTooLong):
        str(big)


def test_refusals_of_the_element_and_tower_api():
    # each refusal reached through its public entry, message pinned
    t = Tower.base().var("x")
    x = t["x"]
    assert repr(x) == "<Element x>"
    with pytest.raises(FieldMismatch,
                       match="^element is not a rational constant$"):
        x.const_value()
    with pytest.raises(TypeError, match="unsupported operand") as exc:
        x ** Fraction(1, 2)  # Element.__pow__ takes only an int
    assert "'Fraction'" in str(exc.value)
    assert "float" not in str(exc.value)
    with pytest.raises(FieldMismatch, match="^no generator with id 99$"):
        t.gen_of(99)
    with pytest.raises(FieldMismatch,
                       match="^cannot use 'x' as a tower element$"):
        t.coerce("x")
    with pytest.raises(UnsupportedHandle, match="^unknown handle <object"):
        t.derive(object(), x)
    # a raw Tower takes any Generator; derivation meets the kind it
    # does not know
    raw = Tower((Generator(0, "x", object()),))
    with pytest.raises(UnsupportedHandle, match="^unknown kind <object"):
        raw.derive(FULL_D, raw["x"])
