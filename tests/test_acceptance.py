"""Acceptance suite: one test per criterion, with runtime budgets."""

import math
import random
import time
from fractions import Fraction

from scipy.special import ellipj

from diffalg.cli import main
from diffalg.curves import (CurvePoint, LegendreCurve, WeierstrassCurve,
                            legendre_add, weierstrass_add, _legendre_tower,
                            _weierstrass_tower)
from diffalg.liouville import (LiouvilleForm, LogPhi, WPhi, form_derivative,
                               reduce, reduce_top, verify_liouville)
from diffalg.tower import FULL_D, CommutingX, Tower
from lemmas import der_comm
from polys import evaluate

FOUR_KIND_TOWER = """\
const a, b
var x = d/dx 1
gen u = int(1/x)
gen t = exp(x)
gen p = ellfun(x, a, b)
gen w = lambertw(x)
"""


def _budget(started: float, limit: float, label: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{label}: {elapsed:.1f}s over the {limit}s budget"


def test_criterion_1_lie_closed_four_kinds(tmp_path, capsys):
    started = time.monotonic()
    path = tmp_path / "four.tower"
    path.write_text(FOUR_KIND_TOWER)
    rc = main(["check-lie", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[D, X_")]
    assert len(lines) == 4 * 8  # four X handles, eight generators each
    for line in lines:
        assert line.endswith("= 0"), line
    _budget(started, 5.0, "lie closure")


def test_criterion_2_worked_integral(tmp_path, capsys):
    started = time.monotonic()
    t = Tower.base().var("x")
    t = t.exp_ext("t", 1 / t["x"] ** 2)
    x, th = t["x"], t["t"]
    got = t.derive(FULL_D, x * th)
    assert (got - (x ** 2 - 2) * th / x ** 2).is_zero()

    tower = tmp_path / "t.tower"
    tower.write_text("var x = d/dx 1\ngen t = exp(1/x^2)\n")
    form = tmp_path / "f.form"
    form.write_text("v0 = x*t\n")
    rc = main(["verify", str(tower), "--integrand", "(x^2-2)*t/x^2",
               "--form", str(form)])
    capsys.readouterr()
    assert rc == 0
    _budget(started, 1.0, "worked integral")


def test_criterion_3_abel_identities(capsys):
    budgets = {"f": 10.0, "e": 10.0, "w1": 10.0, "pi": 120.0}
    for kind in ("f", "e", "w1", "pi"):
        started = time.monotonic()
        rc = main(["abel", "--kind", kind])
        out = capsys.readouterr().out
        assert rc == 0, f"abel --kind {kind} failed:\n{out}"
        assert out.rstrip().endswith("PASS")
        _budget(started, budgets[kind], f"abel {kind}")


def test_criterion_4_group_law_soundness():
    started = time.monotonic()

    lt = _legendre_tower(with_pole=False)
    lc = LegendreCurve(lt["m"])
    p1 = CurvePoint(lt["x1"], lt["y1"])
    p2 = CurvePoint(lt["x2"], lt["y2"])
    p3 = legendre_add(lc, p1, p2)
    assert (p3.y * p3.y - lc.rhs(p3.x)).is_zero()
    ident = CurvePoint(lt.zero(), lt.one())  # the quartic model's identity
    q = legendre_add(lc, p1, ident)
    assert (q.x - p1.x).is_zero() and (q.y - p1.y).is_zero()

    wt = _weierstrass_tower()
    wc = WeierstrassCurve(wt["a"], wt["b"])
    w1 = CurvePoint(wt["x1"], wt["y1"])
    w2 = CurvePoint(wt["x2"], wt["y2"])
    w3 = weierstrass_add(wc, w1, w2)
    assert (w3.y * w3.y - wc.rhs(w3.x)).is_zero()
    inf = CurvePoint.infinity()
    back = weierstrass_add(wc, w1, inf)
    assert (back.x - w1.x).is_zero() and (back.y - w1.y).is_zero()
    neg = CurvePoint(w1.x, -w1.y)
    assert weierstrass_add(wc, w1, neg).at_infinity

    _budget(started, 10.0, "group law")


def test_criterion_5_der_comm_grid():
    started = time.monotonic()
    t = Tower.base().const("a").const("b").var("x")
    t = t.primitive("u", 1 / t["x"])
    t = t.exp_ext("t", t["x"])
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    x, u, te, p, q = t["x"], t["u"], t["t"], t["p"], t["p_q"]
    handles = [CommutingX(t.gen_of(n).gid) for n in ("u", "t", "p")]
    # the weights psi(u) = u^2 and 1/u, and 1/sqrt(u^3 - a u - b) at p
    assert q ** 2 == p ** 3 - t["a"] * p - t["b"]
    pool = [u, te, p, x + u, u * te, te + 1, x * u + 2, u ** 2 + te]

    rng = random.Random(20240817)
    checked = 0
    while checked < 20:
        xh, yh = rng.choice(handles), rng.choice(handles)
        which = rng.randrange(3)
        if which == 2:
            elem, psi = p, 1 / q  # the sqrt weight needs the curve point
        else:
            elem = rng.choice(pool)
            psi = elem ** 2 if which == 0 else 1 / elem
        assert der_comm(t, xh, yh, elem, psi)
        checked += 1
    _budget(started, 30.0, "der-comm grid")


def test_criterion_6_lognorm_grid():
    started = time.monotonic()
    base = Tower.base().var("x")
    x = base["x"]
    for rad in (x ** 2 - 1, (x - 1) / (x + 1), x ** 3 - x):
        t = base.sqrt_ext("s", rad)
        s, xt = t["s"], t["x"]
        for e in (s, xt + s, xt * s + 1):
            assert t.check_lognorm("s", e)
    _budget(started, 5.0, "lognorm grid")


def test_criterion_7_reduction_regressions():
    # (a) log primitive
    started = time.monotonic()
    t = Tower.base().var("x")
    t = t.log_ext("th", t["x"])
    f = 1 / t["x"]
    out = reduce_top(t, f, LiouvilleForm(t["th"]))
    t2 = out.tower
    (coeff, term), = out.terms
    assert (coeff - 1).is_zero()
    assert isinstance(term, LogPhi) and (term.v - t2["x"]).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)
    _budget(started, 5.0, "regression (a)")

    # (b) exponential
    started = time.monotonic()
    t = Tower.base().var("x")
    t = t.exp_ext("th", t["x"])
    f = t["x"] + 1
    form = LiouvilleForm(t["x"] ** 2 / 2, [(1, LogPhi(t["th"]))])
    out = reduce_top(t, f, form)
    t2 = out.tower
    assert not out.terms
    assert (out.v0 - (t2["x"] ** 2 / 2 + t2["x"])).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)
    _budget(started, 5.0, "regression (b)")

    # (c) quadratic extension
    started = time.monotonic()
    t = Tower.base().var("x")
    x = t["x"]
    t = t.sqrt_ext("s", (x - 1) / (x + 1))
    f = 1 / (t["x"] ** 2 - 1)
    form = LiouvilleForm(t.zero(), [(1, LogPhi(t["s"]))])
    steps = reduce(t, f, form)
    assert len(steps) == 1
    out = steps[0].form
    t2 = steps[0].tower
    (coeff, term), = out.terms
    assert (coeff - Fraction(1, 2)).is_zero()
    want = (t2["x"] - 1) / (t2["x"] + 1)
    assert (term.v - want).is_zero() or (term.v + want).is_zero()
    assert verify_liouville(t2, t2.coerce(f), out)
    _budget(started, 5.0, "regression (c)")

    # (d) tagged third-kind elliptic integral
    started = time.monotonic()
    t = Tower.base().const("a").const("b").const("c").var("x")
    t = t.elliptic("p", t["x"], t["a"], t["b"])
    t = t.ellint("P", 3, t["p"], t["p_q"], t["c"])
    f = t.derive(FULL_D, t["P"])
    out = reduce_top(t, f, LiouvilleForm(t["P"]))
    t2 = out.tower
    (coeff, term), = out.terms
    assert isinstance(term, WPhi) and term.kind == 3
    assert verify_liouville(t2, t2.coerce(f), out)
    _budget(started, 5.0, "regression (d)")


def _random_polynomial(rng, x, degree=3):
    e = x.tower.zero()
    for k in range(degree + 1):
        e = e + rng.randint(-3, 3) * x ** k
    return e


TRANSCENDENTAL_KINDS = ("log", "exp", "int", "lambertw")


def _random_transcendental_case(rng, t=None, name="th",
                                kinds=TRANSCENDENTAL_KINDS):
    """A transcendental of one of kinds, named name, over t (x alone by
    default), and a form over it whose derivative lies in Q(x)."""
    if t is None:
        t = Tower.base().var("x")
    x = t["x"]
    kind = rng.choice(kinds)
    if kind == "log":
        t = t.log_ext(name, rng.choice([x, x + 1, x ** 2 + 1]))
    elif kind == "exp":
        t = t.exp_ext(name, rng.choice([x, x ** 2, 3 * x + 1]))
    elif kind == "int":
        integrand, anti = rng.choice([
            (x, x ** 2 / 2), (x ** 2, x ** 3 / 3), (3 * x ** 2 + 1, x ** 3 + x)])
        t = t.primitive(name, integrand, antiderivative=anti)
    else:
        t = t.lambertw(name, x)
    x, th = t["x"], t[name]
    c1 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    g = _random_polynomial(rng, x)
    below = [(Fraction(rng.randint(-2, 2)), LogPhi(x ** 2 + rng.randint(1, 4)))]
    if kind == "exp":
        form = LiouvilleForm(g, [(c1, LogPhi(th))] + below)
    elif kind == "lambertw":
        form = LiouvilleForm(c1 * th + g, [(c1, LogPhi(th))] + below)
    else:
        form = LiouvilleForm(c1 * th + g, below)
    return t, form


def _random_sqrt_case(rng, t=None):
    """A square root s of a radical in x over t (x alone by default), and
    a form over it whose derivative lies in Q(x)."""
    if t is None:
        t = Tower.base().var("x")
    x = t["x"]
    rad = rng.choice([x ** 2 - 1, (x - 1) / (x + 1), x ** 3 - x, x ** 2 + 1])
    t = t.sqrt_ext("s", rad)
    x, s = t["x"], t["s"]
    w = _random_polynomial(rng, x, 2) + rng.randint(1, 5)
    z = x + rng.randint(1, 4)
    c = Fraction(rng.randint(1, 3), rng.choice([1, 2]))
    terms = [(c, LogPhi(w + s * z)), (c, LogPhi(w - s * z))]
    if rng.random() < 0.5:
        terms.append((Fraction(rng.randint(-2, 2)),
                      LogPhi(x + rng.randint(2, 5))))
    form = LiouvilleForm(_random_polynomial(rng, x, 2), terms)
    return t, form


def test_criterion_8_random_form_round_trips():
    started = time.monotonic()
    rng = random.Random(20240817)
    total_steps = 0
    for i in range(50):
        if i % 2 == 0:
            t, form = _random_transcendental_case(rng)
        else:
            t, form = _random_sqrt_case(rng)
        f = form_derivative(t, form)
        steps = reduce(t, f, form)
        assert steps, f"case {i} did not reduce"
        for step in steps:
            ok = verify_liouville(step.tower, step.tower.coerce(f), step.form)
            assert ok, f"case {i} drifted"
        total_steps += len(steps)
    assert total_steps >= 50
    _budget(started, 60.0, "random round trips")


def _stacked_case(rng, shape):
    """A tower with one extension per letter of shape, bottom first: "s"
    a square root, "t" a transcendental, each of a different kind, so
    that no two generators depend on each other.  The form is the sum
    of the layers' forms, so its derivative lies in Q(x)."""
    t = Tower.base().var("x")
    v0, terms = t.zero(), []
    kinds = iter(rng.sample(TRANSCENDENTAL_KINDS, shape.count("t")))
    for i, layer in enumerate(shape):
        if layer == "s":
            t, form = _random_sqrt_case(rng, t)
        else:
            t, form = _random_transcendental_case(rng, t, f"th{i}",
                                                  (next(kinds),))
        v0 = t.coerce(v0) + form.v0
        terms += form.terms
    return t, LiouvilleForm(v0, terms)


def test_criterion_8_round_trips_through_stacked_towers():
    # a transcendental over a root, a root over a transcendental, two
    # transcendentals, and a root between two transcendentals
    started = time.monotonic()
    rng = random.Random(20240817)
    for i in range(40):
        shape = ("st", "ts", "tt", "tst")[i % 4]
        t, form = _stacked_case(rng, shape)
        f = form_derivative(t, form)
        assert f.used_gids() <= {t.gen_of("x").gid}
        steps = reduce(t, f, form)
        # one step per extension above x, each consuming one generator
        assert [len(step.tower.generators) for step in steps] == \
            list(range(len(shape), 0, -1)), f"case {i} ({shape})"
        assert [g.name for g in steps[-1].tower.generators] == ["x"]
        for step in steps:
            ok = verify_liouville(step.tower, step.tower.coerce(f), step.form)
            assert ok, f"case {i} ({shape}) drifted"
    _budget(started, 60.0, "stacked round trips")


def test_criterion_9_jacobi_numeric_oracle():
    started = time.monotonic()
    t = _legendre_tower(with_pole=False)
    curve = LegendreCurve(t["m"])
    p3 = legendre_add(curve, CurvePoint(t["x1"], t["y1"]),
                      CurvePoint(t["x2"], t["y2"]))
    gids = {n: t.gen_of(n).gid for n in ("m", "x1", "y1", "x2", "y2")}
    rat = lambda f: Fraction(f).limit_denominator(10 ** 14)

    def eval_rf(rf, vals):
        return float(evaluate(rf.num, vals)) / float(evaluate(rf.den, vals))

    rng = random.Random(20240817)
    worst = 0.0
    checked = 0
    while checked < 100:
        m = rng.uniform(0.05, 0.95)
        u, v = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        sn1, cn1, dn1, _ = ellipj(u, m)
        sn2, cn2, dn2, _ = ellipj(v, m)
        if abs(1 - m * sn1 * sn1 * sn2 * sn2) < 1e-3:
            continue
        vals = {gids["m"]: rat(m),
                gids["x1"]: rat(sn1), gids["y1"]: rat(cn1 * dn1),
                gids["x2"]: rat(sn2), gids["y2"]: rat(cn2 * dn2)}
        sn3, cn3, dn3, _ = ellipj(u + v, m)
        got_x = eval_rf(p3.x.rf, vals)
        got_y = eval_rf(p3.y.rf, vals)
        worst = max(worst, abs(got_x - sn3), abs(got_y - cn3 * dn3))
        checked += 1
    assert worst < 1e-9, worst
    _budget(started, 5.0, "numeric oracle")
