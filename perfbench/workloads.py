"""The three benchmark workloads and their known answers.

Each workload is built by ``build(name, seed, workdir)`` and yields a
``Workload``: a list of ops run in order, one pass at a time, by a single
thread in a closed loop.  An op is a callable that returns whatever its
check needs; the check runs outside the timed region and returns True
only when the result matches an answer fixed by construction, never by
asking the engine.

* ``abel_pi`` and ``abel_small``: ``diffalg abel --kind K``, for K = pi
  and for K in f, e, w1.  The inputs are fixed symbolic identities, so
  the seed is ignored.  pi takes about 18 s and the other three about
  0.15 s together, so they are two workloads: one pass of all four holds
  just four verdicts, whose median rests on two short timings and
  spread by 15-20 % from run to run.
* ``l3_pushdown``: the third-kind Legendre form over the tower
  m, pa, x, y, delta, s pushed through ``s`` by the library ``reduce``.
* ``cli_roundtrip``: seeded tower and form documents, one log, exp,
  lambertw or sqrt extension over x each, driven through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("abel_pi", "abel_small", "l3_pushdown", "cli_roundtrip")

# Cases per cli_roundtrip pass: 24 of each kind, so every shape below
# appears equally often, and 480 verdicts, so the tail percentile has
# enough samples beyond it.
CLI_CASES_PER_PASS = 96

_KINDS = ("log", "exp", "lambertw", "sqrt")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list


def build(name: str, seed: int, workdir: str) -> Workload:
    """Everything a pass needs, made before the first timed op.

    The cheap ops of abel_small and the first case of cli_roundtrip then
    run once untimed, so first-call costs in the interpreter and argparse
    do not land on whichever verdict happens to come first.  The single
    ops of abel_pi and l3_pushdown run for many seconds and need none.
    """
    if name == "abel_pi":
        wl = Workload(name, _abel_ops(("pi",)))
        warmup = []
    elif name == "abel_small":
        wl = Workload(name, _abel_ops(("f", "e", "w1")))
        warmup = wl.ops
    elif name == "l3_pushdown":
        wl = Workload(name, _l3_ops())
        warmup = []
    elif name == "cli_roundtrip":
        wl = Workload(name, _cli_ops(seed, workdir))
        warmup = wl.ops[:5]
    else:
        raise ValueError(f"unknown workload {name!r}")
    for op in warmup:
        op.run()
    return wl


def run_cli(argv: list) -> tuple:
    """(exit code, stdout) of one in-process ``diffalg`` invocation."""
    from diffalg import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


# --------------------------------------------------------------------------
# abel: every addition identity is a theorem, so each kind must PASS with
# both coordinate partials reducing to zero.


def _abel_ops(kinds) -> list:
    expected = "d/dx1: 0\nd/dx2: 0\nPASS\n"
    return [Op(f"abel-{k}", lambda k=k: run_cli(["abel", "--kind", k]),
               lambda res: res == (0, expected))
            for k in kinds]


# --------------------------------------------------------------------------
# l3_pushdown: the integrand is the derivative of a form whose two
# third-kind terms are conjugate under s -> -s, so it is s-free and one
# reduction step consumes s.  Averaging the conjugate curve points adds
# the third-kind term at their sum plus the Abel log correction.


def _l3_inputs():
    from diffalg.curves import ThirdKindParam
    from diffalg.liouville import LiouvilleForm, LPhi, form_derivative
    from diffalg.tower import Tower

    t = Tower.base().const("m").const("pa").var("x")
    m, pa, x = t["m"], t["pa"], t["x"]
    big_e = (1 + m) / (2 * m)
    r = big_e - x ** 2
    a_val = (1 - big_e) * (1 - m * big_e) + 4 * m * x ** 2 * r
    t = t.sqrt_ext("y", a_val)
    t = t.sqrt_ext("delta", (1 - pa ** 2) * (1 - m * pa ** 2))
    t = t.sqrt_ext("s", r)
    m, pa, x, y, delta, s = (t["m"], t["pa"], t["x"], t["y"], t["delta"],
                             t["s"])
    prm = ThirdKindParam(pa, delta)
    half = Fraction(1, 2)
    form = LiouvilleForm(t.zero(), [(half, LPhi(3, x + s, y, m, prm)),
                                    (half, LPhi(3, x - s, y, m, prm))])
    return t, form_derivative(t, form), form


def _l3_ops() -> list:
    from diffalg.liouville import reduce

    t, f, form = _l3_inputs()
    return [Op("l3-reduce", lambda: reduce(t, f, form), _l3_check)]


def _l3_check(steps) -> bool:
    from diffalg.liouville import LogPhi, LPhi

    if len(steps) != 1:
        return False
    step = steps[0]
    if [g.name for g in step.tower.generators] != ["m", "pa", "x", "y",
                                                   "delta"]:
        return False
    shapes = sorted((type(term).__name__, getattr(term, "kind", 0))
                    for _, term in step.form.terms)
    return (shapes == [("LPhi", 3), ("LogPhi", 0)]
            and all(isinstance(term, (LogPhi, LPhi))
                    for _, term in step.form.terms))


# --------------------------------------------------------------------------
# cli_roundtrip.  Polynomials in x are integer coefficient lists, lowest
# degree first; every integrand is differentiated here by hand, so the
# known answers never come from the engine.


def _poly_text(cs: list) -> str:
    bits = []
    for k, c in enumerate(cs):
        if c:
            bits.append(f"({c})" if k == 0 else f"({c})*x^{k}")
    return "(" + (" + ".join(bits) or "0") + ")"


def _poly_deriv(cs: list) -> list:
    return [k * c for k, c in enumerate(cs)][1:] or [0]


def _poly_eval(cs: list, x: Fraction) -> Fraction:
    return sum((Fraction(c) * x ** k for k, c in enumerate(cs)), Fraction(0))


def _q(c: Fraction) -> str:
    return f"({c.numerator}/{c.denominator})"


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


@dataclass
class CliCase:
    kind: str
    tower: str     # tower document text
    form: str      # form document text
    integrand: str  # d/dx of the form, by hand
    expr: str      # expression handed to derive
    point: dict    # name -> Fraction where the derivative is sampled
    dvalue: Fraction  # value of D(expr) at point, by hand
    trnorm: str = ""  # expression for trnorm on sqrt towers


def make_cli_cases(seed: int, n: int) -> list:
    """n cases whose documents depend only on the seed.

    Kinds and shapes (log argument, exponent, radicand) cycle with the
    case index and the seed draws only the coefficients, so passes made
    from different seeds carry the same mix of work.
    """
    rng = random.Random(seed)
    return [_make_case(rng, _KINDS[i % len(_KINDS)], i // len(_KINDS))
            for i in range(n)]


def _make_case(rng: random.Random, kind: str, shape: int) -> CliCase:
    # Leading coefficients are nonzero so that every seed gives each
    # shape the same degrees, and about the same amount of work.
    g = [rng.randint(-3, 3), rng.randint(-3, 3), _nonzero(rng, -3, 3),
         _nonzero(rng, -3, 3)]
    c1 = Fraction(_nonzero(rng, -3, 3), rng.choice([1, 2]))
    k = _nonzero(rng, -2, 2)
    a = rng.randint(1, 4)
    x0 = Fraction(rng.randint(2, 12), 13)
    th0 = Fraction(rng.randint(1, 9), rng.choice([2, 3, 4]))
    dg = _poly_deriv(g)
    below_term = f"term {k} * log(x^2 + {a})"
    below_d = f"({k})*(2*x)/(x^2 + {a})"
    if kind == "log":
        h, dh, h_at, dh_at = _LOG_ARGS[shape % len(_LOG_ARGS)]
        tower = f"var x = d/dx 1\ngen th = log({h})\n"
        form = f"v0 = {_q(c1)}*th + {_poly_text(g)}\n{below_term}\n"
        integrand = (f"{_poly_text(dg)} + {_q(c1)}*({dh})/({h}) "
                     f"+ {below_d}")
        dth = dh_at(x0) / h_at(x0)
    elif kind == "exp":
        v, dv, dv_at = _EXP_ARGS[shape % len(_EXP_ARGS)]
        tower = f"var x = d/dx 1\ngen th = exp({v})\n"
        form = f"v0 = {_poly_text(g)}\nterm {_q(c1)} * log(th)\n{below_term}\n"
        integrand = f"{_poly_text(dg)} + {_q(c1)}*({dv}) + {below_d}"
        dth = dv_at(x0) * th0
    elif kind == "lambertw":
        tower = "var x = d/dx 1\ngen th = lambertw(x)\n"
        form = (f"v0 = {_q(c1)}*th + {_poly_text(g)}\n"
                f"term {_q(c1)} * log(th)\n{below_term}\n")
        # D(c th + c log th) = c (D th)(1 + 1/th) = c/x since
        # D th = th / (x (1 + th)).
        integrand = f"{_poly_text(dg)} + {_q(c1)}/x + {below_d}"
        dth = th0 / (x0 * (1 + th0))
    else:
        return _make_sqrt_case(rng, shape, g, c1, x0, th0)
    dvalue = _poly_eval(dg, x0) + c1 * dth
    return CliCase(kind, tower, form, integrand,
                   f"{_poly_text(g)} + {_q(c1)}*th", {"x": x0, "th": th0},
                   dvalue)


# Shapes cycled through by the case index: the text of each argument, of
# its derivative, and both as functions of x for the hand derivative.
_LOG_ARGS = (
    ("x", "1", lambda x: x, lambda x: 1),
    ("x + 1", "1", lambda x: x + 1, lambda x: 1),
    ("x^2 + 1", "2*x", lambda x: x * x + 1, lambda x: 2 * x),
)
_EXP_ARGS = (
    ("x", "1", lambda x: 1),
    ("x^2", "2*x", lambda x: 2 * x),
    ("3*x + 1", "3", lambda x: 3),
)
_RADICANDS = (
    ("x^2 - 1", "2*x", lambda x: x * x - 1, lambda x: 2 * x),
    ("(x - 1)/(x + 1)", "2/(x + 1)^2", lambda x: (x - 1) / (x + 1),
     lambda x: 2 / (x + 1) ** 2),
    ("x^3 - x", "3*x^2 - 1", lambda x: x ** 3 - x, lambda x: 3 * x * x - 1),
    ("x^2 + 1", "2*x", lambda x: x * x + 1, lambda x: 2 * x),
)


def _make_sqrt_case(rng, shape, g, c1, x0, s0) -> CliCase:
    rad, drad, rad_at, drad_at = _RADICANDS[shape % len(_RADICANDS)]
    g2 = g[:3]
    w = [rng.randint(-3, 3) + rng.randint(1, 5), rng.randint(-3, 3),
         _nonzero(rng, -3, 3)]
    j = rng.randint(1, 4)
    c = Fraction(rng.randint(1, 3), rng.choice([1, 2]))
    wt, dwt = _poly_text(w), _poly_text(_poly_deriv(w))
    z = f"(x + {j})"
    tower = f"var x = d/dx 1\ngen s = sqrt({rad})\n"
    lines = [f"v0 = {_poly_text(g2)}",
             f"term {_q(c)} * log({wt} + s*{z})",
             f"term {_q(c)} * log({wt} - s*{z})"]
    # log(w + s z) + log(w - s z) = log(w^2 - r z^2)
    norm = f"({wt}^2 - ({rad})*{z}^2)"
    dnorm = f"(2*{wt}*{dwt} - ({drad})*{z}^2 - 2*({rad})*{z})"
    integrand = f"{_poly_text(_poly_deriv(g2))} + {_q(c)}*{dnorm}/{norm}"
    if shape // len(_RADICANDS) % 2:
        k, b = _nonzero(rng, -2, 2), rng.randint(2, 5)
        lines.append(f"term {k} * log(x + {b})")
        integrand += f" + ({k})/(x + {b})"
    # D(g2 + c1 s) = g2' + c1 r'/(2 s) = g2' + s * c1 r' / (2 r): the
    # normal form is linear in s, so any value of s checks it.
    dvalue = (_poly_eval(_poly_deriv(g2), x0)
              + s0 * c1 * drad_at(x0) / (2 * rad_at(x0)))
    return CliCase("sqrt", tower, "\n".join(lines) + "\n", integrand,
                   f"{_poly_text(g2)} + {_q(c1)}*s", {"x": x0, "s": s0},
                   dvalue, f"{wt} + s*{z}")


def _cli_ops(seed: int, workdir: str) -> list:
    ops = []
    for i, case in enumerate(make_cli_cases(seed, CLI_CASES_PER_PASS)):
        tpath = os.path.join(workdir, f"case{i}.tower")
        fpath = os.path.join(workdir, f"case{i}.form")
        with open(tpath, "w", encoding="utf-8") as fh:
            fh.write(case.tower)
        with open(fpath, "w", encoding="utf-8") as fh:
            fh.write(case.form)
        ops.extend(_case_ops(i, case, tpath, fpath))
    return ops


def _case_ops(i: int, case: CliCase, tpath: str, fpath: str) -> list:
    def cli_op(label, argv, check):
        return Op(f"case{i}-{case.kind}-{label}",
                  lambda: run_cli(argv), check)

    verify = ["verify", tpath, "--integrand", case.integrand, "--form", fpath]
    perturbed = ["verify", tpath, "--integrand", f"({case.integrand}) + x",
                 "--form", fpath]
    reduce_ = ["reduce", tpath, "--integrand", case.integrand,
               "--form", fpath]
    ops = [
        cli_op("verify", verify, lambda r: r[0] == 0),
        cli_op("verify-perturbed", perturbed, lambda r: r[0] == 1),
        # One extension over x is consumed in exactly one verified step.
        cli_op("reduce", reduce_, lambda r: r[0] == 0 and (
            "step 1: top generator now x, verified" in r[1]
            and "step 2" not in r[1])),
        cli_op("derive", ["derive", tpath, "-e", case.expr],
               lambda r: r[0] == 0 and _derived_value_ok(r[1], case)),
    ]
    if case.kind == "sqrt":
        ops.append(cli_op("trnorm", ["trnorm", tpath, "--gen", "s",
                                     "-e", case.trnorm],
                          lambda r: r[0] == 0))
    else:
        ops.append(cli_op("check-lie", ["check-lie", tpath],
                          lambda r: r[0] == 0))
    return ops


def _derived_value_ok(out: str, case: CliCase) -> bool:
    """The printed derivative, evaluated exactly at the case's point."""
    lines = out.splitlines()
    if len(lines) != 2 or lines[1] != "PASS":
        return False
    try:
        return evaluate(lines[0], case.point) == case.dvalue
    except (ValueError, KeyError, ZeroDivisionError):
        return False


def evaluate(text: str, env: dict) -> Fraction:
    """Exact value of a printed expression (+ - * / ^, integers, names)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else ""

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    def term():
        v = unary()
        while peek() in ("*", "/"):
            v = v * unary() if take() == "*" else v / unary()
        return v

    def unary():
        if peek() == "-":
            take()
            return -unary()
        return power()

    def power():
        v = atom()
        if peek() == "^":
            take()
            v = v ** int(take())
        return v

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return v
        if tok.isdigit():
            return Fraction(int(tok))
        return env[tok]

    value = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return value


def _tokens(text: str) -> list:
    toks, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r}")
    return toks
