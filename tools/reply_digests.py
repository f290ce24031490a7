"""Count and SHA-256 of the CLI replies on the benchmark's documents,
on forms that divide by a zero divisor, on elliptic-integral towers, on
degenerate curves and on the declaration tables.

    python3 tools/reply_digests.py
    python3 tools/reply_digests.py --check tools/reply_digests.expected

The engine is imported from ``src/`` and the documents from
``perfbench/workloads.py``, which is only read, both beside this file.
Each line names one set of replies, how many it holds and the SHA-256
of all of them in order.  A reply is the exit code, standard output and
standard error of one in-process ``cli.main`` call, as text and again
with ``--json``, whose report drops ``timing_ms``, the one field that
varies from run to run.  The sets are the ``cli_roundtrip`` documents
of seeds 1-3, ``abel --kind K`` for every kind, ``verify`` and
``reduce`` on the forms of ``ZERO_DIVISOR_DOCS``, which divide by 0 or
by a zero divisor, the printed form of the ``l3_pushdown`` reduction
step, and the ``ellint`` sets: ``derive``, ``check-lie`` and ``reduce``
on the tower ``ELLINT_TOWER``, which holds an elliptic-integral
primitive of each kind and a log over their curve, the tower printed,
parsed and printed again, and ``derive`` on each declaration of
``MALFORMED_ELLINT`` added to that tower, all of which must be
refused, ``reduce`` on each conjugate pair of curve terms of
``CURVE_PAIRS``, ``reduce`` with and without ``--steps 1`` on each tower
of ``REDUCE_CHAINS``, which stacks extensions of different kinds, and
``derive`` or ``verify`` on each document of ``DEGENERATE_CURVES``,
whose curve must be refused, and ``verify``, a perturbed ``verify`` and
``reduce`` on each form of ``LOG_PAIRS``, whose log terms come in
conjugate pairs, and ``derive -e`` on each entry of ``POWERS``, which
raises expressions to integer powers, some under a low
``--max-degree``.  The
``declarations`` sets hold ``DECLARED_TOWER``, which declares every
``gen`` kind of ``tower.GEN_KINDS`` with and without its optional
argument, and ``DECLARED_FORM``, which holds every ``term`` kind of
``phi.TERM_KINDS``, each printed, parsed and printed again, and the
replies to the arity errors of ``ARITY_ERRORS``, two per table.  A
change that claims to keep every reply byte-identical shows the same
lines as its parent.

With ``--check FILE`` the lines are compared with FILE, and any
difference is printed and makes the exit status 1.  The checked-in
``reply_digests.expected`` holds the lines of the current engine; a
change that alters a reply on purpose rewrites it and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)

# (tower, form, integrand).  y2 - 2*y1 and 2*ya - yb are nonzero zero
# divisors: (y2 - 2*y1)(y2 + 2*y1) = 0 and (2*ya - yb)(2*ya + yb) = 0.
_ROOTS = ("var x = d/dx 1\ngen L = log(x)\ngen y1 = sqrt(x)\n"
          "gen y2 = sqrt(4*x)\n")
_CONST_ROOTS = "var x = d/dx 1\ngen ya = sqrt(2)\ngen yb = sqrt(8)\n"
_ZD_LOG = "term 1 * log(y2 - 2*y1)\n"
_CLEARED = "v0 = -L/2 + (2/3)*x*(y2 + 2*y1)\n"
ZERO_DIVISOR_DOCS = [
    (_ROOTS, "v0 = 0\n" + _ZD_LOG, "1/(2*x) + y2 + 2*y1"),
    (_ROOTS, "v0 = 0\n" + _ZD_LOG, "1/(2*x)"),
    (_ROOTS, _CLEARED + _ZD_LOG, "0"),
    (_ROOTS, _CLEARED + _ZD_LOG, "y2 + 2*y1"),
    (_ROOTS, "v0 = 0\nterm 0 * log(y2 - 2*y1)\n", "0"),
    (_ROOTS, "v0 = x\nterm 0 * log(y2 - 2*y1)\n", "1"),
    (_ROOTS, "v0 = 0\n" + _ZD_LOG + "term 1 * log(y2 + 2*y1)\n", "0"),
    (_ROOTS, "v0 = 0\n" + _ZD_LOG + "term -1 * log(y2 - 2*y1)\n", "0"),
    (_CONST_ROOTS, "v0 = 0\nterm 1 * log((2*ya - yb)/x)\n", "-1/x"),
    (_CONST_ROOTS, "v0 = x\nterm 1 * log(2*ya - yb)\n", "1"),
    (_CONST_ROOTS + "let v = 2*ya - yb\n",
     "v0 = x\nterm 1 * w3(v, 1, 0, v^3 - 1, 0)\n", "1"),
]

# Each elliptic-integral kind and a log over the curve p, p_q.
ELLINT_TOWER = ("const a, b, c\nvar x = d/dx 1\ngen p = ellfun(x, a, b)\n"
                "gen F = ellint(1, p, p_q)\ngen E = ellint(2, p, p_q)\n"
                "gen P = ellint(3, p, p_q, c)\ngen L = log(x^2 + p)\n")
ELLINT_FORM = "v0 = F + E + P + L\n"
MALFORMED_ELLINT = [
    "gen G = ellint(4, p, p_q)",  # no such kind
    "gen G = ellint(3, p, p_q)",  # the third kind without its pole
    "gen G = ellint(3, p, p_q, x)",  # a pole that is not constant
    "gen G = ellint(1, p, p_q, c)",  # a pole on the first kind
    "gen G = ellint(1, p, 0)",  # q = 0
    "gen s = sqrt(x^3 - L*x)\ngen G = ellint(1, x, s)",  # a = L
    "gen r = sqrt(c^3 - a*c - b)\ngen G = ellint(3, c, r, c)",  # pole = p
]

# Conjugate pairs of curve terms over a square root s on top, from the
# pushdown towers of tests/test_liouville.py: the points x + s and x - s
# share one s-free curve coordinate, y on the Legendre quartic, q on the
# Weierstrass cubic.  Each entry is (tower, form); the integrand is the
# form's derivative.
_L_CURVE = ("var x = d/dx 1\nlet e = (1 + m)/(2*m)\nlet r = e - x^2\n"
            "gen y = sqrt((1 - e)*(1 - m*e) + 4*m*x^2*r)\n")
_L_TOWER = "const m\n" + _L_CURVE + "gen s = sqrt(r)\n"
_L3_TOWER = ("const m, pa\n" + _L_CURVE
             + "gen delta = sqrt((1 - pa^2)*(1 - m*pa^2))\ngen s = sqrt(r)\n")
_W_TOWER = ("const a, b\nvar x = d/dx 1\ngen q = sqrt(-8*x^3 + 2*a*x - b)\n"
            "gen s = sqrt(a - 3*x^2)\n")


def _pair(kind: str, rest: str) -> str:
    return (f"v0 = 0\nterm 1/2 * {kind}(x + s, {rest})\n"
            f"term 1/2 * {kind}(x - s, {rest})\n")


CURVE_PAIRS = [
    (_W_TOWER, _pair("w1", "q, a, b")),
    (_W_TOWER, _pair("w2", "q, a, b")),
    (_L_TOWER, _pair("l1", "y, m")),
    (_L_TOWER, _pair("l2", "y, m")),
    (_L3_TOWER, _pair("l3", "y, m, pa, delta")),
    # the curve coordinate is s itself: the conjugate point is the
    # negation, and the pair cancels
    ("const a, b\nvar x = d/dx 1\ngen s = sqrt(x^3 - a*x - b)\n",
     "v0 = 0\nterm 1/2 * w1(x, s, a, b)\nterm 1/2 * w1(x, -s, a, b)\n"),
    ("const m\nvar x = d/dx 1\ngen s = sqrt((1 - x^2)*(1 - m*x^2))\n",
     "v0 = 0\nterm 1/2 * l1(x, s, m)\nterm 1/2 * l1(x, -s, m)\n"),
    # the third Weierstrass kind does not push through: refused
    (_W_TOWER + "const c\n", _pair("w3", "q, a, b, c")),
]

# Towers that stack extensions of different kinds, so that one reduce
# call takes both kinds of step: a log over a square root, a Lambert W
# over a square root over an exponential, and a log over a square root
# over an exponential that the integrand uses, where reduction stops.
# Each entry is (tower, form); the integrand is the form's derivative.
REDUCE_CHAINS = [
    ("var x = d/dx 1\ngen s = sqrt(x^2 - 1)\ngen L = log(x + 2 + s)\n",
     "v0 = L\nterm -1/2 * log(x + 2 + s)\nterm 1/2 * log(x + 2 - s)\n"),
    ("var x = d/dx 1\ngen E = exp(x^2)\ngen s = sqrt((x - 1)/(x + 1))\n"
     "gen W = lambertw(x)\n",
     "v0 = W + x\nterm 1 * log(W)\nterm 1 * log(s)\nterm 1 * log(E)\n"),
    ("var x = d/dx 1\ngen E = exp(x)\ngen s = sqrt(x^2 + 1)\n"
     "gen L = log(x)\n",
     "v0 = E + 2*L\nterm 1 * log(x + 1 + s)\nterm 1 * log(x + 1 - s)\n"),
]

# Log terms in conjugate pairs log(w + z*s), log(w - z*s) with the
# coefficients (c, c), (c, -c) and (c, c'), beside one factor whose
# conjugate is not a term: over a polynomial radicand, a radicand with a
# denominator, a root nested in another, and two roots with a factor that
# holds both.  Each entry is (tower, form); the integrand is the form's
# derivative.
_POLY_ROOT = "const k\nvar x = d/dx 1\ngen s = sqrt(x^2 + 1)\n"
_FRAC_ROOT = "var x = d/dx 1\ngen s = sqrt((x - 1)/(x + 1))\n"
_NESTED = "var x = d/dx 1\ngen s = sqrt(x)\ngen u = sqrt(1 + s)\n"
_TWO_ROOTS = "var x = d/dx 1\ngen s = sqrt(x)\ngen u = sqrt(x + 1)\n"
LOG_PAIRS = [
    (_POLY_ROOT, "v0 = x\nterm 1 * log(x + 2 + s)\nterm 1 * log(x + 2 - s)\n"
     "term 1 * log(x + 3)\n"),
    (_POLY_ROOT, "v0 = 0\nterm 1/2 * log(x + 2 + s)\n"
     "term -1/2 * log(x + 2 - s)\nterm 1 * log(x + s)\n"),
    (_POLY_ROOT, "v0 = x*s\nterm k * log(x + 2 + s)\n"
     "term -1/(3*k) * log(x + 2 - s)\nterm 2 * log((x + s)/(x + 3))\n"),
    (_FRAC_ROOT, "v0 = 0\nterm 1 * log(1 + x*s)\nterm 1 * log(1 - x*s)\n"
     "term 1 * log(x + 2)\n"),
    (_FRAC_ROOT, "v0 = s\nterm 3 * log(1 + x*s)\nterm -3 * log(1 - x*s)\n"
     "term 1/2 * log(x)\n"),
    (_FRAC_ROOT, "v0 = 0\nterm 2 * log(x + 1 + s)\n"
     "term -1 * log(x + 1 - s)\nterm 1 * log(s + 2)\n"),
    (_NESTED, "v0 = 0\nterm 1 * log(x + u)\nterm 1 * log(x - u)\n"
     "term 1 * log(s + 2)\n"),
    (_NESTED, "v0 = u\nterm 1 * log(u + s)\nterm -1 * log(u - s)\n"
     "term 1 * log(x + u)\n"),
    (_NESTED, "v0 = 0\nterm 2 * log(x*s + u)\nterm 1/3 * log(x*s - u)\n"
     "term 1 * log(x + 1)\n"),
    (_TWO_ROOTS, "v0 = 0\nterm 1 * log(s + u + 1)\nterm 1 * log(s - u + 1)\n"
     "term 1 * log(x + s)\n"),
    (_TWO_ROOTS, "v0 = s*u\nterm 1 * log(s + u + 1)\n"
     "term -1 * log(-s + u + 1)\nterm 1 * log(s + 3)\n"),
    (_TWO_ROOTS, "v0 = 0\nterm 2 * log(s + u + 1)\n"
     "term -1/2 * log(s - u + 1)\nterm 1 * log(-s + u + 1)\n"
     "term 1 * log(u + 2)\n"),
]

# Singular curves, each refused where it enters: the ellfun cubic
# v^3 - 3v - 2 = (v + 1)^2 (v - 2), the w2 cubic (v - 3)^2 (v + 6), and
# the Legendre quartic at m = 0 and at m = 1.  Each entry is (tower,
# form, integrand); an entry without a form is read by derive -e p.
DEGENERATE_CURVES = [
    ("var x = d/dx 1\ngen p = ellfun(x, 3, 2)\n", None, None),
    ("var x = d/dx 1\ngen th = exp(x)\n",
     "v0 = -2*x*th\nterm 1 * w2(x^2*th^2 - 6, x*th*(x^2*th^2 - 9), 27, -54)\n"
     "term 1 * log((x*th + 3)/(x*th - 3))\n", "0"),
    ("var x = d/dx 1\ngen y = sqrt(1 - x^2)\n",
     "v0 = 0\nterm 1 * l1(x, y, 0)\n", "1/y"),
    ("var x = d/dx 1\n", "v0 = 0\nterm 1 * l1(x, 1 - x^2, 1)\n",
     "1/(1 - x^2)"),
]

# Powers over square roots: (x + y + 1)^n over the quartic root, powers
# whose raw and folded degrees fall on either side of --max-degree 4, and
# the square of a zero divisor.  Each entry is (tower, expression, extra
# arguments of derive).
_QUARTIC = "var x = d/dx 1\ngen y = sqrt((1 - x^2)*(1 - x^2/9))\n"
_CUBIC = "var x = d/dx 1\ngen s = sqrt(x^3 - x)\n"
_LOW = ["--max-degree", "4"]
POWERS = [(_QUARTIC, f"(x+y+1)^{n}", []) for n in (0, 1, 2, 3, 7, 20, 60, 100)]
POWERS += [
    (_CUBIC, "(s^4)^0", _LOW),
    (_CUBIC, "s*s*s*s*0", _LOW),
    ("var x = d/dx 1\n", "(x^3/x^2)^3", _LOW),
    ("var x = d/dx 1\ngen y = sqrt(x^2)\n", "(y - x)^2", []),
]

# Every gen kind, int and ellint with and without their optional last
# argument, and every term kind; the operands of / print bare or in
# brackets (negative, fractional, powers, products and sums).
DECLARED_TOWER = (
    "const a, b, c\nvar x = d/dx 1\ngen f = int(1/(x^2 + 1))\n"
    "gen g = int(x^2 - 1/2, 1/3*x^3 - x/2)\ngen L = log((x - 1)/(x + 1))\n"
    "gen t = exp(-x/(2*x + 3))\ngen w = lambertw(x/3)\n"
    "gen s = sqrt(2*x/(1 - x^2))\ngen p = ellfun(x, a, b)\n"
    "gen F = ellint(1, p, p_q)\ngen E = ellint(2, p, p_q)\n"
    "gen P = ellint(3, p, p_q, c)\nlet u = -3/(x*t)\n"
    "let z = 5/x^2 + 3/(2*x)\nlet n = a^2/(b*c)\n")
TERM_TOWER = ("const a, b, c, m, k\nvar x = d/dx 1\ngen p = ellfun(x, a, b)\n"
              "gen y = sqrt((1 - x^2)*(1 - m*x^2))\n"
              "gen delta = sqrt((1 - k^2)*(1 - m*k^2))\nlet v = -x\n")
DECLARED_FORM = (
    "v0 = x/(x + 1)\nterm 1/2 * log((x - 1)/(x + 1))\n"
    "term -3 * w1(p, p_q, a, b)\nterm a/b * w2(p, -p_q, a, b)\n"
    "term 1 * w3(p, p_q, a, b, c)\nterm m * l1(x, y, m)\n"
    "term -1/m * l2(v, y, m)\nterm 2 * l3(x, y, m, k, delta)\n")
# A gen line of each table with one argument too many or too few, then
# a term line; entries as in DEGENERATE_CURVES.
ARITY_ERRORS = [
    (DECLARED_TOWER + "gen G = exp(x, x)\n", None, None),
    (DECLARED_TOWER + "gen G = ellint(1, p)\n", None, None),
    (TERM_TOWER, "v0 = 0\nterm 1 * log(x, x)\n", "0"),
    (TERM_TOWER, "v0 = 0\nterm 1 * l1(v, y)\n", "0"),
]


def reply(argv: list, as_json: bool, workdir: str) -> str:
    """One call's exit code, stdout and stderr, the work directory's path
    replaced so that the reply does not depend on where it ran."""
    from diffalg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--json"] if as_json else argv)
    text = out.getvalue()
    if as_json and text:
        rep = json.loads(text)
        rep.pop("timing_ms", None)
        text = json.dumps(rep, sort_keys=True) + "\n"
    return f"{rc}\n{text}\0{err.getvalue()}".replace(workdir, "<dir>")


def cli_argvs(seed: int, workdir: str) -> list:
    """The argv of every cli_roundtrip op of one seed's pass, in order."""
    import workloads

    seen = []
    ops = workloads._cli_ops(seed, workdir)
    run_cli = workloads.run_cli
    workloads.run_cli = seen.append
    try:
        for op in ops:
            op.run()
    finally:
        workloads.run_cli = run_cli
    return seen


def write(workdir: str, name: str, text: str) -> str:
    """The path of workdir/name, written with text."""
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def zero_divisor_argvs(workdir: str) -> list:
    """verify and reduce on each document of ZERO_DIVISOR_DOCS, written
    to workdir."""
    argvs = []
    for i, (tower, form, integrand) in enumerate(ZERO_DIVISOR_DOCS):
        paths = [write(workdir, f"zd{i}.tower", tower),
                 write(workdir, f"zd{i}.form", form)]
        argvs += [[command, paths[0], f"--integrand={integrand}",
                   "--form", paths[1]] for command in ("verify", "reduce")]
    return argvs


def ellint_argvs(workdir: str) -> tuple:
    """(valid, malformed): derive, check-lie and reduce on ELLINT_TOWER,
    the reduction's integrand the derivative of ELLINT_FORM's v0, and
    derive on each declaration of MALFORMED_ELLINT added to the tower."""
    from diffalg.dsl import parse_form, parse_tower
    from diffalg.tower import FULL_D

    tower = write(workdir, "ellint.tower", ELLINT_TOWER)
    form = write(workdir, "ellint.form", ELLINT_FORM)
    t = parse_tower(ELLINT_TOWER).tower
    integrand = t.derive(FULL_D, parse_form(ELLINT_FORM, t).v0)
    valid = [["derive", tower, "-e", e] for e in ("F", "E", "P", "L")]
    valid += [["check-lie", tower],
              ["reduce", tower, f"--integrand={integrand}", "--form", form]]
    malformed = [["derive", write(workdir, f"bad{i}.tower",
                                  ELLINT_TOWER + decl + "\n"), "-e", "x"]
                 for i, decl in enumerate(MALFORMED_ELLINT)]
    return valid, malformed


def reduce_argvs(docs: list, stem: str, workdir: str, options=([],)) -> list:
    """reduce on each document of docs, CURVE_PAIRS, REDUCE_CHAINS or
    LOG_PAIRS, written to workdir, once with each entry of options added,
    the integrand computed as ellint_argvs computes it."""
    from diffalg.dsl import parse_form, parse_tower
    from diffalg.liouville import form_derivative

    argvs = []
    for i, (tower, form) in enumerate(docs):
        doc = parse_tower(tower)
        f = form_derivative(doc.tower, parse_form(form, doc.tower, doc.bindings))
        argv = ["reduce", write(workdir, f"{stem}{i}.tower", tower),
                f"--integrand={f}", "--form",
                write(workdir, f"{stem}{i}.form", form)]
        argvs += [argv + extra for extra in options]
    return argvs


def log_pair_argvs(workdir: str) -> list:
    """verify, verify with 1 added to the integrand, and reduce on each
    document of LOG_PAIRS, from the argv that reduce_argvs writes."""
    argvs = []
    for argv in reduce_argvs(LOG_PAIRS, "logs", workdir):
        _, tower, integrand, *form = argv
        argvs += [["verify", tower, integrand, *form],
                  ["verify", tower, integrand + " + 1", *form], argv]
    return argvs


def document_argvs(docs: list, stem: str, workdir: str) -> list:
    """derive -e p on each tower of docs, DEGENERATE_CURVES or
    ARITY_ERRORS, that has no form, and verify on each that has one,
    written to workdir as stem0.tower, stem0.form and so on."""
    argvs = []
    for i, (tower, form, integrand) in enumerate(docs):
        path = write(workdir, f"{stem}{i}.tower", tower)
        argvs.append(["derive", path, "-e", "p"] if form is None else
                     ["verify", path, f"--integrand={integrand}", "--form",
                      write(workdir, f"{stem}{i}.form", form)])
    return argvs


def power_argvs(workdir: str) -> list:
    """derive -e on each entry of POWERS, its tower written to workdir."""
    return [["derive", write(workdir, f"power{i}.tower", tower), "-e", expr,
             *extra] for i, (tower, expr, extra) in enumerate(POWERS)]


def declarations_round_trip() -> list:
    """DECLARED_TOWER and DECLARED_FORM, each printed, then parsed and
    printed again."""
    from diffalg.dsl import parse_form, parse_tower, print_form, print_tower

    tower = print_tower(parse_tower(DECLARED_TOWER))
    doc = parse_tower(TERM_TOWER)
    form = print_form(parse_form(DECLARED_FORM, doc.tower, doc.bindings))
    return [tower + "\0" + print_tower(parse_tower(tower)),
            form + "\0" + print_form(parse_form(form, doc.tower))]


def ellint_round_trip() -> str:
    """ELLINT_TOWER printed, then parsed and printed again."""
    from diffalg.dsl import parse_tower, print_tower

    once = print_tower(parse_tower(ELLINT_TOWER))
    return once + "\0" + print_tower(parse_tower(once))


def l3_form_text() -> str:
    import workloads
    from diffalg.dsl import print_form
    from diffalg.liouville import reduce

    t, f, form = workloads._l3_inputs()
    return "".join(print_form(step.form) + "\0" for step in reduce(t, f, form))


def digest(name: str, replies: list) -> str:
    h = hashlib.sha256()
    for r in replies:
        h.update(r.encode())
        h.update(b"\x1e")
    return f"{name}: {len(replies)} replies, sha256 {h.hexdigest()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Count and SHA-256 of the CLI "
                                 "replies on the benchmark's documents.")
    ap.add_argument("--check", metavar="FILE",
                    help="compare with FILE and exit 1 on any difference")
    args = ap.parse_args(argv)
    want = None
    if args.check is not None:
        with open(args.check) as fh:
            want = fh.read().splitlines()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from diffalg.curves import ABEL_KINDS

    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        def both(name: str, argvs: list) -> None:
            for as_json, label in ((False, "text"), (True, "json")):
                lines.append(digest(f"{name} {label}", [
                    reply(a, as_json, workdir) for a in argvs]))

        for seed in SEEDS:
            both(f"cli_roundtrip seed {seed}", cli_argvs(seed, workdir))
        both("abel", [["abel", "--kind", k] for k in ABEL_KINDS])
        both("zero_divisor", zero_divisor_argvs(workdir))
        ellint, malformed = ellint_argvs(workdir)
        both("ellint", ellint)
        both("ellint malformed", malformed)
        both("curve_pairs", reduce_argvs(CURVE_PAIRS, "pair", workdir))
        both("degenerate_curves",
             document_argvs(DEGENERATE_CURVES, "degenerate", workdir))
        lines.append(digest("l3_pushdown print_form", [l3_form_text()]))
        lines.append(digest("ellint print_tower", [ellint_round_trip()]))
        lines.append(digest("declarations print_tower print_form",
                            declarations_round_trip()))
        both("declarations", document_argvs(ARITY_ERRORS, "arity", workdir))
        both("reduce_chains", reduce_argvs(REDUCE_CHAINS, "chain", workdir,
                                           ([], ["--steps", "1"])))
        both("log_pairs", log_pair_argvs(workdir))
        both("powers", power_argvs(workdir))
    print("\n".join(lines))
    if want is None:
        return 0
    diff = list(difflib.unified_diff(want, lines, args.check, "this run",
                                     lineterm=""))
    print("\n".join(diff) if diff else f"same as {args.check}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
