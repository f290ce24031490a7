"""Command line front end.

Every subcommand reads tower and form documents in the text format of
diffalg.dsl, prints a human report by default or a stable JSON report
with --json, and exits 0 on PASS, 1 on FAIL, 2 on ERROR.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import errors, poly
from .curves import ABEL_KINDS, check_abel_identity, phi_sum
from .dsl import parse_expr, parse_form, parse_tower, print_form
from .liouville import reduce, verify_liouville
from .tower import (FULL_D, CommutingX, PartialD, _X_KINDS)

# One terse line per error class; any other exception reads as
# "unexpected failure", so the CLI never leaks a bare traceback.
ERROR_MESSAGES = {
    errors.ZeroDenominator: "division by a zero denominator",
    errors.DegreeOverflow: "intermediate degree exceeded --max-degree",
    errors.ExponentOverflow: "polynomial too large",
    errors.CyclicDefinition: "defining data refers to the generator itself or above",
    errors.NameClash: "name is already bound",
    errors.InvalidDefiningData: "invalid defining data",
    errors.UnsupportedHandle: "derivation handle not supported here",
    errors.NotQuadratic: "generator is not a square root",
    errors.ZeroElement: "operation undefined for the zero element",
    errors.FieldMismatch: "element does not live in the expected field",
    errors.PsiNotRealizable: "psi shape cannot be realized in this tower",
    errors.DegenerateDenominator: "addition law denominator vanishes",
    errors.DegenerateChord: "chord slope is undefined for these points",
    errors.NonConstantCoefficient: "form coefficient is not a constant",
    errors.NotConstant: "expected X-constant is not constant",
    errors.IntegrandNotReducible: "untagged integrand with no recorded antiderivative",
    errors.FNotBelow: "integrand involves the extension being removed",
    errors.PartNotBelow: "form part does not reduce below the extension",
    errors.UnsupportedTermKind: "term kind not supported by this reduction",
    errors.SelfCheckFailed: "reduced form failed re-verification",
    errors.ParseError: "syntax error",
}


def _report(verdict: str, residues: list, started: float,
            output: str = "") -> dict:
    return {
        "verdict": verdict,
        "residues": residues,
        "output": output,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }


def _emit(rep: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(rep, sort_keys=True))
    else:
        if rep["output"]:
            print(rep["output"])
        for line in rep["residues"]:
            print(line)
        print(rep["verdict"])
    return {"PASS": 0, "FAIL": 1}.get(rep["verdict"], 2)


def _load_tower(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_tower(fh.read())


def _wrt_handle(t, spec: str):
    if spec == "D":
        return FULL_D
    if spec.startswith("X:"):
        return CommutingX(t.gen_of(spec[2:]).gid)
    if spec.startswith("partial:"):
        return PartialD(t.gen_of(spec[8:]).gid)
    raise errors.UnsupportedHandle(
        f"--wrt must be D, X:NAME or partial:NAME, got {spec!r}")


# -- subcommands ------------------------------------------------------------


def _cmd_derive(args, started) -> dict:
    doc = _load_tower(args.tower)
    t = doc.tower
    e = parse_expr(args.expr, t, doc.bindings)
    out = t.derive(_wrt_handle(t, args.wrt), e)
    return _report("PASS", [], started, output=str(out))


def _cmd_check_lie(args, started) -> dict:
    doc = _load_tower(args.tower)
    t = doc.tower
    residues = []
    ok = True
    for g in t.generators:
        if not isinstance(g.kind, _X_KINDS):
            continue
        rep = t.check_lie_closed(g)
        ok = ok and rep.passed
        for name, res in rep.residues:
            residues.append(f"[D, X_{g.name}] {name} = {res}")
    return _report("PASS" if ok else "FAIL", residues, started)


def _cmd_verify(args, started) -> dict:
    doc = _load_tower(args.tower)
    t = doc.tower
    f = parse_expr(args.integrand, t, doc.bindings)
    with open(args.form, encoding="utf-8") as fh:
        form = parse_form(fh.read(), t, doc.bindings)
    residual = -phi_sum(t, FULL_D, form.v0, form.terms, f)
    ok = residual.is_zero()
    return _report("PASS" if ok else "FAIL",
                   [f"f - D(form) = {residual}"], started)


def _cmd_reduce(args, started) -> dict:
    doc = _load_tower(args.tower)
    t = doc.tower
    f = parse_expr(args.integrand, t, doc.bindings)
    with open(args.form, encoding="utf-8") as fh:
        form = parse_form(fh.read(), t, doc.bindings)
    if not verify_liouville(t, f, form):
        return _report("FAIL", ["input form does not differentiate to f"],
                       started)
    steps = reduce(t, f, form, max_steps=args.steps)
    # reduce re-verifies every step before returning it and raises
    # SelfCheckFailed otherwise, so each returned step is verified.
    residues = []
    chunks = []
    for i, step in enumerate(steps, 1):
        top = step.tower.generators[-1].name if step.tower.generators else "Q"
        residues.append(f"step {i}: top generator now {top}, verified")
        chunks.append(f"# step {i}\n{print_form(step.form)}")
    if not steps:
        residues.append("nothing above the integrand was reducible")
    return _report("PASS", residues, started,
                   output="\n".join(chunks).rstrip("\n"))


def _cmd_abel(args, started) -> dict:
    rep = check_abel_identity(args.kind)
    residues = [f"{label}: {'0' if zero else 'nonzero'}"
                for label, zero in rep.residues]
    return _report("PASS" if rep.passed else "FAIL", residues, started)


def _cmd_trnorm(args, started) -> dict:
    doc = _load_tower(args.tower)
    t = doc.tower
    e = parse_expr(args.expr, t, doc.bindings)
    gen = t.gen_of(args.gen)
    tr = t.trace(gen, e)
    nm = t.norm(gen, e)
    ok = t.check_lognorm(gen, e)
    residues = [f"trace = {tr}", f"norm = {nm}",
                f"lognorm identity: {'holds' if ok else 'fails'}"]
    return _report("PASS" if ok else "FAIL", residues, started)


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    common.add_argument("--max-degree", type=positive_int, default=512,
                        metavar="N",
                        help="abort any polynomial above this total degree")
    expr_help = ("an expression; give one that starts with '-' after '=', "
                 "as in -e=-x or --integrand=-1/x")

    p = argparse.ArgumentParser(
        prog="diffalg",
        description="exact differential towers, elliptic addition laws, "
                    "and Liouville form reduction")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", parents=[common],
                       help="differentiate an expression over a tower")
    d.add_argument("tower", help="tower document path")
    d.add_argument("-e", "--expr", required=True, help=expr_help)
    d.add_argument("--wrt", default="D", metavar="D|X:NAME|partial:NAME")
    d.set_defaults(func=_cmd_derive)

    c = sub.add_parser("check-lie", parents=[common],
                       help="check [D, X] = 0 for every X-generator")
    c.add_argument("tower")
    c.set_defaults(func=_cmd_check_lie)

    v = sub.add_parser("verify", parents=[common],
                       help="check that a form differentiates to the integrand")
    v.add_argument("tower")
    v.add_argument("--integrand", required=True, metavar="EXPR",
                   help=expr_help)
    v.add_argument("--form", required=True, metavar="FORMFILE")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("reduce", parents=[common],
                       help="push a verified form down the tower")
    r.add_argument("tower")
    r.add_argument("--integrand", required=True, metavar="EXPR",
                   help=expr_help)
    r.add_argument("--form", required=True, metavar="FORMFILE")
    r.add_argument("--steps", type=positive_int, default=None, metavar="N")
    r.set_defaults(func=_cmd_reduce)

    a = sub.add_parser("abel", parents=[common],
                       help="verify an addition identity for elliptic integrals")
    a.add_argument("--kind", required=True, choices=ABEL_KINDS)
    a.set_defaults(func=_cmd_abel)

    n = sub.add_parser("trnorm", parents=[common],
                       help="trace, norm and the log-norm identity")
    n.add_argument("tower")
    n.add_argument("--gen", required=True, metavar="NAME",
                   help="square-root generator to conjugate")
    n.add_argument("-e", "--expr", required=True, help=expr_help)
    n.set_defaults(func=_cmd_trnorm)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    token = poly.set_degree_limit(args.max_degree)
    started = time.monotonic()
    try:
        rep = args.func(args, started)
    except Exception as exc:
        if isinstance(exc, OSError):
            detail = str(exc)
        else:
            msg = ERROR_MESSAGES.get(type(exc), "unexpected failure")
            detail = f"{msg}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        if args.json:
            print(json.dumps(_report("ERROR", [detail], started),
                             sort_keys=True))
        return 2
    finally:
        poly.reset_degree_limit(token)
    return _emit(rep, args.json)


if __name__ == "__main__":
    sys.exit(main())
