"""Command line front end.

Each subcommand is one row of _COMMANDS: its handler, help line and
arguments (_ARGS).  A handler reads its documents, in the text format of
diffalg.dsl, through _load and returns (verdict, residues, output); main
alone builds the report, for ERROR too, and prints it as text or, with
--json, as stable JSON.  Exit 0 on PASS, 1 on FAIL, 2 on ERROR.
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
    errors.DegenerateDenominator: "addition law denominator vanishes",
    errors.DegenerateChord: "chord slope is undefined for these points",
    errors.NonConstantCoefficient: "form coefficient is not a constant",
    errors.NotConstant: "expected X-constant is not constant",
    errors.IntegrandNotReducible: "untagged integrand with no recorded antiderivative",
    errors.FNotBelow: "integrand involves the extension being removed",
    errors.PartNotBelow: "form part does not reduce below the extension",
    errors.UnsupportedTermKind: "term kind not supported by this reduction",
    errors.SelfCheckFailed: "reduced form failed re-verification",
    errors.CoefficientTooLong: "value too long to print",
    errors.ParseError: "syntax error",
}


def _read(path: str) -> str:
    """A document's text, without a leading byte-order mark; one not in
    UTF-8 is refused as unreadable."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def _load(args):
    """(tower, expression, form) of args, parsed in that order; the last
    two are None where the subcommand takes no such argument."""
    doc = parse_tower(_read(args.tower))
    t = doc.tower
    e = parse_expr(args.expr, t, doc.bindings) if "expr" in args else None
    form = (parse_form(_read(args.form), t, doc.bindings)
            if "form" in args else None)
    return t, e, form


def _wrt_handle(t, spec: str):
    if spec == "D":
        return FULL_D
    if spec.startswith("X:"):
        return CommutingX(t.gen_of(spec[2:]).gid)
    if spec.startswith("partial:"):
        return PartialD(t.gen_of(spec[8:]).gid)
    raise errors.UnsupportedHandle(
        f"--wrt must be D, X:NAME or partial:NAME, got {spec!r}")


# -- subcommands: each returns (verdict, residues, output) --------------------


def _cmd_derive(args):
    t, e, _ = _load(args)
    return "PASS", [], str(t.derive(_wrt_handle(t, args.wrt), e))


def _cmd_check_lie(args):
    t, _, _ = _load(args)
    reps = [(g, t.check_lie_closed(g)) for g in t.generators
            if isinstance(g.kind, _X_KINDS)]
    residues = [f"[D, X_{g.name}] {name} = {res}"
                for g, rep in reps for name, res in rep.residues]
    return ("PASS" if all(rep.passed for _, rep in reps) else "FAIL",
            residues, "")


def _cmd_verify(args):
    t, f, form = _load(args)
    residual = -phi_sum(t, FULL_D, form.v0, form.terms, f)
    return ("PASS" if residual.is_zero() else "FAIL",
            [f"f - D(form) = {residual}"], "")


def _cmd_reduce(args):
    t, f, form = _load(args)
    if not verify_liouville(t, f, form):
        return "FAIL", ["input form does not differentiate to f"], ""
    steps = reduce(t, f, form, max_steps=args.steps)
    # reduce re-verifies every step before returning it and raises
    # SelfCheckFailed otherwise, so each returned step is verified.
    residues, chunks = [], []
    for i, step in enumerate(steps, 1):
        top = step.tower.generators[-1].name if step.tower.generators else "Q"
        residues.append(f"step {i}: top generator now {top}, verified")
        chunks.append(f"# step {i}\n{print_form(step.form)}")
    if not steps:
        residues.append("nothing above the integrand was reducible")
    return "PASS", residues, "\n".join(chunks).rstrip("\n")


def _cmd_abel(args):
    rep = check_abel_identity(args.kind)
    return ("PASS" if rep.passed else "FAIL",
            [f"{label}: {'0' if zero else 'nonzero'}"
             for label, zero in rep.residues], "")


def _cmd_trnorm(args):
    t, e, _ = _load(args)
    gen = t.gen_of(args.gen)
    residues = [f"trace = {t.trace(gen, e)}", f"norm = {t.norm(gen, e)}"]
    ok = t.check_lognorm(gen, e)
    return ("PASS" if ok else "FAIL",
            residues + [f"lognorm identity: {'holds' if ok else 'fails'}"], "")


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


_EXPR_HELP = ("an expression; give one that starts with '-' after '=', "
              "as in -e=-x or --integrand=-1/x")

# Each argument a subcommand may take: its flags, or its positional
# name, and its argparse keywords.  -e/--expr and --integrand both
# store to args.expr, which _load parses.
_ARGS = {
    "tower": (("tower",), dict(help="tower document path")),
    "expr": (("-e", "--expr"), dict(required=True, help=_EXPR_HELP)),
    "integrand": (("--integrand",), dict(dest="expr", required=True,
                                         metavar="EXPR", help=_EXPR_HELP)),
    "form": (("--form",), dict(required=True, metavar="FORMFILE")),
    "wrt": (("--wrt",), dict(default="D", metavar="D|X:NAME|partial:NAME")),
    "steps": (("--steps",), dict(type=positive_int, metavar="N")),
    "kind": (("--kind",), dict(required=True, choices=ABEL_KINDS)),
    "gen": (("--gen",), dict(required=True, metavar="NAME",
                             help="square-root generator to conjugate")),
}

# Each subcommand: its handler, its help line and its _ARGS, in order.
_COMMANDS = {
    "derive": (_cmd_derive, "differentiate an expression over a tower",
               "tower expr wrt"),
    "check-lie": (_cmd_check_lie, "check [D, X] = 0 for every X-generator",
                  "tower"),
    "verify": (_cmd_verify,
               "check that a form differentiates to the integrand",
               "tower integrand form"),
    "reduce": (_cmd_reduce, "push a verified form down the tower",
               "tower integrand form steps"),
    "abel": (_cmd_abel,
             "verify an addition identity for elliptic integrals", "kind"),
    "trnorm": (_cmd_trnorm, "trace, norm and the log-norm identity",
               "tower gen expr"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    common.add_argument("--max-degree", type=positive_int, default=512,
                        metavar="N",
                        help="abort any polynomial above this total degree")
    p = argparse.ArgumentParser(
        prog="diffalg",
        description="exact differential towers, elliptic addition laws, "
                    "and Liouville form reduction")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, text, inputs) in _COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=text)
        for arg in inputs.split():
            flags, kwargs = _ARGS[arg]
            cmd.add_argument(*flags, **kwargs)
        cmd.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    token = poly.set_degree_limit(args.max_degree)
    started = time.monotonic()
    try:
        verdict, residues, output = args.func(args)
    except Exception as exc:
        if isinstance(exc, OSError):
            detail = str(exc)
        else:
            msg = ERROR_MESSAGES.get(type(exc), "unexpected failure")
            detail = f"{msg}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        verdict, residues, output = "ERROR", [detail], ""
    finally:
        poly.reset_degree_limit(token)
    report = {"verdict": verdict, "residues": residues, "output": output,
              "timing_ms": int((time.monotonic() - started) * 1000)}
    if args.json:
        print(json.dumps(report, sort_keys=True))
    elif verdict != "ERROR":
        print(*([output] if output else []), *residues, verdict, sep="\n")
    return {"PASS": 0, "FAIL": 1}.get(verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
