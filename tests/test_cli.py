"""CLI reports, exit codes, and error mapping."""

import argparse
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diffalg
from diffalg import cli, errors, liouville, poly
from diffalg.cli import ERROR_MESSAGES, main
from diffalg.dsl import parse_form, parse_tower
from diffalg.liouville import form_derivative

X_ONLY = "var x = d/dx 1\n"
LOG_TOWER = X_ONLY + "gen th = log(x)\n"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def tower_file(tmp_path):
    def write(text, name="t.tower"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


@pytest.fixture
def form_file(tmp_path):
    def write(text, name="f.form"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


# -- exit codes ---------------------------------------------------------------


def test_verify_pass(tower_file, form_file, capsys):
    rc = main(["verify", tower_file(X_ONLY), "--integrand", "1/x",
               "--form", form_file("v0 = 0\nterm 1 * log(x)")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "f - D(form) = 0" in out


def test_verify_fail_residue_one(tower_file, form_file, capsys):
    # D(x) = 1 but the integrand is 2, leaving residue 1
    rc = main(["verify", tower_file(X_ONLY), "--integrand", "2",
               "--form", form_file("v0 = x")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "f - D(form) = 1" in out
    assert "FAIL" in out


# the log factors (x + 1)(x + 2) and (x + 1)(x + 3) share x + 1 and neither
# divides the other, so the clearing's division basis keeps both, and the
# common multiple it clears over is above the lcm
SHARED_FORM = ("v0 = 1/((x+1)*(x+2)) + 1/((x+1)*(x+3))\n"
               "term 1 * log((x+1)*(x+2))\nterm 1 * log((x+1)*(x+3))\n")
SHARED_F = ("(4*x^5 + 41*x^4 + 159*x^3 + 286*x^2 + 229*x + 59)"
            "/((x + 1)^2*(x + 2)^2*(x + 3)^2)")


@pytest.mark.parametrize("integrand, rc, residue",
                         [(SHARED_F, 0, "0"),
                          (SHARED_F + " + 1/(x+1)", 1, "1/(x + 1)")],
                         ids=["pass", "fail"])
def test_verify_denominators_sharing_a_factor_neither_divides(
        tower_file, form_file, capsys, integrand, rc, residue):
    assert main(["verify", tower_file(X_ONLY), "--integrand", integrand,
                 "--form", form_file(SHARED_FORM)]) == rc
    out = capsys.readouterr().out
    assert f"f - D(form) = {residue}\n" in out
    assert ("PASS" if rc == 0 else "FAIL") in out


def test_parse_error_exits_2(tower_file, capsys):
    rc = main(["derive", tower_file("flub x = d/dx 1"), "-e", "x"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "syntax error" in err


def test_parse_error_after_a_comment_names_its_column(tower_file, capsys):
    path = tower_file(X_ONLY + "gen t = exp(x +  # oops\n")
    msg = ("syntax error: expected an expression, found '\\n' "
           "(line 2, column 24)")
    assert main(["derive", path, "-e", "x", "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_let_name_taken_by_later_gen_exits_2(tower_file, capsys):
    # the generator may not shadow the binding; the document is refused
    path = tower_file(X_ONLY + "let u = x + 1\ngen u = log(x)\n")
    msg = "name is already bound: name 'u' already bound"
    assert main(["derive", path, "-e", "u"]) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(["derive", path, "-e", "u", "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


@pytest.mark.parametrize("gen, msg", [
    ("exp(x)", "name is already bound: generator 'x' already declared"),
    ("log(0)", "invalid defining data: log of 0"),
], ids=["taken-name", "data-before-name"])
def test_gen_reusing_a_name_exits_2(tower_file, capsys, gen, msg):
    # the defining data are checked before the name, so a gen that reuses
    # a name with invalid data reports the data
    path = tower_file(X_ONLY + f"gen x = {gen}\n")
    assert main(["derive", path, "-e", "x"]) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(["derive", path, "-e", "x", "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


@pytest.mark.parametrize("tower, expr, msg", [
    (X_ONLY + "gen a = lambertw(x)\ngen b = lambertw(x)\n", "1/(a - b)",
     "'b' repeats the defining data of 'a'"),
    ("const a0, b0\n" + X_ONLY + "gen p = ellfun(x, a0, b0)\n"
     "gen r = ellfun(x, a0, b0)\n", "1/(p - r)",
     "'r' repeats the defining data of 'p'"),
], ids=["lambertw", "ellfun"])
def test_a_repeated_solution_is_refused(tower_file, capsys, tower, expr, msg):
    # two solutions of one equation are one function: their difference is
    # a zero that would read as nonzero, so dividing by it answered a value
    msg = f"invalid defining data: {msg}"
    argv = ["derive", tower_file(tower), "-e", expr]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["derive", str(tmp_path / "absent.tower"), "-e", "x"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["tower", "form"])
def test_document_that_is_not_utf8_names_its_path(tmp_path, tower_file,
                                                  form_file, capsys, bad):
    # bad input, not an engine failure: the reply names the file
    paths = {"tower": tower_file(X_ONLY), "form": form_file("v0 = x")}
    path = tmp_path / f"bad.{bad}"
    path.write_bytes(b"v0 = x\n\xff\n")
    paths[bad] = str(path)
    argv = ["verify", paths["tower"], "--integrand", "1",
            "--form", paths["form"]]
    msg = f"{path}: not UTF-8 text (invalid start byte at byte 7)"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_document_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # some editors start UTF-8 text with the mark EF BB BF
    replies = []
    for stem, bom in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        tower, form = tmp_path / f"{stem}.tower", tmp_path / f"{stem}.form"
        tower.write_bytes(bom + LOG_TOWER.encode())
        form.write_bytes(bom + b"v0 = th\n")
        argv = ["reduce", str(tower), "--integrand", "1/x", "--form",
                str(form)]
        assert main(argv) == 0
        text = capsys.readouterr()
        assert main(argv + ["--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("timing_ms")
        replies.append((text, rep))
    plain, marked = replies
    assert plain == marked
    assert plain[1]["verdict"] == "PASS"


# -- open wrong verdicts ------------------------------------------------------

DEPENDENT_LOGS = X_ONLY + "gen l1 = log(x)\ngen l2 = log(x^2)\n"
DEPENDENT_EXPS = X_ONLY + "gen e1 = exp(1)\ngen e2 = exp(2)\n"
# the Weierstrass function is even, lambertw(x*exp(x)) is x, and
# log(x/lambertw(x)) is lambertw(x)
EVEN_ELLFUN = ("const a0, b0\n" + X_ONLY + "gen p = ellfun(x, a0, b0)\n"
               "gen r = ellfun(-x, a0, b0)\n")
LAMBERTW_OF_X_EXP = X_ONLY + "gen t = exp(x)\ngen w = lambertw(x*t)\n"
LOG_OF_LAMBERTW = X_ONLY + "gen w = lambertw(x)\ngen l = log(x/w)\n"
ITEM_10 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: dependent generators are not refused, so zeros such "
    "as l2 - 2*l1, e2 - e1^2 and p - r are taken for nonzero"))
ITEM_5 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: sqrt(x^2) builds although x^2 is a square, so y - x "
    "is a zero divisor"))


@pytest.mark.parametrize("tower, argv, form", [
    pytest.param(DEPENDENT_LOGS, ["verify", "--integrand", "x/(l2-2*l1)"],
                 "v0 = x^2/(2*(l2 - 2*l1))\n", id="verify-dependent-logs",
                 marks=ITEM_10),
    pytest.param(DEPENDENT_LOGS, ["derive", "-e", "1/(l2-2*l1)"], None,
                 id="derive-dependent-logs", marks=ITEM_10),
    pytest.param(DEPENDENT_EXPS, ["verify", "--integrand", "x/(e2-e1^2)"],
                 "v0 = x^2/(2*(e2 - e1^2))\n", id="verify-dependent-exps",
                 marks=ITEM_10),
    pytest.param(EVEN_ELLFUN, ["derive", "-e", "1/(p - r)"], None,
                 id="derive-even-ellfun", marks=ITEM_10),
    pytest.param(LAMBERTW_OF_X_EXP, ["derive", "-e", "1/(w - x)"], None,
                 id="derive-lambertw-of-x-exp", marks=ITEM_10),
    pytest.param(LOG_OF_LAMBERTW, ["derive", "-e", "1/(l - w)"], None,
                 id="derive-log-of-lambertw", marks=ITEM_10),
    pytest.param(X_ONLY + "gen y = sqrt(x^2)\n", ["derive", "-e", "y-x"],
                 None, id="derive-sqrt-of-a-square", marks=ITEM_5),
])
def test_open_wrong_verdicts_are_errors(tower_file, form_file, capsys, tower,
                                        argv, form):
    # each tower is no field: a dependent generator makes a zero read as
    # nonzero, and a root of a square makes y - x a zero divisor; the
    # intended reply refuses it, where today's is PASS with a value
    argv = [argv[0], tower_file(tower), *argv[1:], "--json"]
    if form is not None:
        argv += ["--form", form_file(form)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "ERROR"


# -- json reports -------------------------------------------------------------


def test_json_report_shape(tower_file, form_file, capsys):
    rc = main(["verify", tower_file(X_ONLY), "--integrand", "1/x",
               "--form", form_file("v0 = 0\nterm 1 * log(x)"), "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(rep) == {"verdict", "residues", "output", "timing_ms"}
    assert rep["verdict"] == "PASS"
    assert isinstance(rep["timing_ms"], int)


def test_json_bytes_stable_modulo_timing(tower_file, form_file, capsys):
    argv = ["verify", tower_file(LOG_TOWER), "--integrand", "1/x + 1",
            "--form", form_file("v0 = x + th"), "--json"]
    outs = []
    for _ in range(2):
        main(argv)
        outs.append(re.sub(r'"timing_ms": \d+', '"timing_ms": 0',
                           capsys.readouterr().out))
    assert outs[0] == outs[1]


def test_json_error_report(tower_file, capsys):
    rc = main(["derive", tower_file("flub"), "-e", "x", "--json"])
    cap = capsys.readouterr()
    assert rc == 2
    rep = json.loads(cap.out)
    assert rep["verdict"] == "ERROR"
    assert "syntax error" in rep["residues"][0]


# -- error mapping ------------------------------------------------------------


def test_error_messages_cover_every_error_class():
    classes = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.DiffAlgError)
               and obj is not errors.DiffAlgError]
    for klass in classes:
        assert klass in ERROR_MESSAGES, klass.__name__
    assert len(set(ERROR_MESSAGES.values())) == len(ERROR_MESSAGES)


def test_degree_limit_maps_to_error(tower_file, capsys):
    rc = main(["derive", tower_file(X_ONLY), "-e", "x^40",
               "--max-degree", "8"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--max-degree" in err


def test_degree_limit_reset_after_run(tower_file, capsys):
    from diffalg import poly
    main(["derive", tower_file(X_ONLY), "-e", "x^40", "--max-degree", "8"])
    capsys.readouterr()
    assert poly.get_degree_limit() is None


def test_library_degree_limit_survives_a_cli_call(capsys):
    # main runs under its own --max-degree and then restores the caller's
    token = poly.set_degree_limit(64)
    try:
        assert main(["abel", "--kind", "f"]) == 0
        capsys.readouterr()
        assert poly.get_degree_limit() == 64
    finally:
        poly.reset_degree_limit(token)
    assert poly.get_degree_limit() is None


@pytest.mark.parametrize("expr, limit, output", [
    ("(x^3/x^2)*(x^3/x^2)", "4", "2*x"),
    ("(x^3/x^2)^3", "4", "3*x^2"),
], ids=["product", "power"])
def test_max_degree_sees_each_normalized_operand(tower_file, capsys, expr,
                                                 limit, output):
    # the parser folds one raw quotient, whose products (x^6, x^9) pass the
    # limit; the operands' normal forms (x) do not, so this is a PASS
    path = tower_file(X_ONLY)
    assert main(["derive", path, "-e", expr, "--max-degree", limit]) == 0
    assert capsys.readouterr() == (f"{output}\nPASS\n", "")
    assert main(["derive", path, "-e", expr, "--max-degree", limit,
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["output"]) == ("PASS", output)


@pytest.mark.parametrize("expr", ["((x^3 + x) - x^3)^4",
                                  "(x*(x^2 + 1) - x^3)^4"])
def test_max_degree_after_a_cancelling_sum(tower_file, capsys, expr):
    # the difference has degree 1, though both operands have degree 3, so
    # its fourth power stays within the limit; a product's degree is
    # cached when it is formed, so the second one subtracts two cached 3s
    argv = ["derive", tower_file(X_ONLY), "--max-degree", "4", "-e", expr]
    assert main(argv) == 0
    assert capsys.readouterr() == ("4*x^3\nPASS\n", "")


ROOT_TOWER = X_ONLY + "gen s = sqrt(x^3 - x)\n"
ZD_TOWER = X_ONLY + "gen y = sqrt(x^2)\n"  # (y - x)(y + x) = 0
OVERFLOW = "intermediate degree exceeded --max-degree: product degree "
ZERO_DIVISOR = ("division by a zero denominator: "
                "denominator is a zero divisor modulo the relations")


# (x + y + 1)^n over a quartic root: a power folds y^2 -> r after each
# product, so y never passes degree one.  Raised raw and folded once at
# the end, n = 250 took about 20 s and n = 300 reached the degree ERROR
# after about a minute (2-core Xeon).  The digest is of the 243,818-byte
# reply at n = 250.
QUARTIC_TOWER = X_ONLY + "gen y = sqrt((1 - x^2)*(1 - x^2/9))\n"
POWER_250_SHA256 = ("d0e4ab2dffd39a2225e613aef10c76e675adcda22ab5b3d90d011a70"
                    "679ce2d4")


def _timed_main(argv):
    started = time.monotonic()
    rc = main(argv)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"{argv[-1]} took {elapsed:.1f}s"
    return rc


def test_a_high_power_over_a_root_answers_at_once(tower_file, capsys):
    argv = ["derive", tower_file(QUARTIC_TOWER), "-e", "(x+y+1)^250"]
    assert _timed_main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nPASS\n")
    assert hashlib.sha256(out.encode()).hexdigest() == POWER_250_SHA256
    assert _timed_main(argv + ["--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("PASS", [])
    assert f"{rep['output']}\nPASS\n" == out


def test_a_power_past_the_degree_limit_answers_at_once(tower_file, capsys):
    argv = ["derive", tower_file(QUARTIC_TOWER), "-e", "(x+y+1)^300"]
    msg = OVERFLOW + "exceeds limit 512"
    assert _timed_main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert _timed_main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


@pytest.mark.parametrize("tower, expr, limit, msg", [
    # x^5*x^5 has degree 10 whichever way it is parsed
    (X_ONLY, "x^5*x^5/x^9", "8", OVERFLOW + "exceeds limit 8"),
    # s^4 reduces to (x^3 - x)^2, of degree 6, at the operator that forms
    # it, also where ^0, *0 or a cancellation drops it later
    (ROOT_TOWER, "(s^4)^0", "4", OVERFLOW + "exceeds limit 4"),
    (ROOT_TOWER, "s*s*s*s*0", "4", OVERFLOW + "exceeds limit 4"),
    (ROOT_TOWER, "s^4 - s^4", "4", OVERFLOW + "exceeds limit 4"),
    # an arithmetic error, not a syntax error with a position
    (X_ONLY, "x/(x-x)", "512",
     "division by a zero denominator: division by zero element"),
    # no quotient by y - x exists, also when its numerator is 0 or it is
    # divided into 1 again
    (ZD_TOWER, "1/(y-x)", "512", ZERO_DIVISOR),
    (ZD_TOWER, "0/(y-x)", "512", ZERO_DIVISOR),
    (ZD_TOWER, "(1/(y-x))*0", "512", ZERO_DIVISOR),
    (ZD_TOWER, "1/(1/(y-x))", "512", ZERO_DIVISOR),
], ids=["degree", "root-power-to-0", "root-power-times-0", "root-power-cancel",
        "zero-element", "zero-divisor", "zero-over-zero-divisor",
        "zero-divisor-times-0", "inverse-of-zero-divisor"])
def test_parse_errors_as_operator_wise_normal_forms(tower_file, capsys,
                                                    tower, expr, limit, msg):
    # the reply is the one operator-by-operator normal forms give
    argv = ["derive", tower_file(tower), "-e", expr, "--max-degree", limit]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_exponent_field_overflow_maps_to_error(tower_file, capsys):
    # past the packed exponent field a product is refused, never wrapped
    # around, also under a larger --max-degree
    msg = ("polynomial too large: degree 32768 exceeds the exponent field "
           "limit 32767")
    argv = ["derive", tower_file(X_ONLY), "-e", "x^40000",
            "--max-degree", "100000"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out)["residues"] == [msg]


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_max_degree_below_one_is_a_usage_error(tower_file, capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["derive", tower_file(X_ONLY), "-e", "x", "--max-degree", limit])
    assert exc.value.code == 2
    assert "--max-degree: must be at least 1" in capsys.readouterr().err


def test_deep_nesting_maps_to_error(tower_file, capsys):
    expr = "(" * 3000 + "x" + ")" * 3000
    rc = main(["derive", tower_file(X_ONLY), "-e", expr])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert "syntax error: expression nests too deeply" in cap.err
    rc = main(["derive", tower_file(X_ONLY), "-e", expr, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert rep["verdict"] == "ERROR"
    assert rep["residues"] == [
        "syntax error: expression nests too deeply (line 1, column 1)"]


def test_unexpected_failure_maps_to_error(tower_file, capsys, monkeypatch):
    # an exception type without an ERROR_MESSAGES entry is still ERROR
    # (exit 2) with its text, never a traceback (exit 1)
    def fail(*args):
        raise RuntimeError("no such luck")
    monkeypatch.setattr(diffalg.tower.Tower, "derive", fail)
    path = tower_file(X_ONLY)
    rc = main(["derive", path, "-e", "x"])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err == "error: unexpected failure: no such luck\n"
    rc = main(["derive", path, "-e", "x", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert rep["verdict"] == "ERROR"
    assert rep["residues"] == ["unexpected failure: no such luck"]


def test_deep_exp_tower_derives(tower_file, capsys):
    # D t400 runs through 400 exponentials; Tower._dget fills its table
    # bottom-up, so the depth is not bounded by Python's stack
    gens = ["gen t1 = exp(x)"] + [f"gen t{k} = exp(t{k - 1})"
                                  for k in range(2, 401)]
    path = tower_file(X_ONLY + "\n".join(gens) + "\n")
    want = "*".join(f"t{k}" for k in range(1, 401))
    rc = main(["derive", path, "-e", "t400"])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.out == want + "\nPASS\n"
    assert cap.err == ""
    rc = main(["derive", path, "-e", "t400", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["verdict"] == "PASS"
    assert rep["output"] == want


def test_deep_exp_tower_degree_limit_fails_once(tower_file, capsys,
                                                monkeypatch):
    # D t9 exceeds --max-degree 8 and every t above it reads t9; each
    # entry is computed once, so the reply is the degree ERROR at once.
    # The guard stops a fill that retries failed entries (2^31 calls here)
    calls = []
    real = diffalg.tower._diff_rf

    def counted(rf, get):
        calls.append(1)
        if len(calls) > 200:
            raise RuntimeError("derivative table recomputed")
        return real(rf, get)
    monkeypatch.setattr(diffalg.tower, "_diff_rf", counted)
    gens = ["gen t1 = exp(x)"] + [f"gen t{k} = exp(t{k - 1})"
                                  for k in range(2, 41)]
    path = tower_file(X_ONLY + "\n".join(gens) + "\n")
    msg = ("intermediate degree exceeded --max-degree: product degree "
           "exceeds limit 8")
    rc = main(["derive", path, "-e", "t40", "--max-degree", "8"])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err == f"error: {msg}\n"
    rc = main(["derive", path, "-e", "t40", "--max-degree", "8", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert rep["verdict"] == "ERROR"
    assert rep["residues"] == [msg]


def test_options_do_not_leak_between_calls(tower_file, capsys):
    # the parser is built once per process; each call still starts from
    # the defaults and leaves no degree limit behind
    path = tower_file(X_ONLY)
    assert main(["derive", path, "-e", "x^2", "--json",
                 "--max-degree", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == "2*x"
    assert poly.get_degree_limit() is None
    assert main(["derive", path, "-e", "x^9"]) == 0
    assert capsys.readouterr().out == "9*x^8\nPASS\n"
    assert poly.get_degree_limit() is None
    assert cli._build_parser() is cli._build_parser()


ZD_LOG = "term 1 * log(y2 - 2*y1)\n"


@pytest.mark.parametrize("v0, terms, integrand", [
    ("0", ZD_LOG, "1/(2*x) + y2 + 2*y1"),
    ("0", ZD_LOG, "1/(2*x)"),
    # D v0 = -1/(2x) + y2 + 2*y1, and (y2 + 2*y1)(y2 - 2*y1) = 0, so the
    # cleared sum D(form) is 0 though the form differentiates to y2 + 2*y1
    ("-L/2 + (2/3)*x*(y2 + 2*y1)", ZD_LOG, "0"),
    ("-L/2 + (2/3)*x*(y2 + 2*y1)", ZD_LOG, "y2 + 2*y1"),
    # a zero coefficient drops the term from the cleared sum
    ("0", "term 0 * log(y2 - 2*y1)\n", "0"),
    ("x", "term 0 * log(y2 - 2*y1)\n", "1"),
    # the two denominators multiply to 0 in the common denominator
    ("0", ZD_LOG + "term 1 * log(y2 + 2*y1)\n", "0"),
    # the two coefficients of the factor y2 - 2*y1 sum to 0, which drops
    # it from the cleared sum, but each term is checked when the form is
    # built, before they merge
    ("0", ZD_LOG + "term -1 * log(y2 - 2*y1)\n", "0"),
], ids=["sum", "log", "cleared-0", "cleared", "coeff-0-sum-0", "coeff-0",
        "two-logs", "cancelling-pair"])
def test_verify_zero_divisor_log_stays_error(tower_file, form_file, capsys,
                                             v0, terms, integrand):
    # y2 - 2*y1 is a nonzero zero divisor, since (y2 - 2 y1)(y2 + 2 y1) = 0.
    # verify and reduce must answer ERROR and name the zero divisor, as
    # when each phi was normalized alone; a sum cleared by multiplying
    # through by the zero divisor, or without the term, would read PASS
    tower = tower_file(X_ONLY + "gen L = log(x)\ngen y1 = sqrt(x)\n"
                       "gen y2 = sqrt(4*x)\n")
    form = form_file(f"v0 = {v0}\n{terms}")
    for command in ("verify", "reduce"):
        argv = [command, tower, "--integrand", integrand, "--form", form]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: division by a zero denominator: "
            "denominator is a zero divisor modulo the relations\n")
        assert main(argv + ["--json"]) == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "ERROR"


def test_constant_zero_divisor_log_stays_error(tower_file, form_file,
                                               capsys):
    # 2*ya - yb = 2 sqrt(2) - sqrt(8) is a constant zero divisor: its
    # derivative is 0, and so is D(v) in the w3 term's numerator, so no
    # part of a lazy sum has it in its denominator; the form must still
    # refuse each term by its divisors when it is built
    roots = X_ONLY + "gen ya = sqrt(2)\ngen yb = sqrt(8)\n"
    msg = ("division by a zero denominator: "
           "denominator is a zero divisor modulo the relations")
    for let, form, integrand in [
        ("", "v0 = 0\nterm 1 * log((2*ya - yb)/x)\n", "-1/x"),
        ("", "v0 = x\nterm 1 * log(2*ya - yb)\n", "1"),
        ("let v = 2*ya - yb\n",
         "v0 = x\nterm 1 * w3(v, 1, 0, v^3 - 1, 0)\n", "1"),
    ]:
        tower, form = tower_file(roots + let), form_file(form)
        for command in ("verify", "reduce"):
            argv = [command, tower, f"--integrand={integrand}", "--form",
                    form]
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {msg}\n")
            assert main(argv + ["--json"]) == 2
            rep = json.loads(capsys.readouterr().out)
            assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_square_constant_radicand_maps_to_error(tower_file, form_file,
                                                capsys):
    # s = sqrt(4) is 2 on one branch, so v0 = s*x does integrate 2; the
    # tower is refused instead of answering FAIL with residue 2 - s
    tower = tower_file(X_ONLY + "gen s = sqrt(4)\n")
    argv = ["verify", tower, "--integrand", "2", "--form",
            form_file("v0 = s*x")]
    msg = "invalid defining data: radicand 4 is the square of a rational"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


@pytest.mark.parametrize("gen, integrand, v0, msg", [
    ("exp(0)", "x/(g-1)", "x^2/(2*(g-1))", "exp of 0"),
    ("log(1)", "x/g", "x", "log of 1"),
], ids=["exp-0", "log-1"])
def test_exp_of_0_and_log_of_1_map_to_error(tower_file, form_file, capsys,
                                           gen, integrand, v0, msg):
    # g - 1 = exp(0) - 1 and log(1) are 0; read as generators, x/(g-1)
    # verified PASS against v0 = x^2/(2*(g-1))
    argv = ["verify", tower_file(X_ONLY + f"gen g = {gen}\n"),
            "--integrand", integrand, "--form", form_file(f"v0 = {v0}")]
    assert main(argv) == 2
    err = f"error: invalid defining data: {msg}\n"
    assert capsys.readouterr() == ("", err)
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == (
        "ERROR", [f"invalid defining data: {msg}"])


ELLFUN = "const a, b\n" + X_ONLY + "gen p = ellfun(x, a, b)\n"
L_CURVE = "const m\n" + X_ONLY + "gen y = sqrt((1 - x^2)*(1 - m*x^2))\n"


@pytest.mark.parametrize("tower, term, msg", [
    (X_ONLY, "log(0)", "log argument is zero"),
    (ELLFUN, "w1(x, p_q, a, b)", "q^2 = v^3 - a v - b fails"),
    (L_CURVE, "l1(x, y, x)", "modulus m not constant"),
    (L_CURVE, "l1(x, x, m)", "y^2 = (1-v^2)(1-m v^2) fails"),
    (L_CURVE, "l3(x, y, m, x, 1)", "pole a not constant"),
    (X_ONLY + "gen th = exp(x)\n",
     "w2(x^2*th^2 - 6, x*th*(x^2*th^2 - 9), 27, -54)",
     "singular cubic: 4a^3 - 27b^2 = 0"),
    (X_ONLY + "gen y = sqrt(1 - x^2)\n", "l1(x, y, 0)",
     "modulus m = 0 is degenerate"),
    (X_ONLY, "l1(x, 1 - x^2, 1)", "modulus m = 1 is degenerate"),
], ids=["log-0", "w1-off-curve", "l1-modulus", "l1-off-curve", "l3-pole",
        "w2-singular", "l1-m-0", "l1-m-1"])
def test_invalid_curve_term_maps_to_error(tower_file, form_file, capsys,
                                          tower, term, msg):
    # each term is refused by its shape's validate when the form is built;
    # the last three lie on curves that are not elliptic, the cubic
    # (v - 3)^2 (v + 6) and the quartic at m = 0 and m = 1, and verified
    # PASS against their integrands before their curve was checked
    argv = ["verify", tower_file(tower), "--integrand", "0", "--form",
            form_file(f"v0 = 0\nterm 1 * {term}\n")]
    msg = f"invalid defining data: {msg}"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


@pytest.mark.parametrize("expr, column", [("x^" + "9" * 5000, 3),
                                          ("9" * 5000 + "*x", 1)],
                         ids=["exponent", "factor"])
def test_overlong_integer_maps_to_error(tower_file, capsys, expr, column):
    # int() refuses more than 4300 digits; that must not escape as a
    # traceback (exit 1 would read as FAIL).
    msg = "syntax error: integer literal of 5000 digits is too long"
    rc = main(["derive", tower_file(X_ONLY), "-e", expr])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert msg in cap.err
    rc = main(["derive", tower_file(X_ONLY), "-e", expr, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert rep["verdict"] == "ERROR"
    assert rep["residues"] == [f"{msg} (line 1, column {column})"]


def test_overlong_coefficient_maps_to_error(tower_file, form_file, capsys):
    # str() refuses an int of more digits than int() reads back; the printer
    # names that, and verify, whose verdict would be FAIL, cannot print its
    # residue either
    detail = (f"a coefficient has more than {sys.get_int_max_str_digits()} "
              "digits")
    msg = f"value too long to print: {detail}"
    path = tower_file(X_ONLY)
    for argv in (["derive", path, "-e", "x*2^20000"],
                 ["verify", path, "--integrand", "2^20000",
                  "--form", form_file("v0 = 0\n")]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {msg}\n")
        assert main(argv + ["--json"]) == 2
        rep = json.loads(capsys.readouterr().out)
        assert (rep["verdict"], rep["residues"], rep["output"]) == (
            "ERROR", [msg], "")
    x = diffalg.Tower.base().var("x")["x"]
    for value in (x * 2 ** 20000, x / 3 ** 20000):
        with pytest.raises(errors.CoefficientTooLong, match=f"^{detail}$"):
            str(value)


def test_not_quadratic_mapped(tower_file, capsys):
    rc = main(["trnorm", tower_file(LOG_TOWER), "--gen", "th", "-e", "x"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "square root" in err


# -- derive -------------------------------------------------------------------


def test_derive_full(tower_file, capsys):
    rc = main(["derive", tower_file(X_ONLY + "gen t = exp(1/x^2)"),
               "-e", "x*t"])
    out = capsys.readouterr().out.splitlines()[0]
    assert rc == 0
    # D(x t) = (x^2 - 2) t / x^2
    assert "t" in out and "x^2" in out


def test_derive_wrt_x(tower_file, capsys):
    rc = main(["derive", tower_file(X_ONLY + "gen t = exp(x)"),
               "-e", "t^2", "--wrt", "X:t"])
    out = capsys.readouterr().out.splitlines()[0]
    assert rc == 0
    assert out.replace(" ", "") in ("2*t^2", "2t^2")


def test_derive_wrt_partial(tower_file, capsys):
    rc = main(["derive", tower_file(X_ONLY + "gen t = exp(x)"),
               "-e", "x^2*t", "--wrt", "partial:x"])
    out = capsys.readouterr().out.splitlines()[0]
    assert rc == 0
    assert out.replace(" ", "") in ("2*x*t", "2*t*x", "2x*t")


def test_derive_wrt_bad_spec(tower_file, capsys):
    rc = main(["derive", tower_file(X_ONLY), "-e", "x", "--wrt", "dx"])
    assert rc == 2
    assert "derivation handle" in capsys.readouterr().err


NO_SUCH = ("element does not live in the expected field: "
           "no generator named 'nosuch'")


@pytest.mark.parametrize("argv, msg", [
    (["derive", "-e", "x", "--wrt", "X:x"],
     "derivation handle not supported here: no commuting derivation for "
     "generator 'x' of kind BaseVar"),
    (["derive", "-e", "x", "--wrt", "X:nosuch"], NO_SUCH),
    (["trnorm", "--gen", "nosuch", "-e", "x"], NO_SUCH),
    (["derive", "-e=x)"],
     "syntax error: trailing input ')' (line 1, column 2)"),
], ids=["X-of-base-var", "X-of-unknown", "trnorm-unknown", "trailing-paren"])
def test_handle_name_and_trailing_input_refusals(tower_file, capsys, argv,
                                                 msg):
    # a commuting derivation X exists only for an extension generator, a
    # handle or --gen must name a generator, and an expression ends at
    # its end: each is refused with exit 2, as text and as --json
    argv = [argv[0], tower_file(X_ONLY), *argv[1:]]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_derive_uses_bindings(tower_file, capsys):
    rc = main(["derive", tower_file(X_ONLY + "let u = x^2"), "-e", "u + x"])
    out = capsys.readouterr().out.splitlines()[0]
    assert rc == 0
    assert out.replace(" ", "") in ("2*x+1", "1+2*x")


def test_expression_starting_with_minus_goes_after_equals(
        tower_file, form_file, capsys):
    # argparse takes "-x" after "-e" for an option, so the expression is
    # joined to its flag, as the help texts say
    tower = tower_file(X_ONLY)
    with pytest.raises(SystemExit) as exc:
        main(["derive", tower, "-e", "-x"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert main(["derive", tower, "-e=-x"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "-1"
    rc = main(["verify", tower, "--integrand=-1/x",
               "--form", form_file("v0 = 0\nterm -1 * log(x)")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    for sub in ("derive", "verify", "reduce", "trnorm"):
        with pytest.raises(SystemExit):
            main([sub, "-h"])
        assert "--integrand=-1/x" in capsys.readouterr().out


# -- check-lie ----------------------------------------------------------------


def test_check_lie_reports_all_x_generators(tower_file, capsys):
    text = (X_ONLY + "gen t = exp(x)\ngen th = log(x)\ngen w = lambertw(x)")
    rc = main(["check-lie", tower_file(text)])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("X_t", "X_th", "X_w"):
        assert f"[D, {name}]" in out
    assert out.rstrip().endswith("PASS")


# -- trnorm -------------------------------------------------------------------


def test_trnorm_conjugate_pair(tower_file, capsys):
    text = X_ONLY + "gen s = sqrt((x-1)/(x+1))"
    rc = main(["trnorm", tower_file(text), "--gen", "s", "-e", "1 + s"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace = 2" in out
    assert "norm = " in out
    assert "lognorm identity: holds" in out


# -- reduce -------------------------------------------------------------------


def test_reduce_log_step(tower_file, form_file, capsys):
    rc = main(["reduce", tower_file(LOG_TOWER), "--integrand", "1/x",
               "--form", form_file("v0 = th")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# step 1" in out
    assert "term 1 * log(x)" in out
    assert "step 1: top generator now x, verified" in out


def test_reduce_rejects_wrong_form(tower_file, form_file, capsys):
    rc = main(["reduce", tower_file(LOG_TOWER), "--integrand", "1/x",
               "--form", form_file("v0 = x")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "input form does not differentiate to f" in out


def test_reduce_refuses_a_step_that_drifts(tower_file, form_file, capsys,
                                           monkeypatch):
    # a rewrite that adds x to v0 changes the form's derivative by 1, so
    # the step's own re-verification refuses it before it is returned
    rewrite = liouville._rewrite_v0
    monkeypatch.setattr(liouville, "_rewrite_v0",
                        lambda t, v0, sgids: rewrite(t, v0, sgids) + t["x"])
    argv = ["reduce", tower_file(LOG_TOWER), "--integrand", "1/x",
            "--form", form_file("v0 = th")]
    msg = ("reduced form failed re-verification: "
           "reduced form derivative drifted")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


# the conjugate pair of third-kind terms at x + s and x - s on the
# Legendre quartic, whose reduction adds an Abel log correction
L3_TOWER = ("const m, pa\nvar x = d/dx 1\nlet e = (1 + m)/(2*m)\n"
            "let r = e - x^2\ngen y = sqrt((1 - e)*(1 - m*e) + 4*m*x^2*r)\n"
            "gen delta = sqrt((1 - pa^2)*(1 - m*pa^2))\ngen s = sqrt(r)\n")
L3_PAIR = ("v0 = 0\nterm 1/2 * l3(x + s, y, m, pa, delta)\n"
           "term 1/2 * l3(x - s, y, m, pa, delta)\n")


def test_reduce_refuses_a_wrong_third_kind_correction(tower_file, form_file,
                                                      capsys, monkeypatch):
    # a doubled log coefficient changes the reduced form's derivative, so
    # the self-check, which reads the correction as its two logs, refuses it
    doc = parse_tower(L3_TOWER)
    f = form_derivative(doc.tower, parse_form(L3_PAIR, doc.tower,
                                              doc.bindings))
    step = liouville.abel_step

    def doubled(*args):
        p3, w, (c, num, den) = step(*args)
        return p3, w, (2 * c, num, den)

    monkeypatch.setattr(liouville, "abel_step", doubled)
    argv = ["reduce", tower_file(L3_TOWER), f"--integrand={f}",
            "--form", form_file(L3_PAIR)]
    msg = ("reduced form failed re-verification: "
           "reduced form derivative drifted")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


# w2 and w3 (pole 0) on q^2 = p^3 - a p cancel the X-image of q/p:
# X(q/p) = p/2 + a/(2p), so the form's X-constant is 0 and its integrand 0
V0_OVER_P = ("v0 = p_q/p\nterm -1/2 * w2(p, p_q, a, 0)\n"
             "term -a/2 * w3(p, p_q, a, 0, 0)\n")
# on the singular cubic q^2 = (v - 3)^2 (v + 6), v = u^2 - 6 and
# q = u(u^2 - 9) at u = x*th; X = th d/dth takes w2 to 2u + 6u/(u^2 - 9),
# which v0 = -2u and the log cancel: X-constant 0, integrand 0.  A
# dropped top monomial of v0 would have the coefficient -2x, but the w2
# term is refused when the form is built: its curve is not elliptic.
V0_TIMES_X = ("v0 = -2*x*th\n"
              "term 1 * w2(x^2*th^2 - 6, x*th*(x^2*th^2 - 9), 27, -54)\n"
              "term 1 * log((x*th + 3)/(x*th - 3))\n")
NOT_BELOW = "form part does not reduce below the extension: "
SINGULAR = "invalid defining data: singular cubic: 4a^3 - 27b^2 = 0"


@pytest.mark.parametrize("tower, f, form, msg", [
    (ELLFUN, "1", "v0 = 0\nterm 1 * w1(p, p_q, a, b)\n",
     NOT_BELOW + "curve-term payload involves the top extension"),
    ("const a\n" + X_ONLY + "gen p = ellfun(x, a, 0)\n", "0", V0_OVER_P,
     NOT_BELOW + "v0 denominator involves the top extension"),
    (X_ONLY + "gen th = exp(x)\n", "0", V0_TIMES_X, SINGULAR),
], ids=["curve-term", "v0-denominator", "v0-coefficient"])
def test_reduce_refuses_a_part_on_the_top_extension(tower_file, form_file,
                                                    capsys, tower, f, form,
                                                    msg):
    # the form verifies and its X-constant is constant, but a part of it
    # cannot be rewritten below the top generator
    argv = ["reduce", tower_file(tower), "--integrand", f,
            "--form", form_file(form)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


# Q = (s, y) lies on Y^2 = (1 - X^2)(1 + 9 X^2), and s -> -s takes it to
# -Q; R = (1/3, 4/3) is a rational point with x(2R) = 4/5.  So the pair
# Q + R, -Q + R sums to 2R, on the pole x = +-a of l3 for a = +-4/5,
# where delta = 39/25.  At a = 4/5 the log argument's denominator is 0,
# at a = -4/5 its numerator.
POLE_TOWER = X_ONLY + "gen y = sqrt(-9*x^2 + 8*x + 1)\ngen s = sqrt(x)\n"
POLE_PAIR = [("(4/3*s + 1/3*y)/(x + 1)",
              "(-26/3*x*s - 4/3*x*y + 2*s + 4/3*y)/(x^2 + 2*x + 1)"),
             ("(-4/3*s + 1/3*y)/(x + 1)",
              "(26/3*x*s - 4/3*x*y - 2*s + 4/3*y)/(x^2 + 2*x + 1)")]


@pytest.mark.parametrize("a", ["4/5", "-4/5"])
def test_reduce_refuses_a_sum_point_on_the_third_kind_pole(
        tower_file, form_file, capsys, a):
    form = "v0 = 0\n" + "".join(f"term 1/2 * l3({v}, {y}, -9, {a}, 39/25)\n"
                                for v, y in POLE_PAIR)
    argv = ["reduce", tower_file(POLE_TOWER), "--integrand",
            "(1600/15129)/(x^2 - 15842/15129*x + 14161/136161)",
            "--form", form_file(form)]
    msg = ("addition law denominator vanishes: the sum point lies on the "
           "third-kind pole x = +-a")
    assert main(["verify"] + argv[1:]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")


def test_reduce_nothing_to_do(tower_file, form_file, capsys):
    tower = X_ONLY + "gen t = exp(1/x^2)"
    rc = main(["reduce", tower_file(tower),
               "--integrand", "(x^2-2)*t/x^2",
               "--form", form_file("v0 = x*t")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nothing above the integrand was reducible" in out


def test_reduce_steps_limit(tower_file, form_file, capsys):
    text = (X_ONLY + "gen u = log(x)\ngen v = log(x+1)")
    rc = main(["reduce", tower_file(text),
               "--integrand", "1/x + 1/(x+1)",
               "--form", form_file("v0 = u + v"), "--steps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# step 1" in out and "# step 2" not in out


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_reduce_steps_below_one_is_a_usage_error(tower_file, form_file,
                                                 capsys, steps):
    # The log(x) tower is reducible, so zero steps would misreport it.
    with pytest.raises(SystemExit) as exc:
        main(["reduce", tower_file(LOG_TOWER), "--integrand", "1/x",
              "--form", form_file("v0 = th"), "--steps", steps])
    assert exc.value.code == 2
    assert "--steps: must be at least 1" in capsys.readouterr().err


def test_reduce_two_steps_through_sqrt(tower_file, form_file, capsys):
    text = (X_ONLY + "gen s = sqrt((x-1)/(x+1))\ngen th = log(x)")
    rc = main(["reduce", tower_file(text),
               "--integrand", "1/x + 1/(x^2-1)",
               "--form", form_file("v0 = th\nterm 1 * log(s)")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# step 2" in out
    assert "step 2: top generator now x, verified" in out


def test_reduce_through_an_elliptic_pair(tower_file, form_file, capsys):
    # the companion p_q routes to p, and one step consumes both
    tower = tower_file("const a, b\n" + X_ONLY + "gen p = ellfun(x, a, b)\n")
    argv = ["reduce", tower, "--integrand", "1", "--form",
            form_file("v0 = x")]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "# step 1\nv0 = x\nstep 1: top generator now x, verified\nPASS\n")
    assert main(argv + ["--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["output"], rep["residues"]) == (
        "PASS", "# step 1\nv0 = x", ["step 1: top generator now x, verified"])


def test_reduce_keeps_a_constant_above_the_consumed_log(tower_file,
                                                      form_file, capsys):
    # the reduced tower x, m is no prefix of x, g, m
    rc = main(["reduce", tower_file(X_ONLY + "gen g = log(x)\nconst m\n"),
               "--integrand", "m/x", "--form", form_file("v0 = m*g")])
    assert rc == 0
    assert capsys.readouterr().out == (
        "# step 1\nv0 = 0\nterm m * log(x)\n"
        "step 1: top generator now m, verified\nPASS\n")


def test_reduce_through_a_recorded_antiderivative(tower_file, form_file,
                                                 capsys):
    tower = tower_file(X_ONLY + "gen th = int(x^2, x^3/3)\n")
    rc = main(["reduce", tower, "--integrand", "x^2",
               "--form", form_file("v0 = th")])
    assert rc == 0
    assert capsys.readouterr().out == (
        "# step 1\nv0 = 1/3*x^3\nstep 1: top generator now x, verified\n"
        "PASS\n")


def test_wrong_antiderivative_maps_to_error(tower_file, form_file, capsys):
    argv = ["reduce", tower_file(X_ONLY + "gen th = int(x^2, x)\n"),
            "--integrand", "x^2", "--form", form_file("v0 = th")]
    msg = "invalid defining data: x is not an antiderivative of x^2"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_pole_on_a_first_kind_ellint_maps_to_error(tower_file, capsys):
    # the pole c belongs to the third kind only; it was once dropped, and
    # D F printed PASS as if the declaration read ellint(1, p, p_q)
    tower = tower_file("const a, b, c\n" + X_ONLY + "gen p = ellfun(x, a, b)\n"
                       "gen F = ellint(1, p, p_q, c)\n")
    argv = ["derive", tower, "-e", "F"]
    msg = "invalid defining data: pole c only belongs to the third kind"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


@pytest.mark.parametrize("decl, name, msg", [
    # v^3 - 3v - 2 = (v + 1)^2 (v - 2): the pair built, and derive
    # answered p_q
    ("gen p = ellfun(x, 3, 2)", "p", "singular cubic: 4a^3 - 27b^2 = 0"),
    # (x + c, s) lies on s^2 = p^3 - p, but ellint reads a and b off
    # q^2 = p^3 - a p - b only where p is a single generator
    ("const c\ngen s = sqrt((x + c)^3 - (x + c))\n"
     "gen G = ellint(1, x + c, s)", "G",
     "cannot recover curve constants: argument is not a generator"),
], ids=["ellfun-singular", "ellint-compound"])
def test_refused_curve_generator_maps_to_error(tower_file, capsys, decl,
                                               name, msg):
    argv = ["derive", tower_file(X_ONLY + decl + "\n"), "-e", name]
    msg = f"invalid defining data: {msg}"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {msg}\n")
    assert main(argv + ["--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["residues"]) == ("ERROR", [msg])


def test_reduce_refuses_to_strand_defining_data(tower_file, form_file,
                                               capsys):
    # h = exp(g1 - g2) is constant and stays, but its data uses g2
    text = X_ONLY + "gen g1 = log(x)\ngen g2 = log(x)\ngen h = exp(g1 - g2)\n"
    rc = main(["reduce", tower_file(text), "--integrand", "1/x",
               "--form", form_file("v0 = g2")])
    assert rc == 2
    assert capsys.readouterr() == (
        "", "error: element does not live in the expected field: "
        "cannot drop g2: the defining data of h uses it\n")


# -- abel ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["f", "w1", "w2"])
def test_abel_kinds(kind, capsys):
    rc = main(["abel", "--kind", kind])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.rstrip().endswith("PASS")


# -- argument surface -----------------------------------------------------------

# Each argument of each subcommand, in the order argparse holds it: its
# option strings (or its positional name), required flag, default,
# choices, metavar and type name.  Read by introspection, not from the
# help text, whose layout differs between Python versions.
COMMON_ARGS = [
    (("-h", "--help"), False, argparse.SUPPRESS, None, None, None),
    (("--json",), False, False, None, None, None),
    (("--max-degree",), False, 512, None, "N", "positive_int"),
]
TOWER_ARG = ("tower", True, None, None, None, None)
EXPR_ARG = (("-e", "--expr"), True, None, None, None, None)
INTEGRAND_ARG = (("--integrand",), True, None, None, "EXPR", None)
FORM_ARG = (("--form",), True, None, None, "FORMFILE", None)
SURFACE = {
    "derive": [TOWER_ARG, EXPR_ARG,
               (("--wrt",), False, "D", None, "D|X:NAME|partial:NAME", None)],
    "check-lie": [TOWER_ARG],
    "verify": [TOWER_ARG, INTEGRAND_ARG, FORM_ARG],
    "reduce": [TOWER_ARG, INTEGRAND_ARG, FORM_ARG,
               (("--steps",), False, None, None, "N", "positive_int")],
    "abel": [(("--kind",), True, None, ("f", "e", "pi", "w1", "w2"), None,
              None)],
    "trnorm": [TOWER_ARG, (("--gen",), True, None, None, "NAME", None),
               EXPR_ARG],
}


def _surface(action):
    choices = None if action.choices is None else tuple(action.choices)
    return (tuple(action.option_strings) or action.dest, action.required,
            action.default, choices, action.metavar,
            getattr(action.type, "__name__", None))


def test_argument_surface():
    parser = cli._build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert list(sub.choices) == list(SURFACE)
    for cmd, args in SURFACE.items():
        got = [_surface(a) for a in sub.choices[cmd]._actions]
        assert got == COMMON_ARGS + args, cmd


@pytest.mark.parametrize("cmd", list(SURFACE))
def test_subcommand_help_exits_0(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: diffalg {cmd} ")


# -- console entry point --------------------------------------------------------


# What the wrapper that pip generates for a ``[project.scripts]`` entry does,
# with the ``module:attr`` target taken as the first argument.
ENTRY_POINT_WRAPPER = (
    "import importlib, sys\n"
    "module, _, attr = sys.argv.pop(1).partition(':')\n"
    "main = getattr(importlib.import_module(module), attr)\n"
    "sys.argv[0] = 'diffalg'\n"
    "sys.exit(main())\n"
)


def _assert_pass_report(cmd, cwd, env):
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                         env=env)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["verdict"] == "PASS"


def test_console_script(tower_file, form_file, tmp_path):
    args = ["verify", tower_file(X_ONLY), "--integrand", "1/x",
            "--form", form_file("v0 = 0\nterm 1 * log(x)"), "--json"]
    # The child must import this checkout's package wherever pytest was
    # started, so a relative PYTHONPATH is replaced by an absolute one.
    env = {**os.environ,
           "PYTHONPATH": str(Path(diffalg.__file__).resolve().parents[1])}
    # Where the package is installed, its script is run as users run it;
    # the declared entry point below is run in any case.
    exe = shutil.which("diffalg")
    if exe:
        _assert_pass_report([exe, *args], tmp_path, env)
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["diffalg"]
    assert target == "diffalg.cli:main"
    _assert_pass_report(
        [sys.executable, "-c", ENTRY_POINT_WRAPPER, target, *args],
        tmp_path, env)
