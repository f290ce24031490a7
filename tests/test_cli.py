"""CLI reports, exit codes, and error mapping."""

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import diffalg
from diffalg import cli, errors, poly
from diffalg.cli import ERROR_MESSAGES, main

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


def test_parse_error_exits_2(tower_file, capsys):
    rc = main(["derive", tower_file("flub x = d/dx 1"), "-e", "x"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "syntax error" in err


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["derive", str(tmp_path / "absent.tower"), "-e", "x"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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
], ids=["sum", "log", "cleared-0", "cleared", "coeff-0-sum-0", "coeff-0",
        "two-logs"])
def test_verify_zero_divisor_log_stays_error(tower_file, form_file, capsys,
                                             v0, terms, integrand):
    # y2 - 2*y1 is a nonzero zero divisor, since (y2 - 2 y1)(y2 + 2 y1) = 0.
    # verify must answer ERROR and name the zero divisor, as when each
    # phi was normalized alone; a sum cleared by multiplying through by
    # the zero divisor, or without the term, would read PASS
    tower = tower_file(X_ONLY + "gen L = log(x)\ngen y1 = sqrt(x)\n"
                       "gen y2 = sqrt(4*x)\n")
    form = form_file(f"v0 = {v0}\n{terms}")
    argv = ["verify", tower, "--integrand", integrand, "--form", form]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: division by a zero denominator: "
        "denominator is a zero divisor modulo the relations\n")
    assert main(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "ERROR"


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


def test_derive_uses_bindings(tower_file, capsys):
    rc = main(["derive", tower_file(X_ONLY + "let u = x^2"), "-e", "u + x"])
    out = capsys.readouterr().out.splitlines()[0]
    assert rc == 0
    assert out.replace(" ", "") in ("2*x+1", "1+2*x")


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


# -- abel ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["f", "w1"])
def test_abel_kinds(kind, capsys):
    rc = main(["abel", "--kind", kind])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.rstrip().endswith("PASS")


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
