"""Self-tests of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py            # from the repository root
    python3 -m pytest -q perfbench/selftest.py

The traced passes over abel_pi and l3_pushdown make this take about a
minute and a half, so the file is named to stay out of the repository's
own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Span -> the workloads whose traced pass must record calls to it.  This
# is the prediction table in predictions.json, with one refinement:
# x_constant runs only in reduce_top, which l3_pushdown never reaches
# (it reduces a square root).
USED_BY = {
    "poly.mul": ("abel_pi", "abel_small", "l3_pushdown", "cli_roundtrip"),
    "poly.gcd": ("l3_pushdown", "cli_roundtrip"),
    "poly.prem": ("l3_pushdown",),
    "poly.divexact": ("l3_pushdown",),
    "ratfunc.normal_form": ("l3_pushdown", "cli_roundtrip"),
    "ratfunc.normalize": ("l3_pushdown", "cli_roundtrip"),
    "ratfunc.reduce_powers": ("l3_pushdown", "cli_roundtrip"),
    "tower.derive": ("cli_roundtrip",),
    "curves.zero_test": ("abel_pi", "abel_small"),
    "curves.group_add": ("abel_pi", "abel_small"),
    "liouville.form_derivative": ("l3_pushdown", "cli_roundtrip"),
    "liouville.verify": ("l3_pushdown", "cli_roundtrip"),
    "liouville.x_constant": ("cli_roundtrip",),
    "liouville.reduce_step": ("l3_pushdown", "cli_roundtrip"),
    "dsl.parse": ("cli_roundtrip",),
    "fmt.format": ("cli_roundtrip",),
    "cli.main": ("cli_roundtrip",),
}

def _traced_pass(name: str, seed: int = 1, cases: int | None = None):
    """(tracer, tally) of one traced pass, optionally over fewer cases."""
    with tempfile.TemporaryDirectory(dir=_scratch()) as workdir:
        wl = workloads.build(name, seed, workdir)
        ops = wl.ops if cases is None else wl.ops[:5 * cases]
        tracer = spans.Tracer()
        tally = run.Tally()
        tracer.install()
        try:
            tally.run_pass(ops)
        finally:
            tracer.uninstall()
    return tracer, tally


def _scratch() -> str:
    os.makedirs(run.OUT, exist_ok=True)
    return run.OUT


def _counts(tracer) -> dict:
    """Every per-layer metric that is a count or a ratio of counts."""
    metrics = spans.layer_metrics(tracer, 1.0, 0.0)
    return {k: v for k, v in metrics.items()
            if spans.PER_LAYER_UNITS[k] in ("count", "share")}


def test_cli_documents_depend_only_on_seed():
    a = workloads.make_cli_cases(7, 24)
    assert a == workloads.make_cli_cases(7, 24)
    assert a != workloads.make_cli_cases(8, 24)
    files = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(dir=_scratch()) as d:
            workloads.build("cli_roundtrip", 7, d)
            files.append({f: open(os.path.join(d, f)).read()
                          for f in sorted(os.listdir(d))})
    assert files[0] == files[1]
    assert len(files[0]) == 2 * workloads.CLI_CASES_PER_PASS


def test_traced_counts_repeat():
    first, tally1 = _traced_pass("cli_roundtrip", seed=3, cases=12)
    second, tally2 = _traced_pass("cli_roundtrip", seed=3, cases=12)
    assert tally1.wrong == tally2.wrong == 0
    assert _counts(first) == _counts(second)
    assert first.span_count() == second.span_count() > 0


def test_tracer_uninstall_restores_every_binding():
    import diffalg.cli
    import diffalg.ratfunc
    before = (diffalg.cli.verify_liouville, diffalg.ratfunc.poly_gcd)
    tracer = spans.Tracer()
    tracer.install()
    assert diffalg.cli.verify_liouville.__wrapped__ is before[0]
    assert diffalg.ratfunc.poly_gcd.__wrapped__ is before[1]
    tracer.uninstall()
    assert (diffalg.cli.verify_liouville, diffalg.ratfunc.poly_gcd) == before


def test_each_entry_point_records_calls_where_predicted():
    missing = []
    for name in workloads.NAMES:
        tracer, tally = _traced_pass(name)
        assert tally.wrong == 0, name
        totals = tracer.layer_totals()
        for span, users in USED_BY.items():
            if name in users and totals.get(span, (0,))[0] == 0:
                missing.append((name, span))
        if name == "l3_pushdown":
            assert tracer.counts["poly.gcd.cert_calls"] > 0
    assert not missing, missing


def test_known_answer_checks_reject_wrong_results():
    with tempfile.TemporaryDirectory(dir=_scratch()) as d:
        ops = workloads.build("cli_roundtrip", 5, d).ops
    for op in ops:
        assert not op.check((2, "")), op.label
    perturbed = [op for op in ops if op.label.endswith("verify-perturbed")]
    assert perturbed and not any(op.check((0, "PASS\n")) for op in perturbed)
    derive = [op for op in ops if op.label.endswith("-derive")]
    assert derive and not any(op.check((0, "12345\nPASS\n")) for op in derive)
    abel = workloads.build("abel_small", 0, "").ops
    assert not any(op.check((0, "d/dx1: 0\nd/dx2: nonzero\nFAIL\n"))
                   for op in abel)
    assert not workloads._l3_check([])


def test_evaluate_is_exact():
    from fractions import Fraction
    env = {"x": Fraction(2, 3), "th": Fraction(5)}
    assert workloads.evaluate("(x^2 + 1)/(2*x) - -th", env) == (
        (Fraction(4, 9) + 1) / Fraction(4, 3) + 5)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.PER_LAYER_UNITS
    with open(os.path.join(HERE, "predictions.json")) as fh:
        rows = json.load(fh)["rows"]
    covered = [m for row in rows for m in row["metrics"]]
    assert sorted(covered) == sorted(spans.PER_LAYER_UNITS)
    for row in rows:
        for side in (row["moves"], row["holds"]):
            for name, metrics in side.items():
                assert name in workloads.NAMES
                assert set(metrics) <= set(run.END_TO_END_UNITS)


def test_fails_without_the_engine_sources():
    with tempfile.TemporaryDirectory(dir=_scratch()) as d:
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "abel_pi",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
