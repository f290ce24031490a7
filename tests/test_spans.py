"""The benchmark's tracer: each function it wraps must exist, and its hooks
must read the polynomial layout."""

import importlib
import importlib.util
import sys
from pathlib import Path

from diffalg import poly

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_entry_points_resolve():
    # a function renamed or deleted in src/ would otherwise show only
    # when the benchmark's own self-test installs the tracer
    spans = _spans()
    missing = []
    for modname, attr in ([(m, a) for _, m, a in spans.ENTRY_POINTS]
                          + [spans.CERTIFICATE]):
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def _bindings():
    """Every function bound in a diffalg module or on MultiPoly."""
    out = {("MultiPoly", k): v for k, v in vars(poly.MultiPoly).items()}
    for name, mod in list(sys.modules.items()):
        if name == "diffalg" or name.startswith("diffalg."):
            out.update(((name, k), v) for k, v in vars(mod).items()
                       if callable(v))
    return out


def test_tracer_records_the_kernel_counters():
    # the benchmark's hooks read the polynomial layout (len(a.terms));
    # a layout change that broke them would otherwise show only in the
    # benchmark's own self-test
    spans = _spans()
    x, y = poly.MultiPoly.var(0), poly.MultiPoly.var(1)
    one = poly.MultiPoly.one()
    p, q = (x + y) * (x - one), (x + y) * (y + one)
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert poly.MultiPoly.__mul__ is not before[("MultiPoly", "__mul__")]
        prod = (x + one) * (y + one)
        g = poly.poly_gcd(p, q)
    finally:
        tracer.uninstall()
    assert prod.terms and g == x + y
    counts = tracer.counts
    assert counts["poly.mul.term_pairs"] == 4
    assert counts["poly.mul.max_terms_out"] == 4
    assert counts["poly.gcd.cert_calls"] >= 1
    totals = tracer.layer_totals()
    assert totals["poly.mul"][0] == 1 and totals["poly.gcd"][0] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
