"""The benchmark's tracer wraps functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

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
