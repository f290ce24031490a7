"""Outside-in spans around the public entry points of each diffalg layer.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
entry point with a wrapper wherever the function object is bound: in the
module that defines it, in every module that imported it by name, and
on the class for methods.  A name patched only where it is defined would
silently miss the calls made through the other bindings (``cli`` calls
``verify_liouville`` through its own global, ``ratfunc`` calls
``poly_gcd`` through its own, and so on).

Spans are kept in memory in flat arrays, one row each: layer name,
parent row, start and end.  ``write`` dumps them at the end of the run
and ``layer_metrics`` folds them into the per-layer metrics, where a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute) for module-level functions and
# (span name, module, "Class.method") for methods.  Several entry points
# may share one span name; they then count as one layer metric.
ENTRY_POINTS = (
    ("poly.mul", "diffalg.poly", "MultiPoly.__mul__"),
    ("poly.gcd", "diffalg.poly", "poly_gcd"),
    ("poly.prem", "diffalg.poly", "_pseudo_rem"),
    ("poly.divexact", "diffalg.poly", "poly_divexact"),
    ("ratfunc.normal_form", "diffalg.ratfunc", "normal_form"),
    ("ratfunc.normalize", "diffalg.ratfunc", "ratfunc_normalize"),
    ("ratfunc.reduce_powers", "diffalg.ratfunc", "reduce_powers"),
    ("tower.derive", "diffalg.tower", "Tower.derive"),
    ("curves.zero_test", "diffalg.curves", "_sum_reduces_to_zero"),
    ("curves.group_add", "diffalg.curves", "legendre_add"),
    ("curves.group_add", "diffalg.curves", "weierstrass_add"),
    ("liouville.form_derivative", "diffalg.liouville", "form_derivative"),
    ("liouville.verify", "diffalg.liouville", "verify_liouville"),
    ("liouville.x_constant", "diffalg.liouville", "x_constant"),
    ("liouville.reduce_step", "diffalg.liouville", "reduce_top"),
    ("liouville.reduce_step", "diffalg.liouville", "reduce_algebraic"),
    ("dsl.parse", "diffalg.dsl", "parse_tower"),
    ("dsl.parse", "diffalg.dsl", "parse_expr"),
    ("dsl.parse", "diffalg.dsl", "parse_form"),
    ("fmt.format", "diffalg.fmt", "format_ratfunc"),
    ("cli.main", "diffalg.cli", "main"),
)

# Wrapped for a count only, without a span: the modular coprimality
# certificate inside poly_gcd, whose hits skip the pseudo-remainders.
CERTIFICATE = ("diffalg.poly", "_certify_coprime")


class Tracer:
    """In-memory span log plus the counters the spans cannot give."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point at each of its bindings."""
        for span, modname, attr in ENTRY_POINTS:
            owner, name = _owner(modname, attr)
            orig = owner.__dict__[name]
            hook = _HOOKS.get(span)
            self._rebind(orig, self._wrap(span, orig, hook), owner, name)
        owner, name = _owner(*CERTIFICATE)
        orig = owner.__dict__[name]
        self._rebind(orig, self._count_certificate(orig), owner, name)

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._undo):
            setattr(target, name, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper, owner, name) -> None:
        # Methods live on their class; module functions are found below
        # with every other binding.
        targets = [(owner, name)] if isinstance(owner, type) else []
        for mod in _diffalg_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    targets.append((mod, key))
        for target, key in targets:
            self._undo.append((target, key, orig))
            setattr(target, key, wrapper)
        for mod in _diffalg_modules():
            if any(val is orig for val in vars(mod).values()):
                raise RuntimeError(f"{name} is still bound unwrapped in "
                                   f"{mod.__name__}")

    def _wrap(self, span: str, fn, hook):
        sid = self.name_ids.get(span)
        if sid is None:
            sid = self.name_ids[span] = len(self.names)
            self.names.append(span)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            row = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(row)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[row] = t0
                ends[row] = t1
            if hook is not None:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_certificate(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            hit = fn(*args, **kwargs)
            counts["poly.gcd.cert_calls"] += 1
            counts["poly.gcd.cert_hits"] += bool(hit)
            return hit

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def layer_totals(self) -> dict:
        """span name -> (calls, total seconds, self seconds)."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        total = Counter()
        own = Counter()
        for i, sid in enumerate(self.span_name):
            name = self.names[sid]
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
        return {name: (calls[name], total[name], own[name])
                for name in self.names}

    def selfcheck_seconds(self) -> float:
        """verify_liouville time spent directly inside a reduction step."""
        step = self.name_ids.get("liouville.reduce_step")
        verify = self.name_ids.get("liouville.verify")
        secs = 0.0
        for i, sid in enumerate(self.span_name):
            p = self.span_parent[i]
            if sid == verify and p >= 0 and self.span_name[p] == step:
                secs += self.span_end[i] - self.span_start[i]
        return secs

    def write(self, path: str) -> None:
        """One tab-separated line per span: row, parent, name, start, end
        in nanoseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("row\tparent\tname\tstart_ns\tend_ns\n")
            for i, sid in enumerate(self.span_name):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[sid]}\t"
                         f"{int((self.span_start[i] - t0) * 1e9)}\t"
                         f"{int((self.span_end[i] - t0) * 1e9)}\n")


def _span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds, timed on a no-op with a scratch tracer."""
    def noop(*args):
        return None

    wrapped = Tracer()._wrap("calibration", noop, None)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop(1, 2)
    t1 = clock()
    for _ in range(calls):
        wrapped(1, 2)
    t2 = clock()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def _mul_hook(counts, args, result):
    a, b = args
    counts["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)
    n = len(result.terms)
    if n > counts["poly.mul.max_terms_out"]:
        counts["poly.mul.max_terms_out"] = n


def _gcd_hook(counts, args, result):
    counts["poly.gcd.nontrivial"] += not result.is_const()


_HOOKS = {"poly.mul": _mul_hook, "poly.gcd": _gcd_hook}


def _owner(modname: str, attr: str):
    obj = importlib.import_module(modname)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def _diffalg_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "diffalg" or name.startswith("diffalg."))]


_SPAN_METRICS = ("poly.mul", "poly.gcd", "poly.divexact",
                 "ratfunc.normal_form", "ratfunc.normalize",
                 "ratfunc.reduce_powers", "tower.derive", "curves.zero_test",
                 "curves.group_add", "liouville.form_derivative",
                 "dsl.parse", "fmt.format", "cli.main")

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    **{f"{span}.{what}": unit for span in _SPAN_METRICS
       for what, unit in (("calls", "count"), ("self_s", "s"))},
    "poly.mul.term_pairs": "count",
    "poly.mul.max_terms_out": "count",
    "poly.mul.ns_per_pair": "ns",
    "poly.gcd.nontrivial_share": "share",
    "poly.gcd.cert_hit_share": "share",
    "poly.gcd.prem_calls": "count",
    "poly.gcd.prem_self_s": "s",
    "liouville.verify.calls": "count",
    "liouville.verify.total_s": "s",
    "liouville.reduce.xconst_s": "s",
    "liouville.reduce.rewrite_s": "s",
    "liouville.reduce.selfcheck_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
}


def layer_metrics(tracer: Tracer, factor: float, overhead_s: float) -> dict:
    """The per-layer metrics of one traced pass, name -> value.

    Span times are multiplied by `factor`, the pass's scale to the
    reference speed (see speed.py); `overhead_s` is already scaled.
    """
    totals = {name: (calls, total * factor, own * factor)
              for name, (calls, total, own) in tracer.layer_totals().items()}
    counts = tracer.counts

    def calls(span):
        return totals.get(span, (0, 0.0, 0.0))[0]

    def total_s(span):
        return totals.get(span, (0, 0.0, 0.0))[1]

    def self_s(span):
        return totals.get(span, (0, 0.0, 0.0))[2]

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for span in _SPAN_METRICS:
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = self_s(span)
    pairs = counts["poly.mul.term_pairs"]
    out["poly.mul.term_pairs"] = pairs
    out["poly.mul.max_terms_out"] = counts["poly.mul.max_terms_out"]
    out["poly.mul.ns_per_pair"] = share(self_s("poly.mul") * 1e9, pairs)
    out["poly.gcd.nontrivial_share"] = share(counts["poly.gcd.nontrivial"],
                                             calls("poly.gcd"))
    out["poly.gcd.cert_hit_share"] = share(counts["poly.gcd.cert_hits"],
                                           counts["poly.gcd.cert_calls"])
    out["poly.gcd.prem_calls"] = calls("poly.prem")
    out["poly.gcd.prem_self_s"] = self_s("poly.prem")
    out["liouville.verify.calls"] = calls("liouville.verify")
    out["liouville.verify.total_s"] = total_s("liouville.verify")
    xconst = total_s("liouville.x_constant")
    selfcheck = tracer.selfcheck_seconds() * factor
    out["liouville.reduce.xconst_s"] = xconst
    out["liouville.reduce.selfcheck_s"] = selfcheck
    out["liouville.reduce.rewrite_s"] = max(
        0.0, total_s("liouville.reduce_step") - xconst - selfcheck)
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = tracer.span_count()
    out["trace.span_cost_s"] = tracer.span_count() * _span_cost() * factor
    return {name: out[name] for name in PER_LAYER_UNITS}
