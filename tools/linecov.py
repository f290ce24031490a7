"""Lines of src/diffalg that no test runs: a pytest plugin and a report.

    PYTHONPATH=src:tools python -m pytest -q -p linecov
    python3 tools/linecov.py --report

As a plugin, it installs a ``sys.settrace`` line tracer on the modules
of ``src/diffalg`` at each test's setup, call and teardown, since
hypothesis resets the trace function, and at session end writes
``linecov.json`` in the current directory: for each module, the SHA-256
of its source at session start and the sorted list of its executed
lines, and under ``tracer_dropped`` the node id of each test whose call
ended without the tracer installed.  The interpreter drops a trace
function that raises, as it does at a ``RecursionError`` raised inside
it, so the lines such a test ran after the drop are not recorded.
Frames of any other file are not traced.  The traced suite runs several
times slower than the plain one.

``--report [FILE]`` reads that file (``linecov.json`` by default) and
prints the statement lines of function bodies, docstrings excluded,
that ran in no test: first their count, then one ``path:line: source``
line each.  A statement counts when its first line holds bytecode, so
``global`` and the like are left out.  Module and class bodies run at
import and are not listed.  A module whose source no longer has the
recorded hash has changed since the traced run, so its line numbers no
longer hold: the report names it instead of listing its lines.  It then
names the tests that dropped the tracer: a listed line may have run in
one of them after the drop, so it is unknown, not unreached.  The
report always exits 0; it informs and gates nothing.
"""

from __future__ import annotations

import argparse
import ast
import glob
import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "diffalg")
OUT = "linecov.json"
DROPPED = "tracer_dropped"


def _modules() -> dict:
    """Real path -> repository-relative path of each src/diffalg module."""
    return {os.path.realpath(p): os.path.relpath(p, ROOT)
            for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# -- plugin -------------------------------------------------------------------

_MODULES = _modules()
_seen: dict = {}   # relative path -> set of executed lines
_digests: dict = {}  # relative path -> SHA-256 of the source traced
_names: dict = {}  # co_filename -> relative path, or None when not watched
_dropped: list = []  # node ids of the tests that ended without the tracer


def _watched(filename: str):
    try:
        return _names[filename]
    except KeyError:
        rel = _names[filename] = _MODULES.get(os.path.realpath(filename))
        return rel


def _trace(frame, event, arg):
    rel = _watched(frame.f_code.co_filename)
    if rel is None:
        return None
    lines = _seen.setdefault(rel, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local(frame, event, arg)


def pytest_sessionstart(session):
    _digests.update({rel: _digest(real) for real, rel in _MODULES.items()})


def pytest_runtest_setup(item):
    sys.settrace(_trace)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sys.settrace(_trace)
    yield
    if sys.gettrace() is not _trace:
        _dropped.append(item.nodeid)


def pytest_runtest_teardown(item):
    sys.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    with open(OUT, "w") as f:
        json.dump({**{rel: {"sha256": digest,
                            "lines": sorted(_seen.get(rel, ()))}
                      for rel, digest in _digests.items()},
                   DROPPED: _dropped}, f)


# -- report -------------------------------------------------------------------


def _code_lines(code) -> set:
    """Lines that hold bytecode in code and the code objects it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def body_lines(path: str) -> set:
    """First lines of the statements in function bodies, docstrings out."""
    with open(path) as f:
        text = f.read()
    tree = ast.parse(text)
    lines, docs = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(fn, clean=False) is not None:
            docs.add(fn.body[0].lineno)
        lines.update(node.lineno for stmt in fn.body
                     for node in ast.walk(stmt) if isinstance(node, ast.stmt))
    return (lines - docs) & _code_lines(compile(text, path, "exec"))


def report(executed: dict) -> tuple:
    """(missed, changed): (relative path, line, source) of each body line
    never executed, and the relative path of each module whose source
    does not have the hash recorded beside its lines."""
    missed, changed = [], []
    for real, rel in _MODULES.items():
        entry = executed.get(rel)
        if not isinstance(entry, dict) or entry["sha256"] != _digest(real):
            changed.append(rel)
            continue
        with open(real) as f:
            source = f.read().splitlines()
        missed += [(rel, n, source[n - 1].strip())
                   for n in sorted(body_lines(real) - set(entry["lines"]))]
    return missed, changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="List the lines of src/diffalg "
                                 "that a traced test run did not execute.")
    ap.add_argument("--report", nargs="?", const=OUT, required=True,
                    metavar="FILE",
                    help=f"read FILE (default {OUT}) and list the lines")
    args = ap.parse_args(argv)
    with open(args.report) as f:
        executed = json.load(f)
    missed, changed = report(executed)
    dropped = executed.get(DROPPED, [])
    skipped = (f"; {len(changed)} modules changed since the traced run are "
               f"not counted" if changed else "")
    print(f"{len(missed)} statement lines of function bodies in src/diffalg "
          f"ran in no test{skipped}")
    for rel in changed:
        print(f"{rel}: changed since the traced run; its lines are not "
              f"listed")
    for rel, n, text in missed:
        print(f"{rel}:{n}: {text}")
    if dropped:
        print(f"{len(dropped)} tests dropped the tracer; the lines they ran "
              f"after the drop are unknown, not unreached:")
    for nodeid in dropped:
        print(f"  {nodeid}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
