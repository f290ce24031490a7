"""Lines of src/diffalg that no test runs: a pytest plugin and a report.

    PYTHONPATH=src:tools python -m pytest -q -p linecov
    python3 tools/linecov.py --report

As a plugin, it installs a ``sys.settrace`` line tracer on the modules
of ``src/diffalg`` at each test's setup, call and teardown, since
hypothesis resets the trace function, and at session end writes the
executed lines to ``linecov.json`` in the current directory, one sorted
list per module.  Frames of any other file are not traced.  The traced
suite runs several times slower than the plain one.

``--report [FILE]`` reads that file (``linecov.json`` by default) and
prints the statement lines of function bodies, docstrings excluded,
that ran in no test: first their count, then one ``path:line: source``
line each.  A statement counts when its first line holds bytecode, so
``global`` and the like are left out.  Module and class bodies run at
import and are not listed.  The report always exits 0; it informs and
gates nothing.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "diffalg")
OUT = "linecov.json"


def _modules() -> dict:
    """Real path -> repository-relative path of each src/diffalg module."""
    return {os.path.realpath(p): os.path.relpath(p, ROOT)
            for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}


# -- plugin -------------------------------------------------------------------

_MODULES = _modules()
_seen: dict = {}   # relative path -> set of executed lines
_names: dict = {}  # co_filename -> relative path, or None when not watched


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


def pytest_runtest_setup(item):
    sys.settrace(_trace)


def pytest_runtest_call(item):
    sys.settrace(_trace)


def pytest_runtest_teardown(item):
    sys.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    with open(OUT, "w") as f:
        json.dump({rel: sorted(lines) for rel, lines in sorted(_seen.items())},
                  f)


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


def report(executed: dict) -> list:
    """(relative path, line, source) of each body line never executed."""
    out = []
    for real, rel in _MODULES.items():
        with open(real) as f:
            source = f.read().splitlines()
        ran = set(executed.get(rel, ()))
        out += [(rel, n, source[n - 1].strip())
                for n in sorted(body_lines(real) - ran)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="List the lines of src/diffalg "
                                 "that a traced test run did not execute.")
    ap.add_argument("--report", nargs="?", const=OUT, required=True,
                    metavar="FILE",
                    help=f"read FILE (default {OUT}) and list the lines")
    args = ap.parse_args(argv)
    with open(args.report) as f:
        missed = report(json.load(f))
    print(f"{len(missed)} statement lines of function bodies in src/diffalg "
          f"ran in no test")
    for rel, n, text in missed:
        print(f"{rel}:{n}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
