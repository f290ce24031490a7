"""Count and SHA-256 of the CLI replies on the benchmark's documents.

    python3 tools/reply_digests.py
    python3 tools/reply_digests.py --check tools/reply_digests.expected

The engine is imported from ``src/`` and the documents from
``perfbench/workloads.py``, which is only read, both beside this file.
Each line names one set of replies, how many it holds and the SHA-256
of all of them in order.  A reply is the exit code, standard output and
standard error of one in-process ``cli.main`` call, as text and again
with ``--json``, whose report drops ``timing_ms``, the one field that
varies from run to run.  The sets are the ``cli_roundtrip`` documents
of seeds 1-3, ``abel --kind K`` for every kind, and the printed form of
the ``l3_pushdown`` reduction step.  A change that claims to keep every
reply byte-identical shows the same lines as its parent.

With ``--check FILE`` the lines are compared with FILE, and any
difference is printed and makes the exit status 1.  The checked-in
``reply_digests.expected`` holds the lines of the current engine; a
change that alters a reply on purpose rewrites it and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def reply(argv: list, as_json: bool, workdir: str) -> str:
    """One call's exit code, stdout and stderr, the work directory's path
    replaced so that the reply does not depend on where it ran."""
    from diffalg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--json"] if as_json else argv)
    text = out.getvalue()
    if as_json and text:
        rep = json.loads(text)
        rep.pop("timing_ms", None)
        text = json.dumps(rep, sort_keys=True) + "\n"
    return f"{rc}\n{text}\0{err.getvalue()}".replace(workdir, "<dir>")


def cli_argvs(seed: int, workdir: str) -> list:
    """The argv of every cli_roundtrip op of one seed's pass, in order."""
    import workloads

    seen = []
    ops = workloads._cli_ops(seed, workdir)
    run_cli = workloads.run_cli
    workloads.run_cli = seen.append
    try:
        for op in ops:
            op.run()
    finally:
        workloads.run_cli = run_cli
    return seen


def l3_form_text() -> str:
    import workloads
    from diffalg.dsl import print_form
    from diffalg.liouville import reduce

    t, f, form = workloads._l3_inputs()
    return "".join(print_form(step.form) + "\0" for step in reduce(t, f, form))


def digest(name: str, replies: list) -> str:
    h = hashlib.sha256()
    for r in replies:
        h.update(r.encode())
        h.update(b"\x1e")
    return f"{name}: {len(replies)} replies, sha256 {h.hexdigest()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Count and SHA-256 of the CLI "
                                 "replies on the benchmark's documents.")
    ap.add_argument("--check", metavar="FILE",
                    help="compare with FILE and exit 1 on any difference")
    args = ap.parse_args(argv)
    want = None
    if args.check is not None:
        with open(args.check) as fh:
            want = fh.read().splitlines()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from diffalg.curves import ABEL_KINDS

    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            argvs = cli_argvs(seed, workdir)
            for as_json, label in ((False, "text"), (True, "json")):
                lines.append(digest(
                    f"cli_roundtrip seed {seed} {label}",
                    [reply(a, as_json, workdir) for a in argvs]))
        abel = [["abel", "--kind", k] for k in ABEL_KINDS]
        for as_json, label in ((False, "text"), (True, "json")):
            lines.append(digest(f"abel {label}",
                                [reply(a, as_json, workdir) for a in abel]))
    lines.append(digest("l3_pushdown print_form", [l3_form_text()]))
    print("\n".join(lines))
    if want is None:
        return 0
    diff = list(difflib.unified_diff(want, lines, args.check, "this run",
                                     lineterm=""))
    print("\n".join(diff) if diff else f"same as {args.check}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
