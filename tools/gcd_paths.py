"""How each top-level ``poly_gcd`` of one seed-1 pass of each workload was
decided, and how many certificate images it took.

    python3 tools/gcd_paths.py

The engine is imported from ``src/`` and the workloads from
``perfbench/workloads.py``, which is only read, both beside this file.
Each pass runs with a few functions of ``diffalg.poly`` wrapped, and a
top-level gcd (one call of ``poly_gcd``, from any module) is put on the
first path that decided it, as its outermost ``_igcd`` saw it:

* one-term operand: neither operand is zero and one has one term, a
  constant included, so ``_igcd`` took the gcd as the monomial of least
  exponents times the integer gcd of the contents, in one scan;
* no shared generator: ``_igcd`` never ran the certificate, because an
  operand is zero or the two share no generator;
* one-sided stop rule: the certificate proved the gcd an integer before
  it took any image;
* certificate images: the certificate proved it from modular images;
* trial division: the certificate missed and the gcd was found without
  GCDHEU, by dividing the larger operand by the smaller's primitive part;
* GCDHEU: the heuristic gcd found it;
* PRS: GCDHEU gave up and the pseudo-remainder sequence found it.

A column counts the top-level gcds on that path, and in brackets the
certificate images (``_eval_uni_mod`` calls) they took in all, nested
gcds included.  ``GCDHEU calls`` counts every call of ``_heu_gcd``, its
recursion on the evaluated images and nested gcds included, and
``kernel pairs`` the term pairs of every product of the multiply kernel
``_dict_mul``, the gcd code's included.  The lazy zero test clears its
parts over a division basis of their denominator factors
(``diffalg.ratfunc._division_basis``), which runs no gcd: it splits two
factors only where one divides the other exactly.  ``basis divisions``
counts its exact-division tries (``poly_divexact`` calls made inside it)
and ``basis splits`` the tries that divided.  A normal form whose
numerator holds a relation generator takes its gcd over the numerator's
coefficients in those generators (``diffalg.ratfunc._gcd_over``), one
top-level gcd per coefficient folded in; ``split normal forms`` counts
those normal forms.  Before its gcd, a normal form divides the tower's
radicand factors out of its numerator and denominator
(``diffalg.ratfunc.divide_out``); ``radicand factors`` counts the factor
divisions that took a factor out of both (``_divide_both`` calls that
divided), one per power taken out.  Every count is deterministic.
The table is Markdown, so it can go to a CI step summary as it is.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATHS = ("one-term operand", "no shared generator", "one-sided stop rule",
         "certificate images", "trial division", "GCDHEU", "PRS")
_UNSET = object()


def _rebind(orig, wrapper, undo: list) -> None:
    """Bind wrapper wherever a diffalg module binds orig."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "diffalg"
                               or name.startswith("diffalg.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                undo.append((mod, key, orig))
                setattr(mod, key, wrapper)


def count_paths(run) -> dict:
    """Call run() with the gcd code wrapped; return PATHS -> [gcds,
    images], "GCDHEU calls", "kernel pairs", "basis divisions",
    "basis splits", "split normal forms" and "radicand factors"."""
    from diffalg import poly, ratfunc

    tally = {path: [0, 0] for path in PATHS}
    extra = Counter(dict.fromkeys(("GCDHEU calls", "kernel pairs",
                                  "basis divisions", "basis splits",
                                  "split normal forms", "radicand factors"),
                                 0))
    state = {"depth": 0, "heu_depth": 0, "images": 0, "basis": 0}
    orig = {name: getattr(poly, name) for name in (
        "poly_gcd", "_igcd", "_certify_coprime", "_eval_uni_mod",
        "_heu_gcd", "_dict_mul", "poly_divexact")}
    orig["_division_basis"] = ratfunc._division_basis
    orig["_gcd_over"] = ratfunc._gcd_over
    orig["_divide_both"] = ratfunc._divide_both

    def gcd(p, q):
        state.update(one_term=False, cert=_UNSET, heu=_UNSET, images=0)
        result = orig["poly_gcd"](p, q)
        if state["one_term"]:
            path = "one-term operand"
        elif state["cert"] is _UNSET:
            path = "no shared generator"
        elif state["cert"]:
            path = ("certificate images" if state["cert_images"]
                    else "one-sided stop rule")
        elif state["heu"] is _UNSET:
            path = "trial division"
        else:
            path = "PRS" if state["heu"] is None else "GCDHEU"
        tally[path][0] += 1
        tally[path][1] += state["images"]
        return result

    def igcd(p, q):
        if not state["depth"]:
            state["one_term"] = min(len(p), len(q)) == 1
        state["depth"] += 1
        try:
            return orig["_igcd"](p, q)
        finally:
            state["depth"] -= 1

    def certify(*args):
        hit = orig["_certify_coprime"](*args)
        if state["depth"] == 1:
            state["cert"], state["cert_images"] = hit, state["images"]
        return hit

    def image(*args):
        state["images"] += 1
        return orig["_eval_uni_mod"](*args)

    def heu(f, g):
        outer = not state["heu_depth"]
        extra["GCDHEU calls"] += 1
        state["heu_depth"] += 1
        try:
            result = orig["_heu_gcd"](f, g)
        finally:
            state["heu_depth"] -= 1
        if outer and state["depth"] == 1:
            state["heu"] = result
        return result

    def mul(a, b, deg):
        extra["kernel pairs"] += len(a) * len(b)
        return orig["_dict_mul"](a, b, deg)

    def basis(factors):
        state["basis"] += 1
        try:
            return orig["_division_basis"](factors)
        finally:
            state["basis"] -= 1

    def divexact(p, q):
        quot = orig["poly_divexact"](p, q)
        if state["basis"]:
            extra["basis divisions"] += 1
            extra["basis splits"] += quot is not None
        return quot

    def gcd_over(num, den, gids):
        extra["split normal forms"] += num.holds(gids)
        return orig["_gcd_over"](num, den, gids)

    def divide_both(*args):
        quots = orig["_divide_both"](*args)
        extra["radicand factors"] += quots is not None
        return quots

    wrappers = {"poly_gcd": gcd, "_igcd": igcd, "_certify_coprime": certify,
                "_eval_uni_mod": image, "_heu_gcd": heu, "_dict_mul": mul,
                "_division_basis": basis, "poly_divexact": divexact,
                "_gcd_over": gcd_over, "_divide_both": divide_both}
    undo: list = []
    try:
        for name, wrapper in wrappers.items():
            _rebind(orig[name], wrapper, undo)
        run()
    finally:
        for mod, key, val in reversed(undo):
            setattr(mod, key, val)
    return {**tally, **extra}


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    head = ["workload", "gcds", *PATHS, "images", "GCDHEU calls",
            "kernel pairs", "basis divisions", "basis splits",
            "split normal forms", "radicand factors"]
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.NAMES:
            ops = workloads.build(name, 1, workdir).ops

            def one_pass():
                for op in ops:
                    op.run()

            got = count_paths(one_pass)
            cells = [f"{got[p][0]} ({got[p][1]})" for p in PATHS]
            print(f"| {name} | {sum(got[p][0] for p in PATHS)} | "
                  + " | ".join(cells)
                  + f" | {sum(got[p][1] for p in PATHS)}"
                  f" | {got['GCDHEU calls']} | {got['kernel pairs']}"
                  f" | {got['basis divisions']} | {got['basis splits']}"
                  f" | {got['split normal forms']}"
                  f" | {got['radicand factors']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
