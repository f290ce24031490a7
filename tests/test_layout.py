"""Only poly.py and the printer read the packed monomial layout: no other
module of src/diffalg imports the layout's names from poly, so each reads
a polynomial through the MultiPoly API alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diffalg"
LAYOUT = {"W", "_FIELD", "_guards", "_union", "mono_items", "mono_key"}
READERS = {"poly.py", "fmt.py"}


def layout_uses(tree) -> list:
    """(line, name) for each layout name imported from poly, and for each
    read of one as an attribute of the poly module."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for a in node.names if a.name == "poly"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] == "poly"):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in LAYOUT]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr in LAYOUT):
            found.append((node.lineno, node.attr))
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name not in READERS),
                         ids=lambda p: p.name)
def test_only_poly_and_the_printer_read_monomials(path):
    assert layout_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_each_import_form():
    tree = ast.parse("from .poly import MultiPoly, W, _union\n"
                     "from diffalg.poly import mono_key\n"
                     "from . import poly as p\n"
                     "x = p._FIELD + p.poly_gcd(1, 2) + p.MultiPoly\n"
                     "y = p._guards(3)\n")
    assert sorted(name for _, name in layout_uses(tree)) == sorted([
        "W", "_union", "mono_key", "_FIELD", "_guards"])
