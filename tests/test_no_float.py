"""The engine computes over Q alone: no float or complex value is formed
in src/diffalg.  The one float by design is the timing that cli.py reads
off time.monotonic, which no rule here refuses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diffalg"
EXACT_MATH = {"isqrt", "gcd", "lcm", "prod"}


def float_uses(tree) -> list:
    """(line, what) for each float or complex literal, each call of float
    or complex, and each math or cmath name other than the exact ones."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name in ("math", "cmath")}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"{node.func.id}()"))
        elif (isinstance(node, ast.ImportFrom)
              and node.module in ("math", "cmath")):
            found += [(node.lineno, f"{node.module}.{a.name}")
                      for a in node.names if a.name not in EXACT_MATH]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr not in EXACT_MATH):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_float_in_the_engine(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_gate_sees_each_float_form():
    tree = ast.parse("import math\n"
                     "import cmath as c\n"
                     "from math import sqrt, gcd\n"
                     "x = 0.5 + 2j + float(1) + complex(1) + math.pi\n"
                     "y = math.isqrt(4) + math.prod([2]) + c.phase(1)\n")
    assert sorted(w for _, w in float_uses(tree)) == sorted([
        "math.sqrt", "0.5", "2j", "float()", "complex()", "math.pi",
        "c.phase"])
