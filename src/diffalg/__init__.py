"""Exact differential algebra: towers, derivations, elliptic identities,
and Liouville-form verification and reduction."""

from .curves import (CurvePoint, LegendreCurve, ThirdKindParam,
                     WeierstrassCurve, check_abel_identity, legendre_add,
                     weierstrass_add)
from .dsl import (TowerDoc, parse_expr, parse_form, parse_tower, print_form,
                  print_tower)
from .errors import DiffAlgError
from .liouville import (LiouvilleForm, LogPhi, LPhi, ReductionStep, WPhi,
                        form_derivative, reduce, verify_liouville, x_constant)
from .poly import MultiPoly, poly_gcd, set_degree_limit
from .ratfunc import RatFunc, normal_form, ratfunc_normalize
from .tower import CommutingX, Element, FullD, FULL_D, PartialD, Tower

__version__ = "0.1.0"

__all__ = [
    "CommutingX", "CurvePoint", "DiffAlgError", "Element", "FullD", "FULL_D",
    "LegendreCurve", "LiouvilleForm", "LogPhi", "LPhi", "MultiPoly",
    "PartialD", "RatFunc", "ReductionStep", "ThirdKindParam", "Tower",
    "TowerDoc", "WPhi",
    "WeierstrassCurve", "check_abel_identity", "form_derivative",
    "legendre_add", "normal_form", "parse_expr", "parse_form", "parse_tower",
    "poly_gcd", "print_form", "print_tower", "ratfunc_normalize", "reduce",
    "set_degree_limit", "verify_liouville", "weierstrass_add", "x_constant",
    "__version__",
]
