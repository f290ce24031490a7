"""The two curve models and the phi terms, each defined once.

A Liouville form D(v0) + sum c_i phi(D v_i, v_i) sums shapes phi(w, v):
the logarithmic derivative w/v and six elliptic integrands, three kinds
on the Weierstrass cubic and three on the Legendre quartic.  A curve
class states its model's equation, constant coefficients and
nonsingularity, and every curve term, ellfun generator and Abel
identity reads its curve from it, so a degenerate curve is refused where
it enters.  A term uses tower elements only through their arithmetic,
so this module sits below the tower.  Forms hold terms, curves.py builds
each term's lazy part from phi_shape, and the tower tags a log or
elliptic-integral primitive with the term it integrates,
D theta = phi(D v, v).  check_term is the one check of a term, for a
form's terms and the tags alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDefiningData, ZeroDenominator
from .poly import MultiPoly
from .ratfunc import rationalize


@dataclass(frozen=True)
class CurvePoint:
    x: Element | None
    y: Element | None
    at_infinity: bool = False

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(None, None, True)


class LegendreCurve:
    """y^2 = (1 - x^2)(1 - m x^2) for a constant m other than 0 and 1;
    identity element (0, 1)."""

    __slots__ = ("m",)

    def __init__(self, m: Element):
        if not m.is_constant():
            raise InvalidDefiningData("modulus m not constant")
        if m == 0 or m == 1:
            raise InvalidDefiningData(f"modulus m = {m} is degenerate")
        self.m = m

    def rhs(self, x: Element) -> Element:
        return (1 - x ** 2) * (1 - self.m * x ** 2)

    def contains(self, p: CurvePoint) -> bool:
        if p.at_infinity:
            return False
        return p.y * p.y == self.rhs(p.x)


class WeierstrassCurve:
    """y^2 = x^3 - a*x - b for constants a, b with 4a^3 - 27b^2 != 0;
    identity element at infinity."""

    __slots__ = ("a", "b")

    def __init__(self, a: Element, b: Element):
        for name, e in (("a", a), ("b", b)):
            if not e.is_constant():
                raise InvalidDefiningData(
                    f"curve parameter {name} not constant")
        if (4 * a ** 3 - 27 * b ** 2).is_zero():
            raise InvalidDefiningData("singular cubic: 4a^3 - 27b^2 = 0")
        self.a = a
        self.b = b

    def rhs(self, x: Element) -> Element:
        return x ** 3 - self.a * x - self.b

    def contains(self, p: CurvePoint) -> bool:
        if p.at_infinity:
            return True
        return p.y * p.y == self.rhs(p.x)


@dataclass(frozen=True)
class ThirdKindParam:
    """Pole data for third-kind integrands: constant a and
    delta = sqrt((1-a^2)(1-m*a^2)) realized in the tower."""

    a: Element
    delta: Element

    def validate(self, m: Element) -> None:
        if not LegendreCurve(m).contains(CurvePoint(self.a, self.delta)):
            raise InvalidDefiningData(
                "delta^2 = (1-a^2)(1-m a^2) fails in the tower")


@dataclass(frozen=True)
class LogPhi:
    """phi(w, v) = w/v."""

    v: Element

    def validate(self) -> None:
        if self.v.is_zero():
            raise InvalidDefiningData("log argument is zero")


@dataclass(frozen=True)
class WPhi:
    """Weierstrass integrands on q^2 = v^3 - a v - b.

    kind 1: w/q; kind 2: v*w/q; kind 3: w/((v-c)q)."""

    kind: int
    v: Element
    q: Element
    a: Element
    b: Element
    c: Element | None = None

    def validate(self) -> None:
        if self.kind not in (1, 2, 3):
            raise InvalidDefiningData(f"W-kind {self.kind} out of range")
        if not WeierstrassCurve(self.a, self.b).contains(
                CurvePoint(self.v, self.q)):
            raise InvalidDefiningData("q^2 = v^3 - a v - b fails")
        if self.kind == 3:
            if self.c is None:
                raise InvalidDefiningData("third kind needs a pole c")
            if not self.c.is_constant():
                raise InvalidDefiningData("pole c not constant")
        elif self.c is not None:
            raise InvalidDefiningData("pole c only belongs to the third kind")


@dataclass(frozen=True)
class LPhi:
    """Legendre integrands on y^2 = (1-v^2)(1-m v^2).

    kind 1: w/y; kind 2: (1-m v^2)w/y; kind 3: w/((1-v^2/a^2)y)."""

    kind: int
    v: Element
    y: Element
    m: Element
    prm: ThirdKindParam | None = None

    def validate(self) -> None:
        if self.kind not in (1, 2, 3):
            raise InvalidDefiningData(f"L-kind {self.kind} out of range")
        if not LegendreCurve(self.m).contains(CurvePoint(self.v, self.y)):
            raise InvalidDefiningData("y^2 = (1-v^2)(1-m v^2) fails")
        if self.kind == 3:
            if self.prm is None:
                raise InvalidDefiningData("third kind needs pole data")
            if not self.prm.a.is_constant():
                raise InvalidDefiningData("pole a not constant")
            self.prm.validate(self.m)
        elif self.prm is not None:
            raise InvalidDefiningData("pole data only belongs to the third kind")


PhiTerm = LogPhi | WPhi | LPhi

# The one phi-term layout: each kind's document name and the elements it
# takes, in order.  The parser and the printer read and write terms only
# through term_args and make_term; the reducer moves and scans a term's
# elements through them.
TERM_KINDS = {
    "log": "one argument",
    "w1": "v, q, a, b", "w2": "v, q, a, b", "w3": "v, q, a, b, c",
    "l1": "v, y, m", "l2": "v, y, m", "l3": "v, y, m, a, delta",
}


def term_args(term: PhiTerm) -> tuple:
    """(name, elements): the term's document name and its elements in
    the order of TERM_KINDS; the inverse of make_term."""
    if isinstance(term, LogPhi):
        return "log", [term.v]
    if isinstance(term, WPhi):
        pole = [] if term.c is None else [term.c]
        return f"w{term.kind}", [term.v, term.q, term.a, term.b] + pole
    pole = [] if term.prm is None else [term.prm.a, term.prm.delta]
    return f"l{term.kind}", [term.v, term.y, term.m] + pole


def make_term(name: str, elements) -> PhiTerm:
    """The term that term_args reads back as (name, elements).  The pole
    data follows the elements given, so validate judges the kind."""
    if name == "log":
        return LogPhi(*elements)
    if name[0] == "w":
        return WPhi(int(name[1:]), *elements)
    v, y, m, *pole = elements
    return LPhi(int(name[1:]), v, y, m, ThirdKindParam(*pole) if pole else None)


def phi_shape(term: PhiTerm) -> tuple:
    """(factors, divisors) with phi(w, v) = w * prod(factors) /
    prod(divisors): the one list of what each shape divides by."""
    if isinstance(term, LogPhi):
        return [], [term.v]
    if isinstance(term, WPhi):
        if term.kind == 3:
            return [], [term.v - term.c, term.q]
        return [term.v] * (term.kind - 1), [term.q]
    if term.kind == 3:
        a = term.prm.a
        return [], [1 - term.v ** 2 / (a * a), term.y]
    return ([1 - term.m * term.v ** 2] if term.kind == 2 else []), [term.y]


def check_term(term: PhiTerm, rels: dict) -> None:
    """Validate the term, then raise ZeroDenominator if it divides by 0 or
    by a zero divisor modulo the square-root relations rels.  A canonical
    denominator holds no relation generator, so each divisor's numerator
    is what to check."""
    term.validate()
    for d in phi_shape(term)[1]:
        if d.rf.num.is_zero():
            raise ZeroDenominator("division by zero element")
        if not d.rf.num.gens().isdisjoint(rels):
            rationalize(MultiPoly.one(), d.rf.num, rels)
