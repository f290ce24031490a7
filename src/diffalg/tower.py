"""Differential field towers over Q and their derivations.

A tower is a sequence of generators, each declared with an extension
kind: explicit base variables, constant parameters, primitives (with
optional log / elliptic-integral provenance tags), exponentials,
elliptic-function pairs, Lambert-style solutions of w*e^w = v, and
square roots.  Derivatives of a generator may mention earlier
generators only, so the full derivation is well defined by recursion.

Besides the full derivation D the tower offers, per generator where it
makes sense, the commuting derivation X that kills the field below, the
formal partial, and the below-the-cut derivation that annihilates a
chosen generator and its companions.  Each derivative is built as one
raw quotient and put in normal form once, modulo the square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fmt
from .errors import (CyclicDefinition, DiffAlgError, FieldMismatch,
                     InvalidDefiningData, NameClash, NotQuadratic,
                     PsiNotRealizable, UnsupportedHandle, ZeroDenominator,
                     ZeroElement)
from .poly import MultiPoly
from .ratfunc import RatFunc, RelationSet, normal_form

# --------------------------------------------------------------------------
# Extension kinds.  Payloads are stored as plain RatFuncs over the gids of
# the tower below the generator.


@dataclass(frozen=True)
class BaseVar:
    deriv: RatFunc


@dataclass(frozen=True)
class ConstParam:
    pass


@dataclass(frozen=True)
class LogTag:
    h: RatFunc


@dataclass(frozen=True)
class EllIntegralTag:
    kind: int  # 1, 2 or 3
    p: RatFunc
    q: RatFunc
    c: RatFunc | None
    a: RatFunc
    b: RatFunc


@dataclass(frozen=True)
class Primitive:
    integrand: RatFunc
    tag: object | None = None
    antiderivative: RatFunc | None = None


@dataclass(frozen=True)
class Exponential:
    v: RatFunc


@dataclass(frozen=True)
class EllipticFunction:
    v: RatFunc
    a: RatFunc
    b: RatFunc
    companion: int  # gid of the paired square root


@dataclass(frozen=True)
class LambertW:
    v: RatFunc


@dataclass(frozen=True)
class AlgebraicSqrt:
    radicand: RatFunc
    companion_of: int | None = None


_X_KINDS = (Primitive, Exponential, EllipticFunction, LambertW)


@dataclass(frozen=True)
class Generator:
    gid: int
    name: str
    kind: object


# --------------------------------------------------------------------------
# Derivation handles.


@dataclass(frozen=True)
class FullD:
    pass


@dataclass(frozen=True)
class CommutingX:
    gid: int


@dataclass(frozen=True)
class PartialD:
    gid: int


@dataclass(frozen=True)
class BelowD:
    gid: int


FULL_D = FullD()

_POISON = object()

_RF_ZERO = RatFunc.const(0)
_RF_ONE = RatFunc.const(1)


class Element:
    """A tower element kept in normal form modulo the relations."""

    __slots__ = ("tower", "rf")

    def __init__(self, tower: "Tower", rf: RatFunc):
        self.tower = tower
        self.rf = rf

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return self.rf.num.is_zero()

    def is_constant(self) -> bool:
        return self.tower.derive(FULL_D, self).is_zero()

    def used_gids(self) -> set:
        return self.rf.gens()

    def const_value(self) -> Fraction:
        if not self.rf.is_const():
            raise FieldMismatch("element is not a rational constant")
        return self.rf.const_value()

    # -- arithmetic ---------------------------------------------------

    def _pair(self, other):
        t = self.tower
        if isinstance(other, Element):
            u = other.tower
            if u is t:
                return self, other
            if len(u.generators) > len(t.generators):
                return u.coerce(self), other
            return self, t.coerce(other)
        if isinstance(other, (int, Fraction)):
            return self, t.lit(other)
        return self, NotImplemented

    def _wrap(self, num: MultiPoly, den: MultiPoly) -> "Element":
        return Element(self.tower, normal_form(num, den, self.tower.rels))

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a._wrap(a.rf.num * b.rf.den + b.rf.num * a.rf.den,
                       a.rf.den * b.rf.den)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a._wrap(a.rf.num * b.rf.den - b.rf.num * a.rf.den,
                       a.rf.den * b.rf.den)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Element(self.tower, -self.rf)

    def __mul__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a._wrap(a.rf.num * b.rf.num, a.rf.den * b.rf.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        if b.is_zero():
            raise ZeroDenominator("division by zero element")
        return a._wrap(a.rf.num * b.rf.den, a.rf.den * b.rf.num)

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return b.__truediv__(a)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero():
                raise ZeroDenominator("negative power of zero")
            return self._wrap(self.rf.den ** (-k), self.rf.num ** (-k))
        return self._wrap(self.rf.num ** k, self.rf.den ** k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Element)):
            a, b = self._pair(other)
            return a.rf == b.rf
        return NotImplemented

    def __hash__(self):
        return hash(self.rf)

    def conj(self, s) -> "Element":
        """Image under the square-root sign flip s -> -s."""
        gen = self.tower.gen_of(s)
        if not isinstance(gen.kind, AlgebraicSqrt):
            raise NotQuadratic(f"{gen.name} is not a square-root generator")
        return Element(self.tower, RatFunc(self.rf.num.conj_gen(gen.gid),
                                           self.rf.den.conj_gen(gen.gid)))

    def __str__(self) -> str:
        return fmt.format_ratfunc(self.rf, self.tower.name_of)

    def __repr__(self) -> str:
        return f"<Element {self}>"


class Tower:
    """Immutable tower of differential extensions over Q."""

    __slots__ = ("generators", "rels", "_by_name", "_by_gid", "_dtables")

    def __init__(self, generators: tuple = ()):
        self.generators = generators
        rels = RelationSet()
        for g in generators:
            if isinstance(g.kind, AlgebraicSqrt):
                rels = rels.with_relation(g.gid, g.kind.radicand)
        self.rels = rels
        self._by_name = {g.name: g for g in generators}
        self._by_gid = {g.gid: g for g in generators}
        self._dtables: dict = {}

    # -- structure ----------------------------------------------------

    @staticmethod
    def base() -> "Tower":
        return Tower(())

    def gen_of(self, key) -> Generator:
        if isinstance(key, Generator):
            return key
        if isinstance(key, int):
            try:
                return self._by_gid[key]
            except KeyError:
                raise FieldMismatch(f"no generator with id {key}") from None
        try:
            return self._by_name[key]
        except KeyError:
            raise FieldMismatch(f"no generator named {key!r}") from None

    def name_of(self, gid: int) -> str:
        return self._by_gid[gid].name

    def drop_gens(self, gids) -> "Tower":
        """Tower without the given generators (ids stay stable)."""
        kept = tuple(g for g in self.generators if g.gid not in gids)
        return Tower(kept)

    # -- element constructors ------------------------------------------

    def lit(self, q) -> Element:
        return Element(self, RatFunc.const(q))

    def zero(self) -> Element:
        return self.lit(0)

    def one(self) -> Element:
        return self.lit(1)

    def element(self, name) -> Element:
        gen = self.gen_of(name)
        return Element(self, RatFunc.var(gen.gid))

    def __getitem__(self, name) -> Element:
        return self.element(name)

    def coerce(self, value) -> Element:
        """The one way into this tower: a rational becomes a constant, and
        an element is taken only from this tower or a prefix of it, so
        elements move up into extensions and never sideways."""
        if isinstance(value, Element):
            other = value.tower
            if other is self:
                return value
            n = len(other.generators)
            if other.generators == self.generators[:n]:
                return Element(self, value.rf)
            raise FieldMismatch("element does not live in this tower")
        if isinstance(value, (int, Fraction)):
            return self.lit(value)
        raise FieldMismatch(f"cannot use {value!r} as a tower element")

    def wrap(self, rf: RatFunc) -> Element:
        """Re-normalize a raw RatFunc as an element of this tower."""
        bad = rf.gens() - set(self._by_gid)
        if bad:
            raise FieldMismatch(f"unknown generator ids {sorted(bad)}")
        return Element(self, self._nf(rf.num, rf.den))

    # -- extension ----------------------------------------------------

    def _next_gid(self) -> int:
        return max((g.gid for g in self.generators), default=-1) + 1

    def _check_name(self, name: str) -> None:
        if name in self._by_name:
            raise NameClash(f"generator {name!r} already declared")

    def _coerce_below(self, value) -> RatFunc:
        """Defining data must live strictly inside this tower."""
        if isinstance(value, RatFunc):
            rf = value
        elif isinstance(value, (int, Fraction)):
            rf = RatFunc.const(value)
        elif isinstance(value, Element):
            try:
                rf = self.coerce(value).rf
            except FieldMismatch:
                raise CyclicDefinition("defining data comes from an "
                                       "unrelated or taller tower") from None
        else:
            raise InvalidDefiningData(f"cannot use {value!r} as defining data")
        bad = rf.gens() - set(self._by_gid)
        if bad:
            raise CyclicDefinition(
                f"defining data mentions unknown generator ids {sorted(bad)}")
        return self._nf(rf.num, rf.den)

    def _append(self, *gens: Generator) -> "Tower":
        return Tower(self.generators + gens)

    def const(self, name: str) -> "Tower":
        self._check_name(name)
        return self._append(Generator(self._next_gid(), name, ConstParam()))

    def var(self, name: str, deriv=1) -> "Tower":
        self._check_name(name)
        d = self._coerce_below(deriv)
        return self._append(Generator(self._next_gid(), name, BaseVar(d)))

    def primitive(self, name: str, integrand, antiderivative=None) -> "Tower":
        self._check_name(name)
        f = self._coerce_below(integrand)
        anti = None
        if antiderivative is not None:
            anti = self._coerce_below(antiderivative)
        return self._append(Generator(self._next_gid(), name,
                                      Primitive(f, None, anti)))

    def log_ext(self, name: str, h) -> "Tower":
        self._check_name(name)
        hrf = self._coerce_below(h)
        if hrf.is_zero():
            raise InvalidDefiningData("log of zero")
        he = Element(self, hrf)
        integrand = (self.derive(FULL_D, he) / he).rf
        return self._append(Generator(self._next_gid(), name,
                                      Primitive(integrand, LogTag(hrf))))

    def exp_ext(self, name: str, v) -> "Tower":
        self._check_name(name)
        vrf = self._coerce_below(v)
        return self._append(Generator(self._next_gid(), name,
                                      Exponential(vrf)))

    def lambertw(self, name: str, v) -> "Tower":
        self._check_name(name)
        vrf = self._coerce_below(v)
        if vrf.is_zero():
            raise InvalidDefiningData("lambertw of zero")
        return self._append(Generator(self._next_gid(), name, LambertW(vrf)))

    def sqrt_ext(self, name: str, radicand) -> "Tower":
        self._check_name(name)
        r = self._coerce_below(radicand)
        if r.is_zero():
            raise InvalidDefiningData("square root of zero")
        return self._append(Generator(self._next_gid(), name,
                                      AlgebraicSqrt(r)))

    def elliptic(self, name: str, v, a, b) -> "Tower":
        """Adjoin an elliptic-function pair (theta, theta_q)."""
        self._check_name(name)
        qname = name + "_q"
        self._check_name(qname)
        vrf = self._coerce_below(v)
        arf = self._coerce_below(a)
        brf = self._coerce_below(b)
        for label, rf in (("a", arf), ("b", brf)):
            if not Element(self, rf).is_constant():
                raise InvalidDefiningData(
                    f"curve coefficient {label} must be constant")
        gid = self._next_gid()
        qgid = gid + 1
        theta = RatFunc.var(gid)
        radicand = theta ** 3 - arf * theta - brf
        return self._append(
            Generator(gid, name, EllipticFunction(vrf, arf, brf, qgid)),
            Generator(qgid, qname, AlgebraicSqrt(radicand, companion_of=gid)))

    def ellint(self, name: str, kind: int, p, q, c=None) -> "Tower":
        """Adjoin a tagged elliptic-integral primitive of kind 1, 2 or 3."""
        self._check_name(name)
        if kind not in (1, 2, 3):
            raise InvalidDefiningData("elliptic integral kind must be 1, 2, 3")
        prf = self._coerce_below(p)
        qrf = self._coerce_below(q)
        if qrf.is_zero():
            raise InvalidDefiningData("zero curve coordinate")
        crf = None
        if kind == 3:
            if c is None:
                raise InvalidDefiningData("third kind needs a pole constant")
            crf = self._coerce_below(c)
            if not Element(self, crf).is_constant():
                raise InvalidDefiningData("pole parameter must be constant")
        arf, brf = self._resolve_cubic(prf, qrf)
        pe = Element(self, prf)
        qe = Element(self, qrf)
        dp = self.derive(FULL_D, pe)
        if kind == 1:
            integrand = dp / qe
        elif kind == 2:
            integrand = pe * dp / qe
        else:
            pole = pe - Element(self, crf)
            if pole.is_zero():
                raise InvalidDefiningData("pole coincides with the argument")
            integrand = dp / (pole * qe)
        tag = EllIntegralTag(kind, prf, qrf, crf, arf, brf)
        return self._append(Generator(self._next_gid(), name,
                                      Primitive(integrand.rf, tag)))

    def _resolve_cubic(self, prf: RatFunc, qrf: RatFunc):
        """Find constants a, b with q^2 = p^3 - a*p - b, or reject."""
        # Fast path: p is an elliptic-function generator, q its companion.
        pgid = _single_var(prf)
        qgid = _single_var(qrf)
        if pgid is not None and qgid is not None:
            gen = self._by_gid.get(pgid)
            if (gen is not None and isinstance(gen.kind, EllipticFunction)
                    and gen.kind.companion == qgid):
                return gen.kind.a, gen.kind.b
        if pgid is None:
            raise InvalidDefiningData(
                "cannot recover curve constants: argument is not a generator")
        pe = Element(self, prf)
        qe = Element(self, qrf)
        e = (pe ** 3 - qe ** 2).rf  # should equal a*p + b
        if e.den.deg_in(pgid) or e.num.deg_in(pgid) > 1:
            raise InvalidDefiningData("coordinates do not satisfy a monic "
                                      "depressed cubic relation")
        groups = e.num.split_powers(pgid)
        zero = MultiPoly.zero()
        a = Element(self, self._nf(groups.get(1, zero), e.den))
        b = Element(self, self._nf(groups.get(0, zero), e.den))
        if not (a.is_constant() and b.is_constant()):
            raise InvalidDefiningData("recovered curve coefficients are not "
                                      "constant")
        return a.rf, b.rf

    # -- derivations ----------------------------------------------------

    def _dget(self, handle):
        """Memoized gid -> derivative (RatFunc) lookup for a handle."""
        memo = self._dtables.get(handle)
        if memo is not None:
            return memo["get"]

        table: dict = {}
        failed = None  # gid -> DiffAlgError, while a fill runs

        def get(gid: int) -> RatFunc:
            nonlocal failed
            val = table.get(gid)
            if val is None:
                if failed is not None and gid in failed:
                    raise failed[gid]
                # Fill the table bottom-up, in generator order, so compute
                # reads only entries already there and a deep tower needs
                # no deep recursion.  An entry that fails is computed once
                # per fill and raises only when read; the record is not
                # kept past the fill, since a failure such as
                # DegreeOverflow depends on the degree limit in force.
                outer = failed is None
                if outer:
                    failed = {}
                try:
                    for g in self._by_gid:
                        if g > gid:
                            break
                        if g not in table and g not in failed:
                            try:
                                table[g] = compute(g)
                            except DiffAlgError as exc:
                                failed[g] = exc
                    if gid in failed:
                        raise failed[gid]
                    val = table[gid]
                finally:
                    if outer:
                        failed = None
            if val is _POISON:
                raise UnsupportedHandle(
                    f"derivation undefined on generator "
                    f"{self.name_of(gid)!r}")
            return val

        def d_sqrt(gid: int, kind: AlgebraicSqrt) -> RatFunc:
            # s^2 = r gives D s = D r / (2 s).
            num, den = _diff_rf(kind.radicand, get)
            return self._nf(num, den * MultiPoly.var(gid).scale(2))

        if isinstance(handle, FullD):
            def compute(gid: int) -> RatFunc:
                kind = self._by_gid[gid].kind
                if isinstance(kind, BaseVar):
                    return kind.deriv
                if isinstance(kind, ConstParam):
                    return _RF_ZERO
                if isinstance(kind, Primitive):
                    return kind.integrand
                if isinstance(kind, Exponential):
                    num, den = _diff_rf(kind.v, get)
                    return self._nf(num * MultiPoly.var(gid), den)
                if isinstance(kind, EllipticFunction):
                    num, den = _diff_rf(kind.v, get)
                    return self._nf(num * MultiPoly.var(kind.companion), den)
                if isinstance(kind, LambertW):
                    num, den = _diff_rf(kind.v, get)
                    theta = MultiPoly.var(gid)
                    return self._nf(num * theta * kind.v.den,
                                    den * kind.v.num * (theta + MultiPoly.one()))
                if isinstance(kind, AlgebraicSqrt):
                    return d_sqrt(gid, kind)
                raise UnsupportedHandle(f"unknown kind {kind!r}")

        elif isinstance(handle, (CommutingX, PartialD)):
            # Both send theta_k to a fixed value, kill the rest of the
            # tower and follow it through the square roots above k.
            k = handle.gid
            kgen = self.gen_of(k)
            if isinstance(handle, PartialD):
                at_k = _RF_ONE
            elif not isinstance(kgen.kind, _X_KINDS):
                raise UnsupportedHandle(
                    f"no commuting derivation for generator {kgen.name!r} "
                    f"of kind {type(kgen.kind).__name__}")
            else:
                at_k = _x_image(kgen)

            def compute(gid: int) -> RatFunc:
                if gid == k:
                    return at_k
                kind = self._by_gid[gid].kind
                if gid > k and isinstance(kind, AlgebraicSqrt):
                    return d_sqrt(gid, kind)
                return _RF_ZERO

        elif isinstance(handle, BelowD):
            j = handle.gid
            self.gen_of(j)
            full = self._dget(FULL_D)

            def compute(gid: int) -> RatFunc:
                if gid == j:
                    return _RF_ZERO
                if gid < j:
                    return full(gid)
                kind = self._by_gid[gid].kind
                if isinstance(kind, ConstParam):
                    return _RF_ZERO
                if isinstance(kind, AlgebraicSqrt):
                    return d_sqrt(gid, kind)
                return _POISON

        else:
            raise UnsupportedHandle(f"unknown handle {handle!r}")

        self._dtables[handle] = {"get": get}
        return get

    def _nf(self, num: MultiPoly, den: MultiPoly) -> RatFunc:
        return normal_form(num, den, self.rels)

    def derive(self, handle, e: Element) -> Element:
        """Apply a derivation handle to an element of this tower."""
        e = self.coerce(e)
        return Element(self, self._nf(*_diff_rf(e.rf, self._dget(handle))))

    def is_constant(self, e: Element) -> bool:
        return self.derive(FULL_D, e).is_zero()

    # -- verification helpers -------------------------------------------

    def check_chain_rule(self, j, e: Element) -> bool:
        """D e = D_below e + (D theta_j) * (partial_j e)."""
        gen = self.gen_of(j)
        if isinstance(gen.kind, (AlgebraicSqrt, ConstParam)):
            raise UnsupportedHandle(
                "chain-rule cut must be at a transcendental generator")
        lhs = self.derive(FULL_D, e)
        below = self.derive(BelowD(gen.gid), e)
        dtheta = self.derive(FULL_D, self.element(gen.name))
        partial = self.derive(PartialD(gen.gid), e)
        return (lhs - below - dtheta * partial).is_zero()

    def check_lie_closed(self, k) -> "CommutationReport":
        """Residues of (D X - X D) on every generator of the tower."""
        gen = self.gen_of(k)
        handle = CommutingX(gen.gid)
        rows = []
        ok = True
        for g in self.generators:
            ge = self.element(g.name)
            res = (self.derive(FULL_D, self.derive(handle, ge))
                   - self.derive(handle, self.derive(FULL_D, ge)))
            if not res.is_zero():
                ok = False
            rows.append((g.name, res))
        return CommutationReport(tuple(rows), ok)

    def check_der_comm(self, xh, yh, p: Element, psi) -> bool:
        """X((Yp) psi(p)) - Y((Xp) psi(p)) = ([X,Y]p) psi(p)."""
        psi_p = psi.realize(self, p)
        xp = self.derive(xh, p)
        yp = self.derive(yh, p)
        lhs = (self.derive(xh, yp * psi_p) - self.derive(yh, xp * psi_p))
        bracket = self.derive(xh, yp) - self.derive(yh, xp)
        return (lhs - bracket * psi_p).is_zero()

    # -- trace and norm ---------------------------------------------------

    def _sqrt_gen(self, s) -> Generator:
        gen = self.gen_of(s)
        if not isinstance(gen.kind, AlgebraicSqrt):
            raise NotQuadratic(f"{gen.name!r} is not a square-root generator")
        return gen

    def _check_up_to(self, gen: Generator, e: Element) -> Element:
        e = self.coerce(e)
        above = {g for g in e.used_gids() if g > gen.gid}
        if above:
            names = ", ".join(self.name_of(g) for g in sorted(above))
            raise FieldMismatch(
                f"element mentions generators above {gen.name!r}: {names}")
        return e

    def trace(self, s, e: Element) -> Element:
        """e plus its conjugate under s -> -s."""
        gen = self._sqrt_gen(s)
        e = self._check_up_to(gen, e)
        return e + e.conj(gen.gid)

    def norm(self, s, e: Element) -> Element:
        """e times its conjugate under s -> -s."""
        gen = self._sqrt_gen(s)
        e = self._check_up_to(gen, e)
        return e * e.conj(gen.gid)

    def check_lognorm(self, s, e: Element) -> bool:
        """D(Norm e)/Norm e = Tr(D e / e)."""
        gen = self._sqrt_gen(s)
        e = self._check_up_to(gen, e)
        if e.is_zero():
            raise ZeroElement("log-derivative of zero")
        n = self.norm(gen, e)
        lhs = self.derive(FULL_D, n) / n
        rhs = self.trace(gen, self.derive(FULL_D, e) / e)
        return (lhs - rhs).is_zero()


@dataclass(frozen=True)
class CommutationReport:
    residues: tuple  # (generator name, Element)
    passed: bool


# --------------------------------------------------------------------------
# Weight functions for the commuting-derivation lemma.


@dataclass(frozen=True)
class PsiRational:
    """psi(u) = (sum n_i u^i) / (sum d_i u^i) with constant coefficients."""

    num: tuple
    den: tuple

    def realize(self, tower: Tower, p: Element) -> Element:
        num = _eval_poly1(tower, self.num, p)
        den = _eval_poly1(tower, self.den, p)
        if den.is_zero():
            raise ZeroDenominator("weight denominator vanishes at p")
        return num / den


@dataclass(frozen=True)
class PsiSqrtCubic:
    """psi(u) = 1/sqrt(u^3 - a*u - b), realized through a tower element."""

    a: object
    b: object
    q: Element

    def realize(self, tower: Tower, p: Element) -> Element:
        rel = self.q * self.q - (p ** 3 - p * self.a - self.b)
        if not rel.is_zero():
            raise PsiNotRealizable(
                "q^2 = p^3 - a*p - b does not hold in the tower")
        return tower.one() / self.q


def _eval_poly1(tower: Tower, coeffs, p: Element) -> Element:
    total = tower.zero()
    for c in reversed(tuple(coeffs)):
        if isinstance(c, Element) and not c.is_constant():
            raise InvalidDefiningData("weight coefficients must be constant")
        total = total * p + c
    return total


# --------------------------------------------------------------------------
# Shared differentiation core.


def _diff_poly(p: MultiPoly, get):
    """D p = sum of partial_g(p) * D g, as a raw (num, den) pair."""
    num, den = MultiPoly.zero(), MultiPoly.one()
    for gid in sorted(p.gens()):
        dg = get(gid)
        if dg.is_zero():
            continue
        num = num * dg.den + p.partial(gid) * dg.num * den
        den = den * dg.den
    return num, den


def _diff_rf(rf: RatFunc, get):
    """D(num/den) as a raw (num, den) pair: one quotient rule on the raw
    derivatives of the numerator and the (monic) denominator."""
    dn, dd = _diff_poly(rf.num, get)
    if rf.den.is_const():
        return dn, dd
    en, ed = _diff_poly(rf.den, get)
    return dn * ed * rf.den - rf.num * en * dd, dd * ed * rf.den * rf.den


def _x_image(gen: Generator) -> RatFunc:
    """X theta for the commuting derivation at an X-kind generator."""
    kind = gen.kind
    if isinstance(kind, Primitive):
        return _RF_ONE
    if isinstance(kind, Exponential):
        return RatFunc.var(gen.gid)
    if isinstance(kind, EllipticFunction):
        return RatFunc.var(kind.companion)
    theta = MultiPoly.var(gen.gid)
    return RatFunc(theta, theta + MultiPoly.one())  # coprime, monic


def _single_var(rf: RatFunc):
    """gid when rf is exactly one generator, else None."""
    gids = rf.gens()
    if len(gids) != 1:
        return None
    gid, = gids
    return gid if rf == RatFunc.var(gid) else None
