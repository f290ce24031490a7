"""Differential field towers over Q and their derivations.

A tower is a sequence of generators, each declared with an extension
kind: explicit base variables, constant parameters, primitives (log and
elliptic-integral ones tagged with the phi term they integrate),
exponentials, elliptic-function pairs, Lambert-style solutions of
w*e^w = v, and square roots.  A generator's derivative may mention only
earlier ones, so each derivation is defined generator by generator.
Every constructor ends in Tower._adjoin, which refuses a taken name and
a Lambert W or elliptic function declared twice.

Besides the full derivation D the tower offers, per generator where it
makes sense, the commuting derivation X that kills the field below and
the formal partial.  Each handle reads one memoized table of generator
derivatives, filled bottom-up by one rule: a square root s of r gets
h(s) = h(r)/(2s) under every handle h, and any other generator takes the
handle's image.  On an X-kind generator theta, D = D_below + w X, where
D_below is D on the field below theta and kills theta, so D theta =
w * X theta reads X's image.  A table serves one degree limit and keeps
each failed entry's error.  Each derivative is built as one raw quotient
and put in normal form once, modulo the square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from . import fmt
from .errors import (CyclicDefinition, DiffAlgError, FieldMismatch,
                     InvalidDefiningData, NameClash, NotQuadratic,
                     UnsupportedHandle, ZeroElement)
from .phi import LogPhi, WeierstrassCurve, WPhi, check_term, phi_shape
from .poly import MultiPoly, get_degree_limit
from .ratfunc import RatFunc, normal_form, quotient, reduce_powers

# --------------------------------------------------------------------------
# Extension kinds.  A payload is the Element that Tower.coerce made of
# the defining data, in the tower below the generator; a reduction moves
# it down into a smaller tower by coerce.


@dataclass(frozen=True)
class BaseVar:
    deriv: Element


@dataclass(frozen=True)
class ConstParam:
    pass


@dataclass(frozen=True)
class Primitive:
    integrand: Element
    tag: LogPhi | WPhi | None = None  # the phi term integrated, if any
    antiderivative: Element | None = None


@dataclass(frozen=True)
class Exponential:
    v: Element


@dataclass(frozen=True)
class EllipticFunction:
    v: Element
    a: Element
    b: Element
    companion: int  # gid of the paired square root


@dataclass(frozen=True)
class LambertW:
    v: Element


@dataclass(frozen=True)
class AlgebraicSqrt:
    radicand: Element
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


FULL_D = FullD()

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
        # D e = 0 exactly when its raw numerator power-reduces to 0, as the
        # raw denominator is free of relation generators: no normal form
        t = self.tower
        num, den = _diff_rf(self.rf, t._dget(FULL_D))
        return reduce_powers(num, den, t.rels)[0].is_zero()

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

    def _apply(self, op: str, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a._wrap(*quotient(op, a.rf, b.rf))

    def __add__(self, other):
        return self._apply("+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply("-", other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Element(self.tower, RatFunc(-self.rf.num, self.rf.den))

    def __mul__(self, other):
        return self._apply("*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply("/", other)

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return NotImplemented if b is NotImplemented else b / a

    def __pow__(self, k: int):
        if not isinstance(k, int):
            # refused here: Fraction.__rpow__ would retry with a float
            raise TypeError("unsupported operand type(s) for ** or pow(): "
                            f"'Element' and '{type(k).__name__}'")
        return self._wrap(*quotient("^", self.rf, k))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Element)):
            a, b = self._pair(other)
            return a.rf == b.rf
        return NotImplemented

    def __hash__(self):
        return hash(self.rf)

    def slices(self, gids) -> tuple:
        """Numerator and denominator split by their monomials in gids: two
        dicts, monomial (a MultiPoly) -> coefficient, each coefficient the
        polynomial in the other generators as an element of this tower."""
        return tuple({m: Element(self.tower, RatFunc(c, MultiPoly.one()))
                      for m, c in p.split_by(gids).items()} for p in self.rf)

    def conj(self, s) -> "Element":
        """Image under the square-root sign flip s -> -s."""
        gen = self.tower._sqrt_gen(s)
        return Element(self.tower, RatFunc(self.rf.num.conj_gen(gen.gid),
                                           self.rf.den.conj_gen(gen.gid)))

    def swap(self, *pairs) -> "Element":
        """Image under the permutation that exchanges the generators of
        each pair (g, h) of ids, both square roots or neither.  Then the
        numerator stays multilinear in the roots, the denominator free of
        them and coprime to it; only the leading term of the denominator
        can move, so it is made monic again."""
        num, den = self.rf
        for g, h in pairs:
            num, den = num.swap_gens(g, h), den.swap_gens(g, h)
        lc = den.lead_coeff()
        if lc != 1:
            num, den = num.scale(1 / lc), den.scale(1 / lc)
        return Element(self.tower, RatFunc(num, den))

    def __str__(self) -> str:
        return fmt.format_ratfunc(self.rf, self.tower.name_of)

    def __repr__(self) -> str:
        text = fmt.format_ratfunc(self.rf, self.tower.name_of,
                                  abbreviate=True)
        return f"<Element {text}>"


class Tower:
    """Immutable tower of differential extensions over Q."""

    __slots__ = ("generators", "rels", "_by_name", "_by_gid", "_dtables",
                 "_target")

    def __init__(self, generators: tuple = ()):
        self.generators = generators
        # gid -> radicand of every square root, the relations of ratfunc
        self.rels = {g.gid: g.kind.radicand.rf for g in generators
                     if isinstance(g.kind, AlgebraicSqrt)}
        self._by_name = {g.name: g for g in generators}
        self._by_gid = {g.gid: g for g in generators}
        self._dtables: dict = {}
        self._target = ()  # (liouville._reduction_target's answer,) once asked

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
        """Tower without the given generators (ids stay stable); refused
        if a kept generator's defining data uses a dropped one."""
        kept = tuple(g for g in self.generators if g.gid not in gids)
        for g in kept:
            used = _data_gids(g.kind).intersection(gids)
            if used:
                raise FieldMismatch(f"cannot drop {self.name_of(min(used))}: "
                                    f"the defining data of {g.name} uses it")
        return Tower(kept)

    def _holds(self, u: "Tower") -> bool:
        """Whether u is this tower with some generators left out."""
        key = lambda g: (g.name, _data(g.kind))
        own = self._by_gid
        return all(g.gid in own and key(own[g.gid]) == key(g)
                   for g in u.generators)

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
        """The one way into this tower, and the one way an element changes
        tower.  A rational becomes a constant.  An element moves between
        two towers when one is the other with some generators left out
        (same generators, same order), up or down, and only if it uses no
        generator this tower lacks; its normal form stands, since it
        depends only on the relations of the generators it uses.  A prefix
        rule would not serve reduction: the constants above the consumed
        generator stay, so the smaller tower is not a prefix."""
        if isinstance(value, Element):
            other = value.tower
            if other is self:
                return value
            if self._holds(other) or (other._holds(self) and value.used_gids()
                                      <= self._by_gid.keys()):
                return Element(self, value.rf)
            raise FieldMismatch("element does not live in this tower")
        if isinstance(value, (int, Fraction)):
            return self.lit(value)
        raise FieldMismatch(f"cannot use {value!r} as a tower element")

    # -- extension ----------------------------------------------------

    def _next_gid(self) -> int:
        return max((g.gid for g in self.generators), default=-1) + 1

    def _coerce_below(self, value) -> Element:
        """Defining data goes in through coerce: a rational, or an element
        that coerce moves into this tower.  A raw RatFunc is refused."""
        if not isinstance(value, (Element, int, Fraction)):
            raise InvalidDefiningData(f"cannot use {value!r} as defining data")
        try:
            return self.coerce(value)
        except FieldMismatch:
            raise CyclicDefinition("defining data does not live in the "
                                   "tower below") from None

    def _adjoin(self, name: str, kind) -> "Tower":
        """This tower with one more generator, under the next id.  Every
        constructor ends here, so this is where a taken name is refused,
        and a Lambert W or elliptic function that repeats an earlier one's
        data: the two would differ by a zero read as nonzero."""
        if name in self._by_name:
            raise NameClash(f"generator {name!r} already declared")
        if isinstance(kind, (LambertW, EllipticFunction)):
            data = _data(kind)[:4]  # without an elliptic function's companion
            for g in self.generators:
                if _data(g.kind)[:4] == data:
                    raise InvalidDefiningData(
                        f"{name!r} repeats the defining data of {g.name!r}")
        return Tower(self.generators
                     + (Generator(self._next_gid(), name, kind),))

    def const(self, name: str) -> "Tower":
        return self._adjoin(name, ConstParam())

    def var(self, name: str, deriv=1) -> "Tower":
        return self._adjoin(name, BaseVar(self._coerce_below(deriv)))

    def primitive(self, name: str, integrand, antiderivative=None) -> "Tower":
        """Adjoin theta with D theta = integrand.  A recorded antiderivative
        G, which lets a reduction remove theta, must have D G = integrand."""
        f = self._coerce_below(integrand)
        anti = None
        if antiderivative is not None:
            anti = self._coerce_below(antiderivative)
            if self.derive(FULL_D, anti) != f:
                raise InvalidDefiningData(
                    f"{anti} is not an antiderivative of {f}")
        return self._adjoin(name, Primitive(f, None, anti))

    def log_ext(self, name: str, h) -> "Tower":
        h = self._coerce_below(h)
        if h.is_zero() or h == 1:
            raise InvalidDefiningData(f"log of {h}")
        return self._tagged(name, LogPhi(h))

    def exp_ext(self, name: str, v) -> "Tower":
        v = self._coerce_below(v)
        if v.is_zero():
            raise InvalidDefiningData("exp of 0")
        return self._adjoin(name, Exponential(v))

    def lambertw(self, name: str, v) -> "Tower":
        v = self._coerce_below(v)
        if v.is_zero():
            raise InvalidDefiningData("lambertw of zero")
        return self._adjoin(name, LambertW(v))

    def sqrt_ext(self, name: str, radicand) -> "Tower":
        r = self._coerce_below(radicand)
        if r.is_zero():
            raise InvalidDefiningData("square root of zero")
        if r.rf.is_const():
            # with s^2 = a^2 for a rational a, s - a is a zero divisor
            q = r.const_value()
            if q > 0 and all(isqrt(n) ** 2 == n
                             for n in (q.numerator, q.denominator)):
                raise InvalidDefiningData(
                    f"radicand {q} is the square of a rational")
        return self._adjoin(name, AlgebraicSqrt(r))

    def elliptic(self, name: str, v, a, b) -> "Tower":
        """Adjoin an elliptic-function pair (theta, theta_q) on the
        nonsingular curve theta_q^2 = theta^3 - a theta - b."""
        v, a, b = (self._coerce_below(e) for e in (v, a, b))
        curve = WeierstrassCurve(a, b)
        gid = self._next_gid()
        t = self._adjoin(name, EllipticFunction(v, a, b, gid + 1))
        return t._adjoin(name + "_q", AlgebraicSqrt(curve.rhs(t[name]),
                                                    companion_of=gid))

    def ellint(self, name: str, kind: int, p, q, c=None) -> "Tower":
        """Adjoin the primitive of WPhi(kind, p, q, a, b, c), with a and b
        read off q^2 = p^3 - a*p - b."""
        p, q = self._coerce_below(p), self._coerce_below(q)
        a, b = self._resolve_cubic(p, q)
        c = None if c is None else self._coerce_below(c)
        return self._tagged(name, WPhi(kind, p, q, a, b, c))

    def _tagged(self, name: str, tag) -> "Tower":
        """Adjoin theta with D theta = phi(D v, v) for the phi term tag:
        D(v) * prod(factors) / prod(divisors), by phi.phi_shape.  The tag
        is checked by phi.check_term, as a form's term is."""
        check_term(tag, self.rels)
        factors, (den, *divisors) = phi_shape(tag)
        integrand = prod(factors, start=self.derive(FULL_D, tag.v))
        return self._adjoin(name, Primitive(
            integrand / prod(divisors, start=den), tag))

    def _resolve_cubic(self, p: Element, q: Element):
        """Read a, b with q^2 = p^3 - a*p - b off p and q, or reject."""
        pgid = _single_var(p.rf)
        if pgid is None:
            raise InvalidDefiningData(
                "cannot recover curve constants: argument is not a generator")
        lin, one = MultiPoly.var(pgid), MultiPoly.one()  # monomials p, 1
        nums, dens = (p ** 3 - q ** 2).slices((pgid,))  # should be a*p + b
        if list(dens) != [one] or not nums.keys() <= {lin, one}:
            raise InvalidDefiningData("coordinates do not satisfy a monic "
                                      "depressed cubic relation")
        return tuple(nums.get(m, self.zero()) / dens[one] for m in (lin, one))

    # -- derivations ----------------------------------------------------

    def _dget(self, handle):
        """Memoized gid -> derivative (RatFunc) lookup for a handle.

        One fill loop serves every handle: on a miss it computes every
        missing entry up to the asked generator, bottom-up in generator
        order, so an entry reads only entries already there and a deep
        tower needs no deep recursion.  A square root gets h(s) = h(r)/(2s)
        under every handle; any other generator takes the handle's image.
        An entry whose computation fails holds its DiffAlgError and raises
        it whenever it is read, so a failure is computed once.  A table
        serves one degree limit, since a DegreeOverflow depends on it.
        """
        key = (handle, get_degree_limit())
        get = self._dtables.get(key)
        if get is not None:
            return get
        image = self._image(handle)
        table: dict = {}

        def get(gid: int) -> RatFunc:
            if gid not in table:
                for g, gen in self._by_gid.items():
                    if g > gid:
                        break
                    if g not in table:
                        try:
                            table[g] = compute(g, gen.kind)
                        except DiffAlgError as exc:
                            table[g] = exc
            val = table[gid]
            if isinstance(val, DiffAlgError):
                raise val.with_traceback(None)
            return val

        def compute(gid: int, kind) -> RatFunc:
            if isinstance(kind, AlgebraicSqrt):
                # s^2 = r gives h(s) = h(r) / (2 s).
                num, den = _diff_rf(kind.radicand.rf, get)
                return self._nf(num, den * MultiPoly.var(gid).scale(2))
            return image(gid, kind, get)

        self._dtables[key] = get
        return get

    def _image(self, handle):
        """The handle's rule for a generator that is not a square root:
        a function of (gid, kind, get) giving its derivative."""
        if isinstance(handle, FullD):
            return self._full_image
        if isinstance(handle, (CommutingX, PartialD)):
            # Both send theta_k to a fixed value and kill every other
            # generator that is not a square root.
            k = handle.gid
            kgen = self.gen_of(k)
            if isinstance(handle, PartialD):
                at_k = _RF_ONE
            elif not isinstance(kgen.kind, _X_KINDS):
                raise UnsupportedHandle(
                    f"no commuting derivation for generator {kgen.name!r} "
                    f"of kind {type(kgen.kind).__name__}")
            else:
                at_k = _x_image(k, kgen.kind)
            return lambda gid, kind, get: at_k if gid == k else _RF_ZERO
        raise UnsupportedHandle(f"unknown handle {handle!r}")

    def _full_image(self, gid: int, kind, get) -> RatFunc:
        """D theta for a generator that is not a square root.  An X-kind
        takes w * X theta: a primitive its integrand (X theta = 1), any
        other the raw product of w = D v (D v / v for lambertw) and X theta."""
        if isinstance(kind, BaseVar):
            return kind.deriv.rf
        if isinstance(kind, ConstParam):
            return _RF_ZERO
        if isinstance(kind, Primitive):
            return kind.integrand.rf
        if not isinstance(kind, _X_KINDS):
            raise UnsupportedHandle(f"unknown kind {kind!r}")
        v = kind.v.rf
        num, den = _diff_rf(v, get)
        if isinstance(kind, LambertW):
            num, den = num * v.den, den * v.num
        x = _x_image(gid, kind)
        return self._nf(num * x.num, den * x.den)

    def _nf(self, num: MultiPoly, den: MultiPoly) -> RatFunc:
        return normal_form(num, den, self.rels)

    def derive(self, handle, e: Element) -> Element:
        """Apply a derivation handle to an element of this tower."""
        e = self.coerce(e)
        return Element(self, self._nf(*_diff_rf(e.rf, self._dget(handle))))

    # -- verification helpers -------------------------------------------

    def check_lie_closed(self, k) -> "CommutationReport":
        """Residues of (D X - X D) on every generator of the tower."""
        gen = self.gen_of(k)
        handle = CommutingX(gen.gid)
        rows = []
        for g in self.generators:
            ge = self.element(g.name)
            res = (self.derive(FULL_D, self.derive(handle, ge))
                   - self.derive(handle, self.derive(FULL_D, ge)))
            rows.append((g.name, res))
        return CommutationReport(tuple(rows),
                                 all(res.is_zero() for _, res in rows))

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
        return lhs == self.trace(gen, self.derive(FULL_D, e) / e)


# --------------------------------------------------------------------------
# Generator declarations: each gen kind of the tower language, the Tower
# constructor it calls and the arguments that constructor takes after the
# name.  Arguments in brackets may be left out; k is an integer literal,
# every other argument an element.  gen_args is the inverse.

GEN_KINDS = {
    "int": (Tower.primitive, "g[, G]"),
    "log": (Tower.log_ext, "h"),
    "exp": (Tower.exp_ext, "v"),
    "lambertw": (Tower.lambertw, "v"),
    "sqrt": (Tower.sqrt_ext, "r"),
    "ellfun": (Tower.elliptic, "v, a, b"),
    "ellint": (Tower.ellint, "k, p, q[, c]"),
}


def gen_args(kind) -> tuple | None:
    """(name, arguments) of the gen declaration whose GEN_KINDS constructor
    makes this kind; None for a constant, a base variable and an elliptic
    function's companion, which no gen declaration of their own makes."""
    if isinstance(kind, Primitive):
        tag = kind.tag
        if isinstance(tag, LogPhi):
            return "log", [tag.v]
        if isinstance(tag, WPhi):
            name, args = "ellint", [tag.kind, tag.v, tag.q, tag.c]
        else:
            name, args = "int", [kind.integrand, kind.antiderivative]
        return name, [e for e in args if e is not None]  # left out: None
    if isinstance(kind, Exponential):
        return "exp", [kind.v]
    if isinstance(kind, LambertW):
        return "lambertw", [kind.v]
    if isinstance(kind, EllipticFunction):
        return "ellfun", [kind.v, kind.a, kind.b]
    if isinstance(kind, AlgebraicSqrt) and kind.companion_of is None:
        return "sqrt", [kind.radicand]
    return None


@dataclass(frozen=True)
class CommutationReport:
    residues: tuple  # (generator name, Element)
    passed: bool


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


def _data(kind) -> list:
    """A kind's type and fields, a tag opened and an element read as its
    RatFunc: what two generators of one id share when they are the same.
    No comparison of these reaches back into a payload's own tower."""
    data = [type(kind)]
    for v in vars(kind).values():
        data += (_data(v) if isinstance(v, (LogPhi, WPhi))
                 else [getattr(v, "rf", v)])
    return data


def _data_gids(kind) -> set:
    """Ids of the generators that a kind's defining data uses, an elliptic
    function's companion included."""
    gids = {kind.companion} if isinstance(kind, EllipticFunction) else set()
    return gids.union(*(v.gens() for v in _data(kind)
                        if isinstance(v, RatFunc)))


def _x_image(gid: int, kind) -> RatFunc:
    """X theta for the commuting derivation at an X-kind generator."""
    if isinstance(kind, Primitive):
        return _RF_ONE
    if isinstance(kind, Exponential):
        return RatFunc.var(gid)
    if isinstance(kind, EllipticFunction):
        return RatFunc.var(kind.companion)
    theta = MultiPoly.var(gid)
    return RatFunc(theta, theta + MultiPoly.one())  # coprime, monic


def _single_var(rf: RatFunc):
    """gid when rf is exactly one generator, else None."""
    gids = rf.gens()
    if len(gids) != 1:
        return None
    gid, = gids
    return gid if rf == RatFunc.var(gid) else None
