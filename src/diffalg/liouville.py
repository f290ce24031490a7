"""Liouville forms: the verifier and the tower-reduction engine.

A Liouville form D(v0) + sum c_i * phi(D v_i, v_i) certifies an integral
in finite terms.  The phi shapes are logarithmic derivatives and the six
elliptic integrands (three kinds on each curve model); they are defined
once, as the terms of phi.py, and re-exported here.  The engine can
verify a form against an integrand, and reduce it down a tower one
extension at a time.  Verification is the lazy zero test
curves.phi_sum_is_zero, the same one the Abel identities use.  The
canonical values form_derivative and x_constant are that same cleared
sum, put in normal form once by curves.phi_sum.

Reduction rests on one identity: if theta is the top extension with
commuting derivation X, then D = D_below + w*X on everything in sight,
where w is Dtheta/(X theta) reduced to the field below (for a primitive
w is the integrand, for an exponential D of the argument, and so on).
Every phi is linear in its first slot, so applying the decomposition to
the form splits it into a below-part plus w times the X-constant.  The
below-part is realized by rewriting each piece, the w-part by one
appended term whose shape depends on theta's kind.

Quadratic extensions reduce by averaging a form with its conjugate:
log arguments become norms, and a curve term takes one step of Abel's
addition theorem, curves.abel_step.  A pair whose conjugate only negates
y drops, since every curve phi is odd in y; otherwise the point adds to
its conjugate, the correction w goes into v0, the Legendre third kind's
log term joins the form, and the Weierstrass third kind is refused.

Both steps, reduce_top and reduce_algebraic, take (t, f, form), find the
extension on top that they consume, and return the reduced form, whose
tower lacks it; each re-verifies the result and fails hard rather than
return a form whose derivative drifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import CurvePoint, abel_step, phi_sum, phi_sum_is_zero
from .errors import (FNotBelow, IntegrandNotReducible, NonConstantCoefficient,
                     NotConstant, PartNotBelow, SelfCheckFailed,
                     UnsupportedHandle, UnsupportedTermKind)
from .phi import (LogPhi, LPhi, PhiTerm, WPhi, check_term, make_term,
                  term_args)
from .poly import MultiPoly
from .tower import (_X_KINDS, FULL_D, AlgebraicSqrt, BaseVar, CommutingX,
                    ConstParam, Element, EllipticFunction, Exponential,
                    Generator, Primitive, Tower)


def _map_term(term: PhiTerm, move) -> PhiTerm:
    """The same phi term with move applied to every element it holds."""
    name, elements = term_args(term)
    return make_term(name, [move(e) for e in elements])


class LiouvilleForm:
    """v0 plus constant-coefficient phi terms over one tower.  Each term
    is checked once, here, by phi.check_term."""

    __slots__ = ("tower", "v0", "terms")

    def __init__(self, v0: Element, terms=()):
        t = v0.tower
        self.tower = t
        self.v0 = v0
        checked = []
        for coeff, term in terms:
            coeff = t.coerce(coeff)
            if not coeff.is_constant():
                raise NonConstantCoefficient(
                    f"term coefficient {coeff} is not a constant")
            term = _map_term(term, t.coerce)
            check_term(term, t.rels)
            checked.append((coeff, term))
        self.terms = tuple(checked)

    def __repr__(self) -> str:
        bits = [f"v0 = {self.v0}"]
        for coeff, term in self.terms:
            bits.append(f"({coeff}) * {term}")
        return "LiouvilleForm(" + "; ".join(bits) + ")"


def form_derivative(t: Tower, form: LiouvilleForm) -> Element:
    return phi_sum(t, FULL_D, form.v0, form.terms)


def verify_liouville(t: Tower, f: Element, form: LiouvilleForm) -> bool:
    """Whether the form differentiates to f, by the lazy zero test."""
    return phi_sum_is_zero(t, FULL_D, form.v0, form.terms, f)


def x_constant(t: Tower, form: LiouvilleForm, k) -> Element:
    """c = X v0 + sum c_i phi(X v_i, v_i); raises unless constant."""
    c = phi_sum(t, CommutingX(t.gen_of(k).gid), form.v0, form.terms)
    if not c.is_constant():
        raise NotConstant(f"X-image of the form is not constant: {c}")
    return c


# --------------------------------------------------------------------------
# Reduction steps: the target on top, and the top transcendental.


def _reduction_target(t: Tower) -> tuple[Generator, frozenset] | None:
    """The topmost generator that reduction consumes with the ids it drops,
    or None.  Constant generators (parameters, constant square roots) are
    skipped, a companion square root routes to its elliptic function and
    drops with it, and a base variable is the floor.  Towers are
    immutable, so each tower finds its target once and keeps it."""
    if not t._target:
        t._target = (_find_target(t),)
    return t._target[0]


def _find_target(t: Tower) -> tuple[Generator, frozenset] | None:
    for gen in reversed(t.generators):
        if isinstance(gen.kind, ConstParam):
            continue
        if isinstance(gen.kind, BaseVar):
            return None
        if t.element(gen.name).is_constant():
            continue
        if isinstance(gen.kind, AlgebraicSqrt) and gen.kind.companion_of is not None:
            gen = t.gen_of(gen.kind.companion_of)
        if isinstance(gen.kind, EllipticFunction):
            return gen, frozenset((gen.gid, gen.kind.companion))
        return gen, frozenset((gen.gid,))
    return None


def _open_step(t: Tower, f, form: LiouvilleForm, kinds, missing: str):
    """f, the form, the generator on top and the ids it drops, for a step
    over t; a top not of kinds is refused, as is an f that uses the ids."""
    if form.tower is not t:
        form = LiouvilleForm(t.coerce(form.v0), form.terms)
    f = t.coerce(f)
    target = _reduction_target(t)
    if target is None or not isinstance(target[0].kind, kinds):
        raise UnsupportedHandle(missing)
    gen, ids = target
    if f.used_gids() & ids:
        raise FNotBelow(f"integrand involves {gen.name}")
    return f, form, gen, ids


def _rewrite_v0(t: Tower, v0: Element, sgids: set) -> Element:
    """Keep the part of v0 with zero D_below-loss: the monomial-free slice.

    The top-generator monomials are dropped.  reduce_top refuses a curve
    term that touches theta, and where only log terms do, the constant
    X-image that x_constant found makes each coefficient constant, so
    D_below kills the monomial.
    """
    one = MultiPoly.one()
    nums, dens = v0.slices(sgids)
    if list(dens) != [one]:
        raise PartNotBelow("v0 denominator involves the top extension")
    return nums.get(one, t.zero()) / dens[one]


def _rewrite_log(v: Element, sgids: set) -> Element | None:
    """Realize phi(D_below v, v) as a log term below; None drops the term."""
    nums, dens = v.slices(sgids)
    if len(nums) != 1 or len(dens) != 1:
        raise PartNotBelow(
            "log argument is not a monomial in the top extension")
    (a,), (b,) = nums.values(), dens.values()
    w = a / b
    return None if w.is_constant() else w


def _merge_terms(terms):
    """Combine repeated phi terms; drop zero coefficients."""
    acc = {}
    for coeff, term in terms:
        acc[term] = acc[term] + coeff if term in acc else coeff
    return [(c, term) for term, c in acc.items() if not c.is_zero()]


def _move_down(new_t: Tower, f: Element, v0: Element, terms) -> LiouvilleForm:
    """Rebuild the reduced form over the shrunken tower and self-check it.

    new_t is the tower without the consumed generators, and it keeps the
    constants above them, so it need not be a prefix.  LiouvilleForm moves
    every element down by new_t.coerce, which refuses one that still uses
    a dropped generator; no element is normalized again.
    """
    moved = LiouvilleForm(new_t.coerce(v0), _merge_terms(terms))
    if not verify_liouville(new_t, new_t.coerce(f), moved):
        raise SelfCheckFailed("reduced form derivative drifted")
    return moved


def reduce_top(t: Tower, f: Element, form: LiouvilleForm) -> LiouvilleForm:
    """Push the form below the top transcendental extension: the form over
    the shrunken tower, its derivative preserved exactly and re-verified."""
    f, form, target, sgids = _open_step(t, f, form, _X_KINDS,
                                        "no reducible transcendental on top")

    c = x_constant(t, form, target.gid)

    v0 = _rewrite_v0(t, form.v0, sgids)
    new_terms = []
    for coeff, term in form.terms:
        touched = any(e.used_gids() & sgids for e in term_args(term)[1])
        if not touched:
            new_terms.append((coeff, term))
            continue
        if isinstance(term, LogPhi):
            w = _rewrite_log(term.v, sgids)
            if w is not None:
                new_terms.append((coeff, LogPhi(w)))
            continue
        raise PartNotBelow(
            "curve-term payload involves the top extension")

    # The c*w part, by the kind of the extension.
    kind = target.kind
    if not c.is_zero():
        if isinstance(kind, Primitive):
            if kind.tag is not None:
                new_terms.append((c, kind.tag))
            elif kind.antiderivative is not None:
                v0 = v0 + c * kind.antiderivative
            else:
                raise IntegrandNotReducible(
                    f"no closed form recorded for D({t.name_of(target.gid)})")
        elif isinstance(kind, (Exponential, EllipticFunction)):
            v0 = v0 + c * kind.v
        else:  # LambertW
            new_terms.append((c, LogPhi(kind.v)))

    return _move_down(t.drop_gens(sgids), f, v0, new_terms)


# --------------------------------------------------------------------------
# Reduction through a quadratic extension.


def log_canonical(e: Element) -> Element:
    """Normalize a log argument's sign; D log is insensitive to it."""
    return -e if e.rf.num.lead_coeff() < 0 else e


def reduce_algebraic(t: Tower, f: Element, form: LiouvilleForm) -> LiouvilleForm:
    """Push the form through the top quadratic extension by averaging
    with its conjugate: v0 to trace/2, logs to norms, curve terms to the
    conjugate-point sum with the Abel corrections.  Each conjugate pair
    of terms is pushed once, as half its trace."""
    f, form, s, sgids = _open_step(t, f, form, AlgebraicSqrt,
                                   "no square root on top")
    half = t.lit(Fraction(1, 2))
    v0 = t.trace(s, form.v0) * half
    new_terms = []

    # A term and its conjugate have the same trace, so each orbit
    # {T, conj T} is pushed once, with its coefficients summed, at the
    # place where either first appears.  A term free of s is its own
    # orbit.
    orbits: dict = {}
    for coeff, term in form.terms:
        bar = _map_term(term, lambda e: e.conj(s))
        if bar in orbits:
            term = bar
        orbits[term] = orbits[term] + coeff if term in orbits else coeff

    for term, coeff in orbits.items():
        if coeff.is_zero():
            continue  # the orbit's trace is zero
        touched = any(e.used_gids() & sgids for e in term_args(term)[1])
        if not touched:
            new_terms.append((coeff, term))
            continue
        chalf = coeff * half
        if isinstance(term, LogPhi):
            new_terms.append((chalf, LogPhi(log_canonical(t.norm(s, term.v)))))
            continue
        name, (v, y, *data) = term_args(term)
        if name == "w3":
            raise UnsupportedTermKind(
                "third-kind Weierstrass terms do not push through "
                "a quadratic extension")
        p, pc = CurvePoint(v, y), CurvePoint(v.conj(s), y.conj(s))
        if pc.x == p.x and pc.y == -p.y:
            continue  # every curve phi is odd in y: the pair cancels
        # p3 is not at infinity: that pair cancelled
        p3, w, log = abel_step(name, data, p, pc)
        v0 = v0 + chalf * w
        if log is not None:
            c, num, den = log
            new_terms.append((chalf * c, LogPhi(log_canonical(num / den))))
        new_terms.append((chalf, make_term(name, [p3.x, p3.y, *data])))

    return _move_down(t.drop_gens(sgids), f, v0, new_terms)


# --------------------------------------------------------------------------
# Driver.


@dataclass(frozen=True)
class ReductionStep:
    tower: Tower
    form: LiouvilleForm


def reduce(t: Tower, f: Element, form: LiouvilleForm,
           max_steps: int | None = None) -> list[ReductionStep]:
    """Reduce from the top until the integrand's floor or the base.

    Returns the intermediate (tower, form) after each consumed extension;
    an empty list means nothing above f was reducible.
    """
    steps: list[ReductionStep] = []
    while max_steps is None or len(steps) < max_steps:
        target = _reduction_target(t)
        if target is None:
            break
        step = (reduce_algebraic if isinstance(target[0].kind, AlgebraicSqrt)
                else reduce_top)
        try:
            form = step(t, f, form)
        except FNotBelow:
            break  # the integrand lives here: reduction floor
        t = form.tower
        steps.append(ReductionStep(t, form))
    return steps
