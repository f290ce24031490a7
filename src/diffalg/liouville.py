"""Liouville forms: the verifier and the tower-reduction engine.

A Liouville form D(v0) + sum c_i * phi(D v_i, v_i) certifies an integral
in finite terms.  The phi shapes are logarithmic derivatives and the six
elliptic integrands (three kinds on each curve model); they are defined
once, as the terms of phi.py, and re-exported here.  The engine can
verify a form against an integrand, and reduce it down a tower one
extension at a time.  Verification is the lazy zero test
curves.phi_sum_is_zero, the same one the Abel identities use.  The
canonical values form_derivative, phi_eval and x_constant are that same
cleared sum, put in normal form once by curves.phi_sum.

Reduction rests on one identity: if theta is the top extension with
commuting derivation X, then D = BelowD + w*X on everything in sight,
where w is Dtheta/(X theta) reduced to the field below (for a primitive
w is the integrand, for an exponential D of the argument, and so on).
Every phi is linear in its first slot, so applying the decomposition to
the form splits it into a below-part plus w times the X-constant.  The
below-part is realized by rewriting each piece, the w-part by one
appended term whose shape depends on theta's kind.

Quadratic extensions reduce by averaging a form with its conjugate:
log arguments become norms, curve points add to their conjugates with
the Abel corrections supplying the rational and logarithmic remainders.
Every reduction self-checks by re-verifying the result and fails hard
rather than return a form whose derivative drifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import (CurvePoint, LegendreCurve, WeierstrassCurve,
                     abel_e_correction, abel_log_argument, legendre_add,
                     phi_sum, phi_sum_is_zero, weierstrass_add,
                     weierstrass_e_correction)
from .errors import (FNotBelow, IntegrandNotReducible, NonConstantCoefficient,
                     NotConstant, PartNotBelow, SelfCheckFailed,
                     UnsupportedHandle, UnsupportedTermKind)
from .phi import (LogPhi, LPhi, PhiTerm, WPhi, check_term, make_term,
                  term_args)
from .poly import MONO_ONE
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


def phi_eval(t: Tower, term: PhiTerm, h) -> Element:
    """phi with the handle's derivative in the first slot: phi(hv, v),
    as a canonical element."""
    return phi_sum(t, h, t.zero(), [(1, term)])


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


def check_step1(t: Tower, term: PhiTerm, k) -> bool:
    """X phi(Dv, v) = D phi(Xv, v) for the commuting derivation at k."""
    handle = CommutingX(t.gen_of(k).gid)
    lhs = t.derive(handle, phi_eval(t, term, FULL_D))
    return lhs == t.derive(FULL_D, phi_eval(t, term, handle))


# --------------------------------------------------------------------------
# Reduction of the top transcendental extension.


def _reduction_target(t: Tower) -> Generator | None:
    """Topmost generator that reduction should consume, or None.

    Constant generators (parameters, constant square roots) are skipped;
    a companion square root routes to its elliptic function.  A base
    variable is the floor.
    """
    for gen in reversed(t.generators):
        if isinstance(gen.kind, ConstParam):
            continue
        if isinstance(gen.kind, BaseVar):
            return None
        if t.element(gen.name).is_constant():
            continue
        if isinstance(gen.kind, AlgebraicSqrt) and gen.kind.companion_of is not None:
            return t.gen_of(gen.kind.companion_of)
        return gen
    return None


def _top_gids(gen: Generator) -> set:
    if isinstance(gen.kind, EllipticFunction):
        return {gen.gid, gen.kind.companion}
    return {gen.gid}


def _rewrite_v0(t: Tower, v0: Element, sgids: set) -> Element:
    """Keep the part of v0 with zero BelowD-loss: the monomial-free slice.

    Top-generator monomials with constant coefficients differentiate to
    zero under BelowD and are dropped; anything else cannot be realized
    below and is an error.
    """
    nums, dens = v0.slices(sgids)
    if list(dens) != [MONO_ONE]:
        raise PartNotBelow("v0 denominator involves the top extension")
    den = dens[MONO_ONE]
    below = nums.pop(MONO_ONE, t.zero())
    # Each dropped top-monomial's coefficient over the common
    # denominator must be a constant.
    for coeff in nums.values():
        if not (coeff / den).is_constant():
            raise PartNotBelow(
                "v0 has a non-constant coefficient on the top extension")
    return below / den


def _rewrite_log(v: Element, sgids: set) -> Element | None:
    """Realize phi(BelowD v, v) as a log term below; None drops the term."""
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


def _into(t: Tower, f, form: LiouvilleForm):
    """f and the form as elements of t, for a reduction step over t."""
    if form.tower is not t:
        form = LiouvilleForm(t.coerce(form.v0), form.terms)
    return t.coerce(f), form


def reduce_top(t: Tower, f: Element, form: LiouvilleForm):
    """Push the form below the top transcendental extension.

    Returns (tower, form) over the shrunken tower; the form's derivative
    is preserved exactly and re-verified before returning.
    """
    f, form = _into(t, f, form)
    target = _reduction_target(t)
    if target is None or not isinstance(target.kind, _X_KINDS):
        raise UnsupportedHandle("no reducible transcendental on top")
    sgids = _top_gids(target)
    if f.used_gids() & sgids:
        raise FNotBelow(f"integrand involves {t.name_of(target.gid)}")

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

    new_t = t.drop_gens(sgids)
    return new_t, _move_down(new_t, f, v0, new_terms)


# --------------------------------------------------------------------------
# Reduction through a quadratic extension.


def log_canonical(e: Element) -> Element:
    """Normalize a log argument's sign; D log is insensitive to it."""
    if e.rf.num.is_zero():
        return e
    return -e if e.rf.num.lead_coeff() < 0 else e


def _conj_point(t: Tower, s, v: Element, y: Element):
    return CurvePoint(v, y), CurvePoint(v.conj(s), y.conj(s))


def _cancels(p: CurvePoint, pc: CurvePoint) -> bool:
    return pc.x == p.x and pc.y == -p.y


def reduce_algebraic(t: Tower, s, f: Element, form: LiouvilleForm) -> LiouvilleForm:
    """Push the form through the top quadratic extension by averaging
    with its conjugate: v0 to trace/2, logs to norms, curve terms to the
    conjugate-point sum with the Abel corrections.  Each conjugate pair
    of terms is pushed once, as half its trace."""
    f, form = _into(t, f, form)
    gen = t._sqrt_gen(s)
    if gen.kind.companion_of is not None:
        raise UnsupportedHandle(
            "companion square roots reduce with their elliptic function")
    if _reduction_target(t) != gen:
        raise UnsupportedHandle("square root is not the top extension")
    if gen.gid in f.used_gids():
        raise FNotBelow(f"integrand involves {gen.name}")

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
        touched = any(gen.gid in e.used_gids() for e in term_args(term)[1])
        if not touched:
            new_terms.append((coeff, term))
            continue
        chalf = coeff * half
        if isinstance(term, LogPhi):
            new_terms.append((chalf, LogPhi(log_canonical(t.norm(s, term.v)))))
            continue
        if isinstance(term, WPhi):
            if term.kind == 3:
                raise UnsupportedTermKind(
                    "third-kind Weierstrass terms do not push through "
                    "a quadratic extension")
            p, pc = _conj_point(t, s, term.v, term.q)
            if _cancels(p, pc):
                continue
            curve = WeierstrassCurve(term.a, term.b)
            p3 = weierstrass_add(curve, p, pc)
            if p3.at_infinity:
                continue
            if term.kind == 2:
                v0 = v0 + chalf * weierstrass_e_correction(curve, p, pc)
            new_terms.append(
                (chalf, WPhi(term.kind, p3.x, p3.y, term.a, term.b)))
            continue
        # Legendre kinds
        p, pc = _conj_point(t, s, term.v, term.y)
        if _cancels(p, pc):
            continue
        curve = LegendreCurve(term.m)
        p3 = legendre_add(curve, p, pc)
        if term.kind == 2:
            v0 = v0 + chalf * abel_e_correction(curve, p, pc)
        elif term.kind == 3:
            prm = term.prm
            arg = abel_log_argument(curve, prm, p, pc, p3)
            lc = -coeff * prm.a / (4 * prm.delta)
            if not lc.is_zero():
                new_terms.append((lc, LogPhi(log_canonical(arg))))
        new_terms.append(
            (chalf, LPhi(term.kind, p3.x, p3.y, term.m, term.prm)))

    return _move_down(t.drop_gens({gen.gid}), f, v0, new_terms)


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
        if t.coerce(f).used_gids() & _top_gids(target):
            break  # the integrand lives here: reduction floor
        if isinstance(target.kind, AlgebraicSqrt):
            form = reduce_algebraic(t, target.gid, f, form)
            t = form.tower
        else:
            t, form = reduce_top(t, f, form)
        steps.append(ReductionStep(t, form))
    return steps
