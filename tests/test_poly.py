"""Sparse multivariate polynomials: arithmetic, gcd, degree guard."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.errors import DegreeOverflow
from diffalg.poly import (MONO_ONE, MultiPoly, get_degree_limit,
                          poly_divexact, poly_gcd, set_degree_limit)

X = MultiPoly.var(0)
Y = MultiPoly.var(1)
ONE = MultiPoly.one()


def monic(p: MultiPoly) -> MultiPoly:
    _, lead = p.leading()
    return p.scale(1 / lead)


def test_gcd_linear_factor():
    g = poly_gcd(X * X - ONE, X - ONE)
    assert g == X - ONE


def test_gcd_with_zero():
    p = X * X.scale(Fraction(3)) + ONE
    assert poly_gcd(p, MultiPoly.zero()) == monic(p)
    assert poly_gcd(MultiPoly.zero(), p) == monic(p)


def test_gcd_two_variables():
    # x^2 y + x y^2 = xy(x+y), x^2 - y^2 = (x+y)(x-y)
    p = X * X * Y + X * Y * Y
    q = X * X - Y * Y
    assert poly_gcd(p, q) == X + Y


def test_gcd_of_constants():
    # over Q constants are units, so the monic gcd is 1
    assert poly_gcd(MultiPoly.const(6), MultiPoly.const(4)) == MultiPoly.one()


def test_divexact():
    p = (X + Y) * (X - Y)
    assert poly_divexact(p, X + Y) == X - Y
    assert poly_divexact(p, X + ONE) is None
    assert poly_divexact(MultiPoly.zero(), X) == MultiPoly.zero()


def test_partial_and_evaluate():
    p = X * X * Y + X.scale(3)  # x^2 y + 3x
    assert p.partial(0) == X * Y * MultiPoly.const(2) + MultiPoly.const(3)
    assert p.partial(1) == X * X
    assert p.evaluate({0: Fraction(2), 1: Fraction(5)}) == Fraction(26)


def test_split_powers():
    p = X * X * Y + X * Y + Y
    parts = p.split_powers(0)
    assert set(parts) == {0, 1, 2}
    assert parts[2] == Y and parts[1] == Y and parts[0] == Y


def test_degree_limit_guard():
    set_degree_limit(4)
    try:
        with pytest.raises(DegreeOverflow):
            (X + ONE) ** 5
        (X + ONE) ** 4  # at the limit is fine
    finally:
        set_degree_limit(None)
    assert get_degree_limit() is None


# -- randomized properties ---------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=0, max_value=2)


@st.composite
def polys(draw, max_terms=3, nvars=2):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        mono = MONO_ONE
        for gid in range(nvars):
            e = draw(exps)
            if e:
                mono += ((gid, e),)
        c = draw(coeffs)
        if c == 0:
            continue
        terms[mono] = terms.get(mono, 0) + c
    return MultiPoly.from_dict({m: Fraction(c) for m, c in terms.items() if c})


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    assert poly_divexact(p, g) is not None
    assert poly_divexact(q, g) is not None


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_common_factor_survives_gcd(p, q, r):
    # Exercises the modular coprimality certificate: if it ever claimed
    # coprime wrongly, the factor r would be lost here.
    if r.is_zero() or (p.is_zero() and q.is_zero()):
        return
    g = poly_gcd(p * r, q * r)
    assert poly_divexact(g, monic(r)) is not None


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_gcd_symmetric_and_monic(p, q):
    g1, g2 = poly_gcd(p, q), poly_gcd(q, p)
    assert g1 == g2
    if not g1.is_zero():
        assert g1.leading()[1] == 1


@given(polys(max_terms=5, nvars=3), st.sets(st.integers(0, 2)))
@settings(max_examples=60, deadline=None)
def test_split_by_regroups_to_p(p, gids):
    total = MultiPoly.zero()
    for mono, coeff in p.split_by(gids).items():
        assert {g for g, _ in mono} <= gids
        assert not coeff.gens() & gids
        total = total + MultiPoly.from_dict({mono: 1}) * coeff
    assert total == p


# -- sympy as an independent oracle, over three variables -------------------

GENS = sympy.symbols("x0:3")


def to_sympy(p: MultiPoly) -> sympy.Poly:
    return sympy.Poly(p.evaluate(dict(enumerate(GENS))), *GENS, domain="QQ")


@given(polys(nvars=3), polys(nvars=3), polys(nvars=3))
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy(p, q, r):
    p, q = p * r, q * r
    g, want = to_sympy(poly_gcd(p, q)), sympy.gcd(to_sympy(p), to_sympy(q))
    if want.is_zero:
        assert g.is_zero
    else:
        assert g.monic() == want.monic()


@given(polys(nvars=3), polys(nvars=3))
@settings(max_examples=60, deadline=None)
def test_divexact_undoes_multiplication(p, q):
    if not q.is_zero():
        assert poly_divexact(p * q, q) == p


@given(polys(max_terms=4, nvars=3), polys(nvars=3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_divexact_inexact_exactly_when_sympy_leaves_a_remainder(p, q, mult):
    if q.is_zero():
        return
    if mult:
        p = p * q
    remainder = to_sympy(p).rem(to_sympy(q))
    assert (poly_divexact(p, q) is None) == (not remainder.is_zero)
