"""Rational functions and reduction modulo square-root relations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.errors import ZeroDenominator
from diffalg.poly import MultiPoly
from diffalg.ratfunc import RatFunc, normal_form, ratfunc_normalize

X = MultiPoly.var(0)
S = MultiPoly.var(1)
ONE = MultiPoly.one()

x = RatFunc.var(0)
s = RatFunc.var(1)


def test_normalize_monomial_cancel():
    got = ratfunc_normalize(X * X.scale(2), X.scale(4))
    assert got == RatFunc.const(Fraction(1, 2)) * x


def test_normalize_linear_factor():
    got = ratfunc_normalize(X * X - ONE, X + ONE)
    assert got == x - RatFunc.const(1)


def test_normalize_zero_numerator():
    got = ratfunc_normalize(MultiPoly.zero(), X * X + ONE)
    assert got.is_zero()
    assert got.den == ONE


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        ratfunc_normalize(ONE, MultiPoly.zero())
    with pytest.raises(ZeroDenominator):
        x / RatFunc.const(0)


# -- relations ---------------------------------------------------------------


def rels_s2(radicand: RatFunc) -> dict:
    return {1: radicand}


def test_square_rewrites():
    rels = rels_s2(x ** 3 - x)
    nf = normal_form(S * S, ONE, rels)
    assert nf == x ** 3 - x


def test_inverse_rationalizes():
    # 1/s with s^2 = x becomes s/x
    rels = rels_s2(x)
    nf = normal_form(ONE, S, rels)
    assert nf == s / x


def test_inverse_of_one_plus_s():
    # 1/(1+s) with s^2 = x: multiply through by the conjugate
    rels = rels_s2(x)
    nf = normal_form(ONE, ONE + S, rels)
    want = normal_form((ONE - S), (ONE - X), rels)
    assert nf == want
    # product oracle: (1+s) * nf == 1 modulo the relation
    prod = RatFunc(ONE + S, ONE) * nf
    assert normal_form((prod - RatFunc.const(1)).num, prod.den, rels).is_zero()


def test_zero_numerator_over_a_zero_divisor_is_refused():
    # s^2 = x^2 makes s - x a zero divisor; 0/(s - x) is no element either
    rels = rels_s2(x ** 2)
    with pytest.raises(ZeroDenominator, match="zero divisor"):
        normal_form(MultiPoly.zero(), S - X, rels)


def test_normal_form_idempotent():
    one = RatFunc.const(1)
    rels = rels_s2((x - one) / (x + one))
    e = normal_form(S * S * S + X * S + ONE, S + X, rels)
    again = normal_form(e.num, e.den, rels)
    assert e == again


def test_normal_form_degree_one_in_s():
    rels = rels_s2(x ** 2 - RatFunc.const(1))
    e = normal_form(S ** 4 + S ** 3 + S + ONE, S ** 2 + S, rels)
    assert e.num.deg_in(1) <= 1
    assert e.den.deg_in(1) == 0  # denominator rationalized s-free


# -- field axioms on random elements ----------------------------------------

ints = st.integers(min_value=-3, max_value=3)


@st.composite
def ratfuncs(draw):
    def poly():
        c0, c1, c2 = draw(ints), draw(ints), draw(ints)
        return (MultiPoly.const(c0) + X.scale(c1) + (X * X).scale(c2))
    num = poly()
    den = poly()
    if den.is_zero():
        den = X + ONE
    return ratfunc_normalize(num, den)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=50, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == RatFunc.const(0)
    if not b.is_zero():
        assert (a / b) * b == a


@given(ratfuncs(), ratfuncs())
@settings(max_examples=30, deadline=None)
def test_mul_inverse(a, b):
    if a.is_zero():
        return
    assert a * (b / a) == b
