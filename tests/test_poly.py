"""Sparse multivariate polynomials: arithmetic, gcd, degree guard."""

import random
import threading
from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import cli, poly
from diffalg.curves import check_abel_identity
from diffalg.errors import DegreeOverflow
from diffalg.poly import (MultiPoly, get_degree_limit, poly_divexact,
                          poly_gcd, set_degree_limit)
from polys import evaluate, from_dict, lead_mono, monomial

X = MultiPoly.var(0)
Y = MultiPoly.var(1)
ONE = MultiPoly.one()


def monic(p: MultiPoly) -> MultiPoly:
    return p.scale(1 / p.lead_coeff())


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


def _divexact_matches_sympy(p: MultiPoly, q: MultiPoly, gids) -> bool:
    """poly_divexact(p, q) against sympy's div over the generators gids;
    True when the division was exact."""
    syms = {g: sympy.Symbol(f"g{g}") for g in gids}
    as_sympy = lambda e: sympy.Poly(evaluate(e, syms), *syms.values(),
                                    domain="QQ")
    quot, rem = sympy.div(as_sympy(p), as_sympy(q))
    got = poly_divexact(p, q)
    assert (got is None) == (not rem.is_zero)
    if got is not None:
        assert as_sympy(got) == quot
    return got is not None


def test_divexact():
    p = (X + Y) * (X - Y)
    assert poly_divexact(p, X + Y) == X - Y
    assert poly_divexact(p, X + ONE) is None
    assert poly_divexact(MultiPoly.zero(), X) == MultiPoly.zero()
    # y^4 + x^2 y^2 + x^4 over y^2 + x y + x^2: the first step cancels
    # the remainder's x^2 y^2, and the second brings it back, so its
    # first heap entry is stale when it pops
    q = Y * Y + X * Y + X * X
    p = Y ** 4 + X * X * Y * Y + X ** 4
    assert poly_divexact(p, q) == Y * Y - X * Y + X * X
    assert _divexact_matches_sympy(p, q, (0, 1))
    # the same division with a stray x is inexact, which shows only when x
    # pops, after those cancellations
    assert poly_divexact(p + X, q) is None
    assert not _divexact_matches_sympy(p + X, q, (0, 1))
    # generators 300 fields apart: x0^2 leads x300 by total degree, though
    # x300 sits in the higher field, so the heap must order by the
    # graded-lex key across fields
    a, b = MultiPoly.var(0), MultiPoly.var(300)
    q = a * a + b
    p = q * (b * b - a ** 3 + ONE)
    assert poly_divexact(p, q) == b * b - a ** 3 + ONE
    assert _divexact_matches_sympy(p, q, (0, 300))
    assert not _divexact_matches_sympy(p + b ** 3, q, (0, 300))


@pytest.mark.parametrize("p, q", [
    (X, X * X),
    (X * Y + ONE, X * X * Y),
    (Y ** 3 - X, (X + Y) ** 2 * X * Y),
], ids=["monomials", "one-term-more", "larger-divisor"])
def test_divexact_refuses_a_divisor_of_higher_degree_at_once(monkeypatch,
                                                              p, q):
    # q's leading monomial cannot divide p's, and the total degrees show
    # it before any content, primitive part or long division
    long_division = []
    monkeypatch.setattr(poly, "_divexact",
                        lambda *args: long_division.append(args))
    assert poly_divexact(p, q) is None
    assert not long_division
    assert not _divexact_matches_sympy(p, q, (0, 1))


def test_partial_and_evaluate():
    p = X * X * Y + X.scale(3)  # x^2 y + 3x
    assert p.partial(0) == X * Y * MultiPoly.const(2) + MultiPoly.const(3)
    assert p.partial(1) == X * X
    assert evaluate(p, {0: Fraction(2), 1: Fraction(5)}) == Fraction(26)


def test_split_by_one_generator():
    p = X * X * Y + X * Y + Y
    parts = p.split_by((0,))
    assert set(parts) == {X * X, X, ONE}
    assert all(part == Y for part in parts.values())


# -- the shared unit, its short-circuits and the cached degree ----------------


def test_products_with_the_unit_return_the_other_operand():
    p = X * Y + ONE
    assert ONE is MultiPoly.one()
    assert p * ONE is p and ONE * p is p
    assert p ** 1 is p
    assert p ** 0 is ONE
    assert p ** 5 == p * p * p * p * p


def test_the_unit_is_unchanged_after_use(tmp_path, capsys):
    assert check_abel_identity("f").passed
    tower, form = tmp_path / "t.tower", tmp_path / "f.form"
    tower.write_text("var x = d/dx 1\ngen s = sqrt(x)\n")
    form.write_text("v0 = s\nterm 1 * log(x)\n")
    assert cli.main(["verify", str(tower), "--integrand", "1/(2*s) + 1/x",
                     "--form", str(form)]) == 0
    assert "PASS" in capsys.readouterr().out
    unit = MultiPoly.one()
    assert (unit.terms, unit.den, unit.degree()) == ({0: 1}, 1, 0)


def test_degree_after_a_cancelling_sum_is_recomputed():
    a, b = X * X + X, X * X
    assert (a.degree(), b.degree()) == (2, 2)  # both cached before the sum
    assert (a - b).degree() == 1
    assert (a + Y ** 3 - Y ** 3).degree() == 2
    assert (a + Y).degree() == 2  # the larger degree cannot cancel


def test_refusals_of_the_layout():
    with pytest.raises(ValueError, match="negative power on a polynomial"):
        X ** -1
    assert repr(MultiPoly.zero()) == "MultiPoly(0)"
    assert MultiPoly.zero().const_value() == 0
    with pytest.raises(ZeroDivisionError,
                       match="division by the zero polynomial"):
        poly_divexact(X, MultiPoly.zero())


def test_repr_shows_a_coefficient_past_the_digit_limit_by_its_bits():
    # str(int) refuses past the interpreter's 4300 digits; repr must not
    assert repr(X.scale(Fraction(-3, 2)) + MultiPoly.const(Fraction(1, 7))) \
        == "MultiPoly(-3/2*((0, 1),) + 1/7*())"
    assert repr(X * MultiPoly.const(2 ** 20000)) \
        == "MultiPoly(<20001-bit integer>*((0, 1),))"
    assert repr(X.scale(Fraction(-3, 2 ** 20000))) \
        == "MultiPoly(-3/<20001-bit integer>*((0, 1),))"


@pytest.mark.parametrize("make", [
    lambda: MultiPoly.const(0.1),
    lambda: MultiPoly.const(1).scale(0.1),
], ids=["const", "scale"])
def test_a_float_coefficient_is_refused(make):
    # only an int or a Fraction enters a coefficient; 0.1 would keep its
    # binary fraction, and scale failed with an AttributeError
    with pytest.raises(TypeError, match="^a coefficient must be an int or a "
                                        "Fraction, not 'float'$"):
        make()


def test_degree_limit_guard():
    set_degree_limit(4)
    try:
        with pytest.raises(DegreeOverflow):
            (X + ONE) ** 5
        (X + ONE) ** 4  # at the limit is fine
    finally:
        set_degree_limit(None)
    assert get_degree_limit() is None


def test_degree_limit_is_local_to_a_thread():
    seen = {}

    def other():
        seen["limit"] = get_degree_limit()
        seen["degree"] = ((X + ONE) ** 5).degree()
        set_degree_limit(2)  # stays in this thread

    token = set_degree_limit(4)
    try:
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen == {"limit": None, "degree": 5}
        assert get_degree_limit() == 4
        with pytest.raises(DegreeOverflow):
            (X + ONE) ** 5
    finally:
        poly.reset_degree_limit(token)
    assert get_degree_limit() is None


# -- randomized properties ---------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=0, max_value=2)


@st.composite
def polys(draw, max_terms=3, nvars=2):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        mono = ()
        for gid in range(nvars):
            e = draw(exps)
            if e:
                mono += ((gid, e),)
        c = draw(coeffs)
        if c == 0:
            continue
        terms[mono] = terms.get(mono, 0) + c
    return from_dict({m: Fraction(c) for m, c in terms.items() if c})


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
        assert g1.lead_coeff() == 1


@given(polys(max_terms=5, nvars=3), st.sets(st.integers(0, 2)))
@settings(max_examples=60, deadline=None)
def test_split_by_regroups_to_p(p, gids):
    total = MultiPoly.zero()
    for mono, coeff in p.split_by(gids).items():
        assert monomial(lead_mono(mono)) == mono  # one term, coefficient 1
        assert mono.gens() <= gids
        assert not coeff.gens() & gids
        total = total + mono * coeff
    assert total == p


# -- sympy as an independent oracle, over three variables -------------------

GENS = sympy.symbols("x0:3")


def to_sympy(p: MultiPoly) -> sympy.Poly:
    return sympy.Poly(evaluate(p, dict(enumerate(GENS))), *GENS, domain="QQ")


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


def _guarded_gcd_inputs():
    # inputs of degree 7 and 6 whose pseudo-remainder sequence multiplies
    # up to degree 10
    g = X * Y + ONE
    return g, g * (X ** 3 * Y ** 2 + X + ONE), g * (X ** 3 * Y + ONE)


def test_degree_limit_bounds_the_gcd_pseudo_remainders():
    # the heuristic gcd forms no products, so the guard is seen on the
    # pseudo-remainder fallback called directly
    g, p, q = _guarded_gcd_inputs()
    assert poly._prs_gcd(p.terms, q.terms) == g.terms
    set_degree_limit(7)
    try:
        with pytest.raises(DegreeOverflow):
            poly._prs_gcd(p.terms, q.terms)
        assert poly_gcd(p, q) == g
    finally:
        set_degree_limit(None)


def test_gcd_falls_back_past_the_bit_budget(monkeypatch):
    g, p, q = _guarded_gcd_inputs()
    prems = []
    pseudo_rem = poly._pseudo_rem
    monkeypatch.setattr(poly, "_pseudo_rem",
                        lambda a, b: prems.append(1) or pseudo_rem(a, b))
    assert poly_gcd(p, q) == g and prems == []
    monkeypatch.setattr(poly, "_HEU_BITS", 4)
    got = poly_gcd(p, q)
    assert prems and got == g
    assert to_sympy(got) == sympy.gcd(to_sympy(p), to_sympy(q)).monic()
    set_degree_limit(7)
    try:
        with pytest.raises(DegreeOverflow):
            poly_gcd(p, q)
    finally:
        set_degree_limit(None)


# -- the packed kernel against sympy, over sparse and large generator ids ----

SPARSE_GIDS = (0, 1, 5, 40, 400)
SPARSE_GENS = {g: sympy.Symbol(f"g{g}") for g in SPARSE_GIDS}
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def glex_key(mono):
    """Graded lex on tuple monomials, later generator-ids more significant."""
    return (sum(e for _, e in mono), tuple(reversed(mono)))


@st.composite
def sparse_terms(draw, max_terms=4, coeffs=rationals):
    """{tuple monomial: nonzero coefficient} over a few of SPARSE_GIDS."""
    gids = sorted(draw(st.sets(st.sampled_from(SPARSE_GIDS), min_size=1,
                               max_size=3)))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple((g, e) for g in gids if (e := draw(exps)))
        terms[mono] = terms.get(mono, 0) + draw(coeffs)
    return {m: c for m, c in terms.items() if c}


def sparse_sympy(p: MultiPoly) -> sympy.Poly:
    return sympy.Poly(evaluate(p, SPARSE_GENS), *SPARSE_GENS.values(),
                      domain="QQ")


@given(sparse_terms(), sparse_terms())
@settings(max_examples=60, deadline=None)
def test_kernel_arithmetic_matches_sympy(a, b):
    p, q = from_dict(a), from_dict(b)
    sp, sq = sparse_sympy(p), sparse_sympy(q)
    assert sparse_sympy(p * q) == sp * sq
    assert sparse_sympy(p + q) == sp + sq
    assert sparse_sympy(p - q) == sp - sq
    for g, sym in SPARSE_GENS.items():
        assert sparse_sympy(p.partial(g)) == sp.diff(sym)
    if not q.is_zero():
        assert poly_divexact(p * q, q) == p
        quot, rem = sp.div(sq)
        got = poly_divexact(p, q)
        assert (got is None) == (not rem.is_zero)
        if got is not None:
            assert sparse_sympy(got) == quot


big_ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


@given(sparse_terms(coeffs=big_ints), sparse_terms(coeffs=big_ints),
       sparse_terms(max_terms=3, coeffs=big_ints))
@settings(max_examples=60, deadline=None)
def test_gcd_over_sparse_generators_matches_sympy(a, b, c):
    # each operand draws its own generators, so one often holds generators
    # the other lacks; r is a planted common factor
    r = from_dict(c)
    p, q = from_dict(a) * r, from_dict(b) * r
    g = sparse_sympy(poly_gcd(p, q))
    want = sympy.gcd(sparse_sympy(p), sparse_sympy(q))
    if want.is_zero:
        assert g.is_zero
    else:
        assert g.monic() == want.monic()


@given(sparse_terms(max_terms=6))
@settings(max_examples=60, deadline=None)
def test_leading_is_the_graded_lex_maximum(terms):
    if not terms:
        return
    m = max(terms, key=glex_key)
    p = from_dict(terms)
    assert (lead_mono(p), p.lead_coeff()) == (m, terms[m])


@given(sparse_terms(), rationals.filter(bool))
@settings(max_examples=60, deadline=None)
def test_scaling_round_trip_is_canonical(terms, q):
    p = from_dict(terms)
    back = p.scale(q).scale(1 / q)
    assert back == p and hash(back) == hash(p)
    # built term by term, the same polynomial has the same representation
    summed = MultiPoly.zero()
    for mono, c in terms.items():
        summed = summed + monomial(mono).scale(c)
    assert summed == p and hash(summed) == hash(p)


@pytest.mark.parametrize("gid", [0, 40, 400])
def test_exponent_past_the_field_raises(gid):
    assert get_degree_limit() is None
    g = MultiPoly.var(gid)
    top = g ** poly.DEG_MAX  # the largest exponent held
    assert top.degree() == poly.DEG_MAX
    assert g ** (poly.DEG_MAX - 1) * g == top
    with pytest.raises(DegreeOverflow, match="exponent field"):
        top * g
    with pytest.raises(DegreeOverflow, match="exponent field"):
        top * MultiPoly.var(0 if gid else 1)
    with pytest.raises(DegreeOverflow, match="exponent field"):
        (g ** 20000 + ONE) ** 2
    with pytest.raises(DegreeOverflow, match="exponent field"):
        g ** (poly.DEG_MAX + 1)


# -- the modular coprimality certificate in front of GCDHEU -----------------

P = poly._CERT_PRIME


def image_by_pow(terms: dict, v: int, vals: dict):
    """The image of terms ({tuple monomial: int}) in Z_P[v] at vals, one
    pow(val, e, P) per factor of each term; None when the leading
    coefficient in v vanishes there."""
    coeffs = {}
    for mono, c in terms.items():
        acc = c % P
        for g, e in mono:
            if g != v:
                acc = acc * pow(vals[g], e, P) % P
        d = dict(mono).get(v, 0)
        coeffs[d] = (coeffs.get(d, 0) + acc) % P
    top = max(coeffs)
    return None if coeffs[top] == 0 else [coeffs.get(d, 0)
                                          for d in range(top + 1)]


def kernel_image(terms: dict, v: int, vals: dict):
    p = from_dict(terms).terms
    return poly._eval_uni_mod(p, v,
                              poly._power_tables(vals, poly._union(p)))


@st.composite
def image_cases(draw):
    """Terms on 3-4 generators with big coefficients, a kept generator v
    and a point mod P for each other generator (0 and 1 included)."""
    gids = draw(st.sampled_from([(0, 1, 2), (0, 1, 2, 3), (1, 5, 40),
                                 (0, 5, 40, 400)]))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        mono = tuple((g, e) for g in gids if (e := draw(st.integers(0, 5))))
        terms[mono] = draw(st.integers(-10 ** 30, 10 ** 30).filter(bool))
    v = draw(st.sampled_from(gids))
    vals = {g: draw(st.integers(0, P - 1)) for g in gids if g != v}
    return terms, v, vals


@given(image_cases())
@settings(max_examples=150, deadline=None)
def test_certificate_image_matches_term_by_term_pow(case):
    terms, v, vals = case
    assert kernel_image(terms, v, vals) == image_by_pow(terms, v, vals)


def test_certificate_image_is_none_when_the_leading_coefficient_vanishes():
    # (x1 - 7) x0^2 + (x2 - 5) x0 + x3 in Z_P[x0]
    terms = {((0, 2), (1, 1)): 1, ((0, 2),): -7, ((0, 1), (2, 1)): 1,
             ((0, 1),): -5, ((3, 1),): 1}
    assert kernel_image(terms, 0, {1: 7, 2: 9, 3: 4}) is None
    assert kernel_image(terms, 0, {1: 8, 2: 5, 3: 4}) == [4, 0, 1]
    assert kernel_image(terms, 0, {1: 8, 2: 9, 3: 0}) == [0, 4, 1]
    # points are read mod P
    assert kernel_image(terms, 0, {1: 7 + P, 2: 5, 3: 4}) is None


def gens_of(p: MultiPoly) -> set:
    return poly._gens_of(p.terms)


def images_seen(monkeypatch) -> list:
    seen = []
    image = poly._eval_uni_mod
    monkeypatch.setattr(poly, "_eval_uni_mod",
                        lambda *args: seen.append(image(*args)) or seen[-1])
    return seen


@given(polys(max_terms=4, nvars=3), polys(max_terms=4, nvars=3),
       polys(max_terms=3, nvars=3))
@settings(max_examples=80, deadline=None)
def test_certificate_refuses_a_planted_common_factor(p, q, h):
    if p.is_zero() or q.is_zero() or h.is_const():
        return
    a, b = p * h, q * h
    shared = gens_of(a) & gens_of(b)
    assert not poly._certify_coprime(a.terms, b.terms, shared)


def test_certificate_goes_past_an_image_that_misses_the_factor(monkeypatch):
    # p = (w + 1)(v + 1), q = (w + 1)(v + 2), v = x0 and w = x1: the image
    # in v is coprime, but every coefficient over {v} holds w, so the stop
    # rule must not fire, and the image in w finds the root -1
    w1 = Y + ONE
    p, q = w1 * (X + ONE), w1 * (X + MultiPoly.const(2))
    seen = images_seen(monkeypatch)
    assert not poly._certify_coprime(p.terms, q.terms, {0, 1})
    assert len(seen) == 4
    assert poly_gcd(p, q) == w1


@st.composite
def free_of_v(draw, max_terms=3):
    """A polynomial in x1 and x2 only, free of v = x0."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple((g, e) for g in (1, 2) if (e := draw(exps)))
        terms[mono] = terms.get(mono, 0) + draw(coeffs)
    return from_dict({m: c for m, c in terms.items() if c})


@st.composite
def monic_in_v(draw):
    """v^d plus lower powers of v = x0 over coefficients free of v."""
    d = draw(st.integers(1, 2))
    p = X ** d
    for k in range(d):
        p = p + draw(free_of_v()) * X ** k
    return p


@given(monic_in_v(), monic_in_v(), free_of_v())
@settings(max_examples=80, deadline=None)
def test_certificate_refuses_a_factor_free_of_the_first_generator(p, q, h):
    # p and q are coprime and monic in v, so their images in v are coprime
    # and keep their leading coefficient; the stop rule alone keeps the
    # certificate from a hit on (p*h, q*h)
    if h.is_const() or not sympy.gcd(to_sympy(p), to_sympy(q)).is_ground:
        return
    a, b = p * h, q * h
    shared = gens_of(a) & gens_of(b)
    assert not poly._certify_coprime(a.terms, b.terms, shared)


def test_certificate_points_are_the_seeded_draws():
    # past the drawn-once tuple too
    rng = random.Random(poly._cert_seed)
    n = len(poly._CERT_POINTS) + 40
    assert (list(islice(poly._cert_points(), n))
            == [rng.randrange(2, 1 << 30) for _ in range(n)])


@given(polys(max_terms=4, nvars=3), polys(max_terms=4, nvars=3))
@settings(max_examples=120, deadline=None)
def test_certificate_hits_only_coprime_pairs(p, q):
    shared = gens_of(p) & gens_of(q)
    if shared and poly._certify_coprime(p.terms, q.terms, shared):
        assert sympy.gcd(to_sympy(p), to_sympy(q)).is_ground


@st.composite
def over(draw, gids, max_terms=3):
    """A polynomial over the generators gids that holds each of them."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = tuple((g, e) for g in gids if (e := draw(exps)))
        terms[mono] = terms.get(mono, 0) + draw(coeffs)
    p = from_dict({m: c for m, c in terms.items() if c})
    if gens_of(p) != set(gids):
        p = p + monomial(tuple((g, 1) for g in gids))
    return p


@given(over((0, 1)), over((1, 2)), over((1,)))
@settings(max_examples=80, deadline=None)
def test_one_sided_rule_refuses_a_planted_factor(p, q, h):
    # x0 is only in a and x2 only in b, so the stop rule is tested on them
    # before any image; the common factor h in x1 must keep it from a hit
    if h.is_const():
        return
    a, b = p * h, q * h
    shared = gens_of(a) & gens_of(b)
    assert shared == {1}
    assert not poly._certify_coprime(a.terms, b.terms, shared)
    got, want = to_sympy(poly_gcd(a, b)), sympy.gcd(to_sympy(a), to_sympy(b))
    assert not want.is_ground and got.monic() == want.monic()


def test_one_sided_rule_certifies_without_an_image(monkeypatch):
    # x0 only in p, whose x0-free coefficient over x0 is the integer 3:
    # the gcd, which lives in x1, divides 3
    p, q = X * Y + MultiPoly.const(3), Y * Y + Y + ONE
    seen = images_seen(monkeypatch)
    assert poly._certify_coprime(p.terms, q.terms, {1}) and seen == []


def test_trial_division_returns_the_content_gcd(monkeypatch):
    # gcd(6h, 4h*a) = 2h, found by dividing 4h*a by h, the primitive part
    # of the operand with fewer terms, with no GCDHEU
    def refuse(f, g):
        raise AssertionError("GCDHEU ran")

    monkeypatch.setattr(poly, "_heu_gcd", refuse)
    h = X * X + Y + ONE
    a = X - Y + MultiPoly.const(3)
    p, q = (h * MultiPoly.const(6)).terms, (h * a * MultiPoly.const(4)).terms
    want = (h * MultiPoly.const(2)).terms
    assert poly._igcd(p, q) == want and poly._igcd(q, p) == want


@given(over((0, 1)), over((0, 1)), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_trial_division_matches_sympy(h, a, c, d):
    # whenever the trial divides, it alone answers, with the integer
    # content of the gcd, which the monic poly_gcd would not show
    if h.is_const():
        return
    over_z = lambda e: to_sympy(MultiPoly(e)).set_domain(sympy.ZZ)
    p = (h * MultiPoly.const(c)).terms
    q = (h * a * MultiPoly.const(d)).terms
    want = sympy.gcd(over_z(p), over_z(q))
    assert over_z(poly._igcd(p, q)) in (want, -want)


def test_a_failed_trial_falls_through_to_gcdheu(monkeypatch):
    # q = h*(x0 + 2) has fewer terms than p = h*(x0^2 + x1 + 3) and no
    # higher degree, so it is tried as a divisor; it does not divide, and
    # GCDHEU finds h
    h = X + Y + ONE
    p = h * (X * X + Y + MultiPoly.const(3))
    q = h * (X + MultiPoly.const(2))
    trials, heu = [], []
    divexact, gcdheu = poly._divexact, poly._heu_gcd
    monkeypatch.setattr(poly, "_divexact", lambda *args: trials.append(
        divexact(*args)) or trials[-1])
    monkeypatch.setattr(poly, "_heu_gcd", lambda *args: heu.append(
        gcdheu(*args)) or heu[-1])
    assert poly._igcd(p.terms, q.terms) == h.terms
    assert trials[0] is None and heu and heu[0] is not None
    assert to_sympy(h) == sympy.gcd(to_sympy(p), to_sympy(q))


def test_trial_division_tries_the_operand_of_lower_degree(monkeypatch):
    # x0^2 + 2 and x0^3 + 2 x0 have two terms each: by term count alone the
    # cubic was tried as the divisor, failed, and GCDHEU ran; by total
    # degree first the quadratic is tried and divides the cubic
    p, q = X * X + MultiPoly.const(2), X * X * X + MultiPoly.const(2) * X
    heu = []
    gcdheu = poly._heu_gcd
    monkeypatch.setattr(poly, "_heu_gcd", lambda *args: heu.append(args)
                        or gcdheu(*args))
    for a, b in ((p, q), (q, p)):
        assert poly_gcd(a, b) == p
    assert not heu


# -- one-term operands: one scan for the gcd and the exact division ----------

# sympy's sparse rings over the generators of SPARSE_GIDS: its dense Poly
# would take minutes on exponents near DEG_MAX
RING_Z = sympy.ring([f"g{g}" for g in SPARSE_GIDS], sympy.ZZ)
RING_Q = sympy.ring([f"g{g}" for g in SPARSE_GIDS], sympy.QQ)


def in_ring(p: MultiPoly, ring):
    r, *gens = ring
    return r(evaluate(p, dict(zip(SPARSE_GIDS, gens))))


@st.composite
def wide_monomials(draw):
    """A tuple monomial over up to three of SPARSE_GIDS, 400 among them
    often, whose exponents reach near DEG_MAX over their count."""
    gids = draw(st.sets(st.sampled_from(SPARSE_GIDS), max_size=3))
    cap = poly.DEG_MAX // max(len(gids), 1)
    return tuple((g, e) for g in sorted(gids) if (e := draw(
        st.one_of(st.integers(0, 3), st.integers(cap - 3, cap)))))


int_coeffs = st.integers(-36, 36)


@st.composite
def one_term_and_other(draw):
    """A one-term polynomial, a constant at times, with a nonzero integer
    coefficient, and up to four terms that may share its monomials or be
    none at all."""
    p = from_dict({draw(wide_monomials()): draw(int_coeffs.filter(bool))})
    monos = st.one_of(wide_monomials(), st.just(lead_mono(p)))
    q = from_dict(draw(st.dictionaries(monos, int_coeffs, max_size=4)))
    return p, q


@given(one_term_and_other())
@settings(max_examples=120, deadline=None)
def test_one_term_gcd_matches_sympy(pair):
    p, q = pair
    # over Z the gcd keeps the integer content, with a positive coefficient
    want = in_ring(p, RING_Z).gcd(in_ring(q, RING_Z))
    for a, b in ((p, q), (q, p)):
        got = poly._igcd(a.terms, b.terms)
        assert len(got) == 1 and next(iter(got.values())) > 0
        assert in_ring(MultiPoly(got), RING_Z) in (want, -want)
        assert in_ring(poly_gcd(a, b), RING_Q) == want.set_ring(
            RING_Q[0]).monic()


@given(one_term_and_other())
@settings(max_examples=120, deadline=None)
def test_one_term_division_matches_sympy(pair):
    p, q = pair
    quot, rem = in_ring(q, RING_Q).div(in_ring(p, RING_Q))
    got = poly_divexact(q, p)
    assert (got is None) == bool(rem)
    assert got is None or in_ring(got, RING_Q) == quot
    # over Z, a coefficient that p's does not divide refuses the division
    quot, rem = in_ring(q, RING_Z).div(in_ring(p, RING_Z))
    got = poly._divexact(q.terms, p.terms)
    assert (got is None) == bool(rem)
    assert got is None or in_ring(MultiPoly(got), RING_Z) == quot
    if not q.is_zero() and p.degree() + q.degree() <= poly.DEG_MAX:
        assert poly_divexact(p * q, p) == q
        assert poly._divexact((p * q).terms, p.terms) == q.terms


@pytest.mark.parametrize("p, q", [
    (MultiPoly.var(1), X),  # x1 - x0 borrows across a field
    (X * Y, Y * Y),  # so does x0 x1 - x1^2, though the degrees are equal
    (X ** 5 * Y, X ** 6),
    (X * X, MultiPoly.var(400)),  # the divisor's field is above p's
    (X * MultiPoly.var(400), MultiPoly.var(5)),  # and inside p's range
    (X.scale(Fraction(3)) + Y.scale(Fraction(4)), X.scale(Fraction(2))),
], ids=["borrow", "borrow-equal-degree", "borrow-into-x1", "higher-field",
        "missing-field", "one-term-misses"])
def test_one_term_division_is_refused(p, q):
    assert poly._divexact(p.terms, q.terms) is None
    assert not _divexact_matches_sympy(p, q, sorted(
        poly._gens_of(p.terms) | poly._gens_of(q.terms)))


def test_one_term_gcd_keeps_the_integer_content():
    p = (X * X).scale(Fraction(6)).terms
    for q, want in ((X.scale(Fraction(4)) + (X * Y).scale(Fraction(10)),
                     X.scale(Fraction(2))),
                    (X.scale(Fraction(4)) + Y.scale(Fraction(10)),
                     MultiPoly.const(2)),
                    (X.scale(Fraction(-4)), X.scale(Fraction(2))),
                    (MultiPoly.zero(), (X * X).scale(Fraction(6)))):
        assert poly._igcd(p, q.terms) == want.terms
        assert poly._igcd(q.terms, p) == want.terms


def test_one_term_operands_take_no_certificate_gcdheu_or_heap(monkeypatch):
    # pairs that share generators, which the certificate and GCDHEU would
    # take on, and divisions that an exact quotient or a refusal ends
    def refuse(*args):
        raise AssertionError("a one-term operand reached the general path")

    for name in ("_certify_coprime", "_heu_gcd", "heapify", "heappush"):
        monkeypatch.setattr(poly, name, refuse)
    m = (X * X * Y).scale(Fraction(-6))
    other = (X * X + X * Y + ONE) * X * Y.scale(Fraction(4))
    assert poly_gcd(m, other) == X * Y and poly_gcd(other, m) == X * Y
    assert poly_gcd(m, MultiPoly.const(3)) == ONE
    assert poly_gcd(m, m * X) == X * X * Y
    assert poly_divexact(other, X * Y) == (X * X + X * Y + ONE).scale(
        Fraction(4))
    assert poly_divexact(other, X * X) is None
    assert poly_divexact(other, MultiPoly.const(8)) == other.scale(
        Fraction(1, 8))


@pytest.mark.parametrize("kinds, hits, misses, images",
                         [(("f", "e", "w1"), 9, 4, 22),
                          (("pi",), 3, 2, 10)],
                         ids=["f-e-w1", "pi"])
def test_certificate_decisions_on_the_abel_identities(monkeypatch, kinds,
                                                     hits, misses, images):
    # pins every hit and miss, so a change to the image kernel, the seed or
    # the draw order shows here before it shows in the benchmark counts,
    # and the images they took, so a stop rule that stops later shows too.
    # The clearing splits its denominator factors by exact division and
    # takes no gcd, so every gcd left is a normal form's: of the group
    # laws, the sum point's phi shapes and abel_step (f-e-w1 28, 3, 36 and
    # pi 49, 4, 48 while a coprime basis took a gcd of each pair of factors
    # that shared a generator; pi 49, 2, 124 before its conjugate log
    # numerators shared one part over their norm).  A normal form folds
    # its denominator with the numerator's coefficients over the relation
    # generators (f-e-w1 16, 2, 20 and pi 14, 1, 24 with one gcd of the
    # whole pair): each of the three nontrivial gcds misses once per
    # coefficient it folds, two each, and four w1 coefficients share no
    # generator with the denominator, so they need no certificate.  The
    # stop rule starts from the generators only one operand has, so 5 of
    # the f-e-w1 hits and 10 of pi's took no image (9 and 5 before).  A
    # gcd with a one-term operand is the monomial of least exponents and
    # takes no certificate (f-e-w1 12, 4, 24 and pi 14, 2, 12 before), so
    # 3 of the f-e-w1 hits and none of pi's are left without an image
    seen = []
    certify = poly._certify_coprime
    monkeypatch.setattr(poly, "_certify_coprime",
                        lambda *args: seen.append(certify(*args)) or seen[-1])
    taken = images_seen(monkeypatch)
    for kind in kinds:
        assert check_abel_identity(kind).passed
    assert (seen.count(True), seen.count(False)) == (hits, misses)
    assert len(taken) == images


# -- gcd branches that the identities above never reach -----------------------

# P x0^2 y + x0 + 1: its leading coefficient in x0 vanishes mod P at every
# point, so each certificate try on x0 is skipped
DROPS = MultiPoly.const(P) * X * X * Y + X + ONE


@pytest.mark.parametrize("first", [True, False])
def test_certificate_declines_when_the_leading_coefficient_drops(monkeypatch,
                                                                first):
    # the dropping operand first or second: three tries skipped, then the
    # for-else declines, and GCDHEU decides
    q = X * X - Y
    a, b = (DROPS, q) if first else (q, DROPS)
    seen = images_seen(monkeypatch)
    assert not poly._certify_coprime(a.terms, b.terms, {0})
    images = seen if first else seen[1::2]
    assert images == [None] * 3 and len(seen) == (3 if first else 6)
    assert poly_gcd(a, b) == ONE


@given(polys(nvars=2))
@settings(max_examples=30, deadline=None)
def test_gcd_stays_exact_when_the_certificate_declines(h):
    if h.is_const():
        return
    for a, b in ((DROPS * h, (X + Y) * h), ((X - ONE) * h, DROPS * h)):
        got, want = poly_gcd(a, b), sympy.gcd(to_sympy(a), to_sympy(b))
        assert to_sympy(got).monic() == want.monic()


@pytest.mark.parametrize("p, q", [
    # x1 only in p: p is projected to its content over x1 first
    ((X + ONE) * (Y + MultiPoly.const(2)),
     (X + ONE) * (X + MultiPoly.const(3))),
    # x1 only in q
    ((X - ONE) * (X + ONE), (X - ONE) * (Y * Y + X)),
    # coprime in x0: the pseudo-remainder turns x0-free, content 2 is left
    ((X * X + ONE).scale(Fraction(2)), (X + ONE).scale(Fraction(2))),
    # the same inside the shared ring of x0 and x1
    (X * X * Y + ONE, X * Y + Y + ONE),
])
def test_prs_gcd_branches_match_sympy(p, q):
    got = to_sympy(poly._monic(poly._prs_gcd(p.terms, q.terms)))
    assert got.monic() == sympy.gcd(to_sympy(p), to_sympy(q)).monic()
