"""Rational functions and reduction modulo square-root relations."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffalg.errors import DegreeOverflow, ZeroDenominator
from diffalg.poly import DEG_MAX, MultiPoly, get_degree_limit
from diffalg.ratfunc import (RatFunc, normal_form, power, quotient,
                             ratfunc_normalize, rationalize, reduce_powers)
from diffalg.tower import Tower
from polys import evaluate, from_dict, monomial

X = MultiPoly.var(0)
S = MultiPoly.var(1)
ONE = MultiPoly.one()

x = RatFunc.var(0)
s = RatFunc.var(1)


def op(o: str, a, b) -> RatFunc:
    """a o b in reduced form: the quotient rules, or for ^ the power rule
    with no relation, then one normalization.  RatFunc has no arithmetic
    of its own."""
    return ratfunc_normalize(*(power(a, b, {}) if o == "^"
                               else quotient(o, a, b)))

def test_normalize_monomial_cancel():
    got = ratfunc_normalize(X * X.scale(2), X.scale(4))
    assert got == op("*", RatFunc.const(Fraction(1, 2)), x)


def test_normalize_linear_factor():
    got = ratfunc_normalize(X * X - ONE, X + ONE)
    assert got == op("-", x, RatFunc.const(1))


def test_normalize_zero_numerator():
    got = ratfunc_normalize(MultiPoly.zero(), X * X + ONE)
    assert got.is_zero()
    assert got.den == ONE


# -- a shared denominator cancels before anything is multiplied ------------

# free of relation generators, as every denominator that reaches quotient
D = X * X + X.scale(3) + ONE


def test_shared_denominator_cancels():
    a, b = X + ONE, X * S - ONE
    assert quotient("+", (a, D), (b, D)) == (a + b, D)
    assert quotient("-", (a, D), (b, D)) == (a - b, D)
    assert quotient("/", (a, D), (b, D)) == (a, b)
    assert quotient("*", (a, D), (b, D)) == (a * b, D * D)
    with pytest.raises(ZeroDenominator, match="division by zero element"):
        quotient("/", (a, D), (MultiPoly.zero(), D))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        ratfunc_normalize(ONE, MultiPoly.zero())
    with pytest.raises(ZeroDenominator):
        op("/", x, RatFunc.const(0))


# -- relations ---------------------------------------------------------------


def rels_s2(radicand: RatFunc) -> dict:
    return {1: radicand}


def test_square_rewrites():
    rels = rels_s2(op("-", op("^", x, 3), x))
    nf = normal_form(S * S, ONE, rels)
    assert nf == op("-", op("^", x, 3), x)


def test_inverse_rationalizes():
    # 1/s with s^2 = x becomes s/x
    rels = rels_s2(x)
    nf = normal_form(ONE, S, rels)
    assert nf == op("/", s, x)


def test_inverse_of_one_plus_s():
    # 1/(1+s) with s^2 = x: multiply through by the conjugate
    rels = rels_s2(x)
    nf = normal_form(ONE, ONE + S, rels)
    want = normal_form((ONE - S), (ONE - X), rels)
    assert nf == want
    # product oracle: (1+s) * nf == 1 modulo the relation
    prod = op("*", RatFunc(ONE + S, ONE), nf)
    diff = op("-", prod, RatFunc.const(1))
    assert normal_form(diff.num, prod.den, rels).is_zero()


def test_zero_numerator_over_a_zero_divisor_is_refused():
    # s^2 = x^2 makes s - x a zero divisor; 0/(s - x) is no element either
    rels = rels_s2(op("^", x, 2))
    with pytest.raises(ZeroDenominator, match="zero divisor"):
        normal_form(MultiPoly.zero(), S - X, rels)


def test_normal_form_idempotent():
    one = RatFunc.const(1)
    rels = rels_s2(op("/", op("-", x, one), op("+", x, one)))
    e = normal_form(S * S * S + X * S + ONE, S + X, rels)
    again = normal_form(e.num, e.den, rels)
    assert e == again


def test_normal_form_degree_one_in_s():
    rels = rels_s2(op("-", op("^", x, 2), RatFunc.const(1)))
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
    assert op("+", op("+", a, b), c) == op("+", a, op("+", b, c))
    assert op("+", a, b) == op("+", b, a)
    assert op("*", a, op("+", b, c)) == op("+", op("*", a, b), op("*", a, c))
    assert op("+", a, (-a.num, a.den)) == RatFunc.const(0)
    if not b.is_zero():
        assert op("*", op("/", a, b), b) == a


@given(ratfuncs(), ratfuncs())
@settings(max_examples=30, deadline=None)
def test_mul_inverse(a, b):
    if a.is_zero():
        return
    assert op("*", a, op("/", b, a)) == b


# -- ratfunc_normalize against sympy's cancel, over two or three generators -
#
# Every gcd of the engine takes the modular coprimality certificate first:
# a hit answers at once, a miss goes on to GCDHEU.  A planted common factor
# makes the misses; the reduced pair must be sympy's, with the denominator
# made monic in the engine's graded-lex order (later generators rank
# higher, so the sympy generators are listed latest first).

NORM_GENS = sympy.symbols("x0:3")
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def polys_over(draw, nvars, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple((g, e) for g in range(nvars)
                     if (e := draw(st.integers(0, 2))))
        terms[mono] = terms.get(mono, 0) + draw(fractions)
    return from_dict({m: c for m, c in terms.items() if c})


@st.composite
def raw_quotients(draw):
    """(num, den, nvars): a raw pair over 2-3 generators, half of them with
    a planted nonconstant common factor."""
    nvars = draw(st.integers(2, 3))
    num, den = draw(polys_over(nvars)), draw(polys_over(nvars))
    if draw(st.booleans()):
        h = draw(polys_over(nvars, max_terms=3).filter(
            lambda h: not h.is_const()))
        num, den = num * h, den * h
    return num, den, nvars


def norm_sympy(p: MultiPoly, nvars: int) -> sympy.Poly:
    gens = NORM_GENS[:nvars][::-1]
    return sympy.Poly(evaluate(p, dict(enumerate(NORM_GENS))), *gens,
                      domain="QQ")


@given(raw_quotients())
@settings(max_examples=100, deadline=None)
def test_normalize_matches_sympy_cancel(case):
    num, den, nvars = case
    if den.is_zero():
        return
    got = ratfunc_normalize(num, den)
    want_num, want_den = norm_sympy(num, nvars).cancel(norm_sympy(den, nvars),
                                                       include=True)
    lc = want_den.LC(order="grlex")
    assert norm_sympy(got.den, nvars) * lc == want_den
    assert norm_sympy(got.num, nvars) * lc == want_num


# -- the power reduction against sympy, over towers of two or three roots ---
#
# sympy's expand and together cannot decide zero for quotients of nested
# roots (they answer "nonzero" for true identities, or run for more than
# a minute),
# so the oracle compares values: x at two rational points, each root the
# sympy.sqrt of its radicand's image there, to 60 digits.  A fold that
# leaves a square behind keeps the value, so the exponents are checked
# apart.

POINTS = (sympy.Rational(7, 3), sympy.Rational(13, 5))


def point_images(rels: dict) -> list:
    """At each of POINTS, an image of every generator: x (gid 0) the
    point, and each root of rels, earliest first, the sqrt of its
    radicand's image.  rels maps a gid to a (num, den) pair."""
    images = []
    for point in POINTS:
        image = {0: sympy.Float(point, 60)}
        for g in sorted(rels):
            rnum, rden = rels[g]
            image[g] = sympy.sqrt(evaluate(rnum, image)
                                  / evaluate(rden, image))
        images.append(image)
    return images


def agree(a, b, images) -> bool:
    """The raw (num, den) pairs a and b are equal at each of images, up to
    rounding far below the 60 digits: na*db = nb*da, cross-multiplied, so
    a denominator that vanishes at a point (a rationalizing conjugate can)
    divides by nothing."""
    (na, da), (nb, db) = a, b
    for image in images:
        va, vb = (evaluate(p, image) * evaluate(q, image)
                  for p, q in ((na, db), (nb, da)))
        if abs(va - vb) > 1e-40 * (1 + abs(va)):
            return False
    return True


# Each tower is a list of (name, radicand builder); a builder takes the
# tower so far.  They hold a nested radicand (z over y), radicands with a
# denominator, and one with both (w over y, over x).  Every radicand is
# positive for x > 1, so every root's image is real.
ROOT_TOWERS = [
    [("y", lambda t: t["x"]), ("z", lambda t: 1 + t["y"])],
    [("y", lambda t: (t["x"] - 1) / (t["x"] + 1)), ("z", lambda t: t["x"])],
    [("y", lambda t: t["x"]), ("z", lambda t: 1 + t["y"]),
     ("w", lambda t: (t["x"] - 1) / (t["x"] + t["y"]))],
    [("y", lambda t: (t["x"] - 1) / (t["x"] + 1)),
     ("z", lambda t: 1 + t["y"]), ("w", lambda t: t["x"] + 2 * t["z"])],
]


def root_tower(shape: list) -> Tower:
    t = Tower.base().var("x")
    for name, radicand in shape:
        t = t.sqrt_ext(name, radicand(t))
    return t


def tower_poly(draw, t: Tower, max_terms: int,
               root_top: int = 5) -> MultiPoly:
    """Up to max_terms terms over t's generators, with root exponents up
    to root_top, so a fold may take g^4 out at once; with root_top 1
    there is no square to fold."""
    p = MultiPoly.zero()
    gids = [g.gid for g in t.generators]
    for _ in range(draw(st.integers(1, max_terms))):
        mono = tuple((g, draw(st.integers(0, root_top if g in t.rels
                                          else 2))) for g in gids)
        p = p + monomial(mono).scale(draw(ints.filter(bool)))
    return p


@st.composite
def root_tower_fractions(draw):
    """A tower of ROOT_TOWERS and a raw num/den pair over it."""
    t = root_tower(draw(st.sampled_from(ROOT_TOWERS)))
    den = tower_poly(draw, t, 2) if draw(st.booleans()) else ONE
    return t, tower_poly(draw, t, 4), den


def conjugate_vanishing_at_a_point():
    """1/(3*y*z^4 + 2*x^2) over ROOT_TOWERS[1]: y = 2/3 at x = 13/5, so
    its normal form, over (x + 1)(3y - 2), reads 0/0 at that point."""
    t = root_tower(ROOT_TOWERS[1])
    y, z = (MultiPoly.var(t.gen_of(n).gid) for n in "yz")
    return t, ONE, (y * z ** 4).scale(3) + (X ** 2).scale(2)


@given(root_tower_fractions())
@example(conjugate_vanishing_at_a_point())
@settings(max_examples=40, deadline=None)
def test_reduction_matches_sympy(case):
    t, num, den = case
    images = point_images(t.rels)
    n, d = reduce_powers(num, den, t.rels)
    for g in t.rels:
        assert n.deg_in(g) <= 1 and d.deg_in(g) <= 1
    try:
        nf = normal_form(num, den, t.rels)
    except ZeroDenominator:  # den is 0 as an element
        assert all(abs(evaluate(den, image)) < 1e-40 for image in images)
        return
    for g in t.rels:
        assert nf.num.deg_in(g) <= 1 and nf.den.deg_in(g) == 0
    assert agree((n, d), (num, den), images)
    assert agree(nf, (num, den), images)


# -- the normal form's gcd over the numerator's coefficients -----------------
#
# After rationalize the denominator holds no root, so normal_form folds it
# with the numerator's coefficients over the roots.  The reduced pair must
# be the one gcd of the whole pair gives, and sympy's, with the roots read
# as independent symbols.  Half of the pairs get a planted common factor
# in x, so the gcd is nontrivial.

SPLIT_TOWERS = [
    [("y", lambda t: t["x"])],
    [("y", lambda t: (t["x"] - 1) / (t["x"] + 1))],
    *ROOT_TOWERS[:2],
]


@st.composite
def split_cases(draw):
    """A one- or two-root tower and a raw num/den pair over it."""
    t = root_tower(draw(st.sampled_from(SPLIT_TOWERS)))
    num, den = tower_poly(draw, t, 4, 2), tower_poly(draw, t, 2, 1)
    if draw(st.booleans()):
        h = draw(polys_over(1, max_terms=3).filter(lambda h: not h.is_const()))
        num, den = num * h, den * h
    return t, num, den


@given(split_cases())
@settings(max_examples=60, deadline=None)
def test_normal_form_gcd_is_the_whole_pairs(case):
    t, num, den = case
    try:
        rnum, rden = rationalize(num, den, t.rels)
    except ZeroDenominator:  # den is 0 or a zero divisor as an element
        return
    got = normal_form(num, den, t.rels)
    assert got == ratfunc_normalize(rnum, rden)
    nvars = 1 + len(t.rels)
    want_num, want_den = norm_sympy(rnum, nvars).cancel(
        norm_sympy(rden, nvars), include=True)
    lc = want_den.LC(order="grlex")
    assert norm_sympy(got.den, nvars) * lc == want_den
    assert norm_sympy(got.num, nvars) * lc == want_num


@st.composite
def fold_cases(draw):
    """A tower of ROOT_TOWERS, whether its pair may hold squares, and a
    raw num/den pair over it."""
    t = root_tower(draw(st.sampled_from(ROOT_TOWERS)))
    squares = draw(st.booleans())
    top = 5 if squares else 1
    den = tower_poly(draw, t, 2, top) if draw(st.booleans()) else ONE
    return t, squares, tower_poly(draw, t, 4, top), den


def normal_or_refused(num, den, rels):
    try:
        return normal_form(num, den, rels)
    except ZeroDenominator:
        return ZeroDenominator


@given(fold_cases())
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_cross_multiplying_the_folds(case):
    # a fold with no square hands its operand back over the unit, and
    # reduce_powers then forms no product; either way the normal form is
    # that of the folded parts cross-multiplied
    t, squares, num, den = case
    (n1, d1), (n2, d2) = num.fold_squares(t.rels), den.fold_squares(t.rels)
    if not squares:
        assert n1 is num and n2 is den and d1 is d2 is ONE
        got = reduce_powers(num, den, t.rels)
        assert got[0] is num and got[1] is den
    assert (normal_or_refused(num, den, t.rels)
            == normal_or_refused(n1 * d2, n2 * d1, t.rels))


def test_nested_radicand_folds_again():
    # z^4 = (1 + y)^2 = 1 + 2y + y^2, and y^2 = x surfaces only after z's
    # fold, so the reduction must look at y again
    t = root_tower(ROOT_TOWERS[0])
    x, y, z = t["x"], t["y"], t["z"]
    Y = MultiPoly.var(t.gen_of("y").gid)
    Z = MultiPoly.var(t.gen_of("z").gid)
    assert z ** 4 == 1 + 2 * y + x
    assert reduce_powers(Z ** 4, ONE, t.rels) == ((1 + 2 * y + x).rf.num,
                                                   ONE)
    assert reduce_powers(ONE, Z ** 4 * Y, t.rels) == (
        ONE, (y * (1 + 2 * y + x)).rf.num)


# -- the square fold, at the edges of the layout ----------------------------


def fold_is_exact(p: MultiPoly, rels: dict) -> bool:
    """p's fold has every relation exponent at most one and p's value."""
    num, den = p.fold_squares(rels)
    return (all(num.deg_in(g) <= 1 and den.deg_in(g) == 0 for g in rels)
            and agree((num, den), (p, ONE), point_images(rels)))


def test_fold_takes_several_squares_over_a_denominator():
    # s^2 = (x - 1)/(x + 1); s^7 loses s^6 at once (H = 3).  rels maps
    # to (num, den) pairs, as a RatFunc unpacks
    rels = {1: (X - ONE, X + ONE)}
    p = S ** 7 + X * S ** 4 + S
    assert p.fold_squares(rels) == (
        S * (X + ONE) ** 3 + X * (X - ONE) ** 2 * (X + ONE)
        + S * (X - ONE) ** 3, (X + ONE) ** 3)
    assert fold_is_exact(p, rels)


def test_fold_at_generator_id_300():
    # t^2 = x and u^2 = 1 + t, with u in the field at bit 300 * W
    T, U = MultiPoly.var(299), MultiPoly.var(300)
    rels = {299: (X, ONE), 300: (ONE + T, ONE)}
    assert (U ** 5).fold_squares(rels) == (
        (ONE + T.scale(2) + X) * U, ONE)
    assert fold_is_exact(U ** 5 * T + U ** 2 * X, rels)


def test_fold_near_the_exponent_field_limit():
    assert get_degree_limit() is None
    top = S ** DEG_MAX
    half = (DEG_MAX - 1) // 2
    assert top.fold_squares({1: (X, ONE)}) == (X ** half * S, ONE)
    assert top.fold_squares({1: (ONE, X)}) == (S, X ** half)
    # x^(3 * half) * s is past the field: refused, never wrapped
    with pytest.raises(DegreeOverflow, match="exponent field"):
        top.fold_squares({1: (X ** 3, ONE)})


# -- the cancelled quotient rules against the cross-multiplied ones --------
#
# Over towers of square roots, with a planted denominator D free of the
# relation generators, cancelling D first must give the same normal form,
# and the same ZeroDenominator, as multiplying it through.  In ZD_SHAPE
# y2 - 2*y1 is a zero divisor, (y2 - 2*y1)(y2 + 2*y1) = 4x - 4x, so a
# divisor that holds it is refused both ways.

ZD_SHAPE = [("y1", lambda t: t["x"]), ("y2", lambda t: 4 * t["x"])]


def cross_multiplied(op: str, a, b):
    """+, - and / before equal denominators cancelled: D goes into both
    sides, and the normal form must find it again by a gcd."""
    (an, ad), (bn, bd) = a, b
    if op == "+":
        return an * bd + bn * ad, ad * bd
    if op == "-":
        return an * bd - bn * ad, ad * bd
    if bn.is_zero():
        raise ZeroDenominator("division by zero element")
    return an * bd, ad * bn


@st.composite
def shared_denominator_cases(draw):
    """(tower, op, p, q, D, planted): p/D op q/D, where planted says that
    q holds the zero divisor y2 - 2*y1."""
    planted = draw(st.booleans())
    t = root_tower(ZD_SHAPE if planted
                   else draw(st.sampled_from(ROOT_TOWERS + [ZD_SHAPE])))
    p, q = tower_poly(draw, t, 3), tower_poly(draw, t, 3)
    if planted:
        q = q * (t["y2"] - 2 * t["y1"]).rf.num
    d = X * X.scale(draw(ints.filter(bool))) + X.scale(draw(ints)) \
        + MultiPoly.const(draw(ints))
    return t, draw(st.sampled_from("+-/")), p, q, d, planted


def normalized(rule, op, a, b, rels):
    try:
        return normal_form(*rule(op, a, b), rels)
    except ZeroDenominator:
        return ZeroDenominator


@given(shared_denominator_cases())
@settings(max_examples=100, deadline=None)
def test_cancelled_shared_denominator_matches_cross_multiplying(case):
    t, o, p, q, d, planted = case
    a, b = (p, d), (q, d)
    got = normalized(quotient, o, a, b, t.rels)
    assert got == normalized(cross_multiplied, o, a, b, t.rels)
    if planted and o == "/":
        assert got is ZeroDenominator


def test_zero_denominator_refusals():
    # a negative power of zero, a zero denominator, and a denominator
    # that only the relation y^2 = x makes zero
    t = Tower.base().var("x")
    with pytest.raises(ZeroDenominator, match="^negative power of zero$"):
        t.zero() ** -1
    with pytest.raises(ZeroDenominator,
                       match="^denominator reduced to zero$"):
        normal_form(ONE, MultiPoly.zero(), {})
    with pytest.raises(ZeroDenominator,
                       match="^denominator is zero modulo the relations$"):
        normal_form(ONE, S * S - X, rels_s2(x))
