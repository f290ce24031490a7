"""Sparse multivariate polynomials over Q in a packed integer layout.

Monomials.  A monomial is one Python int: the exponent of generator-id k
sits in the W-bit field at bit k*W (W = 16), so x0^2 * x3 is
2 + (1 << 48).  Multiplying monomials is `+` and dividing them is `-`.
No monomial's total degree may pass DEG_MAX = 2**(W-1) - 1.  Then every
field keeps its top bit (the guard bit) clear and never carries into the
next, the total degree is m % (2**W - 1), and a - b is a monomial exactly
when it is nonnegative with every guard bit clear.

Coefficients.  A polynomial is a term dict, monomial -> nonzero int, over
one positive denominator `den` shared by all terms and coprime to their
content.  That pair is canonical, so == and hash are polynomial equality.
No value is changed in place, so MultiPoly.one() is one shared unit:
p * one(), one() * p, p ** 1 and a fold with no square are p itself.

Order.  Terms are ordered graded-lexicographically with later generators
ranking higher, so the leading term of x + y is y whenever y was adjoined
after x.  Later generators sit in higher fields, so the order is the
order of (total degree, packed int).

Degree guard.  Q[gens] is an integral domain, so a product's total degree
is deg a + deg b exactly.  Every product of two nonconstant polynomials,
the gcd code's included, runs in one kernel, _dict_mul, which is given
that degree and raises ExponentOverflow when it passes DEG_MAX, or
DegreeOverflow when it passes the optional limit of set_degree_limit
(a context variable, so it stays with the caller's thread or context).
The check costs O(1) per product, and an exponent never wraps around
into the next field.

This module owns the layout: every scan over monomials is written once,
as a function on the term dict, and the MultiPoly methods are views over
them.  Outside this module only the printer (fmt.py) reads monomials;
split_by hands out its monomials as MultiPolys.

Square-root relations g^2 = r fold in the layout too (fold_squares, the
one reduction under ratfunc.reduce_powers).  One OR over the monomials
(_union) finds every relation generator of exponent 2 or more, since a
field of the OR has a bit above its lowest set exactly then.  Each such
generator is folded in one pass (_halve) that groups the terms by
h = e // 2 and takes g^(2h) out of the packed monomial; the products by
powers of r run in the multiply kernel, under the degree guard.

Exact division runs in heap order.  One long-division loop, _divexact,
does all of it; a max-heap of the remainder's monomials on the graded-lex
key hands it each step's leading term, so no step rescans the remainder
(Monagan & Pearce 2007, CASC).

GCDs run on the integer term dicts (the denominator is a unit over Q),
and _igcd decides each by the first of these steps that settles it.
(1) Operands that share no generator have an integer gcd.  (2) The stop
rule of the modular certificate (_certify_coprime): once the generators
C leave p or q a nonzero coefficient over C free of the other shared
generators, the gcd, free of C, divides that coefficient, so it is an
integer.  C starts as the generators only one operand has, so most
coprime pairs need no image.  (3) Certificate images: C grows by each
shared generator whose univariate images mod a prime, read off the
packed monomials through power tables, are coprime.  (4) Trial
division: the primitive part of the operand with fewer terms, times the
integer gcd of the contents, when it divides the other exactly; this
forms no products.  (5) The heuristic gcd GCDHEU evaluates at large
integers, takes integer gcds, reads the candidate back from xi-adic
digits, and accepts it only when it divides both inputs exactly.  (6)
When GCDHEU gives up (a few evaluation points, or a fixed bit budget on
the evaluated coefficients), recursive content/primitive-part
elimination by pseudo-remainders (PRS) over the last variable gives the
exact answer.  Every recursive content gcd takes the same route.
"""

from __future__ import annotations

import random
from contextvars import ContextVar, Token
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd as int_gcd
from math import isqrt
from operator import or_

from .errors import DegreeOverflow, ExponentOverflow

W = 16
_FIELD = (1 << W) - 1
DEG_MAX = (1 << (W - 1)) - 1

# Optional abort guard: when set, any product whose total degree would
# exceed the limit raises DegreeOverflow.  The CLI sets it for one call
# and restores the caller's; library use leaves it off.  It is context-
# local, so a limit set in one thread or context is not seen in another.
# The pair is (limit, the cap the kernel compares against).
_degree_guard: ContextVar = ContextVar("degree_guard",
                                       default=(None, DEG_MAX))


def set_degree_limit(limit: int | None) -> Token:
    """Set the limit in the current context; the token undoes it."""
    cap = DEG_MAX if limit is None else min(limit, DEG_MAX)
    return _degree_guard.set((limit, cap))


def reset_degree_limit(token: Token) -> None:
    """Restore the limit that set_degree_limit's token replaced."""
    _degree_guard.reset(token)


def get_degree_limit() -> int | None:
    return _degree_guard.get()[0]


def _refuse(deg: int):
    limit = get_degree_limit()
    if limit is not None and deg > limit:
        raise DegreeOverflow(f"product degree exceeds limit {limit}")
    raise ExponentOverflow(f"degree {deg} exceeds the exponent field limit "
                           f"{DEG_MAX}")


def mono_key(m: int):
    """Graded-lex sort key; later generator-ids are more significant."""
    return (m % _FIELD, m)


def mono_items(m: int) -> list:
    """The (gid, exponent) pairs of a monomial, by increasing gid."""
    out = []
    while m:
        shift = ((m & -m).bit_length() - 1) // W * W
        e = (m >> shift) & _FIELD
        out.append((shift // W, e))
        m -= e << shift
    return out


def _guards(nbits: int) -> int:
    """The guard bits of every field that a monomial of nbits touches."""
    n = nbits // W + 1
    return ((1 << (n * W)) - 1) // _FIELD << (W - 1)


def _deg(p: dict) -> int:
    return max((m % _FIELD for m in p), default=-1)


def _lead(p: dict) -> int:
    return max(p, key=mono_key)


def _dict_add(a: dict, ka: int, b: dict, kb: int) -> dict:
    """ka*a + kb*b."""
    if len(a) < len(b):
        a, ka, b, kb = b, kb, a, ka
    out = dict(a) if ka == 1 else {m: c * ka for m, c in a.items()}
    for m, c in b.items():
        if kb != 1:
            c *= kb
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s += c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _dict_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _dict_mul(a: dict, b: dict, deg: int) -> dict:
    """a * b for nonzero a and b, whose total degree is deg = deg a +
    deg b: the one multiply kernel, and the one place that checks the
    degree guard."""
    if deg > _degree_guard.get()[1]:
        _refuse(deg)
    if len(a) < len(b):
        a, b = b, a
    items = iter(b.items())
    mb, cb = next(items)
    out = {ma + mb: ca * cb for ma, ca in a.items()}
    get = out.get
    for mb, cb in items:
        for ma, ca in a.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c} if len(b) > 1 else out


def _imul(a: dict, b: dict) -> dict:
    """a * b for the gcd code, whose term dicts carry no degree."""
    return _dict_mul(a, b, _deg(a) + _deg(b))


def _deg_in(p: dict, gid: int) -> int:
    shift = gid * W
    return max(((m >> shift) & _FIELD for m in p), default=0)


def _union(p: dict) -> int:
    """The OR of p's monomials.  A generator's field is nonzero when it
    occurs in p, and has a bit above its lowest set when some exponent
    of it is 2 or more."""
    return reduce(or_, p, 0)


def _gens_of(p: dict) -> set:
    return {g for g, _ in mono_items(_union(p))}


def _to_uni(p: dict, gid: int) -> dict:
    """View p as univariate in gid: degree -> coefficient dict."""
    shift = gid * W
    out: dict = {}
    for m, c in p.items():
        deg = (m >> shift) & _FIELD
        out.setdefault(deg, {})[m - (deg << shift)] = c
    return out


def _from_uni(u: dict, gid: int) -> dict:
    shift = gid * W
    return {m + (deg << shift): c
            for deg, coeff in u.items() for m, c in coeff.items()}


def _split_by(p: dict, gids) -> dict:
    """Group p by its monomials in gids: each such monomial maps to the
    dict of the remaining terms that carry it, with it divided out."""
    mask = sum(_FIELD << (g * W) for g in gids)
    groups: dict = {}
    for m, c in p.items():
        inside = m & mask
        groups.setdefault(inside, {})[m - inside] = c
    return groups


def _halve(p: dict, gid: int) -> dict:
    """Group p by h = e // 2, e the exponent of gid: each h maps to the
    dict of the terms with that h, with gid^(2h) divided out."""
    shift = gid * W + 1
    half = _FIELD >> 1
    low: dict = {}
    groups = {0: low}
    for m, c in p.items():
        h = m >> shift & half
        if h:
            group = groups.get(h)
            if group is None:
                group = groups[h] = {}
            group[m - (h << shift)] = c
        else:
            low[m] = c
    return groups


def _divexact(p: dict, q: dict) -> dict | None:
    """p / q by long division over the integers; None unless q divides p
    with an integer quotient."""
    if not p:
        return {}
    if len(q) == 1 and 0 in q:
        qc = q[0]
        quot = {}
        for m, c in p.items():
            f, r = divmod(c, qc)
            if r:
                return None
            quot[m] = f
        return quot
    qm = _lead(q)
    qc = q[qm]
    rest = [(m2, c2) for m2, c2 in q.items() if m2 != qm]
    nbits = max(max(p).bit_length(), max(q).bit_length())
    guards = _guards(nbits)
    top = (nbits // W + 1) * W  # every monomial below is under 1 << top
    low = (1 << top) - 1
    # The remainder's monomials wait in a min-heap on -key, where the key
    # (m % _FIELD) << top | m orders like mono_key, so the leading term
    # pops first.  A monomial is pushed each time it enters rem; an entry
    # whose monomial has since cancelled is dropped when it pops.
    rem = dict(p)
    heap = [-((m % _FIELD) << top | m) for m in rem]
    heapify(heap)
    quot = {}
    while heap:
        m = -heappop(heap) & low
        c = rem.pop(m, 0)
        if not c:
            continue
        fm = m - qm
        if fm < 0 or fm & guards:
            return None
        fc, r = divmod(c, qc)
        if r:
            return None
        quot[fm] = fc
        for m2, c2 in rest:
            mm = fm + m2
            s = rem.get(mm)
            if s is None:
                rem[mm] = -fc * c2
                heappush(heap, -((mm % _FIELD) << top | mm))
            else:
                s -= fc * c2
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
    return quot


def _make(terms: dict, den: int = 1, deg: int | None = None) -> "MultiPoly":
    """terms/den in lowest terms, for den > 0."""
    if den != 1:
        g = den
        for c in terms.values():
            g = int_gcd(g, c)
            if g == 1:
                break
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
    return MultiPoly(terms, den, deg)


def _exact(q):
    """q, if it is an int or a Fraction: no float enters a coefficient."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"a coefficient must be an int or a Fraction, not "
                        f"'{type(q).__name__}'")
    return q


class MultiPoly:
    """Sparse polynomial over the rationals, integer terms over one shared
    denominator; never changed in place, so one() is one shared unit."""

    __slots__ = ("terms", "den", "_deg", "_hash")

    def __init__(self, terms: dict, den: int = 1, deg: int | None = None):
        # Trusted constructor: terms/den must already be canonical; deg
        # is the total degree when known.
        self.terms = terms
        self.den = den
        self._deg = deg
        self._hash = None

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly({}, 1, -1)

    @staticmethod
    def const(q) -> "MultiPoly":
        if not _exact(q):
            return MultiPoly.zero()
        return MultiPoly({0: q.numerator}, q.denominator, 0)

    @staticmethod
    def one() -> "MultiPoly":
        return _ONE

    @staticmethod
    def var(gid: int) -> "MultiPoly":
        return MultiPoly({1 << gid * W: 1}, 1, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[0], self.den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self._deg is None:
            self._deg = _deg(self.terms)
        return self._deg

    def deg_in(self, gid: int) -> int:
        return _deg_in(self.terms, gid)

    def gens(self) -> set:
        return _gens_of(self.terms)

    def lead_coeff(self) -> Fraction:
        """The coefficient of the leading term, without its monomial."""
        return Fraction(self.terms[_lead(self.terms)], self.den)

    def _plus(self, sign: int, other: "MultiPoly") -> "MultiPoly":
        """self + sign * other."""
        if not other.terms:
            return self
        if not self.terms:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        if da == db:
            terms = _dict_add(self.terms, 1, other.terms, sign)
        else:
            g = int_gcd(da, db)
            terms = _dict_add(self.terms, db // g, other.terms,
                              sign * (da // g))
            da = da // g * db
        # the leading degree cannot cancel when the two differ
        x, y = self._deg, other._deg
        deg = None if x is None or y is None or x == y else max(x, y)
        return _make(terms, da, deg)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(1, other)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(-1, other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(_dict_neg(self.terms), self.den, self._deg)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self is _ONE or other is _ONE:
            return other if self is _ONE else self
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly.zero()
        if len(b) == 1 and 0 in b:
            return self._times(b[0], other.den)
        if len(a) == 1 and 0 in a:
            return other._times(a[0], self.den)
        deg = self.degree() + other.degree()
        return _make(_dict_mul(a, b, deg), self.den * other.den, deg)

    def _times(self, n: int, d: int) -> "MultiPoly":
        """self * n/d for a nonzero constant n/d in lowest terms, d > 0."""
        if n == 1 and d == 1:
            return self
        return _make({m: c * n for m, c in self.terms.items()},
                     self.den * d, self._deg)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power on a polynomial")
        result, base = _ONE, self
        while k:
            if k & 1:
                result = base if result is _ONE else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, q) -> "MultiPoly":
        if not _exact(q) or not self.terms:
            return MultiPoly.zero()
        return self._times(q.numerator, q.denominator)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.terms.items()), self.den))
        return self._hash

    def __repr__(self) -> str:
        from .fmt import poly_repr  # fmt imports this module
        return poly_repr(self)

    def partial(self, gid: int) -> "MultiPoly":
        """Formal partial derivative with respect to one generator."""
        shift = gid * W
        unit = 1 << shift
        out = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD
            if e:
                out[m - unit] = c * e
        return _make(out, self.den)

    def conj_gen(self, gid: int) -> "MultiPoly":
        """Substitute g -> -g: negate terms of odd degree in g."""
        shift = gid * W
        return MultiPoly({m: -c if (m >> shift) & 1 else c
                          for m, c in self.terms.items()},
                         self.den, self._deg)

    def swap_gens(self, g: int, h: int) -> "MultiPoly":
        """Substitute g <-> h: exchange the two exponent fields."""
        sg, sh = g * W, h * W
        out = {}
        for m, c in self.terms.items():
            d = ((m >> sg) & _FIELD) - ((m >> sh) & _FIELD)
            out[m - (d << sg) + (d << sh)] = c
        return MultiPoly(out, self.den, self._deg)

    def split_by(self, gids) -> dict:
        """Map each monomial in gids, as a MultiPoly, to its polynomial
        coefficient (gids removed)."""
        return {MultiPoly({k: 1}, 1, k % _FIELD): _make(d, self.den)
                for k, d in _split_by(self.terms, gids).items()}

    def fold_squares(self, rels: dict):
        """Rewrite g^2 -> rnum/rden, for (rnum, rden) = rels[g], until every
        generator of rels has exponent at most one; a raw pair (num, den).

        Each radicand rnum/rden may hold only generators earlier than g.
        One OR over the monomials finds every relation generator of
        exponent 2 or more, and each is folded in one pass, latest first:
        with p = sum_h p_h * g^(2h) and H the largest h, p becomes
        sum_h p_h * rnum^h * rden^(H-h) over rden^H.  A fold leaves the
        exponents of earlier generators alone unless the radicand holds a
        relation generator, and only then is the OR taken again.
        """
        squares = sum((_FIELD - 1) << (g * W) for g in rels)
        todo = _union(self.terms) & squares if squares else 0
        num, den = self, _ONE
        while todo:
            gid = (todo.bit_length() - 1) // W
            squares &= (1 << (gid * W)) - 1  # the earlier fields
            todo &= squares
            rnum, rden = rels[gid]
            groups = _halve(num.terms, gid)
            top = max(groups)
            if not top:  # the squares cancelled since the last OR
                continue
            acc = MultiPoly.zero()
            for h, group in groups.items():
                acc = acc + _make(group, num.den) * (rnum ** h
                                                     * rden ** (top - h))
            num = acc
            den = den * rden ** top
            if not (rnum.gens() | rden.gens()).isdisjoint(rels):
                todo = _union(num.terms) & squares
        return num, den


_ONE = MultiPoly({0: 1}, 1, 0)


def _int_content(p: dict) -> int:
    g = 0
    for c in p.values():
        g = int_gcd(g, c)
        if g == 1:
            break
    return g or 1


def _primitive(p: dict, cont: int) -> dict:
    """p over its integer content cont."""
    return p if cont == 1 else {m: c // cont for m, c in p.items()}


def poly_divexact(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """p / q when the division is exact, else None."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    # By Gauss's lemma q divides p over Q exactly when q's primitive part
    # divides p's integer terms over Z.
    cont = _int_content(q.terms)
    quot = _divexact(p.terms, _primitive(q.terms, cont))
    if quot is None:
        return None
    if q.den != 1:
        quot = {m: c * q.den for m, c in quot.items()}
    return _make(quot, p.den * cont)


# ---------------------------------------------------------------------------
# GCD over the integer term dicts.

def _idivexact(p: dict, q: dict) -> dict:
    """Exact division of integer-coefficient polys (asserts exactness)."""
    quot = _divexact(p, q)
    if quot is None:
        raise ArithmeticError("inexact polynomial division")
    return quot


def _fold_gcd(polys) -> dict:
    """GCD of integer-coefficient polys, smallest first; once it is a
    constant, _igcd takes only integer contents."""
    return reduce(_igcd, sorted(polys, key=len))


def _content_over(p: dict, vars_out: set) -> dict:
    """GCD of p's coefficients w.r.t. the monomials in vars_out."""
    return _pos_lc(_fold_gcd(_split_by(p, vars_out).values()))


# Coprimality certificate, in front of GCDHEU: set every generator but v
# to a point mod a large prime.  If the leading coefficient in v
# survives in both polynomials and their images in Z_P[v] are coprime,
# the gcd has degree zero in v: taken primitive over Z (Gauss's lemma),
# its leading coefficient in v divides theirs, so its image keeps its
# degree and divides both images (Geddes, Czapor & Labahn 1992, ch. 7).
# The stop rule: once the certified generators C leave p or q a nonzero
# coefficient over C that holds no uncertified shared generator, the gcd
# is an integer and GCDHEU is skipped.  The gcd lives in the shared
# generators outside C and divides that coefficient, whose generators
# are disjoint from its own, so it is a constant.  C starts as the
# generators only one operand has, which the gcd is free of, so the
# rule is tested once before any image.  A generator that settles it
# on its own is certified first, alone; over one shared generator no
# further stop test runs.  A failure is never trusted.  The images
# are read off the packed monomials: each term indexes one power table
# per generator with its shifted field, and both operands share the
# tables, each as long as its generator's field in their OR.

_CERT_PRIME = (1 << 61) - 1
_cert_seed = 0x5EED


def _seeded_points():
    """The certificate's points, in draw order, from a fresh generator."""
    rng = random.Random(_cert_seed)
    while True:
        yield rng.randrange(2, 1 << 30)


# the first draws, taken once: a call over n generators takes at most
# 3(n - 1) per shared generator, more than these only past nine
_CERT_POINTS = tuple(islice(_seeded_points(), 256))


def _cert_points():
    """The same points as _seeded_points, the first from _CERT_POINTS."""
    yield from _CERT_POINTS
    yield from islice(_seeded_points(), len(_CERT_POINTS), None)


def _power_tables(vals: dict, both: int) -> list:
    """One (shift, table) pair per generator g of vals; the table holds
    vals[g]^e mod P for e up to g's field in the monomial OR both."""
    P = _CERT_PRIME
    out = []
    for g, x in vals.items():
        tab = [1] * ((both >> g * W & _FIELD) + 1)
        for e in range(1, len(tab)):
            tab[e] = tab[e - 1] * x % P
        out.append((g * W, tab))
    return out


def _eval_uni_mod(p: dict, v: int, tabs: list) -> list | None:
    """Image of p in Z_P[v], with the other generators set by tabs, one
    (shift, power table) pair each; None if the leading coeff drops."""
    vshift = v * W
    u: dict = {}
    for m, c in p.items():
        for shift, tab in tabs:
            c *= tab[m >> shift & _FIELD]
        d = m >> vshift & _FIELD
        u[d] = u.get(d, 0) + c
    P = _CERT_PRIME
    top = max(u)
    if u[top] % P == 0:
        return None
    return [u.get(d, 0) % P for d in range(top + 1)]


def _uni_gcd_is_const(a: list, b: list) -> bool:
    """True when gcd of the univariate images over Z_P is constant."""
    P = _CERT_PRIME
    while len(b) > 1:
        inv = pow(b[-1], -1, P)
        r = a[:]
        db = len(b) - 1
        while len(r) - 1 >= db:
            f = r[-1] * inv % P
            if f:
                shift = len(r) - 1 - db
                for i, bc in enumerate(b):
                    r[shift + i] = (r[shift + i] - f * bc) % P
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return False  # b divides a: gcd nonconstant
        a, b = b, r
    return b[0] != 0


def _settles(p: dict, q: dict, cmask: int, rmask: int) -> bool:
    """The stop rule: True when p or q has a nonzero coefficient over the
    generators of cmask that holds none of rmask's, that is, a monomial in
    cmask that only terms free of rmask carry."""
    for r in (p, q):
        free = {m & cmask for m in r if not m & rmask}
        if free and not free <= {m & cmask for m in r if m & rmask}:
            return True
    return False


def _certify_coprime(p: dict, q: dict, shared: set) -> bool:
    """True only when the stop rule or coprime images prove gcd(p, q) an
    integer: the one-sided generators first, then fixed points, three
    tries per generator, in turn until the stop rule holds or every
    shared generator is certified."""
    up, uq = _union(p), _union(q)
    gp, gq = ({g for g, _ in mono_items(u)} for u in (up, uq))  # as _gens_of
    gens = shared | gp | gq
    one = sum(_FIELD << g * W for g in gp ^ gq)  # the gcd is free of these
    if one and _settles(p, q, one, sum(_FIELD << g * W for g in gp & gq)):
        return True
    points = _cert_points()
    order, cmask, rest = shared, one, 0
    if len(shared) > 1:
        masks = {g: _FIELD << g * W for g in shared}
        every = sum(masks.values())
        alone = next((g for g in shared if _settles(
            p, q, one | masks[g], every - masks[g])), None)
        if alone is None:
            rest = every  # no generator settles alone: test from two on
        else:
            order = (alone,)
    for v in order:
        for _ in range(3):
            vals = {g: next(points) for g in gens if g != v}
            tabs = _power_tables(vals, up | uq)
            ip = _eval_uni_mod(p, v, [t for t in tabs if up >> t[0] & _FIELD])
            if ip is None:
                continue
            iq = _eval_uni_mod(q, v, [t for t in tabs if uq >> t[0] & _FIELD])
            if iq is None:
                continue
            if len(ip) < len(iq):
                ip, iq = iq, ip
            if _uni_gcd_is_const(ip, iq):
                break
            return False  # shared root found: almost surely a real factor
        else:
            return False  # the leading coefficient dropped three times
        if rest:
            cmask, rest = cmask | masks[v], rest - masks[v]
            if (rest and cmask != one | masks[v]
                    and _settles(p, q, cmask, rest)):
                return True
    return True


def _pseudo_rem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of univariate views a by b (poly coefficients)."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        nr: dict = {}
        for k, c in r.items():
            if k != dr:
                nr[k] = _imul(c, lb)
        for k, c in b.items():
            if k != db:
                kk = k + dr - db
                prod = _imul(c, lr)
                nr[kk] = (_dict_add(nr[kk], 1, prod, -1) if kk in nr
                          else _dict_neg(prod))
        r = {k: c for k, c in nr.items() if c}
    return r


# Heuristic gcd, GCDHEU (Char, Geddes & Gonnet 1989, J. Symb. Comp. 7;
# Geddes, Czapor & Labahn 1992, Algorithms for Computer Algebra, 7.7).
# Set the highest generator v to an integer xi above 1 + 2*min(|f|, |g|)
# (max-norms of the primitive parts), take the gcd of the images by the
# same method down to integers, and read a candidate back from the
# symmetric xi-adic digits of that gcd.  With xi above that bound, a
# primitive candidate that divides both inputs exactly is their gcd (GCL
# Thm 7.7).  Any other outcome grows xi.  The method gives up (None) after
# _HEU_TRIES values, or before an image coefficient could pass _HEU_BITS,
# and the pseudo-remainder sequence below takes over.

_HEU_TRIES = 6
_HEU_BITS = 1 << 17


def _eval_gen(p: dict, v: int, xi: int) -> dict:
    """p with generator v set to xi."""
    out: dict = {}
    for e, coeff in _to_uni(p, v).items():
        out = _dict_add(out, 1, coeff, xi ** e)
    return out


def _xi_adic(gamma: dict, v: int, xi: int, top: int) -> dict | None:
    """The polynomial whose coefficients of v^0, v^1, ... are the symmetric
    xi-adic digits, in (-xi/2, xi/2], of gamma's coefficients; None when
    that needs a power of v past top."""
    shift = v * W
    half = xi >> 1
    h = {}
    for m, c in gamma.items():
        e = 0
        while c:
            if e > top:
                return None
            c, d = divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                h[m + (e << shift)] = d
            e += 1
    return h


def _heu_gcd(f: dict, g: dict) -> dict | None:
    """gcd(f, g) up to sign by GCDHEU, or None when it gives up."""
    if not f or not g:
        return f or g
    cf, cg = _int_content(f), _int_content(g)
    cont = int_gcd(cf, cg)
    if (len(f) == 1 and 0 in f) or (len(g) == 1 and 0 in g):
        return {0: cont}
    f, g = _primitive(f, cf), _primitive(g, cg)
    v = (max(max(f), max(g)).bit_length() - 1) // W
    df, dg = _deg_in(f, v), _deg_in(g, v)
    nf, ng = max(map(abs, f.values())), max(map(abs, g.values()))
    xi = 2 * min(nf, ng) + 2
    # an image coefficient of p is below |p| * len(p) * xi^deg_v(p)
    bf = nf.bit_length() + len(f).bit_length()
    bg = ng.bit_length() + len(g).bit_length()
    for _ in range(_HEU_TRIES):
        if max(bf + df * xi.bit_length(),
               bg + dg * xi.bit_length()) > _HEU_BITS:
            return None
        gamma = _heu_gcd(_eval_gen(f, v, xi), _eval_gen(g, v, xi))
        if gamma is None:
            return None
        h = _xi_adic(gamma, v, xi, min(df, dg))
        if h:
            h = _primitive(h, _int_content(h))
            if _divexact(f, h) is not None and _divexact(g, h) is not None:
                return {m: c * cont for m, c in h.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _igcd(p: dict, q: dict) -> dict:
    """GCD of integer-coefficient polynomial dicts (sign-normalized)."""
    if not p:
        return _pos_lc(q)
    if not q:
        return _pos_lc(p)
    # The gcd divides both, so it lives in the shared variables; a
    # constant has none.
    gp, gq = _gens_of(p), _gens_of(q)
    shared = gp & gq
    cp, cq = _int_content(p), _int_content(q)
    if not shared or _certify_coprime(p, q, shared):
        return {0: int_gcd(cp, cq)}
    # The gcd is the primitive part h of the smaller operand b times the
    # integer gcd of the contents when h divides the larger, a: tried when
    # b has no generator a lacks.  A b of higher degree in some generator
    # fails in _divexact, mostly at its first step.
    a, b, cb, gb = (p, q, cq, gq) if len(p) >= len(q) else (q, p, cp, gp)
    if gb == shared:
        h = _primitive(b, cb)
        if _divexact(a, h) is not None:
            return _pos_lc({m: c * int_gcd(cp, cq) for m, c in h.items()})
    g = _heu_gcd(p, q)
    return _prs_gcd(p, q) if g is None else _pos_lc(g)


def _prs_gcd(p: dict, q: dict) -> dict:
    """GCD of integer-coefficient polynomial dicts that share a generator,
    by a primitive pseudo-remainder sequence: the exact fallback of
    _igcd."""
    gens = _gens_of(p)
    qgens = _gens_of(q)
    # Project each input to its content over the variables only it
    # mentions, then eliminate inside the shared ring.
    shared = gens & qgens
    if gens - shared:
        return _igcd(_content_over(p, gens - shared), q)
    if qgens - shared:
        return _igcd(p, _content_over(q, qgens - shared))

    v = max(shared)
    up = _to_uni(p, v)
    uq = _to_uni(q, v)
    cp = _fold_gcd(up.values())
    cq = _fold_gcd(uq.values())
    cont = _igcd(cp, cq)
    a = {k: _idivexact(c, cp) for k, c in up.items()}
    b = {k: _idivexact(c, cq) for k, c in uq.items()}
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not r:
            break
        if max(r) == 0:
            # Nonzero v-free remainder: primitive parts are coprime in v.
            b = {0: {0: 1}}
            break
        rc = _fold_gcd(r.values())
        r = {k: _idivexact(c, rc) for k, c in r.items()}
        a, b = b, r
    g = _from_uni({k: _imul(c, cont) for k, c in b.items()}, v)
    return _pos_lc(g)


def _pos_lc(p: dict) -> dict:
    if p and p[_lead(p)] < 0:
        return _dict_neg(p)
    return p


def _monic(p: dict) -> MultiPoly:
    """p over its leading coefficient."""
    lc = p[_lead(p)]
    if lc < 0:
        p, lc = _dict_neg(p), -lc
    return _make(p, lc)


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized to leading coefficient 1."""
    if not (p.terms or q.terms):
        return p
    if p.terms and q.terms and (p.is_const() or q.is_const()):
        return MultiPoly.one()
    return _monic(_igcd(p.terms, q.terms))
