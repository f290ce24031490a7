"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a tuple of (generator-id, exponent) pairs, sorted by
generator-id, with no zero exponents stored.  A polynomial is a map from
monomials to nonzero Fractions.  Terms are ordered graded-lexicographically
with later generators ranking higher, so the leading term of x + y is y
whenever y was adjoined after x.

This module owns the layout: every scan over monomials is written once,
as a function on the term dict, and the MultiPoly methods are views over
them.  Outside this module only the printer (fmt.py) reads monomials.

GCDs use recursive content/primitive-part elimination over the last
variable.  Coefficients are cleared to integers first, which keeps the
pseudo-remainder sequence cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd as int_gcd
from operator import truediv

from .errors import DegreeOverflow

Monomial = tuple  # tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()

# Optional abort guard: when set, any product whose total degree would
# exceed the limit raises DegreeOverflow.  The CLI sets this; library use
# leaves it off.
_degree_limit: int | None = None


def set_degree_limit(limit: int | None) -> None:
    global _degree_limit
    _degree_limit = limit


def get_degree_limit() -> int | None:
    return _degree_limit


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for g, e in b:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_key(m: Monomial):
    """Graded-lex sort key; later generator-ids are more significant."""
    return (mono_degree(m), tuple(reversed(m)))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b."""
    eb = dict(b)
    return all(eb.get(g, 0) >= e for g, e in a)


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming divisibility."""
    exps = dict(b)
    for g, e in a:
        r = exps[g] - e
        if r:
            exps[g] = r
        else:
            del exps[g]
    return tuple(sorted(exps.items()))


def _dict_add(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _dict_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _dict_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    for mb, cb in b.items():
        # Constant monomial of the shorter factor: no mono_mul.  Measured
        # share of term pairs that take this path: 72 % on cli_roundtrip,
        # 40 % on abel_small, 7 % on l3_pushdown.
        if not mb:
            for ma, ca in a.items():
                m = ma
                s = out.get(m)
                p = ca * cb
                if s is None:
                    out[m] = p
                else:
                    s = s + p
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        else:
            for ma, ca in a.items():
                m = mono_mul(ma, mb)
                s = out.get(m)
                p = ca * cb
                if s is None:
                    out[m] = p
                else:
                    s = s + p
                    if s:
                        out[m] = s
                    else:
                        del out[m]
    return out


def _deg_in(p: dict, gid: int) -> int:
    d = 0
    for m in p:
        for g, e in m:
            if g == gid and e > d:
                d = e
    return d


def _gens_of(p: dict) -> set:
    out = set()
    for m in p:
        for g, _ in m:
            out.add(g)
    return out


def _to_uni(p: dict, gid: int) -> dict:
    """View p as univariate in gid: degree -> coefficient dict."""
    out: dict = {}
    for m, c in p.items():
        deg = 0
        rest = m
        for i, (g, e) in enumerate(m):
            if g == gid:
                deg = e
                rest = m[:i] + m[i + 1:]
                break
        out.setdefault(deg, {})[rest] = c
    return out


def _split_by(p: dict, gids) -> dict:
    """Group p by its monomials in gids: each such monomial maps to the
    dict of the remaining terms that carry it, with it divided out."""
    groups: dict = {}
    for m, c in p.items():
        inside = []
        rest = []
        for g, e in m:
            (inside if g in gids else rest).append((g, e))
        groups.setdefault(tuple(inside), {})[tuple(rest)] = c
    return groups


def _divexact(p: dict, q: dict, cquot) -> dict | None:
    """p / q by long division; None when the division is not exact.

    cquot(c, qc) divides a coefficient by q's leading coefficient and
    returns None when that is inexact (integer coefficients).
    """
    if not p:
        return {}
    if len(q) == 1 and MONO_ONE in q:
        qc = q[MONO_ONE]
        quot = {m: cquot(c, qc) for m, c in p.items()}
        return None if None in quot.values() else quot
    qm = max(q, key=mono_key)
    qc = q[qm]
    rem = dict(p)
    quot = {}
    while rem:
        m = max(rem, key=mono_key)
        if not mono_divides(qm, m):
            return None
        fc = cquot(rem[m], qc)
        if fc is None:
            return None
        fm = mono_div(m, qm)
        quot[fm] = fc
        for m2, c2 in q.items():
            mm = mono_mul(fm, m2)
            s = rem.get(mm)
            if s is None:
                rem[mm] = -fc * c2
            else:
                s -= fc * c2
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
    return quot


class MultiPoly:
    """Immutable-by-convention sparse polynomial over the rationals."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        # Trusted constructor: terms must already be canonical.
        self.terms = terms
        self._hash = None

    @staticmethod
    def from_dict(terms: dict) -> "MultiPoly":
        clean = {}
        for m, c in terms.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c:
                clean[m] = c
        return MultiPoly(clean)

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly({})

    @staticmethod
    def const(q) -> "MultiPoly":
        q = q if isinstance(q, Fraction) else Fraction(q)
        return MultiPoly({MONO_ONE: q} if q else {})

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly({MONO_ONE: Fraction(1)})

    @staticmethod
    def var(gid: int, exp: int = 1) -> "MultiPoly":
        if exp == 0:
            return MultiPoly.one()
        return MultiPoly({((gid, exp),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[MONO_ONE]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def deg_in(self, gid: int) -> int:
        return _deg_in(self.terms, gid)

    def gens(self) -> set:
        return _gens_of(self.terms)

    def leading(self):
        """(monomial, coefficient) of the leading term under graded-lex."""
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(_dict_add(self.terms, other.terms))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(_dict_add(self.terms, _dict_neg(other.terms)))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(_dict_neg(self.terms))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if _degree_limit is not None and self.terms and other.terms:
            if self.degree() + other.degree() > _degree_limit:
                raise DegreeOverflow(
                    f"product degree exceeds limit {_degree_limit}")
        return MultiPoly(_dict_mul(self.terms, other.terms))

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power on a polynomial")
        result = MultiPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, q: Fraction) -> "MultiPoly":
        if not q:
            return MultiPoly({})
        return MultiPoly({m: c * q for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            bits.append(f"{self.terms[m]}*{m}")
        return "MultiPoly(" + " + ".join(bits) + ")"

    def partial(self, gid: int) -> "MultiPoly":
        """Formal partial derivative with respect to one generator."""
        out: dict = {}
        for m, c in self.terms.items():
            for i, (g, e) in enumerate(m):
                if g == gid:
                    if e == 1:
                        nm = m[:i] + m[i + 1:]
                    else:
                        nm = m[:i] + ((g, e - 1),) + m[i + 1:]
                    nc = c * e
                    s = out.get(nm)
                    out[nm] = nc if s is None else s + nc
                    break
        return MultiPoly({m: c for m, c in out.items() if c})

    def conj_gen(self, gid: int) -> "MultiPoly":
        """Substitute g -> -g: negate terms of odd degree in g."""
        out = {}
        for m, c in self.terms.items():
            deg = 0
            for g, e in m:
                if g == gid:
                    deg = e
                    break
            out[m] = -c if deg & 1 else c
        return MultiPoly(out)

    def split_powers(self, gid: int) -> dict:
        """Map exponent-of-gid -> polynomial coefficient (gid removed)."""
        return {k: MultiPoly(d) for k, d in _to_uni(self.terms, gid).items()}

    def split_by(self, gids) -> dict:
        """Map each monomial in gids -> polynomial coefficient (gids removed)."""
        return {k: MultiPoly(d) for k, d in _split_by(self.terms, gids).items()}

    def evaluate(self, values: dict):
        """Evaluate at values[gid]; works for Fractions, floats, complex."""
        total = None
        for m, c in self.terms.items():
            v = c
            for g, e in m:
                v = v * values[g] ** e
            total = v if total is None else total + v
        return 0 if total is None else total


def poly_divexact(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """p / q when the division is exact, else None."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quot = _divexact(p.terms, q.terms, truediv)
    return None if quot is None else MultiPoly(quot)


# ---------------------------------------------------------------------------
# GCD over cleared integer coefficients.

def _int_clear(p: MultiPoly) -> dict:
    """Scale to integer coefficients; returns a mono -> int dict."""
    lcm = 1
    for c in p.terms.values():
        d = c.denominator
        lcm = lcm // int_gcd(lcm, d) * d
    return {m: int(c * lcm) for m, c in p.terms.items()}


def _int_content(p: dict) -> int:
    g = 0
    for c in p.values():
        g = int_gcd(g, abs(c))
        if g == 1:
            break
    return g or 1


def _iquot(c: int, qc: int) -> int | None:
    f, r = divmod(c, qc)
    return None if r else f


def _idivexact(p: dict, q: dict) -> dict:
    """Exact division of integer-coefficient polys (asserts exactness)."""
    quot = _divexact(p, q, _iquot)
    if quot is None:
        raise ArithmeticError("inexact polynomial division")
    return quot


def _from_uni(u: dict, gid: int) -> dict:
    out: dict = {}
    for deg, coeff in u.items():
        if deg == 0:
            for m, c in coeff.items():
                out[m] = out.get(m, 0) + c
        else:
            gm = ((gid, deg),)
            for m, c in coeff.items():
                out[mono_mul(m, gm)] = c
    return {m: c for m, c in out.items() if c}


def _fold_gcd(polys: list) -> dict:
    """GCD of a list of integer-coefficient polys, smallest first."""
    polys = sorted(polys, key=len)
    cont = polys[0]
    for i, coeff in enumerate(polys[1:], start=1):
        if len(cont) == 1 and MONO_ONE in cont:
            # Constant running gcd: only integer content can still shrink.
            g = abs(cont[MONO_ONE])
            for rest in polys[i:]:
                g = int_gcd(g, _int_content(rest))
                if g == 1:
                    break
            return {MONO_ONE: g}
        cont = _igcd(cont, coeff)
    return cont


def _uni_content(u: dict) -> dict:
    """GCD of the polynomial coefficients of a univariate view."""
    if not u:
        return {}
    return _fold_gcd(list(u.values()))


def _content_over(p: dict, vars_out: set) -> dict:
    """GCD of p's coefficients w.r.t. the monomials in vars_out."""
    if not vars_out:
        return p
    return _pos_lc(_fold_gcd(list(_split_by(p, vars_out).values())))


# Coprimality certificate: evaluate all variables but one at random points
# mod a large prime.  If the leading degree in the kept variable survives
# for both polynomials and the univariate images are coprime, the true gcd
# has degree zero in that variable.  Holding for every shared variable this
# proves the gcd is an integer, so the expensive pseudo-remainder sequence
# can be skipped.  Failure of the certificate is never trusted; we just
# fall through to the full computation.

_CERT_PRIME = (1 << 61) - 1
_cert_seed = 0x5EED


def _eval_uni_mod(p: dict, v: int, vals: dict) -> list | None:
    """Image of p in Z_P[v] at vals; None if the leading coeff drops."""
    P = _CERT_PRIME
    degv = _deg_in(p, v)
    coeffs = [0] * (degv + 1)
    cache: dict = {}
    for m, c in p.items():
        d = 0
        acc = c % P
        for g, e in m:
            if g == v:
                d = e
            else:
                key = (g, e)
                pw = cache.get(key)
                if pw is None:
                    pw = pow(vals[g], e, P)
                    cache[key] = pw
                acc = acc * pw % P
        coeffs[d] = (coeffs[d] + acc) % P
    if coeffs[degv] == 0:
        return None
    return coeffs


def _uni_gcd_is_const(a: list, b: list) -> bool:
    """True when gcd of the univariate images over Z_P is constant."""
    P = _CERT_PRIME
    while len(b) > 1:
        inv = pow(b[-1], P - 2, P)
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


def _certify_coprime(p: dict, q: dict, shared: set) -> bool:
    rng = random.Random(_cert_seed)
    for v in shared:
        done = False
        for _ in range(3):
            vals = {g: rng.randrange(2, 1 << 30)
                    for g in (shared | _gens_of(p) | _gens_of(q)) if g != v}
            up = _eval_uni_mod(p, v, vals)
            if up is None:
                continue
            uq = _eval_uni_mod(q, v, vals)
            if uq is None:
                continue
            if len(up) < len(uq):
                up, uq = uq, up
            if _uni_gcd_is_const(up, uq):
                done = True
                break
            return False  # shared root found: almost surely a real factor
        if not done:
            return False
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
                nr[k] = _dict_mul(c, lb)
        for k, c in b.items():
            if k != db:
                kk = k + dr - db
                prod = _dict_neg(_dict_mul(c, lr))
                nr[kk] = _dict_add(nr[kk], prod) if kk in nr else prod
        r = {k: c for k, c in nr.items() if c}
    return r


def _igcd(p: dict, q: dict) -> dict:
    """GCD of integer-coefficient polynomial dicts (sign-normalized)."""
    if not p:
        return _pos_lc(q)
    if not q:
        return _pos_lc(p)
    p_const = len(p) == 1 and MONO_ONE in p
    q_const = len(q) == 1 and MONO_ONE in q
    if p_const or q_const:
        g = int_gcd(_int_content(p), _int_content(q))
        return {MONO_ONE: g}

    gens = _gens_of(p)
    qgens = _gens_of(q)

    # The gcd divides both, so it lives in the shared variables.  Project
    # each input to its content over the variables only it mentions, then
    # eliminate inside the shared ring.
    shared = gens & qgens
    if not shared:
        g = int_gcd(_int_content(p), _int_content(q))
        return {MONO_ONE: g}
    if _certify_coprime(p, q, shared):
        g = int_gcd(_int_content(p), _int_content(q))
        return {MONO_ONE: g}
    if gens - shared:
        return _igcd(_content_over(p, gens - shared), q)
    if qgens - shared:
        return _igcd(p, _content_over(q, qgens - shared))

    v = max(shared)
    up = _to_uni(p, v)
    uq = _to_uni(q, v)
    cp = _uni_content(up)
    cq = _uni_content(uq)
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
            b = {0: {MONO_ONE: 1}}
            break
        rc = _uni_content(r)
        r = {k: _idivexact(c, rc) for k, c in r.items()}
        a, b = b, r
    g = _from_uni({k: _dict_mul(c, cont) for k, c in b.items()}, v)
    return _pos_lc(g)


def _pos_lc(p: dict) -> dict:
    if not p:
        return p
    m = max(p, key=mono_key)
    if p[m] < 0:
        return _dict_neg(p)
    return p


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized to leading coefficient 1."""
    if p.is_zero() and q.is_zero():
        return MultiPoly.zero()
    if p.is_zero():
        return _monic(q)
    if q.is_zero():
        return _monic(p)
    if p.is_const() or q.is_const():
        return MultiPoly.one()
    g = _igcd(_int_clear(p), _int_clear(q))
    return _monic(MultiPoly({m: Fraction(c) for m, c in g.items()}))


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    _, lc = p.leading()
    if lc == 1:
        return p
    return p.scale(1 / lc)
