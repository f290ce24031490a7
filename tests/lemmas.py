"""The paper's Lie-theoretic lemmas, checked on the public API.

- chain_rule: the split D = D_below + (D theta) * partial_theta, with
  D_below computed on its own, in the tower with theta read as a constant;
- der_comm: X((Yp) psi(p)) - Y((Xp) psi(p)) = ([X, Y] p) psi(p), with the
  weight's value psi(p) given as an element;
- step1: X phi(Dv, v) = D phi(Xv, v) for the commuting derivation X, on
  the phi values of phi_value.
"""

from diffalg.curves import phi_sum
from diffalg.dsl import TowerDoc, parse_expr, parse_tower, print_tower
from diffalg.tower import (FULL_D, AlgebraicSqrt, CommutingX, ConstParam,
                           PartialD)


def d_below(t, theta, e):
    """D_below e, the derivation that is D below theta and kills theta, as
    an element of t.  It is D in the tower read again with theta declared
    a constant, e carried over by its printed form.  Its domain is that
    of the split: generators up to theta, and square roots (or constants)
    above it."""
    gen = t.gen_of(theta)
    assert all(isinstance(g.kind, (AlgebraicSqrt, ConstParam))
               for g in t.generators if g.gid > gen.gid), \
        f"D_below {gen.name} is undefined on a transcendental above it"
    line = f"gen {gen.name} = "
    lines = print_tower(TowerDoc(t, {})).splitlines()
    assert sum(row.startswith(line) for row in lines) == 1, \
        f"{gen.name} is not a transcendental with its own gen line"
    below = parse_tower("\n".join(f"const {gen.name}" if row.startswith(line)
                                  else row for row in lines)).tower
    got = below.derive(FULL_D, parse_expr(str(e), below))
    return parse_expr(str(got), t)


def chain_rule(t, theta, e) -> bool:
    """D e = D_below e + (D theta) * partial_theta e."""
    gid = t.gen_of(theta).gid
    dtheta = t.derive(FULL_D, t.element(gid))
    return t.derive(FULL_D, e) == (d_below(t, theta, e)
                                   + dtheta * t.derive(PartialD(gid), e))


def der_comm(t, xh, yh, p, psi_p) -> bool:
    """X((Yp) psi(p)) - Y((Xp) psi(p)) = ([X, Y] p) psi(p)."""
    xp, yp = t.derive(xh, p), t.derive(yh, p)
    bracket = t.derive(xh, yp) - t.derive(yh, xp)
    return (t.derive(xh, yp * psi_p)
            == t.derive(yh, xp * psi_p) + bracket * psi_p)


def phi_value(t, term, h):
    """phi(hv, v) with the handle h's derivative in the first slot, as one
    canonical element."""
    return phi_sum(t, h, t.zero(), [(1, term)])


def step1(t, term, k) -> bool:
    """X phi(Dv, v) = D phi(Xv, v) for the commuting derivation at k."""
    x = CommutingX(t.gen_of(k).gid)
    return (t.derive(x, phi_value(t, term, FULL_D))
            == t.derive(FULL_D, phi_value(t, term, x)))
