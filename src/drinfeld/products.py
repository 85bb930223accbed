"""Finite-level integration of mass-zero vectors into products of linear
forms, their evaluation at points, and their dlog residues along edges.

A formal product stores integer exponents on hyperplane classes relative to
a basepoint class; since the exponents come from a mass-zero vector the net
degree is 0, so evaluations are independent of the unimodular representative
of the point and basepoint changes only move the value by a constant.
"""

from __future__ import annotations

from .covers import member_open_cover
from .distributions import MassZeroVector
from .padic import FieldElem
from .projpoints import enumerate_points
from .residues import GLOBAL_SIGN, pair_distribution, required_level, slope

REP_SYSTEMS = ("lex", "revlex")


class FormalProduct:
    """prod_a (l_a / l_{basepoint})^{exponent_a} at a fixed level, with a
    named representative system choosing the unimodular lift of each class."""

    def __init__(self, p, level, dim, basepoint, factors, rep_system="lex"):
        if rep_system not in REP_SYSTEMS:
            raise ValueError(f"unknown representative system {rep_system!r}")
        self.p = p
        self.level = level
        self.dim = dim
        self.basepoint = basepoint
        self.factors = {a: m for a, m in factors.items() if m and a != basepoint}
        self.rep_system = rep_system
        for a in self.factors:
            if (a.p, a.level, a.dim) != (p, level, dim):
                raise ValueError("factor class at the wrong level")

    def net_exponents(self):
        """Exponent of every linear form, basepoint included; sums to 0."""
        out = dict(self.factors)
        out[self.basepoint] = out.get(self.basepoint, 0) - sum(
            self.factors.values()
        )
        return {a: m for a, m in out.items() if m}

    def degree(self):
        return sum(self.net_exponents().values())

    def __mul__(self, other):
        if (self.p, self.level, self.dim, self.basepoint, self.rep_system) != (
            other.p, other.level, other.dim, other.basepoint, other.rep_system
        ):
            raise ValueError("products live on different windows")
        merged = dict(self.factors)
        for a, m in other.factors.items():
            merged[a] = merged.get(a, 0) + m
        return FormalProduct(
            self.p, self.level, self.dim, self.basepoint, merged,
            self.rep_system,
        )

    def __eq__(self, other):
        return isinstance(other, FormalProduct) and (
            self.p, self.level, self.dim, self.basepoint,
            self.factors, self.rep_system,
        ) == (
            other.p, other.level, other.dim, other.basepoint,
            other.factors, other.rep_system,
        )

    def to_json(self):
        return {
            "level": self.level,
            "basepoint": list(self.basepoint.rep),
            "rep_system": self.rep_system,
            "factors": [
                {"point": list(a.rep), "exponent": m}
                for a, m in sorted(self.factors.items(), key=lambda t: t[0].rep)
            ],
        }


def alpha_level(mu, rep_system="lex"):
    """The integration map at the vector's level: exponents are the masses,
    relative to the first canonical point."""
    if not isinstance(mu, MassZeroVector):
        raise TypeError("expected a mass-zero vector")
    basepoint = enumerate_points(mu.p, mu.level, mu.dim)[0]
    factors = {a: c for a, c in mu.items() if a != basepoint}
    return FormalProduct(
        mu.p, mu.level, mu.dim, basepoint, factors, rep_system
    )


def evaluate_product(u, z, certified_level=None):
    """Evaluate at a point: one division of the positive-exponent product by
    the negative-exponent product.  Degree 0 makes the value representative
    independent."""
    if certified_level is not None:
        if certified_level >= u.level:
            raise ValueError("need the certificate level below the product level")
        if not member_open_cover(z, certified_level):
            raise ValueError("point is not certified at the requested level")
    desc = z.desc
    num = FieldElem.one(desc)
    den = FieldElem.one(desc)
    for a, m in u.net_exponents().items():
        value = z.section(a.lift_vector(u.rep_system))
        for _ in range(abs(m)):
            if m > 0:
                num = num * value
            else:
                den = den * value
    return num / den


def evaluate_ratio(u, z1, z2, certified_level=None):
    """Value ratio u(z1) / u(z2), accumulated factor by factor.

    Each factor contributes the unit ratio of one section at the two
    points, so no intermediate ever carries the large valuation that the
    single-point value may have; this keeps the digits of the ratio
    resolvable whenever the points share section valuations."""
    if certified_level is not None:
        if certified_level >= u.level:
            raise ValueError("need the certificate level below the product level")
        for z in (z1, z2):
            if not member_open_cover(z, certified_level):
                raise ValueError("point is not certified at the requested level")
    acc = FieldElem.one(z1.desc)
    for a, m in u.net_exponents().items():
        lift = a.lift_vector(u.rep_system)
        ratio = z1.section(lift) / z2.section(lift)
        for _ in range(abs(m)):
            acc = acc * ratio if m > 0 else acc / ratio
    return acc


def dlog_residue(u, sigma, require_local=True):
    """Residue of dlog(u) along a pointed edge: exponent-weighted slopes."""
    if require_local and u.level < required_level(sigma):
        raise ValueError(
            f"level {u.level} cannot resolve this edge; "
            f"need at least {required_level(sigma)}"
        )
    return sum(
        m * slope(a, sigma) for a, m in u.net_exponents().items()
    )


def residue_round_trip(mu, sigma, require_local=True):
    """dlog residue of the integrated vector versus the slope pairing; the
    two sides agree up to the frozen global sign."""
    left = dlog_residue(alpha_level(mu), sigma, require_local=require_local)
    right = GLOBAL_SIGN * pair_distribution(
        mu, sigma, require_local=require_local
    )
    return left, right
