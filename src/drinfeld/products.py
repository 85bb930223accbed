"""Finite-level integration of mass-zero vectors into products of linear
forms, their evaluation at points, and their dlog residues along edges.

A formal product is its mass-zero vector mu read as prod_a l_a^{mu(a)}:
the masses are the exponents, and total mass zero makes the product degree
0, so evaluations are independent of the unimodular representative of the
point and no basepoint section is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import member_open_cover
from .distributions import MassZeroVector
from .padic import FieldElem
from .projpoints import REP_SYSTEMS
from .residues import GLOBAL_SIGN, pair_distribution


@dataclass(frozen=True)
class FormalProduct:
    """prod_a l_a^{mu(a)} at the vector's level, with a named representative
    system choosing the unimodular lift of each class."""

    mu: MassZeroVector
    rep_system: str = "lex"

    def __post_init__(self):
        if self.rep_system not in REP_SYSTEMS:
            raise ValueError(f"unknown representative system {self.rep_system!r}")

    @property
    def level(self):
        return self.mu.level

    def to_json(self):
        # the frozen layout: exponents off the first canonical point
        basepoint = (1,) + (0,) * self.mu.dim
        return {
            "level": self.level,
            "basepoint": list(basepoint),
            "rep_system": self.rep_system,
            "factors": [
                {"point": list(a.rep), "exponent": m}
                for a, m in self.mu.items() if a.rep != basepoint
            ],
        }


def alpha_level(mu, rep_system="lex"):
    """The integration map at the vector's level: exponents are the masses."""
    if not isinstance(mu, MassZeroVector):
        raise TypeError("expected a mass-zero vector")
    return FormalProduct(mu, rep_system)


def require_certified_points(points, level):
    """ValueError unless every point lies in the open cover of the level."""
    for z in points:
        if not member_open_cover(z, level):
            raise ValueError(f"point is not certified at level {level}")


def _require_certified(u, points, certified_level):
    if certified_level is None:
        return
    if certified_level >= u.level:
        raise ValueError("need the certificate level below the product level")
    require_certified_points(points, certified_level)


def evaluate_product(u, z, certified_level=None):
    """Evaluate at a point: one division of the positive-exponent product by
    the negative-exponent product.  Degree 0 makes the value representative
    independent."""
    if u.mu.dim != z.dim:
        raise ValueError("the product and the point differ in dimension")
    _require_certified(u, (z,), certified_level)
    desc = z.desc
    num = FieldElem.one(desc)
    den = FieldElem.one(desc)
    for a, m in u.mu.items():
        value = z.section(a.lift_vector(u.rep_system))
        if m > 0:
            num = num * value**m
        else:
            den = den * value**-m
    return num / den


def evaluate_ratio(u, z1, z2, certified_level=None):
    """Value ratio u(z1) / u(z2), accumulated factor by factor.

    Each factor contributes the unit ratio of one section at the two
    points, so no intermediate ever carries the large valuation that the
    single-point value may have; this keeps the digits of the ratio
    resolvable whenever the points share section valuations.  z1 divides
    and powers each factor once per (z2, lift, m) (ratio_power), whose
    negative exponent inverts once; acc.prec never exceeds work_prec, so
    acc * (1 / r) has the shift, digits and prec of acc / r."""
    if not u.mu.dim == z1.dim == z2.dim:
        raise ValueError("the product and the points differ in dimension")
    _require_certified(u, (z1, z2), certified_level)
    acc = FieldElem.one(z1.desc)
    for a, m in u.mu.items():
        acc = acc * z1.ratio_power(z2, a.lift_vector(u.rep_system), m)
    return acc


def dlog_residue(u, sigma, require_local=True):
    """Residue of dlog(u) along a pointed edge: the exponents are the masses,
    so this is the slope pairing of the integrated vector."""
    return pair_distribution(u.mu, sigma, require_local=require_local)


def residue_round_trip(mu, sigma, require_local=True):
    """dlog residue of the integrated vector versus the slope pairing; the
    two sides agree up to the frozen global sign."""
    left = dlog_residue(alpha_level(mu), sigma, require_local=require_local)
    right = GLOBAL_SIGN * pair_distribution(
        mu, sigma, require_local=require_local
    )
    return left, right
