"""Projective points over Z/p^n: the index sets for hyperplane sections.

A point of P^d(Z/p^n) is a unimodular row vector (some coordinate a unit)
up to scaling by units.  The canonical representative scales the first
unit coordinate to 1; coordinates before it are then divisible by p and
coordinates are reduced into [0, p^n).  Reduction modulo a smaller power
preserves canonical form, so level maps act coordinatewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .intlinalg import matinv_mod, require_int, require_ints, vecmat


def canonicalize(p, n, vec):
    """Canonical representative of a unimodular vector mod p^n."""
    mod = p**n
    v = [c % mod for c in vec]
    for i, c in enumerate(v):
        if c % p:
            inv = pow(c, -1, mod)
            return tuple((inv * x) % mod for x in v)
    raise ValueError("vector is not unimodular")


def canonicalize_last(p, n, vec):
    """Variant normal form: the last unit coordinate is scaled to 1."""
    return canonicalize(p, n, tuple(vec)[::-1])[::-1]


# The representative systems of ProjPoint.lift_vector.
REP_SYSTEMS = ("lex", "revlex")


@dataclass(frozen=True)
class ProjPoint:
    """Canonical point of P^d(Z/p^level)."""

    p: int
    level: int
    rep: tuple

    @staticmethod
    def make(p, level, vec):
        return ProjPoint(p, level, canonicalize(p, level, vec))

    @property
    def dim(self):
        return len(self.rep) - 1

    def reduce(self, m):
        """Image under P^d(Z/p^level) -> P^d(Z/p^m) for m <= level."""
        if not 1 <= m <= self.level:
            raise ValueError(f"cannot reduce level {self.level} to {m}")
        mod = self.p**m
        return ProjPoint(self.p, m, tuple(c % mod for c in self.rep))

    def lift_vector(self, system="lex"):
        """Integer lift in Z^{d+1} according to a representative system.

        "lex": the canonical representative with entries in [0, p^n).
        "revlex": last unit coordinate scaled to 1, entries lifted to the
        centered residues in (-p^n/2, p^n/2].
        """
        if system == "lex":
            return self.rep
        if system == "revlex":
            mod = self.p**self.level
            raw = canonicalize_last(self.p, self.level, self.rep)
            return tuple(c - mod if 2 * c > mod else c for c in raw)
        raise ValueError(f"unknown representative system {system!r}")

    def to_json(self):
        return {"level": self.level, "rep": list(self.rep)}

    @staticmethod
    def from_json(p, obj):
        """The point of a to_json record: TypeError for a record of another
        shape or a value that is not an int (a bool or float is not one),
        ValueError for a level below 1 or a rep that is not unimodular."""
        if not isinstance(obj, dict):
            raise TypeError('a point must be {"level": n, "rep": [...]}')
        level = require_int(obj.get("level"), "a point level", least=1)
        return ProjPoint.make(p, level, require_ints(obj.get("rep"), "a point rep"))


def lift_covector(a):
    """The integer covector of a ProjPoint (its lex lift) or of a sequence
    of ints, as a tuple."""
    return a.lift_vector() if isinstance(a, ProjPoint) else tuple(a)


def _require_shape(n, d):
    require_int(n, "a level", least=1)
    require_int(d, "a dimension", least=0)


def point_count(p, n, d):
    """|P^d(Z/p^n)| in closed form."""
    _require_shape(n, d)
    return p ** ((n - 1) * d) * (p ** (d + 1) - 1) // (p - 1)


def canonical_reps(p, n, d):
    """The canonical representatives of P^d(Z/p^n), checked at the call:
    by pivot (the first unit coordinate, 1), then lexicographically, with
    multiples of p mod p^n before the pivot and any residue after it."""
    _require_shape(n, d)
    mod = p**n
    before, after = range(0, mod, p), range(mod)
    return (
        free[:pivot] + (1,) + free[pivot:]
        for pivot in range(d + 1)
        for free in product(*[before] * pivot, *[after] * (d - pivot))
    )


@lru_cache(maxsize=None, typed=True)
def _point_table(p, n, d):
    """The canonical points of P^d(Z/p^n) as a tuple, built once per
    (p, n, d); typed, so a float or bool argument never reads an int's
    table."""
    return tuple(ProjPoint(p, n, rep) for rep in canonical_reps(p, n, d))


def enumerate_points(p, n, d):
    """All canonical points, in the order of canonical_reps: a new list
    from the table of the shape, which is checked first."""
    _require_shape(n, d)
    return list(_point_table(p, n, d))


def act(g, pt):
    """Left action moving hyperplane indices: a |-> canonical(a g^{-1}).

    With points z transported to g z, this pairing convention keeps the
    linear section attached to a stable: <act(g,a), g z> = <a, z>.
    """
    return act_by_inverse(matinv_mod(g, pt.p, pt.level), pt)


def act_by_inverse(ginv, pt):
    """act(g, pt) from ginv, an inverse of g mod p^level: the mapping step
    that MassZeroVector.transport runs once per point after one inversion."""
    return ProjPoint.make(pt.p, pt.level, vecmat(pt.rep, ginv))

