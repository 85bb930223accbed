"""Integer distributions of total mass zero on P^d(Z/p^n).

These are the finite-level coefficient systems that the product map
integrates: formal Z-linear combinations of projective points whose
coefficients sum to zero.  A family is the tower of a top vector: its
pushforwards to every lower level.
"""

from __future__ import annotations

from .intlinalg import matinv_mod, require_int
from .projpoints import ProjPoint, act_by_inverse, enumerate_points


class MassZeroVector:
    """Z-linear combination of same-level points with total mass zero."""

    def __init__(self, p, level, dim, entries=()):
        """entries: a dict or an iterable of (point, coefficient) pairs; the
        coefficients of a repeated point add up."""
        self.p = p
        self.level = level
        self.dim = dim
        table = {}
        for pt, c in entries.items() if isinstance(entries, dict) else entries:
            if pt.dim != dim:
                raise ValueError(f"a point of dimension {pt.dim} in a "
                                 f"distribution of dimension {dim}")
            if pt.p != p or pt.level != level:
                raise ValueError("distribution entries live at mixed levels")
            table[pt] = table.get(pt, 0) + c
        self._table = {pt: c for pt, c in table.items() if c}
        if sum(self._table.values()) != 0:
            raise ValueError("total mass must be zero")

    @staticmethod
    def dirac_pair(a, b):
        """delta_a - delta_b."""
        return MassZeroVector(a.p, a.level, a.dim, [(a, 1), (b, -1)])

    def coeff(self, pt):
        return self._table.get(pt, 0)

    def items(self):
        """Entries in a deterministic order."""
        return sorted(self._table.items(), key=lambda kv: kv[0].rep)

    def support(self):
        return [pt for pt, _ in self.items()]

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        return (
            isinstance(other, MassZeroVector)
            and (self.p, self.level, self.dim) == (other.p, other.level, other.dim)
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.p, self.level, self.dim, frozenset(self._table.items())))

    def __add__(self, other):
        return MassZeroVector(self.p, self.level, self.dim,
                              [*self._table.items(), *other._table.items()])

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, k):
        require_int(k, "a distribution scalar")
        return MassZeroVector(
            self.p, self.level, self.dim, {pt: k * c for pt, c in self._table.items()}
        )

    def pushforward(self, m):
        """Image under the level map to P^d(Z/p^m): coefficients of a fiber add."""
        return MassZeroVector(self.p, m, self.dim, [
            (pt.reduce(m), c) for pt, c in self._table.items()
        ])

    def transport(self, g):
        """Pushforward along the point action of g, which inverts g mod
        p^level once; the zero vector inverts nothing."""
        ginv = matinv_mod(g, self.p, self.level) if self._table else None
        return MassZeroVector(self.p, self.level, self.dim, [
            (act_by_inverse(ginv, pt), c) for pt, c in self._table.items()
        ])

    def to_json(self):
        return {
            "level": self.level,
            "entries": [
                {"point": pt.to_json(), "coeff": c} for pt, c in self.items()
            ],
        }

    @staticmethod
    def from_json(p, dim, obj):
        """The vector of a to_json record: TypeError for a record of another
        shape or a value that is not an int (a bool or float is not one),
        ValueError for a level below 1 or a vector __init__ refuses."""
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise TypeError('a distribution must be {"level": n, "entries": [...]}')
        level = require_int(obj.get("level"), "a distribution level", least=1)
        entries = []
        for rec in obj["entries"]:
            if not isinstance(rec, dict):
                raise TypeError('an entry must be {"point": {...}, "coeff": c}')
            entries.append((ProjPoint.from_json(p, rec.get("point")),
                            require_int(rec.get("coeff"), "a coefficient")))
        return MassZeroVector(p, level, dim, entries)


def basis_mass_zero(p, n, d):
    """The standard basis delta_x - delta_x0 of the mass-zero lattice, with
    x0 the first canonical point."""
    x0, *rest = enumerate_points(p, n, d)
    return [MassZeroVector.dirac_pair(x, x0) for x in rest]


def random_mass_zero(p, n, d, rng, size=4, coeff_bound=5):
    """Random mass-zero vector supported on `size` distinct points."""
    pts = enumerate_points(p, n, d)
    size = min(size, len(pts))
    support = rng.sample(pts, size)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(size - 1)]
    coeffs.append(-sum(coeffs))
    return MassZeroVector(p, n, d, zip(support, coeffs))


class DistributionFamily:
    """The tower of a top vector: its pushforward to each level below its
    own, so each layer is the pushforward of the one above it."""

    def __init__(self, top):
        self.layers = {n: top.pushforward(n) for n in range(1, top.level)}
        self.layers[top.level] = top

    def at(self, level):
        return self.layers[level]


def random_family(p, top_level, d, rng):
    return DistributionFamily(random_mass_zero(p, top_level, d, rng))
