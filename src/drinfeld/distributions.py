"""Integer distributions of total mass zero on P^d(Z/p^n).

These are the finite-level coefficient systems that the product map
integrates: formal Z-linear combinations of projective points whose
coefficients sum to zero.  Compatible towers across levels (each layer the
pushforward of the next) are bundled as families.
"""

from __future__ import annotations

from .intlinalg import require_int
from .projpoints import ProjPoint, act, enumerate_points


def _sort_key(pt):
    return pt.rep


class MassZeroVector:
    """Z-linear combination of same-level points with total mass zero."""

    def __init__(self, p, level, dim, entries=()):
        self.p = p
        self.level = level
        self.dim = dim
        table = {}
        for pt, c in dict(entries).items():
            if pt.dim != dim:
                raise ValueError(f"a point of dimension {pt.dim} in a "
                                 f"distribution of dimension {dim}")
            if pt.p != p or pt.level != level:
                raise ValueError("distribution entries live at mixed levels")
            if c:
                table[pt] = table.get(pt, 0) + c
        self._table = {pt: c for pt, c in table.items() if c}
        if sum(self._table.values()) != 0:
            raise ValueError("total mass must be zero")

    @staticmethod
    def zero(p, level, dim):
        return MassZeroVector(p, level, dim)

    @staticmethod
    def dirac_pair(a, b):
        """delta_a - delta_b."""
        if a == b:
            return MassZeroVector(a.p, a.level, a.dim)
        return MassZeroVector(a.p, a.level, a.dim, {a: 1, b: -1})

    def coeff(self, pt):
        return self._table.get(pt, 0)

    def items(self):
        """Entries in a deterministic order."""
        return sorted(self._table.items(), key=lambda kv: _sort_key(kv[0]))

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
        self._check_compatible(other)
        table = dict(self._table)
        for pt, c in other._table.items():
            table[pt] = table.get(pt, 0) + c
        return MassZeroVector(self.p, self.level, self.dim, table)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, k):
        require_int(k, "a distribution scalar")
        return MassZeroVector(
            self.p, self.level, self.dim, {pt: k * c for pt, c in self._table.items()}
        )

    def _check_compatible(self, other):
        if (self.p, self.level, self.dim) != (other.p, other.level, other.dim):
            raise ValueError("distributions live at mixed levels")

    def pushforward(self, m):
        """Image under the level map to P^d(Z/p^m): coefficients of a fiber add."""
        table = {}
        for pt, c in self._table.items():
            low = pt.reduce(m)
            table[low] = table.get(low, 0) + c
        return MassZeroVector(self.p, m, self.dim, table)

    def transport(self, g):
        """Pushforward along the point action of g."""
        table = {}
        for pt, c in self._table.items():
            moved = act(g, pt)
            table[moved] = table.get(moved, 0) + c
        return MassZeroVector(self.p, self.level, self.dim, table)

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
        table = {}
        for rec in obj["entries"]:
            if not isinstance(rec, dict):
                raise TypeError('an entry must be {"point": {...}, "coeff": c}')
            pt = ProjPoint.from_json(p, rec.get("point"))
            c = require_int(rec.get("coeff"), "a coefficient")
            table[pt] = table.get(pt, 0) + c
        return MassZeroVector(p, level, dim, table)


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
    return MassZeroVector(p, n, d, dict(zip(support, coeffs)))


class DistributionFamily:
    """Tower of mass-zero vectors indexed by level, each the pushforward of
    the one above it."""

    def __init__(self, layers):
        self.layers = dict(layers)
        levels = sorted(self.layers)
        for lo, hi in zip(levels, levels[1:]):
            if self.layers[hi].pushforward(lo) != self.layers[lo]:
                raise ValueError(f"family incompatible between levels {hi} and {lo}")

    @staticmethod
    def from_top(top, levels):
        layers = {n: top.pushforward(n) for n in levels if n < top.level}
        layers[top.level] = top
        return DistributionFamily(layers)

    def at(self, level):
        return self.layers[level]


def random_family(p, top_level, d, rng):
    top = random_mass_zero(p, top_level, d, rng)
    return DistributionFamily.from_top(top, range(1, top_level + 1))
