"""Points of the p-adic symmetric space, their reduction to the building,
membership in the level covers, and tube coordinates.

A point is a unimodular homogeneous coordinate column over the working
field, normalized so the minimum coordinate valuation is 0 and the first
coordinate attaining it is exactly 1.  The reduction map sends a point to
a pointed simplex with barycentric weights: for each radius c in [0,1) the
covectors a with v(<a,z>) >= c span a lattice, the distinct lattices form
the chain, and the weight of a chain vertex is the length of the radius
interval on which it is constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .building import Lattice, PointedSimplex
# bench/test_bench.py checks that its tracer rebinds inv_scaled here too
from .intlinalg import inv_scaled  # noqa: F401
from .intlinalg import require_int
from .padic import (
    FieldElem,
    _shift_poly,
    linear_form,
    linear_forms,
    normalize_unimodular,
)
from .projpoints import ProjPoint, enumerate_points

MAX_CERTIFY_LEVEL = 6


class SymmetricSpacePoint:
    """Homogeneous coordinates avoiding all Q_p-rational hyperplanes.

    A point computes each section and section valuation once: the profiles
    of several levels, the tube tests of a simplex, of its reduction and of
    its faces all read the same covectors.  The valuation memo holds ints
    in pi-units of the point's field.  Both memos are keyed by the integer
    covector tuple, so a projective point and its lift share an
    entry; a point on a hyperplane or a PrecisionError is never stored and
    raises again on every call.  A third memo holds the spread of each
    level's profile, which both cover tests read."""

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("empty coordinates")
        self.desc = coords[0].desc
        self.coords = normalize_unimodular(coords)
        self._sections = {}
        self._valuations = {}
        self._spreads = {}

    @property
    def dim(self):
        return len(self.coords) - 1

    def section_pi_valuation(self, a):
        """v(<a, z>) in pi-units of the point's field, an int, for an
        integer covector or projective point a."""
        key = tuple(a.lift_vector() if isinstance(a, ProjPoint) else a)
        v = self._valuations.get(key)
        if v is None:
            value = self.section(key)
            if value.exact_zero:
                raise ValueError("point lies on a rational hyperplane")
            v = self._valuations[key] = value.pi_valuation()
        return v

    def section_valuation(self, a):
        """v(<a, z>) as a Fraction, for an integer covector or projective
        point a."""
        return Fraction(self.section_pi_valuation(a), self.desc.e)

    def level_spread(self, level):
        """max - min of pi_profile(self, level), an int in pi-units; the
        level is checked before the memo is read."""
        require_int(level, "a level", least=1)
        spread = self._spreads.get(level)
        if spread is None:
            vals = pi_profile(self, level).values()
            spread = self._spreads[level] = max(vals) - min(vals)
        return spread

    def section(self, a):
        """<a, z> for an integer covector or projective point a."""
        key = tuple(a.lift_vector() if isinstance(a, ProjPoint) else a)
        value = self._sections.get(key)
        if value is None:
            value = self._sections[key] = linear_form(key, self.coords)
        return value

    def apply_matrix(self, g):
        """Move the point by an integer matrix acting on columns."""
        return SymmetricSpacePoint(linear_forms(g, self.coords))

    def to_json(self):
        return {
            "field": self.desc.to_json(),
            "coords": [c.to_json() for c in self.coords],
        }


@dataclass(frozen=True)
class BuildingPoint:
    """Reduction of a point: pointed simplex, barycentric weights aligned
    with the chain, and the level whose sections certified it."""

    simplex: PointedSimplex
    weights: tuple
    certified_level: int

    def to_json(self):
        return {
            "simplex": self.simplex.to_json(),
            "weights": [str(w) for w in self.weights],
            "certified_level": self.certified_level,
        }


def pi_profile(z, level):
    """Section valuations over all canonical level points, as ints in
    pi-units of the point's field."""
    p = z.desc.p
    return {
        a: z.section_pi_valuation(a)
        for a in enumerate_points(p, level, z.dim)
    }


def t_profile(z, level):
    """Section valuations over all canonical level points, as Fractions."""
    e = z.desc.e
    return {a: Fraction(v, e) for a, v in pi_profile(z, level).items()}


def member_open_cover(z, n):
    """Whether every level-n section valuation spread stays below n."""
    return z.level_spread(n) < n * z.desc.e


def member_closed_cover(z, n):
    """Closed variant: spread at most n, certified by level n+1 sections."""
    return z.level_spread(n + 1) <= n * z.desc.e


def reduce_to_building(z, level=None, self_check=True):
    """The reduction map at a certified level.

    With level=None the smallest certifying level up to MAX_CERTIFY_LEVEL
    is chosen.  Raises ValueError when the requested level cannot certify
    the point (valuation spread too large).  Valuations stay ints in
    pi-units: the radius of a section value t is (t mod e)/e, and a
    covector enters the lattice of radius c/e scaled by p^ceil((c-t)/e)."""
    levels = range(1, MAX_CERTIFY_LEVEL + 1) if level is None else [level]
    e = z.desc.e
    for used in levels:
        profile = pi_profile(z, used)
        if max(profile.values()) < used * e:  # min is 0 after normalization
            break
    else:
        raise ValueError(
            "level cannot certify the reduction; the point sits too deep"
        )
    p = z.desc.p
    candidates = sorted({t % e for t in profile.values()})
    lattices = []
    for c in candidates:
        rows = []
        exps = [(a, -((t - c) // e)) for a, t in profile.items()]
        shift = -min(m for _, m in exps)
        for a, m in exps:
            scale = p ** (m + shift)
            rows.append([scale * x for x in a.lift_vector()])
        lattices.append(Lattice.from_rows(p, rows, scale=-shift))
    simplex = PointedSimplex.from_chain(lattices)
    bounds = candidates + [e]
    weights = tuple(
        Fraction(hi - lo, e) for lo, hi in zip(bounds, bounds[1:])
    )
    result = BuildingPoint(simplex, weights, used)
    if self_check and not member_tube(z, simplex, open_tube=True):
        raise AssertionError("reduction output fails its own tube test")
    return result


def tube_test_covectors(sigma):
    """For each chain index i, integer lifts of the classes of M_i/pM_i
    lying outside the image of M_{i+1}, one per projective class.  They
    depend only on the simplex, which computes them once."""
    return sigma.tube_test_covectors


def member_tube(z, sigma, open_tube=True):
    """Tube membership: within each chain layer all test classes share one
    section valuation, and the layer valuations step up through a single
    unit of the point's scale."""
    values = []
    for lifts in tube_test_covectors(sigma):
        vals = {z.section_pi_valuation(a) for a in lifts}
        if len(vals) != 1:
            return False
        values.append(vals.pop())
    for lo, hi in zip(values, values[1:]):
        if not (lo < hi if open_tube else lo <= hi):
            return False
    # one unit of p is e pi-units
    top, bottom = values[-1], values[0] + z.desc.e
    return top < bottom if open_tube else top <= bottom


def tube_coordinates(z, sigma):
    """Coordinates (X_0, ..., X_d) of a point on the tube of sigma.

    In an adapted frame f with section values w_j = <f_j, z>: inside a
    block each coordinate is the ratio to the block leader, each block
    leader is the ratio to the previous leader, and X_0 = p w_{lead 0} /
    w_{lead k}, so the leader coordinates multiply exactly to p."""
    basis = sigma.adapted_basis()
    ds = list(sigma.boundary_indices())
    w = [z.section(f) for f in basis]
    k = sigma.k
    coords = [None] * len(basis)
    p_elem = FieldElem.from_int(z.desc, sigma.p)
    coords[0] = p_elem * w[ds[0]] / w[ds[k]]
    for i in range(1, k + 1):
        coords[ds[i]] = w[ds[i]] / w[ds[i - 1]]
    bounds = ds + [len(basis)]
    for i in range(k + 1):
        for j in range(bounds[i] + 1, bounds[i + 1]):
            coords[j] = w[j] / w[ds[i]]
    return tuple(coords)


def random_unit(desc, rng, j=0):
    """The unit omega^j (1 + pi b), with the e*f digits of b drawn
    uniformly mod p^coeff_exponent.  The digits of 1 + pi b are those of b
    moved up one pi-power, plus 1 at digit 0, which is a multiple of p
    below p^coeff_exponent and so stays reduced: the sum 1 + pi b would
    give the same digits and prec."""
    digits = [rng.randrange(desc.coeff_modulus) for _ in range(desc.e * desc.f)]
    one_plus = list(_shift_poly(desc, digits, 1))
    one_plus[0] += 1
    unit = FieldElem(desc, 0, tuple(one_plus), desc.work_prec)
    return FieldElem.omega_power(desc, j) * unit if j else unit


def tube_sample(sigma, w):
    """The raw point N w, whose adapted-frame sections are D*w for
    (N, D) = sigma.frame_adjugate."""
    n, _ = sigma.frame_adjugate
    return linear_forms(n, w)


def point_in_tube(desc, sigma, rng):
    """Random point in the open tube of sigma, built from the inverse of
    the tube parametrization.

    Block leaders get valuations 1/e (consecutive radii); residues inside a
    block walk through powers of omega, so the field needs e > k and
    f >= max block size."""
    k = sigma.k
    blocks = sigma.type_vector()
    if desc.e < k + 1:
        raise ValueError(f"need ramification > {k} for a length-{k} chain")
    if desc.f < max(blocks):
        raise ValueError(f"need residue degree >= {max(blocks)}")
    w = []
    leader = FieldElem.one(desc)
    for i in range(k + 1):
        if i:
            leader = leader * random_unit(desc, rng).times_pi_power(1)
        w.append(leader)
        w.extend(leader * random_unit(desc, rng, j) for j in range(1, blocks[i]))
    det = FieldElem.from_int(desc, sigma.frame_adjugate[1])
    coords = [c / det for c in tube_sample(sigma, w)]
    # Keep the pointing: scale by a root-of-p power so the minimum coordinate
    # valuation is an integer; normalization then shifts all section
    # valuations by an integer and the radius-0 layer stays at M_0.
    frac = -min(c.pi_valuation() for c in coords) % desc.e
    if frac:
        coords = [c.times_pi_power(frac) for c in coords]
    return SymmetricSpacePoint(coords)
