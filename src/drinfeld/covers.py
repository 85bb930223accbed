"""Points of the p-adic symmetric space, their reduction to the building,
membership in the level covers, and tube coordinates.

A point is a unimodular homogeneous coordinate column over the working
field, normalized so the minimum coordinate valuation is 0 and the first
coordinate attaining it is exactly 1.  The reduction map sends a point to
a pointed simplex with barycentric weights: for each radius c in [0,1) the
covectors a with v(<a,z>) >= c span a lattice, the distinct lattices form
the chain, and the weight of a chain vertex is the length of the radius
interval on which it is constant.

Everything the reduction and the covers need is read from one basis of
Z_p^{d+1} orthogonal for the norm a -> v(<a,z>)
(SymmetricSpacePoint.orthogonal_basis): its d + 1 section valuations t_i
give the depth T = max t_i, which decides the certified level and both
covers, and the lattice of radius c is spanned by the d + 1 vectors
p^ceil((c - t_i)/e) b_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .building import Lattice, PointedSimplex
# bench/test_bench.py checks that its tracer rebinds inv_scaled here too
from .intlinalg import inv_scaled  # noqa: F401
from .intlinalg import require_int, rref_modp
from .padic import (
    FieldElem,
    PrecisionError,
    _extract_unit,
    _shift_poly,
    linear_form,
    linear_forms,
    normalize_unimodular,
)
from .projpoints import enumerate_points, lift_covector

MAX_CERTIFY_LEVEL = 6


class SymmetricSpacePoint:
    """Homogeneous coordinates avoiding all Q_p-rational hyperplanes.

    A point computes each section and section valuation once: the tube
    tests of a simplex, of its reduction and of its faces, and the search
    for the depth, all read the same covectors.  The valuation memo holds
    ints in pi-units of the point's field.  Both memos are keyed by the
    integer covector tuple, so a projective point and its lift share an
    entry; a point on a hyperplane or a PrecisionError is never stored and
    raises again on every call.  A third memo holds the norm-adapted basis
    and its depth (`orthogonal_basis`), which the reduction and both cover
    tests read.  A fourth memo holds the factors of two-point ratios
    (`ratio_power`), keyed by the other point, held by identity, the
    covector and the exponent."""

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("empty coordinates")
        self.desc = coords[0].desc
        self.coords = normalize_unimodular(coords)
        self._sections = {}
        self._valuations = {}
        self._ratios = {}
        # the finished (T, basis, depths) of the adapted-basis search, and
        # the largest cap the depth is known to reach
        self._orthogonal = None
        self._deep_at = 0

    @property
    def dim(self):
        return len(self.coords) - 1

    def section_pi_valuation(self, a):
        """v(<a, z>) in pi-units of the point's field, an int, for an
        integer covector or projective point a."""
        key = lift_covector(a)
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

    def orthogonal_basis(self, cap):
        """(T, basis, depths) if the depth T = max v(<a, z>) over primitive
        integer covectors a, an int in pi-units, is below cap; None if
        T >= cap.  basis is a unimodular integer basis b_0..b_d orthogonal
        for a -> v(<a, z>), and depths[i] = v(<b_i, z>) in pi-units.

        a -> v(<a, z>) is a norm on Q_p^{d+1}, and the building is the
        space of such norms (Goldman-Iwahori, Acta Math. 109, 1963), so
        some Z_p-basis b_0..b_d is orthogonal for it:
        v(sum x_i b_i) = min(e v_p(x_i) + t_i) with t_i = v(<b_i, z>).
        The search starts from the standard basis.  Terms whose t_i differ
        mod e never cancel, and in one class mod e the terms of least
        valuation cancel exactly when the leading digits of their units
        pi^-t_i <b_i, z> in F_q are F_p-dependent.  While some class is
        dependent, the vector b_j of largest t_j in a dependency takes the
        p^((t_j - t_m)/e)-scaled combination of the others that cancels its
        leading digit: t_j rises and the basis stays unimodular.  Once
        every class is independent the basis is orthogonal; then every
        primitive a has a unit coordinate x_i and v(<a, z>) <= t_i, so T is
        the largest t_i and the least is 0 after normalization.

        Levels: the profile over P^d(Z/p^n) has max < n e exactly when
        T < n e, since no primitive covector exceeds T and the canonical
        lift of the deepest b_j is a unit times b_j mod p^n, so its section
        keeps v >= min(T, n e).  Hence the certified level T // e + 1 and
        the covers T < n e (open) and T <= n e (closed).

        Digits: every b_i is primitive, so each t_i read is at most T, and
        the search stops at the first section of valuation >= cap.  A
        section whose digits cannot resolve its valuation stops it too when
        valuation_at_least certifies v >= cap, so the search reads no
        valuation deeper than the profile does, and a point deeper than the
        question gets None, not a PrecisionError.  A larger cap after such
        a stop searches again from the standard basis; the sections and
        their valuations are memoized, so only the cancellation steps rerun."""
        if self._orthogonal is None and cap > self._deep_at:
            self._orthogonal = self._search(cap)
            if self._orthogonal is None:
                self._deep_at = cap
        found = self._orthogonal
        if found is None or found[0] >= cap:
            return None
        return found

    def _search(self, cap):
        """(T, basis, depths) once the adapted basis, started from the
        standard basis, is orthogonal; None as soon as a section certifiably
        reaches cap."""
        if any(c.exact_zero for c in self.coords):
            raise ValueError("point lies on a rational hyperplane")
        n = len(self.coords)
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        depths = [None] * n
        pending = range(n)
        while True:
            for i in pending:
                try:
                    t = self.section_pi_valuation(basis[i])
                except PrecisionError:
                    deep = Fraction(cap, self.desc.e)
                    if not self.section(basis[i]).valuation_at_least(deep):
                        raise
                    return None
                if t >= cap:
                    return None
                # an updated vector still holds its old depth here
                if depths[i] is not None and t <= depths[i]:
                    raise AssertionError("a basis update must raise its depth")
                depths[i] = t
            move = self._cancel_leads(basis, depths)
            if move is None:
                return max(depths), tuple(basis), tuple(depths)
            j, basis[j] = move
            pending = (j,)

    def _lead(self, b, t):
        """The leading digit of the unit pi^-t <b, z> in F_q, for a basis
        vector b of depth t, as f ints mod p: the digits at pi^0 of the
        section's unit part."""
        desc = self.desc
        x = self.section(b)
        unit, _ = _extract_unit(desc, x.coeffs, x.prec, t - x.shift)
        return [c % desc.p for c in unit[:desc.f]]

    def _cancel_leads(self, basis, depths):
        """(j, b_j') for one class mod e whose leading digits are
        F_p-dependent, with b_j' = b_j + sum_m c_m p^((t_j - t_m)/e) b_m
        of valuation above t_j; None when every class is independent."""
        desc = self.desc
        p, e, f = desc.p, desc.e, desc.f
        classes = {}
        for i, t in enumerate(depths):
            classes.setdefault(t % e, []).append(i)
        for group in classes.values():
            if len(group) < 2:
                continue
            rows = [self._lead(basis[i], depths[i]) + [int(i == g) for g in group]
                    for i in group]
            # a row pivoted right of the leads is a dependency among them
            reduced, pivots = rref_modp(rows, p)
            deps = [row[f:] for row, c in zip(reduced, pivots) if c >= f]
            if not deps:
                continue
            x = dict(zip(group, deps[0]))
            j = max((i for i in group if x[i]), key=lambda i: (depths[i], i))
            inv = pow(x[j], -1, p)
            coeffs = {m: x[m] * inv for m in group if m != j and x[m]}
            row = list(basis[j])
            for m, c in coeffs.items():
                scale = c % p * p ** ((depths[j] - depths[m]) // e)
                row = [a + scale * b for a, b in zip(row, basis[m])]
            return j, tuple(row)
        return None

    def section(self, a):
        """<a, z> for an integer covector or projective point a."""
        key = lift_covector(a)
        value = self._sections.get(key)
        if value is None:
            value = self._sections[key] = linear_form(key, self.coords)
        return value

    def ratio_power(self, other, a, m):
        """(<a, self> / <a, other>) ** m for a point other over the same
        field, an integer covector or projective point a and an int m,
        divided and powered once per (other, covector, m).  A value is never
        stored for an exponent that is not an int, so ** refuses it on every
        call, nor for a division or a field mismatch that raises."""
        key = (other, lift_covector(a), m)
        value = self._ratios.get(key)
        if value is None or m.__class__ is not int:
            value = self._ratios[key] = (
                self.section(key[1]) / other.section(key[1])
            ) ** m
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


def t_profile(z, level):
    """Section valuations over all canonical level points, as Fractions:
    a public view, not read by the reduction or the covers, which read
    SymmetricSpacePoint.orthogonal_basis."""
    e = z.desc.e
    return {
        a: Fraction(z.section_pi_valuation(a), e)
        for a in enumerate_points(z.desc.p, level, z.dim)
    }


def member_open_cover(z, n):
    """Whether every level-n section valuation spread stays below n: the
    depth T is below n e."""
    require_int(n, "a level", least=1)
    return z.orthogonal_basis(n * z.desc.e) is not None


def member_closed_cover(z, n):
    """Closed variant, spread at most n (certified by level n+1 sections):
    the depth T is at most n e."""
    require_int(n, "a level", least=1)
    return z.orthogonal_basis(n * z.desc.e + 1) is not None


def reduce_to_building(z, level=None, self_check=True):
    """The reduction map at a certified level.

    With level=None the smallest certifying level up to MAX_CERTIFY_LEVEL
    is chosen: T // e + 1 for the depth T.  Raises ValueError when the
    requested level cannot certify the point (T >= level e, the point sits
    too deep).  Valuations stay ints in pi-units: the radii are the
    classes t_i mod e of the adapted basis, and b_i enters the lattice of
    radius c/e scaled by p^ceil((c - t_i)/e), d + 1 rows per lattice."""
    e = z.desc.e
    if level is not None:
        require_int(level, "a level", least=1)
    cap = (MAX_CERTIFY_LEVEL if level is None else level) * e
    found = z.orthogonal_basis(cap)
    if found is None:
        raise ValueError(
            "level cannot certify the reduction; the point sits too deep"
        )
    depth, basis, depths = found
    used = depth // e + 1 if level is None else level
    p = z.desc.p
    candidates = sorted({t % e for t in depths})
    lattices = []
    for c in candidates:
        exps = [-((t - c) // e) for t in depths]
        shift = -min(exps)
        rows = [[p ** (m + shift) * x for x in b]
                for b, m in zip(basis, exps)]
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
    sample = tube_sample(sigma, w)
    # x * (1 / det) has the shift, digits and prec of x / det
    inv = FieldElem.one(desc) / FieldElem.from_int(desc, sigma.frame_adjugate[1])
    coords = [c * inv for c in sample]
    # Keep the pointing: scale by a root-of-p power so the minimum coordinate
    # valuation is an integer; normalization then shifts all section
    # valuations by an integer and the radius-0 layer stays at M_0.
    frac = -min(c.pi_valuation() for c in coords) % desc.e
    if frac:
        coords = [c.times_pi_power(frac) for c in coords]
    return SymmetricSpacePoint(coords)
