"""Residue slopes along edges of the building, their pairing with mass-zero
vectors, and an independent valuation-sampling oracle.

For a pointed edge (a chain M_0 > M_1 > pM_0) the valuation of a linear form
l_a along the open edge tube is affine in the edge parameter with integer
slope 0 or 1.  The combinatorial rule computes that slope by one valuation
and one membership test: it is 1 exactly when a lies in p^m M_1 for
m = v_{M_0}(a), the largest m with a in p^m M_0, which is when the class of
the normalized covector p^{-m} a in M_0/pM_0 lies in the image of M_1.
Since pM_0 < M_1 < M_0, this is the valuation jump 1 + v_{M_1}(a) - m.
The oracle measures the slope by evaluating section valuations at two
interior points over a ramified cubic extension and never consults the
combinatorial rule.
"""

from __future__ import annotations

import random

from .building import PointedSimplex
from .covers import SymmetricSpacePoint, member_tube, random_unit, tube_sample
from .distributions import MassZeroVector
# bench/test_bench.py checks that its tracer rebinds inv_scaled here too
from .intlinalg import inv_scaled  # noqa: F401
from .intlinalg import require_int, require_ints
from .padic import FieldDesc, PrecisionError, linear_forms
from .projpoints import ProjPoint, enumerate_points, lift_covector

# Calibrated once on the ramified edge at p=2, d=1 and frozen: the residue of
# dlog of an exponent product equals +1 times the slope pairing of the
# underlying mass-zero vector.
GLOBAL_SIGN = 1


def _require_edge(sigma):
    if sigma.k != 1:
        raise ValueError("residue slopes are defined for edges (chains of 2)")


def slope(a, sigma):
    """Growth rate in {0,1} of v(<a,z>) along the pointed edge parameter.

    Combinatorial rule: 1 exactly when a lies in p^m M_1 for
    m = v_{M_0}(a).  The normalized covector p^{-m} a has a class mod p in
    the image of M_1 exactly when it lies in M_1 (which contains pM_0).
    This is the valuation jump 1 + v_{M_1}(a) - v_{M_0}(a), since
    pM_0 < M_1 < M_0 leaves v_{M_1}(a) only m and m - 1.  ValueError for
    the zero covector, which has no valuation."""
    _require_edge(sigma)
    a = lift_covector(a)
    m0, m1 = sigma.lattices
    return 1 if m1.holds(a, m0.valuation(a)) else 0


def lambda_edge(sigma, a, b):
    """Residue of dlog(l_b/l_a) along the pointed edge: slope(b) - slope(a).

    Each covector must be a ProjPoint or a list of dim+1 ints, not all zero:
    this checks it, slope on the hot path does not."""
    for x in (a, b):
        if not isinstance(x, ProjPoint):
            require_ints(x, "a covector", size=sigma.dim + 1)
    return slope(b, sigma) - slope(a, sigma)


def required_level(sigma):
    """Smallest level whose classes determine slopes on this edge.

    A covector lift with a unit coordinate keeps its normalized class mod p
    under perturbations of order det-exponent + 1."""
    return sigma.lattices[0].det_exponent + 1


def _oracle_desc(p, sigma, e_oracle):
    """The oracle field of an edge, one object per shape (FieldDesc)."""
    k0 = sigma.lattices[0].det_exponent
    f = max(sigma.type_vector())
    return FieldDesc(p, e_oracle, f, e_oracle * (8 + 3 * k0))


def _oracle_points(sigma, desc, rng):
    """Two interior tube samples at edge parameters 1/e and 2/e: the raw
    covers.tube_sample of generic units, those of block 1 lifted by pi^step.

    A sample stays raw, N·w for (N, D) = sigma.frame_adjugate: projective
    normalization would shift its section valuations by a
    parameter-dependent constant, and the integer D that a solve divides
    out shifts those of both samples by v(D), which cancels in the slope.
    The oracle reads the adapted frame only, never the combinatorial slope
    rule."""
    d1 = sigma.boundary_indices()[1]
    samples = []
    for step in (1, 2):
        w = [random_unit(desc, rng, j) for j in range(sigma.dim + 1)]
        w[d1:] = [u.times_pi_power(step) for u in w[d1:]]
        samples.append(tube_sample(sigma, w))
    return samples


def oracle_slope_table(sigma, covectors, e_oracle=3, rng=None,
                       check_membership=True):
    """Map covector -> integer slope, measured from section valuations at two
    sampled points; independent of the combinatorial rule."""
    _require_edge(sigma)
    # two interior parameters 1/e and 2/e need e >= 3
    require_int(e_oracle, "the oracle ramification e_oracle", least=3)
    rng = rng if rng is not None else random.Random(2718)
    desc = _oracle_desc(sigma.p, sigma, e_oracle)
    raw1, raw2 = _oracle_points(sigma, desc, rng)
    if check_membership:
        for raw in (raw1, raw2):
            if not member_tube(SymmetricSpacePoint(raw), sigma, open_tube=True):
                raise PrecisionError("oracle sample point failed the tube test")
    lifts = {a: lift_covector(a) for a in covectors}
    forms1 = linear_forms(lifts.values(), raw1)
    forms2 = linear_forms(lifts.values(), raw2)
    out = {}
    for a, x1, x2 in zip(lifts, forms1, forms2):
        # the samples sit 1/e_oracle apart in the edge parameter, so the
        # slope is the difference of their pi-valuations in the oracle field
        dv = x2.pi_valuation() - x1.pi_valuation()
        if dv not in (0, 1):
            raise PrecisionError(
                f"sampled slope {dv} is not a 0/1 integer; increase N"
            )
        out[a] = dv
    return out


def sweep_oracle(edges, classes, rng, e_oracle=3):
    """Check the slope table of each edge against the sampling oracle, which
    draws from the shared rng edge after edge.

    Yields (edge, slopes, agrees): the combinatorial slope of each class,
    and whether it differs from the oracle's by one constant offset.  Both
    tables hold only 0 and 1 (oracle_slope_table raises on anything else),
    so no separate range check is needed."""
    for edge in edges:
        slopes = {x: slope(x, edge) for x in classes}
        orc = oracle_slope_table(edge, classes, e_oracle=e_oracle, rng=rng,
                                 check_membership=False)
        yield edge, slopes, len({slopes[x] - orc[x] for x in classes}) == 1


def pair_distribution(mu, sigma, require_local=True):
    """Pairing of a mass-zero vector with the edge: sum mu(x) slope(x).

    Well defined on hyperplane classes only when the level resolves the
    chain; with require_local the call refuses levels below required_level
    (callers pairing exact representatives may opt out)."""
    _require_edge(sigma)
    if not isinstance(mu, MassZeroVector):
        raise TypeError("expected a mass-zero vector")
    if mu.dim != sigma.dim:
        raise ValueError("the distribution and the edge differ in dimension")
    if require_local and mu.level < required_level(sigma):
        raise ValueError(
            f"level {mu.level} cannot resolve this edge; "
            f"need at least {required_level(sigma)}"
        )
    total = 0
    for point, coeff in mu.items():
        total += coeff * slope(point, sigma)
    return total


def edges_at_vertex(lattice):
    """The pointed edges leaving a vertex, one per neighbor class.

    Neighbor classes come back as primitive homothety representatives, so
    each is rescaled into the unique strict window between the vertex and
    its p-multiple before forming the chain."""
    base = lattice.homothety_rep()
    return tuple(
        PointedSimplex.from_homothety_chain([base, nb])
        for nb in base.neighbors()
    )


def check_kirchhoff(lattice, classes):
    """Slope sum of each class over all edges leaving a tree vertex.

    Flow conservation holds at the vertex when all the sums are equal: the
    edge residues of every pair (a, b) then sum to sums[b] - sums[a] = 0."""
    if lattice.dim != 2:
        raise ValueError("the flow condition is a tree (two-coordinate) check")
    edges = edges_at_vertex(lattice)
    return {x: sum(slope(x, edge) for edge in edges) for x in classes}


def pairing_matrix(edges, level, p, d):
    """Integer matrix of slope pairings: rows = pointed edges, columns = the
    dirac-pair basis delta_x - delta_x0 of the mass-zero module at the level
    (distributions.basis_mass_zero), which pairs to s[x] - s[x0] from one
    slope per (edge, class)."""
    x0, *rest = enumerate_points(p, level, d)
    rows = []
    for edge in edges:
        s0 = slope(x0, edge)
        rows.append([slope(x, edge) - s0 for x in rest])
    return rows
