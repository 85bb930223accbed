"""Deterministic certification suite: twelve machine-checkable criteria
covering enumeration exactness, tree geometry, residue/oracle agreement,
congruence certificates, reduction cross-validation, equivariance, and
byte-level reproducibility.

Criteria 1-11 are declared once in CRITERIA: a number, a name, one check
and the ordered grid of (p, d, *args) points it runs on.  run_all filters
every grid by prime and dimension, runs one check per kept point and wraps
the checks in the criterion's record.  Every check is pure given its point
and the seed and emits JSON-ready records with no timestamps, so bundles
are byte-identical across runs."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

from .building import Ball, Lattice, PointedSimplex, standard_simplex, tree_ball_size
from .certificates import (
    convergence_certificate,
    equivariance_certificate,
    lift_congruence_certificate,
    representative_swap_certificate,
    restriction_certificate,
)
from .covers import (
    SymmetricSpacePoint,
    member_tube,
    point_in_tube,
    reduce_to_building,
    tube_coordinates,
)
from .distributions import basis_mass_zero, random_family, random_mass_zero
from .intlinalg import inv_scaled, snf_divisors
from .padic import FieldDesc, FieldElem
from .products import residue_round_trip
from .projpoints import enumerate_points, point_count
from .residues import (
    GLOBAL_SIGN,
    check_kirchhoff,
    pairing_matrix,
    slope,
    sweep_oracle,
)

# random families per prime in criteria 6 and 7
FAMILIES = 20
# sample points per field shape in criterion 10, two per random simplex
POINTS_PER_CONFIG = 100
# random translates per prime of the tree in criterion 11
TRANSLATES = 50


def random_unimodular(size, rng):
    """Product of 12 random elementary row operations: determinant +-1."""
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(12 if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(size):
            mat[i][k] += c * mat[j][k]
    return mat


def translate_certificates(p, d, n, i, z1, z2, count, rng):
    """(g, record) for count random translates: each draws a unimodular g
    and then a level-n vector mu from rng, and certifies mu moved by g
    against the points moved by g^-1 at level i."""
    for _ in range(count):
        g = random_unimodular(d + 1, rng)
        ginv, _ = inv_scaled(g)
        mu = random_mass_zero(p, n, d, rng)
        yield g, equivariance_certificate(g, ginv, mu, z1, z2, i)


def _dual_pair(p, N=40, d=1):
    """Two distinct certified points of P^d over e = d + 1: (1, pi, ...,
    pi^d), and the same with pi + pi^(d+2) at index 1."""
    desc = FieldDesc(p=p, e=d + 1, N=N)
    coords = [FieldElem.pi_power(desc, k) for k in range(d + 1)]
    z1 = SymmetricSpacePoint(coords)
    coords[1] = coords[1] + FieldElem.pi_power(desc, d + 2)
    return desc, z1, SymmetricSpacePoint(coords)


# --- checks: one per grid point ----------------------------------------------


def check_point_count(seed, p, d, n):
    expected = point_count(p, n, d)
    got = len(enumerate_points(p, n, d))
    return {
        "p": p, "d": d, "n": n,
        "expected": expected,
        "enumerated": got,
        "closed_form": expected,
        "pass": got == expected,
    }


def check_level_fibers(seed, p, d, n):
    fibers = {low: 0 for low in enumerate_points(p, n - 1, d)}
    for pt in enumerate_points(p, n, d):
        fibers[pt.reduce(n - 1)] += 1
    sizes = set(fibers.values())
    return {
        "p": p, "d": d, "n": n,
        "surjective": 0 not in sizes,
        "fiber_size": sorted(sizes),
        "pass": sizes == {p**d},
    }


def check_tree_ball(seed, p, d, radius):
    ball = Ball(Lattice.standard(p, d), radius)
    vertices = len(ball.vertices)
    edges = len(ball.edges())
    return {
        "p": p, "radius": radius,
        "vertices": vertices,
        "expected": tree_ball_size(p, radius),
        "edges": edges,
        "acyclic": edges == vertices - 1,
        "pass": vertices == tree_ball_size(p, radius) and edges == vertices - 1,
    }


def check_edge_residues(seed, p, d):
    rng = random.Random(seed * 1000 + 4)
    classes = enumerate_points(p, 1, d)
    edges = Ball(Lattice.standard(p, d), 2).pointed_edges()
    bad = sum(not agrees for _, _, agrees in sweep_oracle(edges, classes, rng))
    # reversing the edge turns M_0 > M_1 into M_1 > pM_0, and v_{pM_0} is
    # v_{M_0} - 1, so every slope becomes 1 - slope
    reverse = edges[0].rotate()
    antisym = all(slope(x, reverse) == 1 - slope(x, edges[0]) for x in classes)
    # around a chamber M_0 > ... > M_d > pM_0 = M_{d+1} the slopes of the
    # d+1 boundary edges [M_i, M_{i+1}] telescope: the sum of
    # 1 + v_{M_{i+1}} - v_{M_i} is d+1 + v_{pM_0} - v_{M_0} = d
    chamber = standard_simplex(p, (1,) * (d + 1))
    translate = chamber.transport(random_unimodular(d + 1, rng))
    boundaries = [
        [PointedSimplex.from_chain(r.lattices[:2]) for r in sigma.rotations()]
        for sigma in (chamber, translate)
    ]
    additive = all(
        sum(slope(x, edge) for edge in boundary) == d
        for boundary in boundaries
        for x in classes
    )
    return {
        "p": p, "d": d,
        "edges": len(edges),
        "classes": len(classes),
        "oracle_disagreements": bad,
        "antisymmetric": antisym,
        "additive": additive,
        "pass": bad == 0 and antisym and additive,
    }


def check_flow_conservation(seed, p, d):
    classes = enumerate_points(p, 1, d)
    ball = Ball(Lattice.standard(p, d), 3)
    violations = 0
    for vertex in ball.vertices:
        sums = check_kirchhoff(vertex, classes)
        violations += sum(sums[a] != sums[b] for a in classes for b in classes)
    return {
        "p": p,
        "vertices": len(ball.vertices),
        "pairs": len(classes) ** 2,
        "violations": violations,
        "pass": violations == 0,
    }


def check_refinement_congruence(seed, p, d):
    rng = random.Random(seed * 1000 + 6 + p)
    _, z1, z2 = _dual_pair(p)
    records = []
    for _ in range(FAMILIES):
        fam = random_family(p, 3, d, rng)
        records.append(convergence_certificate(fam, z1, z2, 1, 2, 3))
        records.append(representative_swap_certificate(fam, z1, z2, 1, 2))
    for cls in enumerate_points(p, 2, d):
        if cls.lift_vector("lex") != cls.lift_vector("revlex"):
            records.append(lift_congruence_certificate(cls, z1, z2, 1))
    return {
        "p": p,
        "records": len(records),
        "failed": sum(1 for r in records if not r["pass"]),
        "sample_margins": [r["measured_margin"] for r in records[:4]],
        "pass": all(r["pass"] for r in records),
    }


def check_restriction(seed, p, d):
    rng = random.Random(seed * 1000 + 7 + p)
    _, z1, z2 = _dual_pair(p)
    records = [
        restriction_certificate(random_family(p, 3, d, rng), z1, z2, 1, 2, 3)
        for _ in range(FAMILIES)
    ]
    return {
        "p": p,
        "records": len(records),
        "failed": sum(1 for r in records if not r["pass"]),
        "all_exact_restrictions": all(r["exact_restriction"] for r in records),
        "pass": all(r["pass"] for r in records),
    }


def check_residue_round_trip(seed, p, d):
    """Compare the dlog residue of every basis product with the slope
    pairing: on every edge of the radius-2 tree ball, and in dimension 2 on
    both standard edges and a random unimodular translate of each."""
    if d == 1:
        edges = Ball(Lattice.standard(p, d), 2).pointed_edges()
    else:
        rng = random.Random(seed * 1000 + 8)
        edges = []
        for tv in ((1, 2), (2, 1)):
            base = standard_simplex(p, tv)
            edges.append(base)
            edges.append(base.right_multiplied(random_unimodular(d + 1, rng)))
    basis = basis_mass_zero(p, 1, d)
    mismatches = 0
    for mu in basis:
        for edge in edges:
            left, right = residue_round_trip(mu, edge, require_local=False)
            mismatches += left != right
    return {
        "p": p, "d": d,
        "basis": len(basis),
        "edges": len(edges),
        "mismatches": mismatches,
        "pass": mismatches == 0,
    }


def check_pairing_rank(seed, p, d):
    edges = Ball(Lattice.standard(p, d), 2).pointed_edges()
    matrix = pairing_matrix(edges, 1, p, d)
    divisors = snf_divisors([list(r) for r in matrix])
    rank = sum(1 for x in divisors if x != 0)
    expected = point_count(p, 1, d) - 1
    return {
        "p": p, "d": d,
        "edges": len(edges),
        "rank": rank,
        "expected": expected,
        "pass": rank == expected,
    }


TAU_CONFIGS = (
    (2, 1, 2, 1),
    (3, 1, 2, 1),
    (2, 1, 3, 2),
    (2, 2, 3, 1),
    (2, 2, 2, 2),
    (2, 2, 1, 3),
    (3, 2, 3, 1),
)


def _random_simplex_for(p, d, e, f, rng):
    """Random pointed simplex compatible with the field shape caps."""
    types = []
    if d == 1:
        candidates = [(2,), (1, 1)]
    else:
        candidates = [(3,), (1, 2), (2, 1), (1, 1, 1)]
    for tv in candidates:
        if len(tv) - 1 < e and max(tv) <= f:
            types.append(tv)
    tv = rng.choice(types)
    frame = random_unimodular(d + 1, rng)
    if rng.random() < 0.3:
        frame = [
            [c * (p if i == 0 else 1) for c in row]
            for i, row in enumerate(frame)
        ]
    sigma = standard_simplex(p, tv).right_multiplied(frame)
    return sigma


def _proper_faces(sigma):
    if sigma.k == 0:
        return []
    lats = sigma.lattices
    faces = [PointedSimplex.from_chain((lat,)) for lat in lats]
    if sigma.k == 2:
        for i, j in ((0, 1), (1, 2), (0, 2)):
            faces.append(PointedSimplex.from_chain((lats[i], lats[j])))
    return faces


def check_reduction(seed, p, d, e, f):
    rng = random.Random(seed * 1000 + 10 + 7 * p + d)
    failures = 0
    for _ in range(POINTS_PER_CONFIG // 2):
        sigma = _random_simplex_for(p, d, e, f, rng)
        k0 = sigma.lattices[0].det_exponent
        desc = FieldDesc(p, e, f, max(e * (10 + 3 * k0), 2 * e))
        rotations = sigma.rotations()
        faces = _proper_faces(sigma)  # shared by both points, with their caches
        offsets = set()
        for _ in range(2):
            z = point_in_tube(desc, sigma, rng)
            ok = member_tube(z, sigma, open_tube=True)
            bp = reduce_to_building(z)
            ok = ok and bp.simplex in rotations
            if ok:
                offsets.add(rotations.index(bp.simplex))
            coords = tube_coordinates(z, sigma)
            ok = ok and all(x.valuation_at_least(0) for x in coords)
            prod = coords[0]
            for di in sigma.boundary_indices()[1:]:
                prod = prod * coords[di]
            target = FieldElem.from_int(desc, p)
            diff = prod - target
            ok = ok and prod.agrees_with(target)
            ok = ok and (diff.shift + diff.prec) > desc.e
            ok = ok and all(
                not member_tube(z, face, open_tube=True) for face in faces
            )
            if not ok:
                failures += 1
        if len(offsets) > 1:
            failures += 1
    return {
        "p": p, "d": d, "e": e, "f": f,
        "points": POINTS_PER_CONFIG,
        "failures": failures,
        "pass": failures == 0,
    }


def check_equivariance(seed, p, d, translates):
    """Equivariance certificates and exact transport of the reduction map
    under random unimodular translates g."""
    if d == 1:
        rng = random.Random(seed * 1000 + 11 + p)
        _, z1, z2 = _dual_pair(p)
    else:
        rng = random.Random(seed * 1000 + 11)
        # size-3 transports stack several deep section cancellations, so
        # this point carries extra working digits
        _, z1, z2 = _dual_pair(p, N=90, d=2)
    base1 = reduce_to_building(z1)
    cert_failures = 0
    tau_failures = 0
    for g, rec in translate_certificates(p, d, 2, 1, z1, z2, translates, rng):
        if not rec["pass"]:
            cert_failures += 1
        moved = reduce_to_building(z1.apply_matrix(g))
        expected = base1.simplex.transport(g)
        if moved.simplex != expected or moved.weights != base1.weights:
            tau_failures += 1
    return {
        "p": p, "d": d,
        "translates": translates,
        "certificate_failures": cert_failures,
        "tau_failures": tau_failures,
        "pass": cert_failures == 0 and tau_failures == 0,
    }


# --- the criteria table ------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """One criterion: its checks run on the grid points the filters keep.

    `extra` holds envelope fields written between the name and the pass
    flag."""

    number: int
    name: str
    check: Callable
    grid: tuple
    extra: dict = field(default_factory=dict)

    def select(self, ps, ds):
        return [pt for pt in self.grid
                if (ps is None or pt[0] in ps) and (ds is None or pt[1] in ds)]

    def run(self, points, seed):
        """The criterion's record over the given grid points.  With no
        point it is skipped: its pass flag is None, never True."""
        record = {"criterion": self.number, "name": self.name, **self.extra}
        if not points:
            pairs = ", ".join(dict.fromkeys(f"({p}, {d})"
                                            for p, d, *_ in self.grid))
            record.update({"pass": None, "checks": [], "skipped":
                           f"the filters keep no (p, d) of its grid: {pairs}"})
            return record
        checks = [self.check(seed, *pt) for pt in points]
        record.update({"pass": all(c["pass"] for c in checks),
                       "checks": checks})
        return record


CRITERIA = (
    Criterion(1, "point-counts", check_point_count,
              tuple((p, d, n) for d in (1, 2) for p in (2, 3, 5)
                    for n in (1, 2, 3))),
    Criterion(2, "level-fibers", check_level_fibers,
              tuple((p, d, n) for d in (1, 2) for p in (2, 3, 5)
                    for n in (2, 3))),
    Criterion(3, "tree-balls", check_tree_ball,
              tuple((p, 1, r) for p in (2, 3) for r in (1, 2, 3, 4))),
    Criterion(4, "edge-residues-vs-oracle", check_edge_residues,
              tuple((p, d) for d in (1, 2) for p in (2, 3))),
    Criterion(5, "tree-flow-conservation", check_flow_conservation,
              ((2, 1), (3, 1), (5, 1))),
    Criterion(6, "level-refinement-congruence", check_refinement_congruence,
              ((2, 1), (3, 1))),
    Criterion(7, "restriction-compatibility", check_restriction,
              ((2, 1), (3, 1))),
    Criterion(8, "residue-round-trip", check_residue_round_trip,
              ((2, 1), (3, 1), (2, 2)), {"global_sign": GLOBAL_SIGN}),
    Criterion(9, "pairing-rank", check_pairing_rank,
              ((2, 1), (3, 1), (2, 2))),
    Criterion(10, "reduction-cross-validation", check_reduction, TAU_CONFIGS),
    Criterion(11, "equivariance", check_equivariance,
              ((2, 1, TRANSLATES), (3, 1, TRANSLATES), (2, 2, 10))),
)


def criterion_reproducibility(seed=0):
    first = run_all(ps={2}, ds={1}, seed=seed, include_reproducibility=False)
    second = run_all(ps={2}, ds={1}, seed=seed, include_reproducibility=False)
    blob1 = json.dumps(first, sort_keys=True)
    blob2 = json.dumps(second, sort_keys=True)
    return {
        "criterion": 12,
        "name": "reproducibility",
        "bytes": len(blob1),
        "identical": blob1 == blob2,
        "pass": blob1 == blob2,
    }


class EmptySelection(ValueError):
    """The prime and dimension filters select no check of any criterion."""


def run_all(ps=None, ds=None, seed=0, include_reproducibility=True):
    """Run every criterion with the given prime/dimension filters.

    A criterion whose grid keeps no point is recorded as skipped, and
    all_pass means that no criterion that ran failed.  Raises
    EmptySelection, before any check runs, when the filters keep no point
    of any grid: such a bundle would pass having checked nothing.
    Criterion 12 (last) runs its own fixed slice, so it does not count,
    and then it does not run."""
    ps = set(ps) if ps is not None else None
    ds = set(ds) if ds is not None else None
    primes = sorted(ps) if ps is not None else "default"
    dimensions = sorted(ds) if ds is not None else "default"
    selected = [(c, c.select(ps, ds)) for c in CRITERIA]
    if not any(points for _, points in selected):
        raise EmptySelection(
            f"primes {primes} and dimensions {dimensions} select no check "
            "of any criterion"
        )
    results = [c.run(points, seed) for c, points in selected]
    if include_reproducibility:
        results.append(criterion_reproducibility(seed=seed))
    return {
        "seed": seed,
        "primes": primes,
        "dimensions": dimensions,
        "all_pass": all(r["pass"] is not False for r in results),
        "criteria": results,
    }
