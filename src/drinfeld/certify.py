"""Deterministic certification suite: twelve machine-checkable criteria
covering enumeration exactness, tree geometry, residue/oracle agreement,
congruence certificates, reduction cross-validation, equivariance, and
byte-level reproducibility.

Every runner is pure given (filters, seed) and emits JSON-ready records
with no timestamps, so bundles are byte-identical across runs."""

from __future__ import annotations

import json
import random

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
from .products import alpha_level, dlog_residue
from .projpoints import enumerate_points, point_count
from .residues import (
    GLOBAL_SIGN,
    edges_at_vertex,
    pair_distribution,
    pairing_matrix,
    slope,
    sweep_oracle,
)


def _keep(values, allowed):
    if allowed is None:
        return list(values)
    return [v for v in values if v in allowed]


def random_unimodular(size, rng, steps=12):
    """Product of random elementary row operations: determinant +-1."""
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(size):
            mat[i][k] += c * mat[j][k]
    return mat


def _dual_pair(p, e=2, N=40):
    """Two distinct certified points on the middle of the base edge."""
    desc = FieldDesc(p=p, e=e, N=N)
    pi = FieldElem.pi(desc)
    one = FieldElem.one(desc)
    z1 = SymmetricSpacePoint([one, pi])
    z2 = SymmetricSpacePoint([one, pi + pi**3])
    return desc, z1, z2


# --- criterion runners -------------------------------------------------------


def criterion_point_counts(ps=None, ds=None, seed=0):
    checks = []
    for d in _keep((1, 2), ds):
        for p in _keep((2, 3, 5), ps):
            for n in (1, 2, 3):
                expected = p ** ((n - 1) * d) * (p ** (d + 1) - 1) // (p - 1)
                got = len(enumerate_points(p, n, d))
                checks.append({
                    "p": p, "d": d, "n": n,
                    "expected": expected,
                    "enumerated": got,
                    "closed_form": point_count(p, n, d),
                    "pass": got == expected == point_count(p, n, d),
                })
    return {
        "criterion": 1,
        "name": "point-counts",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_level_fibers(ps=None, ds=None, seed=0):
    checks = []
    for d in _keep((1, 2), ds):
        for p in _keep((2, 3, 5), ps):
            for n in (2, 3):
                fibers = {low: 0 for low in enumerate_points(p, n - 1, d)}
                for pt in enumerate_points(p, n, d):
                    fibers[pt.reduce(n - 1)] += 1
                sizes = set(fibers.values())
                checks.append({
                    "p": p, "d": d, "n": n,
                    "surjective": 0 not in sizes,
                    "fiber_size": sorted(sizes),
                    "pass": sizes == {p**d},
                })
    return {
        "criterion": 2,
        "name": "level-fibers",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_tree_balls(ps=None, ds=None, seed=0):
    checks = []
    if not _keep((1,), ds):
        return {"criterion": 3, "name": "tree-balls", "pass": True,
                "checks": [], "skipped": "tree checks need dimension 1"}
    for p in _keep((2, 3), ps):
        for r in (1, 2, 3, 4):
            ball = Ball(Lattice.standard(p, 1), r)
            vertices = len(ball.vertices)
            edges = len(ball.edges())
            checks.append({
                "p": p, "radius": r,
                "vertices": vertices,
                "expected": tree_ball_size(p, r),
                "edges": edges,
                "acyclic": edges == vertices - 1,
                "pass": vertices == tree_ball_size(p, r)
                and edges == vertices - 1,
            })
    return {
        "criterion": 3,
        "name": "tree-balls",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_edge_residues(ps=None, ds=None, seed=0):
    checks = []
    for d in _keep((1, 2), ds):
        for p in _keep((2, 3), ps):
            rng = random.Random(seed * 1000 + 4)
            classes = enumerate_points(p, 1, d)
            edges = Ball(Lattice.standard(p, d), 2).pointed_edges()
            bad = sum(
                not agrees for _, _, agrees in sweep_oracle(edges, classes, rng)
            )
            a, b, c = classes[0], classes[1], classes[2]
            edge0 = edges[0]
            s = {x: slope(x, edge0) for x in (a, b, c)}
            antisym = (s[b] - s[a]) == -(s[a] - s[b])
            additive = (s[c] - s[a]) == (s[b] - s[a]) + (s[c] - s[b])
            checks.append({
                "p": p, "d": d,
                "edges": len(edges),
                "classes": len(classes),
                "oracle_disagreements": bad,
                "antisymmetric": antisym,
                "additive": additive,
                "pass": bad == 0 and antisym and additive,
            })
    return {
        "criterion": 4,
        "name": "edge-residues-vs-oracle",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_flow_conservation(ps=None, ds=None, seed=0):
    checks = []
    if not _keep((1,), ds):
        return {"criterion": 5, "name": "tree-flow-conservation",
                "pass": True, "checks": [],
                "skipped": "flow conservation is a tree check"}
    for p in _keep((2, 3, 5), ps):
        classes = enumerate_points(p, 1, 1)
        ball = Ball(Lattice.standard(p, 1), 3)
        violations = 0
        for vertex in ball.vertices:
            sums = {x: 0 for x in classes}
            for edge in edges_at_vertex(vertex):
                for x in classes:
                    sums[x] += slope(x, edge)
            for a in classes:
                for b in classes:
                    if (sums[b] - sums[a]) != 0:
                        violations += 1
        checks.append({
            "p": p,
            "vertices": len(ball.vertices),
            "pairs": len(classes) ** 2,
            "violations": violations,
            "pass": violations == 0,
        })
    return {
        "criterion": 5,
        "name": "tree-flow-conservation",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_refinement_congruence(ps=None, ds=None, seed=0, families=20):
    checks = []
    if not _keep((1,), ds):
        return {"criterion": 6, "name": "level-refinement-congruence",
                "pass": True, "checks": [],
                "skipped": "the certificate sweep runs on the tree window"}
    for p in _keep((2, 3), ps):
        rng = random.Random(seed * 1000 + 6 + p)
        desc, z1, z2 = _dual_pair(p)
        records = []
        for _ in range(families):
            fam = random_family(p, 3, 1, rng)
            records.append(convergence_certificate(fam, z1, z2, 1, 2, 3))
            records.append(representative_swap_certificate(fam, z1, z2, 1, 2))
        for cls in enumerate_points(p, 2, 1):
            if cls.lift_vector("lex") != cls.lift_vector("revlex"):
                records.append(lift_congruence_certificate(cls, z1, z2, 1))
        margins = [r["measured_margin"] for r in records]
        checks.append({
            "p": p,
            "records": len(records),
            "failed": sum(1 for r in records if not r["pass"]),
            "sample_margins": margins[:4],
            "pass": all(r["pass"] for r in records),
        })
    return {
        "criterion": 6,
        "name": "level-refinement-congruence",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_restriction(ps=None, ds=None, seed=0, families=20):
    checks = []
    if not _keep((1,), ds):
        return {"criterion": 7, "name": "restriction-compatibility",
                "pass": True, "checks": [],
                "skipped": "the certificate sweep runs on the tree window"}
    for p in _keep((2, 3), ps):
        rng = random.Random(seed * 1000 + 7 + p)
        desc, z1, z2 = _dual_pair(p)
        records = []
        for _ in range(families):
            fam = random_family(p, 3, 1, rng)
            records.append(restriction_certificate(fam, z1, z2, 1, 2, 3))
        checks.append({
            "p": p,
            "records": len(records),
            "failed": sum(1 for r in records if not r["pass"]),
            "all_exact_restrictions": all(
                r["exact_restriction"] for r in records
            ),
            "pass": all(r["pass"] for r in records),
        })
    return {
        "criterion": 7,
        "name": "restriction-compatibility",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def _round_trip_check(p, d, edges):
    """Compare the dlog residue of every basis product with the slope
    pairing on every edge."""
    basis = basis_mass_zero(p, 1, d)
    mismatches = 0
    for mu in basis:
        u = alpha_level(mu)
        for edge in edges:
            left = dlog_residue(u, edge, require_local=False)
            right = GLOBAL_SIGN * pair_distribution(mu, edge,
                                                    require_local=False)
            if left != right:
                mismatches += 1
    return {
        "p": p, "d": d,
        "basis": len(basis),
        "edges": len(edges),
        "mismatches": mismatches,
        "pass": mismatches == 0,
    }


def criterion_residue_round_trip(ps=None, ds=None, seed=0):
    checks = []
    for p in _keep((2, 3), ps) if _keep((1,), ds) else []:
        edges = Ball(Lattice.standard(p, 1), 2).pointed_edges()
        checks.append(_round_trip_check(p, 1, edges))
    if _keep((2,), ds) and _keep((2,), ps):
        rng = random.Random(seed * 1000 + 8)
        edges = []
        for tv in ((1, 2), (2, 1)):
            base = standard_simplex(2, tv)
            edges.append(base)
            edges.append(base.right_multiplied(random_unimodular(3, rng)))
        checks.append(_round_trip_check(2, 2, edges))
    return {
        "criterion": 8,
        "name": "residue-round-trip",
        "global_sign": GLOBAL_SIGN,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_pairing_rank(ps=None, ds=None, seed=0):
    checks = []
    grids = []
    if _keep((1,), ds):
        grids += [(p, 1) for p in _keep((2, 3), ps)]
    if _keep((2,), ds) and _keep((2,), ps):
        grids.append((2, 2))
    for p, d in grids:
        edges = Ball(Lattice.standard(p, d), 2).pointed_edges()
        matrix = pairing_matrix(edges, 1, p, d)
        divisors = snf_divisors([list(r) for r in matrix])
        rank = sum(1 for x in divisors if x != 0)
        expected = point_count(p, 1, d) - 1
        checks.append({
            "p": p, "d": d,
            "edges": len(edges),
            "rank": rank,
            "expected": expected,
            "pass": rank == expected,
        })
    return {
        "criterion": 9,
        "name": "pairing-rank",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
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
    faces = [PointedSimplex.vertex(lat) for lat in lats]
    if sigma.k == 2:
        for i, j in ((0, 1), (1, 2), (0, 2)):
            faces.append(PointedSimplex.from_chain((lats[i], lats[j])))
    return faces


def criterion_reduction_cross_validation(ps=None, ds=None, seed=0,
                                         points_per_config=100):
    checks = []
    for p, d, e, f in TAU_CONFIGS:
        if not (_keep((p,), ps) and _keep((d,), ds)):
            continue
        rng = random.Random(seed * 1000 + 10 + 7 * p + d)
        failures = 0
        samples = 0
        simplices = max(1, points_per_config // 2)
        for _ in range(simplices):
            sigma = _random_simplex_for(p, d, e, f, rng)
            k0 = sigma.lattices[0].det_exponent
            desc = FieldDesc(p=p, e=e, f=f, N=max(e * (10 + 3 * k0), 2 * e))
            rotations = sigma.rotations()
            offsets = set()
            for _ in range(2):
                samples += 1
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
                    not member_tube(z, face, open_tube=True)
                    for face in _proper_faces(sigma)
                )
                if not ok:
                    failures += 1
            if len(offsets) > 1:
                failures += 1
        checks.append({
            "p": p, "d": d, "e": e, "f": f,
            "points": samples,
            "failures": failures,
            "pass": failures == 0,
        })
    return {
        "criterion": 10,
        "name": "reduction-cross-validation",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def _translate_check(p, d, z1, z2, translates, rng):
    """Equivariance certificates and exact transport of the reduction map
    under random unimodular translates g."""
    base1 = reduce_to_building(z1)
    cert_failures = 0
    tau_failures = 0
    for _ in range(translates):
        g = random_unimodular(d + 1, rng)
        ginv, _ = inv_scaled(g)
        mu = random_mass_zero(p, 2, d, rng)
        rec = equivariance_certificate(g, ginv, mu, z1, z2, 1)
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


def criterion_equivariance(ps=None, ds=None, seed=0, translates=50):
    checks = []
    if _keep((1,), ds):
        for p in _keep((2, 3), ps):
            rng = random.Random(seed * 1000 + 11 + p)
            _, z1, z2 = _dual_pair(p)
            checks.append(_translate_check(p, 1, z1, z2, translates, rng))
    if _keep((2,), ds) and _keep((2,), ps):
        rng = random.Random(seed * 1000 + 11)
        # size-3 transports stack several deep section cancellations, so
        # this block carries extra working digits
        desc = FieldDesc(p=2, e=3, N=90)
        pi = FieldElem.pi(desc)
        one = FieldElem.one(desc)
        z1 = SymmetricSpacePoint([one, pi, pi * pi])
        z2 = SymmetricSpacePoint([one, pi + pi**4, pi * pi])
        checks.append(_translate_check(2, 2, z1, z2, 10, rng))
    return {
        "criterion": 11,
        "name": "equivariance",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def criterion_reproducibility(ps=None, ds=None, seed=0):
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


CRITERIA = (
    criterion_point_counts,
    criterion_level_fibers,
    criterion_tree_balls,
    criterion_edge_residues,
    criterion_flow_conservation,
    criterion_refinement_congruence,
    criterion_restriction,
    criterion_residue_round_trip,
    criterion_pairing_rank,
    criterion_reduction_cross_validation,
    criterion_equivariance,
    criterion_reproducibility,
)


class EmptySelection(ValueError):
    """The prime and dimension filters select no check of any criterion."""


def run_all(ps=None, ds=None, seed=0, include_reproducibility=True):
    """Run every criterion with the given prime/dimension filters.

    Raises EmptySelection when the filters leave every criterion without a
    check: such a bundle would pass having checked nothing.  Criterion 12
    (last) runs its own fixed slice, so it does not count, and then it
    does not run."""
    ps = set(ps) if ps is not None else None
    ds = set(ds) if ds is not None else None
    primes = sorted(ps) if ps is not None else "default"
    dimensions = sorted(ds) if ds is not None else "default"
    results = [runner(ps=ps, ds=ds, seed=seed)
               for runner in CRITERIA if runner is not criterion_reproducibility]
    if not any(r["checks"] for r in results):
        raise EmptySelection(
            f"primes {primes} and dimensions {dimensions} select no check "
            "of any criterion"
        )
    if include_reproducibility:
        results.append(criterion_reproducibility(ps=ps, ds=ds, seed=seed))
    return {
        "seed": seed,
        "primes": primes,
        "dimensions": dimensions,
        "all_pass": all(r["pass"] for r in results),
        "criteria": results,
    }
