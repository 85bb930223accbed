"""The four benchmark workloads.

A workload builds its inputs from the seed in `setup`, shuffled so that
any stretch of items has the same mix of input kinds, and then serves an
endless stream of items: item `i` works on input `i % len(self.inputs)`
and draws any randomness from an rng keyed on (workload, seed, input), so
every pass over the inputs repeats exactly the same work.  `run(i)`
returns `(record, ok)`: the record goes into the output digest, `ok` is
the item's own correctness check.

The library is called through module attributes (`residues.slope`, not a
`from`-imported name) so that the tracer's wrappers see every call.  Input
generation (random frames, simplices, the certified point pair) is this
file's own rather than the criteria helpers in drinfeld.certify, so that a
change to the library cannot change the inputs it is measured on.
"""

from __future__ import annotations

import random

from drinfeld import (
    building,
    certificates,
    covers,
    distributions,
    intlinalg,
    padic,
    projpoints,
    residues,
)


def random_unimodular(size, rng, steps=12):
    """Product of random elementary row operations: determinant +-1."""
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(size):
            mat[i][k] += c * mat[j][k]
    return mat


def _lattice_key(lat):
    return [lat.rows, lat.scale]


def _simplex_key(sigma):
    return [_lattice_key(lat) for lat in sigma.lattices]


class Workload:
    name = ""

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.smoke = smoke
        self.inputs = []

    def rng(self, index):
        return random.Random(f"{self.name}/{self.seed}/{index % len(self.inputs)}")

    def setup(self):
        self.inputs = self.make_inputs(random.Random(f"{self.name}/{self.seed}/setup"))
        random.Random(f"{self.name}/{self.seed}/order").shuffle(self.inputs)

    def make_inputs(self, rng):
        raise NotImplementedError

    def run(self, index):
        raise NotImplementedError


class OracleSweep(Workload):
    """Combinatorial slope table and one sampling-oracle table per pointed
    edge of the radius-2 ball around the standard lattice (p=2, d=2), as
    the edge-residue criterion does."""

    name = "oracle-sweep"

    def make_inputs(self, rng):
        p, d, radius = (2, 1, 1) if self.smoke else (2, 2, 2)
        ball = building.Ball(building.Lattice.standard(p, d), radius)
        self.classes = projpoints.enumerate_points(p, 1, d)
        return ball.pointed_edges()

    def run(self, index):
        edge = self.inputs[index % len(self.inputs)]
        comb = [residues.slope(x, edge) for x in self.classes]
        table = residues.oracle_slope_table(
            edge, self.classes, rng=self.rng(index), check_membership=False
        )
        orc = [table[x] for x in self.classes]
        ok = len({c - o for c, o in zip(comb, orc)}) == 1 and max(comb) - min(comb) <= 1
        return {"edge": _simplex_key(edge), "slope": comb, "oracle": orc}, ok


def dual_pair(p, e=2, N=40):
    """Two distinct certified points on the middle of the base edge."""
    desc = padic.FieldDesc(p=p, e=e, N=N)
    pi = padic.FieldElem.pi(desc)
    one = padic.FieldElem.one(desc)
    z1 = covers.SymmetricSpacePoint([one, pi])
    z2 = covers.SymmetricSpacePoint([one, pi + pi**3])
    return z1, z2


class Certificates(Workload):
    """The two-point congruence certificates of the refinement, restriction
    and equivariance criteria at d=1, p in {2, 3}: one certificate per item,
    each on its own seeded family or translate."""

    name = "certificates"

    def make_inputs(self, rng):
        # five times the criteria's 20 families and 50 translates per prime,
        # so the seed's draw of families moves the totals little
        families, translates = (1, 1) if self.smoke else (100, 250)
        self.points = {p: dual_pair(p) for p in (2, 3)}
        inputs = []
        for p in (2, 3):
            for _ in range(families):
                inputs += [("refinement", p, None), ("swap", p, None),
                           ("restriction", p, None)]
            lifts = [cls for cls in projpoints.enumerate_points(p, 2, 1)
                     if cls.lift_vector("lex") != cls.lift_vector("revlex")]
            inputs += [("lift", p, cls) for cls in lifts[:1 if self.smoke else None]]
            inputs += [("equivariance", p, None)] * translates
        return inputs

    def run(self, index):
        kind, p, cls = self.inputs[index % len(self.inputs)]
        z1, z2 = self.points[p]
        rng = self.rng(index)
        if kind == "lift":
            rec = certificates.lift_congruence_certificate(cls, z1, z2, 1)
        elif kind == "equivariance":
            g = random_unimodular(2, rng)
            ginv, _ = intlinalg.inv_scaled(g)
            mu = distributions.random_mass_zero(p, 2, 1, rng)
            rec = certificates.equivariance_certificate(g, ginv, mu, z1, z2, 1)
        else:
            fam = distributions.random_family(p, 3, 1, rng)
            if kind == "refinement":
                rec = certificates.convergence_certificate(fam, z1, z2, 1, 2, 3)
            elif kind == "swap":
                rec = certificates.representative_swap_certificate(fam, z1, z2, 1, 2)
            else:
                rec = certificates.restriction_certificate(fam, z1, z2, 1, 2, 3)
        record = {"kind": kind, "p": p, "margin": rec["measured_margin"],
                  "resolved": rec["margin_resolved"], "pass": rec["pass"]}
        return record, rec["pass"]


# (p, d, e, f) field shapes of the reduction cross-validation criterion
TAU_SHAPES = (
    (2, 1, 2, 1),
    (3, 1, 2, 1),
    (2, 1, 3, 2),
    (2, 2, 3, 1),
    (2, 2, 2, 2),
    (2, 2, 1, 3),
    (3, 2, 3, 1),
)


def random_simplex(p, d, e, f, number, rng):
    """Pointed simplex number `number` of a shape, in a random frame.

    Its type fits the field shape (e > k and f >= the largest block).  The
    types take turns and three frames in ten get a p-scaled first row, so
    every seed sees the same mix of costly and cheap simplices."""
    candidates = [(2,), (1, 1)] if d == 1 else [(3,), (1, 2), (2, 1), (1, 1, 1)]
    types = [tv for tv in candidates if len(tv) - 1 < e and max(tv) <= f]
    tv = types[number % len(types)]
    frame = random_unimodular(d + 1, rng)
    if number % 10 < 3:
        frame = [[c * (p if i == 0 else 1) for c in row] for i, row in enumerate(frame)]
    return building.standard_simplex(p, tv).right_multiplied(frame)


def proper_faces(sigma):
    """Every proper face of a pointed edge or triangle, each pointed."""
    if sigma.k == 0:
        return []
    lats = sigma.lattices
    faces = [building.PointedSimplex((lat.scaled(-lat.scale),)) for lat in lats]
    if sigma.k == 2:
        for keep in ((0, 1), (1, 2), (0, 2)):
            pair = [lats[i] for i in keep]
            shift = pair[0].scale
            faces.append(building.PointedSimplex(tuple(l.scaled(-shift) for l in pair)))
    return faces


class Reduction(Workload):
    """Reduction cross-validation: a sampled point of a random simplex's
    tube must reduce to a rotation of that simplex, sit in its tube and in
    no proper face's tube, and have integral tube coordinates whose leader
    product is p."""

    name = "reduction"

    def make_inputs(self, rng):
        per_shape = 1 if self.smoke else 50
        inputs = []
        for shape in TAU_SHAPES:
            p, d, e, f = shape
            for number in range(per_shape):
                sigma = random_simplex(p, d, e, f, number, rng)
                k0 = sigma.lattices[0].det_exponent
                desc = padic.FieldDesc(p=p, e=e, f=f, N=max(e * (10 + 3 * k0), 2 * e))
                simplex = (shape, len(inputs) // 2, sigma, desc,
                           sigma.rotations(), proper_faces(sigma))
                inputs += [simplex, simplex]  # two sample points each
        self.offsets = {}
        return inputs

    def run(self, index):
        shape, number, sigma, desc, rotations, faces = self.inputs[index % len(self.inputs)]
        z = covers.point_in_tube(desc, sigma, self.rng(index))
        ok = covers.member_tube(z, sigma, open_tube=True)
        bp = covers.reduce_to_building(z)
        offset = rotations.index(bp.simplex) if bp.simplex in rotations else None
        # every point of one tube reduces to the same pointing
        ok = ok and offset is not None and self.offsets.setdefault(number, offset) == offset
        coords = covers.tube_coordinates(z, sigma)
        ok = ok and all(x.valuation_at_least(0) for x in coords)
        prod = coords[0]
        for di in sigma.boundary_indices()[1:]:
            prod = prod * coords[di]
        target = padic.FieldElem.from_int(desc, sigma.p)
        diff = prod - target
        ok = ok and prod.agrees_with(target) and diff.shift + diff.prec > desc.e
        ok = ok and not any(covers.member_tube(z, face, open_tube=True) for face in faces)
        record = {
            "shape": shape, "simplex": number, "offset": offset,
            "weights": [str(w) for w in bp.weights], "level": bp.certified_level,
            "coords": [[c.shift, c.prec, list(c.coeffs)] for c in coords],
        }
        return record, ok


class TreeGeometry(Workload):
    """Every vertex of the d=1 balls at p in {2, 3, 5} and of the d=2, p=2
    ball around the standard lattice: neighbors, edges_at_vertex and the
    slope row of each edge.  A d=1 vertex must conserve flow; the last
    vertex of a ball in a pass also checks that the pairing matrix of all
    the ball's slope rows has rank point_count(p, 1, d) - 1."""

    name = "tree-geometry"

    BALLS = ((2, 1, 3), (3, 1, 3), (5, 1, 3), (2, 2, 2))  # (p, d, radius)

    def make_inputs(self, rng):
        inputs = []
        self.balls = []
        for number, (p, d, radius) in enumerate(self.BALLS):
            if self.smoke:
                radius = 1
            ball = building.Ball(building.Lattice.standard(p, d), radius)
            if d == 1 and len(ball.vertices) != building.tree_ball_size(p, radius):
                raise AssertionError(f"tree ball at p={p} has the wrong size")
            classes = projpoints.enumerate_points(p, 1, d)
            degree = sum(intlinalg.gaussian_binomial(d + 1, k, p) for k in range(1, d + 1))
            self.balls.append((p, d, classes, degree))
            inputs += [(number, vertex) for vertex in ball.vertices]
        self.pairing_rows = {}
        return inputs

    def setup(self):
        super().setup()
        # the rank check runs at the last vertex of each ball in a pass
        self.last = {number: j for j, (number, _) in enumerate(self.inputs)}

    def run(self, index):
        number, vertex = self.inputs[index % len(self.inputs)]
        last = self.last[number] == index % len(self.inputs)
        p, d, classes, degree = self.balls[number]
        neighbors = vertex.neighbors()
        edges = residues.edges_at_vertex(vertex)
        rows = [[residues.slope(x, edge) for x in classes] for edge in edges]
        ok = len(neighbors) == len(edges) == degree
        ok = ok and all(s in (0, 1) for row in rows for s in row)
        if d == 1:
            ok = ok and len({sum(col) for col in zip(*rows)}) == 1
        # pairing with the basis delta_x - delta_x0 of the mass-zero module;
        # duplicate rows do not change the rank
        pairing = self.pairing_rows.setdefault(number, set())
        pairing.update(tuple(s - row[0] for s in row[1:]) for row in rows)
        record = {"vertex": _lattice_key(vertex),
                  "neighbors": [_lattice_key(nb) for nb in neighbors],
                  "slopes": rows}
        if last:
            divisors = intlinalg.snf_divisors([list(r) for r in sorted(pairing)])
            rank = sum(1 for x in divisors if x)
            record["rank"] = rank
            ok = ok and rank == projpoints.point_count(p, 1, d) - 1
            del self.pairing_rows[number]
        return record, ok


WORKLOADS = {w.name: w for w in (OracleSweep, Certificates, Reduction, TreeGeometry)}
