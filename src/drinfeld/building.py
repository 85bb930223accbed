"""The simplicial building of homothety classes of Z_p-lattices.

Vertices are homothety classes of full-rank Z_p-lattices of covector rows
in Q_p^{d+1}.  A lattice is stored as a primitive integer Hermite basis
with a p-power determinant plus a scale exponent; saturation at
construction removes prime-to-p content, which makes the Hermite rows a
complete invariant of the Z_p-row-span.  Pointed simplices are literal
chains M_0 > M_1 > ... > M_k > p M_0 with M_0 primitive at scale 0.

PointedSimplex.from_chain keeps one live object per pointed-chain value:
while a simplex built by it is alive, a chain equal to its lattices, after
re-pointing, returns that same object, already validated and holding its
cached tube tests and frames.  The table holds its simplices weakly, so it
keeps nothing alive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import gcd
from operator import mul

from .intlinalg import (
    complete_basis_modp,
    hnf_adjugate_columns,
    hnf_det,
    hnf_rows,
    identity,
    inv_scaled,
    matmul,
    pval,
    reduce_above_pivots,
    require_int,
    require_ints,
    require_prime,
    rref_modp,
    subspaces_modp,
    vecmat,
)
from .projpoints import canonical_reps


def _primitive(p, rows):
    """The rows over the gcd g of all their entries, as tuples, and v_p(g):
    g^n divides the determinant, so g is a p-power when the determinant is."""
    g = gcd(*chain.from_iterable(rows))
    if g == 1:
        return tuple(map(tuple, rows)), 0
    return tuple(tuple(x // g for x in row) for row in rows), pval(g, p)


@lru_cache(maxsize=None)
def _subspace_table(n, k, p):
    """subspaces_modp(n, k, p) as a tuple, in its order, with each RREF row
    paired with its pivot index (the position of its first nonzero entry,
    which is 1)."""
    return tuple(
        tuple((w.index(1), w) for w in basis) for basis in subspaces_modp(n, k, p)
    )


@dataclass(frozen=True)
class Lattice:
    """p^scale times the Z_p-row-span of a primitive Hermite basis whose
    determinant is a power of p.  Build through from_rows."""

    p: int
    rows: tuple
    scale: int = 0

    @staticmethod
    def from_rows(p, rows, scale=0):
        """p^scale times the Z_p-span of rows, equal-length rows of ints.
        TypeError for an entry or scale that is not an int (a bool or float
        is not one), ValueError for no rows, ragged rows or a lower rank;
        p as FieldDesc checks it (require_prime)."""
        require_prime(p)
        require_int(scale, "a lattice scale")
        if not (isinstance(rows, (list, tuple))
                and set(map(type, rows)) <= {list, tuple}):
            raise TypeError("lattice rows must be a list of lists of ints")
        n = len(rows[0]) if rows else 0
        if not n or set(map(len, rows)) != {n}:
            raise ValueError("lattice rows must be non-empty and of equal length")
        require_ints(list(chain.from_iterable(rows)), "the lattice rows")
        h = hnf_rows(rows)
        if len(h) != n:
            raise ValueError("rows do not span a full-rank lattice")
        det = hnf_det(h)
        k = pval(det, p) if det % p == 0 else 0
        if det != p**k:
            # saturate away prime-to-p index: the Z_p-span also contains p^k Z^n
            h = hnf_rows([*h, *([p**k * c for c in row] for row in identity(n))])
        # primitive representative: factor the common p-power into the scale
        h, shift = _primitive(p, h)
        return Lattice(p, h, scale + shift)

    @staticmethod
    def standard(p, d):
        require_int(d, "a dimension", least=0)
        return Lattice(require_prime(p), identity(d + 1))

    @property
    def dim(self):
        return len(self.rows)

    @cached_property
    def det_exponent(self):
        return pval(hnf_det(self.rows), self.p)

    def scaled(self, k):
        return self._at_scale(self.scale + k)

    def homothety_rep(self):
        return self._at_scale(0)

    def _at_scale(self, scale):
        """The same rows at another scale.  The determinant exponent, the
        adjugate and the scale-free valuations depend only on the rows, so
        those already computed carry over."""
        if scale == self.scale:
            return self
        lat = Lattice(self.p, self.rows, scale)
        for name in ("det_exponent", "_adj_cols", "_valuations"):
            if name in self.__dict__:
                lat.__dict__[name] = self.__dict__[name]
        return lat

    def adj_data(self):
        """(adjugate-like N, det exponent k) with rows^{-1} = N / p^k: the
        transpose of the cached adjugate columns, built on each call."""
        return tuple(zip(*self._adj_cols)), self.det_exponent

    # Derived data is cached on the frozen instance itself, outside the
    # dataclass fields, so equality, hashing and to_json do not see it and
    # it lives exactly as long as the value.
    @cached_property
    def _adj_cols(self):
        """The columns of the adjugate, as back substitution gives them,
        read by every valuation and membership test."""
        cols, det = hnf_adjugate_columns(self.rows)
        assert det == self.p**self.det_exponent
        return cols

    @cached_property
    def _valuations(self):
        """valuation(a) + scale per covector tuple(a), filled by valuation:
        it depends on the rows only, so rescaled copies share it."""
        return {}

    def valuation(self, a):
        """Largest m with the integer covector a in p^m self: a times the
        adjugate, over p^k, is a in the coordinates of the basis of self,
        before the scale.  ValueError for the zero covector, which is never
        stored."""
        key = tuple(a)
        v = self._valuations.get(key)
        if v is None:
            g = gcd(*[sum(map(mul, key, col)) for col in self._adj_cols])
            if not g:
                raise ValueError("zero covector")
            v = self._valuations[key] = pval(g, self.p) - self.det_exponent
        return v - self.scale

    def holds(self, a, m=0):
        """Whether the integer covector a lies in p^m self, that is
        p^(-m) a in self.  The zero covector lies in every p^m self."""
        return self._holds_all((a,), -m)

    def _holds_all(self, rows, scale):
        """Whether p^scale times each integer covector of rows lies in self:
        the divisibility kernel of holds, contains and the chain check.  A
        covector times the adjugate, over p^k, is that covector in the
        coordinates of the basis of self, before the scales, so it lies
        there exactly when every entry of it times the adjugate is divisible
        by p^(k + self.scale - scale).  Since p^k Z^n <= the row span, that
        holds for every covector once the exponent is <= 0."""
        e = self.det_exponent + self.scale - scale
        if e <= 0:
            return True
        q = self.p**e
        cols = self._adj_cols
        for a in rows:
            for col in cols:
                if sum(map(mul, a, col)) % q:
                    return False
        return True

    def image_mod_p(self, other):
        """The image of a sublattice other <= self in self/p self, as a
        reduced-echelon basis (rref_modp) in the coordinates of the basis
        of self: the rows of other times the adjugate, over p^k, before
        the two scales.  Requires other.scale - self.scale <= k, which
        every lattice of a pointed chain meets in its M_0."""
        exp = self.det_exponent + self.scale - other.scale
        if exp < 0:
            raise ValueError("sublattice scale exceeds the determinant exponent")
        den = self.p**exp
        cols = self._adj_cols
        coords = [[sum(map(mul, row, col)) // den for col in cols]
                  for row in other.rows]
        return rref_modp(coords, self.p)

    def contains(self, other, strict=False):
        """Z_p-inclusion other <= self (with scales): each basis row of
        other, before other's scale, lies in p^(-other.scale) self."""
        if self.p != other.p:
            raise ValueError("mixed primes")
        return self._holds_all(other.rows, other.scale) and not (
            strict and self.index_exponent(other) == 0
        )

    def index_exponent(self, other):
        """log_p of the lattice index [self : other] for other <= self."""
        return (other.scale - self.scale) * self.dim + (
            other.det_exponent - self.det_exponent
        )

    def right_multiplied(self, m):
        """Row span transported by an integer matrix on the right."""
        return Lattice.from_rows(self.p, matmul(self.rows, m), self.scale)

    def transport(self, g):
        """Image under the group element g acting on covectors by a |-> a g^{-1}."""
        n, det = inv_scaled(g)
        if det % self.p == 0:
            raise ValueError("transport requires a determinant prime to p")
        return self.right_multiplied(n)

    def neighbors(self):
        """Homothety classes adjacent to this one: preimages of the proper
        nonzero subspaces W of L/pL, as primitive Hermite bases at scale 0.

        In the basis of L the preimage of W has a triangular basis: row c
        is the RREF row of W with pivot c, or p e_c off the pivots.  Times
        the upper triangular Hermite rows H of L, row c is w H or p H_c;
        the product stays upper triangular, with determinant
        p^(det_exponent + n - dim W).  Reducing above the diagonal pivots
        (hnf_rows' last step) and dividing out the common p-power gives the
        Hermite basis: no Euclidean loop and no saturation."""
        p, n, h = self.p, self.dim, self.rows
        cols = tuple(zip(*h))
        ph = [[p * c for c in row] for row in h]
        diagonal = [(c, c) for c in range(n)]
        out = []
        for k in range(1, n):
            det_exponent = self.det_exponent + n - k
            for w_basis in _subspace_table(n, k, p):
                m = list(ph)
                for c, w in w_basis:
                    m[c] = [sum(map(mul, w, col)) for col in cols]
                reduce_above_pivots(m, diagonal)
                rows, shift = _primitive(p, m)
                nb = Lattice(p, rows)
                nb.__dict__["det_exponent"] = det_exponent - n * shift
                out.append(nb)
        return out

    def to_json(self):
        return {"hnf": [list(r) for r in self.rows], "scale": self.scale}


@dataclass(frozen=True)
class PointedSimplex:
    """Pointed chain M_0 > M_1 > ... > M_k > p M_0, M_0 primitive at scale 0."""

    lattices: tuple

    def __post_init__(self):
        lats = self.lattices
        if not lats:
            raise ValueError("empty chain")
        m0 = lats[0]
        if m0.scale != 0:
            raise ValueError("chain must be pointed at a scale-0 lattice")
        prev = m0
        for lat in lats[1:]:
            if not prev.contains(lat, strict=True):
                raise ValueError("chain inclusions must be strict")
            prev = lat
        # p M_0 < M_k: the rows of M_0 at scale 1 lie in M_k, and
        # [M_k : p M_0] = p^(n (1 - M_k.scale) + M_0.det_exponent
        # - M_k.det_exponent) is not 1
        if not (prev._holds_all(m0.rows, 1) and prev.dim * (1 - prev.scale)
                + m0.det_exponent != prev.det_exponent):
            raise ValueError("chain must stay strictly above p M_0")

    @property
    def p(self):
        return self.lattices[0].p

    @property
    def k(self):
        return len(self.lattices) - 1

    @property
    def dim(self):
        return self.lattices[0].dim - 1

    @staticmethod
    def from_chain(lattices):
        """The chain shifted so that its first lattice sits at scale 0.

        One live object per pointed-chain value: when a simplex with the
        re-pointed lattices (equal rows and scales) is still alive, it is
        returned itself, already validated and with its derived data
        cached; otherwise the chain is validated and the new simplex
        registered.  The table holds values weakly, so it keeps nothing
        alive, and a chain that fails validation stores nothing."""
        shift = lattices[0].scale
        repointed = tuple(lat.scaled(-shift) for lat in lattices)
        sigma = _LIVE_SIMPLICES.get(repointed)
        if sigma is None:
            sigma = _LIVE_SIMPLICES[repointed] = PointedSimplex(repointed)
        return sigma

    @staticmethod
    def from_homothety_chain(classes):
        """Scale each class into the unique pointed position, if the classes
        do form a simplex.

        In a pointed chain M_0 > ... > M_k > p M_0 of rank n, each lattice
        has index p^j in the previous one M_prev with 1 <= j <= n - 1: it
        is a strict sublattice of M_prev and strictly contains p M_0, which
        contains p M_prev, of index p^n in M_prev.  At scale s a class rep
        has index exponent n s - gap in M_prev, with
        gap = M_prev.det_exponent + n M_prev.scale - rep.det_exponent, so
        the one scale in that window is s = ceil((gap + 1) / n).  The chain
        checks then refuse classes that do not form a simplex."""
        chain = [classes[0].homothety_rep()]
        n = chain[0].dim
        for cls in classes[1:]:
            rep = cls.homothety_rep()
            prev = chain[-1]
            gap = prev.det_exponent + n * prev.scale - rep.det_exponent
            chain.append(rep.scaled(-(-(gap + 1) // n)))
        try:
            return PointedSimplex(tuple(chain))
        except ValueError:
            raise ValueError("classes do not form a pointed simplex") from None

    def chain_mod_p(self):
        """Images of the chain in M_0/pM_0, as reduced-echelon bases in
        M_0-coordinates (the basis of M_0 gives the coordinates)."""
        return self._chain_mod_p

    @cached_property
    def _chain_mod_p(self):
        m0 = self.lattices[0]
        return tuple(m0.image_mod_p(lat) for lat in self.lattices)

    def type_vector(self):
        """(e_0, ..., e_k) with e_i = d_{i+1} - d_i and d_{k+1} = d + 1."""
        ds = self.boundary_indices() + (self.dim + 1,)
        return tuple(b - a for a, b in zip(ds, ds[1:]))

    def boundary_indices(self):
        """(d_0, ..., d_k) with d_i = log_p [M_0 : M_i]; block i of an
        adapted basis occupies indices [d_i, d_{i+1})."""
        m0 = self.lattices[0]
        return tuple(m0.index_exponent(lat) for lat in self.lattices)

    def adapted_basis(self):
        """Integer row vectors f_0..f_d forming a basis of M_0 such that
        {f_j : j >= d_i} spans the image of M_i in M_0/pM_0."""
        return self._adapted_basis

    @cached_property
    def _adapted_basis(self):
        # one greedy completion over the echelon rows of M_k, ..., M_0:
        # block k comes first, and block i is [n - d_{i+1}, n - d_i)
        n = self.dim + 1
        rows = [w for rref, _ in reversed(self.chain_mod_p()) for w in rref]
        added = complete_basis_modp([], rows, self.p)
        bounds = self.boundary_indices() + (n,)
        m0 = self.lattices[0]
        return tuple(
            vecmat(w, m0.rows)
            for lo, hi in zip(bounds, bounds[1:])
            for w in added[n - hi : n - lo]
        )

    @cached_property
    def frame_adjugate(self):
        """(N, D) = inv_scaled(adapted basis): N = D * basis^{-1} with
        D = |det(basis)|, so a point with frame sections D*w is N*w, with no
        division."""
        return inv_scaled(self.adapted_basis())

    @cached_property
    def tube_test_covectors(self):
        """For each chain index i, integer lifts of the classes of M_i/pM_i
        lying outside the image of M_{i+1}, one per projective class: the
        coordinates in the basis of M_i run over the canonical points of
        P^d(F_p).  Such a lift is primitive in M_i, and pM_i <= M_{i+1},
        so its class lies in that image exactly when the lift lies in
        M_{i+1}."""
        p = self.p
        classes = list(canonical_reps(p, 1, self.dim))
        chain = self.lattices + (self.lattices[0].scaled(1),)
        out = []
        for mi, mnext in zip(chain, chain[1:]):
            scale = p**mi.scale
            lifts = (
                tuple(scale * c for c in vecmat(x, mi.rows)) for x in classes
            )
            out.append(tuple(a for a in lifts if not mnext.holds(a)))
        return tuple(out)

    def rotate(self):
        """Move the point one step along the chain: [M_1, ..., M_k, p M_0]."""
        return PointedSimplex.from_chain(
            self.lattices[1:] + (self.lattices[0].scaled(1),)
        )

    def rotations(self):
        """All k+1 pointings of the same underlying simplex, starting here."""
        out = [self]
        cur = self
        for _ in range(self.k):
            cur = cur.rotate()
            out.append(cur)
        return tuple(out)

    def transport(self, g):
        return PointedSimplex.from_chain([lat.transport(g) for lat in self.lattices])

    def right_multiplied(self, m):
        return PointedSimplex.from_chain(
            [lat.right_multiplied(m) for lat in self.lattices]
        )

    def to_json(self):
        return {"chain": [lat.to_json() for lat in self.lattices]}


# from_chain's table: re-pointed lattice tuple -> the live simplex of that
# chain.  An entry goes when its simplex dies.
_LIVE_SIMPLICES = weakref.WeakValueDictionary()


def standard_simplex(p, type_vector):
    """The pointed simplex whose chain is diagonal in the standard basis:
    M_i = <p e_0, ..., p e_{d_i - 1}, e_{d_i}, ..., e_d>, for a non-empty
    type vector of ints >= 1."""
    require_prime(p)
    if not require_ints(type_vector, "a type vector") or min(type_vector) < 1:
        raise ValueError(f"a type vector must be non-empty with entries >= 1, "
                         f"got {type_vector!r}")
    n = sum(type_vector)
    lats = []
    for d_i in accumulate(type_vector[:-1], initial=0):
        rows = [
            [(p if j < d_i else 1) if i == j else 0 for j in range(n)]
            for i in range(n)
        ]
        lats.append(Lattice(p, tuple(tuple(r) for r in rows)))
    return PointedSimplex(tuple(lats))


class Ball:
    """Vertices within a graph radius of a center, with adjacency.  The
    radius is an int >= 0: TypeError or ValueError otherwise."""

    def __init__(self, center, radius):
        self.radius = require_int(radius, "a ball radius", least=0)
        self.center = center.homothety_rep()
        dist = {self.center: 0}
        order = [self.center]
        frontier = [self.center]
        nbrs = {}
        for r in range(1, radius + 1):
            nxt = []
            for lat in frontier:
                nbrs[lat] = lat.neighbors()
                for nb in nbrs[lat]:
                    if nb not in dist:
                        dist[nb] = r
                        order.append(nb)
                        nxt.append(nb)
            frontier = nxt
        self.distance = dist
        self.vertices = order
        for lat in frontier:  # the outer shell, never expanded
            nbrs[lat] = lat.neighbors()
        # neighbors() returns fresh instances: map each to the ball's own
        # vertex, so every edge shares its vertices' cached data
        own = {lat: lat for lat in order}
        self.adjacency = {
            lat: [own[nb] for nb in nbrs[lat] if nb in own] for lat in order
        }

    def edges(self):
        """Unordered adjacent pairs inside the ball, deterministic order."""
        seen = set()
        out = []
        for lat in self.vertices:
            for nb in self.adjacency[lat]:
                key = frozenset((lat, nb))
                if key not in seen:
                    seen.add(key)
                    out.append((lat, nb))
        return out

    def pointed_edges(self):
        """Both orientations of every edge, as pointed simplices."""
        out = []
        for a, b in self.edges():
            out.append(PointedSimplex.from_homothety_chain([a, b]))
            out.append(PointedSimplex.from_homothety_chain([b, a]))
        return out

    def to_json(self):
        return [
            {
                "vertex_hnf": [list(r) for r in lat.rows],
                "distance": self.distance[lat],
                "neighbors": [
                    [list(r) for r in nb.rows] for nb in self.adjacency[lat]
                ],
            }
            for lat in self.vertices
        ]


def tree_ball_size(p, radius):
    """Vertex count of a radius-r ball in the (p+1)-regular tree, for an int
    radius >= 0: TypeError or ValueError otherwise."""
    if require_int(radius, "a ball radius", least=0) == 0:
        return 1
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)
