"""Lattice building: canonical forms, simplices, adapted bases, balls."""

import copy
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld import building
from drinfeld.building import (
    Ball,
    Lattice,
    PointedSimplex,
    _subspace_table,
    standard_simplex,
    tree_ball_size,
)
from drinfeld.certify import TAU_CONFIGS, _random_simplex_for
from drinfeld.covers import point_in_tube, reduce_to_building
from drinfeld.intlinalg import (
    gaussian_binomial,
    hnf_adjugate_columns,
    hnf_det,
    hnf_rows,
    matmul,
    pval,
    rref_modp,
    subspaces_modp,
)
from drinfeld.padic import FieldDesc
from helpers import (
    covector_coordinates,
    in_span_modp,
    proper_faces,
    random_gl_integer,
    random_pointed_simplex,
    random_unimodular_integer,
    reference_adapted_basis,
    reference_boundary_indices,
    reference_det_int,
    reference_inv_scaled,
    reference_neighbors,
    reference_type_vector,
    reference_valuation,
)


def test_saturation_removes_prime_to_p_index():
    lat = Lattice.from_rows(2, [[3, 0], [0, 1]])
    assert lat == Lattice.standard(2, 1)
    lat = Lattice.from_rows(3, [[2, 1], [0, 5]])
    assert lat.det_exponent == 0
    assert lat == Lattice.standard(3, 1)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_hermite_diagonal_is_the_determinant(p, d, seed):
    """A full-rank Hermite basis is upper triangular, so the product of its
    diagonal is the cofactor determinant, before and after saturation."""
    rng = random.Random(seed)
    rows = random_gl_integer(d + 1, rng, bound=2 * p)
    h = hnf_rows(rows)
    assert hnf_det(h) == reference_det_int(h) == abs(reference_det_int(rows))
    lat = Lattice.from_rows(p, rows, scale=rng.randint(-2, 2))
    assert hnf_det(lat.rows) == reference_det_int(lat.rows) == p**lat.det_exponent
    assert lat.det_exponent == pval(reference_det_int(lat.rows), p)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_back_substituted_adjugate_is_the_cofactor_one(p, d, seed):
    """On a Hermite basis, back substitution gives the cofactor adjugate and
    determinant, and so the same adj_data, before and after saturation."""
    rng = random.Random(seed)
    rows = random_gl_integer(d + 1, rng, bound=2 * p)
    h = hnf_rows(rows)
    cols, det = hnf_adjugate_columns(h)
    assert (tuple(zip(*cols)), det) == reference_inv_scaled(h)
    lat = Lattice.from_rows(p, rows, scale=rng.randint(-2, 2))
    n, det = reference_inv_scaled(lat.rows)
    assert hnf_adjugate_columns(lat.rows) == (tuple(zip(*n)), det)
    assert lat.adj_data() == (n, lat.det_exponent)


def test_primitive_scaling():
    lat = Lattice.from_rows(3, [[3, 0], [0, 3]])
    assert lat.rows == ((1, 0), (0, 1))
    assert lat.scale == 1
    assert lat.homothety_rep() == Lattice.standard(3, 1)


def test_rank_deficient_rejected():
    with pytest.raises(ValueError):
        Lattice.from_rows(2, [[1, 2], [2, 4]])


def test_containment_and_index():
    std = Lattice.standard(2, 1)
    sub = std.scaled(1)
    assert std.contains(sub, strict=True)
    assert not sub.contains(std)
    assert std.index_exponent(sub) == 2
    mid = Lattice.from_rows(2, [[2, 0], [0, 1]])
    assert std.contains(mid, strict=True)
    assert mid.contains(sub, strict=True)
    assert std.index_exponent(mid) == 1


# neighbor counts are sums of Gaussian binomials
@pytest.mark.parametrize(
    "p,d,count", [(2, 1, 3), (3, 1, 4), (5, 1, 6), (2, 2, 14), (3, 2, 26)]
)
def test_neighbor_counts(p, d, count):
    nbs = Lattice.standard(p, d).neighbors()
    assert len(nbs) == len(set(nbs)) == count
    assert count == sum(gaussian_binomial(d + 1, k, p) for k in range(1, d + 1))


def random_scaled_vertex(p, n, rng):
    """A vertex spanned by random rows, each times a random p-power, at a
    random scale."""
    rows = random_gl_integer(n, rng, bound=p * p)
    powers = [p ** rng.randint(0, 2) for _ in rows]
    rows = [[c * q for c in row] for row, q in zip(rows, powers)]
    return Lattice.from_rows(p, rows, scale=rng.randint(-2, 2))


@pytest.mark.parametrize(
    "p,d,radius", [(2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 2), (3, 2, 1), (2, 3, 1)]
)
def test_neighbors_match_the_hermite_reduction(p, d, radius):
    """The triangular preimage bases give the rows, scales and order of the
    from_rows reduction of pL + lifted W, and the seeded determinant
    exponent is the one of the rows.  A neighbor outside L at scale 0 is
    one whose preimage needed the primitive shift."""
    rng = random.Random(100 * p + 10 * d + radius)
    vertices = Ball(Lattice.standard(p, d), radius).vertices + [
        random_scaled_vertex(p, d + 1, rng) for _ in range(30)
    ]
    shifted = 0
    for lat in vertices:
        nbs = lat.neighbors()
        assert [(nb.rows, nb.scale) for nb in nbs] == [
            (nb.rows, nb.scale) for nb in reference_neighbors(lat)
        ]
        for nb in nbs:
            assert nb.__dict__["det_exponent"] == pval(hnf_det(nb.rows), p)
        shifted += sum(not lat.homothety_rep().contains(nb) for nb in nbs)
    assert shifted


@pytest.mark.parametrize("p, n", [(2, 2), (3, 3), (2, 4)])
def test_subspace_table_is_the_enumeration_with_pivots(p, n):
    # neighbors reads the table, so its order is the enumeration's
    for k in range(1, n):
        table = _subspace_table(n, k, p)
        assert [tuple(w for _, w in basis) for basis in table] == list(
            subspaces_modp(n, k, p)
        )
        for basis in table:
            assert all(w[c] == 1 and not any(w[:c]) for c, w in basis)
        assert _subspace_table(n, k, p) is table


@pytest.mark.parametrize("p", [2, 3, 5])
def test_neighbor_through_the_primitive_shift(p):
    # W = <e_0> in L/pL for L = <p e_0, e_1>: the preimage <p e_0, p e_1>
    # is p times the standard lattice
    lat = Lattice.from_rows(p, [[p, 0], [0, 1]])
    nb = lat.neighbors()[0]
    assert nb == Lattice.standard(p, 1)
    assert nb.__dict__["det_exponent"] == 0


def test_neighbor_relation_is_symmetric():
    for p, d in [(2, 1), (3, 1), (2, 2)]:
        std = Lattice.standard(p, d)
        for nb in std.neighbors():
            assert std in nb.neighbors()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_tree_ball_sizes(p, radius):
    ball = Ball(Lattice.standard(p, 1), radius)
    assert len(ball.vertices) == tree_ball_size(p, radius)
    # a tree: induced edge count is vertex count minus one, i.e. no cycles
    assert len(ball.edges()) == len(ball.vertices) - 1


@pytest.mark.parametrize("radius, error", [
    (-1, ValueError), (1.5, TypeError), (True, TypeError), (2.0, TypeError),
], ids=["negative", "fraction", "bool", "float"])
def test_ball_radius_must_be_an_int_at_least_zero(radius, error):
    # tree_ball_size(2, -1) returned -1.0 and tree_ball_size(2, 1.5) 6.0;
    # Ball(std, -1) was a one-vertex ball of radius -1, Ball(std, True) was
    # accepted and Ball(std, 1.5) failed in range() without naming the radius
    with pytest.raises(error, match="a ball radius"):
        tree_ball_size(2, radius)
    with pytest.raises(error, match="a ball radius"):
        Ball(Lattice.standard(2, 1), radius)


def test_ball_distances_and_adjacency():
    ball = Ball(Lattice.standard(2, 1), 2)
    assert ball.distance[ball.center] == 0
    for a, b in ball.edges():
        assert abs(ball.distance[a] - ball.distance[b]) == 1
    for lat in ball.vertices:
        for nb in ball.adjacency[lat]:
            assert lat in ball.adjacency[nb]


def test_standard_simplex_shapes():
    s = standard_simplex(2, (1, 1))
    assert [lat.rows for lat in s.lattices] == [
        ((1, 0), (0, 1)),
        ((2, 0), (0, 1)),
    ]
    assert s.type_vector() == (1, 1)
    assert s.boundary_indices() == (0, 1)
    for tv in [(1, 1, 1), (2, 1), (1, 2), (3,)]:
        assert standard_simplex(3, tv).type_vector() == tv


@settings(max_examples=30)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_type_from_indices_matches_the_mod_p_flag(p, d, seed):
    """The type and boundary indices read off lattice indices agree with
    the dimensions of the images in M_0/pM_0, on rotations, proper faces
    and transports."""
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    g = random_gl_integer(d + 1, rng, p=p)
    for tau in sigma.rotations() + tuple(proper_faces(sigma)) + (
        sigma.transport(g),
    ):
        assert tau.type_vector() == reference_type_vector(tau)
        assert tau.boundary_indices() == reference_boundary_indices(tau)


def test_rotation_cycles_and_type():
    s = standard_simplex(2, (1, 1))
    assert s.rotate().rotate() == s
    for tv, want in [((2, 1), (1, 2)), ((1, 2), (2, 1)), ((1, 1, 1), (1, 1, 1))]:
        s = standard_simplex(3, tv)
        assert s.rotate().type_vector() == want
        r = s
        for _ in range(len(tv)):
            r = r.rotate()
        assert r == s


# --- from_chain's table: one live object per pointed-chain value -----------


def test_from_chain_returns_the_live_simplex_of_its_chain():
    sigma = random_pointed_simplex(3, 2, random.Random(5), type_vector=(1, 1, 1))
    assert PointedSimplex.from_chain(sigma.lattices) is sigma
    # the same chain at another scale re-points to the same value
    shifted = [lat.scaled(2) for lat in sigma.lattices]
    assert PointedSimplex.from_chain(shifted) is sigma
    # fresh lattice objects of equal value find it too
    bare = [Lattice(lat.p, lat.rows, lat.scale) for lat in sigma.lattices]
    assert PointedSimplex.from_chain(bare) is sigma
    assert building._LIVE_SIMPLICES[sigma.lattices] is sigma


@pytest.mark.parametrize("tv", [(1, 1), (2, 1), (1, 2), (1, 1, 1)])
def test_rotating_all_the_way_round_returns_the_simplex_itself(tv):
    sigma = random_pointed_simplex(2, sum(tv) - 1, random.Random(len(tv)),
                                   type_vector=tv)
    cur = sigma
    for _ in range(sigma.k + 1):
        cur = cur.rotate()
    assert cur is sigma
    assert sigma.rotations()[0] is sigma
    assert all(r.rotate() is nxt for r, nxt in
               zip(sigma.rotations(), sigma.rotations()[1:]))


def test_reduction_returns_the_simplex_the_caller_holds():
    """A tube sample keeps its pointing, so its reduction is the sampled
    simplex itself, with its tube tests already cached: on two simplices
    of every criterion 10 shape."""
    rng = random.Random(31)
    for p, d, e, f in TAU_CONFIGS:
        for _ in range(2):
            sigma = _random_simplex_for(p, d, e, f, rng)
            k0 = sigma.lattices[0].det_exponent
            desc = FieldDesc(p=p, e=e, f=f, N=max(e * (10 + 3 * k0), 2 * e))
            assert reduce_to_building(point_in_tube(desc, sigma, rng)).simplex is sigma


def test_the_table_keeps_nothing_alive():
    sigma = random_pointed_simplex(2, 2, random.Random(8), type_vector=(2, 1))
    key = sigma.lattices
    assert building._LIVE_SIMPLICES.get(key) is sigma
    del sigma
    gc.collect()
    assert key not in building._LIVE_SIMPLICES
    # a reduced simplex that nobody else holds dies with its caller's hold
    rng = random.Random(4)
    desc = FieldDesc(p=2, e=2, f=2, N=40)
    z = point_in_tube(desc, random_pointed_simplex(2, 2, rng, type_vector=(2, 1)),
                      rng)
    gc.collect()
    bp = reduce_to_building(z)
    ref = weakref.ref(bp.simplex)
    assert building._LIVE_SIMPLICES.get(bp.simplex.lattices) is bp.simplex
    del bp
    gc.collect()
    assert ref() is None


def test_a_chain_that_fails_validation_raises_every_time_and_stores_nothing():
    sigma = PointedSimplex.from_chain(standard_simplex(2, (1, 1)).lattices)
    m0, m1 = sigma.lattices
    gc.collect()
    before = len(building._LIVE_SIMPLICES)
    # the same rows as the live simplex at other scales, and a repeated
    # lattice: none is a pointed chain
    for bad in ([m0, m1.scaled(1)], [m0, m1.scaled(-1)], [m0, m0], [m1, m0]):
        key = tuple(lat.scaled(-bad[0].scale) for lat in bad)
        for _ in range(2):
            with pytest.raises(ValueError, match="chain"):
                PointedSimplex.from_chain(bad)
            assert key not in building._LIVE_SIMPLICES
    assert len(building._LIVE_SIMPLICES) == before
    assert PointedSimplex.from_chain([m0, m1]) is sigma


def frozen(value):
    """Whether a cached value is built of tuples and integers only."""
    if isinstance(value, tuple):
        return all(frozen(x) for x in value)
    return isinstance(value, int)


@pytest.mark.parametrize("p, d", [(2, 1), (3, 2), (2, 3)])
def test_cached_derived_data_is_invisible_to_the_value(p, d):
    sigma = random_pointed_simplex(p, d, random.Random(17 * p + d))
    copy = PointedSimplex(
        tuple(Lattice(lat.p, lat.rows, lat.scale) for lat in sigma.lattices)
    )
    sigma.chain_mod_p()
    sigma.adapted_basis()
    sigma.tube_test_covectors
    sigma.frame_adjugate
    cached = ("_chain_mod_p", "_adapted_basis", "tube_test_covectors",
              "frame_adjugate")
    assert all(frozen(sigma.__dict__[name]) for name in cached)
    assert not any(name in copy.__dict__ for name in cached)
    assert sigma == copy and hash(sigma) == hash(copy)
    assert sigma.to_json() == copy.to_json()
    # a directly built copy is no live simplex of from_chain's table, which
    # still resolves the chain to sigma
    assert copy is not sigma and PointedSimplex.from_chain(copy.lattices) is sigma
    for lat in sigma.lattices:
        bare = Lattice(lat.p, lat.rows, lat.scale)
        assert frozen(lat._adj_cols) and "_adj_cols" not in bare.__dict__
        n, det = reference_inv_scaled(lat.rows)
        assert lat.adj_data() == bare.adj_data() == (n, pval(det, p))
        assert lat == bare and hash(lat) == hash(bare)
        assert lat.to_json() == bare.to_json()


def test_rescaled_lattices_carry_their_adjugate():
    lat = Lattice.from_rows(3, [[1, 2, 0], [0, 3, 0], [0, 0, 9]], scale=1)
    assert "_adj_cols" not in lat.scaled(1).__dict__  # carried, never computed
    lat.valuation((1, 0, 0))  # back substitution gives the columns
    cols = lat.__dict__["_adj_cols"]
    assert lat.scaled(1).__dict__["_adj_cols"] is cols
    for other in (lat.scaled(2), lat.scaled(-1), lat.homothety_rep(),
                  lat.scaled(2).homothety_rep()):
        assert other.rows == lat.rows and other.__dict__["_adj_cols"] is cols
        n, det = reference_inv_scaled(other.rows)
        assert other.adj_data() == (n, pval(det, 3))
        assert cols == tuple(zip(*n))


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_valuation_reads_the_adjugate_columns(p, d, seed):
    rng = random.Random(seed)
    lat = random_scaled_vertex(p, d + 1, rng)
    for _ in range(10):
        a = [rng.randint(-p**3, p**3) for _ in range(d + 1)]
        if rng.random() < 0.5:
            a = [c * p ** rng.randint(1, 3) for c in a]
        if any(a):
            assert lat.valuation(a) == reference_valuation(lat, a)
    with pytest.raises(ValueError, match="zero covector"):
        lat.valuation((0,) * (d + 1))


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_memoized_valuation_matches_the_reference(p, d, seed):
    """valuation keeps one scale-free int per covector, which rescaled
    copies share: repeated calls, list and tuple covectors, and copies asked
    before and after the original all read reference_valuation.  The zero
    covector raises on every call and is never stored."""
    rng = random.Random(seed)
    lat = random_scaled_vertex(p, d + 1, rng)
    early = lat.scaled(rng.randint(1, 3))  # made before anything is cached
    covectors = []
    for _ in range(6):
        a = [rng.randint(-p**3, p**3) for _ in range(d + 1)]
        if rng.random() < 0.5:
            a = [c * p ** rng.randint(1, 3) for c in a]
        if any(a):
            covectors.append(a)
    for a in covectors:
        assert early.valuation(a) == reference_valuation(early, a)
    for _ in range(2):
        for a in covectors:
            want = reference_valuation(lat, a)
            assert lat.valuation(a) == lat.valuation(tuple(a)) == want
    for other in (lat.scaled(rng.randint(-2, 2)), lat.homothety_rep(), early,
                  early.homothety_rep()):
        for a in covectors:
            assert other.valuation(tuple(a)) == reference_valuation(other, a)
    zero = (0,) * (d + 1)
    for target in (lat, lat.scaled(-1)):
        for a in (zero, list(zero), zero):
            with pytest.raises(ValueError, match="zero covector"):
                target.valuation(a)
        assert zero not in target.__dict__["_valuations"]


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_holds_is_the_valuation_bound(p, d, seed):
    """holds(a, m) is reference_valuation(lat, a) >= m, on covectors scaled
    by powers of p and at m low enough that the exponent k + scale + m is
    <= 0, where every integer covector is held.  The zero covector, which
    has no valuation, is held at every m."""
    rng = random.Random(seed)
    lat = random_scaled_vertex(p, d + 1, rng)
    low = -lat.det_exponent - lat.scale  # the exponent is <= 0 up to here
    for _ in range(10):
        a = [rng.randint(-p**3, p**3) for _ in range(d + 1)]
        if rng.random() < 0.5:
            a = [c * p ** rng.randint(1, 3) for c in a]
        if not any(a):
            continue
        v = reference_valuation(lat, a)
        assert v >= low
        for m in {low - 2, low, low + 1, v - 1, v, v + 1, v + 3,
                  rng.randint(low - 3, v + 3)}:
            assert lat.holds(a, m) == (v >= m)
    for m in (low - 1, low, low + 1, low + 5):
        assert lat.holds((0,) * (d + 1), m)


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_fresh_neighbors_cache_the_cofactor_adjugate_columns(p, d):
    """The adjugate columns a fresh neighbors() output caches, and those of
    its scaled and homothety_rep copies, whether made before or after it
    computed them, are the columns of the cofactor adjugate, over the
    determinant p^det_exponent."""
    rng = random.Random(10 * p + d)
    for vertex in (Lattice.standard(p, d), random_scaled_vertex(p, d + 1, rng)):
        for nb in vertex.neighbors():
            n, det = reference_inv_scaled(nb.rows)
            cols = tuple(zip(*n))
            before = (nb.scaled(rng.randint(1, 3)), nb.scaled(-1).homothety_rep())
            assert nb._adj_cols == cols and det == p**nb.det_exponent
            after = (nb.scaled(rng.randint(1, 3)), nb.homothety_rep(),
                     nb.scaled(2).homothety_rep())
            for lat in (nb, *before, *after):
                assert lat._adj_cols == cols
                assert lat.adj_data() == (n, nb.det_exponent)
            assert all(lat._adj_cols is nb._adj_cols for lat in after)


def test_rescaled_lattices_carry_their_det_exponent():
    lat = Lattice.from_rows(3, [[1, 2, 0], [0, 3, 0], [0, 0, 9]], scale=1)
    assert "det_exponent" not in lat.scaled(1).__dict__  # carried, never computed
    assert lat.det_exponent == 3
    for other in (lat.scaled(2), lat.scaled(-1), lat.homothety_rep(),
                  lat.scaled(2).homothety_rep()):
        assert other.rows == lat.rows and other.__dict__["det_exponent"] == 3
        assert "_adj_cols" not in other.__dict__
    n, det = reference_inv_scaled(lat.rows)
    assert lat.scaled(2).adj_data() == (n, pval(det, 3))


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_adapted_basis_spans_the_flag(pd, seed):
    p, d = pd
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    basis = sigma.adapted_basis()
    ds = sigma.boundary_indices()
    chain = sigma.chain_mod_p()
    m0 = sigma.lattices[0]
    for i, (rref, piv) in enumerate(chain):
        block = basis[ds[i] :]
        coords = [covector_coordinates(sigma, f)[0] for f in block]
        reduced = [[c % p for c in x] for x in coords]
        r2, piv2 = rref_modp(reduced, p)
        assert len(r2) == len(rref)
        for row in rref:
            assert in_span_modp(r2, piv2, row, p)
    # the adapted rows are a basis of M_0 itself
    assert Lattice.from_rows(p, [list(f) for f in basis]) == m0


@settings(max_examples=60)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_adapted_basis_is_the_block_by_block_completion(p, d, seed):
    """One completion over the whole chain picks the rows that the
    block-by-block completion picks, in the same order, on every
    rotation: the benchmark digests read these exact bytes."""
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    for tau in sigma.rotations():
        assert tau.adapted_basis() == reference_adapted_basis(tau)


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_conjugacy_witness(pd, seed):
    p, d = pd
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    f = [list(f) for f in sigma.adapted_basis()]
    assert standard_simplex(p, sigma.type_vector()).right_multiplied(f) == sigma


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_image_mod_p_has_the_index_codimension(pd, seed):
    """For pM <= N <= M the image of N in M/pM has dimension
    n - log_p [M : N]: every lattice of a pointed chain in each earlier
    one, and each pM_j (j <= i) in M_i."""
    p, d = pd
    sigma = random_pointed_simplex(p, d, random.Random(seed))
    lats = sigma.lattices
    for i, mi in enumerate(lats):
        for sub in lats[i:] + tuple(lat.scaled(1) for lat in lats[: i + 1]):
            if sub.scale - mi.scale > mi.det_exponent:
                # outside the precondition, as pM is at det exponent 0
                with pytest.raises(ValueError):
                    mi.image_mod_p(sub)
                continue
            rref, piv = mi.image_mod_p(sub)
            assert len(rref) == len(piv) == d + 1 - mi.index_exponent(sub)
            assert (rref, piv) == rref_modp(rref, p)
    std = Lattice.standard(p, d)
    assert std.image_mod_p(std) == rref_modp(std.rows, p)


def test_image_mod_p_refuses_a_sublattice_below_p_times_the_lattice():
    std = Lattice.standard(2, 1)
    with pytest.raises(ValueError):
        std.image_mod_p(std.scaled(1))


def test_from_homothety_chain_unique_scaling():
    std = Lattice.standard(2, 1)
    for nb in std.neighbors():
        edge = PointedSimplex.from_homothety_chain([std, nb])
        assert edge.k == 1
        assert edge.lattices[0] == std
        assert std.contains(edge.lattices[1], strict=True)
        assert edge.lattices[1].contains(std.scaled(1), strict=True)


def test_from_homothety_chain_rejects_distant_pairs():
    ball = Ball(Lattice.standard(2, 1), 2)
    far = [v for v in ball.vertices if ball.distance[v] == 2][0]
    with pytest.raises(ValueError):
        PointedSimplex.from_homothety_chain([Lattice.standard(2, 1), far])


def entrywise_contains(big, small, strict=False):
    """Reference inclusion test: every coordinate of small in big, scaled,
    has nonnegative valuation."""
    n, k = big.adj_data()
    shift = small.scale - big.scale - k
    for row in matmul(small.rows, n):
        for c in row:
            if c and pval(c, big.p) + shift < 0:
                return False
    return not (strict and big.index_exponent(small) == 0)


def scan_homothety_chain(classes):
    """Reference pointing: try every scaling within a bound and require
    exactly one to sit strictly between the previous lattice and p M_0."""
    base = classes[0].homothety_rep()
    chain = [base]
    bound = sum(c.det_exponent for c in classes) + 2
    for cls in classes[1:]:
        rep = cls.homothety_rep()
        fits = [
            rep.scaled(j)
            for j in range(-bound, bound + 1)
            if entrywise_contains(chain[-1], rep.scaled(j), strict=True)
            and entrywise_contains(rep.scaled(j), base.scaled(1), strict=True)
        ]
        if len(fits) != 1:
            raise ValueError("classes do not form a pointed simplex")
        chain.append(fits[0])
    return PointedSimplex(tuple(chain))


def pointing_outcome(build, classes):
    try:
        return build(classes)
    except ValueError as e:
        return str(e)


@given(
    st.sampled_from([2, 3]),
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=0, max_value=10**6),
)
def test_from_homothety_chain_matches_scan(p, d, seed):
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    for pointed in sigma.rotations():
        classes = [lat.homothety_rep() for lat in pointed.lattices]
        assert PointedSimplex.from_homothety_chain(classes) == pointed
        assert scan_homothety_chain(classes) == pointed
    classes = [lat.homothety_rep() for lat in sigma.lattices]
    rng.shuffle(classes)
    assert pointing_outcome(PointedSimplex.from_homothety_chain, classes) == (
        pointing_outcome(scan_homothety_chain, classes)
    )


@pytest.mark.parametrize("p,d,radius", [(2, 1, 3), (3, 1, 2), (2, 2, 1)])
def test_from_homothety_chain_matches_scan_on_ball_pairs(p, d, radius):
    ball = Ball(Lattice.standard(p, d), radius)
    for a in ball.vertices:
        for b in ball.vertices:
            got = pointing_outcome(PointedSimplex.from_homothety_chain, [a, b])
            assert got == pointing_outcome(scan_homothety_chain, [a, b])
            if b in ball.adjacency[a]:
                assert isinstance(got, PointedSimplex)
            elif p == 2 and d == 1:
                # in the tree every non-adjacent pair fails to be an edge
                assert got == "classes do not form a pointed simplex"


@given(
    st.sampled_from([2, 3]),
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=0, max_value=10**6),
)
def test_from_homothety_chain_takes_the_least_fitting_scale(p, d, seed):
    """Each class of a pointed chain sits at the least scale at which it
    fits inside the previous lattice, and contains agrees with the
    entrywise reference around the least fitting scale of an unrelated
    vertex."""
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    classes = [lat.homothety_rep() for lat in sigma.lattices]
    pointed = PointedSimplex.from_homothety_chain(classes)
    for prev, lat in zip(pointed.lattices, pointed.lattices[1:]):
        assert entrywise_contains(prev, lat)
        assert not entrywise_contains(prev, lat.scaled(-1))
    big = pointed.lattices[-1]
    small = random_pointed_simplex(p, d, rng).lattices[0].scaled(rng.randint(-3, 3))
    base = small.homothety_rep()
    # a primitive class fits in p^s Z^n from scale s on, and big holds
    # p^(scale + k) Z^n, so the least fitting scale lies in that window
    j = next(j for j in range(big.scale, big.scale + big.det_exponent + 1)
             if entrywise_contains(big, base.scaled(j)))
    assert not entrywise_contains(big, base.scaled(j - 1))
    for lat in (small, base.scaled(j), base.scaled(j + 1)):
        for strict in (False, True):
            assert big.contains(lat, strict=strict) == entrywise_contains(
                big, lat, strict=strict
            )
        assert big.contains(lat) == (lat.scale >= j)


def reference_chain_check(lats):
    """PointedSimplex's two chain checks by entrywise_contains: the message
    of the first that fails, or None."""
    for prev, lat in zip(lats, lats[1:]):
        if not entrywise_contains(prev, lat, strict=True):
            return "chain inclusions must be strict"
    if not entrywise_contains(lats[-1], lats[0].scaled(1), strict=True):
        return "chain must stay strictly above p M_0"
    return None


def chain_check(lats):
    """The message PointedSimplex raises on the chain, or None; the lattices
    are fresh copies, so no adjugate cached by another test is read."""
    try:
        PointedSimplex(tuple(Lattice(lat.p, lat.rows, lat.scale) for lat in lats))
    except ValueError as e:
        return str(e)
    return None


NOT_STRICT = "chain inclusions must be strict"
NOT_ABOVE = "chain must stay strictly above p M_0"


@given(
    st.sampled_from([2, 3]),
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=0, max_value=10**6),
)
def test_chain_checks_match_the_entrywise_reference(p, d, seed):
    """The chain checks accept and refuse, with the same message, what
    entrywise_contains does: every pointing of a random simplex, and near
    misses of each: a last lattice equal to p M_0 or not above it, a middle
    inclusion that is not strict, an M_1 outside M_0, and an unrelated
    vertex at scales around the window."""
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    other = random_pointed_simplex(p, d, rng).lattices[0]
    for pointed in sigma.rotations():
        lats = pointed.lattices
        m0, last = lats[0], lats[-1]
        i = rng.randrange(len(lats))
        cases = [
            (lats, None),
            (lats + (m0.scaled(1),), NOT_ABOVE),
            (lats + (m0.scaled(2),), NOT_ABOVE),
            ((m0, last.scaled(1)), NOT_ABOVE),
            (lats[: i + 1] + lats[i:], NOT_STRICT),
            ((m0, last.scaled(-1)), NOT_STRICT),
        ]
        if len(lats) > 1:
            cases.append(((m0, lats[1].scaled(-1)) + lats[2:], NOT_STRICT))
        for chain, expected in cases:
            assert chain_check(chain) == reference_chain_check(chain) == expected
        for j in range(-1, m0.det_exponent + 3):
            chain = (m0, other.scaled(j))
            assert chain_check(chain) == reference_chain_check(chain)


@pytest.mark.parametrize("p", [2, 3])
def test_from_homothety_chain_refuses_what_is_no_simplex(p):
    """The same class twice, two classes at distance 2 in the tree, and
    p M_0 after M_0 or after a pointed edge: the chain checks refuse
    each."""
    std = Lattice.standard(p, 1)
    ball = Ball(std, 2)
    far = next(v for v in ball.vertices if ball.distance[v] == 2)
    nb = ball.adjacency[std][0]
    for classes in ([std, std], [std, far], [std, std.scaled(1)],
                    [std, nb, std.scaled(1)]):
        with pytest.raises(ValueError,
                           match="classes do not form a pointed simplex"):
            PointedSimplex.from_homothety_chain(classes)


@pytest.mark.parametrize("p, d, radius", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_ball_edges_start_at_the_ball_vertices(p, d, radius):
    """Every adjacency entry is one of the ball's own vertex objects, so
    every pointed edge starts at one; the ball keeps the to_json, edges and
    pointed edges of one that keeps the fresh neighbors() instances."""
    ball = Ball(Lattice.standard(p, d), radius)
    own = {id(lat) for lat in ball.vertices}
    assert all(id(nb) in own for nbs in ball.adjacency.values() for nb in nbs)
    assert all(id(edge.lattices[0]) in own for edge in ball.pointed_edges())
    fresh = copy.copy(ball)
    fresh.adjacency = {
        lat: [nb for nb in lat.neighbors() if nb in ball.distance]
        for lat in ball.vertices
    }
    assert not any(id(nb) in own for nbs in fresh.adjacency.values()
                   for nb in nbs)
    assert ball.to_json() == fresh.to_json()
    assert ball.edges() == fresh.edges()
    assert ball.pointed_edges() == fresh.pointed_edges()


def test_pointed_edges_both_orientations():
    ball = Ball(Lattice.standard(3, 1), 1)
    pe = ball.pointed_edges()
    assert len(pe) == 2 * len(ball.edges())
    keys = {tuple((l.rows, l.scale) for l in s.lattices) for s in pe}
    assert len(keys) == len(pe)


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_transport_is_contravariant_action(pd, seed):
    p, d = pd
    rng = random.Random(seed)
    lat = random_pointed_simplex(p, d, rng).lattices[0]
    g = random_gl_integer(d + 1, rng, p=p)
    h = random_gl_integer(d + 1, rng, p=p)
    assert lat.transport(g).transport(h) == lat.transport(matmul(h, g))


def test_transport_requires_unit_determinant():
    lat = Lattice.standard(2, 1)
    with pytest.raises(ValueError):
        lat.transport([[2, 0], [0, 1]])


def test_simplex_transport_preserves_type():
    rng = random.Random(4)
    for p, d in [(2, 1), (3, 2)]:
        sigma = random_pointed_simplex(p, d, rng)
        g = random_unimodular_integer(d + 1, rng)
        assert sigma.transport(g).type_vector() == sigma.type_vector()


def test_covector_coordinates_frozen_examples():
    m0 = Lattice.from_rows(2, [(0, 1), (4, 0)])
    sigma = PointedSimplex.from_chain((m0,))
    assert covector_coordinates(sigma, (0, 1)) == ((0, 1), 0)
    assert covector_coordinates(sigma, (2, 1)) == ((1, 2), -1)
    assert covector_coordinates(sigma, (1, 0)) == ((1, 0), -2)
    with pytest.raises(ValueError):
        covector_coordinates(sigma, (0, 0))


def test_lattice_json():
    lat = Lattice.from_rows(2, [[2, 1], [0, 1]])
    assert lat.to_json() == {"hnf": [[2, 0], [0, 1]], "scale": 0}
    s = standard_simplex(2, (1, 1))
    obj = s.to_json()
    assert [rec["hnf"] for rec in obj["chain"]] == [
        [[1, 0], [0, 1]],
        [[2, 0], [0, 1]],
    ]


def _is_nested_tuple(x):
    return isinstance(x, tuple) and all(
        _is_nested_tuple(y) for y in x if not isinstance(y, int)
    )


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_cached_derived_data_is_invisible(pd, seed):
    p, d = pd
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    chain = sigma.chain_mod_p()
    assert sigma.chain_mod_p() is chain
    assert _is_nested_tuple(chain)
    # a fresh simplex on fresh lattices, with no chain cached yet
    fresh = PointedSimplex(
        tuple(Lattice(lat.p, lat.rows, lat.scale) for lat in sigma.lattices)
    )
    assert "_chain_mod_p" not in vars(fresh)
    assert fresh == sigma and hash(fresh) == hash(sigma)
    assert fresh.to_json() == sigma.to_json()
    assert {sigma: 1}[fresh] == 1
    assert fresh.chain_mod_p() == chain
    for lat in sigma.lattices:
        cols = lat._adj_cols
        assert lat._adj_cols is cols
        assert _is_nested_tuple(cols)
        bare = Lattice(lat.p, lat.rows, lat.scale)
        assert "_adj_cols" not in vars(bare)
        assert bare == lat and hash(bare) == hash(lat)
        assert bare.to_json() == lat.to_json()
        n, det = reference_inv_scaled(lat.rows)
        assert bare.adj_data() == lat.adj_data() == (n, pval(det, p))


@pytest.mark.parametrize("rows, scale, error, match", [
    ([[True, 0], [0, 1]], 0, TypeError, "lattice row"),
    ([[1, 0], [0, 1]], 1.5, TypeError, "lattice scale"),
    ([[1, 0], [0, 1]], True, TypeError, "lattice scale"),
    ([], 0, ValueError, "non-empty"),
    ([[1, 0], [0]], 0, ValueError, "equal length"),
    ([[1], [0, 1]], 0, ValueError, "equal length"),
], ids=["bool-entry", "fraction-scale", "bool-scale", "no-rows", "short-row",
        "long-row"])
def test_from_rows_refuses_values_that_are_not_ints(rows, scale, error, match):
    # a bool entry or a fractional scale used to build a lattice, and no rows
    # or ragged rows raised IndexError
    with pytest.raises(error, match=match):
        Lattice.from_rows(2, rows, scale)


@pytest.mark.parametrize("p, error, match", [
    (0, ValueError, "p = 0 is not prime"),
    (1, ValueError, "p = 1 is not prime"),
    (4, ValueError, "p = 4 is not prime"),
    (True, TypeError, "the prime must be an int"),
    (2.0, TypeError, "the prime must be an int"),
], ids=["0", "1", "4", "bool", "float"])
def test_lattice_entry_points_refuse_a_p_that_is_not_prime(p, error, match):
    # p = 1 and True used to loop for ever in pval, p = 4 returned the
    # identity lattice and p = 0 raised ZeroDivisionError; the field
    # refuses the same p with the same type and message
    for build in (lambda: Lattice.from_rows(p, [[2, 0], [0, 1]]),
                  lambda: Lattice.standard(p, 1),
                  lambda: standard_simplex(p, (1, 1)),
                  lambda: FieldDesc(p)):
        with pytest.raises(error, match=match):
            build()


@pytest.mark.parametrize("p", [0, 1, True], ids=["0", "1", "bool"])
def test_a_direct_lattice_refuses_its_p_when_read(p):
    # Lattice(...) skips from_rows and its prime check; its determinant
    # exponent reached pval, which looped for ever at p = 1 and True and
    # raised ZeroDivisionError at p = 0
    with pytest.raises(ValueError, match=f"valuation at p = {p!r} is undefined"):
        Lattice(p, ((2, 0), (0, 1))).det_exponent


@pytest.mark.parametrize("d, error, match", [
    (-1, ValueError, "a dimension must be at least 0, got -1"),
    (True, TypeError, "a dimension must be an int, not bool True"),
    (1.0, TypeError, "a dimension must be an int, not float 1.0"),
], ids=["negative", "bool", "float"])
def test_standard_lattice_refuses_a_bad_dimension(d, error, match):
    # d = -1 built a zero-dimensional lattice and True the d = 1 lattice
    with pytest.raises(error, match=match):
        Lattice.standard(2, d)
    assert Lattice.standard(2, 0) == Lattice.from_rows(2, [[1]])


@pytest.mark.parametrize("type_vector, error, match", [
    ((True, 1), TypeError, "an entry of a type vector must be an int"),
    ((1.0, 1), TypeError, "an entry of a type vector must be an int"),
    ([1, 0], ValueError, "entries >= 1, got \\[1, 0\\]"),
    ((2, -1), ValueError, "entries >= 1, got \\(2, -1\\)"),
    ((), ValueError, "must be non-empty"),
    ("11", TypeError, "a type vector must be a list of ints, not str"),
], ids=["bool", "float", "zero", "negative", "empty", "str"])
def test_standard_simplex_refuses_a_bad_type_vector(type_vector, error, match):
    # (True, 1) built an edge, and the others built a chain of the wrong
    # dimension or failed inside the construction
    with pytest.raises(error, match=match):
        standard_simplex(2, type_vector)
    assert standard_simplex(2, [1]).lattices == (Lattice.standard(2, 0),)
