"""Lattice building: canonical forms, simplices, adapted bases, balls."""

import random

import pytest
from hypothesis import given, strategies as st

from drinfeld.building import (
    Ball,
    Lattice,
    PointedSimplex,
    conjugacy_witness,
    lattice_from_covectors,
    standard_simplex,
    tree_ball_size,
)
from drinfeld.intlinalg import gaussian_binomial, in_span_modp, matmul, rref_modp
from helpers import random_gl_integer, random_pointed_simplex, random_unimodular_integer


def test_saturation_removes_prime_to_p_index():
    lat = Lattice.from_rows(2, [[3, 0], [0, 1]])
    assert lat == Lattice.standard(2, 1)
    lat = Lattice.from_rows(3, [[2, 1], [0, 5]])
    assert lat.det_exponent == 0
    assert lat == Lattice.standard(3, 1)


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
        coords = [sigma.covector_coordinates(f)[0] for f in block]
        reduced = [[c % p for c in x] for x in coords]
        r2, piv2 = rref_modp(reduced, p)
        assert len(r2) == len(rref)
        for row in rref:
            assert in_span_modp(r2, piv2, row, p)
    # the adapted rows are a basis of M_0 itself
    assert Lattice.from_rows(p, [list(f) for f in basis]) == m0


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_conjugacy_witness(pd, seed):
    p, d = pd
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng)
    f = conjugacy_witness(sigma)
    assert standard_simplex(p, sigma.type_vector()).right_multiplied(f) == sigma


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
    m0 = lattice_from_covectors(2, [(0, 1), (4, 0)])
    sigma = PointedSimplex.vertex(m0)
    assert sigma.covector_coordinates((0, 1)) == ((0, 1), 0)
    assert sigma.covector_coordinates((2, 1)) == ((1, 2), -1)
    assert sigma.covector_coordinates((1, 0)) == ((1, 0), -2)
    with pytest.raises(ValueError):
        sigma.covector_coordinates((0, 0))


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
        cached = lat.adj_data()
        assert lat.adj_data() is cached
        assert _is_nested_tuple(cached)
        bare = Lattice(lat.p, lat.rows, lat.scale)
        assert "_adj_data" not in vars(bare)
        assert bare == lat and hash(bare) == hash(lat)
        assert bare.to_json() == lat.to_json()
        assert bare.adj_data() == cached
