"""Edge residues: frozen slope values, oracle agreement, flow conservation,
locality guards, and the cochain table."""

import random

import pytest
from hypothesis import given, strategies as st

from drinfeld import padic, residues
from drinfeld.building import Ball, Lattice, PointedSimplex, standard_simplex
from drinfeld.certify import check_flow_conservation
from drinfeld.distributions import MassZeroVector, basis_mass_zero, random_mass_zero
from drinfeld.padic import FieldDesc, FieldElem, PrecisionError, linear_form
from drinfeld.projpoints import ProjPoint, enumerate_points
from drinfeld.residues import (
    GLOBAL_SIGN,
    edges_at_vertex,
    lambda_edge,
    oracle_slope_table,
    pair_distribution,
    pairing_matrix,
    required_level,
    slope,
    slope_matrix,
    sweep_oracle,
)

from helpers import (
    CochainTable,
    random_pointed_simplex,
    random_unimodular_integer,
    reference_oracle_points,
    reference_oracle_samples,
    reference_random_unit,
    reference_class_slope,
    reference_slope,
)


def std_edge(p=2):
    return standard_simplex(p, (1, 1))


def test_global_sign_is_frozen():
    assert GLOBAL_SIGN == 1


def test_slopes_on_standard_edge():
    # the section of (1,0) stays unit-sized along the standard edge while
    # the section of (0,1) shrinks through one uniformizer power
    edge = std_edge()
    assert slope((1, 0), edge) == 0
    assert slope((0, 1), edge) == 1
    assert lambda_edge(edge, (1, 0), (0, 1)) == 1
    assert lambda_edge(edge, (0, 1), (1, 0)) == -1
    assert lambda_edge(edge, (1, 0), (1, 0)) == 0


def test_slope_accepts_point_classes():
    edge = std_edge(3)
    for cls in enumerate_points(3, 1, 1):
        assert slope(cls, edge) == slope(tuple(cls.rep), edge)


def test_slope_rejects_longer_chains():
    chamber = standard_simplex(2, (1, 1, 1))
    with pytest.raises(ValueError):
        slope((1, 0, 0), chamber)
    vertex = standard_simplex(2, (2,))
    with pytest.raises(ValueError):
        slope((1, 0), vertex)


def test_slope_rejects_zero_covector():
    with pytest.raises(ValueError):
        slope((0, 0), std_edge())


def _slope_test_covectors(p, d, rng):
    """Point classes at levels 1 and 2, and raw covectors whose entries are
    all divisible by p, some by higher powers."""
    covectors = list(enumerate_points(p, 1, d)) + list(enumerate_points(p, 2, d))
    for _ in range(12):
        a = tuple(p ** rng.randint(1, 3) * rng.randint(-4, 4) for _ in range(d + 1))
        if any(a):
            covectors.append(a)
    return covectors


def _frame_with_a_scaled_row(p, size, rng):
    frame = random_unimodular_integer(size, rng)
    row = rng.randrange(size)
    frame[row] = [p * c for c in frame[row]]
    return frame


@pytest.mark.parametrize("p, d, radius", [(2, 1, 3), (3, 1, 2), (5, 1, 2),
                                          (2, 2, 2), (3, 2, 1)])
def test_valuation_jump_is_the_class_rule(p, d, radius):
    """slope, one valuation and one membership test, against the reference
    rule, the class of the normalized covector in M_0/pM_0, on every
    pointed edge of a ball and on those edges moved by frames of
    determinant +-p."""
    rng = random.Random(1000 * p + 10 * d + radius)
    covectors = _slope_test_covectors(p, d, rng)
    edges = Ball(Lattice.standard(p, d), radius).pointed_edges()
    moved = [edge.right_multiplied(_frame_with_a_scaled_row(p, d + 1, rng))
             for edge in rng.sample(edges, min(len(edges), 40))]
    for edge in edges + moved:
        for a in covectors:
            assert slope(a, edge) == reference_class_slope(a, edge)
        with pytest.raises(ValueError):
            slope((0,) * (d + 1), edge)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_slope_is_the_valuation_jump(p, d, seed):
    """slope against 1 + v_{M_1}(a) - v_{M_0}(a) on a random pointed edge,
    with covectors outside M_0 (v_{M_0}(a) < 0: when M_0 is not Z^n, some
    standard basis covector lies outside it) and covectors scaled by powers
    of p.  The all-zero covector has no valuation and is refused."""
    rng = random.Random(seed)
    t = rng.randint(1, d)
    edge = random_pointed_simplex(p, d, rng, type_vector=(t, d + 1 - t))
    m0 = edge.lattices[0]
    covectors = [tuple(int(i == j) for j in range(d + 1)) for i in range(d + 1)]
    for _ in range(10):
        a = [rng.randint(-p**3, p**3) for _ in range(d + 1)]
        if rng.random() < 0.5:
            a = [c * p ** rng.randint(1, 3) for c in a]
        if any(a):
            covectors.append(tuple(a))
    if m0.det_exponent:
        assert any(m0.valuation(a) < 0 for a in covectors)
    for a in covectors:
        assert slope(a, edge) == reference_slope(a, edge)
    with pytest.raises(ValueError):
        slope((0,) * (d + 1), edge)


@given(st.integers(min_value=0, max_value=10**6))
def test_slope_is_binary_and_scale_invariant(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    d = rng.choice([1, 2])
    sigma = random_pointed_simplex(p, d, rng, type_vector=(1,) * 2 + (d - 1) * (1,))
    while sigma.k != 1:
        sigma = random_pointed_simplex(p, d, rng)
    a = tuple(rng.randint(-6, 6) for _ in range(d + 1))
    if not any(a):
        a = (1,) + (0,) * d
    s = slope(a, sigma)
    assert s in (0, 1)
    assert slope(tuple(p * c for c in a), sigma) == s
    unit = 1 + p
    assert slope(tuple(unit * c for c in a), sigma) == s


@given(st.integers(min_value=0, max_value=10**6))
def test_lambda_antisymmetry_and_additivity(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    edges = Ball(Lattice.standard(p, 1), 1).pointed_edges()
    sigma = rng.choice(edges)
    classes = enumerate_points(p, 1, 1)
    a, b, c = (rng.choice(classes) for _ in range(3))
    assert lambda_edge(sigma, a, b) == -lambda_edge(sigma, b, a)
    assert lambda_edge(sigma, a, c) == lambda_edge(sigma, a, b) + lambda_edge(
        sigma, b, c
    )
    assert lambda_edge(sigma, a, b) in (-1, 0, 1)


def test_orientation_reversal_flips_lambda():
    edge = std_edge()
    back = edge.rotate()
    for a in enumerate_points(2, 1, 1):
        for b in enumerate_points(2, 1, 1):
            assert lambda_edge(edge, a, b) == -lambda_edge(back, a, b)


def test_required_level_standard_and_deep():
    assert required_level(std_edge()) == 1
    deep = PointedSimplex(
        (
            Lattice.from_rows(2, [[0, 1], [4, 0]]),
            Lattice.from_rows(2, [[0, 2], [4, 0]]),
        )
    )
    assert required_level(deep) == 3


def test_locality_counterexample_needs_deep_level():
    # two lifts of the same level-1 class separate on a deep edge, so
    # pairing a level-1 vector against it is refused by default
    deep = PointedSimplex(
        (
            Lattice.from_rows(2, [[0, 1], [4, 0]]),
            Lattice.from_rows(2, [[0, 2], [4, 0]]),
        )
    )
    assert slope((0, 1), deep) != slope((2, 1), deep)
    a = ProjPoint.make(2, 1, (1, 0))
    b = ProjPoint.make(2, 1, (0, 1))
    mu = MassZeroVector.dirac_pair(a, b)
    with pytest.raises(ValueError):
        pair_distribution(mu, deep)
    value = pair_distribution(mu, deep, require_local=False)
    assert isinstance(value, int)
    rng = random.Random(6)
    deep_mu = random_mass_zero(2, 3, 1, rng)
    assert isinstance(pair_distribution(deep_mu, deep), int)


def test_pair_distribution_matches_slopes():
    edge = std_edge(3)
    a = ProjPoint.make(3, 1, (1, 0))
    b = ProjPoint.make(3, 1, (0, 1))
    mu = MassZeroVector.dirac_pair(a, b)
    assert pair_distribution(mu, edge) == slope(a, edge) - slope(b, edge) == -1
    assert pair_distribution(3 * mu, edge) == -3


def test_pair_distribution_wants_distributions():
    with pytest.raises(TypeError):
        pair_distribution({(1, 0): 1}, std_edge())


def test_edges_at_vertex_counts():
    for p in (2, 3, 5):
        edges = edges_at_vertex(Lattice.standard(p, 1))
        assert len(edges) == p + 1
        for sigma in edges:
            assert sigma.k == 1


def test_edges_at_vertex_off_origin():
    # neighbor classes come back as primitive representatives, which need a
    # rescale before they nest inside an off-origin vertex
    vertex = Lattice.from_rows(2, [[1, 0], [0, 2]])
    edges = edges_at_vertex(vertex)
    assert len(edges) == 3
    for sigma in edges:
        assert sigma.lattices[0] == vertex.homothety_rep()


def stepped_edges_at_vertex(lattice):
    """Reference: raise each neighbor one scale step at a time until the
    vertex contains it."""
    base = lattice.homothety_rep()
    edges = []
    for nb in base.neighbors():
        mid = nb
        while not base.contains(mid):
            mid = mid.scaled(1)
        edges.append(PointedSimplex((base, mid)))
    return tuple(edges)


@pytest.mark.parametrize(
    "p,d,radius", [(2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 1), (3, 2, 1)]
)
def test_edges_at_vertex_matches_stepping_on_balls(p, d, radius):
    for vertex in Ball(Lattice.standard(p, d), radius).vertices:
        assert edges_at_vertex(vertex) == stepped_edges_at_vertex(vertex)


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_edges_at_vertex_matches_stepping_on_random_vertices(pd, seed):
    p, d = pd
    rng = random.Random(seed)
    vertex = random_pointed_simplex(p, d, rng).lattices[-1]
    assert edges_at_vertex(vertex) == stepped_edges_at_vertex(vertex)


def test_kirchhoff_at_standard_and_moved_vertices():
    """Criterion 5 finds every class's flow equal at each vertex of its
    radius-3 ball, which holds the standard and a moved vertex."""
    moved = Lattice.from_rows(3, [[1, 2], [0, 9]])
    assert moved in Ball(Lattice.standard(3, 1), 3).vertices
    for p in (2, 3):
        record = check_flow_conservation(0, p, 1)
        assert record["pairs"] == (p + 1) ** 2
        assert record["violations"] == 0


def test_flow_conservation_refuses_a_building_above_the_tree():
    # at d = 2 the edges at a vertex have two types; pooling them could
    # hide a violation in one type behind the other
    with pytest.raises(ValueError, match=r"a tree \(d = 1\) check"):
        check_flow_conservation(0, 2, 2)


def test_each_class_slopes_up_on_exactly_one_edge():
    # at the standard vertex every residue class has slope 1 on the single
    # edge toward the matching neighbor and 0 on the other p edges
    for p in (2, 3):
        edges = edges_at_vertex(Lattice.standard(p, 1))
        for cls in enumerate_points(p, 1, 1):
            ups = [sigma for sigma in edges if slope(cls, sigma) == 1]
            assert len(ups) == 1


def test_oracle_matches_combinatorial_on_standard_edges():
    for p in (2, 3):
        classes = enumerate_points(p, 1, 1)
        edge = std_edge(p)
        rng = random.Random(17)
        table = oracle_slope_table(edge, classes, rng=rng)
        offsets = {slope(x, edge) - table[x] for x in classes}
        assert len(offsets) == 1


def test_oracle_matches_on_moved_and_higher_rank_edges():
    rng = random.Random(23)
    cases = [
        random_pointed_simplex(2, 1, rng, type_vector=(1, 1)),
        standard_simplex(2, (1, 2)),
        standard_simplex(2, (2, 1)),
        standard_simplex(3, (1, 2)).right_multiplied(
            [[1, 0, 1], [0, 1, 2], [0, 0, 1]]
        ),
    ]
    for sigma in cases:
        p = sigma.p
        classes = enumerate_points(p, 1, sigma.dim)
        table = oracle_slope_table(sigma, classes, rng=rng, check_membership=False)
        offsets = {slope(x, sigma) - table[x] for x in classes}
        assert len(offsets) == 1, sigma.to_json()


@given(st.sampled_from([(2, 1), (3, 1)]), st.integers(min_value=0, max_value=10**6))
def test_sweep_oracle_matches_hand_written_loop(pd, seed):
    p, d = pd
    classes = enumerate_points(p, 1, d)
    edges = Ball(Lattice.standard(p, d), 1).pointed_edges()
    rng = random.Random(seed)
    expected = []
    for edge in edges:
        comb = {x: slope(x, edge) for x in classes}
        orc = oracle_slope_table(edge, classes, rng=rng, check_membership=False)
        expected.append(
            len({comb[x] - orc[x] for x in classes}) == 1
            and max(comb.values()) - min(comb.values()) <= 1
        )
    swept_rng = random.Random(seed)
    swept = list(sweep_oracle(edges, classes, swept_rng))
    assert [agrees for _, _, agrees in swept] == expected
    assert [edge for edge, _, _ in swept] == edges
    for edge, slopes, _ in swept:
        assert slopes == {x: slope(x, edge) for x in classes}
    assert swept_rng.getstate() == rng.getstate()


def _table_or_error(edge, classes, rng, check_membership):
    try:
        return oracle_slope_table(edge, classes, rng=rng,
                                  check_membership=check_membership)
    except PrecisionError as exc:
        return str(exc)


def _rng_after_unit_draws(seed, descs, units):
    """A fresh Random(seed) after `units` unit draws in each field of descs,
    one field per edge: e*f randrange(coeff_modulus) digits a unit."""
    rng = random.Random(seed)
    for desc in descs:
        for _ in range(units * desc.e * desc.f):
            rng.randrange(desc.coeff_modulus)
    return rng


@pytest.mark.parametrize("check_membership", [True, False])
def test_oracle_without_det_division_matches_reference(monkeypatch, check_membership):
    # the samples skip the division by det(frame), and both come from one
    # draw of units where the reference draws twice: both samples of an
    # edge share det(frame), and the valuations on the open tube depend
    # only on the edge parameter, so every slope table (and every refusal)
    # stays the same
    for p, d in ((2, 1), (3, 1), (2, 2)):
        classes = enumerate_points(p, 1, d)
        edges = Ball(Lattice.standard(p, d), 1).pointed_edges()
        descs = [residues._oracle_desc(p, edge, 3) for edge in edges]
        rng = random.Random(31)
        tables = [_table_or_error(edge, classes, rng, check_membership)
                  for edge in edges]
        ref_rng = random.Random(31)
        with monkeypatch.context() as patch:
            patch.setattr(residues, "_oracle_points", reference_oracle_points)
            expected = [_table_or_error(edge, classes, ref_rng, check_membership)
                        for edge in edges]
        assert tables == expected
        assert rng.getstate() == _rng_after_unit_draws(31, descs, d + 1).getstate()
        assert ref_rng.getstate() == _rng_after_unit_draws(
            31, descs, 2 * (d + 1)).getstate()


def _digits(sample):
    return [(x.shift, x.coeffs, x.prec, x.exact_zero) for x in sample]


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_oracle_samples_keep_the_reference_bytes(p, d):
    # criterion 4's grid on the radius-1 balls, drawn from one rng edge
    # after edge: the first sample makes the reference's first d + 1 unit
    # draws and keeps its bytes; the second walks the same units to edge
    # parameter 2/e, block 1 times pi^2, with no draw of its own
    edges = Ball(Lattice.standard(p, d), 1).pointed_edges()
    descs = [residues._oracle_desc(p, edge, 3) for edge in edges]
    rng = random.Random(4)
    for edge, desc in zip(edges, descs):
        state = rng.getstate()
        got = residues._oracle_points(edge, desc, rng)
        ref_rng, unit_rng = random.Random(), random.Random()
        ref_rng.setstate(state)
        unit_rng.setstate(state)
        first, _ = reference_oracle_samples(edge, desc, ref_rng)
        units = [reference_random_unit(desc, unit_rng, j) for j in range(d + 1)]
        d1 = edge.boundary_indices()[1]
        lift = FieldElem.pi_power(desc, 2)
        w2 = units[:d1] + [lift * u for u in units[d1:]]
        n, _ = edge.frame_adjugate
        assert _digits(got[0]) == _digits(first)
        assert _digits(got[1]) == _digits([linear_form(row, w2) for row in n])
    assert rng.getstate() == _rng_after_unit_draws(4, descs, d + 1).getstate()


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2)])
def test_oracle_table_does_not_depend_on_its_ramification(p, d):
    """The oracle's slope is a difference of two pi-valuations inside its
    own field, so fields with e_oracle = 3 and 4 give one table on every
    standard edge.  e_oracle = 5 is above the field cap MAX_E and refused."""
    classes = enumerate_points(p, 1, d)
    for first in range(1, d + 1):
        edge = standard_simplex(p, (first, d + 1 - first))
        tables = [oracle_slope_table(edge, classes, e_oracle=e) for e in (3, 4)]
        assert tables[0] == tables[1]
        assert set(tables[0].values()) == {0, 1}
        with pytest.raises(ValueError, match="ramification"):
            oracle_slope_table(edge, classes, e_oracle=5)


def test_oracle_validates_field_shape():
    with pytest.raises(ValueError):
        oracle_slope_table(std_edge(), [(1, 0)], e_oracle=1)


def test_oracle_ramification_must_be_an_int():
    # True used to raise ValueError (below 3)
    edge = std_edge()
    oracle_slope_table(edge, [(1, 0)], e_oracle=3)
    for e in (3.0, 4.0, True):
        with pytest.raises(TypeError, match="e_oracle must be an int"):
            oracle_slope_table(edge, [(1, 0)], e_oracle=e)


def test_oracle_field_is_one_per_shape():
    """Edges of one shape (p, e_oracle, f, k0) share one field instance;
    another k0, f or e_oracle gets another."""
    edges = Ball(Lattice.standard(2, 1), 1).pointed_edges()
    at_std = [e for e in edges if e.lattices[0].det_exponent == 0]
    at_nb = [e for e in edges if e.lattices[0].det_exponent == 1]
    assert len(at_std) == 3 and len(at_nb) == 3
    desc = residues._oracle_desc(2, at_std[0], 3)
    assert desc == FieldDesc(p=2, e=3, f=1, N=24)
    assert residues._oracle_desc(2, at_std[1], 3) is desc
    assert residues._oracle_desc(2, std_edge(), 3) is desc
    others = [
        residues._oracle_desc(2, at_nb[0], 3),  # k0 = 1
        residues._oracle_desc(2, standard_simplex(2, (1, 2)), 3),  # f = 2
        residues._oracle_desc(2, at_std[0], 4),  # e_oracle = 4
    ]
    assert [(d.e, d.f, d.N) for d in others] == [(3, 1, 33), (3, 2, 24),
                                                 (4, 1, 32)]
    assert len({id(d) for d in [desc, *others]}) == 4


class _StoresNothing(dict):
    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2)])
def test_oracle_sweeps_across_field_shapes_match_fresh_fields(monkeypatch, p, d):
    # sweeps at e_oracle 3, then 4, then 3 in one process read the interned
    # fields; the reference builds a fresh field for every edge, through a
    # field table that stores nothing
    classes = enumerate_points(p, 1, d)
    edges = Ball(Lattice.standard(p, d), 1).pointed_edges()

    def sweep(e_oracle):
        rng = random.Random(11)
        return [oracle_slope_table(edge, classes, e_oracle=e_oracle, rng=rng,
                                   check_membership=False) for edge in edges]

    tables = [sweep(e) for e in (3, 4, 3)]
    with monkeypatch.context() as patch:
        patch.setattr(padic, "_FIELDS", _StoresNothing())
        fields = [residues._oracle_desc(p, edges[0], 3) for _ in range(2)]
        assert fields[0] == fields[1] and fields[0] is not fields[1]
        fresh = [sweep(e) for e in (3, 4)]
    assert tables == [fresh[0], fresh[1], fresh[0]]


@pytest.mark.parametrize(
    "p, d, level", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)]
)
def test_pairing_matrix_pairs_each_basis_vector(p, d, level):
    """One slope per (edge, class) gives the matrix of pair_distribution
    over the dirac-pair basis: criterion 9's balls, and a level-2 one."""
    edges = Ball(Lattice.standard(p, d), 2).pointed_edges()
    basis = basis_mass_zero(p, level, d)
    want = [
        [pair_distribution(mu, edge, require_local=False) for mu in basis]
        for edge in edges
    ]
    slopes = slope_matrix(edges, enumerate_points(p, level, d))
    assert pairing_matrix(slopes) == want


def test_cochain_table_build_and_values():
    edges = Ball(Lattice.standard(2, 1), 1).pointed_edges()
    classes = enumerate_points(2, 1, 1)
    table = CochainTable.build(edges, classes)
    for sigma in edges:
        for a in classes:
            for b in classes:
                if a == b:
                    continue
                v = table.value(sigma, a, b)
                assert v == -table.value(sigma, b, a)
                assert v == lambda_edge(sigma, a, b)
    records = list(table.records())
    assert len(records) == len(edges) * len(classes) * (len(classes) - 1)
    sample = records[0]
    assert set(sample) == {"edge", "pair", "value"}
    with pytest.raises(KeyError):
        table.value(edges[0], classes[0], classes[0])


def test_cochain_table_rejects_out_of_range_entries():
    edge = std_edge()
    a = ProjPoint.make(2, 1, (1, 0))
    b = ProjPoint.make(2, 1, (0, 1))
    with pytest.raises(ValueError):
        CochainTable([(edge, (a, b), 2)])


@pytest.mark.parametrize("a, error, match", [
    ((True, 0), TypeError, "must be an int"),
    ((1.5, 0), TypeError, "must be an int"),
    ((1, 0, 0), ValueError, "2 entries"),
    ((1,), ValueError, "2 entries"),
    ("10", TypeError, "list of ints"),
], ids=["bool", "fraction", "too-long", "too-short", "text"])
def test_lambda_edge_refuses_covectors_that_are_not_dim_plus_1_ints(
        a, error, match):
    # a bool or a covector of the wrong length used to get a slope
    for pair in ((a, (0, 1)), ((0, 1), a)):
        with pytest.raises(error, match=match):
            lambda_edge(std_edge(), *pair)
