"""Mass-zero distributions: invariants, pushforward, transport."""

import random

import pytest
from hypothesis import given, strategies as st

from drinfeld.distributions import (
    DistributionFamily,
    MassZeroVector,
    basis_mass_zero,
    random_family,
    random_mass_zero,
)
from drinfeld.intlinalg import matmul
from drinfeld.projpoints import ProjPoint, act, enumerate_points, point_count
from helpers import reference_det_int


def test_mass_zero_enforced():
    a = ProjPoint.make(2, 1, (1, 0))
    b = ProjPoint.make(2, 1, (0, 1))
    with pytest.raises(ValueError):
        MassZeroVector(2, 1, 1, {a: 1})
    mu = MassZeroVector(2, 1, 1, {a: 2, b: -2})
    assert mu.coeff(a) == 2 and mu.coeff(b) == -2


@pytest.mark.parametrize("pairs, a_coeff", [
    ([("a", 1), ("b", -1), ("a", 0)], 1),
    ([("a", 1), ("a", 1), ("b", -2)], 2),
], ids=["zero-repeat", "double-repeat"])
def test_repeated_points_add_up(pairs, a_coeff):
    # an iterable of pairs used to keep only the last pair of a point, so
    # both of these were refused as of nonzero mass
    pts = {"a": ProjPoint.make(2, 1, (1, 0)), "b": ProjPoint.make(2, 1, (0, 1))}
    mu = MassZeroVector(2, 1, 1, [(pts[name], c) for name, c in pairs])
    assert mu == a_coeff * MassZeroVector.dirac_pair(pts["a"], pts["b"])


def test_dirac_pair():
    a = ProjPoint.make(3, 1, (1, 0))
    b = ProjPoint.make(3, 1, (1, 1))
    mu = MassZeroVector.dirac_pair(a, b)
    assert mu.coeff(a) == 1 and mu.coeff(b) == -1 and len(mu) == 2
    assert len(MassZeroVector.dirac_pair(a, a)) == 0


def test_mixed_levels_rejected():
    a = ProjPoint.make(2, 1, (1, 0))
    b = ProjPoint.make(2, 2, (0, 1))
    with pytest.raises(ValueError):
        MassZeroVector(2, 1, 1, {a: 1, b: -1})


@given(st.integers(min_value=0, max_value=10**6))
def test_module_arithmetic(seed):
    rng = random.Random(seed)
    mu = random_mass_zero(3, 2, 1, rng)
    nu = random_mass_zero(3, 2, 1, rng)
    s = mu + nu
    assert sum(c for _, c in s.items()) == 0
    assert len(mu - mu) == 0
    assert 2 * mu + (-2) * mu == MassZeroVector(3, 2, 1)
    assert (mu + nu) - nu == mu


def test_pushforward_sums_fibers():
    rng = random.Random(1)
    mu = random_mass_zero(2, 2, 1, rng, size=5)
    low = mu.pushforward(1)
    for pt in enumerate_points(2, 1, 1):
        total = sum(c for q, c in mu.items() if q.reduce(1) == pt)
        assert low.coeff(pt) == total
    assert sum(c for _, c in low.items()) == 0


def test_basis_spans_with_correct_size():
    basis = basis_mass_zero(3, 1, 1)
    assert len(basis) == point_count(3, 1, 1) - 1
    for mu in basis:
        assert len(mu) == 2


def random_invertible_mod_p(p, n, d, rng):
    while True:
        g = [[rng.randrange(p**n) for _ in range(d + 1)] for _ in range(d + 1)]
        if reference_det_int(g) % p:
            return g


def test_transport_is_an_action():
    """act(g, .) permutes the points, so transport keeps every coefficient,
    and transporting by g then h is transporting by hg."""
    rng = random.Random(5)
    for p, n, d in [(3, 2, 1), (2, 2, 2), (2, 3, 1)]:
        points = enumerate_points(p, n, d)
        for _ in range(10):
            g = random_invertible_mod_p(p, n, d, rng)
            h = random_invertible_mod_p(p, n, d, rng)
            assert len({act(g, pt) for pt in points}) == len(points)
            mu = random_mass_zero(p, n, d, rng)
            moved = mu.transport(g)
            assert len(moved) == len(mu)
            for pt, c in mu.items():
                assert moved.coeff(act(g, pt)) == c
            assert moved.transport(h) == mu.transport(matmul(h, g))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_transport_is_the_pointwise_action(p, n, d):
    """transport inverts g once; each point still moves as act(g, .)."""
    rng = random.Random(repr((p, n, d)))
    for _ in range(5):
        g = random_invertible_mod_p(p, n, d, rng)
        mu = random_mass_zero(p, n, d, rng, size=6)
        expected = MassZeroVector(p, n, d, [(act(g, pt), c) for pt, c in mu.items()])
        assert mu.transport(g) == expected
    # the zero vector moves to itself without inverting g
    zero = MassZeroVector(p, n, d)
    assert zero.transport([[p] * (d + 1)] * (d + 1)) == zero


def test_family_compatibility_checked():
    rng = random.Random(3)
    fam = random_family(2, 3, 1, rng)
    assert fam.at(3).pushforward(1) == fam.at(1)


def test_family_is_the_tower_of_its_top():
    rng = random.Random(4)
    for p, n, d in [(2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 1, 1)]:
        top = random_mass_zero(p, n, d, rng)
        fam = DistributionFamily(top)
        assert sorted(fam.layers) == list(range(1, n + 1))
        for level in range(1, n + 1):
            assert fam.at(level) == top.pushforward(level)


def test_json_roundtrip():
    rng = random.Random(7)
    mu = random_mass_zero(3, 2, 1, rng)
    obj = mu.to_json()
    assert obj["level"] == 2
    assert all(set(rec) == {"point", "coeff"} for rec in obj["entries"])
    back = MassZeroVector.from_json(3, 1, obj)
    assert back == mu


def record(level, *entries, point_level=1):
    return {"level": level, "entries": [
        {"point": {"level": point_level, "rep": rep}, "coeff": c}
        for rep, c in entries
    ]}


@pytest.mark.parametrize("obj, error, match", [
    (record(1, ([1, 0], 1.5), ([0, 1], -1.5)), TypeError, "coefficient"),
    (record(1, ([1, 0], True), ([0, 1], -1)), TypeError, "coefficient"),
    (record(True, ([1, 0], 1), ([0, 1], -1)), TypeError, "distribution level"),
    (record(1.0), TypeError, "distribution level"),
    (record(0), ValueError, "at least 1"),
    (record(1, ([1, 0], 1), ([0, 1], -1), point_level=1.0), TypeError,
     "point level"),
    (record(1, ([1, 0.5], 1), ([0, 1], -1)), TypeError, "point rep"),
], ids=["fraction-coeffs", "bool-coeff", "bool-level", "float-level",
        "level-0", "float-point-level", "fraction-rep"])
def test_from_json_refuses_values_that_are_not_ints(obj, error, match):
    # each of these used to be read as a vector: 1.5 and -1.5 as
    # coefficients, true as the level 1 or the coefficient 1
    with pytest.raises(error, match=match):
        MassZeroVector.from_json(2, 1, obj)


def test_from_json_names_a_dimension_mismatch():
    mu = MassZeroVector.dirac_pair(*enumerate_points(2, 1, 1)[:2])
    with pytest.raises(ValueError, match="point of dimension 1 in a "
                       "distribution of dimension 2"):
        MassZeroVector.from_json(2, 2, mu.to_json())


@pytest.mark.parametrize("k", [True, 2.0, 1.5], ids=["bool", "float",
                                                    "fraction"])
def test_scaling_refuses_a_scalar_that_is_not_an_int(k):
    mu = MassZeroVector.dirac_pair(*enumerate_points(2, 1, 1)[:2])
    with pytest.raises(TypeError, match="distribution scalar"):
        k * mu
