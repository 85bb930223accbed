"""Projective points over Z/p^n: counts, reduction fibers, group action."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from drinfeld.intlinalg import matmul
from drinfeld.projpoints import (
    ProjPoint,
    _point_table,
    act,
    canonical_reps,
    canonicalize,
    canonicalize_last,
    enumerate_points,
    point_count,
)
from helpers import fiber, pivot, reference_det_int


def brute_force_points(p, n, d):
    """Oracle: orbit representatives of unimodular vectors under units."""
    mod = p**n
    units = [u for u in range(mod) if u % p]
    seen = set()
    for vec in product(range(mod), repeat=d + 1):
        if not any(c % p for c in vec):
            continue
        orbit = min(tuple((u * c) % mod for c in vec) for u in units)
        seen.add(orbit)
    return seen


# enumeration matches an independent orbit count
@pytest.mark.parametrize(
    "p,n,d",
    [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2)],
)
def test_enumeration_against_brute_force(p, n, d):
    pts = enumerate_points(p, n, d)
    assert len(pts) == point_count(p, n, d)
    assert len(set(pts)) == len(pts)
    oracle = brute_force_points(p, n, d)
    assert len(pts) == len(oracle)
    mod = p**n
    units = [u for u in range(mod) if u % p]
    for pt in pts:
        orbit = min(tuple((u * c) % mod for c in pt.rep) for u in units)
        assert orbit in oracle


def test_known_counts():
    assert point_count(3, 2, 1) == 12
    assert point_count(2, 1, 1) == 3
    assert point_count(2, 1, 2) == 7
    assert point_count(3, 1, 2) == 13
    assert len(enumerate_points(3, 2, 1)) == 12


@pytest.mark.parametrize("call", [
    lambda: enumerate_points(2, 0, 1),
    lambda: point_count(2, 0, 1),
    lambda: enumerate_points(2, 1, -1),
    lambda: point_count(2, 1, -1),
    lambda: canonical_reps(3, -1, 2),
], ids=["enumerate-level-0", "count-level-0", "enumerate-dim-minus-1",
        "count-dim-minus-1", "reps-level-minus-1"])
def test_a_level_below_1_or_a_dimension_below_0_is_refused(call):
    # these used to give a TypeError from range(float), the float 1.0 and
    # an empty list
    with pytest.raises(ValueError, match="must be at least"):
        call()


@pytest.mark.parametrize("p,n,d", [(2, 1, 0), (2, 2, 2), (3, 2, 2), (2, 1, 3),
                                   (5, 2, 1), (2, 3, 2)])
def test_enumeration_order_is_pivot_then_lexicographic(p, n, d):
    reps = [pt.rep for pt in enumerate_points(p, n, d)]
    assert reps == list(canonical_reps(p, n, d))
    # later calls read the table; a changed list changes neither
    changed = enumerate_points(p, n, d)
    changed.reverse()
    changed.append(None)
    assert [pt.rep for pt in enumerate_points(p, n, d)] == reps

    def key(rep):
        lead = pivot(ProjPoint(p, n, rep))
        return lead, rep[:lead] + rep[lead + 1:]

    assert reps == sorted(reps, key=key)


@pytest.mark.parametrize("n, d", [(True, 1), (1.0, 1), (1, True), (1, 1.0)],
                         ids=["level-true", "level-float", "dim-true", "dim-float"])
def test_the_shape_is_refused_before_the_point_table_is_read(n, d):
    # the table of (2, 1, 1) is filled first; lru_cache alone would hand
    # its points to True and 1.0, which hash and compare equal to 1
    assert len(enumerate_points(2, 1, 1)) == 3
    before = _point_table.cache_info()
    with pytest.raises(TypeError, match="must be an int"):
        enumerate_points(2, n, d)
    assert _point_table.cache_info() == before


@pytest.mark.parametrize("p", [2.0, Fraction(2)], ids=["float", "fraction"])
def test_a_prime_that_is_not_an_int_never_reads_the_int_table(p):
    assert len(enumerate_points(2, 1, 1)) == 3
    with pytest.raises(TypeError):
        enumerate_points(p, 1, 1)


def test_canonical_form_shape():
    for pt in enumerate_points(3, 2, 2):
        i = pivot(pt)
        assert pt.rep[i] == 1
        assert all(c % 3 == 0 for c in pt.rep[:i])


@given(
    st.sampled_from([(2, 2), (3, 2), (5, 1)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_canonicalize_scaling_invariance(pn, seed):
    p, n = pn
    rng = random.Random(seed)
    mod = p**n
    while True:
        vec = [rng.randrange(mod) for _ in range(3)]
        if any(c % p for c in vec):
            break
    u = rng.choice([x for x in range(1, mod) if x % p])
    assert canonicalize(p, n, vec) == canonicalize(p, n, [u * c for c in vec])
    assert canonicalize_last(p, n, vec) == canonicalize_last(
        p, n, [u * c for c in vec]
    )


def test_non_unimodular_rejected():
    with pytest.raises(ValueError):
        canonicalize(2, 2, [2, 2])


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
def test_reduction_surjective_with_uniform_fibers(p, d):
    top = enumerate_points(p, 2, d)
    bottom = enumerate_points(p, 1, d)
    images = {}
    for pt in top:
        images.setdefault(pt.reduce(1), []).append(pt)
    assert set(images) == set(bottom)
    for low, ups in images.items():
        assert len(ups) == p**d
        assert set(fiber(low, 2)) == set(ups)


def test_fiber_frozen_example():
    low = ProjPoint.make(2, 1, (1, 0))
    ups = fiber(low, 2)
    assert {pt.rep for pt in ups} == {(1, 0), (1, 2)}


def test_reduce_validation():
    pt = ProjPoint.make(3, 2, (1, 5))
    assert pt.reduce(1).rep == (1, 2)
    with pytest.raises(ValueError):
        pt.reduce(3)
    with pytest.raises(ValueError):
        pt.reduce(0)


def test_act_swap_example():
    swap = [[0, 1], [1, 0]]
    a = ProjPoint.make(3, 2, (1, 2))
    assert act(swap, a).rep == (1, 5)


def random_gl(p, n, size, rng):
    while True:
        g = [[rng.randrange(p**n) for _ in range(size)] for _ in range(size)]
        if reference_det_int(g) % p:
            return g


@given(
    st.sampled_from([(2, 2, 1), (3, 2, 1), (2, 1, 2)]),
    st.integers(min_value=0, max_value=10**6),
)
def test_action_is_a_left_action(pnd, seed):
    p, n, d = pnd
    rng = random.Random(seed)
    g = random_gl(p, n, d + 1, rng)
    h = random_gl(p, n, d + 1, rng)
    pts = enumerate_points(p, n, d)
    a = rng.choice(pts)
    assert act(matmul(g, h), a) == act(g, act(h, a))
    ident = [[1 if i == j else 0 for j in range(d + 1)] for i in range(d + 1)]
    assert act(ident, a) == a


def test_action_commutes_with_reduction():
    rng = random.Random(9)
    p, d = 3, 1
    g = random_gl(p, 2, d + 1, rng)
    for a in enumerate_points(p, 2, d):
        assert act(g, a).reduce(1) == act(g, a.reduce(1))


def test_lift_systems():
    p, n = 3, 2
    for pt in enumerate_points(p, n, 1):
        lex = pt.lift_vector("lex")
        assert lex == pt.rep
        rev = pt.lift_vector("revlex")
        assert all(-(p**n) // 2 < c <= p**n // 2 for c in rev)
        assert ProjPoint.make(p, n, rev) == pt
        # last unit coordinate of the revlex lift is 1
        last_unit = max(i for i, c in enumerate(rev) if c % p)
        assert rev[last_unit] == 1
    with pytest.raises(ValueError):
        ProjPoint.make(2, 1, (1, 0)).lift_vector("bogus")


def test_json_roundtrip():
    pt = ProjPoint.make(3, 2, (3, 1))
    obj = pt.to_json()
    assert obj == {"level": 2, "rep": [3, 1]}
    assert ProjPoint.from_json(3, obj) == pt



@pytest.mark.parametrize("obj, error, match", [
    ({"level": 1, "rep": [1, 0.5]}, TypeError, "rep"),
    ({"level": 1, "rep": [True, 0]}, TypeError, "rep"),
    ({"level": 1.0, "rep": [1, 0]}, TypeError, "level"),
    ({"level": True, "rep": [1, 0]}, TypeError, "level"),
    ({"level": 0, "rep": [1, 0]}, ValueError, "at least 1"),
], ids=["fraction-rep", "bool-rep", "float-level", "bool-level", "level-0"])
def test_from_json_refuses_values_that_are_not_ints(obj, error, match):
    # rep [1, 0.5] used to be kept as the point (1, 0.5)
    with pytest.raises(error, match=match):
        ProjPoint.from_json(2, obj)
