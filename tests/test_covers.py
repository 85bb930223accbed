"""Reduction to the building, level covers, tubes, and their coordinates."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.building import Lattice, PointedSimplex, standard_simplex
from drinfeld.covers import (
    BuildingPoint,
    SymmetricSpacePoint,
    member_closed_cover,
    member_open_cover,
    member_tube,
    point_in_tube,
    random_unit,
    reduce_to_building,
    t_profile,
    tube_coordinates,
    tube_sample,
    tube_test_covectors,
)
from drinfeld.certify import TAU_CONFIGS, _dual_pair, _random_simplex_for
from drinfeld.intlinalg import pval
from drinfeld.padic import FieldDesc, FieldElem, PrecisionError, linear_form
from drinfeld.projpoints import (
    ProjPoint,
    enumerate_points,
    lift_covector,
    point_count,
)
from fractions import Fraction

from helpers import (
    proper_faces,
    random_pointed_simplex,
    random_unimodular_integer,
    reference_det_int,
    reference_linear_form,
    reference_member_closed_cover,
    reference_member_open_cover,
    reference_member_tube,
    reference_point_in_tube,
    reference_random_unit,
    reference_reduce_to_building,
    reference_tube_test_covectors,
)


def lat(p, rows, scale=0):
    return Lattice.from_rows(p, [list(r) for r in rows], scale=scale)


def simplex(p, *rows_list):
    return PointedSimplex(tuple(lat(p, rows) for rows in rows_list))


def point(desc, *coords):
    return SymmetricSpacePoint([c if isinstance(c, FieldElem) else
                                FieldElem.from_int(desc, c) for c in coords])


# --- frozen reductions of named points -------------------------------------


def test_reduce_ramified_edge_point():
    desc = FieldDesc(p=2, e=2, N=16)
    z = point(desc, 1, FieldElem.pi(desc))
    bp = reduce_to_building(z)
    assert bp.simplex == simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))
    assert bp.weights == (Fraction(1, 2), Fraction(1, 2))
    assert bp.certified_level == 1
    assert bp.simplex.lattices[0] == Lattice.standard(2, 1)


def test_reduce_perturbed_edge_point_same_output():
    desc = FieldDesc(p=2, e=2, N=16)
    pi = FieldElem.pi(desc)
    z = point(desc, 1, pi + pi * pi * pi)
    bp = reduce_to_building(z)
    assert bp.simplex == simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))
    assert bp.weights == (Fraction(1, 2), Fraction(1, 2))


def test_reduce_unramified_point_hits_standard_vertex():
    desc = FieldDesc(p=2, f=2, N=16)
    z = point(desc, 1, FieldElem.omega(desc))
    bp = reduce_to_building(z)
    assert bp.simplex == simplex(2, ((1, 0), (0, 1)))
    assert bp.weights == (Fraction(1),)
    assert bp.certified_level == 1


def test_reduce_deep_point_needs_level_two():
    desc = FieldDesc(p=2, e=2, N=16)
    pi = FieldElem.pi(desc)
    z = point(desc, 1, pi ** 3)
    bp = reduce_to_building(z)
    assert bp.certified_level == 2
    assert bp.simplex == simplex(2, ((2, 0), (0, 1)), ((4, 0), (0, 1)))
    assert bp.weights == (Fraction(1, 2), Fraction(1, 2))


def test_reduce_chamber_point():
    desc = FieldDesc(p=2, e=3, N=18)
    pi = FieldElem.pi(desc)
    z = point(desc, 1, pi, pi * pi)
    bp = reduce_to_building(z)
    assert bp.simplex == simplex(
        2,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 1)),
    )
    assert bp.weights == (Fraction(1, 3),) * 3
    assert bp.certified_level == 1


def test_reduce_mixed_point_gives_fat_edge():
    desc = FieldDesc(p=2, e=2, f=2, N=16)
    z = point(desc, 1, FieldElem.omega(desc), FieldElem.pi(desc))
    bp = reduce_to_building(z)
    assert bp.simplex.type_vector() == (2, 1)
    assert bp.simplex == simplex(
        2,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 1)),
    )


def test_reduce_residue_cubic_point_is_vertex():
    desc = FieldDesc(p=2, f=3, N=16)
    w = FieldElem.omega(desc)
    z = point(desc, 1, w, w * w)
    bp = reduce_to_building(z)
    assert bp.simplex == simplex(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert bp.weights == (Fraction(1),)


def test_reduce_rejects_uncertifiable_level():
    desc = FieldDesc(p=2, e=2, N=16)
    z = point(desc, 1, FieldElem.pi(desc) ** 3)
    with pytest.raises(ValueError):
        reduce_to_building(z, level=1)


def test_weights_sum_to_one_and_are_positive():
    desc = FieldDesc(p=3, e=3, N=18)
    pi = FieldElem.pi(desc)
    rng = random.Random(7)
    for _ in range(5):
        coeffs = [rng.randrange(desc.coeff_modulus) for _ in range(desc.e)]
        z = point(desc, 1, pi + pi * pi * FieldElem.from_coeffs(desc, coeffs),
                  pi * pi)
        bp = reduce_to_building(z)
        assert sum(bp.weights) == 1
        assert all(w > 0 for w in bp.weights)


# --- cover membership -------------------------------------------------------


def test_cover_membership_frozen_values():
    desc = FieldDesc(p=2, e=2, N=16)
    pi = FieldElem.pi(desc)
    shallow = point(desc, 1, pi)
    deep = point(desc, 1, pi ** 3)
    assert member_open_cover(shallow, 1)
    assert member_closed_cover(shallow, 1)
    assert not member_open_cover(deep, 1)
    assert not member_closed_cover(deep, 1)
    assert member_open_cover(deep, 2)


def test_cover_tests_check_the_level_before_reading_the_spread_memo():
    # the spread of a profile is the depth T, memoized once per point
    desc = FieldDesc(p=2, e=2, N=16)
    z = point(desc, 1, FieldElem.pi(desc) ** 3)
    assert not member_open_cover(z, 1)
    assert not member_closed_cover(z, 1)
    assert z.orthogonal_basis(2 * 2)[0] == 3
    assert z.orthogonal_basis(3) is None
    # level 1 is in the memo now; True and 1.0 hash and compare equal
    for n in (True, 1.0):
        for cover in (member_open_cover, member_closed_cover):
            with pytest.raises(TypeError, match="a level must be an int"):
                cover(z, n)
    for cover in (member_open_cover, member_closed_cover):
        with pytest.raises(ValueError, match="a level must be at least 1"):
            cover(z, 0)
    assert member_open_cover(z, 1) == reference_member_open_cover(z, 1)
    assert member_closed_cover(z, 1) == reference_member_closed_cover(z, 1)


def test_cover_nesting_on_sampled_points():
    rng = random.Random(11)
    for p, d in [(2, 1), (3, 1), (2, 2)]:
        sigma = random_pointed_simplex(p, d, rng, bound=p)
        k0 = sigma.lattices[0].det_exponent
        f = max(sigma.type_vector())
        e = min(sigma.k + 2, 4)
        if f > 3 or e <= sigma.k:
            continue
        desc = FieldDesc(p=p, e=e, f=f, N=e * (10 + 3 * k0))
        z = point_in_tube(desc, sigma, rng)
        for n in (1, 2):
            if member_open_cover(z, n):
                assert member_closed_cover(z, n)
            if member_closed_cover(z, n):
                assert member_open_cover(z, n + 1)


# --- tube tests and coordinates ---------------------------------------------


def test_tube_test_covectors_for_standard_edge():
    sigma = simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))
    layers = tube_test_covectors(sigma)
    assert [sorted(layer) for layer in layers] == [
        [(1, 0), (1, 1)],
        [(0, 1), (2, 1)],
    ]


@settings(max_examples=30)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(min_value=0, max_value=10**6),
)
def test_tube_test_covectors_match_the_full_scan(p, d, seed):
    sigma = random_pointed_simplex(p, d, random.Random(seed))
    for tau in sigma.rotations() + tuple(proper_faces(sigma)):
        layers = tube_test_covectors(tau)
        want = reference_tube_test_covectors(tau)
        assert len(layers) == len(want) == tau.k + 1
        for layer, ref in zip(layers, want):
            assert len(layer) == len(set(layer))
            assert set(layer) == set(ref)


def test_membership_separates_edge_from_its_vertices():
    desc = FieldDesc(p=2, e=2, N=16)
    z = point(desc, 1, FieldElem.pi(desc))
    edge = simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))
    assert member_tube(z, edge, open_tube=True)
    for face in (simplex(2, ((1, 0), (0, 1))),
                 simplex(2, ((2, 0), (0, 1)))):
        assert not member_tube(z, face, open_tube=True)


def test_membership_is_rotation_invariant():
    desc = FieldDesc(p=2, e=2, N=16)
    z = point(desc, 1, FieldElem.pi(desc))
    edge = simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))
    for rot in edge.rotations():
        assert member_tube(z, rot, open_tube=True)


def test_tube_coordinates_of_edge_point():
    desc = FieldDesc(p=2, e=2, N=16)
    pi = FieldElem.pi(desc)
    z = point(desc, 1, pi)
    edge = simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))
    x0, x1 = tube_coordinates(z, edge)
    assert x0.valuation() == Fraction(1, 2)
    assert x1.valuation() == Fraction(1, 2)
    prod = x0 * x1
    assert prod.agrees_with(FieldElem.from_int(desc, 2))


def test_random_tube_round_trip():
    rng = random.Random(42)
    done = 0
    trial = 0
    while done < 10:
        trial += 1
        p = rng.choice([2, 3])
        d = rng.choice([1, 2])
        sigma = random_pointed_simplex(p, d, rng, bound=p)
        k0 = sigma.lattices[0].det_exponent
        f = max(sigma.type_vector())
        e = min(sigma.k + 1 + rng.randrange(2), 4)
        if f > 3 or e <= sigma.k:
            continue
        done += 1
        desc = FieldDesc(p=p, e=e, f=f, N=e * (10 + 3 * k0))
        rotations = sigma.rotations()
        offsets = set()
        for _ in range(2):
            z = point_in_tube(desc, sigma, rng)
            assert member_tube(z, sigma, open_tube=True)
            bp = reduce_to_building(z)
            assert bp.simplex in sigma.rotations()
            offsets.add(rotations.index(bp.simplex))
            coords = tube_coordinates(z, sigma)
            assert all(x.valuation_at_least(0) for x in coords)
            prod = coords[0]
            for di in sigma.boundary_indices()[1:]:
                prod = prod * coords[di]
            target = FieldElem.from_int(desc, p)
            diff = prod - target
            assert prod.agrees_with(target)
            assert diff.shift + diff.prec > desc.e
        # which rotation the reduction lands on is a property of the tube
        assert len(offsets) == 1


def test_point_in_tube_validates_field_shape():
    rng = random.Random(3)
    edge = simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        point_in_tube(FieldDesc(p=2, e=1, N=12), edge, rng)
    fat = simplex(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                  ((2, 0, 0), (0, 2, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        point_in_tube(FieldDesc(p=2, e=2, f=1, N=12), fat, rng)


def _tube_configs():
    """Two simplices for each field shape of criterion 10, with its field."""
    for config in TAU_CONFIGS:
        p, d, e, f = config
        rng = random.Random(repr(config))
        for _ in range(2):
            sigma = _random_simplex_for(p, d, e, f, rng)
            k0 = sigma.lattices[0].det_exponent
            yield FieldDesc(p=p, e=e, f=f, N=max(e * (10 + 3 * k0), 2 * e)), sigma


@pytest.mark.parametrize("seed", [0, 1])
def test_point_in_tube_keeps_the_reference_bytes(seed):
    for desc, sigma in _tube_configs():
        rng, ref_rng = random.Random(seed), random.Random(seed)
        z = point_in_tube(desc, sigma, rng)
        ref = reference_point_in_tube(desc, sigma, ref_rng)
        assert [(c.shift, c.coeffs, c.prec, c.exact_zero) for c in z.coords] == [
            (c.shift, c.coeffs, c.prec, c.exact_zero) for c in ref.coords
        ]
        assert rng.getstate() == ref_rng.getstate()


def _elem_bytes(x):
    return (x.shift, x.coeffs, x.prec, x.exact_zero)


class _ZeroDigits:
    """An rng stand-in that draws b = 0, so the unit is omega^j exactly."""

    def randrange(self, n):
        return 0


@pytest.mark.parametrize("f", [1, 2, 3])
def test_random_unit_keeps_the_reference_bytes(f):
    # small and wide moduli at every ramification, N a multiple of e or
    # not; j runs to 2f, past the table of omega powers
    for p, e, N in ((2, 1, 2), (2, 3, 61), (3, 2, 40), (5, 4, 10)):
        desc = FieldDesc(p=p, e=e, f=f, N=N)
        rng, ref_rng = random.Random(f), random.Random(f)
        for j in range(2 * f + 1):
            for _ in range(4):
                assert _elem_bytes(random_unit(desc, rng, j)) == _elem_bytes(
                    reference_random_unit(desc, ref_rng, j)
                )
            zero = _ZeroDigits()
            assert _elem_bytes(random_unit(desc, zero, j)) == _elem_bytes(
                reference_random_unit(desc, zero, j)
            )
        assert rng.getstate() == ref_rng.getstate()


def test_tube_sample_has_frame_sections_det_times_w():
    rng = random.Random(11)
    for desc, sigma in _tube_configs():
        _, det = sigma.frame_adjugate
        w = [random_unit(desc, rng, rng.randrange(desc.f))
             * FieldElem.pi_power(desc, rng.randrange(3))
             for _ in range(sigma.dim + 1)]
        z = tube_sample(sigma, w)
        for f_j, w_j in zip(sigma.adapted_basis(), w):
            assert linear_form(f_j, z).agrees_with(det * w_j)


# --- equivariance ------------------------------------------------------------


def test_reduction_is_equivariant_for_unimodular_moves():
    rng = random.Random(5)
    desc = FieldDesc(p=2, e=2, N=24)
    pi = FieldElem.pi(desc)
    z = point(desc, 1, pi)
    for _ in range(6):
        g = [list(r) for r in random_unimodular_integer(2, rng)]
        moved = z.apply_matrix(g)
        left = reduce_to_building(moved)
        right = reduce_to_building(z)
        assert left.simplex == right.simplex.transport(g)
        assert left.weights == right.weights
        assert left.certified_level == right.certified_level


def test_equivariance_on_deeper_point():
    rng = random.Random(9)
    desc = FieldDesc(p=3, e=3, N=30)
    pi = FieldElem.pi(desc)
    z = point(desc, 1, pi, pi * pi)
    g = [list(r) for r in random_unimodular_integer(3, rng)]
    moved = z.apply_matrix(g)
    assert reduce_to_building(moved).simplex == \
        reduce_to_building(z).simplex.transport(g)


# --- honesty about rational points and precision ----------------------------


def test_rational_hyperplane_is_rejected():
    desc = FieldDesc(p=2, e=2, N=16)
    exact = point(desc, 1, 0)
    # a cancellation that is only zero to working precision stays honest
    masked = point(desc, 1, 1)
    # neither failure is remembered: every call raises again
    for _ in range(3):
        with pytest.raises(ValueError):
            exact.section_valuation((0, 1))
        with pytest.raises(ValueError):
            exact.section_valuation(ProjPoint.make(2, 1, (0, 1)))
        assert exact.section((0, 1)).exact_zero
        with pytest.raises(PrecisionError):
            masked.section_valuation((1, -1))
        with pytest.raises(PrecisionError):
            masked.section_valuation([1, -1])


def test_rational_point_cannot_be_reduced():
    desc = FieldDesc(p=2, N=4)
    z = point(desc, 1, 2)
    with pytest.raises((ValueError, PrecisionError)):
        reduce_to_building(z)


def test_profile_surfaces_precision_exhaustion():
    desc = FieldDesc(p=2, N=2)
    z = point(desc, 1, 2)
    with pytest.raises(PrecisionError):
        t_profile(z, 3)


# --- section values computed once per point ---------------------------------


def _memo_points():
    """The points of the reduction and certificate tests, and tube points."""
    e2 = FieldDesc(p=2, e=2, N=16)
    pi2 = FieldElem.pi(e2)
    e3 = FieldDesc(p=2, e=3, N=18)
    pi3 = FieldElem.pi(e3)
    f2 = FieldDesc(p=2, f=2, N=16)
    f3 = FieldDesc(p=2, f=3, N=16)
    w3 = FieldElem.omega(f3)
    e2f2 = FieldDesc(p=2, e=2, f=2, N=16)
    deep = FieldDesc(p=2, e=3, N=90)
    pi_deep = FieldElem.pi(deep)
    points = [
        point(e2, 1, pi2),
        point(e2, 1, pi2 + pi2 * pi2 * pi2),
        point(e2, 1, pi2 ** 3),
        point(f2, 1, FieldElem.omega(f2)),
        point(e3, 1, pi3, pi3 * pi3),
        point(e2f2, 1, FieldElem.omega(e2f2), FieldElem.pi(e2f2)),
        point(f3, 1, w3, w3 * w3),
        point(deep, 1, pi_deep, pi_deep * pi_deep),
        point(deep, 1, pi_deep + pi_deep ** 4, pi_deep * pi_deep),
    ]
    for p in (2, 3):
        points += _dual_pair(p)[1:]
    rng = random.Random(10)
    for p, d, e, f in ((2, 1, 2, 1), (3, 1, 2, 1), (2, 2, 3, 2)):
        for _ in range(2):
            sigma = random_pointed_simplex(p, d, rng, type_vector=(1,) * (d + 1))
            k0 = sigma.lattices[0].det_exponent
            desc = FieldDesc(p=p, e=e, f=f, N=e * (10 + 3 * k0))
            points.append(point_in_tube(desc, sigma, rng))
    return points


def _fresh_outcome(z, lift):
    """<a, z> and its valuation (or the error it raises) from the chain of
    adds, with no memo."""
    value = reference_linear_form(lift, z.coords)
    if value.exact_zero:
        return value, ValueError
    try:
        return value, value.valuation()
    except PrecisionError:
        return value, PrecisionError


def test_section_memo_matches_fresh_linear_forms():
    for z in _memo_points():
        p = z.desc.p
        covectors = []
        for level in (1, 2, 3):
            covectors += enumerate_points(p, level, z.dim)
        simplex_ = reduce_to_building(z).simplex
        for lifts in simplex_.tube_test_covectors:
            covectors += lifts
        for a in covectors:
            lift = lift_covector(a)
            value, v = _fresh_outcome(z, lift)
            # a projective point, its lift and a list share one entry; each
            # is asked twice
            for key in (a, lift, list(lift)) * 2:
                assert z.section(key) == value
                if isinstance(v, type):
                    with pytest.raises(v):
                        z.section_valuation(key)
                else:
                    assert z.section_valuation(key) == v
        # a standard basis vector, among the level-1 points, has the
        # coordinate itself as its section
        for i, x in enumerate(z.coords):
            assert z.section([int(j == i) for j in range(z.dim + 1)]) is x


def test_each_section_is_computed_once(monkeypatch):
    from drinfeld import covers

    calls = []

    def counted(a, coords):
        calls.append(tuple(a))
        return linear_form(a, coords)

    monkeypatch.setattr(covers, "linear_form", counted)
    desc = FieldDesc(p=2, e=3, N=18)
    pi = FieldElem.pi(desc)
    z = point(desc, 1, pi, pi * pi)
    calls.clear()
    for level in (1, 2, 1, 2):
        t_profile(z, level)
    bp = reduce_to_building(z)
    assert member_tube(z, bp.simplex) and member_tube(z, bp.simplex)
    tube_coordinates(z, bp.simplex)
    tube_coordinates(z, bp.simplex)
    assert calls and len(calls) == len(set(calls))


def test_the_valuation_memo_holds_only_ints():
    for z in _memo_points():
        for level in (1, 2):
            t_profile(z, level)
        bp = reduce_to_building(z)
        member_tube(z, bp.simplex, open_tube=False)
        assert z._valuations
        assert all(type(v) is int for v in z._valuations.values())


# --- integer cover tests against the Fraction ones ---------------------------


def _cover_outcome(fn, *args):
    """The value of a cover test, or the type and message of its error."""
    try:
        return fn(*args)
    except (ValueError, PrecisionError, AssertionError) as exc:
        return type(exc), str(exc)


def _cover_cases():
    """Tube points of every criterion 10 shape, each with its simplex (and
    so the rotations and proper faces); the memo points, each with its
    reduction's simplex; and the point (1, 2 omega), on the boundary of the
    standard edge's tube, at e = 1 and 2."""
    rng = random.Random(12)
    for desc, sigma in _tube_configs():
        yield point_in_tube(desc, sigma, rng), sigma
    for z in _memo_points():
        yield z, reference_reduce_to_building(z).simplex
    for e in (1, 2):
        desc = FieldDesc(p=2, e=e, f=2, N=30)
        boundary = point(desc, 1, 2 * FieldElem.omega(desc))
        yield boundary, simplex(2, ((1, 0), (0, 1)), ((2, 0), (0, 1)))


def test_integer_cover_tests_match_the_fraction_reference():
    for z, sigma in _cover_cases():
        for level in (None, 1, 2, 3):
            assert _cover_outcome(reduce_to_building, z, level) == \
                _cover_outcome(reference_reduce_to_building, z, level)
        for n in (1, 2, 3):  # the references read levels 1 to 3
            assert _cover_outcome(member_open_cover, z, n) == \
                _cover_outcome(reference_member_open_cover, z, n)
        for n in (1, 2):  # the closed cover at level 0 is refused
            assert _cover_outcome(member_closed_cover, z, n) == \
                _cover_outcome(reference_member_closed_cover, z, n)
        for tau in sigma.rotations() + tuple(proper_faces(sigma)):
            for open_tube in (True, False):
                assert member_tube(z, tau, open_tube) == \
                    reference_member_tube(z, tau, open_tube)


# --- the adapted basis against the profile over P^d(Z/p^n) -------------------

# the references read every point of P^d(Z/p^n): levels up to this many
REFERENCE_POINTS = 1200
TOO_DEEP = "level cannot certify the reduction; the point sits too deep"


def _adapted_basis_case(p, d, seed):
    """A point in the tube of a random simplex whose frame has entries in
    [-p, p], and a unimodular translate of it, over a field shape that the
    simplex's type allows."""
    rng = random.Random(seed)
    sigma = random_pointed_simplex(p, d, rng, bound=p)
    e = rng.randint(sigma.k + 1, 4)
    f = rng.randint(max(sigma.type_vector()), 3)
    k0 = sigma.lattices[0].det_exponent
    desc = FieldDesc(p=p, e=e, f=f, N=e * (10 + 3 * k0))
    z = point_in_tube(desc, sigma, rng)
    return z, z.apply_matrix(random_unimodular_integer(d + 1, rng))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2]), st.integers(0, 2**32))
def test_adapted_basis_matches_the_profile_references(p, d, seed):
    levels = [n for n in range(1, 5) if point_count(p, n, d) <= REFERENCE_POINTS]
    top = levels[-1]
    for z in _adapted_basis_case(p, d, seed):
        for n in levels:
            assert _cover_outcome(reduce_to_building, z, n) == \
                _cover_outcome(reference_reduce_to_building, z, n)
            assert _cover_outcome(member_open_cover, z, n) == \
                _cover_outcome(reference_member_open_cover, z, n)
            if n < top:  # the closed reference reads level n + 1
                assert _cover_outcome(member_closed_cover, z, n) == \
                    _cover_outcome(reference_member_closed_cover, z, n)
        # with level=None the reference reads levels until one certifies
        if max(t_profile(z, top).values()) < top:
            assert _cover_outcome(reduce_to_building, z, None) == \
                _cover_outcome(reference_reduce_to_building, z, None)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2]), st.integers(0, 2**32))
def test_adapted_basis_is_unimodular_and_orthogonal(p, d, seed):
    cancel = SymmetricSpacePoint._cancel_leads

    def checked(z, basis, depths):
        move = cancel(z, basis, depths)
        if move is not None:
            # each update raises the depth of the vector it replaces
            j, row = move
            above = Fraction(depths[j] + 1, z.desc.e)
            assert z.section(row).valuation_at_least(above)
        return move

    rng = random.Random(seed)
    for z in _adapted_basis_case(p, d, seed):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(SymmetricSpacePoint, "_cancel_leads", checked)
            depth, basis, depths = z.orthogonal_basis(10**6)
        assert abs(reference_det_int(basis)) == 1
        assert depth == max(depths) and min(depths) == 0
        e = z.desc.e
        for _ in range(8):
            x = [rng.choice([0, 1, -1, p, 2 * p * p, rng.randrange(p**3)])
                 for _ in basis]
            if not any(x):
                continue
            a = [sum(xi * b[k] for xi, b in zip(x, basis)) for k in range(d + 1)]
            assert z.section_pi_valuation(a) == min(
                e * pval(xi, p) + t for xi, t in zip(x, depths) if xi)


def _ci_cover_points():
    """The points of the two CI cover pins whose closed-cover question
    follows a stopped open-cover search at level 1: the --e 1 --f 2
    boundary point and the p = 3, d = 2 point."""
    desc = FieldDesc(p=2, e=1, f=2, N=30)
    yield SymmetricSpacePoint([FieldElem.from_int(desc, 1),
                               FieldElem.from_coeffs(desc, [0, 1], 1)])
    desc = FieldDesc(p=3, e=3, N=39)
    yield SymmetricSpacePoint([FieldElem.from_coeffs(desc, c) for c in (
        [1, 0, 0], [1106881, 733602, 1175124], [984323, 150375, 979722])])


def test_a_resumed_search_equals_a_fresh_one(monkeypatch):
    """A point whose search stopped at cap1 answers a larger cap2 with the
    (T, basis, depths) of a fresh point asked cap2 directly, and a cap no
    larger than the deepest refused one runs no search."""
    searches = []
    search = SymmetricSpacePoint._search

    def counted(z, cap):
        searches.append(cap)
        return search(z, cap)

    monkeypatch.setattr(SymmetricSpacePoint, "_search", counted)
    ci = list(_ci_cover_points())
    for z in ci:
        # the CI runs ask the open cover at level 1 first, which stops
        assert not member_open_cover(z, 1)
    # seeds whose points reach a depth of at least 2e through at least two
    # basis updates, so a search can stop at an updated vector; at seed 36
    # that vector is then alone in its class mod e
    seeded = [z for p, d, seed in ((2, 1, 26), (5, 1, 5), (2, 2, 23),
                                   (2, 2, 36), (3, 2, 1), (5, 2, 17))
              for z in _adapted_basis_case(p, d, seed)]
    for z in ci + seeded:
        fresh = {}
        depth = SymmetricSpacePoint(z.coords).orthogonal_basis(10**6)[0]
        for cap1 in range(1, depth + 1):
            for cap2 in (cap1 + 1, depth + 1):
                if cap2 not in fresh:
                    fresh[cap2] = SymmetricSpacePoint(z.coords).orthogonal_basis(cap2)
                resumed = SymmetricSpacePoint(z.coords)
                assert resumed.orthogonal_basis(cap1) is None
                searches.clear()
                assert resumed.orthogonal_basis(cap2) == fresh[cap2]
                assert searches == [cap2]
                searches.clear()
                for cap in range(1, resumed._deep_at + 1):
                    assert resumed.orthogonal_basis(cap) is None
                assert searches == []
        assert fresh[depth + 1][0] == depth


def test_a_point_too_deep_for_the_question_raises_no_new_precision_error():
    """Rational points (1, p^j) at little precision: the search stops at
    the cap, where the profile may read a digit that N cannot resolve."""
    for p, e, N, j in ((2, 1, 4, 2), (2, 2, 8, 1), (3, 1, 3, 1),
                       (2, 2, 6, 2), (2, 1, 6, 2)):
        desc = FieldDesc(p=p, e=e, N=N)
        z = point(desc, 1, p**j)
        for fn, ref, levels in (
            (reduce_to_building, reference_reduce_to_building, (1, 2, 3, None)),
            (member_open_cover, reference_member_open_cover, (1, 2, 3)),
            (member_closed_cover, reference_member_closed_cover, (1, 2, 3)),
        ):
            for n in levels:
                got, want = _cover_outcome(fn, z, n), _cover_outcome(ref, z, n)
                # the memo keeps no half-read basis: a second call agrees
                assert _cover_outcome(fn, z, n) == got
                if isinstance(want, tuple) and want[0] is PrecisionError:
                    # the profile read a digit past the cap
                    assert got in (want, False, (ValueError, TOO_DEEP))
                else:
                    assert got == want
    z = point(FieldDesc(p=3, e=1, N=3), 1, 3)
    assert _cover_outcome(reduce_to_building, z, 3) == (ValueError, TOO_DEEP)
    assert not member_open_cover(z, 3)


def test_reduction_lattices_take_d_plus_one_rows(monkeypatch):
    p, d, e, f = 3, 2, 3, 1
    rows_seen = []
    from_rows = Lattice.from_rows

    def counted(p, rows, scale=0):
        rows_seen.append(len(rows))
        return from_rows(p, rows, scale)

    rng = random.Random(26)
    for _ in range(4):
        sigma = _random_simplex_for(p, d, e, f, rng)
        k0 = sigma.lattices[0].det_exponent
        z = point_in_tube(FieldDesc(p=p, e=e, f=f, N=e * (10 + 3 * k0)), sigma, rng)
        with monkeypatch.context() as m:
            m.setattr(Lattice, "from_rows", staticmethod(counted))
            bp = reduce_to_building(z)
        assert bp == reference_reduce_to_building(z)
    assert rows_seen and set(rows_seen) == {d + 1}


def _points_over(desc, pi, plane):
    """Points off every rational hyperplane, written with a given pi; with
    plane, one point of dimension 2 too, which needs degree 4 over Q_p."""
    u = FieldElem.omega(desc) if desc.f > 1 else FieldElem.one(desc)
    points = [
        point(desc, 1, u * pi),
        point(desc, 1, u * pi + pi ** 3),
        point(desc, 1, u * pi ** 3),
    ]
    if plane:
        points.append(point(desc, 1, pi, u * pi * pi))
    return points


@pytest.mark.parametrize("p, e, f", [(2, 1, 2), (3, 1, 2), (2, 2, 1), (3, 2, 1),
                                     (2, 2, 2)])
def test_pi_valuations_stay_inside_one_field(p, e, f):
    """The same points over ramification e and 2e, with pi_e = pi_2e^2:
    every pi-valuation doubles and no answer moves, so no test compares
    integers of two fields."""
    lo = FieldDesc(p=p, e=e, f=f, N=12 * e)
    hi = FieldDesc(p=p, e=2 * e, f=f, N=24 * e)
    plane = e * f >= 4
    pairs = zip(_points_over(lo, FieldElem.pi(lo), plane),
                _points_over(hi, FieldElem.pi(hi) ** 2, plane))
    for z_lo, z_hi in pairs:
        for a in enumerate_points(p, 2, z_lo.dim):
            assert z_hi.section_pi_valuation(a) == 2 * z_lo.section_pi_valuation(a)
            assert z_hi.section_valuation(a) == z_lo.section_valuation(a)
        bp = reduce_to_building(z_lo)
        assert reduce_to_building(z_hi) == bp
        for n in (1, 2):
            assert member_open_cover(z_hi, n) == member_open_cover(z_lo, n)
            assert member_closed_cover(z_hi, n) == member_closed_cover(z_lo, n)
        for tau in bp.simplex.rotations() + tuple(proper_faces(bp.simplex)):
            assert member_tube(z_hi, tau) == member_tube(z_lo, tau)


# --- serialization -----------------------------------------------------------


def test_building_point_serialization():
    desc = FieldDesc(p=2, e=2, N=16)
    z = point(desc, 1, FieldElem.pi(desc))
    blob = reduce_to_building(z).to_json()
    assert blob["weights"] == ["1/2", "1/2"]
    assert blob["certified_level"] == 1
    assert blob["simplex"]["chain"][0]["hnf"] == [[1, 0], [0, 1]]


def test_point_serialization_round_trip_fields():
    desc = FieldDesc(p=3, e=2, N=12)
    z = point(desc, 1, FieldElem.pi(desc))
    blob = z.to_json()
    assert blob["field"]["p"] == 3
    assert len(blob["coords"]) == 2


# --- small property checks ---------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.sampled_from([2, 3]))
def test_unit_translates_keep_the_same_reduction(shift_seed, scale, p):
    desc = FieldDesc(p=p, e=2, N=16)
    pi = FieldElem.pi(desc)
    unit = FieldElem.from_int(desc, 1 + p * shift_seed)
    z = point(desc, 1, pi * unit * scale if scale % p else pi * unit)
    bp = reduce_to_building(z)
    assert sum(bp.weights) == 1
    assert bp.simplex.lattices[0].scale == 0
