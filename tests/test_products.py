"""Formal products and the integration map: frozen values, cocycle laws,
representative handling, residue round trips, and evaluation guards."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.building import Lattice, PointedSimplex, standard_simplex
from drinfeld.covers import SymmetricSpacePoint
from drinfeld.distributions import MassZeroVector, basis_mass_zero, random_mass_zero
from drinfeld.padic import FieldDesc, FieldElem, PrecisionError
from drinfeld.products import (
    GLOBAL_SIGN,
    FormalProduct,
    alpha_level,
    dlog_residue,
    evaluate_product,
    evaluate_ratio,
    residue_round_trip,
)
from drinfeld.projpoints import REP_SYSTEMS, ProjPoint, enumerate_points
from drinfeld.residues import pair_distribution
from helpers import reference_evaluate_product, reference_evaluate_ratio


def ramified_point(p=2, N=40, deep=False):
    desc = FieldDesc(p=p, e=2, N=N)
    pi = FieldElem.pi(desc)
    one = FieldElem.one(desc)
    return SymmetricSpacePoint([one, pi + pi**3 if deep else pi])


def dirac(p, n, a, b):
    return MassZeroVector.dirac_pair(
        ProjPoint.make(p, n, a), ProjPoint.make(p, n, b)
    )


def test_alpha_builds_the_section_quotient():
    mu = dirac(2, 1, (1, 1), (0, 1))
    u = alpha_level(mu)
    assert u.level == 1 and u.mu == mu
    exponents = {tuple(k.rep): v for k, v in u.mu.items()}
    assert exponents == {(1, 1): 1, (0, 1): -1}


def test_alpha_on_basepoint_class_keeps_its_exponent():
    # the first canonical point is an ordinary factor of the product; only
    # the JSON layout lists it as the basepoint, off the factor table
    u = alpha_level(dirac(2, 1, (1, 0), (0, 1)))
    exponents = {tuple(k.rep): v for k, v in u.mu.items()}
    assert exponents == {(1, 0): 1, (0, 1): -1}
    blob = u.to_json()
    assert blob["basepoint"] == [1, 0]
    assert blob["factors"] == [{"point": [0, 1], "exponent": -1}]


def test_frozen_evaluation_valuation():
    # the quotient of the unit section by the uniformizer section has
    # valuation -1/2 in the ramified quadratic field
    z = ramified_point()
    u = alpha_level(dirac(2, 1, (1, 0), (0, 1)))
    value = evaluate_product(u, z)
    assert value.valuation() == Fraction(-1, 2)


def test_zero_vector_integrates_to_one():
    u = alpha_level(MassZeroVector(2, 1, 1))
    assert len(u.mu) == 0
    z = ramified_point()
    value = evaluate_product(u, z)
    one = FieldElem.one(z.desc)
    diff = value - one
    assert value.agrees_with(one)
    assert diff.shift + diff.prec == z.desc.N


def test_evaluation_cocycle():
    rng = random.Random(11)
    z = ramified_point(3)
    mu = random_mass_zero(3, 2, 1, rng)
    nu = random_mass_zero(3, 2, 1, rng)
    left = evaluate_product(alpha_level(mu + nu), z)
    right = evaluate_product(alpha_level(mu), z) * evaluate_product(
        alpha_level(nu), z
    )
    assert left.agrees_with(right)


def test_factor_window_validated():
    with pytest.raises(ValueError):
        FormalProduct(dirac(2, 1, (1, 1), (0, 1)), rep_system="weird")
    with pytest.raises(ValueError):
        MassZeroVector(2, 1, 1, {
            ProjPoint.make(2, 2, (1, 0)): 1, ProjPoint.make(2, 1, (0, 1)): -1,
        })


def test_formal_products_take_exactly_the_lift_systems():
    mu = dirac(2, 2, (1, 3), (1, 0))
    for system in REP_SYSTEMS:
        assert FormalProduct(mu, system).rep_system == system
        for pt in enumerate_points(2, 2, 1):
            assert ProjPoint.make(2, 2, pt.lift_vector(system)) == pt
    for system in ("LEX", "rev", ""):
        with pytest.raises(ValueError, match="representative system"):
            FormalProduct(mu, system)
        with pytest.raises(ValueError, match="representative system"):
            ProjPoint.make(2, 1, (1, 0)).lift_vector(system)


def test_rep_systems_change_lifts_not_residues():
    mu = dirac(2, 2, (1, 3), (1, 0))
    lex = alpha_level(mu, rep_system="lex")
    rev = alpha_level(mu, rep_system="revlex")
    assert lex != rev
    edge = standard_simplex(2, (1, 1))
    assert dlog_residue(lex, edge, require_local=False) == dlog_residue(
        rev, edge, require_local=False
    )


def test_evaluate_ratio_matches_quotient_of_values():
    rng = random.Random(5)
    z1 = ramified_point()
    z2 = ramified_point(deep=True)
    mu = random_mass_zero(2, 2, 1, rng)
    u = alpha_level(mu)
    ratio = evaluate_ratio(u, z1, z2, certified_level=1)
    direct = evaluate_product(u, z1) / evaluate_product(u, z2)
    assert ratio.agrees_with(direct)


def test_evaluation_guards():
    z = ramified_point()
    u = alpha_level(dirac(2, 1, (1, 0), (0, 1)))
    with pytest.raises(ValueError):
        evaluate_product(u, z, certified_level=1)
    desc = z.desc
    shallow = SymmetricSpacePoint(
        [FieldElem.one(desc), FieldElem.pi(desc) ** 4]
    )
    u2 = alpha_level(dirac(2, 2, (1, 1), (0, 1)))
    with pytest.raises(ValueError):
        evaluate_product(u2, shallow, certified_level=1)
    with pytest.raises(ValueError):
        evaluate_ratio(u2, shallow, z, certified_level=1)


def test_dimension_mismatch_is_refused():
    # a distribution on P^2 against a point and an edge of P^1: zip would
    # silently drop the third covector entry
    z = ramified_point()
    u = alpha_level(dirac(2, 2, (1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="dimension"):
        evaluate_product(u, z)
    with pytest.raises(ValueError, match="dimension"):
        evaluate_ratio(u, z, z)
    with pytest.raises(ValueError, match="dimension"):
        pair_distribution(u.mu, standard_simplex(2, (1, 1)),
                          require_local=False)


def test_dlog_residue_locality_guard():
    deep = PointedSimplex(
        (
            Lattice.from_rows(2, [[0, 1], [4, 0]]),
            Lattice.from_rows(2, [[0, 2], [4, 0]]),
        )
    )
    u = alpha_level(dirac(2, 1, (1, 0), (0, 1)))
    with pytest.raises(ValueError):
        dlog_residue(u, deep)
    assert isinstance(dlog_residue(u, deep, require_local=False), int)


def test_round_trip_on_basis():
    for p in (2, 3):
        edge = standard_simplex(p, (1, 1))
        for mu in basis_mass_zero(p, 1, 1):
            left, right = residue_round_trip(mu, edge)
            assert left == right


@given(st.integers(min_value=0, max_value=10**6))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    edge = standard_simplex(p, (1, 1))
    mu = random_mass_zero(p, 2, 1, rng)
    left, right = residue_round_trip(mu, edge)
    assert left == right
    assert dlog_residue(alpha_level(mu), edge) == GLOBAL_SIGN * pair_distribution(
        mu, edge
    )


def test_to_json_shape_and_order():
    u = alpha_level(dirac(2, 2, (1, 3), (1, 1)))
    blob = u.to_json()
    assert blob["level"] == 2
    assert blob["rep_system"] == "lex"
    reps = [tuple(f["point"]) for f in blob["factors"]]
    assert reps == sorted(reps)


# -- the evaluators against their per-copy references ----------------------


def random_point(desc, d, rng):
    """(1, pi^s u_1, ..., pi^s u_d) with random digits u_i and s in {0, 1, 3}:
    an odd shift keeps the point in every level's open cover at e = 2, a
    shift of 0 often leaves it."""
    coords = [FieldElem.one(desc)]
    for _ in range(d):
        digits = [rng.randrange(desc.coeff_modulus) for _ in range(desc.e * desc.f)]
        coords.append(FieldElem.from_coeffs(desc, digits, rng.choice([0, 1, 3])))
    return SymmetricSpacePoint(coords)


def _outcome(fn, *args):
    try:
        x = fn(*args)
    except (PrecisionError, ZeroDivisionError, ValueError) as exc:
        return type(exc)
    return (x.shift, x.coeffs, x.prec, x.exact_zero)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3]),
    st.sampled_from([1, 2]),
    st.sampled_from(REP_SYSTEMS),
    st.integers(min_value=0, max_value=10**6),
)
def test_evaluators_match_their_per_copy_references(p, level, d, rep_system, seed):
    rng = random.Random(seed)
    u = FormalProduct(random_mass_zero(p, level, d, rng, coeff_bound=8), rep_system)
    desc = FieldDesc(p=p, e=2, f=rng.choice([1, 2]), N=40)
    z1, z2 = random_point(desc, d, rng), random_point(desc, d, rng)
    for certified_level in (None, *range(1, level)):
        assert _outcome(evaluate_product, u, z1, certified_level) == _outcome(
            reference_evaluate_product, u, z1, certified_level
        )
        assert _outcome(evaluate_ratio, u, z1, z2, certified_level) == _outcome(
            reference_evaluate_ratio, u, z1, z2, certified_level
        )


# -- the pair memo of evaluate_ratio ------------------------------------------


def test_evaluate_ratio_repeats_and_interleaves_through_the_pair_memo():
    rng = random.Random(29)
    desc = FieldDesc(p=3, e=2, f=2, N=40)
    z1, z2, z3 = (random_point(desc, 1, rng) for _ in range(3))
    products = [FormalProduct(random_mass_zero(3, 3, 1, rng, size=8), rep)
                for rep in REP_SYSTEMS for _ in range(3)]
    # the same pair twice, then a second z2 on the same z1 between repeats
    for other in (z2, z2, z3, z2, z3):
        for u in products:
            assert _outcome(evaluate_ratio, u, z1, other) == _outcome(
                reference_evaluate_ratio, u, z1, other
            )


def test_a_copy_of_the_other_point_has_its_own_memo_entries():
    rng = random.Random(7)
    desc = FieldDesc(p=2, e=2, N=40)
    z1, z2 = random_point(desc, 1, rng), random_point(desc, 1, rng)
    twin = SymmetricSpacePoint(z2.coords)
    u = alpha_level(random_mass_zero(2, 2, 1, rng))
    first = _outcome(evaluate_ratio, u, z1, z2)
    stored = len(z1._ratios)
    assert stored == len(u.mu)
    assert _outcome(evaluate_ratio, u, z1, twin) == first == _outcome(
        reference_evaluate_ratio, u, z1, z2
    )
    assert len(z1._ratios) == 2 * stored


def test_the_pair_memo_stores_no_failure():
    desc = FieldDesc(p=2, e=2, N=40)
    one, pi = FieldElem.one(desc), FieldElem.pi(desc)
    z1 = SymmetricSpacePoint([one, pi])
    # <(1, 1), (1, -1)> is a zero that the digits cannot tell from 0, and
    # <(0, 1), (1, 0)> is the exact zero
    other = FieldDesc(p=2, e=2, N=30)
    cases = [
        (SymmetricSpacePoint([one, -one]), (1, 1), PrecisionError,
         "indistinguishable"),
        (SymmetricSpacePoint([one, FieldElem.zero(desc)]), (0, 1),
         ZeroDivisionError, "exact zero"),
        (SymmetricSpacePoint([FieldElem.one(other), FieldElem.pi(other)]),
         (1, 0), ValueError, "mixed field"),
    ]
    for z2, a, error, match in cases:
        for m in (1, -2, 1):
            with pytest.raises(error, match=match):
                z1.ratio_power(z2, a, m)
    assert not z1._ratios
    # an exponent that is not an int is refused even where the int is stored
    z2 = SymmetricSpacePoint([one, pi + pi**3])
    z1.ratio_power(z2, (1, 1), 1)
    for m in (True, 1.0):
        with pytest.raises(TypeError):
            z1.ratio_power(z2, (1, 1), m)
    assert len(z1._ratios) == 1
