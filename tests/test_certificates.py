"""Congruence certificates: margins, thresholds, exactness flags, guards,
and the JSON record shape."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from drinfeld.certificates import (
    convergence_certificate,
    equivariance_certificate,
    lift_congruence_certificate,
    representative_swap_certificate,
    restriction_certificate,
    unit_margin,
)
from drinfeld.certify import _dual_pair, random_unimodular
from drinfeld.covers import SymmetricSpacePoint
from drinfeld.distributions import (
    DistributionFamily,
    MassZeroVector,
    random_family,
    random_mass_zero,
)
from drinfeld.intlinalg import inv_scaled
from drinfeld.padic import FieldDesc, FieldElem
from drinfeld.products import alpha_level, evaluate_ratio
from drinfeld.projpoints import ProjPoint
from helpers import (
    check_trusted,
    reference_det_int,
    reference_dual_pair,
    reference_equivariance_pair,
)

RECORD_KEYS = {
    "kind", "inputs", "threshold", "measured_margin",
    "measured_margin_pi_units", "margin_resolved", "pass",
}


def fixed_family(p=2):
    top = MassZeroVector.dirac_pair(
        ProjPoint.make(p, 3, (1, 5)), ProjPoint.make(p, 3, (0, 1))
    )
    return DistributionFamily(top)


@pytest.mark.parametrize("p", [2, 3])
def test_dual_pair_gives_the_inline_points(p):
    for (desc, *got), (ref_desc, *ref) in [
        (_dual_pair(p), reference_dual_pair(p)),
        (_dual_pair(p, N=24), reference_dual_pair(p, N=24)),
        (_dual_pair(p, 90, d=2), reference_equivariance_pair(p)),
    ]:
        assert desc == ref_desc
        assert [z.to_json() for z in got] == [z.to_json() for z in ref]


def test_unit_margin_reads_digits():
    desc = FieldDesc(p=2, e=2, N=12)
    one = FieldElem.one(desc)
    # computed digits never claim exactness: the margin of 1 itself is the
    # full window as an unresolved lower bound
    margin, resolved = unit_margin(one)
    assert margin == Fraction(12, 2) and not resolved
    value = one + FieldElem.pi(desc) ** 3
    margin, resolved = unit_margin(value)
    assert margin == Fraction(3, 2) and resolved
    masked = one + FieldElem.pi(desc) ** 13  # beyond the digit window
    margin, resolved = unit_margin(masked)
    assert not resolved and margin == Fraction(12, 2)


def test_convergence_certificate_fixed_family():
    desc, z1, z2 = _dual_pair(2)
    rec = convergence_certificate(fixed_family(), z1, z2, 1, 2, 3)
    assert set(rec) == RECORD_KEYS
    assert rec["kind"] == "level-refinement"
    assert rec["threshold"] == 1
    assert rec["pass"] and rec["margin_resolved"]
    assert Fraction(rec["measured_margin"]) == Fraction(7, 2)
    assert Fraction(rec["measured_margin_pi_units"]) == 7


def test_swap_certificate_fixed_family():
    desc, z1, z2 = _dual_pair(2)
    rec = representative_swap_certificate(fixed_family(), z1, z2, 1, 2)
    assert rec["kind"] == "representative-swap"
    assert rec["pass"]
    # the two systems agree beyond the digit window here, so the margin is
    # an honest unresolved lower bound, still above the threshold
    assert not rec["margin_resolved"]
    assert Fraction(rec["measured_margin"]) >= rec["threshold"]


def test_certificates_pass_over_random_families():
    for p in (2, 3):
        rng = random.Random(41 + p)
        desc, z1, z2 = _dual_pair(p)
        for _ in range(5):
            fam = random_family(p, 3, 1, rng)
            for rec in (
                convergence_certificate(fam, z1, z2, 1, 2, 3),
                representative_swap_certificate(fam, z1, z2, 1, 2),
                restriction_certificate(fam, z1, z2, 1, 2, 3),
            ):
                assert rec["pass"], rec
                assert Fraction(rec["measured_margin"]) >= rec["threshold"]


@pytest.mark.parametrize("p", [2, 3])
def test_ratios_and_margins_survive_at_triple_precision(p):
    """evaluate_ratio of a seeded random family on the dual pair, built at
    N and at 3N: every digit trusted at N is the digit at 3N, a margin
    resolved at N is the margin at 3N, and an unresolved one is a lower
    bound of it.  Quotients of two ratios are the certificates' values."""
    N = 40
    _, lo1, lo2 = _dual_pair(p, N=N)
    _, hi1, hi2 = _dual_pair(p, N=3 * N)
    rng = random.Random(7 + p)
    for _ in range(3):
        fam = random_family(p, 3, 1, rng)
        pairs = []
        for n in (2, 3):
            for rep_system in ("lex", "revlex"):
                u = alpha_level(fam.at(n), rep_system)
                pairs.append(
                    (evaluate_ratio(u, lo1, lo2, 1), evaluate_ratio(u, hi1, hi2, 1))
                )
        pairs += [
            (a_lo / b_lo, a_hi / b_hi)
            for (a_lo, a_hi), (b_lo, b_hi) in combinations(pairs, 2)
        ]
        pairs += [(lo / lo, hi / hi) for lo, hi in pairs[:1]]
        for lo, hi in pairs:
            check_trusted(lo, hi)
            margin_lo, resolved = unit_margin(lo)
            margin_hi, _ = unit_margin(hi)
            if resolved:
                assert margin_lo == margin_hi
            else:
                assert margin_hi is None or margin_lo <= margin_hi


def test_lift_congruence_distinct_lifts():
    cls = ProjPoint.make(2, 2, (1, 3))
    assert cls.lift_vector("lex") == (1, 3)
    assert cls.lift_vector("revlex") == (-1, 1)
    desc, z1, z2 = _dual_pair(2)
    rec = lift_congruence_certificate(cls, z1, z2, 1)
    assert rec["kind"] == "lift-congruence"
    assert rec["threshold"] == 1 and rec["pass"]


def test_restriction_certificate_reports_exactness():
    desc, z1, z2 = _dual_pair(3)
    rec = restriction_certificate(fixed_family(3), z1, z2, 1, 2, 3)
    assert rec["kind"] == "restriction"
    assert rec["exact_restriction"] is True
    assert rec["weak_threshold"] == 0
    assert rec["threshold"] == 1
    assert rec["pass"]


def test_restriction_detects_a_layer_that_is_not_the_pushforward():
    desc, z1, z2 = _dual_pair(3)
    fam = fixed_family(3)
    fam.layers[2] = MassZeroVector.dirac_pair(
        ProjPoint.make(3, 2, (1, 1)), ProjPoint.make(3, 2, (0, 1))
    )
    rec = restriction_certificate(fam, z1, z2, 1, 2, 3)
    assert rec["exact_restriction"] is False
    assert rec["pass"] is False


def test_restriction_needs_certified_points():
    desc, z1, z2 = _dual_pair(2)
    shallow = SymmetricSpacePoint(
        [FieldElem.one(desc), FieldElem.pi(desc) ** 4]
    )
    with pytest.raises(ValueError):
        restriction_certificate(fixed_family(), shallow, z2, 1, 2, 3)


def test_level_order_validated():
    desc, z1, z2 = _dual_pair(2)
    fam = fixed_family()
    for bad in ((2, 2, 3), (1, 3, 2), (3, 2, 1)):
        with pytest.raises(ValueError):
            convergence_certificate(fam, z1, z2, *bad)
        with pytest.raises(ValueError):
            restriction_certificate(fam, z1, z2, *bad)


def test_equivariance_identity_is_exact_scale():
    desc, z1, z2 = _dual_pair(2)
    mu = random_mass_zero(2, 2, 1, random.Random(8))
    eye = [[1, 0], [0, 1]]
    rec = equivariance_certificate(eye, eye, mu, z1, z2, 1)
    assert rec["pass"]
    # identical products at identical points: the digits certify a long
    # unresolved lower bound rather than an exact value
    assert Fraction(rec["measured_margin"]) >= desc.N / desc.e - 1


def test_equivariance_random_translates():
    for p in (2, 3):
        rng = random.Random(77 + p)
        desc, z1, z2 = _dual_pair(p)
        for _ in range(5):
            g = random_unimodular(2, rng)
            ginv, _ = inv_scaled(g)
            mu = random_mass_zero(p, 2, 1, rng)
            rec = equivariance_certificate(g, ginv, mu, z1, z2, 1)
            assert rec["pass"], rec


def test_equivariance_deep_transport_keeps_digits():
    # size-3 transports stack deep section cancellations; the factor-paired
    # ratio evaluation must keep the margin resolvable
    desc = FieldDesc(p=2, e=3, N=90)
    pi = FieldElem.pi(desc)
    one = FieldElem.one(desc)
    z1 = SymmetricSpacePoint([one, pi, pi * pi])
    z2 = SymmetricSpacePoint([one, pi + pi**4, pi * pi])
    g = [[1, 3, -2], [4, 9, -10], [-1, -1, 3]]
    ginv, _ = inv_scaled(g)
    rng = random.Random(4)
    for _ in range(3):
        mu = random_mass_zero(2, 2, 2, rng)
        rec = equivariance_certificate(g, ginv, mu, z1, z2, 1)
        assert rec["pass"], rec
        assert Fraction(rec["measured_margin"]) >= 1


def test_equivariance_refuses_a_g_inverse_outside_gl_zp():
    """The moved points are certified through the group, so g_inverse must
    be a scaled inverse of g with a unit scale: diag(p, 1) for g = I, a
    unimodular matrix that is no inverse of g, and p g^-1, whose scale p is
    no unit, are refused."""
    for p in (2, 3):
        desc, z1, z2 = _dual_pair(p)
        mu = random_mass_zero(p, 2, 1, random.Random(5))
        eye = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="scaled inverse"):
            equivariance_certificate(eye, [[p, 0], [0, 1]], mu, z1, z2, 1)
        g = [[1, 1], [0, 1]]
        with pytest.raises(ValueError, match="scaled inverse"):
            equivariance_certificate(g, g, mu, z1, z2, 1)
        with pytest.raises(ValueError, match="scaled inverse"):
            equivariance_certificate(g, [[p, -p], [0, p]], mu, z1, z2, 1)


def test_equivariance_accepts_a_unit_scaled_inverse():
    """g in GL_2(Z_p) that is not unimodular over Z: inv_scaled gives its
    inverse scaled by det g, a unit at p, which the certificate accepts."""
    for p in (2, 3):
        desc, z1, z2 = _dual_pair(p)
        mu = random_mass_zero(p, 2, 1, random.Random(6))
        g = [[5, 1], [0, 1]]
        ginv, det = inv_scaled(g)
        assert det == 5 and ginv == ((1, -1), (0, 5))
        assert equivariance_certificate(g, ginv, mu, z1, z2, 1)["pass"]


def test_equivariance_searches_only_the_pair(monkeypatch):
    """The depth search runs on z1 and z2 and never on the moved points."""
    searched = []
    search = SymmetricSpacePoint._search

    def counted(self, cap):
        searched.append(self)
        return search(self, cap)

    monkeypatch.setattr(SymmetricSpacePoint, "_search", counted)
    desc, z1, z2 = _dual_pair(3)
    rng = random.Random(9)
    for _ in range(4):
        g = random_unimodular(2, rng)
        ginv, _ = inv_scaled(g)
        mu = random_mass_zero(3, 2, 1, rng)
        assert equivariance_certificate(g, ginv, mu, z1, z2, 1)["pass"]
    assert searched == [z1, z2]


def test_random_unimodular_has_unit_determinant():
    rng = random.Random(1)
    for size in (2, 3):
        for _ in range(20):
            assert abs(reference_det_int(random_unimodular(size, rng))) == 1


def test_records_are_json_ready():
    import json

    desc, z1, z2 = _dual_pair(2)
    rec = convergence_certificate(fixed_family(), z1, z2, 1, 2, 3)
    assert json.loads(json.dumps(rec)) == rec
