"""Machine-checkable congruence certificates for the integration map.

The modulus "a multiplicative constant times a 1-unit of order n-i" cannot
be observed at a single point — the constant absorbs everything — so every
certificate is a two-point ratio test: form R from evaluations at two
certified points so the constant cancels, then measure v_p(R - 1) against
the integer threshold n - i.  Margins are measured in p-units (pi-units are
reported alongside) and never asserted beyond the threshold.
"""

from __future__ import annotations

from fractions import Fraction

from .intlinalg import identity, matmul
from .padic import FieldElem, PrecisionError
from .products import alpha_level, evaluate_ratio, require_certified_points


def unit_margin(value):
    """Largest q with v_p(value - 1) >= q that the digits certify.

    Returns (margin, resolved): margin is a Fraction, or None for an exact
    1; resolved is False when the digits only give the lower bound."""
    one = FieldElem.one(value.desc)
    diff = value - one
    if diff.exact_zero:
        return None, True
    try:
        return diff.valuation(), True
    except PrecisionError:
        return Fraction(diff.shift + diff.prec, value.desc.e), False


def _margin_record(kind, inputs, threshold, value):
    margin, resolved = unit_margin(value)
    passed = margin is None or margin >= threshold
    return {
        "kind": kind,
        "inputs": inputs,
        "threshold": threshold,
        "measured_margin": "exact" if margin is None else str(margin),
        "measured_margin_pi_units": (
            "exact" if margin is None else str(margin * value.desc.e)
        ),
        "margin_resolved": resolved,
        "pass": bool(passed),
    }


def _two_point_ratio(u_top, u_bottom, z1, z2, certified_level):
    # Pair same-product evaluations across the two points: each pairing is
    # a unit whenever the points share section valuations, so no
    # intermediate carries the unobservable constant's valuation.
    top = evaluate_ratio(u_top, z1, z2, certified_level)
    bottom = evaluate_ratio(u_bottom, z1, z2, certified_level)
    return top / bottom


def convergence_certificate(fam, z1, z2, i, n, nprime):
    """Level-refinement congruence: the degree-n and degree-n' truncations
    of the integrated family agree up to a constant and a 1-unit of order
    n - i at points certified at level i."""
    if not (i < n < nprime):
        raise ValueError("need i < n < n'")
    upper = alpha_level(fam.at(nprime))
    lower = alpha_level(fam.at(n))
    ratio = _two_point_ratio(upper, lower, z1, z2, i)
    inputs = {
        "i": i, "n": n, "n_prime": nprime, "rep_system": "lex",
        "support": len(fam.at(nprime).support()),
    }
    return _margin_record("level-refinement", inputs, n - i, ratio)


def representative_swap_certificate(fam, z1, z2, i, n):
    """The two representative systems integrate the same vector into
    products that differ by a constant and a 1-unit of order n - i."""
    if not i < n:
        raise ValueError("need i < n")
    lex = alpha_level(fam.at(n), "lex")
    rev = alpha_level(fam.at(n), "revlex")
    ratio = _two_point_ratio(lex, rev, z1, z2, i)
    inputs = {"i": i, "n": n, "support": len(fam.at(n).support())}
    return _margin_record("representative-swap", inputs, n - i, ratio)


def lift_congruence_certificate(cls, z1, z2, i):
    """Two unimodular lifts of one level-n class have section ratios that
    agree across certified points up to a 1-unit of order n - i."""
    n = cls.level
    if not i < n:
        raise ValueError("need i < level")
    a = cls.lift_vector("lex")
    b = cls.lift_vector("revlex")
    # a quotient's prec is at most work_prec, so r ** 1 is r
    ra = z1.ratio_power(z2, a, 1)
    rb = z1.ratio_power(z2, b, 1)
    inputs = {"class": list(cls.rep), "i": i, "n": n}
    return _margin_record("lift-congruence", inputs, n - i, ra / rb)


def restriction_certificate(fam, z1, z2, i, n, nprime):
    """Domain-restriction compatibility between the level-i and level-(i+1)
    covers.

    At a fixed truncation level the two domain indices select where one may
    evaluate, not what is evaluated: the literal restriction, the level-n'
    layer pushed forward to level n, must integrate to the level-n product,
    checked exactly without evaluation.  The measurable content is that the
    refinement congruence, taken at points certified for the smaller cover,
    clears the stronger n - i threshold (the weaker n - i - 1 one of the
    larger cover follows and is reported)."""
    if not (i < n < nprime):
        raise ValueError("need i < n < n'")
    require_certified_points((z1, z2), i + 1)
    lower = alpha_level(fam.at(n))
    exact = lower == alpha_level(fam.at(nprime).pushforward(n))
    upper = alpha_level(fam.at(nprime))
    ratio = _two_point_ratio(upper, lower, z1, z2, i)
    record = _margin_record(
        "restriction",
        {"i": i, "n": n, "n_prime": nprime, "rep_system": "lex"},
        n - i,
        ratio,
    )
    record["exact_restriction"] = bool(exact)
    record["weak_threshold"] = n - (i + 1)
    record["pass"] = bool(record["pass"] and exact)
    return record


def equivariance_certificate(g, g_inverse, mu, z1, z2, i):
    """Moving the vector by g and the points by g^{-1} integrates to the
    same function up to a constant and a 1-unit of order n - i.

    g_inverse must be a scaled inverse of g in GL_{d+1}(Z_p), g g_inverse =
    D I with p not dividing D, as inv_scaled gives for any g in
    GL_{d+1}(Z_p); anything else is a ValueError.  Such an h = g_inverse
    certifies the moved points through z1 and z2: h preserves the minimum
    coordinate valuation, so normalizing h z scales it by a unit, and
    <a, h z> = <a h, z> with a -> a h a bijection of the primitive
    covectors, so the depth of h z is that of z and h z lies in every
    cover that z does.  The moved points therefore run no depth search."""
    n = mu.level
    if not i < n:
        raise ValueError("need i < level")
    moved = alpha_level(mu.transport(g))
    still = alpha_level(mu)
    q_moved = evaluate_ratio(moved, z1, z2, i)
    product = matmul(g, g_inverse)
    scale = product[0][0]
    scaled_identity = tuple(
        tuple(scale * x for x in row) for row in identity(z1.dim + 1)
    )
    if scale % z1.desc.p == 0 or product != scaled_identity:
        raise ValueError("g_inverse is not a scaled inverse of g in GL(Z_p)")
    q_still = evaluate_ratio(
        still, z1.apply_matrix(g_inverse), z2.apply_matrix(g_inverse)
    )
    inputs = {
        "g": [list(r) for r in g],
        "i": i,
        "n": n,
        "support": len(mu.support()),
    }
    return _margin_record("equivariance", inputs, n - i, q_moved / q_still)
