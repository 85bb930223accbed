"""Truncated extension-field arithmetic: frozen examples and invariants."""

import copy
import dataclasses
import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from drinfeld import intlinalg, padic
from drinfeld.padic import (
    FieldDesc,
    FieldElem,
    PrecisionError,
    _extract_unit,
    _poly_mul,
    _unit_inverse,
    linear_form,
    linear_forms,
    normalize_unimodular,
    unramified_min_poly,
)
from helpers import (
    DataclassFieldElem,
    _newton_lift,
    check_trusted,
    reference_add,
    reference_extract_unit,
    reference_linear_form,
    reference_mul,
    reference_neg,
    reference_poly_valuation,
    reference_pow,
    reference_scale_int,
    reference_shift_poly,
    reference_sub,
    reference_truediv,
    reference_unit_inverse,
)


def random_elem(desc, rng, allow_zero=True):
    n = desc.e * desc.f
    coeffs = [rng.randrange(desc.coeff_modulus) for _ in range(n)]
    if not allow_zero and not any(coeffs):
        coeffs[0] = 1
    return FieldElem.from_coeffs(desc, coeffs, shift=rng.randint(-2, 2))


# worked values computed by hand, frozen
def test_base_field_product():
    d = FieldDesc(p=3, e=1, f=1, N=4)
    x = FieldElem.from_int(d, 5)
    assert (x * x).coeffs == (25,)
    assert d.coeff_modulus == 81


def test_eisenstein_square_is_p():
    d = FieldDesc(p=2, e=2, f=1, N=6)
    pi = FieldElem.pi(d)
    sq = pi * pi
    assert sq.valuation() == 1
    assert sq.agrees_with(FieldElem.from_int(d, 2))
    assert d.work_prec == 6


def test_inverse_of_two_mod_27():
    d = FieldDesc(p=3, e=1, f=1, N=3)
    half = FieldElem.one(d) / FieldElem.from_int(d, 2)
    assert half.coeffs == (14,)
    assert half.shift == 0


def test_valuations():
    d1 = FieldDesc(p=3, e=1, f=1, N=4)
    assert FieldElem.from_int(d1, 3).valuation() == 1
    assert FieldElem.from_int(d1, 18).valuation() == 2
    d2 = FieldDesc(p=2, e=2, f=1, N=6)
    assert FieldElem.pi(d2).valuation() == Fraction(1, 2)
    assert FieldElem.from_int(d2, 2).valuation() == 1
    assert (FieldElem.one(d2) / FieldElem.pi(d2)).valuation() == Fraction(-1, 2)
    zero = FieldElem.zero(d1)
    for method in (zero.valuation, zero.pi_valuation):
        with pytest.raises(ValueError, match="valuation of zero is undefined"):
            method()


def test_zero_at_precision_raises():
    d = FieldDesc(p=3, e=1, f=1, N=3)
    x = FieldElem.from_int(d, 27)
    with pytest.raises(PrecisionError):
        x.valuation()
    assert x.valuation_at_least(3)
    assert not x.valuation_at_least(4)


def test_unramified_polys():
    assert unramified_min_poly(2, 2) == (1, 1)
    assert unramified_min_poly(3, 2) == (1, 0)
    assert unramified_min_poly(2, 3) == (1, 0, 1)
    for p in (2, 3, 5):
        for f in (2, 3):
            coeffs = unramified_min_poly(p, f)
            for x in range(p):
                acc = x**f + sum(c * x**i for i, c in enumerate(coeffs))
                assert acc % p != 0


def test_omega_is_multiplicative_generator_relation():
    d = FieldDesc(p=2, e=1, f=2, N=8)
    w = FieldElem.omega(d)
    # w^2 + w + 1 = 0 exactly in this ring
    assert (w * w + w + FieldElem.one(d)).agrees_with(FieldElem.zero(d))
    assert (w * w * w).agrees_with(FieldElem.one(d))


def test_residue_field_order():
    d = FieldDesc(p=3, e=1, f=2, N=4)
    w = FieldElem.omega(d)
    # omega has multiplicative order dividing p^f - 1 = 8 and not p - 1 = 2
    acc = FieldElem.one(d)
    orders = []
    for k in range(1, 9):
        acc = acc * w
        if acc.agrees_with(FieldElem.one(d)):
            orders.append(k)
    assert orders and orders[0] > 2 and 8 % orders[0] == 0


def test_division_by_pi_precision_drop():
    d = FieldDesc(p=2, e=2, f=1, N=6)
    pi = FieldElem.pi(d)
    x = FieldElem.from_coeffs(d, [2, 1])  # 2 + pi, valuation 1/2
    y = x / pi
    assert y.valuation() == 0
    assert (y * pi).agrees_with(x)


def test_mixed_extension_roundtrip():
    d = FieldDesc(p=2, e=2, f=2, N=8)
    pi, w = FieldElem.pi(d), FieldElem.omega(d)
    x = FieldElem.one(d) + pi * w
    y = w + pi
    assert ((x / y) * y).agrees_with(x)
    assert (x * y / y).agrees_with(x)


def test_caps_and_validation():
    # a refused shape raises on every call and is never stored
    before = dict(padic._FIELDS)
    for field, match in [
        (dict(p=4), "p = 4 is not prime"),
        (dict(p=2, e=5), r"ramification e = 5 outside \[1, 4\]"),
        (dict(p=2, f=4), r"residue degree f = 4 outside \[1, 3\]"),
        (dict(p=2, e=2, N=3), "precision N must be at least 2e"),
    ] * 2:
        with pytest.raises(ValueError, match=match):
            FieldDesc(**field)
    assert padic._FIELDS == before


@pytest.mark.parametrize("field, name", [
    (dict(p=2, e=2, f=1, N=40.0), "precision"),
    (dict(p=2.0, e=2, f=1, N=40), "prime"),
    (dict(p=2, e=True, f=1, N=24), "ramification"),
    (dict(p=2, e=2, f=Fraction(1), N=24), "residue degree"),
    (dict(p=True, e=1, f=1, N=24), "prime"),
], ids=["float-N", "float-p", "bool-e", "Fraction-f", "bool-p"])
def test_field_refuses_fields_that_are_not_ints(field, name):
    # N = 40.0 used to build a field whose one had the float digit 1.0, and
    # e = True used to equal and hash as e = 1; the field of the same shape
    # in ints is built first (there is none at p = 1), since 2.0 and True
    # hash as 2 and 1
    ints = {key: int(value) for key, value in field.items()}
    if ints["p"] != 1:
        FieldDesc(**ints)
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        FieldDesc(**field)


def test_one_field_object_per_shape():
    d = FieldDesc(3, 2, 1, 8)
    assert FieldDesc(p=3, e=2, f=1, N=8) is d
    assert FieldDesc(3, e=2, N=8) is d
    assert FieldDesc(5) is FieldDesc(5, 1, 1, 24) is FieldDesc(p=5, N=24)
    copies = [copy.copy(d), copy.deepcopy(d), dataclasses.replace(d)]
    copies += [pickle.loads(pickle.dumps(d, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(twin is d for twin in copies)
    assert dataclasses.replace(d, N=10) is FieldDesc(3, 2, 1, 10)
    # the dataclass's value equality and hash, the same in every process
    assert d == FieldDesc(3, 2, 1, 8) and hash(d) == hash((3, 2, 1, 8))
    assert repr(d) == "FieldDesc(p=3, e=2, f=1, N=8)"


def test_a_copied_element_computes_with_the_original():
    # before interning, a deep copy carried an equal but distinct field
    d = FieldDesc(p=3, e=2, f=1, N=8)
    x = FieldElem.from_coeffs(d, [1, 2], shift=1)
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y.desc is d and y == x
        assert x + y == x + x and x * y == x * x and x / y == x / x
        assert linear_form([2, 1], (x, y)) == linear_form([3], (x,))


def test_serialization():
    d = FieldDesc(p=3, e=2, f=1, N=6)
    assert d.to_json() == {"p": 3, "e": 2, "f": 1, "N": 6}
    x = FieldElem.from_coeffs(d, [4, 5], shift=-1)
    j = x.to_json()
    assert j["coeffs"] == ["4", "5"]
    assert j["shift"] == -1
    assert isinstance(j["prec"], int)


DESCS = [
    FieldDesc(p=2, e=1, f=1, N=8),
    FieldDesc(p=3, e=2, f=1, N=8),
    FieldDesc(p=2, e=2, f=2, N=8),
    FieldDesc(p=5, e=1, f=2, N=6),
]


@given(st.sampled_from(DESCS), st.integers(min_value=0, max_value=10**6))
def test_valuation_additive_on_random_pairs(desc, seed):
    rng = random.Random(seed)
    x = random_elem(desc, rng, allow_zero=False)
    y = random_elem(desc, rng, allow_zero=False)
    try:
        vx, vy = x.valuation(), y.valuation()
        vxy = (x * y).valuation()
    except PrecisionError:
        return
    assert vxy == vx + vy


@given(st.sampled_from(DESCS), st.integers(min_value=0, max_value=10**6))
def test_ultrametric_inequality(desc, seed):
    rng = random.Random(seed)
    x = random_elem(desc, rng)
    y = random_elem(desc, rng)
    if x.exact_zero or y.exact_zero:
        # the exact zero has no valuation; it is the additive identity instead
        assert (x + y).agrees_with(y if x.exact_zero else x)
        return
    try:
        vs = (x + y).valuation()
        vx, vy = x.valuation(), y.valuation()
    except PrecisionError:
        return
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@given(st.sampled_from(DESCS), st.integers(min_value=0, max_value=10**6))
def test_field_axioms_spotcheck(desc, seed):
    rng = random.Random(seed)
    x = random_elem(desc, rng)
    y = random_elem(desc, rng)
    z = random_elem(desc, rng)
    assert ((x + y) * z).agrees_with(x * z + y * z)
    assert (x * y).agrees_with(y * x)
    assert (x - x).valuation_at_least(Fraction(x.prec + x.shift, desc.e))


def test_normalize_unimodular():
    d = FieldDesc(p=2, e=2, f=1, N=8)
    pi = FieldElem.pi(d)
    vec = (pi, pi * pi, FieldElem.from_int(d, 6))
    out = normalize_unimodular(vec)
    assert out[0].agrees_with(FieldElem.one(d))
    assert out[0].coeffs == FieldElem.one(d).coeffs
    assert min(v.valuation() for v in out) == 0
    with pytest.raises(ValueError):
        normalize_unimodular((FieldElem.zero(d),))


def test_linear_form():
    d = FieldDesc(p=3, e=1, f=1, N=4)
    z = (FieldElem.one(d), FieldElem.from_int(d, 4))
    assert linear_form([2, 1], z).agrees_with(FieldElem.from_int(d, 6))
    assert linear_form([0, 0], z).exact_zero


def test_from_coeffs_vanishing_digits_are_not_exact():
    # 308448 = 81 * 3808 vanishes modulo 3^4 but has valuation 3
    d = FieldDesc(p=3, e=1, f=1, N=4)
    a = FieldElem.from_coeffs(d, [308448], shift=-1)
    b = FieldElem.from_coeffs(d, [1], shift=2)
    assert not a.exact_zero
    with pytest.raises(PrecisionError):
        a.valuation()
    # a - b = 102816 - 9: every digit the difference trusts must be right
    assert (a - b).agrees_with(FieldElem.from_int(d, 102807))
    assert FieldElem.from_coeffs(d, [81]) == FieldElem.from_int(d, 81)
    assert FieldElem.from_coeffs(d, [0], shift=-1).exact_zero


@pytest.mark.parametrize("digits", [[0, 1.5], [0, True], [0.0, 1], [0, "1"]])
def test_from_coeffs_refuses_digits_that_are_not_ints(digits):
    # a float or bool digit used to be read through int(): [0, 1.5] and
    # [0, True] both gave the digits (0, 1)
    d = FieldDesc(p=2, e=2, f=1, N=40)
    with pytest.raises(TypeError, match="digit must be an int"):
        FieldElem.from_coeffs(d, digits)


@pytest.mark.parametrize("digits", [[0, 1, 0, 5], [0, 1], []])
def test_from_coeffs_needs_exactly_e_f_digits(digits):
    d = FieldDesc(p=2, e=3, f=1, N=60)
    with pytest.raises(ValueError, match="exactly 3 digits"):
        FieldElem.from_coeffs(d, digits)
    with pytest.raises(ValueError, match="exactly 3 digits"):
        FieldElem.from_coeffs(d, digits, shift=2)


@st.composite
def field_descs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.integers(min_value=1, max_value=3))
    f = draw(st.integers(min_value=1, max_value=3))
    N = 2 * e + draw(st.integers(min_value=0, max_value=30))
    return FieldDesc(p=p, e=e, f=f, N=N)


@given(field_descs(), st.integers(min_value=1, max_value=10**40))
def test_integer_unit_inverse_matches_newton(desc, n):
    if n % desc.p == 0:
        n += 1
    unit = (n % desc.coeff_modulus,) + (0,) * (desc.e * desc.f - 1)
    assert _unit_inverse(desc, unit) == _newton_lift(desc, unit)


@st.composite
def units(draw):
    """A field shape and a unit coefficient vector: a nonzero residue in
    row 0 and arbitrary digits elsewhere, so higher pi and omega digits
    occur."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(min_value=1, max_value=4))
    f = draw(st.integers(min_value=1, max_value=3))
    N = 2 * e + draw(st.integers(min_value=0, max_value=60))
    desc = FieldDesc(p=p, e=e, f=f, N=N)
    mod = desc.coeff_modulus
    coeffs = draw(st.lists(st.integers(0, mod - 1), min_size=e * f, max_size=e * f))
    residue = draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f).filter(any))
    for j, r in enumerate(residue):
        coeffs[j] += r - coeffs[j] % p
    return desc, tuple(coeffs)


@given(units())
def test_unit_inverse_matches_newton(case):
    desc, unit = case
    inv = _unit_inverse(desc, unit)
    assert inv == _newton_lift(desc, unit)
    assert _poly_mul(desc, unit, inv) == (1,) + (0,) * (desc.e * desc.f - 1)
    # a non-unit: the same digits with the residue row divisible by p
    f, mod = desc.f, desc.coeff_modulus
    non_unit = tuple((desc.p * c) % mod if t < f else c for t, c in enumerate(unit))
    with pytest.raises(PrecisionError):
        _unit_inverse(desc, non_unit)


# -- unit extraction and inverse against the verbatim reference -------------


@st.composite
def division_cases(draw):
    """Digit vectors at five field shapes: two with the same f, one over
    p in {2,3,5,7} and e <= 4 and one at p = 2 with even e, so that the
    e = 2 and e = 4 closed forms at p = 2 are drawn in every example; and
    three that reach a unit inverse over the unramified ring with f >= 2
    in every example: odd e at f >= 2, e = 1 at f = 3, and e = 2 at
    f >= 2.  Each case holds a unit (a nonzero residue in row 0, the other
    digits arbitrary or sparse) and a vector divisible by pi^w for a drawn
    w.  Hypothesis draws the shapes, precisions and w; the digits come
    from a seeded Random, which is much cheaper than drawing each digit."""
    f = draw(st.integers(min_value=1, max_value=3))
    wide = st.integers(2, 3)
    primes = st.sampled_from([2, 3, 5, 7])
    # (p, e, f, most digits above 2e)
    shapes = (
        (draw(primes), draw(st.integers(1, 4)), f, 60),
        (2, draw(st.sampled_from([2, 4])), f, 60),
        (draw(primes), 3, draw(wide), 24),
        (draw(primes), 1, 3, 24),
        (draw(primes), 2, draw(wide), 24),
    )
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    cases = []
    for p, e, f, extra in shapes:
        desc = FieldDesc(p=p, e=e, f=f, N=2 * e + draw(st.integers(0, extra)))
        size, mod = e * f, desc.coeff_modulus
        unit = [rng.randrange(mod) for _ in range(size)]
        if draw(st.booleans()):
            unit = [c if t < f or rng.random() < 0.5 else 0 for t, c in enumerate(unit)]
        residue = [0] * f
        while not any(residue):
            residue = [rng.randrange(p) for _ in range(f)]
        for j, r in enumerate(residue):
            unit[j] += r - unit[j] % p
        w = draw(st.integers(0, desc.work_prec))
        multiple = reference_shift_poly(desc, [rng.randrange(mod) for _ in range(size)], w)
        prec = draw(st.integers(1, desc.work_prec))
        cases.append((desc, tuple(unit), multiple, prec))
    return cases


def _boundary_cases(top):
    """division_cases at five fixed shapes whose digits all take one
    boundary value: mod - 1 when top is true, else 0 (the unit keeping a
    1 in its constant digit)."""
    cases = []
    for p, e, f, N in ((7, 4, 3, 60), (2, 4, 3, 8), (5, 3, 2, 24), (3, 1, 3, 2), (2, 2, 3, 4)):
        desc = FieldDesc(p=p, e=e, f=f, N=N)
        size, digit = e * f, desc.coeff_modulus - 1 if top else 0
        unit = (digit or 1,) + (digit,) * (size - 1)
        multiple = reference_shift_poly(desc, [digit] * size, e + 1)
        cases.append((desc, unit, multiple, desc.work_prec))
    return cases


def _least_precision_cases():
    """Deterministic units at N = 2e, the least precision, at every p in
    {2, 3, 5, 7}, e <= 4 and f <= 3: every digit mod - 1, and mod - 1 on
    alternate digits with 0 between.  So p = 2 at f = 2 and 3 meets its
    minimal polynomials x^2 + x + 1 and x^3 + x + 1, whose low
    coefficients are nonzero, and p in {3, 5, 7} meet theirs."""
    cases = []
    for p, e, f in itertools.product((2, 3, 5, 7), range(1, 5), range(1, 4)):
        desc = FieldDesc(p=p, e=e, f=f, N=2 * e)
        top = desc.coeff_modulus - 1
        for unit in ((top,) * (e * f), tuple(top if t % 2 == 0 else 0 for t in range(e * f))):
            cases.append((desc, unit, unit, desc.work_prec))
    return cases


def _result(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@example(_boundary_cases(False))
@example(_boundary_cases(True))
@example(_least_precision_cases())
@given(division_cases())
def test_unit_inverse_matches_reference(cases):
    for desc, unit, _, _ in cases:
        assert _unit_inverse(desc, unit) == reference_unit_inverse(desc, unit)
        f, mod = desc.f, desc.coeff_modulus
        non_unit = tuple((desc.p * c) % mod if t < f else c for t, c in enumerate(unit))
        for inverse in (_unit_inverse, reference_unit_inverse):
            assert _result(inverse, desc, non_unit) == "inverse of a non-unit"


@settings(max_examples=150, deadline=None)
@example(_boundary_cases(False))
@example(_boundary_cases(True))
@given(division_cases())
def test_extract_unit_matches_reference(cases):
    for desc, _, multiple, prec in cases:
        for v in range(prec + 1):
            expected = _result(reference_extract_unit, desc, multiple, prec, v)
            assert _result(_extract_unit, desc, multiple, prec, v) == expected


def test_division_takes_no_elimination(monkeypatch):
    """Every unit inverse is a closed form: with the linear solves of
    intlinalg made to raise, generic units (not rational integers) at
    every p in {2, 3}, e <= 4, f <= 3 and N in {2e, 60} still invert,
    through _unit_inverse and through FieldElem division."""

    def refuse(*args, **kwargs):
        raise AssertionError("a unit inverse called a linear solve")

    monkeypatch.setattr(intlinalg, "rref_modp", refuse)
    rng = random.Random(0)
    for p, e, f in itertools.product((2, 3), range(1, 5), range(1, 4)):
        for N in (2 * e, 60):
            desc = FieldDesc(p=p, e=e, f=f, N=N)
            mod, size = desc.coeff_modulus, e * f
            one = (1,) + (0,) * (size - 1)
            for _ in range(10):
                unit = [rng.randrange(mod) for _ in range(size)]
                if not any(c % p for c in unit[:f]):
                    unit[rng.randrange(f)] += 1
                if size > 1 and not any(unit[1:]):
                    unit[-1] = 1
                unit = tuple(unit)
                inv = _unit_inverse(desc, unit)
                assert _poly_mul(desc, unit, inv) == one
                quotient = FieldElem.one(desc) / FieldElem.from_coeffs(desc, unit)
                assert quotient.coeffs == inv


def _normalize_by_division(vec):
    """Reference: divide every other coordinate by the pivot."""
    vals = {i: x.valuation() for i, x in enumerate(vec) if not x.exact_zero}
    if not vals:
        raise ValueError("zero vector")
    idx = min(vals, key=vals.get)
    one = FieldElem.one(vec[idx].desc)
    return tuple(one if i == idx else x / vec[idx] for i, x in enumerate(vec))


@given(
    field_descs(),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=4),
)
def test_normalize_unimodular_matches_division(desc, seed, size):
    rng = random.Random(seed)
    vec = []
    for _ in range(size):
        x = random_elem(desc, rng)
        if rng.random() < 0.2:
            x = FieldElem.zero(desc)
        elif not x.exact_zero:
            # vary the trusted precision, sometimes below every digit
            x = FieldElem(desc, x.shift, x.coeffs, rng.randint(1, desc.work_prec))
        vec.append(x)
    try:
        expected = _normalize_by_division(vec)
    except (PrecisionError, ValueError) as exc:
        with pytest.raises(type(exc)):
            normalize_unimodular(vec)
        return
    got = normalize_unimodular(vec)
    # dataclass equality: desc, shift, coeffs, prec and exact_zero
    assert got == expected


# -- the lean core against the verbatim reference arithmetic ----------------


@st.composite
def core_descs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(min_value=1, max_value=4))
    f = draw(st.integers(min_value=1, max_value=3))
    return FieldDesc(p=p, e=e, f=f, N=2 * e + draw(st.integers(0, 40)))


@st.composite
def core_elements(draw, desc, prec_over=0):
    """An element that may have any shift and precision, sparse digits, or
    be an exact or inexact zero.  With prec_over > 0 the precision may
    exceed work_prec, as only a hand-built element's can."""
    size, mod = desc.e * desc.f, desc.coeff_modulus
    kind = draw(st.sampled_from(("digits", "sparse", "exact zero", "inexact zero")))
    shift = draw(st.integers(-6, 6))
    if kind == "exact zero":
        return FieldElem(desc, shift, (0,) * size, desc.work_prec, True)
    prec = draw(st.integers(1, desc.work_prec + prec_over))
    coeffs = [0] * size
    if kind != "inexact zero":
        coeffs = draw(st.lists(st.integers(0, mod - 1), min_size=size, max_size=size))
    if kind == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        coeffs = [c if k else 0 for c, k in zip(coeffs, keep)]
    return FieldElem(desc, shift, tuple(coeffs), prec)


@st.composite
def valuation_cases(draw):
    """An element of a field with p in {2, 3, 5}, e <= 4 and f <= 3, and a
    rational bound q."""
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.integers(min_value=1, max_value=4))
    f = draw(st.integers(min_value=1, max_value=3))
    desc = FieldDesc(p=p, e=e, f=f, N=2 * e + draw(st.integers(0, 30)))
    q = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 4)))
    return draw(core_elements(desc)), q


@settings(max_examples=300, deadline=None)
@given(valuation_cases())
def test_pi_valuation_is_the_valuation_in_pi_units(case):
    x, q = case
    e = x.desc.e
    outcomes = []
    for method in (x.valuation, x.pi_valuation):
        try:
            outcomes.append(method())
        except PrecisionError:
            outcomes.append(PrecisionError)
        except ValueError as exc:
            outcomes.append(str(exc))
    v, t = outcomes
    if x.exact_zero:
        assert v == t == "valuation of zero is undefined"
    elif v is PrecisionError:
        assert t is PrecisionError
    else:
        assert type(t) is int and v == Fraction(t, e)
        assert x.valuation_at_least(v)
        assert not x.valuation_at_least(v + Fraction(1, e))
    # agrees_with(0) is the rule it had with a precision cap
    pv = x._poly_valuation()
    assert x.agrees_with(FieldElem.zero(x.desc)) == (
        x.exact_zero or pv is None or x.shift + pv >= x.shift + x.prec
    )
    # valuation_at_least compares in pi-units as it did in Fractions
    if not x.exact_zero:
        pv = reference_poly_valuation(x)
        bound = x.shift + (x.prec if pv is None else pv)
        for bound_q in (q, q.numerator):
            want = Fraction(bound, e) >= Fraction(bound_q)
            assert x.valuation_at_least(bound_q) == want


@st.composite
def core_operands(draw):
    """A field shape, two elements and an integer scalar."""
    desc = draw(core_descs())
    element = core_elements(desc)
    return desc, draw(element), draw(element), draw(st.integers(-(10**30), 10**30))


def _outcome(op, *args):
    try:
        x = op(*args)
    except (PrecisionError, ZeroDivisionError) as exc:
        return type(exc)
    return (x.shift, x.coeffs, x.prec, x.exact_zero)


@settings(max_examples=150, deadline=None)
@given(core_operands())
def test_core_matches_reference_arithmetic(case):
    desc, x, y, n = case
    pairs = (
        (operator.add, reference_add),
        (operator.sub, reference_sub),
        (operator.mul, reference_mul),
        (operator.truediv, reference_truediv),
    )
    # an equal description is the same object
    twin = FieldDesc(desc.p, desc.e, desc.f, desc.N)
    assert twin is desc
    y_twin = FieldElem(twin, y.shift, y.coeffs, y.prec, y.exact_zero)
    for op, ref in pairs:
        assert _outcome(op, x, y) == _outcome(ref, x, y)
        assert _outcome(op, x, y_twin) == _outcome(ref, x, y)
    for z in (x, y):
        assert z._poly_valuation() == reference_poly_valuation(z)
    assert _outcome(operator.neg, x) == _outcome(reference_neg, x)
    assert _outcome(operator.mul, x, n) == _outcome(reference_scale_int, x, n)
    assert _outcome(operator.mul, n, x) == _outcome(reference_scale_int, x, n)
    other = FieldElem(
        FieldDesc(desc.p, desc.e, desc.f, desc.N + 1), y.shift, y.coeffs, y.prec
    )
    for op, _ in pairs:
        with pytest.raises(ValueError, match="mixed field descriptions"):
            op(x, other)


@given(core_operands())
def test_field_elem_is_a_value_like_the_dataclass(case):
    _, x, y, _ = case
    dx, dy = (
        DataclassFieldElem(z.desc, z.shift, z.coeffs, z.prec, z.exact_zero)
        for z in (x, y)
    )
    assert repr(x) == repr(dx).replace("DataclassFieldElem", "FieldElem", 1)
    assert hash(x) == hash(dx)
    assert (x == y) == (dx == dy)
    assert x == FieldElem(x.desc, x.shift, x.coeffs, x.prec, x.exact_zero)
    assert x != dx


# -- the fused integer linear form against the chain of adds ----------------


def form_scalars(desc):
    """Integer scalars of a linear form: zero, negative, p-power and wide."""
    p_power = st.builds(
        lambda k, sign: sign * desc.p**k,
        st.integers(0, 3 * desc.coeff_exponent),
        st.sampled_from((1, -1)),
    )
    return st.one_of(
        st.just(0), st.integers(-3, 3), p_power, st.integers(-(10**30), 10**30)
    )


@st.composite
def linear_form_cases(draw):
    """A field shape, a vector of elements and integer scalars for it.
    Some precisions exceed work_prec, so the cap of the sum's precision
    shows."""
    desc = draw(core_descs())
    size = draw(st.integers(1, 5))
    z = draw(st.lists(core_elements(desc, 6), min_size=size, max_size=size))
    a = draw(st.lists(form_scalars(desc), min_size=size, max_size=size))
    return desc, a, z


def _form_outcome(form, a, z):
    try:
        x = form(a, z)
    except (PrecisionError, ZeroDivisionError) as exc:
        return type(exc)
    return (x.shift, x.coeffs, x.prec, x.exact_zero)


@settings(max_examples=400, deadline=None)
@given(linear_form_cases())
def test_linear_form_matches_the_chain_of_adds(case):
    desc, a, z = case
    assert _form_outcome(linear_form, a, z) == _form_outcome(
        reference_linear_form, a, z
    )
    # one nonzero scalar: the fused form is a plain integer scaling, and
    # the scaling by 1 is the term itself
    for i, x in enumerate(z):
        for scalar in (a[i] or 1, 1):
            single = [0] * len(z)
            single[i] = scalar
            assert _form_outcome(linear_form, single, z) == _form_outcome(
                reference_linear_form, single, z
            )
        # single is now the standard basis vector at i
        assert x.exact_zero or linear_form(single, z) is x


def test_linear_form_rejects_a_fraction_scalar():
    d = FieldDesc(p=3, e=2, f=1, N=8)
    z = (FieldElem.pi(d), FieldElem.one(d))
    with pytest.raises(TypeError, match="int scalars"):
        linear_form([1, Fraction(1, 2)], z)


def test_linear_form_rejects_mixed_field_descriptions():
    d = FieldDesc(p=3, e=2, f=1, N=8)
    other = FieldDesc(p=3, e=2, f=1, N=10)
    z = (FieldElem.pi(d), FieldElem.one(other))
    for form in (linear_form, reference_linear_form):
        with pytest.raises(ValueError, match="mixed field descriptions"):
            form([1, 1], z)
        assert form([1, 0], z) == FieldElem.pi(d)
    # an equal description is the same object
    twin = FieldDesc(p=3, e=2, f=1, N=8)
    assert twin is d
    z = (FieldElem.pi(d), FieldElem.one(twin))
    assert linear_form([2, 1], z) == reference_linear_form([2, 1], z)


@st.composite
def linear_forms_cases(draw):
    """Rows of scalars over one vector z whose entries come from a small
    pool, so one FieldElem object may stand at several places; exact zeros
    and shifts far apart come from core_elements.  Sometimes one entry
    lives in a field of another precision."""
    desc = draw(core_descs())
    pool = draw(st.lists(core_elements(desc, 6), min_size=1, max_size=4))
    size = draw(st.integers(1, 6))
    z = [pool[i] for i in draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size)
    )]
    if draw(st.booleans()) and draw(st.booleans()):
        other = FieldDesc(desc.p, desc.e, desc.f, desc.N + desc.e)
        z[draw(st.integers(0, size - 1))] = draw(core_elements(other))
    rows = draw(st.lists(
        st.lists(form_scalars(desc), min_size=size, max_size=size),
        min_size=1, max_size=8,
    ))
    return rows, z


def _forms_outcome(forms, rows, z):
    try:
        xs = forms(rows, z)
    except ValueError as exc:
        return str(exc)
    return [(x.shift, x.coeffs, x.prec, x.exact_zero) for x in xs]


@settings(max_examples=150, deadline=None)
@given(linear_forms_cases())
def test_linear_forms_match_the_chain_of_adds(case):
    rows, z = case
    # a field of another precision is refused only where its scalar is
    # nonzero, as test_linear_form_rejects_mixed_field_descriptions shows
    # for one form
    assert _forms_outcome(linear_forms, rows, z) == _forms_outcome(
        lambda rows, z: [reference_linear_form(a, z) for a in rows], rows, z
    )


def test_linear_forms_shift_each_entry_once_and_count_every_form(monkeypatch):
    from drinfeld import padic

    desc = FieldDesc(p=3, e=3, f=2, N=30)
    pi = FieldElem.pi(desc)
    x = FieldElem.from_coeffs(desc, [1, 2, 0, 1, 2, 2], shift=2)
    z = [FieldElem.one(desc), pi, x, x]
    rows = [(1, 1, 1, 0), (2, 0, 1, 1), (1, 5, 0, 1), (0, 1, 1, 1)]
    expected = [linear_form(a, z) for a in rows]
    shifts, forms = [], []
    shift_poly, form = padic._shift_poly, padic.linear_form

    def counted_shift(desc, coeffs, k):
        shifts.append((coeffs, k))
        return shift_poly(desc, coeffs, k)

    def counted_form(a, z, *memo):
        forms.append(a)
        return form(a, z, *memo)

    monkeypatch.setattr(padic, "_shift_poly", counted_shift)
    monkeypatch.setattr(padic, "linear_form", counted_form)
    assert padic.linear_forms(rows, z) == expected
    # over the least shift 0, pi moves by 1 and x (at two places) by 2
    # once for the first three rows; the last row's least shift is pi's,
    # so x moves by 1 there
    assert sorted(k for _, k in shifts) == [1, 1, 2]
    assert forms == rows


@settings(max_examples=200, deadline=None)
@given(core_descs().flatmap(lambda d: core_elements(d, 6)), st.integers(0, 12))
def test_times_pi_power_is_the_product_with_pi_power(x, k):
    product = x * FieldElem.pi_power(x.desc, k)
    got = x.times_pi_power(k)
    assert (got.shift, got.coeffs, got.prec, got.exact_zero) == (
        product.shift, product.coeffs, product.prec, product.exact_zero
    )
    assert got == product


# -- powers by binary powering against the per-copy reference ---------------


@settings(max_examples=300, deadline=None)
@given(valuation_cases(), st.integers(-8, 8))
def test_pow_matches_the_per_copy_reference(case, k):
    # any prec up to work_prec, exact and inexact zeros: the same shift,
    # digits, prec and exact_zero, or the same exception type
    x, _ = case
    assert _outcome(operator.pow, x, k) == _outcome(reference_pow, x, k)


def test_pow_of_a_hand_built_element_keeps_the_product_bytes():
    # a prec above work_prec and an exact zero at a shift: x ** k starts
    # from x, which takes what the product by 1 gives it
    desc = FieldDesc(p=3, e=2, f=1, N=12)
    wide = FieldElem(desc, 1, (4, 7), desc.work_prec + 5)
    zero = FieldElem(desc, 3, (0, 0), desc.work_prec, True)
    for x in (wide, zero):
        for k in (1, 2, 3, 5):
            assert _outcome(operator.pow, x, k) == _outcome(reference_pow, x, k)


@pytest.mark.parametrize("k", [True, False, 2.0, Fraction(2)],
                         ids=["true", "false", "float", "fraction"])
def test_pow_refuses_an_exponent_that_is_not_an_int(k):
    # x ** True returned x and x ** False returned 1: a bool is not an int
    x = FieldElem.pi(FieldDesc(p=2, e=2, f=1, N=20))
    with pytest.raises(TypeError, match="an exponent must be an int"):
        x ** k


# -- differential precision: digits trusted at N survive at 3N --------------


def _pair(desc_lo, desc_hi, raw, shift, prec, junk):
    """One exact element (integer digits raw times pi^shift) at both
    precisions.  The low one trusts only `prec` pi-digits, and the digits
    it does not trust are wrong (junk added from pi^(shift + prec) on), so
    a claim of one digit too many can show."""
    hi = FieldElem.from_coeffs(desc_hi, raw, shift)
    lo = FieldElem.from_coeffs(desc_lo, raw, shift)
    if not lo.exact_zero:
        lo = lo + FieldElem.from_coeffs(desc_lo, junk, shift + prec)
        lo = FieldElem(desc_lo, shift, lo.coeffs, prec)
    return lo, hi


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=10**9),
)
def test_trusted_digits_survive_at_triple_precision(p, e, f, extra, seed):
    rng = random.Random(seed)
    lo_desc = FieldDesc(p=p, e=e, f=f, N=2 * e + extra)
    hi_desc = FieldDesc(p=p, e=e, f=f, N=3 * lo_desc.N)
    size, big = e * f, p ** (3 * hi_desc.coeff_exponent)
    pool, raws = [], []
    for _ in range(4):
        kind = rng.random()
        raw = [rng.randrange(big) for _ in range(size)]
        if kind < 0.1:
            raw = [0] * size  # exact zero
        elif kind < 0.25:
            # an inexact zero at N that is not zero at 3N
            raw = [c * lo_desc.coeff_modulus for c in raw]
        elif kind < 0.5 and raws:
            # close to an earlier input, so a difference cancels digits
            near = rng.choice(raws)
            cut = p ** rng.randrange(lo_desc.coeff_exponent + 1)
            raw = [a + cut * b for a, b in zip(near, raw)]
        shift = rng.randint(-3, 3)
        prec = rng.randint(1, lo_desc.work_prec)
        junk = [rng.randrange(big) for _ in range(size)]
        raws.append(raw)
        pool.append(_pair(lo_desc, hi_desc, raw, shift, prec, junk))
    for _ in range(10):
        op = rng.choice((operator.add, operator.sub, operator.mul, operator.truediv))
        (a_lo, a_hi), (b_lo, b_hi) = rng.choice(pool), rng.choice(pool)
        try:
            c_lo = op(a_lo, b_lo)
        except PrecisionError:
            continue
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(a_hi, b_hi)
            continue
        pool.append((c_lo, op(a_hi, b_hi)))
    for lo, hi in pool:
        check_trusted(lo, hi)
    vec = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
    try:
        norm_lo = normalize_unimodular([lo for lo, _ in vec])
    except PrecisionError:
        return
    except ValueError:
        with pytest.raises(ValueError):
            normalize_unimodular([hi for _, hi in vec])
        return
    norm_hi = normalize_unimodular([hi for _, hi in vec])
    for lo, hi in zip(norm_lo, norm_hi):
        check_trusted(lo, hi)


@pytest.mark.parametrize("n", [1.5, True, 2.0, Fraction(1)],
                         ids=["fraction", "bool", "float", "Fraction"])
def test_from_int_refuses_values_that_are_not_ints(n):
    # 1.5 used to become an element with the float digit 1.5
    with pytest.raises(TypeError, match="must be an int"):
        FieldElem.from_int(FieldDesc(p=2, e=2, f=1, N=40), n)


@pytest.mark.parametrize("shift", [1.5, True, 1.0], ids=["fraction", "bool",
                                                        "float"])
def test_from_coeffs_refuses_a_shift_that_is_not_an_int(shift):
    d = FieldDesc(p=2, e=2, f=1, N=40)
    with pytest.raises(TypeError, match="shift must be an int"):
        FieldElem.from_coeffs(d, [0, 1], shift)


def test_a_bool_is_no_integer_scalar():
    # x * True used to scale by 1, although x + True refuses the bool
    x = FieldElem.from_coeffs(FieldDesc(p=2, e=2, f=1, N=20), [1, 1])
    for op in (lambda: x * True, lambda: True * x, lambda: x + True):
        with pytest.raises(TypeError, match="must be an int"):
            op()
    assert x * 1 == 1 * x == x


@pytest.mark.parametrize("e, f", [(1, 1), (2, 1), (1, 2), (2, 3)])
@pytest.mark.parametrize("shift", [-2, 0, 3])
def test_all_zero_digits_are_the_exact_zero_at_any_shift(e, f, shift):
    d = FieldDesc(p=3, e=e, f=f, N=6 * e)
    zero = FieldElem.zero(d)
    assert FieldElem.from_coeffs(d, [0] * (e * f), shift) == zero
    assert zero.times_pi_power(shift) == zero


@pytest.mark.parametrize("p, e, f", [(2, 1, 2), (3, 2, 2), (2, 1, 3),
                                     (3, 3, 3)])
def test_omega_power_is_the_product_of_omegas(p, e, f):
    d = FieldDesc(p=p, e=e, f=f, N=8 * e)
    w = FieldElem.omega(d)
    acc = FieldElem.one(d)
    for j in range(2 * f + 3):
        assert FieldElem.omega_power(d, j) == acc, j
        acc = acc * w
    with pytest.raises(ValueError, match="at least 0"):
        FieldElem.omega_power(d, -1)


def test_omega_power_at_f_1_is_one():
    d = FieldDesc(p=3, e=2, f=1, N=12)
    for j in range(4):
        assert FieldElem.omega_power(d, j) == FieldElem.one(d)
