"""Exact linear algebra helpers: HNF/SNF canonicity, GF(p) routines."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from drinfeld.intlinalg import (
    complete_basis_modp,
    gaussian_binomial,
    hnf_adjugate_columns,
    hnf_rows,
    inv_scaled,
    matinv_mod,
    matmul,
    pval,
    rref_modp,
    snf_divisors,
    subspaces_modp,
    vecmat,
)

from drinfeld.building import Ball, Lattice
from drinfeld.certify import random_unimodular as group_element
from drinfeld.projpoints import point_count
from drinfeld.residues import pairing_matrix

from helpers import (
    rank_int,
    reference_complete_basis_modp,
    reference_det_int,
    reference_inv_scaled,
    reference_rref_modp,
    reference_snf_divisors,
    reference_solve_mod,
)


def T(m):
    return tuple(tuple(row) for row in m)


def random_unimodular(n, rng, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def test_pval():
    assert pval(12, 2) == 2
    assert pval(12, 3) == 1
    assert pval(5, 3) == 0
    assert pval(Fraction(1, 9), 3) == -2
    assert pval(Fraction(18, 5), 3) == 2
    assert pval(Fraction(10, 9), 3) == -2
    assert pval(-12, 2) == 2
    with pytest.raises(ValueError):
        pval(0, 2)


@pytest.mark.parametrize("p", [0, 1, True, -3], ids=["0", "1", "bool", "-3"])
def test_pval_refuses_a_p_below_two(p):
    # p = 1 and True looped for ever, p = 0 raised ZeroDivisionError and
    # p = -3 returned a count of divisions by -3
    for x in (12, Fraction(1, 9)):
        with pytest.raises(ValueError, match=f"valuation at p = {p!r} is undefined"):
            pval(x, p)


def test_det_and_inverse():
    m = [[2, 1, 0], [0, 3, 1], [1, 0, 1]]
    d = reference_det_int(m)
    n, dd = inv_scaled(m)
    assert dd == d == 7
    prod = matmul(m, n)
    assert prod == T([[d if i == j else 0 for j in range(3)] for i in range(3)])


def assert_inverse_matches_cofactor(m):
    """inv_scaled(m) is (sign(d) A, |d|) for the cofactor pair (A, d), so
    m N = D I; a singular m raises."""
    if reference_det_int(m) == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            inv_scaled(m)
        return
    adj, det = reference_inv_scaled(m)
    sign = 1 if det > 0 else -1
    n, dd = inv_scaled(m)
    assert (n, dd) == (T([[sign * a for a in row] for row in adj]), abs(det))
    size = len(m)
    assert matmul(m, n) == T(
        [[dd if i == j else 0 for j in range(size)] for i in range(size)]
    )


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_inverse_matches_the_cofactor_one(m):
    assert_inverse_matches_cofactor(m)


def test_inverse_of_singular_and_negative_determinant_matrices():
    for m in ([[0]], [[2, 4], [1, 2]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
              [[0, 1], [1, 0]], [[-3]], [[1, 2], [3, 4]]):
        assert_inverse_matches_cofactor(m)
    assert inv_scaled([[0, 1], [1, 0]]) == (((0, 1), (1, 0)), 1)
    assert inv_scaled([[-3]]) == (((-1,),), 3)


@pytest.mark.parametrize("p, d, radius", [(2, 2, 2), (3, 2, 1), (2, 1, 3), (2, 3, 1)])
def test_inverse_of_adapted_bases_matches_the_cofactor_one(p, d, radius):
    for edge in Ball(Lattice.standard(p, d), radius).pointed_edges():
        assert_inverse_matches_cofactor(edge.adapted_basis())


def test_inverse_of_group_elements_matches_the_cofactor_one():
    rng = random.Random(5)
    for size in (2, 3):
        for _ in range(100):
            assert_inverse_matches_cofactor(group_element(size, rng))


def test_inverse_refuses_non_square_matrices():
    for bad in ([[1, 2]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="matrix is not square"):
            inv_scaled(bad)


def test_hnf_adjugate_refuses_singular_and_non_triangular():
    for bad in ([[2, 1], [0, 0]], [[0, 1], [0, 3]], [[2, 1], [1, 4]],
                [[1, 0, 0], [0, 1, 0], [0, 5, 1]], [[1, 2], [0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            hnf_adjugate_columns(bad)


@pytest.mark.parametrize("bad, message", [
    ([[1, 2]], "matrix is not square"),
    ([[1, 2], [0, 1], [0, 0]], "matrix is not square"),
    ([[1, 2], [3]], "matrix is not square"),
    ([[2, 1], [1, 4]], "matrix is not upper triangular"),
    ([[1, 0, 0], [0, 1, 0], [0, 5, 1]], "matrix is not upper triangular"),
    ([[2, 1], [0, 0]], "matrix is singular"),
    ([[0, 1], [0, 3]], "matrix is singular"),
])
def test_hnf_adjugate_names_each_refusal(bad, message):
    with pytest.raises(ValueError, match=message):
        hnf_adjugate_columns(bad)


# HNF of an already-triangular basis
def test_hnf_fixed_point():
    rows = [[2, 1], [0, 4]]
    assert hnf_rows(rows) == T([[2, 1], [0, 4]])
    assert hnf_rows([[2, 5], [0, 4]]) == T([[2, 1], [0, 4]])


def test_hnf_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rank_int(rows) < n:
            continue
        h1 = hnf_rows(rows)
        u = random_unimodular(n, rng)
        h2 = hnf_rows(matmul(u, rows))
        assert h1 == h2


def test_hnf_drops_dependent_rows():
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 5]]
    h = hnf_rows(rows)
    assert len(h) == 2
    assert rank_int(rows) == 2


def test_snf_divisors():
    assert snf_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert snf_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert snf_divisors([[2, 4], [4, 8]]) == [2]
    assert snf_divisors([[2, 4], [6, 8]]) == [2, 4]
    assert snf_divisors([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]
    assert snf_divisors([[0, 2, 0]]) == [2]
    assert snf_divisors([[0, 0, 0], [0, 0, 0]]) == []
    assert snf_divisors([]) == []
    # one column and one row reduction leave these two off the diagonal
    assert snf_divisors([[0, 3, 4], [12, 3, 0]]) == [1, 12]
    assert snf_divisors([[-8, 8, 0], [8, -1, 2], [0, 0, 7]]) == [1, 1, 392]


# entry pools: small integers, mostly zeros, and entries sharing factors
SNF_POOLS = (
    tuple(range(-9, 10)),
    (0, 0, 0, 0, 0, 1, -1, 2),
    (0, 0, 4, -6, 6, 10, 12, -15, 30),
)


def random_snf_input(rng, nrows, ncols):
    pool = rng.choice(SNF_POOLS)
    rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    if rng.random() < 0.3:
        factor = rng.choice([2, 3, 6])
        rows = [[factor * c for c in row] for row in rows]
    return rows


def assert_snf_matches_reference(rows):
    before = [list(r) for r in rows]
    divisors = snf_divisors(rows)
    assert rows == before
    assert divisors == reference_snf_divisors(rows)
    assert all(c > 0 for c in divisors)
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10**6),
)
def test_snf_divisors_match_the_pivot_search(nrows, ncols, seed):
    assert_snf_matches_reference(random_snf_input(random.Random(seed), nrows, ncols))


def test_snf_divisors_match_the_pivot_search_on_tall_matrices():
    rng = random.Random(40)
    for _ in range(30):
        assert_snf_matches_reference(random_snf_input(rng, 40, 5))


@pytest.mark.parametrize("p, d", [(2, 1), (3, 1), (2, 2)])
def test_snf_divisors_of_the_pairing_matrices(p, d):
    """Criterion 9's matrices: the image of the pairing is saturated."""
    edges = Ball(Lattice.standard(p, d), 2).pointed_edges()
    matrix = pairing_matrix(edges, 1, p, d)
    assert_snf_matches_reference(matrix)
    assert snf_divisors(matrix) == [1] * (point_count(p, 1, d) - 1)


def test_matinv_mod_roundtrip():
    rng = random.Random(11)
    for p, k in [(2, 3), (3, 2), (5, 2)]:
        mod = p**k
        for _ in range(20):
            n = rng.randint(1, 12)
            while True:
                m = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
                # det(m) is a unit mod p; the cofactor determinant is too slow at n = 12
                if len(rref_modp(m, p)[0]) == n:
                    break
            inv = matinv_mod(m, p, k)
            prod = matmul(m, inv)
            assert all(
                prod[i][j] % mod == (1 if i == j else 0)
                for i in range(n)
                for j in range(n)
            )


def random_unit_matrix(n, p, k, rng):
    """A random n x n matrix mod p^k whose determinant is a unit mod p."""
    while True:
        m = [[rng.randrange(p**k) for _ in range(n)] for _ in range(n)]
        if len(reference_rref_modp(m, p)[0]) == n:
            return m


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_solve_mod_matches_the_reference(p, k):
    rng = random.Random(100 * p + k)
    for n in range(1, 10):
        # signed entries beyond p^k, so the reduction mod p^k is exercised
        m = [[x + p**k * rng.randint(-1, 1) for x in row]
             for row in random_unit_matrix(n, p, k, rng)]
        assert matinv_mod(m, p, k) == reference_solve_mod(
            m, [[int(i == j) for j in range(n)] for i in range(n)], p, k)


def test_rref_modp_matches_the_reference_on_rank_deficient_matrices():
    rng = random.Random(23)
    for p in (2, 3, 5):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rank = rng.randint(0, min(nrows, ncols) - 1)
            # rows in the span of `rank` random rows, plus multiples of p
            gens = [[rng.randint(-9, 9) for _ in range(ncols)]
                    for _ in range(rank)]
            rows = []
            for _ in range(nrows):
                coeffs = [rng.randint(-3, 3) for _ in gens]
                rows.append([sum(c * g[j] for c, g in zip(coeffs, gens))
                             + p * rng.randint(-3, 3) for j in range(ncols)])
            got = rref_modp(rows, p)
            assert got == reference_rref_modp(rows, p)
            assert len(got[0]) <= rank
            assert rref_modp(rows, p, 1) == got


def test_solve_mod_refuses_a_matrix_singular_mod_p():
    m = [[2, 0], [0, 1]]
    with pytest.raises(ValueError, match="not invertible mod p"):
        matinv_mod(m, 2, 3)
    with pytest.raises(ValueError, match="not invertible mod p"):
        reference_solve_mod(m, [[1], [0]], 2, 3)


def test_rref_and_span():
    rows = [[1, 2, 0], [0, 0, 1]]
    assert rref_modp(rows, 3) == (((1, 2, 0), (0, 0, 1)), (0, 2))
    assert len(rref_modp([[2, 4], [1, 2]], 3)[0]) == 1


def test_complete_basis():
    rng = random.Random(5)
    for p in (2, 3):
        for n in (2, 3, 4):
            start = [[rng.randrange(p) for _ in range(n)]]
            if not any(start[0]):
                start[0][0] = 1
            cands = [
                [1 if i == j else 0 for j in range(n)] for i in range(n)
            ]
            added = complete_basis_modp(start, cands, p)
            assert len(rref_modp(start + added, p)[0]) == n


def test_complete_basis_matches_the_span_test_reference():
    """The rank comparison adds the same candidates as the span test of
    the reference, including repeated, dependent and zero candidates."""
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 4)
        current = [[rng.randrange(-p, 2 * p) for _ in range(n)]
                   for _ in range(rng.randint(0, n))]
        cands = [[rng.randrange(-p, 2 * p) for _ in range(n)]
                 for _ in range(rng.randint(0, 2 * n))]
        cands += rng.sample(cands, len(cands) // 2)
        assert complete_basis_modp(current, cands, p) == \
            reference_complete_basis_modp(current, cands, p)


# subspace counts match the Gaussian binomial
@given(
    st.sampled_from([2, 3]),
    st.integers(min_value=1, max_value=4),
)
def test_subspace_counts(p, n):
    for k in range(n + 1):
        count = sum(1 for _ in subspaces_modp(n, k, p))
        assert count == gaussian_binomial(n, k, p)


def test_subspaces_are_canonical_rref():
    seen = set()
    for basis in subspaces_modp(4, 2, 2):
        r, piv = rref_modp([list(b) for b in basis], 2)
        key = tuple(tuple(row) for row in r)
        assert key == tuple(tuple(b) for b in basis)
        assert key not in seen
        seen.add(key)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13


def test_vecmat():
    assert vecmat([1, 2], [[1, 0], [1, 1]]) == (3, 2)
