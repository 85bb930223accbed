"""Exact integer and mod-p linear algebra for small matrices.

Everything here is pure Python over exact integers (or Fractions at the
boundaries).  Matrices are tuples of tuples of ints, row-major; vectors are
tuples of ints unless stated otherwise.  Sizes stay tiny (ambient dimension
is d+1 <= 4), so the quadratic/cubic algorithms below are the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from operator import mul


def require_int(x, what, least=None):
    """x, if its class is exactly int (a bool, float or Fraction is not an
    integer here): TypeError otherwise, and ValueError below `least`."""
    if x.__class__ is not int:
        raise TypeError(f"{what} must be an int, not {type(x).__name__} {x!r}")
    if least is not None and x < least:
        raise ValueError(f"{what} must be at least {least}, got {x}")
    return x


def is_prime(p):
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


def require_prime(p):
    """p, if an int (as require_int has it) that is prime: TypeError or
    ValueError otherwise."""
    if not is_prime(require_int(p, "the prime")):
        raise ValueError(f"p = {p} is not prime")
    return p


def require_ints(values, what, size=None):
    """values, if a list or tuple of ints as require_int has them (`size` of
    them, when given): TypeError or ValueError otherwise.  The classes are
    collected in one pass at C speed; require_int names an offender."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{what} must be a list of ints, not {type(values).__name__}")
    if not set(map(type, values)) <= {int}:
        for x in values:
            require_int(x, f"an entry of {what}")
    if size is not None and len(values) != size:
        raise ValueError(f"{what} must have {size} entries, got {len(values)}")
    return values


def pval(x, p):
    """p-adic valuation of a nonzero int or Fraction.  Raises on zero."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError(f"valuation at p = {p!r} is undefined")
    # ints first: the Fraction check is an ABC isinstance, slow on the hot path
    if not isinstance(x, int):
        if isinstance(x, Fraction):
            return pval(x.numerator, p) - pval(x.denominator, p)
        x = int(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def vecmat(v, m):
    """Row vector times matrix."""
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def hnf_rows(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the canonical basis of the row lattice: pivots on strictly
    increasing columns, positive pivots, entries above each pivot reduced
    into [0, pivot).  Zero rows are dropped.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pr = 0
    pivots = []
    for col in range(ncols):
        while True:
            nz = [i for i in range(pr, nrows) if m[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][col]))
            m[pr], m[i0] = m[i0], m[pr]
            done = True
            for i in range(pr + 1, nrows):
                if m[i][col] != 0:
                    q = m[i][col] // m[pr][col]
                    m[i] = [a - q * b for a, b in zip(m[i], m[pr])]
                    if m[i][col] != 0:
                        done = False
            if done:
                break
        if pr < nrows and m[pr][col] != 0:
            if m[pr][col] < 0:
                m[pr] = [-a for a in m[pr]]
            pivots.append((pr, col))
            pr += 1
    reduce_above_pivots(m, pivots)
    return tuple(tuple(m[r]) for r, _ in pivots)


def reduce_above_pivots(m, pivots):
    """Hermite's last step, in place: for each positive pivot (row, column)
    in ascending order, reduce the entries above it into [0, pivot)."""
    for r, c in pivots:
        row_r = m[r]
        pivot = row_r[c]
        for i in range(r):
            q = m[i][c] // pivot
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], row_r)]


def hnf_det(rows):
    """Determinant of a full-rank Hermite basis (hnf_rows): its pivots sit
    on the diagonal of an upper triangular matrix."""
    return prod(row[i] for i, row in enumerate(rows))


def hnf_adjugate_columns(rows):
    """(columns of adj, det) of an upper triangular matrix with nonzero
    diagonal, by back substitution.  Column j of adj solves
    rows . x = det e_j from the bottom up and is zero below j; every
    division is exact because adj is an integer matrix."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i, row in enumerate(rows):
        if any(row[:i]):
            raise ValueError("matrix is not upper triangular")
    diag = [row[i] for i, row in enumerate(rows)]
    det = prod(diag)
    if det == 0:
        raise ValueError("matrix is singular")
    cols = []
    for j in range(n):
        x = [0] * n
        x[j] = det // diag[j]
        for i in range(j - 1, -1, -1):
            x[i] = -sum(map(mul, rows[i][i + 1 : j + 1], x[i + 1 : j + 1])) // diag[i]
        cols.append(tuple(x))
    return tuple(cols), det


def inv_scaled(mat):
    """Exact inverse as (N, D) with mat^{-1} = N / D, N integer and
    D = |det(mat)|.  The Hermite form of [mat | I] is [H | U] with
    U . mat = H upper triangular and U unimodular (a nonsingular mat puts
    all n pivots in its own n columns), so mat^{-1} = adj(H) . U / det(H),
    with adj(H) the transpose of hnf_adjugate_columns(H); a singular mat
    leaves a zero on the diagonal of H."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    h = hnf_rows([[*row, *e] for row, e in zip(mat, identity(n))])
    cols, det = hnf_adjugate_columns([row[:n] for row in h])
    return matmul(zip(*cols), [row[n:] for row in h]), det


def snf_divisors(rows):
    """Elementary divisors (Smith normal form diagonal): positive, one per
    unit of rank, each dividing the next.  The input is not mutated.

    Hermite reduction of the columns and then of the rows alternates until
    the matrix is diagonal (Kannan-Bachem): the (0, 0) pivot is a positive
    integer that can only shrink, and once it stops shrinking it divides
    its row and column, which the next pass clears; the same argument then
    holds for the rest of the matrix.  Replacing each pair of diagonal
    entries by their gcd and lcm leaves a divisibility chain."""
    m = hnf_rows(rows)
    while any(c for i, row in enumerate(m) for j, c in enumerate(row) if i != j):
        m = hnf_rows(list(zip(*hnf_rows(list(zip(*m))))))
    divisors = [row[i] for i, row in enumerate(m)]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return divisors


# ---------------------------------------------------------------------------
# Linear algebra modulo p^k


def rref_modp(rows, p, k=1):
    """Gauss-Jordan elimination over Z/p^k with unit pivots.  Returns
    (rows, pivot_columns) for the rows that received a pivot.

    Each column takes as pivot the first remaining row whose entry is
    prime to p, scales it to 1 and clears the column in every other row.
    At k = 1 this is the reduced row echelon form over F_p.  At k > 1 the
    result is an echelon form only while every pivot column so far held a
    unit: a column skipped for holding none keeps its multiples of p."""
    mod = p**k
    m = [[x % mod for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        for piv in range(r, nrows):
            if m[piv][c] % p:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        s = pow(m[r][c], -1, mod)
        # in an echelon form the pivot row is zero left of c: the tail moves
        tail = [(s * x) % mod for x in m[r][c:]]
        m[r][c:] = tail
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row[c:] = [(x - f * y) % mod for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, m[:r])), tuple(pivots)


def matinv_mod(mat, p, k):
    """Inverse of an integer matrix modulo p^k: the right block of
    rref_modp([mat | I]).  Requires det(mat) a unit mod p."""
    n = len(mat)
    rows, pivots = rref_modp([[*row, *e] for row, e in zip(mat, identity(n))], p, k)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is not invertible mod p")
    return tuple(row[n:] for row in rows)


def complete_basis_modp(current, candidates, p):
    """The candidates that raise the rank over F_p of the rows before them,
    reduced mod p, in order: the pivot columns of rref_modp of the matrix
    with the rows of current, then of candidates, as its columns."""
    rows = [*current, *candidates]
    _, pivots = rref_modp(list(zip(*rows)), p)
    return [tuple(x % p for x in rows[c]) for c in pivots if c >= len(current)]


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspaces_modp(n, k, p):
    """Yield canonical bases (RREF rows) of all k-dimensional subspaces of F_p^n."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(n), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n)
                if c not in pivots]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free, values):
                rows[r][c] = val
            yield tuple(tuple(row) for row in rows)
