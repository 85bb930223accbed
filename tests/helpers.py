"""Shared randomized constructors for tests, and reference versions of
library code that a faster implementation replaced."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from drinfeld.building import Lattice, PointedSimplex, standard_simplex
from drinfeld.covers import (
    MAX_CERTIFY_LEVEL,
    BuildingPoint,
    SymmetricSpacePoint,
    member_tube,
    t_profile,
    tube_test_covectors,
)
from drinfeld.intlinalg import (
    complete_basis_modp,
    matmul,
    pval,
    rref_modp,
    snf_divisors,
    subspaces_modp,
    vecmat,
)
from drinfeld.padic import (
    FieldDesc,
    FieldElem,
    PrecisionError,
    _coerce,
    _omega_step,
    _poly_mul,
    linear_form,
    unramified_min_poly,
)
from drinfeld.products import _require_certified
from drinfeld.projpoints import ProjPoint, lift_covector
from drinfeld.residues import _require_edge, slope


# Reference determinant and inverse: the cofactor expansions that intlinalg
# replaced by Hermite reduction of [M | I] and back substitution, kept
# verbatim.  reference_inv_scaled returns the signed det(mat), where
# inv_scaled returns |det(mat)| and the numerator times its sign.


def reference_det_int(mat):
    """Exact signed determinant by cofactor expansion (n <= 4 in practice)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    rest = [row[1:] for row in mat]
    for i in range(n):
        minor = tuple(tuple(rest[r]) for r in range(n) if r != i)
        term = mat[i][0] * reference_det_int(minor)
        total += term if i % 2 == 0 else -term
    return total


def reference_inv_scaled(mat):
    """Exact inverse as (N, D) with mat^{-1} = N / D, N integer, D = det(mat)."""
    n = len(mat)
    d = reference_det_int(mat)
    if d == 0:
        raise ValueError("matrix is singular")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(mat[r][c] for c in range(n) if c != j)
                for r in range(n)
                if r != i
            )
            cof = reference_det_int(minor) if minor else 1
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return tuple(tuple(row) for row in adj), d


def random_gl_integer(size, rng, p=None, bound=4):
    """Random integer matrix with nonzero determinant; if p is given the
    determinant is additionally prime to p."""
    while True:
        g = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        det = reference_det_int(g)
        if det and (p is None or det % p):
            return g


def random_unimodular_integer(size, rng, steps=10):
    """Product of elementary integer matrices (determinant +-1)."""
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-2, 2)
        for k in range(size):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.25:
            m[i], m[j] = m[j], m[i]
            for k in range(size):
                m[i][k] = -m[i][k]
    return m


def random_composition(total, rng):
    """Random ordered composition of `total` into positive parts."""
    if total == 1:
        return (1,)
    cuts = sorted(rng.sample(range(1, total), rng.randint(0, total - 1)))
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def proper_faces(sigma):
    """Every proper face of a pointed simplex: each nonempty proper subset
    of its chain, pointed at its first lattice."""
    lats = sigma.lattices
    return [
        PointedSimplex.from_chain([lats[i] for i in keep])
        for size in range(1, len(lats))
        for keep in combinations(range(len(lats)), size)
    ]


def random_pointed_simplex(p, d, rng, type_vector=None, bound=None):
    """Random pointed simplex: a standard chain moved by a random integer
    frame (saturation handles any nonzero determinant)."""
    if type_vector is None:
        type_vector = random_composition(d + 1, rng)
    if bound is None:
        bound = p * p
    std = standard_simplex(p, type_vector)
    while True:
        f = [
            [rng.randint(-bound, bound) for _ in range(d + 1)] for _ in range(d + 1)
        ]
        if reference_det_int(f):
            return std.right_multiplied(f)


# Reference unit inverse: the Newton loop that padic replaced by one linear
# solve mod p^coeff_exponent; the inverse is unique, so both must agree.


def _residue_inverse(desc, row0):
    """Inverse of a nonzero residue-field element, as a length-f vector."""
    p, f = desc.p, desc.f
    if f == 1:
        return (pow(row0[0] % p, -1, p),)
    # tiny field: invert by exponentiation x^(p^f - 2)
    table = desc.omega_power_table()

    def fmul(a, b):
        wide = [0] * (2 * f - 1)
        for j1, c1 in enumerate(a):
            if c1:
                for j2, c2 in enumerate(b):
                    if c2:
                        wide[j1 + j2] += c1 * c2
        out = [0] * f
        for t in range(2 * f - 1):
            if wide[t]:
                for j, w in enumerate(table[t]):
                    out[j] += wide[t] * w
        return tuple(c % p for c in out)

    base = tuple(c % p for c in row0)
    acc = tuple(1 if j == 0 else 0 for j in range(f))
    k = p**f - 2
    sq = base
    while k:
        if k & 1:
            acc = fmul(acc, sq)
        sq = fmul(sq, sq)
        k >>= 1
    return acc


def _newton_lift(desc, unit_coeffs):
    """Newton iteration b <- b (2 - u b) from the residue-field inverse,
    doubling the known pi-digits up to work_prec."""
    e, f = desc.e, desc.f
    b = [0] * (e * f)
    for j, c in enumerate(_residue_inverse(desc, unit_coeffs[:f])):
        b[j] = c
    b = tuple(b)
    two = FieldElem.from_int(desc, 2).coeffs
    mod = desc.coeff_modulus
    known = 1
    while known < desc.work_prec:
        ub = _poly_mul(desc, unit_coeffs, b)
        corr = tuple((t - u) % mod for t, u in zip(two, ub))
        b = _poly_mul(desc, b, corr)
        known *= 2
    return b


# Differential precision: a value computed at N against the same value
# computed at 3N.


def check_trusted(lo, hi):
    """Every digit lo trusts is trusted by hi and equal to it, and every
    valuation lo resolves hi resolves to the same value."""
    desc = lo.desc
    assert lo.exact_zero == hi.exact_zero
    if lo.exact_zero:
        return
    assert hi.shift + hi.prec >= lo.shift + lo.prec
    mod = desc.coeff_modulus
    hi_at_lo = FieldElem(
        desc, hi.shift, tuple(c % mod for c in hi.coeffs), min(hi.prec, desc.work_prec)
    )
    assert lo.agrees_with(hi_at_lo)
    try:
        v = lo.valuation()
    except PrecisionError:
        return
    assert hi.valuation() == v


# Reference field arithmetic: FieldElem's negation, add, multiply, integer
# scaling and divide as they were in the frozen-dataclass core, with the
# row-popping pi-shift and the nested-row schoolbook product, kept verbatim
# as functions of their operands.  The lean core must give the same shift,
# digits, prec and exactness.


@dataclass(frozen=True)
class DataclassFieldElem:
    """The fields of the frozen dataclass FieldElem was, for comparing
    equality, hashing and repr."""

    desc: FieldDesc
    shift: int
    coeffs: tuple
    prec: int
    exact_zero: bool = False


def reference_neg(self):
    mod = self.desc.coeff_modulus
    return FieldElem(
        self.desc,
        self.shift,
        tuple((-c) % mod for c in self.coeffs),
        self.prec,
        self.exact_zero,
    )


def reference_add(self, other):
    other = _coerce(self.desc, other)
    if self.exact_zero:
        return other
    if other.exact_zero:
        return self
    desc = self.desc
    s = min(self.shift, other.shift)
    ca = reference_shift_poly(desc, self.coeffs, self.shift - s)
    cb = reference_shift_poly(desc, other.coeffs, other.shift - s)
    pa = min(self.prec + self.shift - s, desc.work_prec)
    pb = min(other.prec + other.shift - s, desc.work_prec)
    mod = desc.coeff_modulus
    coeffs = tuple((a + b) % mod for a, b in zip(ca, cb))
    return FieldElem(desc, s, coeffs, min(pa, pb))


def reference_sub(self, other):
    return reference_add(self, reference_neg(_coerce(self.desc, other)))


def reference_mul(self, other):
    if isinstance(other, int):
        return reference_scale_int(self, other)
    other = _coerce(self.desc, other)
    if self.exact_zero or other.exact_zero:
        return FieldElem.zero(self.desc)
    desc = self.desc
    coeffs = reference_poly_mul(desc, self.coeffs, other.coeffs)
    return FieldElem(
        desc,
        self.shift + other.shift,
        coeffs,
        min(self.prec, other.prec),
    )


def reference_scale_int(self, n):
    if n == 0 or self.exact_zero:
        return FieldElem.zero(self.desc)
    mod = self.desc.coeff_modulus
    return FieldElem(
        self.desc,
        self.shift,
        tuple((n * c) % mod for c in self.coeffs),
        self.prec,
    )


def reference_truediv(self, other):
    other = _coerce(self.desc, other)
    if other.exact_zero:
        raise ZeroDivisionError("division by exact zero")
    desc = self.desc
    v = reference_poly_valuation(other)
    if v is None:
        raise PrecisionError("division by an element indistinguishable from 0")
    if self.exact_zero:
        return FieldElem.zero(desc)
    unit_coeffs, unit_prec = reference_extract_unit(
        desc, other.coeffs, other.prec, v
    )
    inv = reference_unit_inverse(desc, unit_coeffs)
    coeffs = reference_poly_mul(desc, self.coeffs, inv)
    return FieldElem(
        desc,
        self.shift - other.shift - v,
        coeffs,
        min(self.prec, unit_prec),
    )


def reference_pow(self, k):
    if k == 0:
        return FieldElem.one(self.desc)
    base = self if k > 0 else FieldElem.one(self.desc) / self
    acc = FieldElem.one(self.desc)
    for _ in range(abs(k)):
        acc = acc * base
    return acc


def reference_poly_valuation(self):
    """Valuation of the polynomial part in pi-units, or None if every
    stored digit below `prec` vanishes."""
    e, p = self.desc.e, self.desc.p
    f = self.desc.f
    best = None
    for i in range(e):
        for c in self.coeffs[i * f : (i + 1) * f]:
            if c:
                v = i
                cc = c
                while cc % p == 0:
                    cc //= p
                    v += e
                if best is None or v < best:
                    best = v
    if best is None or best >= self.prec:
        return None
    return best


def reference_shift_poly(desc, coeffs, k):
    """Multiply a coefficient vector by pi^k (k >= 0), reducing pi^e -> p."""
    assert k >= 0
    if k == 0:
        return tuple(coeffs)
    e, f, mod, p = desc.e, desc.f, desc.coeff_modulus, desc.p
    rows = [list(coeffs[i * f : (i + 1) * f]) for i in range(e)]
    for _ in range(k):
        top = rows.pop()
        rows.insert(0, [(p * c) % mod for c in top])
    return tuple(c % mod for row in rows for c in row)


def reference_poly_mul(desc, ca, cb):
    """Product of coefficient vectors, reduced by pi^e = p and the omega
    minimal polynomial."""
    e, f, mod, p = desc.e, desc.f, desc.coeff_modulus, desc.p
    wide = [[0] * (2 * f - 1) for _ in range(2 * e - 1)]
    for i1 in range(e):
        row1 = ca[i1 * f : (i1 + 1) * f]
        if not any(row1):
            continue
        for i2 in range(e):
            row2 = cb[i2 * f : (i2 + 1) * f]
            if not any(row2):
                continue
            target = wide[i1 + i2]
            for j1, c1 in enumerate(row1):
                if c1:
                    for j2, c2 in enumerate(row2):
                        if c2:
                            target[j1 + j2] += c1 * c2
    table = desc.omega_power_table()
    out = [[0] * f for _ in range(e)]
    for i in range(2 * e - 1):
        src = wide[i]
        scale = p ** (i // e)
        ii = i % e
        row = out[ii]
        for t in range(2 * f - 1):
            c = src[t]
            if c:
                for j, w in enumerate(table[t]):
                    if w:
                        row[j] += scale * c * w
    return tuple(c % mod for row in out for c in row)


# Reference unit extraction and inverse: padic's row-popping division by
# pi^v and its one linear solve against the full e*f x e*f multiplication
# matrix, kept verbatim (with the reference pi-shift), from before the
# slice extraction and the norm descent at even e.  _times_omega is the
# omega step that built that matrix's columns in padic until they were
# taken from _poly_mul by omega^j.


def reference_extract_unit(desc, coeffs, prec, v):
    """Divide the polynomial part exactly by pi^v; returns (unit, prec - v)."""
    e, f, p, mod = desc.e, desc.f, desc.p, desc.coeff_modulus
    rows = [list(coeffs[i * f : (i + 1) * f]) for i in range(e)]
    for _ in range(v):
        bottom = rows.pop(0)
        if any(c % p for c in bottom):
            raise PrecisionError("inexact division by pi")
        rows.append([c // p for c in bottom])
    return tuple(c % mod for row in rows for c in row), prec - v


def _times_omega(desc, coeffs):
    """Multiply a coefficient vector by omega."""
    f, mod = desc.f, desc.coeff_modulus
    low = unramified_min_poly(desc.p, f)
    out = []
    for i in range(0, len(coeffs), f):
        out.extend(c % mod for c in _omega_step(coeffs[i : i + f], low))
    return tuple(out)


def reference_unit_inverse(desc, unit_coeffs):
    """Inverse of a unit polynomial part modulo pi^work_prec: the vector x
    with u*x = 1, from one linear solve mod p^coeff_exponent whose column t
    is u*pi^i*omega^j (t = i*f + j), by reference_solve_mod."""
    p, e, f = desc.p, desc.e, desc.f
    if not any(c % p for c in unit_coeffs[:f]):
        raise PrecisionError("inverse of a non-unit")
    if not any(unit_coeffs[1:]):
        # a rational integer unit needs no solve
        inv = pow(unit_coeffs[0], -1, desc.coeff_modulus)
        return (inv,) + (0,) * (e * f - 1)
    columns = []
    u_pi = unit_coeffs
    for i in range(e):
        if i:
            u_pi = reference_shift_poly(desc, u_pi, 1)
        columns.append(u_pi)
        for _ in range(f - 1):
            columns.append(_times_omega(desc, columns[-1]))
    rhs = [(1,)] + [(0,)] * (e * f - 1)
    x = reference_solve_mod(tuple(zip(*columns)), rhs, p, desc.coeff_exponent)
    return tuple(row[0] for row in x)


# Reference linear form: padic.linear_form as it was before the integer
# form was fused, one scale-and-add per entry, kept verbatim.  The fused
# form must give the same shift, digits, prec and exactness.


def reference_linear_form(a, z):
    """sum a_i z_i for integer scalars a and FieldElem vector z."""
    desc = z[0].desc
    acc = FieldElem.zero(desc)
    for ai, zi in zip(a, z):
        if ai:
            acc = acc + ai * zi
    return acc


# Reference oracle sampler: residues._oracle_points as it was when it
# divided every sample coordinate by det(frame), kept verbatim.


def reference_oracle_points(sigma, desc, rng):
    """Two interior tube samples at edge parameters 1/e and 2/e, built from
    the adapted frame with generic unramified-unit entries.

    Returns the raw coordinate list of each sample: absolute section
    valuations are only meaningful on the raw affine solve, because
    projective normalization shifts them by a parameter-dependent constant."""
    d1 = sigma.boundary_indices()[1]
    size = sigma.dim + 1
    pi = FieldElem.pi(desc)

    def unit(j):
        bump = FieldElem.from_coeffs(
            desc, [rng.randrange(desc.coeff_modulus) for _ in range(desc.e * desc.f)]
        )
        return FieldElem.omega_power(desc, j) * (FieldElem.one(desc) + pi * bump)

    frame = [list(f) for f in sigma.adapted_basis()]
    inv, det = reference_inv_scaled(frame)
    det_elem = FieldElem.from_int(desc, det)
    samples = []
    for step in (1, 2):
        w = [unit(j) if j < d1 else FieldElem.pi_power(desc, step) * unit(j)
             for j in range(size)]
        coords = []
        for i in range(size):
            acc = FieldElem.zero(desc)
            for j in range(size):
                if inv[i][j]:
                    acc = acc + inv[i][j] * w[j]
            coords.append(acc / det_elem)
        samples.append(coords)
    return samples


# Reference unit and oracle samples: covers.random_unit as it was when it
# added 1 to pi*b as FieldElems, and residues._oracle_points as it was when
# it multiplied by a pi-power and built each sample coordinate with its own
# linear_form, kept verbatim but for the names: the sampler draws from
# reference_random_unit, and tube_sample is written out.


def reference_random_unit(desc, rng, j=0):
    """The unit omega^j (1 + pi b), with the e*f digits of b drawn
    uniformly mod p^coeff_exponent."""
    digits = [rng.randrange(desc.coeff_modulus) for _ in range(desc.e * desc.f)]
    unit = FieldElem.one(desc) + FieldElem.from_coeffs(desc, digits, 1)
    return FieldElem.omega_power(desc, j) * unit if j else unit


def reference_oracle_samples(sigma, desc, rng):
    """Two interior tube samples at edge parameters 1/e and 2/e: the raw
    covers.tube_sample of generic units, those of block 1 lifted by pi^step."""
    d1 = sigma.boundary_indices()[1]
    n, _ = sigma.frame_adjugate
    samples = []
    for step in (1, 2):
        w = [reference_random_unit(desc, rng, j) for j in range(sigma.dim + 1)]
        lift = FieldElem.pi_power(desc, step)
        w[d1:] = [lift * u for u in w[d1:]]
        samples.append([linear_form(row, w) for row in n])
    return samples


# Reference tube sampler: covers.point_in_tube as it was when it solved the
# adapted frame and drew its units on every call, kept verbatim.


def reference_point_in_tube(desc, sigma, rng, spread=False):
    """Random point in the open tube of sigma, built from the inverse of
    the tube parametrization.

    Block leaders get valuations 1/e (consecutive radii); residues inside a
    block walk through powers of omega, so the field needs e > k and
    f >= max block size.  With spread=True the leader gaps are randomized."""
    k = sigma.k
    ds = list(sigma.boundary_indices()) + [sigma.dim + 1]
    blocks = [ds[i + 1] - ds[i] for i in range(k + 1)]
    if desc.e < k + 1:
        raise ValueError(f"need ramification > {k} for a length-{k} chain")
    if desc.f < max(blocks):
        raise ValueError(f"need residue degree >= {max(blocks)}")
    pi = FieldElem.pi(desc)
    gaps = [1] * k
    if spread and k:
        budget = desc.e - 1 - k
        for _ in range(budget):
            gaps[rng.randrange(k)] += 1

    def random_integral():
        return FieldElem.from_coeffs(
            desc, [rng.randrange(desc.coeff_modulus) for _ in range(desc.e * desc.f)]
        )

    def random_one_unit():
        return FieldElem.one(desc) + pi * random_integral()

    w = [None] * (sigma.dim + 1)
    leader = FieldElem.one(desc)
    for i in range(k + 1):
        if i:
            step = FieldElem.pi_power(desc, gaps[i - 1]) * random_one_unit()
            leader = leader * step
        w[ds[i]] = leader
        for off, j in enumerate(range(ds[i] + 1, ds[i + 1])):
            x = FieldElem.omega_power(desc, off + 1) * random_one_unit()
            w[j] = leader * x
    basis = sigma.adapted_basis()
    n, det = reference_inv_scaled([list(f) for f in basis])
    det_elem = FieldElem.from_int(desc, det)
    coords = []
    for i in range(sigma.dim + 1):
        acc = FieldElem.zero(desc)
        for j in range(sigma.dim + 1):
            if n[i][j]:
                acc = acc + n[i][j] * w[j]
        coords.append(acc / det_elem)
    # Keep the pointing: scale by a root-of-p power so the minimum coordinate
    # valuation is an integer; normalization then shifts all section
    # valuations by an integer and the radius-0 layer stays at M_0.
    vmin = min(c.valuation() for c in coords)
    frac = (-vmin * desc.e) % desc.e
    if frac:
        adjust = FieldElem.pi_power(desc, int(frac))
        coords = [c * adjust for c in coords]
    return SymmetricSpacePoint(coords)


# The product evaluators before binary powering, verbatim: one product or
# one division per copy of an exponent.


def reference_evaluate_product(u, z, certified_level=None):
    """Evaluate at a point: one division of the positive-exponent product by
    the negative-exponent product.  Degree 0 makes the value representative
    independent."""
    if u.mu.dim != z.dim:
        raise ValueError("the product and the point differ in dimension")
    _require_certified(u, (z,), certified_level)
    desc = z.desc
    num = FieldElem.one(desc)
    den = FieldElem.one(desc)
    for a, m in u.mu.items():
        value = z.section(a.lift_vector(u.rep_system))
        for _ in range(abs(m)):
            if m > 0:
                num = num * value
            else:
                den = den * value
    return num / den


def reference_evaluate_ratio(u, z1, z2, certified_level=None):
    """Value ratio u(z1) / u(z2), accumulated factor by factor.

    Each factor contributes the unit ratio of one section at the two
    points, so no intermediate ever carries the large valuation that the
    single-point value may have; this keeps the digits of the ratio
    resolvable whenever the points share section valuations."""
    if not u.mu.dim == z1.dim == z2.dim:
        raise ValueError("the product and the points differ in dimension")
    _require_certified(u, (z1, z2), certified_level)
    acc = FieldElem.one(z1.desc)
    for a, m in u.mu.items():
        lift = a.lift_vector(u.rep_system)
        ratio = z1.section(lift) / z2.section(lift)
        for _ in range(abs(m)):
            acc = acc * ratio if m > 0 else acc / ratio
    return acc


# Reference cover tests: covers.member_open_cover, member_closed_cover,
# reduce_to_building and member_tube as they were when every section
# valuation was a Fraction, kept verbatim.  The names they call come from
# drinfeld.covers: t_profile (the public Fraction profile), member_tube (the
# reduction's self-check) and tube_test_covectors.


def reference_member_open_cover(z, n, profile=None):
    """Whether every level-n section valuation spread stays below n."""
    profile = profile if profile is not None else t_profile(z, n)
    vals = profile.values()
    return max(vals) - min(vals) < n


def reference_member_closed_cover(z, n):
    """Closed variant: spread at most n, certified by level n+1 sections."""
    profile = t_profile(z, n + 1)
    vals = profile.values()
    return max(vals) - min(vals) <= n


def reference_reduce_to_building(z, level=None, self_check=True):
    """The reduction map at a certified level.

    With level=None the smallest certifying level up to MAX_CERTIFY_LEVEL
    is chosen.  Raises ValueError when the requested level cannot certify
    the point (valuation spread too large)."""
    if level is not None:
        levels = [level]
    else:
        levels = range(1, MAX_CERTIFY_LEVEL + 1)
    profile = None
    used = None
    for n in levels:
        profile = t_profile(z, n)
        if max(profile.values()) < n:  # min is 0 after normalization
            used = n
            break
    if used is None:
        raise ValueError(
            "level cannot certify the reduction; the point sits too deep"
        )
    p = z.desc.p
    candidates = sorted({v - v.__floor__() for v in profile.values()})
    lattices = []
    for c in candidates:
        rows = []
        exps = []
        for a, t in profile.items():
            m = (c - t).__ceil__()
            exps.append((a, m))
        shift = -min(m for _, m in exps)
        if shift < 0:
            shift = 0
        for a, m in exps:
            scale = p ** (m + shift)
            rows.append([scale * x for x in a.lift_vector()])
        lattices.append(Lattice.from_rows(p, rows, scale=-shift))
    simplex = PointedSimplex.from_chain(lattices)
    bounds = list(candidates) + [Fraction(1)]
    weights = tuple(bounds[i + 1] - bounds[i] for i in range(len(candidates)))
    result = BuildingPoint(simplex, weights, used)
    if self_check and not member_tube(z, simplex, open_tube=True):
        raise AssertionError("reduction output fails its own tube test")
    return result


def reference_member_tube(z, sigma, open_tube=True):
    """Tube membership: within each chain layer all test classes share one
    section valuation, and the layer valuations step up through a single
    unit of the point's scale."""
    values = []
    for lifts in tube_test_covectors(sigma):
        vals = {z.section_valuation(a) for a in lifts}
        if len(vals) != 1:
            return False
        values.append(vals.pop())
    for lo, hi in zip(values, values[1:]):
        if not (lo < hi if open_tube else lo <= hi):
            return False
    top, bottom = values[-1], values[0] + 1
    return top < bottom if open_tube else top <= bottom


# PointedSimplex.from_chain as it was before its table of live simplices:
# every call validates and returns a new simplex.


def reference_from_chain(lattices):
    """The chain shifted so that its first lattice sits at scale 0."""
    shift = lattices[0].scale
    return PointedSimplex(tuple(lat.scaled(-shift) for lat in lattices))


# Tube-test covectors as computed on every member_tube call, scanning all
# p^size residue vectors, before they became cached derived data of the
# pointed simplex.


def reference_chain_with_wrap(sigma):
    lats = list(sigma.lattices)
    lats.append(sigma.lattices[0].scaled(1))
    return lats


def reference_tube_test_covectors(sigma):
    """For each chain index i, integer lifts of the classes of M_i/pM_i
    lying outside the image of M_{i+1}, one per projective class."""
    p = sigma.p
    chain = reference_chain_with_wrap(sigma)
    out = []
    for i in range(len(sigma.lattices)):
        mi, mnext = chain[i], chain[i + 1]
        n_adj, k_i = mi.adj_data()
        num = matmul(mnext.rows, n_adj)
        exp = k_i + mi.scale - mnext.scale
        if exp >= 0:
            den = p**exp
            coords = [[c // den for c in row] for row in num]
        else:
            mul = p**-exp
            coords = [[c * mul for c in row] for row in num]
        sub, piv = rref_modp(coords, p)
        size = mi.dim
        lifts = []
        seen = set()
        for idx in range(1, p**size):
            vec = []
            t = idx
            for _ in range(size):
                vec.append(t % p)
                t //= p
            # projective normalization: first nonzero entry scaled to 1
            lead = next(c for c in vec if c)
            inv = pow(lead, -1, p)
            canon = tuple((inv * c) % p for c in vec)
            if canon in seen:
                continue
            seen.add(canon)
            if in_span_modp(sub, piv, list(canon), p):
                continue
            row = [0] * size
            for j, c in enumerate(canon):
                if c:
                    for jj in range(size):
                        row[jj] += c * mi.rows[j][jj]
            scale = p**mi.scale
            lifts.append(tuple(scale * c for c in row))
        out.append(lifts)
    return out


# Reference neighbors and valuations: Lattice.neighbors as it was when each
# neighbor was a from_rows Hermite reduction of the stack pL + lifted W, and
# Lattice.valuation as it was when it multiplied through vecmat, kept
# verbatim as functions of the lattice.


def reference_neighbors(self):
    """Homothety classes adjacent to this one: preimages of the proper
    nonzero subspaces of L/pL."""
    base = self.homothety_rep()
    p, n = self.p, self.dim
    out = []
    scaled = [[p * c for c in row] for row in base.rows]
    for k in range(1, n):
        for w_basis in subspaces_modp(n, k, p):
            lifted = [vecmat(w, base.rows) for w in w_basis]
            out.append(
                Lattice.from_rows(p, scaled + lifted).homothety_rep()
            )
    return out


def reference_valuation(self, a):
    """Largest m with the integer covector a in p^m self: a times the
    adjugate, over p^k, is a in the coordinates of the basis of self,
    before the scale."""
    n, k = self.adj_data()
    g = gcd(*vecmat(a, n))
    if not g:
        raise ValueError("zero covector")
    return pval(g, self.p) - k - self.scale


# Reference type rule: PointedSimplex.type_vector and boundary_indices as
# they were when the type was read off the dimensions of the mod-p flag
# (chain_mod_p), kept verbatim as functions of the simplex.


def reference_type_vector(self):
    """(e_0, ..., e_k) with e_i the jumps of the mod-p flag dimensions."""
    n = self.dim + 1
    dims = [len(rref) for rref, _ in self.chain_mod_p()]  # descending
    ds = [n - dim for dim in dims] + [n]
    return tuple(ds[i + 1] - ds[i] for i in range(len(self.lattices)))


def reference_boundary_indices(self):
    """(d_0, ..., d_k): cumulative type offsets; block i of an adapted
    basis occupies indices [d_i, d_{i+1})."""
    t = reference_type_vector(self)
    ds = [0]
    for e in t[:-1]:
        ds.append(ds[-1] + e)
    return tuple(ds)


# Reference adapted basis: PointedSimplex.adapted_basis as it was when the
# flag was completed block by block, one complete_basis_modp call per chain
# lattice from M_k up to M_0, kept verbatim as a function of the simplex.


def reference_adapted_basis(self):
    p = self.p
    chain = self.chain_mod_p()
    blocks = []
    current = []
    for i in range(self.k, -1, -1):
        rref, _ = chain[i]
        added = complete_basis_modp(current, rref, p)
        blocks.append(added)
        current += added
    blocks.reverse()  # block i first
    m0 = self.lattices[0]
    out = []
    for block in blocks:
        for w in block:
            out.append(vecmat(w, m0.rows))
    return tuple(out)


# Reference slope rules: PointedSimplex.covector_coordinates and
# residues.slope as they were when the slope was read off the class of the
# normalized covector in M_0/pM_0, and residues.slope as it was when it
# took two valuations, kept verbatim as functions of the simplex.


def covector_coordinates(self, a):
    """Express an integer covector in M_0: returns (x, m) with x the
    p-primitive coordinate vector and a in p^m M_0 \\ p^{m+1} M_0."""
    m0 = self.lattices[0]
    n, k0 = m0.adj_data()
    x = vecmat(a, n)
    if not any(x):
        raise ValueError("zero covector")
    v = min(pval(c, self.p) for c in x if c)
    prim = tuple(c // self.p**v for c in x)
    return prim, v - k0


def reference_class_slope(a, sigma):
    """Growth rate in {0,1} of v(<a,z>) along the pointed edge parameter.

    Combinatorial rule: normalize the covector to M_0 \\ pM_0 and return 1
    exactly when its class mod p lies in the image of M_1."""
    _require_edge(sigma)
    prim, _ = covector_coordinates(sigma, lift_covector(a))
    rref, piv = sigma.chain_mod_p()[1]
    p = sigma.p
    return 1 if in_span_modp(rref, piv, [c % p for c in prim], p) else 0


def reference_slope(a, sigma):
    """Growth rate in {0,1} of v(<a,z>) along the pointed edge parameter.

    Combinatorial rule, as a valuation jump: 1 + v_{M_1}(a) - v_{M_0}(a)."""
    _require_edge(sigma)
    a = lift_covector(a)
    m0, m1 = sigma.lattices
    return 1 + m1.valuation(a) - m0.valuation(a)


# Test-only helpers: the fiber of a level map, a rank over Q and a table of
# edge residues, which no library code uses.


def pivot(pt):
    """Position of the first unit coordinate of a canonical point."""
    return next(i for i, c in enumerate(pt.rep) if c % pt.p)


def fiber(pt, n):
    """All level-n canonical points reducing to pt (n >= pt.level)."""
    if n < pt.level:
        raise ValueError("fiber level must be >= point level")
    p, m = pt.p, pt.level
    step = p**m
    count = p ** (n - m)
    free = [j for j in range(pt.dim + 1) if j != pivot(pt)]
    out = []
    for idx in range(count ** len(free)):
        rep = list(pt.rep)
        t = idx
        for j in free:
            rep[j] = rep[j] + step * (t % count)
            t //= count
        out.append(ProjPoint(p, n, tuple(rep)))
    return out


# Reference modular elimination: the modular solve with its own
# Gauss-Jordan loop over Z/p^k and rref_modp over F_p only, as they were
# before the solve became the right block of rref_modp at k > 1, kept
# verbatim.  matinv_mod is that right block against the identity, and the
# reference unit inverse solves with this loop, not the library's.


def reference_solve_mod(mat, rhs, p, k):
    """X with mat . X = rhs modulo p^k, by Gauss-Jordan elimination; rhs is
    an n x m matrix.  Requires det(mat) a unit mod p."""
    n = len(mat)
    mod = p**k
    a = [[x % mod for x in row] + [x % mod for x in b] for row, b in zip(mat, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] % p != 0), None)
        if piv is None:
            raise ValueError("matrix is not invertible mod p")
        a[col], a[piv] = a[piv], a[col]
        s = pow(a[col][col], -1, mod)
        # columns left of col vanish in the pivot row, so only the tail moves
        tail = [(s * x) % mod for x in a[col][col:]]
        a[col][col:] = tail
        for i, row in enumerate(a):
            f = row[col]
            if f and i != col:
                row[col:] = [(x - f * y) % mod for x, y in zip(row[col:], tail)]
    return tuple(tuple(row[n:]) for row in a)


def reference_rref_modp(rows, p):
    """Reduced row echelon form over F_p.  Returns (rows, pivot_columns)."""
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        s = pow(m[r][c], -1, p)
        m[r] = [(s * x) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(m[i]) for i in range(r)), tuple(pivots)


# Reference F_p span test and basis completion: intlinalg.in_span_modp and
# complete_basis_modp as they were before the completion read the pivot
# columns of one rref_modp, kept verbatim.  The span test stays for the
# references that read membership off an echelon form.


def in_span_modp(basis_rref, pivots, v, p):
    """Membership of v in the row space given by a precomputed RREF."""
    v = [x % p for x in v]
    for row, c in zip(basis_rref, pivots):
        if v[c]:
            f = v[c]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


def reference_complete_basis_modp(current, candidates, p):
    """Greedily extend `current` by rows from `candidates` to a larger independent set.

    A candidate is added exactly when it lies outside the span of the rows
    so far.  Returns the added rows reduced mod p, in order.
    """
    added = []
    echelon = rref_modp(current, p)
    for cand in candidates:
        if not in_span_modp(*echelon, cand, p):
            added.append(tuple(x % p for x in cand))
            echelon = rref_modp([*current, *added], p)
    return added


def rank_int(rows):
    """Rank over Q (= number of nonzero elementary divisors)."""
    return len(snf_divisors(rows))


def reference_snf_divisors(rows):
    """Elementary divisors (Smith normal form diagonal), nonneg, divisibility
    chain, by the pivot search that alternating Hermite reduction replaced."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    divisors = []
    t = 0
    while t < min(nr, nc):
        # locate a nonzero entry in the trailing block
        entries = [
            (abs(m[i][j]), i, j)
            for i in range(t, nr)
            for j in range(t, nc)
            if m[i][j] != 0
        ]
        if not entries:
            break
        while True:
            _, i0, j0 = min(entries)
            m[t], m[i0] = m[i0], m[t]
            for row in m:
                row[t], row[j0] = row[j0], row[t]
            # clear column t then row t
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    dirty = dirty or m[i][t] != 0
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    dirty = dirty or m[t][j] != 0
            if not dirty:
                # enforce divisibility of the trailing block by the pivot
                bad = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if m[i][j] % m[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                m[t] = [a + b for a, b in zip(m[t], m[bad])]
            entries = [
                (abs(m[i][j]), i, j)
                for i in range(t, nr)
                for j in range(t, nc)
                if m[i][j] != 0
            ]
        divisors.append(abs(m[t][t]))
        t += 1
    return divisors


class CochainTable:
    """Edge-residue values over a finite window of pointed edges and ordered
    class pairs; values are always in {-1, 0, 1} and antisymmetric."""

    def __init__(self, entries):
        self.entries = list(entries)
        for edge, pair, value in self.entries:
            if value not in (-1, 0, 1):
                raise ValueError("edge residue outside {-1,0,1}")

    @classmethod
    def build(cls, edges, classes):
        entries = []
        for edge in edges:
            slopes = {x: slope(x, edge) for x in classes}
            for a in classes:
                for b in classes:
                    if a == b:
                        continue
                    entries.append((edge, (a, b), slopes[b] - slopes[a]))
        return cls(entries)

    def value(self, edge, a, b):
        for e, pair, v in self.entries:
            if e == edge and pair == (a, b):
                return v
        raise KeyError("pair not tabulated")

    def records(self):
        for edge, (a, b), value in self.entries:
            yield {
                "edge": edge.to_json(),
                "pair": [list(a.rep), list(b.rep)],
                "value": value,
            }


# Reference certified point pairs: the parent's two-dimensional
# certify._dual_pair and criterion 11's inline d = 2 pair, kept verbatim.


def reference_dual_pair(p, N=40):
    """Two distinct certified points on the middle of the base edge."""
    desc = FieldDesc(p=p, e=2, N=N)
    pi = FieldElem.pi(desc)
    one = FieldElem.one(desc)
    z1 = SymmetricSpacePoint([one, pi])
    z2 = SymmetricSpacePoint([one, pi + pi**3])
    return desc, z1, z2


def reference_equivariance_pair(p):
    # size-3 transports stack several deep section cancellations, so
    # this point carries extra working digits
    desc = FieldDesc(p=p, e=3, N=90)
    pi = FieldElem.pi(desc)
    one = FieldElem.one(desc)
    z1 = SymmetricSpacePoint([one, pi, pi * pi])
    z2 = SymmetricSpacePoint([one, pi + pi**4, pi * pi])
    return desc, z1, z2
