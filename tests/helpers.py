"""Shared randomized constructors for tests."""

from drinfeld.building import standard_simplex
from drinfeld.intlinalg import det_int
from drinfeld.padic import FieldElem, _poly_mul


def random_gl_integer(size, rng, p=None, bound=4):
    """Random integer matrix with nonzero determinant; if p is given the
    determinant is additionally prime to p."""
    while True:
        g = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        det = det_int(g)
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
        if det_int(f):
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
