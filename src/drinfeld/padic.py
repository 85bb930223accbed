"""Exact arithmetic in truncated extensions L = Q_p(pi, omega).

pi is a ramification-e root of p (pi^e = p) and omega generates the
unramified part, a root of the smallest monic degree-f polynomial that is
irreducible mod p.  Elements are stored as integer coefficient vectors in
the basis pi^i omega^j (0 <= i < e, 0 <= j < f), coefficients reduced
modulo p^ceil(N/e), together with an exact power of pi factored out in
`shift` and a pessimistic trusted precision `prec` in pi-units.

Valuations are computed by the Newton-polygon rule for x^e - p: the basis
contributions i/e have distinct fractional parts, so
    v(sum_i row_i pi^i) = min_i (v_p(row_i) + i/e)
holds exactly whenever the minimum is attained by a trusted digit.
Comparisons that the stored digits cannot resolve raise PrecisionError
rather than guessing.

Division extracts the unit part of the divisor (its polynomial part over
pi^v) and inverts it with one linear solve mod p^coeff_exponent against
its multiplication matrix; a rational-integer unit is inverted by pow().
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .intlinalg import solve_mod

MAX_E = 4
MAX_F = 3


class PrecisionError(ArithmeticError):
    """A comparison or valuation could not be resolved at working precision."""


def is_prime(p):
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


@lru_cache(maxsize=None)
def unramified_min_poly(p, f):
    """Low-order coefficients (c_0..c_{f-1}) of the chosen monic irreducible
    x^f + c_{f-1} x^{f-1} + ... + c_0 over F_p.  Deterministic: smallest
    coefficient tuple.  For f <= 3 irreducibility is equivalent to having
    no root in F_p."""
    if f == 1:
        return (0,)  # unused; omega is absent for f = 1
    assert f in (2, 3)
    from itertools import product as iproduct

    for coeffs in iproduct(range(p), repeat=f):
        # coeffs = (c_0, ..., c_{f-1}), scanned lexicographically
        def value(x):
            acc = x**f
            for i, c in enumerate(coeffs):
                acc += c * x**i
            return acc % p

        if all(value(x) != 0 for x in range(p)):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldDesc:
    """Finite description of the working field: prime p, ramification e,
    residue degree f, precision N in pi-units."""

    p: int
    e: int = 1
    f: int = 1
    N: int = 24

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if not (1 <= self.e <= MAX_E):
            raise ValueError(f"ramification e = {self.e} outside [1, {MAX_E}]")
        if not (1 <= self.f <= MAX_F):
            raise ValueError(f"residue degree f = {self.f} outside [1, {MAX_F}]")
        if self.N < 2 * self.e:
            raise ValueError("precision N must be at least 2e")

    @property
    def coeff_exponent(self):
        """Coefficients are stored modulo p^coeff_exponent."""
        return -(-self.N // self.e)

    @property
    def coeff_modulus(self):
        return self.p**self.coeff_exponent

    @property
    def work_prec(self):
        """Pi-adic precision actually carried by a full coefficient vector."""
        return self.e * self.coeff_exponent

    def omega_power_table(self):
        """omega^t for t in [0, 2f-2] as integer vectors in basis omega^j."""
        return _omega_powers(self.p, self.f)

    def to_json(self):
        return {"p": self.p, "e": self.e, "f": self.f, "N": self.N}


@lru_cache(maxsize=None)
def _omega_powers(p, f):
    rows = [tuple(1 if j == t else 0 for j in range(f)) for t in range(f)]
    if f > 1:
        low = unramified_min_poly(p, f)
        for _ in range(f - 1):
            rows.append(tuple(_omega_step(rows[-1], low)))
    return tuple(rows)


@dataclass(frozen=True)
class FieldElem:
    """pi^shift * (sum coeffs[i*f+j] pi^i omega^j), trusted modulo pi^prec
    of the polynomial part (absolute precision is shift + prec)."""

    desc: FieldDesc
    shift: int
    coeffs: tuple
    prec: int
    exact_zero: bool = False

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(desc):
        return FieldElem(desc, 0, (0,) * (desc.e * desc.f), desc.work_prec, True)

    @staticmethod
    def from_int(desc, n):
        if n == 0:
            return FieldElem.zero(desc)
        coeffs = [0] * (desc.e * desc.f)
        coeffs[0] = n % desc.coeff_modulus
        return FieldElem(desc, 0, tuple(coeffs), desc.work_prec)

    @staticmethod
    def one(desc):
        return FieldElem.from_int(desc, 1)

    @staticmethod
    def pi(desc):
        return FieldElem.pi_power(desc, 1)

    @staticmethod
    def pi_power(desc, k):
        return FieldElem(
            desc, k, FieldElem.one(desc).coeffs, desc.work_prec
        )

    @staticmethod
    def omega(desc):
        return FieldElem.omega_power(desc, 1)

    @staticmethod
    def omega_power(desc, j):
        if desc.f == 1:
            return FieldElem.one(desc)
        if j < 0 or j > 2 * desc.f - 2:
            acc = FieldElem.one(desc)
            w = FieldElem.omega(desc)
            for _ in range(abs(j)):
                acc = acc * w if j > 0 else acc / w
            return acc
        coeffs = [0] * (desc.e * desc.f)
        vec = desc.omega_power_table()[j]
        for jj, c in enumerate(vec):
            coeffs[jj] = c % desc.coeff_modulus
        return FieldElem(desc, 0, tuple(coeffs), desc.work_prec)

    @staticmethod
    def from_coeffs(desc, rows, shift=0):
        """rows: length e*f integer vector in basis pi^i omega^j."""
        raw = [int(c) for c in rows]
        mod = desc.coeff_modulus
        coeffs = tuple(c % mod for c in raw)
        # only an all-zero input is exact; digits that merely vanish modulo
        # p^coeff_exponent leave an inexact zero, as in from_int
        if not any(raw):
            return FieldElem.zero(desc) if shift == 0 else FieldElem(
                desc, shift, coeffs, desc.work_prec, True
            )
        return FieldElem(desc, shift, coeffs, desc.work_prec)

    @staticmethod
    def from_rational(desc, q):
        q = Fraction(q)
        return FieldElem.from_int(desc, q.numerator) / FieldElem.from_int(
            desc, q.denominator
        )

    # -- structure helpers ---------------------------------------------------

    def _row(self, i):
        f = self.desc.f
        return self.coeffs[i * f : (i + 1) * f]

    def _poly_valuation(self):
        """Valuation of the polynomial part in pi-units, or None if every
        stored digit below `prec` vanishes."""
        e, p = self.desc.e, self.desc.p
        best = None
        for i in range(e):
            for c in self._row(i):
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

    def valuation(self):
        """Exact valuation as a Fraction, +inf for the exact zero.
        Raises PrecisionError when the stored digits cannot resolve it."""
        if self.exact_zero:
            return float("inf")
        v = self._poly_valuation()
        if v is None:
            raise PrecisionError(
                f"valuation >= {Fraction(self.shift + self.prec, self.desc.e)}; "
                "increase N to resolve"
            )
        return Fraction(self.shift + v, self.desc.e)

    def valuation_at_least(self, q):
        """True if v(self) >= q can be certified (q a Fraction in p-units)."""
        if self.exact_zero:
            return True
        v = self._poly_valuation()
        bound = self.shift + (self.prec if v is None else v)
        return Fraction(bound, self.desc.e) >= Fraction(q)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        mod = self.desc.coeff_modulus
        return FieldElem(
            self.desc,
            self.shift,
            tuple((-c) % mod for c in self.coeffs),
            self.prec,
            self.exact_zero,
        )

    def __add__(self, other):
        other = _coerce(self.desc, other)
        if self.exact_zero:
            return other
        if other.exact_zero:
            return self
        desc = self.desc
        s = min(self.shift, other.shift)
        ca = _shift_poly(desc, self.coeffs, self.shift - s)
        cb = _shift_poly(desc, other.coeffs, other.shift - s)
        pa = min(self.prec + self.shift - s, desc.work_prec)
        pb = min(other.prec + other.shift - s, desc.work_prec)
        mod = desc.coeff_modulus
        coeffs = tuple((a + b) % mod for a, b in zip(ca, cb))
        return FieldElem(desc, s, coeffs, min(pa, pb))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(self.desc, other))

    def __rsub__(self, other):
        return _coerce(self.desc, other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale_int(other)
        other = _coerce(self.desc, other)
        if self.exact_zero or other.exact_zero:
            return FieldElem.zero(self.desc)
        desc = self.desc
        coeffs = _poly_mul(desc, self.coeffs, other.coeffs)
        return FieldElem(
            desc,
            self.shift + other.shift,
            coeffs,
            min(self.prec, other.prec),
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scale_int(other)
        return _coerce(self.desc, other) * self

    def _scale_int(self, n):
        if n == 0 or self.exact_zero:
            return FieldElem.zero(self.desc)
        mod = self.desc.coeff_modulus
        return FieldElem(
            self.desc,
            self.shift,
            tuple((n * c) % mod for c in self.coeffs),
            self.prec,
        )

    def __truediv__(self, other):
        other = _coerce(self.desc, other)
        if other.exact_zero:
            raise ZeroDivisionError("division by exact zero")
        desc = self.desc
        v = other._poly_valuation()
        if v is None:
            raise PrecisionError("division by an element indistinguishable from 0")
        if self.exact_zero:
            return FieldElem.zero(desc)
        unit_coeffs, unit_prec = _extract_unit(desc, other.coeffs, other.prec, v)
        inv = _unit_inverse(desc, unit_coeffs)
        coeffs = _poly_mul(desc, self.coeffs, inv)
        return FieldElem(
            desc,
            self.shift - other.shift - v,
            coeffs,
            min(self.prec, unit_prec),
        )

    def __rtruediv__(self, other):
        return _coerce(self.desc, other) / self

    def __pow__(self, k):
        if k == 0:
            return FieldElem.one(self.desc)
        base = self if k > 0 else FieldElem.one(self.desc) / self
        acc = FieldElem.one(self.desc)
        for _ in range(abs(k)):
            acc = acc * base
        return acc

    # -- comparisons ---------------------------------------------------------

    def agrees_with(self, other, pi_prec=None):
        """True when self - other vanishes to the joint trusted precision
        (optionally capped at pi_prec pi-units)."""
        diff = self - _coerce(self.desc, other)
        if diff.exact_zero:
            return True
        cap = diff.shift + diff.prec
        if pi_prec is not None:
            cap = min(cap, pi_prec)
        v = diff._poly_valuation()
        return v is None or diff.shift + v >= cap

    def to_json(self):
        return {
            "shift": self.shift,
            "prec": self.prec,
            "coeffs": [str(c) for c in self.coeffs],
        }


def _coerce(desc, x):
    if isinstance(x, FieldElem):
        if x.desc != desc:
            raise ValueError("mixed field descriptions")
        return x
    if isinstance(x, int):
        return FieldElem.from_int(desc, x)
    if isinstance(x, Fraction):
        return FieldElem.from_rational(desc, x)
    raise TypeError(f"cannot coerce {type(x).__name__} into FieldElem")


def _shift_poly(desc, coeffs, k):
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


def _poly_mul(desc, ca, cb):
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


def _extract_unit(desc, coeffs, prec, v):
    """Divide the polynomial part exactly by pi^v; returns (unit, prec - v)."""
    e, f, p, mod = desc.e, desc.f, desc.p, desc.coeff_modulus
    rows = [list(coeffs[i * f : (i + 1) * f]) for i in range(e)]
    for _ in range(v):
        bottom = rows.pop(0)
        if any(c % p for c in bottom):
            raise PrecisionError("inexact division by pi")
        rows.append([c // p for c in bottom])
    return tuple(c % mod for row in rows for c in row), prec - v


def _omega_step(block, low):
    """omega * (sum_j block[j] omega^j) in the basis omega^j, unreduced;
    low holds the low-order coefficients of the omega minimal polynomial."""
    top = block[-1]
    return [s - top * c for s, c in zip([0, *block[:-1]], low)]


def _times_omega(desc, coeffs):
    """Multiply a coefficient vector by omega."""
    f, mod = desc.f, desc.coeff_modulus
    low = unramified_min_poly(desc.p, f)
    out = []
    for i in range(0, len(coeffs), f):
        out.extend(c % mod for c in _omega_step(coeffs[i : i + f], low))
    return tuple(out)


def _unit_inverse(desc, unit_coeffs):
    """Inverse of a unit polynomial part modulo pi^work_prec: the vector x
    with u*x = 1, from one linear solve mod p^coeff_exponent whose column t
    is u*pi^i*omega^j (t = i*f + j)."""
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
            u_pi = _shift_poly(desc, u_pi, 1)
        columns.append(u_pi)
        for _ in range(f - 1):
            columns.append(_times_omega(desc, columns[-1]))
    rhs = [(1,)] + [(0,)] * (e * f - 1)
    x = solve_mod(tuple(zip(*columns)), rhs, p, desc.coeff_exponent)
    return tuple(row[0] for row in x)


# ---------------------------------------------------------------------------
# Vectors of field elements


def linear_form(a, z):
    """sum a_i z_i for integer (or Fraction) scalars a and FieldElem vector z."""
    desc = z[0].desc
    acc = FieldElem.zero(desc)
    for ai, zi in zip(a, z):
        if isinstance(ai, Fraction):
            if ai == 0:
                continue
            acc = acc + FieldElem.from_rational(desc, ai) * zi
        elif ai:
            acc = acc + ai * zi
    return acc


def normalize_unimodular(vec):
    """Scale a vector of FieldElems so the minimum valuation is 0 and the
    first coordinate attaining it is exactly 1."""
    vals = []
    for x in vec:
        if x.exact_zero:
            vals.append(float("inf"))
        else:
            vals.append(x.valuation())
    finite = [v for v in vals if v != float("inf")]
    if not finite:
        raise ValueError("cannot normalize the zero vector")
    vmin = min(finite)
    idx = vals.index(vmin)
    one = FieldElem.one(vec[idx].desc)
    # x * (1 / pivot) has the shift, digits and prec of x / pivot
    inv = one / vec[idx]
    return tuple(one if i == idx else x * inv for i, x in enumerate(vec))
