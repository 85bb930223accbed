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
pi^v, one slice of rows) and inverts it in closed form, with no linear
solve.  A rational-integer unit is inverted by pow().  Any other unit u is
multiplied by an adjugate w (a - b pi at e = 2, the cofactors of the norm
form at e = 3, the conjugate under pi -> -pi and then the e = 2 form at
e = 4) so that u*w lies in the unramified ring Z_p[omega]/p^k; there the
first adjugate column of the multiplication matrix takes it to a rational
integer, inverted by pow().  At f >= 2 the rows of u are packed into ints,
one omega-digit a slot, so the closed forms are int arithmetic at every f.
A power x**k is taken by binary powering from x itself, after one
inversion 1/x when k < 0; products are exact in the ring, so its digits
are those of |k| repeated products.

The core is kept lean because every criterion spends most of its time
here: FieldElem is a slotted value class, FieldDesc is one object per
shape (p, e, f, N) that computes its modulus, working precision and
product tables once, a pi-shift moves whole rows by tuple slices, and at
f = 1 a product is one bigint multiplication of Kronecker-packed
coefficient vectors (D. Harvey, J. Symbolic Comput. 44, 2009).  At
f >= 2 the product stays schoolbook: packing the wider omega slots
measured slower there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd
from operator import lshift, mul

from .intlinalg import require_int, require_prime

MAX_E = 4
MAX_F = 3


class PrecisionError(ArithmeticError):
    """A comparison or valuation could not be resolved at working precision."""


@lru_cache(maxsize=None)
def unramified_min_poly(p, f):
    """Low-order coefficients (c_0..c_{f-1}) of the chosen monic irreducible
    x^f + c_{f-1} x^{f-1} + ... + c_0 over F_p.  Deterministic: smallest
    coefficient tuple.  For f <= 3 irreducibility is equivalent to having
    no root in F_p."""
    if f == 1:
        return (0,)  # unused; omega is absent for f = 1
    assert f in (2, 3)
    # coeffs = (c_0, ..., c_{f-1}), scanned lexicographically
    return next(
        coeffs for coeffs in product(range(p), repeat=f)
        if all((x**f + sum(c * x**i for i, c in enumerate(coeffs))) % p
               for x in range(p))
    )


_FIELDS = {}


@dataclass(frozen=True, init=False)
class FieldDesc:
    """Finite description of the working field: prime p, ramification e,
    residue degree f, precision N in pi-units.

    One object per shape (p, e, f, N): FieldDesc(...) returns the field
    already built for the shape, copies and pickles included, so its
    modulus, working precision and product tables are built once and two
    fields are equal exactly when they are the same object.  The ints are
    checked before the table is read, since 3.0 and True hash as 3 and 1;
    a shape the checks refuse is never stored."""

    p: int
    e: int
    f: int
    N: int

    def __new__(cls, p, e=1, f=1, N=24):
        key = (p, e, f, N)
        if not (p.__class__ is e.__class__ is f.__class__ is N.__class__ is int):
            for value, what in zip(key, ("the prime", "the ramification",
                                         "the residue degree", "the precision")):
                require_int(value, what)
        field = _FIELDS.get(key)
        if field is None:
            require_prime(p)
            if not (1 <= e <= MAX_E):
                raise ValueError(f"ramification e = {e} outside [1, {MAX_E}]")
            if not (1 <= f <= MAX_F):
                raise ValueError(f"residue degree f = {f} outside [1, {MAX_F}]")
            if N < 2 * e:
                raise ValueError("precision N must be at least 2e")
            field = _FIELDS[key] = object.__new__(cls)
            field.__dict__.update(p=p, e=e, f=f, N=N)
        return field

    def __reduce__(self):
        return FieldDesc, (self.p, self.e, self.f, self.N)

    # derived constants, computed once per instance; cached_property writes
    # the instance __dict__, so equality and hashing still see the fields only

    @cached_property
    def coeff_exponent(self):
        """Coefficients are stored modulo p^coeff_exponent."""
        return -(-self.N // self.e)

    @cached_property
    def coeff_modulus(self):
        return self.p**self.coeff_exponent

    @cached_property
    def work_prec(self):
        """Pi-adic precision actually carried by a full coefficient vector."""
        return self.e * self.coeff_exponent

    @cached_property
    def _packing(self):
        """(bits, mask) of one Kronecker slot at f = 1: a slot holds any
        coefficient of the unreduced product of two reduced vectors."""
        bits = (self.e * (self.coeff_modulus - 1) ** 2).bit_length()
        return bits, (1 << bits) - 1

    @cached_property
    def _omega_packing(self):
        """(bits, offset, shifts, columns) of _pack_omega at e >= 2 and
        f >= 2.  The closed forms of _unit_inverse take rows of f digits
        below the modulus m to integer polynomials in omega of degree at
        most e(f-1), so e(f-1)+1 slots.  Each is a form of degree e in the
        rows (an adjugate row times a packed inverse norm too) whose
        coefficients sum in size to at most 4(p+1)^3, which bounds the
        e = 4 norm's (1+3p)^2 + p(3+p)^2; the digits of a row sum to less
        than f m.  So every coefficient is below 4(p+1)^3 (f m)^e in size,
        and a slot of bits bits holds it with its sign.  offset puts half a
        slot in each slot, at the given shifts; columns[j] pairs the
        omega^j digits of each omega^t with the offset's share of them."""
        p, e, f, m = self.p, self.e, self.f, self.coeff_modulus
        bits = (4 * (p + 1) ** 3 * (f * m) ** e).bit_length() + 1
        half, top = 1 << (bits - 1), e * (f - 1)
        shifts = tuple(range(0, (top + 1) * bits, bits))
        powers = _omega_powers(p, f, top)[: top + 1]
        columns = tuple((col, half * sum(col)) for col in zip(*powers))
        return bits, sum(half << s for s in shifts), shifts, columns

    @cached_property
    def _schoolbook(self):
        """Index tables of the schoolbook product at f >= 2.  Digit
        pi^i omega^j of a vector goes to slot i*(2f-1) + j of the unreduced
        product, so slots add under multiplication; `fold` lists
        (slot, digit, scale) with which pi^e = p and the omega minimal
        polynomial take each product slot back into the basis."""
        e, f = self.e, self.f
        row = 2 * f - 1
        slots = tuple(i * row + j for i in range(e) for j in range(f))
        fold = tuple(
            (i * row + t, (i % e) * f + j, self.p ** (i // e) * c)
            for i in range(2 * e - 1)
            for t, powers in enumerate(self.omega_power_table())
            for j, c in enumerate(powers)
            if c
        )
        return slots, (2 * e - 1) * row, fold

    def omega_power_table(self):
        """omega^t for t in [0, 2f-2] as integer vectors in basis omega^j."""
        return _omega_powers(self.p, self.f, 2 * self.f - 2)[: 2 * self.f - 1]

    def to_json(self):
        return {"p": self.p, "e": self.e, "f": self.f, "N": self.N}


_OMEGA_POWERS = {}


def _omega_powers(p, f, j):
    """omega^t for t in [0, j] and beyond, as unreduced integer vectors in
    basis omega^j: one table per (p, f >= 2), grown from 1 by _omega_step."""
    rows = _OMEGA_POWERS.get((p, f))
    if rows is None:
        rows = _OMEGA_POWERS[p, f] = [(1,) + (0,) * (f - 1)]
    while len(rows) <= j:
        rows.append(tuple(_omega_step(rows[-1], unramified_min_poly(p, f))))
    return rows


@dataclass(slots=True, unsafe_hash=True)
class FieldElem:
    """pi^shift * (sum coeffs[i*f+j] pi^i omega^j), trusted modulo pi^prec
    of the polynomial part (absolute precision is shift + prec).

    A value: no method changes an instance after __init__.  Not frozen,
    so construction is plain slot assignment."""

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
        if require_int(n, "an integer element") == 0:
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
        """omega^j for an int j >= 0 from the omega table (1 at f = 1)."""
        require_int(j, "an omega exponent", least=0)
        f, mod = desc.f, desc.coeff_modulus
        if f == 1:
            return FieldElem.one(desc)
        row = [c % mod for c in _omega_powers(desc.p, f, j)[j]]
        return FieldElem(desc, 0, tuple(row + [0] * (desc.e - 1) * f), desc.work_prec)

    @staticmethod
    def from_coeffs(desc, rows, shift=0):
        """pi^shift times the digits rows, a length e*f vector of ints (not
        bool or float) in basis pi^i omega^j; the shift is an int too."""
        require_int(shift, "a shift")
        raw = list(rows)
        for c in raw:
            require_int(c, "a digit")
        if len(raw) != desc.e * desc.f:
            raise ValueError(
                f"a digit vector needs exactly {desc.e * desc.f} digits "
                f"(e*f), got {len(raw)}"
            )
        # only an all-zero input is exact, at any shift; digits that merely
        # vanish modulo p^coeff_exponent leave an inexact zero, as in from_int
        if not any(raw):
            return FieldElem.zero(desc)
        coeffs = tuple(c % desc.coeff_modulus for c in raw)
        return FieldElem(desc, shift, coeffs, desc.work_prec)

    # -- structure helpers ---------------------------------------------------

    def _poly_valuation(self):
        """Valuation of the polynomial part in pi-units, or None if every
        stored digit below `prec` vanishes.

        Row i (the digits at pi^i) contributes i + e*v_p(gcd of the row);
        no later row can beat a minimum of at most i."""
        desc = self.desc
        e, f, p = desc.e, desc.f, desc.p
        coeffs = self.coeffs
        best = None
        for i in range(e):
            if best is not None and best <= i:
                break
            g = gcd(*coeffs[i * f : (i + 1) * f])
            if g:
                v = i
                while g % p == 0:
                    g //= p
                    v += e
                if best is None or v < best:
                    best = v
        if best is None or best >= self.prec:
            return None
        return best

    def pi_valuation(self):
        """Exact valuation in pi-units (an int, e times valuation()).
        Raises ValueError for the exact zero, which has none, and
        PrecisionError when the stored digits cannot resolve it.  Integers
        of two FieldDescs with different e are on different scales."""
        if self.exact_zero:
            raise ValueError("valuation of zero is undefined")
        v = self._poly_valuation()
        if v is None:
            raise PrecisionError(
                f"valuation >= {Fraction(self.shift + self.prec, self.desc.e)}; "
                "increase N to resolve"
            )
        return self.shift + v

    def valuation(self):
        """Exact valuation as a Fraction.  Raises ValueError for the exact
        zero and PrecisionError when the stored digits cannot resolve it."""
        return Fraction(self.pi_valuation(), self.desc.e)

    def valuation_at_least(self, q):
        """True if v(self) >= q can be certified (q a Fraction in p-units)."""
        if self.exact_zero:
            return True
        v = self._poly_valuation()
        bound = self.shift + (self.prec if v is None else v)
        return bound >= q * self.desc.e

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        mod = self.desc.coeff_modulus
        return FieldElem(
            self.desc,
            self.shift,
            tuple([-c % mod for c in self.coeffs]),
            self.prec,
            self.exact_zero,
        )

    def __add__(self, other):
        desc = self.desc
        if other.__class__ is not FieldElem or other.desc is not desc:
            other = _coerce(desc, other)
        if self.exact_zero:
            return other
        if other.exact_zero:
            return self
        s, t = self.shift, other.shift
        ca, cb = self.coeffs, other.coeffs
        if s < t:
            cb = _shift_poly(desc, cb, t - s)
        elif t < s:
            ca = _shift_poly(desc, ca, s - t)
        low = min(s, t)
        prec = min(self.prec + s - low, other.prec + t - low, desc.work_prec)
        mod = desc.coeff_modulus
        return FieldElem(
            desc, low, tuple([(a + b) % mod for a, b in zip(ca, cb)]), prec
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(self.desc, other))

    def __rsub__(self, other):
        return _coerce(self.desc, other) + (-self)

    def __mul__(self, other):
        if other.__class__ is int:
            return self._scale_int(other)
        desc = self.desc
        if other.__class__ is not FieldElem or other.desc is not desc:
            other = _coerce(desc, other)
        if self.exact_zero or other.exact_zero:
            return FieldElem.zero(desc)
        coeffs = _poly_mul(desc, self.coeffs, other.coeffs)
        return FieldElem(
            desc,
            self.shift + other.shift,
            coeffs,
            min(self.prec, other.prec),
        )

    def __rmul__(self, other):
        if other.__class__ is int:
            return self._scale_int(other)
        return _coerce(self.desc, other) * self

    def _scale_int(self, n):
        if n == 0 or self.exact_zero:
            return FieldElem.zero(self.desc)
        if n == 1:
            # digits are reduced, so the product by 1 keeps them
            return self
        mod = self.desc.coeff_modulus
        return FieldElem(
            self.desc,
            self.shift,
            tuple([n * c % mod for c in self.coeffs]),
            self.prec,
        )

    def times_pi_power(self, k):
        """self * pi^k as a shift: the digits stay, the shift grows by k and
        prec is capped at work_prec, as the product with pi_power gives."""
        if self.exact_zero:
            return FieldElem.zero(self.desc)
        return FieldElem(
            self.desc,
            self.shift + k,
            self.coeffs,
            min(self.prec, self.desc.work_prec),
        )

    def __truediv__(self, other):
        desc = self.desc
        if other.__class__ is not FieldElem or other.desc is not desc:
            other = _coerce(desc, other)
        if other.exact_zero:
            raise ZeroDivisionError("division by exact zero")
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
        """self**k for an int k by binary powering from the base: one
        inversion for a negative k, then a square per bit and a product per
        set bit after the lowest.  The products are exact ring maps mod
        p^coeff_exponent, so the shift, digits and prec are those of k
        repeated products; the base first takes what a product by 1 gives
        it: prec capped at work_prec and an exact zero at shift 0."""
        require_int(k, "an exponent")
        desc = self.desc
        if k == 0:
            return FieldElem.one(desc)
        # times_pi_power(0) is the product by 1
        base = self.times_pi_power(0) if k > 0 else FieldElem.one(desc) / self
        acc = None
        k = abs(k)
        while True:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if not k:
                return acc
            base = base * base

    # -- comparisons ---------------------------------------------------------

    def agrees_with(self, other):
        """True when self - other vanishes to the joint trusted precision."""
        diff = self - _coerce(self.desc, other)
        return diff.exact_zero or diff._poly_valuation() is None

    def to_json(self):
        return {
            "shift": self.shift,
            "prec": self.prec,
            "coeffs": [str(c) for c in self.coeffs],
        }


def _coerce(desc, x):
    if isinstance(x, FieldElem):
        if x.desc is not desc:
            raise ValueError("mixed field descriptions")
        return x
    return FieldElem.from_int(desc, x)


def _shift_poly(desc, coeffs, k):
    """Multiply a coefficient vector by pi^k (k >= 0), reducing pi^e -> p.

    With k = q*e + r, row i moves to row i + r times p^q, except the top r
    rows, which wrap round to the bottom times p^(q + 1)."""
    assert k >= 0
    if k == 0:
        return tuple(coeffs)
    q, r = divmod(k, desc.e)
    mod = desc.coeff_modulus
    stay = pow(desc.p, q, mod)
    wrap = stay * desc.p % mod
    cut = len(coeffs) - r * desc.f
    return tuple(
        [c * wrap % mod for c in coeffs[cut:]]
        + [c * stay % mod for c in coeffs[:cut]]
    )


def _poly_mul(desc, ca, cb):
    """Product of coefficient vectors, reduced by pi^e = p and the omega
    minimal polynomial."""
    if desc.f == 1:
        return _packed_mul(desc, ca, cb)
    slots, width, fold = desc._schoolbook
    wide = [0] * width
    nonzero = [(slots[t], c) for t, c in enumerate(cb) if c]
    for t, c1 in enumerate(ca):
        if c1:
            at = slots[t]
            for s, c2 in nonzero:
                wide[at + s] += c1 * c2
    out = [0] * (desc.e * desc.f)
    for src, dst, scale in fold:
        c = wide[src]
        if c:
            out[dst] += scale * c
    mod = desc.coeff_modulus
    return tuple([c % mod for c in out])


def _packed_mul(desc, ca, cb):
    """_poly_mul at f = 1 by Kronecker substitution: pack each vector into
    one integer, one slot per pi-digit, take one bigint product and fold
    its slot e + i onto slot i (pi^(e+i) = p pi^i).  The digits must be
    reduced (in [0, coeff_modulus)), as every FieldElem's are."""
    e, p, mod = desc.e, desc.p, desc.coeff_modulus
    bits, mask = desc._packing
    a = b = 0
    for x, y in zip(reversed(ca), reversed(cb)):
        a = (a << bits) | x
        b = (b << bits) | y
    low = a * b
    high = low >> (e * bits)
    out = []
    for _ in range(e):
        out.append(((low & mask) + p * (high & mask)) % mod)
        low >>= bits
        high >>= bits
    return tuple(out)


def _extract_unit(desc, coeffs, prec, v):
    """Divide the polynomial part exactly by pi^v; returns (unit, prec - v).

    The inverse of _shift_poly: with v = q*e + r, rows from r on move down
    r rows divided by p^q, and the bottom r rows wrap round to the top
    divided by p^(q + 1)."""
    if v == 0:
        return coeffs, prec
    q, r = divmod(v, desc.e)
    stay = desc.p**q
    wrap = stay * desc.p
    cut = r * desc.f
    low, high = coeffs[:cut], coeffs[cut:]
    if any(c % stay for c in high) or any(c % wrap for c in low):
        raise PrecisionError("inexact division by pi")
    return tuple([c // stay for c in high] + [c // wrap for c in low]), prec - v


def _omega_step(block, low):
    """omega * (sum_j block[j] omega^j) in the basis omega^j, unreduced;
    low holds the low-order coefficients of the omega minimal polynomial."""
    top = block[-1]
    return [s - top * c for s, c in zip([0, *block[:-1]], low)]


def _unit_inverse(desc, unit_coeffs):
    """Inverse of a unit polynomial part modulo pi^work_prec: the vector x
    with u*x = 1, in closed form, with no linear solve.

    A rational integer is inverted by pow().  Otherwise u is multiplied by
    an adjugate w whose product n = u*w lies in the unramified ring
    R = Z_p[omega]/p^k (k = coeff_exponent), and x = w * n^-1.  Write
    u = a + b pi + c pi^2 + d pi^3 with a, b, c, d in R (as many rows as
    e) and use pi^e = p:

    - e = 2: w = a - b pi, so u*w = a^2 - b^2 pi^2 and n = a^2 - p b^2.
    - e = 3: w = A + B pi + C pi^2 with A = a^2 - p b c, B = p c^2 - a b
      and C = b^2 - a c.  The pi-digit of u*w is a B + b A + p c C = 0 and
      its pi^2-digit a C + b B + c A = 0, so n = a A + p (b C + c B), the
      norm a^3 + p b^3 + p^2 c^3 - 3 p a b c.
    - e = 4: with s = pi^2 (s^2 = p), u = X + pi Y for X = a + c s and
      Y = b + d s.  pi -> -pi is a ring automorphism, and
      (X + pi Y)(X - pi Y) = X^2 - s Y^2 = n0 + n1 s with
      n0 = a^2 + p (c^2 - 2 b d) and n1 = 2 a c - b^2 - p d^2 (norm
      descent to the ring of s, of ramification 2).  The e = 2 form in s
      then gives (n0 + n1 s)(n0 - n1 s) = n = n0^2 - p n1^2, so
      w = (X - pi Y)(n0 - n1 s), whose pi-rows are a n0 - p c n1,
      p d n1 - b n0, c n0 - a n1 and b n1 - d n0.
    - e = 1: u lies in R itself, and _ring_inverse inverts it.

    n is a unit exactly when u is, so at f = 1 n^-1 is pow(n, -1) and at
    f >= 2 it is _ring_inverse(n).  At f >= 2 the rows of u,
    integer polynomials in omega, are packed into ints (_pack_omega), so
    that every closed form above is int arithmetic at every f; the results
    are reduced by omega's minimal polynomial on unpacking.  A unit has one
    inverse modulo p^k, so the digits are those of any other method."""
    p, e, f = desc.p, desc.e, desc.f
    if not any(c % p for c in unit_coeffs[:f]):
        raise PrecisionError("inverse of a non-unit")
    mod = desc.coeff_modulus
    if not any(unit_coeffs[1:]):
        # a rational integer unit needs no adjugate
        inv = pow(unit_coeffs[0], -1, mod)
        return (inv,) + (0,) * (e * f - 1)
    if e == 1:
        return _ring_inverse(desc, unit_coeffs)
    # the rows of u: its digits at f = 1, omega-packed polynomials at f >= 2
    if f == 1:
        rows = unit_coeffs
    else:
        rows = _pack_omega(desc, unit_coeffs)
    if e == 2:
        a, b = rows
        adj, norm = (a, -b), a * a - p * b * b
    elif e == 3:
        a, b, c = rows
        A, B, C = a * a - p * b * c, p * c * c - a * b, b * b - a * c
        adj, norm = (A, B, C), a * A + p * (b * C + c * B)
    else:
        a, b, c, d = rows
        n0, n1 = a * a + p * (c * c - 2 * b * d), 2 * a * c - b * b - p * d * d
        adj = (a * n0 - p * c * n1, p * d * n1 - b * n0, c * n0 - a * n1, b * n1 - d * n0)
        norm = n0 * n0 - p * n1 * n1
    if f == 1:
        inv = pow(norm, -1, mod)
        return tuple([x * inv % mod for x in adj])
    (inv,) = _pack_omega(desc, _ring_inverse(desc, _unpack_omega(desc, (norm,))))
    return _unpack_omega(desc, [x * inv for x in adj])


def _ring_inverse(desc, digits):
    """Inverse of a unit u of the unramified ring R = Z_p[omega]/p^k at
    f >= 2, given by its f digits.  The matrix M of multiplication by u on
    the basis omega^j has columns u, u omega, u omega^2, and M x = e_0 is
    solved by Cramer's rule: x is the first column of the adjugate of M
    over det M, a rational integer and a unit exactly when u is.  At
    f = 2, with omega^2 = -c_1 omega - c_0 and u = a + b omega, that column
    is the conjugate a - c_1 b - b omega and det M = a^2 - c_1 a b + c_0 b^2."""
    p, f, mod = desc.p, desc.f, desc.coeff_modulus
    # the columns u*omega^j, unreduced
    cols = [digits]
    for _ in range(f - 1):
        cols.append(_omega_step(cols[-1], unramified_min_poly(p, f)))
    if f == 2:
        (_, a1), (_, b1) = cols
        adj = (b1, -a1)
    else:
        (_, a1, a2), (_, b1, b2), (_, c1, c2) = cols
        adj = (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)
    inv = pow(sum(map(mul, [col[0] for col in cols], adj)), -1, mod)
    return tuple([c * inv % mod for c in adj])


def _pack_omega(desc, digits):
    """The rows of f digits of a digit vector, each an element of the
    unramified ring, as ints: the digit of omega^j in slot j of
    desc._omega_packing.  Sums and products of packed rows are the packed
    sums and products of the rows as integer polynomials in omega, not yet
    reduced by its minimal polynomial."""
    f, shifts = desc.f, desc._omega_packing[2][: desc.f]
    return [sum(map(lshift, digits[t : t + f], shifts)) for t in range(0, len(digits), f)]


def _unpack_omega(desc, rows):
    """The digits in the unramified ring of packed polynomials, reduced,
    row after row: a row plus the offset that lifts every signed slot by
    half a slot has slots >= 0, and slot t folds onto the basis by
    omega^t, less its share of the offset."""
    bits, offset, shifts, columns = desc._omega_packing
    mask, mod = (1 << bits) - 1, desc.coeff_modulus
    digits = []
    for x in rows:
        x += offset
        slots = [x >> s & mask for s in shifts]
        digits += [(sum(map(mul, slots, col)) - lift) % mod for col, lift in columns]
    return tuple(digits)


# ---------------------------------------------------------------------------
# Vectors of field elements


def linear_form(a, z, shifted=None):
    """sum a_i z_i for integer scalars a and FieldElem vector z.

    The sum is fused: each digit vector moves to the least shift of the
    nonzero terms once, the integer dot product of each digit position is
    reduced once, and prec is the least term precision at that shift,
    capped at work_prec as a chain of adds would give.  Scaling, pi-shifts
    and adds are ring maps mod p^coeff_exponent, so the digits are those
    of the chain of adds.

    `shifted` is the memo of moved digit vectors, keyed by (id(z_i), k),
    that linear_forms shares between the forms of one batch."""
    desc = z[0].desc
    scalars, terms = [], []
    for ai, zi in zip(a, z):
        if ai.__class__ is not int:
            raise TypeError(
                f"linear_form takes int scalars, not {type(ai).__name__}"
            )
        if not ai:
            continue
        if zi.desc is not desc:
            raise ValueError("mixed field descriptions")
        if not zi.exact_zero:
            scalars.append(ai)
            terms.append(zi)
    if not terms:
        return FieldElem.zero(desc)
    if len(terms) == 1:
        return terms[0]._scale_int(scalars[0])
    low = min([zi.shift for zi in terms])
    prec = desc.work_prec
    digits = []
    for zi in terms:
        k = zi.shift - low
        if not k:
            digits.append(zi.coeffs)
        elif shifted is None:
            digits.append(_shift_poly(desc, zi.coeffs, k))
        else:
            key = (id(zi), k)
            moved = shifted.get(key)
            if moved is None:
                moved = shifted[key] = _shift_poly(desc, zi.coeffs, k)
            digits.append(moved)
        if zi.prec + k < prec:
            prec = zi.prec + k
    mod = desc.coeff_modulus
    return FieldElem(
        desc,
        low,
        tuple([sum(map(mul, scalars, col)) % mod for col in zip(*digits)]),
        prec,
    )


def linear_forms(rows, z):
    """[linear_form(a, z) for a in rows], moving each z_i to a given shift
    once for the whole batch.  Each form goes through the module's
    linear_form, one call per row."""
    shifted = {}
    return [linear_form(a, z, shifted) for a in rows]


def normalize_unimodular(vec):
    """Scale a vector of FieldElems so the minimum valuation is 0 and the
    first coordinate attaining it is exactly 1."""
    live = [(x.pi_valuation(), i) for i, x in enumerate(vec) if not x.exact_zero]
    if not live:
        raise ValueError("cannot normalize the zero vector")
    _, idx = min(live)
    one = FieldElem.one(vec[idx].desc)
    # x * (1 / pivot) has the shift, digits and prec of x / pivot
    inv = one / vec[idx]
    return tuple(one if i == idx else x * inv for i, x in enumerate(vec))
