"""Dense univariate polynomial arithmetic over odd prime fields F_p.

Polynomials are immutable values (`_Value`, the slotted base of every value
type of the package): ascending coefficient tuples, each coefficient reduced
mod p, with no trailing zeros (the zero polynomial is the empty tuple).  Hot
paths (modular exponentiation, irreducibility testing, the split of a
reciprocal pair g * g*) work on raw coefficient lists internally.

Three performance tricks keep everything exact but fast in pure Python:

* multiplication beyond a small cutoff uses Kronecker substitution — pack the
  coefficients into one big integer, multiply once, unpack — which rides the
  interpreter's native big-int multiplication.  Each coefficient takes a slot
  of 1, 2, 4 or 8 bytes, an `array` item, so that packing and unpacking run
  in C (`array.tobytes`/`frombytes`); only when a column sum can reach 2^64
  (very large p) are the slots joined and split byte by byte;
* reduction mod a fixed monic modulus (ModulusContext) uses a precomputed
  power-series inverse of the reversed modulus, so each reduction costs two
  multiplications instead of a long division.  Both products are truncated:
  only the quotient's coefficients of the first and the modulus-degree low
  coefficients of the second are unpacked;
* the map L = (times c) o (y -> y^p) mod a fixed modulus, c a unit, is
  linear over F_p, so it is built once as n packed rows c x^(p*j) mod m (one
  powmod, at most n - 1 products); applying it is n big-integer
  multiply-adds and one unpack (von zur Gathen and Shoup, 1992).
  is_irreducible runs Rabin's test on the orbit of x under c = 1, with no
  powering by p and no gcd.  The split of the transform g * g* of an
  irreducible f of degree d sums the orbit of 1 under the twist c of the
  field F_p[y]/(h), h(y) = k^-d f(k y): one table of d rows (d^2 w bytes),
  d - 1 applications, and one Euclid stopped at half the degree d.

Each is cross-checked in the test suite against the plain route it
replaces: schoolbook products, long division, powering by p.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Iterable
from functools import lru_cache
from operator import add, attrgetter, mul

from .config import MAX_POLY_DEGREE, MAX_ROW_TABLE_BYTES
from .errors import InternalConsistencyError, MalformedInputError, ResourceCapError, UsageError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int) -> int:
    """p, if it is an odd prime; UsageError otherwise."""
    if p == 2 or not is_prime(p):
        raise UsageError(f"p must be an odd prime, got {p}")
    return p


def inv_mod(a: int, p: int) -> int:
    try:
        return pow(a, -1, p)
    except ValueError:
        raise UsageError(f"{a} is not invertible mod {p}") from None


def legendre(a: int, p: int) -> int:
    """Quadratic-residue character of a mod p: 1, -1, or 0 for a ≡ 0."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def sqrt_mod_p(a: int, p: int) -> int | None:
    """Canonical square root of a mod p, or None for a non-residue.

    The canonical root is the smaller of the two, i.e. the one lying in
    [0, (p-1)/2].  p must be an odd prime.  Tonelli-Shanks (Cohen, Alg.
    1.5.1) with p - 1 = q 2^s: s - 1 fixed rounds, none when a^q = 1 (every
    p = 3 mod 4).  `is_prime` is only a strong probable-prime test above
    3.3e24, so the root is checked: on a composite that passes, the result
    is a true root, None, or UsageError.
    """
    _check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    x = pow(a, q >> 1, p)  # a^((q-1)/2): r = a^((q+1)/2) and t = a^q, so r^2 = a t
    r, t = a * x % p, a * x * x % p
    if t != 1:
        # the least non-residue of a prime p is below 2*ln(p)^2 under GRH
        # (Bach); with none below that bound, z = 1 fails the check below
        z = next((z for z in range(2, 2 + p.bit_length() ** 2) if legendre(z, p) == -1), 1)
        c = pow(z, q, p)
        for i in range(s - 1, 0, -1):  # the order of t divides 2^i; c's is 2^(i+1)
            if pow(t, 1 << (i - 1), p) != 1:
                r, t = r * c % p, t * c * c % p
            c = c * c % p
    if r * r % p != a:
        raise UsageError(f"modulus {p} is not prime: no square root of {a} found")
    return min(r, p - r)


# ---------------------------------------------------------------------------
# raw coefficient-list kernels (ascending order, trimmed, entries in [0, p))
# ---------------------------------------------------------------------------

# Schoolbook up to this many coefficients in the shorter factor, Kronecker
# beyond.  Measured crossover (Python 3.11, 2-core x86-64), square products:
# at 4 coefficients they tie (p = 53: 4.3 against 4.4 us schoolbook; p = 997:
# 4.7 against 4.7 us), from 5 on Kronecker wins (p = 53: 4.3 against 5.0 us).
# Products of degree <= 3, all that F_{p^n} graphs with n <= 3 make, stay on
# schoolbook.
_KRONECKER_CUTOFF = 4

# Kronecker slot (array typecode, bytes) by the bit length of the column
# bound: the smallest unsigned array item of 1, 2, 4 or 8 bytes that holds it.
_ORDER = sys.byteorder
_SLOTS = tuple(
    next((tc, array(tc).itemsize) for tc in "BHIQ" if 8 * array(tc).itemsize >= bits)
    for bits in range(65)
)


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _sub_raw(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _school_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def _slot(bound: int) -> tuple[str | None, int]:
    """(array typecode, bytes) of a slot that holds every value up to bound;
    no typecode when the bound needs joined bytes."""
    bits = bound.bit_length()
    return _SLOTS[bits] if bits <= 64 else (None, (bits + 7) // 8)


def _pack(cs: list[int], tc: str | None, width: int) -> int:
    if tc:
        return int.from_bytes(array(tc, cs).tobytes(), _ORDER)
    return int.from_bytes(b"".join(c.to_bytes(width, _ORDER) for c in cs), _ORDER)


def _unpack(big: int, count: int, tc: str | None, width: int, p: int) -> list[int]:
    """The `count` low slots of big, each reduced mod p (untrimmed)."""
    raw = big.to_bytes(width * count, _ORDER)
    if tc:
        return [c % p for c in array(tc, raw)]
    return [int.from_bytes(raw[i * width : (i + 1) * width], _ORDER) % p for i in range(count)]


def _kron_mul(a: list[int], b: list[int], p: int, keep: int | None = None) -> list[int]:
    # Pack coefficients into slots wide enough that no column sum collides;
    # array items when the bound fits in 8 bytes, joined bytes beyond.
    out_len = len(a) + len(b) - 1
    if keep is None or keep > out_len:
        keep = out_len
    tc, width = _slot(min(len(a), len(b)) * (p - 1) * (p - 1))
    abig = _pack(a, tc, width)
    prod = abig * (abig if b is a else _pack(b, tc, width))
    if keep < out_len:
        prod &= (1 << (8 * width * keep)) - 1
    return _trim(_unpack(prod, keep, tc, width, p))


def _row_slot(n: int, p: int) -> tuple[str | None, int]:
    """The slot of an n-row packed table over F_p, which holds the column
    bound n*(p-1)^2.  The table takes n^2 slots; past
    config.MAX_ROW_TABLE_BYTES it is refused with ResourceCapError."""
    tc, width = _slot(n * (p - 1) * (p - 1))
    if n * n * width > MAX_ROW_TABLE_BYTES:
        raise ResourceCapError(
            f"a degree-{n} row table takes {n * n * width} bytes, over the cap of "
            f"{MAX_ROW_TABLE_BYTES}"
        )
    return tc, width


class _PackedRows:
    """A linear map on F_p^n given by the images of the n basis vectors, each
    packed into one integer (see _row_slot), so that the image of c,
    sum(c_j * row_j), is n big-integer multiply-adds and one unpack.  The
    size check comes before any row is made."""

    def __init__(self, rows: Iterable[list[int]], n: int, p: int):
        self.n, self.p = n, p
        self.tc, self.width = _row_slot(n, p)
        self.rows = [_pack(row, self.tc, self.width) for row in rows]

    def apply(self, cs: list[int]) -> list[int]:
        """The image of the vector cs (at most n entries in [0, p)), as n
        residues, untrimmed."""
        return _unpack(sum(map(mul, cs, self.rows)), self.n, self.tc, self.width, self.p)


def _mul_raw(a: list[int], b: list[int], p: int, keep: int | None = None) -> list[int]:
    """a * b, or its `keep` low coefficients, trimmed."""
    if not a or not b:
        return []
    if min(len(a), len(b)) <= _KRONECKER_CUTOFF:
        out = _school_mul(a, b, p)
        return out if keep is None or keep >= len(out) else _trim(out[:keep])
    return _kron_mul(a, b, p, keep)


def _divmod_raw(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise UsageError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    r = list(a)
    db = len(b) - 1
    lead_inv = inv_mod(b[-1], p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c:
            c = c * lead_inv % p
            q[i - db] = c
            for j, bj in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * bj) % p
    return _trim(q), _trim(r[:db])


def _euclid(a: list[int], b: list[int], p: int, stop: int) -> tuple[list[int], list[int]]:
    """(r, u): the first remainder r of Euclid on a, b (b included) with at
    most `stop` coefficients, and u b ≡ r (mod a); for deg b < deg a, deg u
    is deg a minus the degree of the remainder before r.  At stop = 1, r = 0
    iff gcd(a, b) != 1, else u / r = 1/b mod a, an inverse in F_p[x]/(a); at
    half of deg a, rational reconstruction (von zur Gathen and Gerhard, ch. 5)."""
    u0, u = [], [1]
    while len(b) > stop:
        q, r = _divmod_raw(a, b, p)
        a, b = b, r
        u0, u = u, _sub_raw(u0, _mul_raw(q, u, p), p)
    return b, u


def _digits(j: int, p: int, n: int) -> list[int]:
    """The n base-p digits of the index j, ascending: the coefficients of
    the polynomial of degree < n that the index stands for."""
    digits = []
    for _ in range(n):
        j, d = divmod(j, p)
        digits.append(d)
    return digits


def _eval_raw(cs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % p
    return acc


def _theta_lift(cs: list[int], n: int, k: int, p: int) -> list[int]:
    """The 2n + 1 coefficients of (x/k)^n c(k(x + 1/x)), for k nonzero mod p
    and c = sum c_i y^i given by at most n + 1 coefficients cs: Horner's rule
    h <- h (x^2 + 1) + c_i k^(i-n) x^(n-i) from i = n down, on one packed
    integer (see _slot), two shifts and two additions a step.  A step at most
    doubles a slot and adds at most p - 1, so slots that hold (p - 1) 2^(r+1)
    are reduced mod p every r = max(1, 62 - bitlen(p - 1)) steps."""
    kinv = inv_mod(k, p)
    size = 2 * n + 1
    r = max(1, 62 - (p - 1).bit_length())
    tc, width = _slot((p - 1) << (r + 1))
    bits = 8 * width
    h, scale = 0, 1  # scale = k^(i-n)
    for i in range(n, -1, -1):
        c = cs[i] * scale % p if i < len(cs) else 0
        h += (h << 2 * bits) + (c << (n - i) * bits)
        scale = scale * kinv % p
        if (n - i) % r == r - 1 and i:
            h = _pack(_unpack(h, size, tc, width, p), tc, width)
    return _unpack(h, size, tc, width, p)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


class _Value:
    """Immutable value: `__init__` sets the `__slots__` once (`_set`).  repr shows
    them all; equality and hash use the first `_compared`, within one type."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__[: getattr(cls, "_compared", None)])
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setstate__(self, state) -> None:  # copy and pickle: (None, {slot: value})
        self._set(*map(state[1].get, self.__slots__))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Poly(_Value):
    """Immutable polynomial over F_p; coefficients ascending, reduced, trimmed."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable[int], p: int):
        _check_odd_prime(p)
        self._set(tuple(_trim([c % p for c in coeffs])), p)

    @classmethod
    def x(cls, p: int) -> "Poly":
        return cls((0, 1), p)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero:
            raise UsageError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        inv = inv_mod(self.leading, self.p)
        return Poly(tuple(c * inv % self.p for c in self.coeffs), self.p)

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(tuple(c * other % self.p for c in self.coeffs), self.p)
        if self.p != other.p:
            raise UsageError(f"mixed moduli: {self.p} vs {other.p}")
        return Poly(tuple(_mul_raw(list(self.coeffs), list(other.coeffs), self.p)), self.p)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        return _eval_raw(list(self.coeffs), x, self.p)

    def __str__(self) -> str:
        return format_poly(self)


# ---------------------------------------------------------------------------
# reduction context and modular exponentiation
# ---------------------------------------------------------------------------


class ModulusContext:
    """Arithmetic mod a fixed monic modulus, with precomputed fast reduction.

    Below a degree cutoff, reduction is plain long division.  Above it, the
    context precomputes the power-series inverse of the reversed modulus by
    Newton iteration; reducing a product then costs two multiplications.
    """

    # Measured crossover for reducing a product of two reduced polynomials
    # (Python 3.11, 2-core x86-64): at p = 53 Newton takes 15.2 against
    # 13.7 us by division at degree 8 and 15.3 against 16.7 us at degree 9;
    # at p = 997 it already wins at degree 8, 14.7 against 15.3 us.
    _NEWTON_CUTOFF = 9

    def __init__(self, modulus: Poly):
        if modulus.degree < 1:
            raise UsageError("modulus must have degree >= 1")
        if not modulus.is_monic:
            modulus = modulus.monic()
        self.modulus = modulus
        self.p = modulus.p
        self.n = modulus.degree
        self._m = list(modulus.coeffs)
        self._inv_rev: list[int] | None = None
        if self.n >= self._NEWTON_CUTOFF:
            self._inv_rev = self._newton_inverse(self.n)

    def _newton_inverse(self, target: int) -> list[int]:
        p = self.p
        f = self._m[::-1]  # reversed modulus; constant term 1 since monic
        g = [1]
        prec = 1
        while prec < target:
            prec = min(2 * prec, target)
            fg = _mul_raw(f[:prec], g, p, prec)
            corr = [(-c) % p for c in fg] + [0] * (prec - len(fg))
            corr[0] = (corr[0] + 2) % p
            g = _mul_raw(g, _trim(corr), p, prec)
        return g

    def reduce(self, c: list[int]) -> list[int]:
        c = _trim(list(c))
        n = self.n
        if len(c) <= n:
            return c
        d = len(c) - 1
        if self._inv_rev is None or d > 2 * n - 2:
            return _divmod_raw(c, self._m, self.p)[1]
        p = self.p
        ell = d - n + 1  # number of quotient coefficients
        crev = c[::-1][:ell]
        qrev = _mul_raw(crev, self._inv_rev[:ell], p, ell)
        qrev += [0] * (ell - len(qrev))
        q = qrev[::-1]
        qm = _mul_raw(_trim(q), self._m, p, n)
        qm += [0] * (n - len(qm))
        return _trim([(c[i] - qm[i]) % p for i in range(n)])

    def mulmod(self, a: list[int], b: list[int]) -> list[int]:
        return self.reduce(_mul_raw(a, b, self.p))

    def powmod(self, base: list[int], e: int) -> list[int]:
        if e < 0:
            raise UsageError("negative exponent")
        result = [1]
        acc = self.reduce(list(base))
        while e:
            if e & 1:
                result = self.mulmod(result, acc)
            e >>= 1
            if e:
                acc = self.mulmod(acc, acc)
        return result

    def _frobenius_rows(self, first: list[int]):
        # rows first * x^(p*j) mod m, j < n, of y -> first * y^p: one powmod
        # for x^p and at most n - 1 products
        row = first
        yield row
        x_to_p = self.powmod([0, 1], self.p)
        for _ in range(self.n - 1):
            row = x_to_p if row == [1] else self.mulmod(row, x_to_p)
            yield row


# ---------------------------------------------------------------------------
# irreducibility and equal-degree factorization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: f of degree n is irreducible over F_p iff
    x^(p^n) ≡ x mod f and the product of x^(p^(n/r)) - x over the primes r
    dividing n is not 0 mod f (an irreducible f divides no x^(p^j) - x with
    j < n, so a zero product at any checkpoint ends the test).  The powers
    x^(p^j) are the orbit of x under the packed Frobenius rows x^(pj) mod f:
    n applications, and no gcd.  An oversized row table is refused with
    ResourceCapError before any row is made."""
    n, p = f.degree, f.p
    if n < 1:
        raise UsageError("irreducibility is undefined for constants")
    if n == 1:
        return True
    ctx = ModulusContext(f)
    rows = _PackedRows(ctx._frobenius_rows([1]), n, p)
    checkpoints = {n // r for r in _prime_factors(n)}
    x = z = [0, 1]
    witness = None
    for j in range(1, n + 1):
        z = rows.apply(z)
        if j in checkpoints:
            diff = _sub_raw(z, x, p)
            witness = diff if witness is None else ctx.mulmod(witness, diff)
            if not witness:
                return False
    return _trim(z) == x


def _reciprocal_cofactor(g: list[int], f: list[int], p: int) -> list[int] | None:
    """g* = x^d g(1/x) / g(0), monic, if g(0) != 0 and g * g* == f; else None."""
    if not g or not g[0]:
        return None
    inv = inv_mod(g[0], p)
    star = [c * inv % p for c in reversed(g)]
    return star if _mul_raw(g, star, p) == f else None


def equal_degree_factorize(f: Poly, k: int) -> list[Poly]:
    """Split the transform F = (x/k)^d f(k(x + 1/x)) of a monic irreducible
    f of degree d with character legendre(f(2k) f(-2k), p) = +1 into g and
    g* = x^d g(1/x) / g(0), the two distinct monic irreducibles of degree d
    with g * g* = F (Meyn 1990; S. D. Cohen 1992), sorted by coefficient
    tuple.  f must be irreducible; that is not checked here (a chain's f0
    passes Rabin's test, and the character certifies each later step).

    F = x^d h(x + 1/x) with h(y) = k^-d f(k y), and the work runs in the
    field K = F_p[y]/(h), y = x + 1/x.  For w = x - 1/x, w^2 = D = y^2 - 4
    is in K and (w b)^p = w L(b) for b in K, with L = (times c) o
    (y -> y^p), c = D^((p-1)/2): one table of d packed rows c y^(pj) mod h,
    d^2 w bytes.  The trace of a = w b is T = w S, with
    S = sum_(i<d) L^i(b).  D is a square in K, so T is t mod g and -t mod
    g*, D S^2 = t^2, and w = t / S on the roots of g.  b runs through y^j,
    j < d, until t != 0: b -> t is a nonzero linear form on K, so some y^j
    has t != 0, and for the reference chains b = 1 does.

    g is read off one Euclid at degree d (rational reconstruction).  For
    d = 2m, g = x^m (P(y) + w Q(y)), deg P <= m, deg Q < m, P S ≡ -t Q
    (mod h); for d = 2m + 1, g = x^m ((x - 1) P(y) + (x + 1) Q(y)), deg P,
    deg Q <= m, (y - 2) S P ≡ -t Q, as (x - 1) / (x + 1) = (y - 2) / w.
    `_euclid(h, S or (y - 2) S, p, ceil(d/2))` gives P = -t u, Q = r; any
    such (P, Q) vanishes on the d roots of g, so it gives a multiple of g.

    MalformedInputError when f(2k) f(-2k) = 0 (D not a unit in K), when D S^2
    is not a constant square (the character is -1), or when g fails the
    g != g* or g * g* == F check.
    """
    d, p = f.degree, f.p
    m, odd = divmod(d, 2)
    if d < 1 or not f.is_monic:
        raise UsageError("the split needs a monic polynomial of degree >= 1")
    _row_slot(d, p)  # an oversized table is refused before any work
    fx = list(f.coeffs)
    kinv = inv_mod(k, p)
    reject = MalformedInputError(f"the transform is not a product of a degree-{d} "
                                 "irreducible and its reciprocal")
    if _eval_raw(fx, 2 * k, p) * _eval_raw(fx, -2 * k, p) % p == 0:
        raise reject
    hx = [c * pow(kinv, d - i, p) % p for i, c in enumerate(fx)]
    ctx = ModulusContext(Poly(tuple(hx), p))
    delta = ctx.reduce([-4 % p, 0, 1])
    rows = _PackedRows(ctx._frobenius_rows(ctx.powmod(delta, (p - 1) // 2)), d, p)
    for j in range(d):
        s = z = [0] * j + [1] + [0] * (d - 1 - j)  # b = y^j
        for _ in range(d - 1):
            z = rows.apply(z)
            s = list(map(add, s, z))
        s = _trim([c % p for c in s])
        square = ctx.mulmod(delta, ctx.mulmod(s, s))
        if not square:
            continue
        t = sqrt_mod_p(square[0], p) if len(square) == 1 else None
        if t is None:
            raise reject
        r, u = _euclid(hx, ctx.mulmod(s, [-2 % p, 1]) if odd else s, p, m + odd)
        # g ~ cq R - cu U, R = x^(m-1+odd) r(x + 1/x), U = x^m u(x + 1/x)
        cq, cu = ([1, 1], [-t % p, t]) if odd else ([p - 1, 0, 1], [t])
        g = _sub_raw(_mul_raw(cq, _theta_lift(r, m - 1 + odd, 1, p), p),
                     _mul_raw(cu, _theta_lift(u, m, 1, p), p), p)
        g = list(Poly(tuple(g), p).monic().coeffs)
        star = _reciprocal_cofactor(g, _theta_lift(fx, d, k, p), p)
        if star is None or star == g:
            raise reject
        return [Poly(tuple(h), p) for h in sorted((g, star))]
    raise reject


def smallest_irreducible(p: int, n: int) -> Poly:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    A candidate with f(0) = 0 is skipped before any arithmetic; Rabin's
    test decides the rest.
    """
    if n < 1:
        raise UsageError("degree must be positive")
    if n == 1:
        return Poly.x(p)
    for idx in range(p**n):
        if idx % p == 0:
            continue
        cand = Poly(tuple(_digits(idx, p, n) + [1]), p)
        if is_irreducible(cand):
            return cand
    raise InternalConsistencyError(f"no irreducible of degree {n} over F_{p}")


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def format_poly(f: Poly) -> str:
    """Comma-separated ascending coefficients; '0' for the zero polynomial."""
    if f.is_zero:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def format_poly_human(f: Poly) -> str:
    """Readable descending form, e.g. 'x^5+3*x+51'."""
    if f.is_zero:
        return "0"
    terms = []
    for e in range(f.degree, -1, -1):
        c = f.coefficient(e)
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
    return "+".join(terms)


# One human-form term, after parse_poly drops the '*' of c*x (c opening the term):
# a sign (optional on the first), then c, x, cx, x^e or cx^e up to the next sign,
# or else the bad term up to it.  \Z, not $, which also matches before a final newline.
_TERM = re.compile(r"([+-]?)(?:(\d*)(x(?:\^(\d+))?)?(?=[+-]|\Z)|([^+-]*))")


def _capped_degree(text: str) -> int:
    """The decimal degree `text`, or ResourceCapError above
    config.MAX_POLY_DEGREE; its length is checked before int() meets it."""
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_POLY_DEGREE)) or int(digits) > MAX_POLY_DEGREE:
        raise ResourceCapError(f"polynomial degree exceeds the cap of {MAX_POLY_DEGREE}")
    return int(digits)


def parse_poly(text: str, p: int) -> Poly:
    """Parse either coefficient-list form ('51,3,0,0,0,1', ascending) or the
    human form ('x^5+3*x+51', '*' only in c*x); coefficients are reduced mod p.
    A degree above config.MAX_POLY_DEGREE raises ResourceCapError."""
    s = text.strip()
    if not s:
        raise MalformedInputError("empty polynomial")
    if not s.isascii():
        # str.isdigit and int() would accept other scripts' digits
        raise MalformedInputError(f"polynomial text must be ASCII: {text!r}")
    if all(ch.isdigit() or ch in ",- " for ch in s):
        _capped_degree(str(s.count(",")))
        try:
            return Poly(tuple(int(tok) for tok in s.split(",")), p)
        except ValueError:
            raise MalformedInputError(f"bad coefficient list: {text!r}") from None
    compact = re.sub(r"(?<![^+-])(\d+)\*(?=x)", r"\1", s.replace(" ", "").replace("**", "^"))
    if "*" in compact:
        raise MalformedInputError(f"'*' stands only between a coefficient and x: {text!r}")
    if not compact or compact[0] not in "+-x0123456789" or compact[-1] in "+-":
        raise MalformedInputError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(compact):
        term = _TERM.match(compact, pos)
        pos = term.end()
        sign, num, x, digits, bad = term.groups()
        if bad:
            raise MalformedInputError(f"cannot parse term {bad!r} in {text!r}")
        if not (num or x):
            raise MalformedInputError(f"cannot parse polynomial: {text!r}")
        e = _capped_degree(digits) if digits else (1 if x else 0)
        try:
            c = int(num or "1")
        except ValueError:  # more digits than int() converts
            raise MalformedInputError(f"bad coefficient in {text!r}") from None
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
    return Poly(tuple(coeffs.get(e, 0) for e in range(max(coeffs) + 1)), p)
