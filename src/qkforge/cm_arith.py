"""Arithmetic in two imaginary-quadratic orders and the depth pairs they induce.

Supported discriminants:

* -4: the Gaussian integers Z[i], attached to the curve y^2 = x^3 + x.
  Elements are a + b*i with norm a^2 + b^2.
* -7: the maximal order Z[alpha] with alpha^2 = alpha - 2 (alpha is
  (1 + sqrt(-7))/2), attached to y^2 = x^3 - 35x + 98.  Elements are
  a + b*alpha with norm a^2 + ab + 2b^2.

For a prime p split in the order, counting points on the attached curve
pins down the Frobenius element pi up to conjugation and sign, and the
conventions below (positive second coordinate, trace matching the point
count) make it canonical.

A multiplier k of class C2 / C3 / C3- determines a *depth pair* (e0, e1) at
extension degree n:

* C2:  e0 = nu_2(N(pi^n - 1)),  e1 = nu_2(N(pi^n + 1))   (2 ramifies in Z[i],
  so the 2-adic valuation of the norm is the right prime-above-2 valuation);
* C3:  e0 = nu_rho0(pi^n - 1),  e1 = nu_rho0(pi^n + 1), where rho0 is the
  prime above 2 (alpha or its conjugate) whose residue mod pi matches
  2k + 1 mod p;
* C3-: the same with k replaced by -k (a C3 multiplier).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .config import DEFAULT_EXPONENT_CAP
from .errors import (
    InternalConsistencyError,
    ResourceCapError,
    UnsupportedPrimeError,
    UsageError,
)
from .ffpoly import inv_mod, is_prime
from .qk import CLASSES, classify_k

_SUPPORTED_DISCS = (-4, -7)


@dataclass(frozen=True)
class QuadInt:
    """An element of Z[i] (disc -4) or Z[alpha] (disc -7), coordinates (a, b)
    over the basis {1, i} respectively {1, alpha}."""

    a: int
    b: int
    disc: int

    def __post_init__(self) -> None:
        if self.disc not in _SUPPORTED_DISCS:
            raise UsageError(f"unsupported discriminant {self.disc}")

    def _check(self, other: "QuadInt") -> None:
        if self.disc != other.disc:
            raise UsageError("mixed discriminants")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.disc)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.disc)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.disc)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.a * other, self.b * other, self.disc)
        self._check(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.disc == -4:
            return QuadInt(a * c - b * d, a * d + b * c, -4)
        # alpha^2 = alpha - 2
        return QuadInt(a * c - 2 * b * d, a * d + b * c + b * d, -7)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QuadInt":
        if e < 0:
            raise UsageError("negative powers are not defined here")
        result = QuadInt(1, 0, self.disc)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            if e:
                acc = acc * acc
        return result

    def conj(self) -> "QuadInt":
        if self.disc == -4:
            return QuadInt(self.a, -self.b, -4)
        # conjugate of alpha is 1 - alpha
        return QuadInt(self.a + self.b, -self.b, -7)

    def norm(self) -> int:
        a, b = self.a, self.b
        if self.disc == -4:
            return a * a + b * b
        return a * a + a * b + 2 * b * b

    def __repr__(self) -> str:
        sym = "i" if self.disc == -4 else "alpha"
        return f"QuadInt({self.a} + {self.b}*{sym})"


def one(disc: int) -> QuadInt:
    return QuadInt(1, 0, disc)


@dataclass(frozen=True)
class CurveParams:
    """Short Weierstrass curve y^2 = x^3 + a4*x + a6 with CM by the order of
    discriminant disc."""

    disc: int
    a4: int
    a6: int


CURVE_DISC4 = CurveParams(-4, 1, 0)
CURVE_DISC7 = CurveParams(-7, -35, 98)
CURVES = {curve.disc: curve for curve in (CURVE_DISC4, CURVE_DISC7)}


def _check_split_prime(p: int, curve: CurveParams) -> None:
    """p must split in the curve's order, i.e. satisfy the congruence of the
    multiplier classes attached to that order."""
    if p == 2 or not is_prime(p):
        raise UsageError(f"p must be an odd prime, got {p}")
    spec = next(s for s in CLASSES.values() if s.disc == curve.disc)
    if not spec.admits(p):
        raise UnsupportedPrimeError(
            f"p={p} fails the congruence of the disc {curve.disc} order: "
            f"it {spec.congruence_text()}"
        )


@lru_cache(maxsize=None)
def count_points(curve: CurveParams, p: int) -> int:
    """#E(F_p) for the given curve, by a quadratic-character sum in O(p)."""
    _check_split_prime(p, curve)
    squares = bytearray(p)
    for x in range(p // 2 + 1):
        squares[x * x % p] = 1
    a4, a6 = curve.a4 % p, curve.a6 % p
    total = p + 1
    for x in range(p):
        v = (x * x % p * x + a4 * x + a6) % p
        if v:
            total += 1 if squares[v] else -1
    return total


@lru_cache(maxsize=None)
def _frobenius_pi_disc(p: int, disc: int) -> QuadInt:
    curve = CURVES[disc]
    _check_split_prime(p, curve)
    t = p + 1 - count_points(curve, p)
    if disc == -4:
        if t % 2 != 0:
            raise InternalConsistencyError("odd trace for a curve with 2-torsion")
        a = t // 2
        b = isqrt(p - a * a)
        pi = QuadInt(a, b, -4)
    else:
        rem = 4 * p - t * t
        if rem % 7 != 0:
            raise InternalConsistencyError("trace incompatible with disc -7")
        v = isqrt(rem // 7)
        if v * v * 7 != rem or (t - v) % 2 != 0:
            raise InternalConsistencyError("trace incompatible with disc -7")
        pi = QuadInt((t - v) // 2, v, -7)
    if pi.norm() != p or pi.b <= 0:
        raise InternalConsistencyError(f"bad Frobenius normalization for p={p}")
    return pi


def frobenius_pi(p: int, class_name: str) -> QuadInt:
    """The canonical Frobenius element of norm p and trace p + 1 - #E(F_p)
    in the order attached to the multiplier class.

    Canonical form: second coordinate positive; first coordinate determined
    by the trace.  C2 (disc -4): pi = (t/2) + b*i with b = isqrt(p - (t/2)^2).
    C3 / C3- (disc -7): pi = u + v*alpha with v = isqrt((4p - t^2)/7),
    u = (t - v)/2.
    """
    spec = CLASSES.get(class_name)
    if spec is None or spec.disc is None:
        raise UsageError(
            f"no CM order is attached to class {class_name!r}; expected C2, C3, or C3-"
        )
    return _frobenius_pi_disc(p, spec.disc)


def rho0_select(p: int, k: int, pi: QuadInt) -> QuadInt:
    """The prime above 2 in Z[alpha] matching the C3 or C3- multiplier k.

    k solves 2k^2 + bk + 1 = 0 with b = 1 (C3) or b = -1 (C3-), so 2bk + 1
    is a root of x^2 - x + 2 mod p (the minimal polynomial of alpha), hence
    the residue of exactly one of alpha, conj(alpha) modulo pi; return that
    one.
    """
    if pi.disc != -7:
        raise UsageError("rho0 selection lives in the disc -7 order")
    k %= p
    spec = classify_k(p, k).spec
    if spec is None or spec.disc != -7:
        raise UsageError(f"k={k} is not a C3 or C3- multiplier mod {p}")
    u, v = pi.a, pi.b
    if v % p == 0:
        raise InternalConsistencyError("Frobenius with p | v cannot happen for split p")
    sigma = (2 * spec.b * k + 1) % p
    alpha_res = (-u) * inv_mod(v, p) % p
    if alpha_res == sigma:
        return QuadInt(0, 1, -7)
    if (1 - alpha_res) % p == sigma:
        return QuadInt(1, -1, -7)
    raise InternalConsistencyError("neither embedding matches the multiplier residue")


def exact_div(z: QuadInt, w: QuadInt) -> QuadInt | None:
    """z / w when w divides z exactly in the order, else None."""
    z._check(w)
    nw = w.norm()
    if nw == 0:
        raise UsageError("division by zero")
    num = z * w.conj()
    if num.a % nw or num.b % nw:
        return None
    return QuadInt(num.a // nw, num.b // nw, z.disc)


def rho_valuation(z: QuadInt, rho: QuadInt, exponent_cap: int = DEFAULT_EXPONENT_CAP) -> int:
    """Largest e with rho^e dividing z, by repeated exact division.

    rho must be a prime above 2, i.e. have norm exactly 2; anything else is
    rejected so the valuation is guaranteed to be a genuine prime valuation.
    """
    if rho.norm() != 2:
        raise UsageError(
            f"valuations are taken at a prime above 2; norm(rho)={rho.norm()} != 2"
        )
    if z.norm() == 0:
        raise UsageError("the zero element has infinite valuation")
    e = 0
    while True:
        q = exact_div(z, rho)
        if q is None:
            return e
        z = q
        e += 1
        if e > exponent_cap:
            raise ResourceCapError(
                f"valuation exceeded the exponent cap {exponent_cap}"
            )


def _nu2(m: int, exponent_cap: int) -> int:
    if m == 0:
        raise UsageError("the zero integer has infinite 2-adic valuation")
    e = ((m & -m).bit_length()) - 1
    if e > exponent_cap:
        raise ResourceCapError(f"valuation exceeded the exponent cap {exponent_cap}")
    return e


@dataclass(frozen=True)
class DepthPair:
    """The pair (e0, e1) of prime-above-2 valuations of pi^n -+ 1, together
    with the context (p, n, multiplier class) it was computed for."""

    e0: int
    e1: int
    p: int
    n: int
    class_name: str

    @property
    def s_bound(self) -> int:
        return max(self.e0, self.e1)

    @property
    def st_bound(self) -> int:
        return self.e0 + self.e1


def depths(p: int, k: int, n: int, exponent_cap: int = DEFAULT_EXPONENT_CAP) -> DepthPair:
    """Depth pair for multiplier k at extension degree n.

    Raises UnsupportedPrimeError when the required CM structure does not
    exist at p, and UsageError for k outside the C2/C3/C3- classes.
    """
    if n < 1:
        raise UsageError("extension degree must be positive")
    kc = classify_k(p, k)
    name = kc.name
    if kc.spec is None or kc.spec.disc is None:
        raise UsageError(
            f"depth pairs are defined for C2, C3, and C3- multipliers; "
            f"k={k} mod {p} is {name}"
        )
    pi = frobenius_pi(p, name)
    z = pi**n
    if pi.disc == -4:
        e0 = _nu2((z - one(-4)).norm(), exponent_cap)
        e1 = _nu2((z + one(-4)).norm(), exponent_cap)
    else:
        rho0 = rho0_select(p, k, pi)
        e0 = rho_valuation(z - one(-7), rho0, exponent_cap)
        e1 = rho_valuation(z + one(-7), rho0, exponent_cap)
    return DepthPair(e0, e1, p, n, name)
