"""Arithmetic in the paper's two CM orders and the depth pairs they induce.

Each discriminant D of qk.CLASSES is that of a maximal order Z[w] with
w = (t + sqrt(D))/2 and t = D mod 2, so w^2 = t*w - s with s = (t - D)/4
and conj(w) = t - w: one product, norm and conjugate serve both orders.
D = -4 gives Z[i], attached to y^2 = x^3 + x; D = -7 gives Z[alpha] with
alpha = (1 + sqrt(-7))/2, attached to y^2 = x^3 - 35x + 98.  2 splits in
Z[w] iff D = 1 (mod 8): into alpha and conj(alpha); it ramifies in Z[i].

For a prime p split in the order, the Frobenius element pi of the attached
curve has norm p, so Cornacchia's algorithm (one square root mod p and a
Euclid loop) finds it up to conjugation and sign; a sign rule on the trace
and a positive second coordinate make it canonical.  `count_points`, the
O(p) character sum, stays as the slow reference for the trace.

A multiplier k of class C2 / C3 / C3- determines a *depth pair* (e0, e1) at
extension degree n:

* C2:  e0 = nu_2(N(pi^n - 1)),  e1 = nu_2(N(pi^n + 1))   (2 ramifies in Z[i],
  so the 2-adic valuation of the norm is the right prime-above-2 valuation);
* C3:  e0 = nu_rho0(pi^n - 1),  e1 = nu_rho0(pi^n + 1), where rho0 is the
  prime above 2 (alpha or its conjugate) whose residue mod pi matches
  2k + 1 mod p;
* C3-: the same with k replaced by -k (a C3 multiplier).

`_embedding` is the one route from a multiplier k to its class, pi and
rho0 (None unless 2 splits); k enters its pairs only through the key
(pi, rho0), so a sweep climbs one ladder per key at p.  The ladder
(`_ladder`) never forms pi^n, whose coordinates grow like p^(n/2): for a
set of degrees it fixes one precision B = 2*(p.bit_length() +
max_n.bit_length()) + 8 from the largest degree and climbs one ladder of
powers z_n = pi^n mod 2^B on integer pairs, z_n = z_(n-1)*pi or z_(n/2)^2
where the set holds that degree.  Without rho0 it reads the depths off
N(z_n -+ 1) mod 2^B; with rho0, off x -+ 1 mod 2^B, where x is z_n with
alpha sent to the 2-adic root of x^2 - x + 2 that lies in rho0 (the
completion at rho0 is Z_2).  Every depth is below the bound of its own
degree, hence below B (see `_ladder`).  `depths` is the ladder of one
degree.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import InternalConsistencyError, UnsupportedPrimeError, UsageError
from .ffpoly import _Value, _check_odd_prime, inv_mod, legendre, sqrt_mod_p
from .qk import CLASSES, classify_k

# D -> (t, s), the trace and norm of w, for each discriminant D of CLASSES.
_ORDERS = {D: (D % 2, (D % 2 - D) // 4) for D in {spec.disc for spec in CLASSES.values()} - {None}}


def _product(disc: int, a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Coordinates of (a + b*w)(c + d*w), by w^2 = t*w - s."""
    t, s = _ORDERS[disc]
    bd = b * d
    return a * c - s * bd, a * d + b * c + t * bd


def _norm(disc: int, a: int, b: int) -> int:
    """N(a + b*w) = (a + b*w)(a + b*conj(w)) = a^2 + t*a*b + s*b^2."""
    t, s = _ORDERS[disc]
    return a * (a + t * b) + s * b * b


def _power(disc: int, c: int, d: int, e: int, mod: int) -> tuple[int, int]:
    """Coordinates of (c + d*w)**e, both reduced mod `mod` after every
    product."""
    a, b = 1 % mod, 0
    while e:
        if e & 1:
            a, b = _product(disc, a, b, c, d)
        e >>= 1
        if e:
            c, d = _product(disc, c, d, c, d)
        a, b, c, d = a % mod, b % mod, c % mod, d % mod
    return a, b


class QuadInt(_Value):
    """a + b*w in the order Z[w] of discriminant disc, one of those of
    qk.CLASSES: coordinates (a, b) over the basis {1, w}."""

    __slots__ = ("a", "b", "disc")

    def __init__(self, a: int, b: int, disc: int):
        if disc not in _ORDERS:
            raise UsageError(f"unsupported discriminant {disc}")
        self._set(a, b, disc)

    def __add__(self, other: "QuadInt") -> "QuadInt":
        if self.disc != other.disc:
            raise UsageError("mixed discriminants")
        return QuadInt(self.a + other.a, self.b + other.b, self.disc)

    def conj(self) -> "QuadInt":
        """a + b*conj(w) = (a + t*b) - b*w."""
        return QuadInt(self.a + _ORDERS[self.disc][0] * self.b, -self.b, self.disc)

    def norm(self) -> int:
        return _norm(self.disc, self.a, self.b)


class CurveParams(_Value):
    """Short Weierstrass curve y^2 = x^3 + a4*x + a6 with CM by the order of
    discriminant disc."""

    __slots__ = ("disc", "a4", "a6")

    def __init__(self, disc: int, a4: int, a6: int):
        self._set(disc, a4, a6)


CURVE_DISC4 = CurveParams(-4, 1, 0)
CURVE_DISC7 = CurveParams(-7, -35, 98)


@lru_cache(maxsize=None)
def count_points(curve: CurveParams, p: int) -> int:
    """#E(F_p) for the given curve, by a quadratic-character sum in O(p).
    p must split in the curve's order, i.e. satisfy the congruence of the
    multiplier classes attached to that order."""
    _check_odd_prime(p)
    spec = next(s for s in CLASSES.values() if s.disc == curve.disc)
    if not spec.admits(p):
        raise UnsupportedPrimeError(
            f"p={p} fails the congruence of the disc {curve.disc} order: "
            f"it {spec.congruence_text()}"
        )
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


def _cornacchia(p: int, d: int) -> tuple[int, int]:
    """(x, y) with x, y > 0 and p = x^2 + d*y^2, for d in (1, 7) and a prime p
    split in Q(sqrt(-d)): Euclid's algorithm on p and a square root of -d
    mod p, stopped at the first remainder below sqrt(p) (Cornacchia).  Both
    forms have class number one, so a prime always has a solution; a p
    without one is composite."""
    a, x = p, sqrt_mod_p(-d, p)
    if x is None:
        raise UsageError(f"p={p} is not prime: -{d} has no square root mod p")
    while x * x > p:
        a, x = x, a % x
    y2, rem = divmod(p - x * x, d)
    y = isqrt(y2)
    if rem or y * y != y2 or not x * y:
        raise UsageError(f"p={p} is not prime: it is not of the form x^2 + {d}y^2")
    return x, y


@lru_cache(maxsize=None)
def _frobenius_pi_disc(p: int, disc: int) -> QuadInt:
    """The canonical Frobenius element of norm p and trace t = p + 1 - #E(F_p)
    in the order of discriminant disc, found without counting points: 4p =
    t^2 - disc*v^2 and pi = (t - (disc mod 2)*v)/2 + v*w with v > 0, t signed
    by the curve's rule.  p must split in the order: `_embedding`, the only
    caller, has admitted it through classify_k."""
    if disc == -4:
        # p = a^2 + v^2 with a odd and pi = a + v*i.  For y^2 = x^3 + x the
        # trace is 2a with a = 1 (mod 4): Ireland-Rosen, A Classical
        # Introduction to Modern Number Theory, 2nd ed., Ch. 18 Sec. 4, on
        # y^2 = x^3 - Dx with D = -1 (the primary pi times the quartic
        # character (-1/pi)_4 = (-1)^((p-1)/4)).
        x, y = _cornacchia(p, 1)
        a, v = (x, y) if x % 2 else (y, x)
        t = 2 * a if a % 4 == 1 else -2 * a
    else:
        # Odd t and v would give t^2 + 7v^2 = 0 (mod 8), so both are even:
        # p = (t/2)^2 + 7(v/2)^2.  Sign rule for y^2 = x^3 - 35x + 98
        # (Rubin-Silverberg, Choosing the correct elliptic curve in the CM
        # method, Math. Comp. 79 (2010), the case j = -3375): legendre(t, 7)
        # is +1 exactly when t = 2 (mod 4).  As pi = t/2 (mod sqrt(-7)) and
        # t = 2 (mod 4) exactly when p = 1 (mod 4), the rule fixes the
        # quadratic character of pi mod sqrt(-7) to legendre(-1, p).
        x, y = _cornacchia(p, 7)
        t, v = 2 * x, 2 * y
        if (legendre(t, 7) == 1) != (t % 4 == 2):
            t = -t
    pi = QuadInt((t - disc % 2 * v) // 2, v, disc)
    if pi.norm() != p or pi.b <= 0:
        raise InternalConsistencyError(f"bad Frobenius normalization for p={p}")
    return pi


_ALPHA = QuadInt(0, 1, -7)
_ALPHA_BAR = _ALPHA.conj()


def _rho0(p: int, k: int, b: int, pi: QuadInt) -> QuadInt:
    """The prime above 2 in Z[alpha] that the C3 (b = 1) or C3- (b = -1)
    multiplier k selects, for pi of disc -7: k solves 2k^2 + bk + 1 = 0 mod p,
    so 2bk + 1 is a root of x^2 - x + 2 mod p (the minimal polynomial of
    alpha), hence the residue mod pi of exactly one of alpha, conj(alpha);
    return that one.  So C3 k and C3- -k select the same prime."""
    u, v = pi.a, pi.b
    if v % p == 0:
        raise InternalConsistencyError("Frobenius with p | v cannot happen for split p")
    sigma = (2 * b * k + 1) % p
    alpha_res = (-u) * inv_mod(v, p) % p
    if alpha_res == sigma:
        return _ALPHA
    if (1 - alpha_res) % p == sigma:
        return _ALPHA_BAR
    raise InternalConsistencyError("neither embedding matches the multiplier residue")


def _nu2(m: int) -> int:
    """nu_2 of a residue mod 2^B; a zero residue means the bound on B failed."""
    if m == 0:
        raise InternalConsistencyError("a depth reached the 2-adic precision bound")
    return (m & -m).bit_length() - 1


@lru_cache(maxsize=None)
def _alpha_root_2adic(parity: int, bits: int) -> int:
    """The root of x^2 - x + 2 in Z/2^bits with the given parity, lifted from
    x = parity mod 2 by Newton's method (the derivative 2x - 1 is odd)."""
    mod, x = 1 << bits, parity
    for _ in range(bits.bit_length()):  # each step doubles the correct bits
        x = (x - (x * x - x + 2) * pow(2 * x - 1, -1, mod)) % mod
    return x


class DepthPair(_Value):
    """The pair (e0, e1) of prime-above-2 valuations of pi^n -+ 1 and what it
    is for: (p, n, multiplier class) and, from `depths`, the key (pi, rho0)."""

    __slots__ = ("e0", "e1", "p", "n", "class_name", "pi", "rho0")
    _compared = 5  # equality and hash ignore the key

    def __init__(self, e0: int, e1: int, p: int, n: int, class_name: str, *,
                 pi: QuadInt | None = None, rho0: QuadInt | None = None):
        self._set(e0, e1, p, n, class_name, pi, rho0)

    @property
    def s_bound(self) -> int:
        return max(self.e0, self.e1)

    @property
    def st_bound(self) -> int:
        return self.e0 + self.e1

    @property
    def pattern(self) -> str:
        """The class's asymptotic doubling pattern, from qk.CLASSES."""
        return CLASSES[self.class_name].pattern


def _embedding(p: int, k: int) -> tuple[str, QuadInt, QuadInt | None]:
    """The class name of k and the key (pi, rho0) through which its depth
    pairs depend on k: pi is the Frobenius element of the order of k's class
    at p (`_frobenius_pi_disc`), so it fixes (p, disc), and rho0 is the prime
    above 2 that k selects (`_rho0`) where 2 splits, i.e. for disc = 1
    (mod 8): C3 and C3-; None for C2, where 2 ramifies.  So C3 k
    and C3- -k share a key, and multipliers with one key have equal depth
    pairs.  This is the one route from a multiplier to its CM data.

    Raises UnsupportedPrimeError when the required CM structure does not
    exist at p, and UsageError for k outside the C2/C3/C3- classes.
    """
    name = classify_k(p, k)
    spec = CLASSES.get(name)
    if spec is None or spec.disc is None:
        raise UsageError(
            f"no schedule prediction exists for class {name}; "
            "supported classes are C2, C3, and C3-"
        )
    pi = _frobenius_pi_disc(p, spec.disc)
    return name, pi, _rho0(p, k % p, spec.b, pi) if spec.disc % 8 == 1 else None


def _ladder(p: int, pi: QuadInt, rho0: QuadInt | None,
            ns: list[int]) -> dict[int, tuple[int, int]]:
    """(e0, e1) at every degree of ns, an ascending list of positive degrees,
    for the key (pi, rho0) of `_embedding` at p, keyed by degree.

    pi and, given rho0, the 2-adic root of x^2 - x + 2 in rho0 are taken
    once, to one precision B set by the largest degree; the root's parity
    is rho0's first coordinate (alpha holds the even root, 1 - alpha the odd
    one).  The powers pi^n mod 2^B climb one ladder in increasing n:
    z_n = z_(n-1)*pi when ns holds n - 1, z_n = z_(n/2)^2 when it holds n/2,
    and binary powering otherwise, so consecutive degrees and doubling
    chains cost one product each.  Every pair is read off its own z_n; none
    is derived from another.
    """
    # The valuations at degree n depend only on pi^n mod 2^B.  Lifting the
    # exponent bounds each of them by nu(pi - u) + 2*nu_2(n) + 6 for some
    # unit u of the order, and nu(pi - u) <= log2 N(pi - u) < log2(4p), so
    # every depth is below p.bit_length() + 2*n.bit_length() + 6, which the
    # B of the largest n exceeds for every n of the set.
    bits = 2 * (p.bit_length() + ns[-1].bit_length()) + 8
    mod = 1 << bits
    if rho0 is not None:
        root = _alpha_root_2adic(rho0.a, bits)
    u, v = pi.a % mod, pi.b % mod
    powers: dict[int, tuple[int, int]] = {}
    pairs = {}
    for n in ns:
        if n - 1 in powers:
            a, b = _product(pi.disc, *powers[n - 1], u, v)
        elif n % 2 == 0 and n // 2 in powers:
            a, b = _product(pi.disc, *powers[n // 2], *powers[n // 2])
        else:
            a, b = _power(pi.disc, u, v, n, mod)
        powers[n] = a, b = a % mod, b % mod
        if rho0 is None:
            below, above = _norm(pi.disc, a - 1, b), _norm(pi.disc, a + 1, b)
        else:
            x = a + b * root
            below, above = x - 1, x + 1
        pairs[n] = _nu2(below % mod), _nu2(above % mod)
    return pairs


def depths(p: int, k: int, n: int) -> DepthPair:
    """Depth pair for multiplier k at extension degree n: the ladder of the
    one degree n, so B is fixed by n and pi^n comes from binary powering.

    Raises UnsupportedPrimeError when the required CM structure does not
    exist at p, and UsageError for k outside the C2/C3/C3- classes or,
    after those checks, for n below 1.
    """
    name, pi, rho0 = _embedding(p, k)
    if n < 1:
        raise UsageError("extension degree must be positive")
    return DepthPair(*_ladder(p, pi, rho0, [n])[n], p, n, name, pi=pi, rho0=rho0)
