"""The degree-doubling transform and the rational map behind it.

For a monic degree-n polynomial f over F_p and a nonzero multiplier k, the
transform substitutes y = k(x + 1/x) and clears denominators:

    transform(f, k) = (x/k)^n * f(k(x + 1/x)),

a monic degree-2n polynomial with constant term 1 whose coefficient tuple is
palindromic.  Roots of the transform are exactly the preimages of the roots of
f under the degree-2 map theta(x) = k(x + 1/x) on the projective line.

Multipliers fall into named classes, each defined by a quadratic congruence
on k and a congruence on p.  The table CLASSES is the one place that states
them, together with the CM order, doubling pattern and depth-law constant
of each class.  The classes are pairwise disjoint for every odd prime.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, UnsupportedPrimeError, UsageError
from .ffpoly import Poly, _Value, _check_odd_prime, _theta_lift, inv_mod, legendre, sqrt_mod_p


class ClassSpec(_Value):
    """One multiplier class: the roots k of a*k^2 + b*k + c mod p, for the
    primes p with p mod `modulus` in `residues`, which are exactly the odd
    primes where the quadratic has two distinct roots.  Classes with a CM
    order also carry its discriminant, the asymptotic doubling pattern of
    their sequences, and v = nu(2) at the prime above 2 (nu_2 of the norm,
    2, for C2; 1 for C3 and C3-).  Since pi = 1 modulo that prime, v is the
    e0 floor and v + 1 the e1 floor; since pi^(2n) + 1 = 2 + (pi^(2n) - 1),
    each doubling adds v to e0 and leaves e1 = v; past s + t each degree
    lasts v steps (seqgen._pattern_level)."""

    __slots__ = ("name", "a", "b", "c", "modulus", "residues", "disc", "pattern", "v")

    def __init__(self, name: str, a: int, b: int, c: int, modulus: int, residues: tuple[int, ...],
                 disc: int | None = None, pattern: str | None = None, v: int | None = None):
        self._set(name, a, b, c, modulus, residues, disc, pattern, v)

    def admits(self, p: int) -> bool:
        return p % self.modulus in self.residues

    def congruence_text(self) -> str:
        if self.modulus == 1:
            return "defined for every odd prime"
        if len(self.residues) == 1:
            return f"requires p = {self.residues[0]} (mod {self.modulus})"
        residues = ", ".join(str(r) for r in self.residues)
        return f"requires p in {{{residues}}} (mod {self.modulus})"


# C3 and C3- share the order Z[(1 + sqrt(-7))/2]; their multipliers exist
# iff -7 is a square mod p, i.e. iff p splits there.
_DISC7 = dict(modulus=7, residues=(1, 2, 4), disc=-7, pattern="one-per-step", v=1)

CLASSES = {
    spec.name: spec
    for spec in (
        ClassSpec("C1", 4, 0, -1, 1, (0,)),  # k = +-1/2
        ClassSpec("C2", 4, 0, 1, 4, (1,), -4, "pairs-every-two-steps", 2),  # k = +-i/2
        ClassSpec("C3", 2, 1, 1, **_DISC7),
        ClassSpec("C3-", 2, -1, 1, **_DISC7),  # the negatives of the C3 multipliers
    )
}
GENERIC = "Generic"


def _check_k(k: int, p: int) -> int:
    k %= p
    if k == 0:
        raise UsageError("the multiplier k must be nonzero mod p")
    return k


def qk_transform(f: Poly, k: int) -> Poly:
    """The transform (x/k)^n * f(k(x + 1/x)) for monic f of degree n >= 1,
    by blocked Horner's rule on one packed integer (ffpoly._theta_lift)."""
    p = f.p
    k = _check_k(k, p)
    if f.degree < 1:
        raise UsageError("transform requires a polynomial of degree >= 1")
    if not f.is_monic:
        raise UsageError("transform requires a monic polynomial")
    return Poly(tuple(_theta_lift(list(f.coeffs), f.degree, k, p)), p)


def transform_character(f: Poly, k: int) -> int:
    """The quadratic character legendre(f(2k) * f(-2k), p), which decides
    the transform of a monic irreducible f of degree n:

    * -1: the transform is irreducible of degree 2n;
    * +1: it splits into two distinct monic irreducibles of degree n, each
      the reciprocal of the other;
    * 0: f is a ramified input x -+ 2k, and the transform is (x -+ 1)^2.

    The roots of the transform are those of x^2 - (alpha/k) x + 1 over the
    roots alpha of f, and f(2k) * f(-2k) / k^(2n) is the norm to F_p of its
    discriminant (alpha/k)^2 - 4 (Meyn's criterion with 2 scaled to 2k).
    """
    return legendre(f(2 * k) * f(-2 * k), f.p)


def classify_k(p: int, k: int) -> str:
    """The class name of k mod p ('Generic' if none): the first row of
    CLASSES whose quadratic k solves and whose congruence p satisfies; the
    congruence excludes, for example, k = 5 at p = 7, a double root of the
    C3 quadratic."""
    _check_odd_prime(p)
    k = _check_k(k, p)
    for spec in CLASSES.values():
        if (spec.a * k * k + spec.b * k + spec.c) % p == 0 and spec.admits(p):
            return spec.name
    return GENERIC


def find_k(p: int, class_name: str) -> list[int]:
    """All multipliers of the given class mod p, sorted ascending: the roots
    (-b +- sqrt(b^2 - 4ac)) / 2a of the class's quadratic.

    Raises UnsupportedPrimeError, naming the required congruence, when no
    such multiplier exists at p."""
    _check_odd_prime(p)
    spec = CLASSES.get(class_name)
    if spec is None:
        raise UsageError(f"unknown multiplier class {class_name!r}; expected one of {tuple(CLASSES)}")
    if not spec.admits(p):
        raise UnsupportedPrimeError(
            f"p={p}: {class_name} {spec.congruence_text()}, got p = {p % spec.modulus} (mod {spec.modulus})"
        )
    disc = spec.b * spec.b - 4 * spec.a * spec.c
    s = sqrt_mod_p(disc % p, p)
    if s is None:
        raise InternalConsistencyError(f"{disc} must be a square mod {p}")
    inv2a = inv_mod(2 * spec.a, p)
    return sorted({(-spec.b + s) * inv2a % p, (-spec.b - s) * inv2a % p})
