"""Extension fields F_{p^n} realized as F_p[x] modulo a monic irreducible.

This is reference arithmetic for the tests and the benchmark: the rest of
the package holds a field element as an integer index or a coefficient
list, and no other module of it imports this one.

Elements carry a fixed-length coefficient tuple (length n, zero-padded) so
equality, hashing, and the canonical index enumeration are uniform.  The
canonical enumeration maps index j in [0, p^n) to the element whose
representative has the base-p digits of j, ascending.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, UsageError
from .ffpoly import (
    ModulusContext,
    Poly,
    _digits,
    _euclid,
    _trim,
    inv_mod,
    is_irreducible,
)


class ExtField:
    """F_{p^n} = F_p[x]/(modulus); the modulus must be monic irreducible."""

    def __init__(self, modulus: Poly, *, assume_irreducible: bool = False):
        if modulus.degree < 1:
            raise UsageError("field modulus must have degree >= 1")
        modulus = modulus.monic()
        if not assume_irreducible and not is_irreducible(modulus):
            raise UsageError("field modulus must be irreducible")
        self.modulus = modulus
        self.p = modulus.p
        self.n = modulus.degree
        self.q = self.p**self.n
        self.ctx = ModulusContext(modulus)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtField)
            and self.p == other.p
            and self.modulus.coeffs == other.modulus.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.modulus.coeffs))

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, n={self.n}, modulus={self.modulus})"

    # -- element constructors -------------------------------------------------

    def _pad(self, raw: list[int]) -> tuple[int, ...]:
        return tuple(raw) + (0,) * (self.n - len(raw))

    def make(self, coeffs) -> "FqElem":
        """Element from arbitrary coefficients (reduced mod the modulus)."""
        raw = self.ctx.reduce([c % self.p for c in coeffs])
        return FqElem(self, self._pad(raw))

    def from_int(self, c: int) -> "FqElem":
        return FqElem(self, self._pad([c % self.p] if c % self.p else []))

    def zero(self) -> "FqElem":
        return FqElem(self, (0,) * self.n)

    def one(self) -> "FqElem":
        return self.from_int(1)

    def gen(self) -> "FqElem":
        """The residue of x, a root of the modulus."""
        return self.make([0, 1])

    def from_index(self, j: int) -> "FqElem":
        """Canonical enumeration: base-p digits of j, ascending."""
        if not 0 <= j < self.q:
            raise UsageError(f"element index {j} out of range [0, {self.q})")
        return FqElem(self, tuple(_digits(j, self.p, self.n)))

    def index_of(self, elem: "FqElem") -> int:
        self._check_member(elem)
        j = 0
        for d in reversed(elem.rep):
            j = j * self.p + d
        return j

    def _check_member(self, elem: "FqElem") -> None:
        if elem.field is not self and elem.field != self:
            raise UsageError("element belongs to a different field")


class FqElem:
    """An element of an ExtField; immutable by convention."""

    __slots__ = ("field", "rep")

    def __init__(self, field: ExtField, rep: tuple[int, ...]):
        self.field = field
        self.rep = rep

    # -- helpers ---------------------------------------------------------------

    def _wrap(self, raw: list[int]) -> "FqElem":
        return FqElem(self.field, self.field._pad(raw))

    def _coerce(self, other) -> "FqElem":
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, FqElem):
            self.field._check_member(other)
            return other
        raise TypeError(f"cannot combine FqElem with {type(other).__name__}")

    @property
    def is_zero(self) -> bool:
        return not any(self.rep)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "FqElem":
        o = self._coerce(other)
        p = self.field.p
        return FqElem(
            self.field, tuple((a + b) % p for a, b in zip(self.rep, o.rep))
        )

    __radd__ = __add__

    def __sub__(self, other) -> "FqElem":
        o = self._coerce(other)
        p = self.field.p
        return FqElem(
            self.field, tuple((a - b) % p for a, b in zip(self.rep, o.rep))
        )

    def __rsub__(self, other) -> "FqElem":
        return self._coerce(other) - self

    def __neg__(self) -> "FqElem":
        p = self.field.p
        return FqElem(self.field, tuple(-a % p for a in self.rep))

    def __mul__(self, other) -> "FqElem":
        o = self._coerce(other)
        raw = self.field.ctx.mulmod(_trim(list(self.rep)), _trim(list(o.rep)))
        return self._wrap(raw)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FqElem":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "FqElem":
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int) -> "FqElem":
        if e < 0:
            return self.inverse() ** (-e)
        return self._wrap(self.field.ctx.powmod(_trim(list(self.rep)), e))

    def inverse(self) -> "FqElem":
        """Multiplicative inverse by the extended Euclidean algorithm, `_euclid`."""
        if self.is_zero:
            raise UsageError("zero has no multiplicative inverse")
        p = self.field.p
        r, u = _euclid(list(self.field.modulus.coeffs), _trim(list(self.rep)), p, 1)
        if not r:
            raise InternalConsistencyError("non-unit gcd with an irreducible modulus")
        return self._wrap(self.field.ctx.mulmod(u, [inv_mod(r[0], p)]))

    def frobenius(self) -> "FqElem":
        """The p-th power map, a field automorphism fixing exactly F_p."""
        return self**self.field.p

    # -- protocol ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return (
            isinstance(other, FqElem)
            and self.rep == other.rep
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"FqElem({list(self.rep)} mod {self.field.modulus})"


def batch_inverse(elems: list[FqElem]) -> list[FqElem]:
    """Invert many field elements with a single field inversion.

    Standard prefix-product trick; rejects zero inputs up front.
    """
    if not elems:
        return []
    field = elems[0].field
    prefix: list[FqElem] = []
    acc = field.one()
    for e in elems:
        if e.is_zero:
            raise UsageError("cannot batch-invert zero")
        prefix.append(acc)
        acc = acc * e
    inv = acc.inverse()
    out: list[FqElem] = [field.zero()] * len(elems)
    for i in range(len(elems) - 1, -1, -1):
        out[i] = inv * prefix[i]
        inv = inv * elems[i]
    return out
