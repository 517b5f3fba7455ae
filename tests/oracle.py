"""Slow reference routes that the tests compare the library against, and
the test-only helpers that no command-line path needs.

Field elements here are `extfield.FqElem` objects and the point at infinity
is the singleton INFINITY.  The library itself never needs them: it holds a
field element as an integer node index or as a coefficient list.  The orbit
walks below work element by element, independently of the exp/log tables,
the transform character and the factor race that they check.

Also here: polynomial subtraction, addition and long division
(`poly_sub`, `poly_add`, `poly_divmod`), `random_irreducible` for seeded
inputs, `check_lemma_kk` for the k versus -k comparison over a whole field,
exact arithmetic in the CM orders (`quad_mul`, `quad_pow`) for the depth
pairs the slow way, `depth_table` and `sweep_lemmas_by_multiplier` for the
depth pairs and the depth-law sweep with one ladder per multiplier, and
three routes to the split of a reciprocal pair
g * g* that work modulo the degree-2d input itself: by the trace with a
degree-2d Frobenius table (`split_by_trace`), by powering and recursion
(`split_by_powering`), and by divisor search (`reciprocal_pair_by_search`,
on `irreducible_by_trial_division`).  `reciprocal_pairs` tabulates every
reciprocal pair of a small field at once, from the irreducibles of a sieve
(`monic_irreducibles`).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Optional

from qkforge import cm_arith, dynamics
from qkforge.cm_arith import DepthPair, QuadInt, _power, _product
from qkforge.config import field_cap
from qkforge.errors import InternalConsistencyError, ResourceCapError, UsageError
from qkforge.extfield import ExtField, FqElem
from qkforge.ffpoly import (
    ModulusContext,
    Poly,
    _PackedRows,
    _divmod_raw,
    _gcd_raw,
    _mul_raw,
    _prime_factors,
    _reciprocal_cofactor,
    _sub_raw,
    _trim,
    inv_mod,
    is_irreducible,
    is_prime,
    sqrt_mod_p,
)
from qkforge.qk import CLASSES, _check_k, find_k


class _Infinity:
    """The point at infinity on the projective line; a singleton."""

    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()


def node_element(field: ExtField, i: int):
    """The point of graph node i over `field`: INFINITY for node 0, the
    element with index i - 1 otherwise."""
    return INFINITY if i == 0 else field.from_index(i - 1)


def is_primitive(x: FqElem) -> bool:
    """x generates F_q^*: x^((q-1)/r) != 1 for every prime r dividing q - 1."""
    order = x.field.q - 1
    return all(x ** (order // r) != 1 for r in _prime_factors(order))


def theta_eval(x, k: int):
    """theta(x) = k(x + 1/x) on the projective line; 0 and infinity map to
    infinity.  x is a field element or INFINITY."""
    if x is INFINITY:
        return INFINITY
    if not isinstance(x, FqElem):
        raise UsageError(f"expected a field element or INFINITY, got {type(x).__name__}")
    k = _check_k(k, x.field.p)
    if x.is_zero:
        return INFINITY
    return (x + x.inverse()) * k


def min_poly_of_element(a: FqElem) -> Poly:
    """Minimal polynomial of a over the prime field F_p.

    Computed as the product of (X - c) over the distinct Frobenius conjugates
    c of a; the result is monic irreducible of degree dividing n.
    """
    field = a.field
    conjugates = [a]
    c = a.frobenius()
    while c != a:
        conjugates.append(c)
        c = c.frobenius()
        if len(conjugates) > field.n:
            raise InternalConsistencyError("Frobenius orbit exceeded field degree")
    coeffs: list[FqElem] = [field.one()]
    for c in conjugates:
        nxt = [field.zero()] * (len(coeffs) + 1)
        for i, co in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + co
            nxt[i] = nxt[i] - c * co
        coeffs = nxt
    consts = []
    for co in coeffs:
        if any(co.rep[1:]):
            raise InternalConsistencyError("conjugate product left the prime field")
        consts.append(co.rep[0])
    return Poly(tuple(consts), field.p)


def min_poly_theta(f: Poly, k: int) -> Poly:
    """Minimal polynomial over F_p of theta(alpha) for a root alpha of the
    monic irreducible f.  Rejects f = x, whose root maps to infinity."""
    p = f.p
    k = _check_k(k, p)
    if f.degree < 1:
        raise UsageError("need a polynomial of degree >= 1")
    f = f.monic()
    if f.coefficient(0) == 0:
        raise UsageError("the root 0 maps to infinity and has no minimal polynomial")
    if not is_irreducible(f):
        raise UsageError("minimal-polynomial computation requires an irreducible input")
    field = ExtField(f, assume_irreducible=True)
    beta = theta_eval(field.gen(), k)
    return min_poly_of_element(beta)


def is_periodic(beta, k: int) -> tuple[bool, int, int]:
    """Brent cycle detection on the orbit of beta under x -> k(x + 1/x).

    Accepts a field element or INFINITY.  Returns (periodic, tail, cycle_len)
    where tail is the distance from beta to the cycle (0 iff periodic) and
    cycle_len the length of the cycle it falls into.  Fields above the
    configured cap are refused.
    """
    limit = field_cap()
    if beta is INFINITY:
        return True, 0, 1
    if not isinstance(beta, FqElem):
        raise UsageError(f"expected a field element or INFINITY, got {type(beta).__name__}")
    if beta.field.q > limit:
        raise ResourceCapError(
            f"field size {beta.field.q} exceeds the configured cap {limit}; "
            "raise QKFORGE_CAP to allow larger orbits"
        )

    def step(x):
        return theta_eval(x, k)

    # Brent: find the cycle length lam, then the tail length mu.
    power = lam = 1
    tortoise = beta
    hare = step(beta)
    while not _same(tortoise, hare):
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        lam += 1
    tortoise = hare = beta
    for _ in range(lam):
        hare = step(hare)
    mu = 0
    while not _same(tortoise, hare):
        tortoise = step(tortoise)
        hare = step(hare)
        mu += 1
    return mu == 0, mu, lam


def _same(a, b) -> bool:
    if a is INFINITY or b is INFINITY:
        return a is b
    return a == b


def qk_transform_by_expansion(f: Poly, k: int) -> Poly:
    """The transform (x/k)^n * f(k(x + 1/x)) of monic f of degree n >= 1,
    by expanding f = sum a_i y^i as sum a_i k^(i-n) x^(n-i) (x^2+1)^i in
    O(n^2) coefficient operations, one power of x^2 + 1 at a time."""
    p = f.p
    k = _check_k(k, p)
    n = f.degree
    kinv = inv_mod(k, p)
    out = [0] * (2 * n + 1)
    pw = [1]  # (x^2+1)^i, updated incrementally
    for i, a in enumerate(f.coeffs):
        if a:
            c = a * pow(kinv, n - i, p) % p
            base = n - i
            for j, w in enumerate(pw):
                out[base + j] = (out[base + j] + c * w) % p
        if i < n:
            pw = _mul_raw(pw, [1, 0, 1], p)
    return Poly(tuple(out), p)


def random_irreducible(p: int, n: int, rng: random.Random) -> Poly:
    """Uniform-ish random monic irreducible of degree n (rejection sampling)."""
    if n < 1:
        raise UsageError("degree must be positive")
    while True:
        cand = Poly(tuple(rng.randrange(p) for _ in range(n)) + (1,), p)
        if is_irreducible(cand):
            return cand


def _successor_tables(p: int, n: int, modulus: Poly, ks) -> list[tuple[int, ...]]:
    """The successor table of each multiplier in ks, from one inverse table
    mod p when n = 1 and from one set of exp/log tables when n >= 2."""
    if n == 1:
        return [dynamics._build_prime_field(p, k) for k in ks]
    exp, log = dynamics._exp_log_tables(p, n, modulus)
    return [dynamics._successors(p, exp, log, k) for k in ks]


def check_lemma_kk(
    p: int, n: int, k: int, r_max: int, modulus: Optional[Poly] = None
) -> bool:
    """Compare the maps with multipliers k and -k over one field.

    True iff (1) for every point and every r <= r_max the 2r-th iterates of
    the two maps agree, and (2) whenever the k-map reaches a periodic point
    after t steps, the (-k)-map is already periodic after t steps as well
    (equivalently: no point sits farther from its cycle under -k than under
    k).  r_max = 0 checks nothing and is trivially true.  For r_max >= 1,
    (1) is one comparison of the two second-iterate tables: r = 1 needs
    them equal, and equal tables have equal r-th powers for every r.
    The inputs are checked as `dynamics.build_graph` checks them.
    """
    if r_max < 0:
        raise UsageError("r_max must be >= 0")
    if r_max == 0:
        return True
    k, modulus = dynamics._checked_inputs(p, n, k, modulus)
    s_pos, s_neg = _successor_tables(p, n, modulus, (k, p - k))
    if [s_pos[y] for y in s_pos] != [s_neg[y] for y in s_neg]:
        return False
    tails_pos = dynamics._analyze(s_pos)[0]
    tails_neg = dynamics._analyze(s_neg)[0]
    return all(tn <= tp for tp, tn in zip(tails_pos, tails_neg))


def quad_mul(z: QuadInt, w: QuadInt) -> QuadInt:
    """z * w exactly, by `cm_arith._product`; mixed discriminants raise
    UsageError."""
    if z.disc != w.disc:
        raise UsageError("mixed discriminants")
    return QuadInt(*_product(z.disc, z.a, z.b, w.a, w.b), z.disc)


def quad_pow(z: QuadInt, e: int, mod: Optional[int] = None) -> QuadInt:
    """z**e exactly by binary powering on `quad_mul`, or, given mod,
    `cm_arith._power`'s coordinates reduced mod `mod`.  A negative e raises
    UsageError."""
    if e < 0:
        raise UsageError("negative powers are not defined here")
    if mod is not None:
        return QuadInt(*_power(z.disc, z.a, z.b, e, mod), z.disc)
    acc = QuadInt(1, 0, z.disc)
    while e:
        if e & 1:
            acc = quad_mul(acc, z)
        e >>= 1
        z = quad_mul(z, z)
    return acc


def depth_table(p: int, k: int, degrees: Iterable[int]) -> dict[int, DepthPair]:
    """Depth pairs for multiplier k at every degree in `degrees`, keyed by
    degree: one `cm_arith._ladder` for this one multiplier.  Raises as
    `cm_arith.depths` does, and UsageError for a set of degrees that is
    empty or holds one below 1."""
    ns = sorted(set(degrees))
    if not ns or ns[0] < 1:
        raise UsageError("extension degree must be positive")
    name, pi, parity = cm_arith._embedding(p, k)
    return {n: DepthPair(e0, e1, p, n, name)
            for n, (e0, e1) in cm_arith._ladder(p, pi, parity, ns).items()}


def sweep_lemmas_by_multiplier(max_p: int, max_n: int, max_m: int,
                               max_i: int) -> tuple[str, list[str]]:
    """The depth-law sweep of `sweep-lemmas` for valid bounds, with one
    `depth_table` per multiplier: the summary line it prints and every
    violation, in order."""
    degrees = set(range(1, max_n + 1))
    for m in range(1, max_m + 1):
        degrees.update(m << i for i in range(max_i + 2))
    violations: list[str] = []
    checked = 0
    for p in filter(is_prime, range(3, max_p)):
        for name, spec in CLASSES.items():
            if spec.disc is None or not spec.admits(p):
                continue
            low_e0, low_e1, inc = spec.floors
            for k in find_k(p, name):
                table = depth_table(p, k, degrees)
                for n in range(1, max_n + 1):
                    e0, e1 = table[n].e0, table[n].e1
                    checked += 1 if e0 < low_e0 else 2
                    if e0 < low_e0:
                        failed = f"e0={e0} < {low_e0}"
                    elif e0 == low_e0 and e1 < low_e1:
                        failed = f"e0={low_e0} but e1={e1} < {low_e1}"
                    elif e0 > low_e0 and e1 != low_e1 - 1:
                        failed = f"e0={e0} but e1={e1} != {low_e1 - 1}"
                    else:
                        continue
                    violations.append(f"p={p} k={k} n={n} ({name}): {failed}")
                for m in range(1, max_m + 1):
                    checked += 1 + max_i
                    base, doubled = table[m], table[2 * m]
                    if not (doubled.e0 == base.e0 + base.e1 and doubled.e1 == low_e1 - 1):
                        violations.append(
                            f"p={p} k={k} m={m} ({name}): ({base.e0},{base.e1}) doubled to "
                            f"({doubled.e0},{doubled.e1})"
                        )
                    for i in range(1, max_i + 1):
                        lower, upper = table[m << i], table[m << (i + 1)]
                        if not (upper.e0 == lower.e0 + inc
                                and upper.e1 == lower.e1 == low_e1 - 1):
                            violations.append(
                                f"p={p} k={k} m={m} ({name}) i={i}: ({lower.e0},{lower.e1}) "
                                f"-> ({upper.e0},{upper.e1}), expected +{inc}"
                            )
    summary = f"checked {checked} identities below p < {max_p}: {len(violations)} violations"
    return summary, violations


def poly_sub(a: Poly, b: Poly) -> Poly:
    """a - b, by `ffpoly._sub_raw`."""
    if a.p != b.p:
        raise UsageError(f"mixed moduli: {a.p} vs {b.p}")
    return Poly(tuple(_sub_raw(list(a.coeffs), list(b.coeffs), a.p)), a.p)


def poly_add(a: Poly, b: Poly) -> Poly:
    """a + b, as a - (0 - b)."""
    return poly_sub(a, poly_sub(Poly((), b.p), b))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(a // b, a % b) by long division, `ffpoly._divmod_raw`; b = 0 raises
    UsageError."""
    if a.p != b.p:
        raise UsageError(f"mixed moduli: {a.p} vs {b.p}")
    q, r = _divmod_raw(list(a.coeffs), list(b.coeffs), a.p)
    return Poly(tuple(q), a.p), Poly(tuple(r), a.p)


def _monic_of_degree(p: int, d: int):
    """Every monic polynomial of degree d over F_p, in base-p order."""
    for idx in range(p**d):
        digits = []
        for _ in range(d):
            digits.append(idx % p)
            idx //= p
        yield Poly(tuple(digits) + (1,), p)


def irreducible_by_trial_division(f: Poly) -> bool:
    """No monic polynomial of degree 1 to deg(f)/2 divides f."""
    return all(not poly_divmod(f, q)[1].is_zero
               for e in range(1, f.degree // 2 + 1) for q in _monic_of_degree(f.p, e))


@lru_cache(maxsize=None)
def monic_irreducibles(p: int, d: int) -> tuple[Poly, ...]:
    """Every monic irreducible of degree d over F_p, in base-p order: the
    monic polynomials of degree d that are no product of two monic factors
    of lower degree (a sieve, for small p^d only)."""
    reducible = {a * b for e in range(1, d // 2 + 1)
                 for a in _monic_of_degree(p, e) for b in _monic_of_degree(p, d - e)}
    return tuple(g for g in _monic_of_degree(p, d) if g not in reducible)


@lru_cache(maxsize=None)
def reciprocal_pairs(p: int, d: int) -> dict[Poly, list[Poly]]:
    """{g * g*: [g, g*] sorted by coefficient tuple} over every monic
    irreducible g of degree d over F_p with g(0) != 0 and g != g*, where
    g* = x^d g(1/x) / g(0): what reciprocal_pair_by_search finds in each
    product, for all of them at once."""
    pairs = {}
    for g in monic_irreducibles(p, d):
        star = Poly(g.coeffs[::-1], p).monic() if g.coeffs[0] else g
        if star != g:
            pairs[g * star] = sorted((g, star), key=lambda q: q.coeffs)
    return pairs


def reciprocal_pair_by_search(f: Poly, d: int) -> Optional[list[Poly]]:
    """The pair [g, g*], sorted by coefficient tuple, if the monic f of
    degree 2d is g * g* with g irreducible of degree d and g != g*, where
    g* = x^d g(1/x) / g(0); else None.  By trying every monic g of degree
    d: exhaustive, for small p^d only."""
    p = f.p
    f = f.monic()
    for g in _monic_of_degree(p, d):
        if not g.coeffs[0] or not poly_divmod(f, g)[1].is_zero:
            continue
        star = Poly(g.coeffs[::-1], p).monic()
        if star != g and g * star == f and irreducible_by_trial_division(g):
            return sorted((g, star), key=lambda q: q.coeffs)
    return None


def split_by_trace(f: Poly, d: int, seed: int) -> list[Poly]:
    """The pair [g, g*] of a reciprocal pair f = g * g* of degree 2d, by the
    trace T = a + a^p + ... + a^(p^(d-1)) modulo f itself, with the
    degree-2d context's Frobenius table (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 14).  T is a pair (t1, t2) in F_p x F_p; S = T^2
    equals s*T - q with s = t1 + t2, q = t1 * t2, and one gcd,
    gcd(T - (s + sqrt(s^2 - 4q))/2, f), is g or g*.  A constant T is drawn
    again.  Raises InternalConsistencyError where the trace, the root, the
    gcd or the product check fails."""
    f = f.monic()
    p = f.p
    fx = list(f.coeffs)
    ctx = ModulusContext(f)
    frobenius = _PackedRows(ctx._frobenius_rows([1]), 2 * d, p)
    rng = random.Random(seed)
    for _ in range(128):
        conj = _trim([rng.randrange(p) for _ in range(2 * d)])
        trace = conj + [0] * (2 * d - len(conj))
        for _ in range(d - 1):
            conj = _trim(frobenius.apply(conj))
            trace[: len(conj)] = [a + b for a, b in zip(trace, conj)]
        trace = _trim([c % p for c in trace])
        if len(trace) < 2:
            continue
        j = len(trace) - 1
        square = ctx.mulmod(trace, trace)
        padded = square + [0] * len(trace)
        s = padded[j] * inv_mod(trace[j], p) % p
        q = (s * trace[0] - padded[0]) % p
        if square != _sub_raw([s * c % p for c in trace], [q], p):
            break
        root = sqrt_mod_p(s * s - 4 * q, p)
        if root is None:
            break
        g = _gcd_raw(_sub_raw(trace, [(s + root) * inv_mod(2, p) % p], p), fx, p)
        star = _reciprocal_cofactor(g, fx, p) if len(g) - 1 == d else None
        if star is not None and star != g:
            return [Poly(tuple(h), p) for h in sorted((g, star))]
        break
    raise InternalConsistencyError(f"no split of {f.coeffs} by the trace")


def split_by_powering(f: Poly, d: int, seed: int) -> list[Poly]:
    """Equal-degree splitting of f into its degree-d factors, sorted: a
    random a, a gcd with a itself first, then a^((p^d-1)/2) - 1 by one
    powmod, recursing on both sides, the cofactor by long division."""
    p = f.p
    rng = random.Random(seed)
    out = []

    def split(g: Poly) -> None:
        if g.degree == d:
            out.append(g)
            return
        ctx = ModulusContext(g)
        while True:
            a = Poly(tuple(rng.randrange(p) for _ in range(g.degree)), p)
            if a.degree < 1:
                continue
            h = Poly(tuple(_gcd_raw(list(a.coeffs), list(g.coeffs), p)), p)
            if h.degree == 0:
                b = poly_sub(Poly(tuple(ctx.powmod(list(a.coeffs), (p**d - 1) // 2)), p),
                             Poly((1,), p))
                if b.is_zero:
                    continue
                h = Poly(tuple(_gcd_raw(list(b.coeffs), list(g.coeffs), p)), p)
            if 0 < h.degree < g.degree:
                split(h)
                split(poly_divmod(g, h)[0])
                return

    split(f.monic())
    return sorted(out, key=lambda q: q.coeffs)
