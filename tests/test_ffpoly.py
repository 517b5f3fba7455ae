"""Tests for the base polynomial layer.

Fast-path kernels (Kronecker multiplication, Newton-inverse reduction) are
checked against schoolbook reference implementations on randomized inputs, and
core operations against small hand-computed values.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkforge.ffpoly as ffpoly
from qkforge.config import MAX_POLY_DEGREE
from qkforge.errors import MalformedInputError, ResourceCapError, UnsupportedPrimeError, UsageError
from qkforge.ffpoly import (
    ModulusContext,
    Poly,
    _PackedRows,
    _divmod_raw,
    _gcd_raw,
    _kron_mul,
    _rabin,
    _school_mul,
    _trim,
    equal_degree_factorize,
    format_poly,
    format_poly_human,
    inv_mod,
    is_irreducible,
    is_prime,
    legendre,
    parse_poly,
    smallest_irreducible,
    sqrt_mod_p,
)
from qkforge.qk import find_k, qk_transform, transform_character
from qkforge.seqgen import generate_sequence

from oracle import (
    irreducible_by_trial_division,
    poly_add,
    poly_divmod,
    poly_sub,
    random_irreducible,
    reciprocal_pair_by_search,
    split_by_powering,
    split_by_trace,
)


def _gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials over F_p by _gcd_raw (gcd(0, 0) = 0)."""
    return Poly(tuple(_gcd_raw(list(a.coeffs), list(b.coeffs), a.p)), a.p)


def _powmod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base**e mod modulus by ModulusContext.powmod."""
    return Poly(tuple(ModulusContext(modulus).powmod(list(base.coeffs), e)), base.p)


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def test_is_prime_small_values() -> None:
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(60):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger_values() -> None:
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert not is_prime(341)  # 11 * 31, classic base-2 pseudoprime
    assert not is_prime(561)  # Carmichael


def test_inv_mod() -> None:
    assert inv_mod(2, 53) == 27
    assert 2 * 27 % 53 == 1
    with pytest.raises(UsageError):
        inv_mod(0, 53)


def test_legendre() -> None:
    assert legendre(13, 53) == 1
    assert legendre(0, 53) == 0
    residues = {x * x % 53 for x in range(1, 53)}
    for a in range(1, 53):
        assert legendre(a, 53) == (1 if a in residues else -1)


def test_sqrt_mod_p_known_value() -> None:
    # 15^2 = 225 = 4*53 + 13, and 15 < 53 - 15, so 15 is the canonical root.
    assert sqrt_mod_p(13, 53) == 15


def test_sqrt_mod_p_exhaustive_small() -> None:
    for p in (3, 5, 7, 11, 13, 17, 29):  # both p mod 4 classes
        for a in range(p):
            r = sqrt_mod_p(a, p)
            if r is None:
                assert legendre(a, p) == -1
            else:
                assert r * r % p == a
                assert 0 <= r <= (p - 1) // 2


def test_sqrt_mod_p_rejects_non_prime() -> None:
    with pytest.raises(UsageError):
        sqrt_mod_p(3, 15)


def test_sqrt_mod_p_ends_on_composites_that_pass_as_prime(monkeypatch) -> None:
    # is_prime is only a probable-prime test above 3.3e24; on a composite it
    # let through, sqrt_mod_p returns a true root or None, or raises
    monkeypatch.setattr(ffpoly, "is_prime", lambda n: True)
    raised = 0
    for n in (15, 21, 65, 85, 561, 1105, 1729):  # both n mod 4 classes
        for a in range(n):
            try:
                r = sqrt_mod_p(a, n)
            except UsageError:
                raised += 1
                continue
            assert r is None or r * r % n == a
    assert raised > 0


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------


def test_poly_normalizes_and_trims() -> None:
    f = Poly((58, 3, 0, 0, 0), 53)
    assert f.coeffs == (5, 3)
    assert f.degree == 1
    assert Poly((), 53).degree == -1
    assert Poly((0, 0), 53).is_zero


def test_poly_rejects_bad_modulus() -> None:
    with pytest.raises(UsageError):
        Poly((1,), 4)
    with pytest.raises(UsageError):
        Poly((1,), 2)


def test_poly_arithmetic_hand_values() -> None:
    p = 5
    f = Poly((1, 0, 1), p)  # x^2 + 1
    square = f * f
    assert square.coeffs == (1, 0, 2, 0, 1)  # x^4 + 2x^2 + 1 over F_5
    assert poly_sub(f, f).is_zero
    assert poly_add(f, f).coeffs == (2, 0, 2)
    assert (3 * f).coeffs == (3, 0, 3)
    assert poly_sub(Poly((), p), f).coeffs == (4, 0, 4)


def test_poly_mod_hand_value() -> None:
    # x^3 mod (x^2 + 1) over F_3 is -x = 2x.
    f = Poly((0, 0, 0, 1), 3)
    m = Poly((1, 0, 1), 3)
    assert poly_divmod(f, m)[1].coeffs == (0, 2)


def test_poly_divmod_roundtrip() -> None:
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice([3, 5, 13, 53])
        a = Poly(tuple(rng.randrange(p) for _ in range(rng.randrange(1, 12))), p)
        b = Poly(tuple(rng.randrange(p) for _ in range(rng.randrange(1, 6))), p)
        if b.is_zero:
            continue
        q, r = poly_divmod(a, b)
        assert poly_add(q * b, r) == a
        assert r.degree < b.degree


def test_poly_division_by_zero() -> None:
    with pytest.raises(UsageError):
        poly_divmod(Poly((1, 1), 5), Poly((), 5))


def test_poly_eval() -> None:
    f = Poly((51, 3, 0, 0, 0, 1), 53)  # x^5 + 3x + 51
    assert f(0) == 51
    assert f(1) == (1 + 3 + 51) % 53
    assert f(2) == (32 + 6 + 51) % 53


def test_poly_monic() -> None:
    f = Poly((2, 4), 5)
    g = f.monic()
    assert g.is_monic
    assert g.coeffs == (3, 1)  # 4^-1 = 4 over F_5; 2*4 = 3
    with pytest.raises(UsageError):
        Poly((), 5).monic()


def test_poly_gcd_hand_value() -> None:
    p = 5
    a = Poly((1, 0, 1), p) * Poly((2, 1), p)
    b = Poly((1, 0, 1), p) * Poly((4, 1), p)
    assert _gcd(a, b).coeffs == (1, 0, 1)
    assert _gcd(Poly((), p), Poly((), p)).is_zero


# ---------------------------------------------------------------------------
# fast kernels vs schoolbook references
# ---------------------------------------------------------------------------


def test_kronecker_matches_schoolbook() -> None:
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([3, 5, 53, 997])
        la = rng.randrange(1, 80)
        lb = rng.randrange(1, 80)
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        assert _kron_mul(a, b, p) == _school_mul(a, b, p)


# (p, shorter length, slot bytes) on both sides of each slot boundary: the
# column bound min(len) * (p - 1)^2 just below and just above 2^8, 2^16 and
# 2^32, and at 2^64, past which joined bytes replace array items.
_SLOT_CASES = [
    (3, 63, 1),
    (3, 64, 2),
    (53, 24, 2),
    (53, 25, 4),
    (65521, 1, 4),
    (65521, 2, 8),
    (2**31 - 1, 4, 8),
    (2**31 - 1, 5, None),
    (2**61 - 1, 30, None),
]


@pytest.mark.parametrize("p, la, slot", _SLOT_CASES)
def test_kronecker_matches_schoolbook_for_each_slot_size(p, la, slot) -> None:
    bits = (la * (p - 1) ** 2).bit_length()
    assert (ffpoly._SLOTS[bits][1] if bits <= 64 else None) == slot
    rng = random.Random(la * p)
    for trial in range(4):
        lb = la + rng.randrange(40)
        if trial == 0:  # every middle column sum reaches the bound
            a, b = [p - 1] * la, [p - 1] * lb
        else:
            a = [rng.randrange(p) for _ in range(la)]
            b = [rng.randrange(p) for _ in range(lb)]
        full = _school_mul(a, b, p)
        square = _school_mul(a, list(a), p)
        assert _kron_mul(a, b, p) == full
        assert _kron_mul(b, a, p) == full
        assert _kron_mul(a, a, p) == square
        for keep in range(1, la + lb):
            assert _kron_mul(a, b, p, keep) == _trim(full[:keep])
        for keep in range(1, 2 * la):
            assert _kron_mul(a, a, p, keep) == _trim(square[:keep])


def test_newton_reduce_matches_divmod() -> None:
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([5, 53, 997])
        n = rng.randrange(ModulusContext._NEWTON_CUTOFF, 120)  # force the Newton path
        m = [rng.randrange(p) for _ in range(n)] + [1]
        ctx = ModulusContext(Poly(tuple(m), p))
        assert ctx._inv_rev is not None
        la = rng.randrange(n + 1, 2 * n)
        c = [rng.randrange(p) for _ in range(la)]
        assert ctx.reduce(list(c)) == _divmod_raw(list(c), m, p)[1]


def test_newton_reduce_at_the_cutoff_degree() -> None:
    rng = random.Random(17)
    n = ModulusContext._NEWTON_CUTOFF
    for p in (3, 53, 997, 2**61 - 1):
        below = ModulusContext(Poly(tuple(rng.randrange(p) for _ in range(n - 1)) + (1,), p))
        assert below._inv_rev is None
        m = [rng.randrange(p) for _ in range(n)] + [1]
        ctx = ModulusContext(Poly(tuple(m), p))
        assert ctx._inv_rev is not None
        for la in range(n + 1, 2 * n):
            c = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
            assert ctx.reduce(list(c)) == _divmod_raw(list(c), m, p)[1]
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(n)]
        assert ctx.mulmod(a, b) == _divmod_raw(_school_mul(a, b, p), m, p)[1]
        assert ctx.mulmod(a, a) == _divmod_raw(_school_mul(a, list(a), p), m, p)[1]


def test_modulus_context_small_degrees_use_division() -> None:
    ctx = ModulusContext(Poly((1, 0, 1), 5))
    assert ctx._inv_rev is None
    assert ctx.reduce([0, 0, 0, 1]) == [0, 4]  # x^3 mod (x^2+1) = -x


def test_poly_mod_pow_matches_naive() -> None:
    rng = random.Random(3)
    for _ in range(20):
        p = rng.choice([3, 5, 13])
        m = Poly(tuple(rng.randrange(p) for _ in range(4)) + (1,), p)
        base = Poly(tuple(rng.randrange(p) for _ in range(4)), p)
        e = rng.randrange(0, 40)
        naive = Poly((1,), p)
        for _ in range(e):
            naive = poly_divmod(naive * base, m)[1]
        assert _powmod(base, e, m) == naive


# (p, modulus degree n, slot bytes) for the Frobenius rows, whose column
# bound is n * (p - 1)^2: every array item size and the joined bytes
_FROBENIUS_SLOT_CASES = [
    (3, 10, 1),
    (3, 63, 1),
    (3, 64, 2),
    (53, 24, 2),
    (53, 25, 4),
    (65521, 2, 8),
    (65521, 12, 8),
    (2**31 - 1, 4, 8),
    (2**31 - 1, 5, None),
    (2**61 - 1, 12, None),
]


@pytest.mark.parametrize("p, n, slot", _FROBENIUS_SLOT_CASES)
def test_frobenius_matches_powering_by_p_for_each_slot_size(p, n, slot) -> None:
    rng = random.Random(n * p)
    m = [rng.randrange(p) for _ in range(n)] + [1]  # any modulus: y -> y^p is linear
    ctx = ModulusContext(Poly(tuple(m), p))
    ys = [[p - 1] * n, [], [0, 1]] + [_trim([rng.randrange(p) for _ in range(n)])
                                      for _ in range(6)]
    rows = _PackedRows(ctx._frobenius_rows([1]), n, p)
    for y in ys:
        assert _trim(rows.apply(list(y))) == ctx.powmod(list(y), p)
    assert (rows.width if rows.tc else None) == slot


def test_frobenius_table_over_the_cap_is_refused_before_any_row(monkeypatch) -> None:
    p, n = 53, 30  # 4-byte slots: n^2 * 4 = 3,600 bytes
    m = Poly(tuple(random.Random(3).randrange(p) for _ in range(n)) + (1,), p)

    def no_rows(*args):
        raise AssertionError("a row was computed before the size check")

    monkeypatch.setattr(ffpoly, "MAX_ROW_TABLE_BYTES", 3599)
    monkeypatch.setattr(ModulusContext, "powmod", no_rows)
    monkeypatch.setattr(ModulusContext, "mulmod", no_rows)
    with pytest.raises(ResourceCapError, match="3600 bytes"):
        _PackedRows(ModulusContext(m)._frobenius_rows([1]), n, p)
    with pytest.raises(ResourceCapError):
        is_irreducible(m)
    monkeypatch.undo()
    monkeypatch.setattr(ffpoly, "MAX_ROW_TABLE_BYTES", 3600)
    ctx = ModulusContext(m)
    rows = _PackedRows(ctx._frobenius_rows([1]), n, p)
    assert _trim(rows.apply([0, 1])) == ctx.powmod([0, 1], p)


def test_poly_mod_pow_large_exponent() -> None:
    p = 53
    m = Poly((1, 0, 0, 0, 0, 1, 0, 1), p)
    # x^(p^7) two ways: directly minus one step, and as (x^(p^4))^(p^3).
    base = Poly.x(p)
    direct = _powmod(base, p**7 - 1, m)
    split = _powmod(_powmod(base, p**4, m), p**3, m)
    assert poly_divmod(direct * base, m)[1] == split


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


def _rabin_by_powering(f: Poly) -> bool:
    """Reference oracle: Rabin's test with x^(p^j) by powering by p."""
    n, p = f.degree, f.p
    ctx = ModulusContext(f)
    x = Poly.x(p)
    y = [0, 1]
    for j in range(1, n + 1):
        y = ctx.powmod(y, p)
        if n % j == 0 and j < n and ffpoly.is_prime(n // j):
            if _gcd(poly_sub(Poly(tuple(y), p), x), f).degree > 0:
                return False
    return y == [0, 1]


def test_rabin_and_splitting_match_powering_on_the_reference_chains() -> None:
    f0 = Poly((51, 3, 0, 0, 0, 1), 53)
    for k, steps in ((15, 6), (7, 3)):  # degrees 5 to 40
        chain = [s.poly for s in generate_sequence(f0, k, steps).steps]
        for f in chain:
            big = qk_transform(f, k)
            assert is_irreducible(f) and _rabin_by_powering(f)
            assert is_irreducible(big) == _rabin_by_powering(big)
            assert not is_irreducible(f * f) and not _rabin_by_powering(f * f)
            if transform_character(f, k) == 1:
                for seed in range(3):
                    got = equal_degree_factorize(big, f.degree, seed)
                    assert got == split_by_powering(big, f.degree, seed)
                    assert got == split_by_trace(big, f.degree, seed)
                    assert len(got) == 2 and got[0] * got[1] == big


def _seeded_split_inputs(count: int) -> list[tuple[Poly, int]]:
    """(transform, n) for `count` seeded monic irreducibles f of degree n
    <= 6 over primes p < 160 whose transform under a C1, C2, C3 or C3-
    multiplier has character +1, i.e. is a reciprocal pair g * g*."""
    rng = random.Random(3)
    primes = [p for p in range(3, 160) if is_prime(p)]
    out = []
    while len(out) < count:
        p = rng.choice(primes)
        try:
            k = rng.choice(find_k(p, rng.choice(("C1", "C2", "C3", "C3-"))))
        except UnsupportedPrimeError:
            continue
        f = random_irreducible(p, rng.randint(1, 6), rng)
        if f != Poly.x(p) and transform_character(f, k) == 1:
            out.append((qk_transform(f, k), f.degree))
    return out


def test_splitting_matches_powering_on_seeded_transforms() -> None:
    for big, n in _seeded_split_inputs(200):
        for seed in range(3):
            got = equal_degree_factorize(big, n, seed)
            assert got == split_by_powering(big, n, seed)
            assert got == split_by_trace(big, n, seed)
            assert got[0] != got[1] and got[0] * got[1] == big


def _reference_splits(steps: int = 11) -> list[tuple[Poly, int]]:
    """(transform, d) for every chi = +1 step of the k = 15 reference chain
    over F_53: d = 10, 10, 20, 40, 80, 160 for 11 steps."""
    chain = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, steps)
    return [(qk_transform(s.poly, 15), s.poly.degree) for s in chain.steps
            if transform_character(s.poly, 15) == 1]


def test_reference_chain_splits_match_the_trace_oracle() -> None:
    splits = _reference_splits()
    assert [d for _, d in splits] == [10, 10, 20, 40, 80, 160]
    for big, d in splits:
        got = equal_degree_factorize(big, d)
        assert got == split_by_trace(big, d, 0)
        assert got[0].degree == d and got[0] * got[1] == big


def test_a_valid_split_takes_one_gcd(monkeypatch) -> None:
    # every split of the k = 15 reference chain, d = 10 to 160: Rabin's test
    # of the half-degree h takes no gcd, and the first S with D S^2 != 0
    # needs one gcd, at degree 2d
    calls = []
    gcd_raw = ffpoly._gcd_raw

    def counted_gcd(a, b, p):
        calls.append(len(b) - 1)
        return gcd_raw(a, b, p)

    chain = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, 11)
    monkeypatch.setattr(ffpoly, "_gcd_raw", counted_gcd)
    split_degrees = []
    for step in chain.steps:
        f = step.poly
        if transform_character(f, 15) == 1:
            split_degrees.append(f.degree)
            for seed in range(3):
                calls.clear()
                equal_degree_factorize(qk_transform(f, 15), f.degree, seed)
                assert calls == [2 * f.degree]
    assert split_degrees == [10, 10, 20, 40, 80, 160]


def _palindromic_monics(p: int, d: int):
    """Every monic palindromic polynomial of degree 2d over F_p: p^d of them,
    free in the coefficients of x^1 .. x^d."""
    for idx in range(p**d):
        half = [1] + [idx // p**i % p for i in range(d)]
        yield Poly(tuple(half + half[-2::-1]), p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factorize_decides_every_small_palindromic_input(p) -> None:
    # ground truth by divisor search: the pair exactly when f = g * g* with g
    # irreducible of degree d and g != g*; MalformedInputError for the rest,
    # among them (x -+ 1)^2 (...), h * h with h its own reciprocal, and
    # products of smaller reciprocal pairs, which only Rabin's test of the
    # half-degree h tells from g * g*
    decided = {True: 0, False: 0}
    for d in (1, 2, 3):
        for f in _palindromic_monics(p, d):
            want = reciprocal_pair_by_search(f, d)
            decided[want is not None] += 1
            if want is None:
                with pytest.raises(MalformedInputError):
                    equal_degree_factorize(f, d)
            else:
                assert equal_degree_factorize(f, d) == want, f.coeffs
    assert decided[True] and decided[False]
    assert sum(decided.values()) == p + p**2 + p**3


def test_a_split_runs_at_the_half_degree(monkeypatch) -> None:
    # one split of the k = 15 chain at d = 40: one packed table, with d rows,
    # and no context of degree 2d
    big, d = _reference_splits(7)[-1]
    assert d == 40
    tables, contexts = [], []

    class RecordedRows(ffpoly._PackedRows):
        def __init__(self, rows, n, p):
            super().__init__(rows, n, p)
            tables.append(self)

    class RecordedContext(ModulusContext):
        def __init__(self, modulus):
            super().__init__(modulus)
            contexts.append(self.n)

    monkeypatch.setattr(ffpoly, "_PackedRows", RecordedRows)
    monkeypatch.setattr(ffpoly, "ModulusContext", RecordedContext)
    first, second = equal_degree_factorize(big, d)
    assert first * second == big
    assert [(t.n, len(t.rows)) for t in tables] == [(d, d)]
    assert contexts == [d]


def test_half_degree_inverts_the_transform_at_k_1() -> None:
    rng = random.Random(11)
    pairs = [big for big, _ in _reference_splits(9)]
    while len(pairs) < 5 + 50:
        p = rng.choice((3, 5, 13, 53, 65521, 2**31 - 1))
        g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 11))] + [1]
        inv = pow(g[0], -1, p)
        pairs.append(Poly(tuple(g), p) * Poly(tuple(c * inv for c in reversed(g)), p))
    for big in pairs:
        d = big.degree // 2
        assert big.coeffs == big.coeffs[::-1]
        h = Poly(tuple(ffpoly._half_degree(list(big.coeffs), d, big.p)), big.p)
        assert h.degree == d and qk_transform(h, 1) == big


def test_split_table_is_capped_at_the_factor_degree(monkeypatch) -> None:
    # the split's table takes d^2 slots of w bytes: 20^2 * 2 at d = 20, p = 53
    big, d = _reference_splits(4)[-1]
    assert d == 20
    want = equal_degree_factorize(big, d)

    def unreachable(*args):
        raise AssertionError("work began before the size check")

    monkeypatch.setattr(ffpoly, "MAX_ROW_TABLE_BYTES", d * d * 2 - 1)
    monkeypatch.setattr(ffpoly, "_half_degree", unreachable)
    with pytest.raises(ResourceCapError, match=f"{d * d * 2} bytes"):
        equal_degree_factorize(big, d)
    monkeypatch.undo()
    monkeypatch.setattr(ffpoly, "MAX_ROW_TABLE_BYTES", d * d * 2)
    assert equal_degree_factorize(big, d) == want


def test_is_irreducible_matches_trial_division() -> None:
    # every monic input, squarefree or not: Rabin's test's product witness
    # is sound only because its last check rejects repeated factors
    inputs = [Poly(tuple(idx // p**i % p for i in range(deg)) + (1,), p)
              for p, top in ((3, 4), (5, 4), (7, 3))
              for deg in range(1, top + 1) for idx in range(p**deg)]
    assert len(inputs) == 1299
    for f in inputs:
        assert is_irreducible(f) == irreducible_by_trial_division(f), f.coeffs


def test_is_irreducible_takes_no_gcd(monkeypatch) -> None:
    # the k = 15 reference chain to degree 160, each member's square and
    # each member's transform, irreducible exactly when the character is -1
    chain = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, 11)
    assert chain.steps[-1].poly.degree == 160

    def unreachable(*args):
        raise AssertionError("a gcd was taken")

    monkeypatch.setattr(ffpoly, "_gcd_raw", unreachable)
    for step in chain.steps:
        f = step.poly
        assert is_irreducible(f)
        assert not is_irreducible(f * f)
        assert is_irreducible(qk_transform(f, 15)) == (transform_character(f, 15) == -1)


def test_rabin_with_a_twist_agrees_with_is_irreducible() -> None:
    # L = (times c) o (y -> y^p) for a random unit c != 1: the same verdict
    # as c = 1, and for an irreducible modulus the sum of the first n terms
    # of the orbit of 1, computed here by powering by p
    rng = random.Random(18)
    verdicts = set()
    for p in (3, 5, 7, 53):
        for n in range(2, 8):
            for _ in range(10):
                m = Poly(tuple(rng.randrange(p) for _ in range(n)) + (1,), p)
                ctx = ModulusContext(m)
                c = [1]
                while c == [1] or _gcd_raw(c, ctx._m, p) != [1]:
                    c = _trim([rng.randrange(p) for _ in range(n)])
                got = _rabin(ctx, _PackedRows(ctx._frobenius_rows(c), n, p))
                irreducible = is_irreducible(m)
                verdicts.add(irreducible)
                assert (got is not None) == irreducible, (p, m.coeffs, c)
                if irreducible:
                    s, z = [0] * n, [1]
                    for _ in range(n):
                        s = [(a + b) % p for a, b in zip(s, z + [0] * n)]
                        z = ctx.mulmod(c, ctx.powmod(z, p))
                    assert got == _trim(s)
    assert verdicts == {True, False}


def test_is_irreducible_known_cases() -> None:
    assert is_irreducible(Poly((1, 0, 1), 3))  # x^2+1 over F_3
    assert not is_irreducible(Poly((1, 0, 1), 5))  # (x+2)(x+3) over F_5
    assert is_irreducible(Poly((51, 3, 0, 0, 0, 1), 53))  # seed used downstream
    assert is_irreducible(Poly((2, 1), 5))
    with pytest.raises(UsageError):
        is_irreducible(Poly((3,), 5))


def test_is_irreducible_accepts_non_monic() -> None:
    f = Poly((1, 0, 1), 3) * 2
    assert is_irreducible(f)


def test_smallest_irreducible() -> None:
    assert smallest_irreducible(5, 1).coeffs == (0, 1)
    f = smallest_irreducible(5, 2)
    assert f.is_monic and is_irreducible(f)
    # exhaustively confirm minimality under the base-p enumeration order
    for idx in range(f.coefficient(0) + 5 * f.coefficient(1)):
        g = Poly((idx % 5, idx // 5, 1), 5)
        assert not is_irreducible(g)


def test_random_irreducible_is_irreducible() -> None:
    rng = random.Random(0)
    for _ in range(5):
        f = random_irreducible(13, 4, rng)
        assert f.degree == 4 and f.is_monic and is_irreducible(f)


# ---------------------------------------------------------------------------
# equal-degree factorization
# ---------------------------------------------------------------------------


def test_factorize_hand_value() -> None:
    # x^2 + 1 = (x+2)(x+3) over F_5
    factors = equal_degree_factorize(Poly((1, 0, 1), 5), 1)
    assert [f.coeffs for f in factors] == [(2, 1), (3, 1)]


def _reciprocal(g: Poly) -> Poly:
    return Poly(g.coeffs[::-1], g.p).monic()


def test_factorize_deterministic_for_seed() -> None:
    # the first split of the k = 15 reference chain, degree 20 into 10 + 10
    f10 = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, 1).steps[1].poly
    big = qk_transform(f10, 15)
    assert big.degree == 20 and not is_irreducible(big)
    runs = [equal_degree_factorize(big, 10, seed=123) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    first, second = runs[0]
    assert first.coeffs < second.coeffs and second == _reciprocal(first)


def test_factorize_sorted_output_seed_independent() -> None:
    p = 13
    g = Poly((2, 1, 1), p)  # x^2 + x + 2, irreducible; reciprocal x^2 + 7x + 7
    assert is_irreducible(g) and _reciprocal(g) != g
    f = g * _reciprocal(g)
    got = [equal_degree_factorize(f, 2, seed=seed) for seed in range(20)]
    assert all(parts == sorted((g, _reciprocal(g)), key=lambda q: q.coeffs) for parts in got)


def test_factorize_rejects_what_is_not_a_reciprocal_pair() -> None:
    p = 53
    g = Poly((7, 1, 1), p)  # x^2 + x + 7, irreducible
    assert is_irreducible(g) and _reciprocal(g) != g
    for f in (Poly((1, 0, 1), p) * g, g * g):
        for seed in range(3):
            with pytest.raises(MalformedInputError):
                equal_degree_factorize(f, 2, seed=seed)


def test_factorize_rejects_a_non_palindromic_input_before_any_attempt(monkeypatch) -> None:
    # f = g * g* satisfies x^(2d) f(1/x) = f; these inputs do not, so no gcd is taken
    def unreachable(*args):
        raise AssertionError("a split attempt was made")

    monkeypatch.setattr(ffpoly, "_gcd_raw", unreachable)
    p = 53
    g = Poly((7, 1, 1), p)  # x^2 + x + 7, irreducible, not its own reciprocal
    for f, d in ((Poly((1, 0, 1), p) * g, 2), (g * g, 2),
                 (Poly((1, 1) + (0,) * 78 + (1,), p), 40)):
        with pytest.raises(MalformedInputError, match="not palindromic"):
            equal_degree_factorize(f, d)


def test_factorize_rejects_palindromic_inputs_that_are_not_reciprocal_pairs() -> None:
    # palindromic, so they pass the pre-check: h * h has a half-degree
    # (y + 3)^2, which fails Rabin's test; the two transforms are
    # irreducible, so D is not a square in K and D S^2 is not a constant
    # square (with d = 1, D S^2 = D is a constant non-square).  The last is
    # g1 g1* g2 g2* over F_5, with half-degree (y^2 + 4y + 1)(y^2 + 2): its
    # traces can take the shape of a pair's, and only Rabin's test of the
    # half-degree rejects it for every seed
    p = 53
    h = Poly((1, 3, 1), p)  # x^2 + 3x + 1, irreducible and its own reciprocal
    q = Poly((6, 1, 1), p)  # character -1 under k = 15: the transform is irreducible
    assert is_irreducible(h) and transform_character(q, 15) == -1
    assert transform_character(Poly((1, 1), p), 15) == -1
    for f, d in ((h * h, 2), (qk_transform(q, 15), 2), (qk_transform(Poly((1, 1), p), 15), 1),
                 (Poly((1, 4, 2, 0, 4, 0, 2, 4, 1), 5), 4)):
        assert f.coeffs == f.coeffs[::-1]
        for seed in range(3):
            with pytest.raises(MalformedInputError):
                equal_degree_factorize(f, d, seed=seed)


def test_factorize_rejects_an_irreducible_transform_before_any_gcd(monkeypatch) -> None:
    # the degree-80 transform of the degree-40 step of the k = 15 chain
    # (character -1) is palindromic and irreducible: its half-degree h passes
    # Rabin's test, but D is not a square in K, so the first S fails
    # D S^2 == t^2, and no gcd is taken
    f40 = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, 7).steps[7].poly
    assert f40.degree == 40 and transform_character(f40, 15) == -1
    big = qk_transform(f40, 15)

    def unreachable(*args):
        raise AssertionError("a gcd was taken")

    monkeypatch.setattr(ffpoly, "_gcd_raw", unreachable)
    for seed in range(3):
        with pytest.raises(MalformedInputError):
            equal_degree_factorize(big, 40, seed)


def test_factorize_rejects_wrong_degree() -> None:
    p = 5
    with pytest.raises(MalformedInputError):
        equal_degree_factorize(Poly((1, 0, 1), p) * Poly((2, 1), p), 2)


def test_factorize_detects_unequal_split() -> None:
    # (x+1)(x^2+2) over F_5: degree 3 is not a multiple of 2
    p = 5
    f = Poly((1, 1), p) * Poly((2, 0, 1), p)
    with pytest.raises(MalformedInputError):
        equal_degree_factorize(f, 2)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_parse_poly_coefficient_list() -> None:
    f = parse_poly("51,3,0,0,0,1", 53)
    assert f.coeffs == (51, 3, 0, 0, 0, 1)
    assert parse_poly("-2, 1", 5).coeffs == (3, 1)
    assert parse_poly("7", 5).coeffs == (2,)


def test_parse_poly_human_form() -> None:
    f = parse_poly("x^5+3*x+51", 53)
    assert f.coeffs == (51, 3, 0, 0, 0, 1)
    assert parse_poly("x^2 - x - 1", 5).coeffs == (4, 4, 1)
    assert parse_poly("x", 5).coeffs == (0, 1)
    assert parse_poly("2x^3+x", 7).coeffs == (0, 1, 0, 2)
    assert parse_poly("x**2+1", 5).coeffs == (1, 0, 1)
    assert parse_poly("-x+2", 5).coeffs == (2, 4)


def test_parse_poly_rejects_garbage() -> None:
    for bad in ("", "x^", "y+1", "1,,2", "3..1", "x^-2", "+", "x+", "x^2+1+", "-x-"):
        with pytest.raises(MalformedInputError):
            parse_poly(bad, 5)


def test_parse_poly_degree_cap() -> None:
    cap = MAX_POLY_DEGREE
    assert parse_poly(f"x^{cap}+1", 5).degree == cap
    assert parse_poly(",".join(["0"] * cap + ["1"]), 5).degree == cap
    assert parse_poly("x^" + "0" * 30 + "2", 5).degree == 2  # leading zeros
    for text in (f"x^{cap + 1}+1", "x^300000000+1", "3x^" + "9" * 5000,
                 ",".join(["0"] * (cap + 1) + ["1"])):
        with pytest.raises(ResourceCapError):
            parse_poly(text, 5)
    # more digits than int() converts is malformed, not a traceback
    with pytest.raises(MalformedInputError):
        parse_poly("x+" + "9" * 5000, 5)


def test_format_roundtrip() -> None:
    rng = random.Random(2)
    for _ in range(30):
        p = rng.choice([5, 53])
        f = Poly(tuple(rng.randrange(p) for _ in range(rng.randrange(0, 8))), p)
        assert parse_poly(format_poly(f), p) == f
        assert parse_poly(format_poly_human(f), p) == f


@settings(derandomize=True, database=None, max_examples=300)
@given(
    st.sampled_from([3, 5, 53, 997, 2**61 - 1]),
    st.lists(st.integers(0, 10**20 - 1), max_size=12),
)
def test_parse_inverts_both_formats(p, coeffs) -> None:
    f = Poly(tuple(coeffs), p)
    assert parse_poly(format_poly(f), p) == f
    assert parse_poly(format_poly_human(f), p) == f


def test_format_poly_human_examples() -> None:
    assert format_poly_human(Poly((51, 3, 0, 0, 0, 1), 53)) == "x^5+3*x+51"
    assert format_poly_human(Poly((1, 0, 2, 0, 1), 5)) == "x^4+2*x^2+1"
    assert format_poly_human(Poly((), 5)) == "0"
    assert format_poly_human(Poly((0, 1), 5)) == "x"
