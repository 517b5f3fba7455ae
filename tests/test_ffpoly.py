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
    _digits,
    _divmod_raw,
    _gcd_raw,
    _kron_mul,
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
    monic_irreducibles,
    poly_add,
    poly_divmod,
    poly_sub,
    random_irreducible,
    reciprocal_pair_by_search,
    reciprocal_pairs,
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
                got = equal_degree_factorize(f, k)
                assert len(got) == 2 and got[0] * got[1] == big
                for seed in range(3):
                    assert got == split_by_powering(big, f.degree, seed)
                    assert got == split_by_trace(big, f.degree, seed)


def _seeded_split_inputs(count: int) -> list[tuple[Poly, int]]:
    """(f, k) for `count` seeded monic irreducibles f of degree <= 6 over
    primes p < 160 and C1, C2, C3 or C3- multipliers k with character +1,
    whose transform is a reciprocal pair g * g*."""
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
            out.append((f, k))
    return out


def test_splitting_matches_powering_on_seeded_transforms() -> None:
    for f, k in _seeded_split_inputs(200):
        big, n = qk_transform(f, k), f.degree
        got = equal_degree_factorize(f, k)
        assert got[0] != got[1] and got[0] * got[1] == big
        for seed in range(3):
            assert got == split_by_powering(big, n, seed)
            assert got == split_by_trace(big, n, seed)


def _reference_splits(steps: int = 11) -> list[Poly]:
    """Every member f with chi = +1 of the k = 15 reference chain over F_53:
    degrees 10, 10, 20, 40, 80, 160 for 11 steps."""
    chain = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, steps)
    return [s.poly for s in chain.steps if transform_character(s.poly, 15) == 1]


def test_reference_chain_splits_match_the_trace_oracle() -> None:
    splits = _reference_splits()
    assert [f.degree for f in splits] == [10, 10, 20, 40, 80, 160]
    for f in splits:
        big, d = qk_transform(f, 15), f.degree
        got = equal_degree_factorize(f, 15)
        assert got == split_by_trace(big, d, 0)
        assert got[0].degree == d and got[0] * got[1] == big


def test_a_valid_split_takes_one_gcd(monkeypatch) -> None:
    # every split of the k = 15 reference chain, d = 10 to 160: the orbit of
    # b = 1 alone, S = sum_(i<d) L^i(1), takes d - 1 applications of the
    # table, has D S^2 != 0 and needs one gcd, at degree 2d
    calls, applied = [], []
    gcd_raw, apply = ffpoly._gcd_raw, _PackedRows.apply

    def counted_gcd(a, b, p):
        calls.append(len(b) - 1)
        return gcd_raw(a, b, p)

    monkeypatch.setattr(ffpoly, "_gcd_raw", counted_gcd)
    monkeypatch.setattr(_PackedRows, "apply", lambda self, cs: applied.append(1) or apply(self, cs))
    splits = _reference_splits()
    assert [f.degree for f in splits] == [10, 10, 20, 40, 80, 160]
    for f in splits:
        calls.clear()
        applied.clear()
        equal_degree_factorize(f, 15)
        assert calls == [2 * f.degree]
        assert len(applied) == f.degree - 1


def _small_split_cases():
    """(p, d) for the exhaustive split test: degree <= 4 for p <= 7, <= 3
    above."""
    return [(p, d) for p in (3, 5, 7, 11, 13) for d in range(1, (4 if p <= 7 else 3) + 1)]


@pytest.mark.parametrize("p, splits", [(3, 26), (5, 388), (7, 2130), (11, 2490), (13, 4860)])
def test_factorize_splits_every_small_transform_of_an_irreducible(p, splits) -> None:
    # every monic irreducible f of degree d <= 3 over F_p (<= 4 for p <= 7)
    # and every k != 0: chi = +1 gives the pair that divisor search finds in
    # the transform; chi = -1 (an irreducible transform) and chi = 0
    # (x -+ 2k, a square transform) are refused
    verdicts = {-1: 0, 0: 0, 1: 0}
    for _, d in [case for case in _small_split_cases() if case[0] == p]:
        pairs = reciprocal_pairs(p, d)
        for f in monic_irreducibles(p, d):
            for k in range(1, p):
                chi = transform_character(f, k)
                verdicts[chi] += 1
                if chi == 1:
                    want = pairs.get(qk_transform(f, k))
                    assert want is not None and equal_degree_factorize(f, k) == want, (p, k, f)
                else:
                    with pytest.raises(MalformedInputError):
                        equal_degree_factorize(f, k)
    # 9,894 splits over the five fields, 16 of them of f = x, which a chain
    # excludes
    assert verdicts[1] == splits and verdicts[-1] and verdicts[0]


def test_factorize_retries_with_the_next_power_of_y(monkeypatch) -> None:
    # b = 1 can give S = 0, and then b = y, y^2, ... follow, d - 1
    # applications of the table each: x^2 + 2 over F_5 (k = 2) needs b = y,
    # and x^4 + x^2 + 2 (k = 1) needs b = y^3, the last of the d attempts
    applied = []
    apply = _PackedRows.apply
    monkeypatch.setattr(_PackedRows, "apply", lambda self, cs: applied.append(1) or apply(self, cs))
    for f, k, attempts in ((Poly((2, 0, 1), 5), 2, 2), (Poly((2, 0, 1, 0, 1), 5), 1, 4)):
        d = f.degree
        assert is_irreducible(f) and transform_character(f, k) == 1
        applied.clear()
        got = equal_degree_factorize(f, k)
        assert len(applied) == attempts * (d - 1), f
        assert got == reciprocal_pair_by_search(qk_transform(f, k), d)


def test_the_pair_table_is_divisor_search() -> None:
    # monic_irreducibles has Gauss's count (1/d) sum_(e | d) mu(d/e) p^e in
    # every case of the exhaustive split test, and reciprocal_pairs agrees
    # with reciprocal_pair_by_search on every monic palindromic input of
    # degree 2d <= 6 over F_3 and F_5
    mobius = {1: 1, 2: -1, 3: -1, 4: 0}
    for p, d in _small_split_cases():
        count = sum(mobius[d // e] * p**e for e in range(1, d + 1) if d % e == 0) // d
        assert len(monic_irreducibles(p, d)) == count, (p, d)
    for p in (3, 5):
        for d in (1, 2, 3):
            pairs = reciprocal_pairs(p, d)
            for idx in range(p**d):
                half = [1] + _digits(idx, p, d)
                f = Poly(tuple(half + half[-2::-1]), p)
                assert pairs.get(f) == reciprocal_pair_by_search(f, d), f.coeffs


def test_a_split_runs_at_the_half_degree(monkeypatch) -> None:
    # one split of the k = 15 chain at d = 40: one packed table, with d rows,
    # and no context of degree 2d
    f = _reference_splits(7)[-1]
    big, d = qk_transform(f, 15), f.degree
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
    first, second = equal_degree_factorize(f, 15)
    assert first * second == big
    assert [(t.n, len(t.rows)) for t in tables] == [(d, d)]
    assert contexts == [d]


def test_split_table_is_capped_at_the_factor_degree(monkeypatch) -> None:
    # the split's table takes d^2 slots of w bytes: 20^2 * 2 at d = 20, p = 53
    f = _reference_splits(4)[-1]
    d = f.degree
    assert d == 20
    want = equal_degree_factorize(f, 15)

    def unreachable(*args):
        raise AssertionError("work began before the size check")

    monkeypatch.setattr(ffpoly, "MAX_ROW_TABLE_BYTES", d * d * 2 - 1)
    monkeypatch.setattr(ffpoly, "_eval_raw", unreachable)
    monkeypatch.setattr(ffpoly, "ModulusContext", unreachable)
    with pytest.raises(ResourceCapError, match=f"{d * d * 2} bytes"):
        equal_degree_factorize(f, 15)
    monkeypatch.undo()
    monkeypatch.setattr(ffpoly, "MAX_ROW_TABLE_BYTES", d * d * 2)
    assert equal_degree_factorize(f, 15) == want


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


def test_is_irreducible_applies_the_table_n_times(monkeypatch) -> None:
    # Rabin's test follows the orbit of x alone: an irreducible member of
    # degree n of the k = 15 chain costs n applications of the table
    applied = []
    apply = _PackedRows.apply
    monkeypatch.setattr(_PackedRows, "apply", lambda self, cs: applied.append(1) or apply(self, cs))
    chain = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, 8)
    for step in chain.steps:
        applied.clear()
        assert is_irreducible(step.poly)
        assert len(applied) == step.poly.degree
    applied.clear()
    product = chain.steps[-1].poly * chain.steps[0].poly
    assert not is_irreducible(product) and len(applied) <= product.degree


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


def test_smallest_irreducible_matches_trial_division() -> None:
    # no smaller candidate is irreducible and the result is, both by trial
    # division
    for p in filter(is_prime, range(3, 30)):
        for n in range(1, 5):
            if p**n >= 10**5:
                continue
            f = smallest_irreducible(p, n)
            assert f.degree == n and f.is_monic and irreducible_by_trial_division(f), (p, n)
            idx = sum(c * p**i for i, c in enumerate(f.coeffs[:-1]))
            for j in range(idx):
                g = Poly(tuple(_digits(j, p, n)) + (1,), p)
                assert not irreducible_by_trial_division(g), (p, n, g)


def test_smallest_irreducible_at_large_p() -> None:
    # x^2 + c is irreducible iff -c is not a square, x^3 + c at p = 1 (mod 3)
    # iff -c is not a cube; the root test costs O(log p) products, so the
    # search stays fast where p itself is out of reach
    for p, n, e in ((2053, 2, 2), (10**9 + 9, 2, 2), (2053, 3, 3), (10**9 + 9, 3, 3)):
        assert is_prime(p) and p % 4 == 1 and p % 3 == 1
        c = next(c for c in range(1, p) if pow(-c, (p - 1) // e, p) != 1)
        assert smallest_irreducible(p, n).coeffs == (c,) + (0,) * (n - 1) + (1,), (p, n)


def test_random_irreducible_is_irreducible() -> None:
    rng = random.Random(0)
    for _ in range(5):
        f = random_irreducible(13, 4, rng)
        assert f.degree == 4 and f.is_monic and is_irreducible(f)


# ---------------------------------------------------------------------------
# equal-degree factorization
# ---------------------------------------------------------------------------


def test_factorize_hand_value() -> None:
    # the transform of x is x^2 + 1 = (x+2)(x+3) over F_5, for every k
    for k in range(1, 5):
        factors = equal_degree_factorize(Poly.x(5), k)
        assert [f.coeffs for f in factors] == [(2, 1), (3, 1)]


def _reciprocal(g: Poly) -> Poly:
    return Poly(g.coeffs[::-1], g.p).monic()


def test_factorize_is_deterministic() -> None:
    # the first split of the k = 15 reference chain, degree 20 into 10 + 10
    f10 = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, 1).steps[1].poly
    big = qk_transform(f10, 15)
    assert big.degree == 20 and not is_irreducible(big)
    runs = [equal_degree_factorize(f10, 15) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    first, second = runs[0]
    assert first.coeffs < second.coeffs and second == _reciprocal(first)


def test_factorize_output_is_sorted_for_every_multiplier() -> None:
    p = 13
    g = Poly((2, 1, 1), p)  # x^2 + x + 2, irreducible; reciprocal x^2 + 7x + 7
    assert is_irreducible(g) and _reciprocal(g) != g
    big = g * _reciprocal(g)  # x^4 + a x^3 + b x^2 + a x + 1 = x^2 h(x + 1/x)
    a, b = big.coeffs[3], big.coeffs[2]
    for k in range(1, p):
        # h(y) = y^2 + a y + b - 2, and the transform of k^2 h(y/k) is big
        f = Poly(((b - 2) * k * k, a * k, 1), p)
        assert qk_transform(f, k) == big
        assert equal_degree_factorize(f, k) == sorted((g, _reciprocal(g)), key=lambda q: q.coeffs)


def test_factorize_rejects_a_ramified_input_before_any_work(monkeypatch) -> None:
    # x -+ 2k (character 0) has f(2k) f(-2k) = 0: D is not a unit in K, and
    # the split refuses it before building the field or its table
    def unreachable(*args):
        raise AssertionError("the split built its field")

    monkeypatch.setattr(ffpoly, "ModulusContext", unreachable)
    monkeypatch.setattr(ffpoly, "_PackedRows", unreachable)
    for p, k in ((5, 1), (13, 4), (53, 15)):
        for sign in (1, -1):
            f = Poly((-sign * 2 * k % p, 1), p)
            assert transform_character(f, k) == 0
            with pytest.raises(MalformedInputError, match="not a product"):
                equal_degree_factorize(f, k)


def test_factorize_refuses_a_constant_or_non_monic_input() -> None:
    # the split's input is a monic f of degree >= 1, a chain member
    for f in (Poly((1,), 53), Poly((3,), 53), Poly((1, 2), 53), Poly((6, 1, 2), 53)):
        with pytest.raises(UsageError, match="monic polynomial of degree >= 1"):
            equal_degree_factorize(f, 15)


def test_factorize_rejects_an_irreducible_transform_before_any_gcd(monkeypatch) -> None:
    # the degree-80 transform of the degree-40 step of the k = 15 chain
    # (character -1) is irreducible: D is not a square in K, so the first S
    # fails D S^2 == t^2, and no gcd is taken
    f40 = generate_sequence(Poly((51, 3, 0, 0, 0, 1), 53), 15, 7).steps[7].poly
    assert f40.degree == 40 and transform_character(f40, 15) == -1
    assert is_irreducible(qk_transform(f40, 15))

    def unreachable(*args):
        raise AssertionError("a gcd was taken")

    monkeypatch.setattr(ffpoly, "_gcd_raw", unreachable)
    with pytest.raises(MalformedInputError, match="not a product"):
        equal_degree_factorize(f40, 15)


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
