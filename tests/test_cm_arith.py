"""Tests for quadratic-order arithmetic, point counting, Frobenius lifts, and
depth pairs."""

import random
from math import isqrt

import pytest

from qkforge.cm_arith import (
    CURVE_DISC4,
    CURVE_DISC7,
    DepthPair,
    QuadInt,
    count_points,
    _nu2,
    depth_table,
    depths,
    frobenius_pi,
    rho0_select,
)
from qkforge.errors import InternalConsistencyError, UnsupportedPrimeError, UsageError
from qkforge.ffpoly import is_prime
from qkforge.qk import CLASSES, classify_k, find_k

from oracle import quad_mul, quad_pow


def pair(d: DepthPair) -> tuple[int, int]:
    return (d.e0, d.e1)


def _nu2_exact(m: int) -> int:
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    return e


def _rho_valuation_exact(z: QuadInt, rho: QuadInt) -> int:
    """Largest e with rho^e | z, by repeated exact division: rho has norm 2,
    so z / rho = z * conj(rho) / 2 whenever both coordinates are even."""
    e = 0
    while True:
        num = quad_mul(z, rho.conj())
        if num.a % 2 or num.b % 2:
            return e
        z = QuadInt(num.a // 2, num.b // 2, z.disc)
        e += 1


def _exact_depths(p: int, k: int, n: int, pi: QuadInt | None = None) -> tuple[int, int]:
    """The depth pair the slow way: pi**n in full, then nu_2 of the norm (C2)
    or repeated exact division by rho0 (C3, C3-).  pi defaults to the
    canonical Frobenius element."""
    if pi is None:
        pi = frobenius_pi(p, classify_k(p, k).name)
    z = quad_pow(pi, n)
    below, above = z + QuadInt(-1, 0, pi.disc), z + QuadInt(1, 0, pi.disc)
    if pi.disc == -4:
        return _nu2_exact(below.norm()), _nu2_exact(above.norm())
    rho = rho0_select(p, k, pi)
    return _rho_valuation_exact(below, rho), _rho_valuation_exact(above, rho)


# ---------------------------------------------------------------------------
# QuadInt algebra
# ---------------------------------------------------------------------------


def test_gaussian_multiplication() -> None:
    # (1+2i)(3+4i) = -5 + 10i
    z = quad_mul(QuadInt(1, 2, -4), QuadInt(3, 4, -4))
    assert (z.a, z.b) == (-5, 10)
    assert z.norm() == 125


def test_conjugation_preserves_products() -> None:
    rng = random.Random(9)
    for disc in (-4, -7):
        for _ in range(25):
            z = QuadInt(rng.randrange(-9, 10), rng.randrange(-9, 10), disc)
            w = QuadInt(rng.randrange(-9, 10), rng.randrange(-9, 10), disc)
            assert quad_mul(z, w).conj() == quad_mul(z.conj(), w.conj())
            assert z.conj().conj() == z
            assert z.conj().norm() == z.norm()


def test_alpha_satisfies_its_equation() -> None:
    alpha = QuadInt(0, 1, -7)
    assert quad_mul(alpha, alpha) == alpha + QuadInt(-2, 0, -7)  # alpha^2 = alpha - 2
    assert alpha.norm() == 2
    assert alpha.conj() == QuadInt(1, -1, -7)
    assert quad_mul(alpha, alpha.conj()) == QuadInt(2, 0, -7)
    assert alpha + alpha.conj() == QuadInt(1, 0, -7)


def test_norms_are_multiplicative() -> None:
    rng = random.Random(4)
    for disc in (-4, -7):
        for _ in range(30):
            z = QuadInt(rng.randrange(-9, 10), rng.randrange(-9, 10), disc)
            w = QuadInt(rng.randrange(-9, 10), rng.randrange(-9, 10), disc)
            assert quad_mul(z, w).norm() == z.norm() * w.norm()
            zc = quad_mul(z, z.conj())
            assert (zc.a, zc.b) == (z.norm(), 0)


def test_pow_matches_repeated_mul() -> None:
    for z in (QuadInt(-3, 2, -7), QuadInt(5, -4, -4)):
        acc = QuadInt(1, 0, z.disc)
        for e in range(40):
            assert quad_pow(z, e) == acc
            for mod in (1, 2, 7, 1 << 20):
                assert quad_pow(z, e, mod) == QuadInt(acc.a % mod, acc.b % mod, z.disc)
            acc = quad_mul(acc, z)
        with pytest.raises(UsageError):
            quad_pow(z, -1)
        with pytest.raises(UsageError):
            quad_pow(z, -1, 8)


def test_mixed_disc_rejected() -> None:
    with pytest.raises(UsageError):
        QuadInt(1, 0, -4) + QuadInt(1, 0, -7)
    with pytest.raises(UsageError):
        quad_mul(QuadInt(1, 0, -4), QuadInt(1, 0, -7))
    with pytest.raises(UsageError):
        QuadInt(1, 0, -3)


# ---------------------------------------------------------------------------
# point counting
# ---------------------------------------------------------------------------


def _count_by_enumeration(p: int, a4: int, a6: int) -> int:
    pts = 1  # the point at infinity
    for x in range(p):
        rhs = (x**3 + a4 * x + a6) % p
        for y in range(p):
            if y * y % p == rhs:
                pts += 1
    return pts


def test_count_points_matches_enumeration() -> None:
    for p in (5, 13, 53):
        expected = _count_by_enumeration(p, CURVE_DISC4.a4, CURVE_DISC4.a6)
        assert count_points(CURVE_DISC4, p) == expected
    for p in (11, 23, 29):
        expected = _count_by_enumeration(p, CURVE_DISC7.a4, CURVE_DISC7.a6)
        assert count_points(CURVE_DISC7, p) == expected


def test_count_points_frozen_values() -> None:
    assert count_points(CURVE_DISC4, 53) == 68
    assert count_points(CURVE_DISC4, 5) == 4
    assert count_points(CURVE_DISC4, 13) == 20
    assert count_points(CURVE_DISC7, 11) == 16


def test_count_points_unsupported_primes() -> None:
    with pytest.raises(UnsupportedPrimeError):
        count_points(CURVE_DISC4, 7)  # 7 = 3 mod 4
    with pytest.raises(UnsupportedPrimeError):
        count_points(CURVE_DISC7, 7)  # ramified
    with pytest.raises(UnsupportedPrimeError):
        count_points(CURVE_DISC7, 3)  # 3 is a non-residue mod 7
    with pytest.raises(UsageError):
        count_points(CURVE_DISC4, 15)


# ---------------------------------------------------------------------------
# Frobenius lift
# ---------------------------------------------------------------------------


def test_frobenius_frozen_values() -> None:
    assert frobenius_pi(53, "C2") == QuadInt(-7, 2, -4)
    assert frobenius_pi(5, "C2") == QuadInt(1, 2, -4)
    assert frobenius_pi(13, "C2") == QuadInt(-3, 2, -4)
    assert frobenius_pi(11, "C3") == QuadInt(-3, 2, -7)
    # C3 and C3- share the same order, hence the same Frobenius
    assert frobenius_pi(11, "C3-") == frobenius_pi(11, "C3")


def test_frobenius_norm_and_trace() -> None:
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 113):
        pi = frobenius_pi(p, "C2")
        assert pi.norm() == p
        assert pi.b > 0
        trace = (pi + pi.conj()).a
        assert trace == p + 1 - count_points(CURVE_DISC4, p)
        assert trace * trace <= 4 * p  # Hasse bound
    for p in (11, 23, 29, 37, 43, 53, 67, 71, 79, 107, 109, 113):
        pi = frobenius_pi(p, "C3")
        assert pi.norm() == p
        assert pi.b > 0
        trace = (pi + pi.conj()).a
        assert trace == p + 1 - count_points(CURVE_DISC7, p)
        assert trace * trace <= 4 * p


def _pi_from_point_count(p: int, disc: int) -> QuadInt:
    """The Frobenius element the slow way: the trace t from count_points,
    then the canonical pi of norm p and trace t with second coordinate > 0."""
    curve = CURVE_DISC4 if disc == -4 else CURVE_DISC7
    t = p + 1 - count_points(curve, p)
    if disc == -4:
        return QuadInt(t // 2, isqrt(p - (t // 2) ** 2), -4)
    v = isqrt((4 * p - t * t) // 7)
    return QuadInt((t - v) // 2, v, -7)


def test_frobenius_matches_point_count_route() -> None:
    # Cornacchia with the sign rules against the O(p) point count, for every
    # admissible p < 10^4 and both discriminants
    checked = 0
    for p in range(3, 10**4, 2):
        if not is_prime(p):
            continue
        for name, disc in (("C2", -4), ("C3", -7)):
            if not CLASSES[name].admits(p):
                continue
            pi = _pi_from_point_count(p, disc)
            assert pi.norm() == p
            assert frobenius_pi(p, name) == pi, (p, name)
            checked += 1
    assert checked == 1216


def test_frobenius_rejects_unknown_class() -> None:
    with pytest.raises(UsageError):
        frobenius_pi(53, "C1")
    with pytest.raises(UsageError):
        frobenius_pi(53, "Generic")


def test_frobenius_second_coordinate_exact() -> None:
    # the isqrt in the construction must be exact; rerun the identity
    for p in (5, 13, 53, 61):
        pi = frobenius_pi(p, "C2")
        assert pi.a * pi.a + pi.b * pi.b == p
        assert pi.b == isqrt(p - pi.a * pi.a)


# ---------------------------------------------------------------------------
# embedding selection and valuations
# ---------------------------------------------------------------------------


def test_rho0_frozen_values() -> None:
    pi = frobenius_pi(11, "C3")
    assert rho0_select(11, 3, pi) == QuadInt(0, 1, -7)  # alpha itself
    assert rho0_select(11, 2, pi) == QuadInt(1, -1, -7)  # the conjugate


def test_rho0_residue_property() -> None:
    # rho0 = a + b*alpha must land on 2k+1 when alpha is sent to -u/v mod p;
    # a C3- multiplier k selects the same prime as the C3 multiplier -k
    from qkforge.ffpoly import inv_mod

    for p in (11, 23, 29, 37, 53, 67):
        pi = frobenius_pi(p, "C3")
        alpha_res = (-pi.a) * inv_mod(pi.b, p) % p
        for k in find_k(p, "C3"):
            rho = rho0_select(p, k, pi)
            got = (rho.a + rho.b * alpha_res) % p
            assert got == (2 * k + 1) % p
            assert rho0_select(p, -k, pi) == rho


def test_rho0_rejects_non_c3() -> None:
    pi = frobenius_pi(53, "C3")
    with pytest.raises(UsageError):
        rho0_select(53, 15, pi)  # 15 is C2 at p=53
    with pytest.raises(UsageError):
        rho0_select(53, 7, frobenius_pi(53, "C2"))  # wrong order


def test_depths_invariant_under_frobenius_conjugation() -> None:
    # recompute each depth pair with conj(pi) in place of pi; results must agree
    for p, k, n in ((53, 15, 1), (53, 15, 4), (13, 4, 3), (11, 3, 1), (11, 3, 2),
                    (53, 7, 5), (23, 16, 2)):
        pi_bar = frobenius_pi(p, classify_k(p, k).name).conj()
        assert pair(depths(p, k, n)) == _exact_depths(p, k, n, pi_bar)


# ---------------------------------------------------------------------------
# depth pairs
# ---------------------------------------------------------------------------


def test_depths_frozen_c2() -> None:
    assert depths(53, 15, 1) == DepthPair(2, 3, 53, 1, "C2")
    assert pair(depths(53, 15, 5)) == (2, 3)  # norms 418202788 / 418188200
    assert pair(depths(5, 1, 1)) == (2, 3)
    assert pair(depths(13, 4, 1)) == (2, 3)
    assert pair(depths(13, 9, 1)) == (2, 3)


def test_depths_frozen_c3() -> None:
    assert depths(11, 3, 1) == DepthPair(3, 1, 11, 1, "C3")
    assert pair(depths(11, 2, 1)) == (1, 2)


def test_depths_doubling_frozen() -> None:
    # doubling the degree sends (e0, e1) to (e0 + e1, 2) for C2, (e0+e1, 1) for C3
    assert pair(depths(53, 15, 2)) == (5, 2)
    assert pair(depths(11, 3, 2)) == (4, 1)


def test_depth_bounds_properties() -> None:
    d = DepthPair(2, 3, 53, 1, "C2")
    assert d.s_bound == 3
    assert d.st_bound == 5
    assert (d.p, d.n, d.class_name) == (53, 1, "C2")


def test_depths_structure_small_sweep() -> None:
    for p in (5, 13, 17, 29, 37, 41, 53):
        for k in find_k(p, "C2"):
            d = depths(p, k, 1)
            assert d.e0 >= 2
            if d.e0 == 2:
                assert d.e1 >= 3
            else:
                assert d.e1 == 2
            dd = depths(p, k, 2)
            assert pair(dd) == (d.e0 + d.e1, 2)
    for p in (11, 23, 29, 37, 53):
        for name in ("C3", "C3-"):
            for k in find_k(p, name):
                d = depths(p, k, 1)
                assert d.class_name == name
                assert d.e0 >= 1
                if d.e0 == 1:
                    assert d.e1 >= 2
                else:
                    assert d.e1 == 1
                dd = depths(p, k, 2)
                assert pair(dd) == (d.e0 + d.e1, 1)


def test_depths_c3_minus_mirrors_negated_k() -> None:
    # k in C3- iff -k in C3, and the pair for k is computed through -k
    for p in (11, 23, 29, 53):
        for k in find_k(p, "C3-"):
            assert classify_k(p, (-k) % p).name == "C3"
            assert pair(depths(p, k, 1)) == pair(depths(p, (-k) % p, 1))
            assert pair(depths(p, k, 3)) == pair(depths(p, (-k) % p, 3))


def test_depths_errors() -> None:
    with pytest.raises(UsageError):
        depths(53, 27, 1)  # C1
    with pytest.raises(UsageError):
        depths(53, 3, 1)  # Generic
    with pytest.raises(UsageError):
        depths(53, 15, 0)
    with pytest.raises(UsageError):
        depths(7, 5, 1)  # the C3 congruence excludes p=7, so k=5 is Generic
    with pytest.raises(InternalConsistencyError):
        _nu2(0)  # a residue 0 mod 2^B: the precision bound failed


def test_depths_match_exact_route_small_primes() -> None:
    # the 2-adic route against pi**n in full, for every admissible (p, k)
    ns = list(range(1, 33)) + [64, 128, 256, 512, 1024]
    checked = 0
    for p in range(3, 600, 2):
        if not is_prime(p):
            continue
        for name in ("C2", "C3", "C3-"):
            try:
                ks = find_k(p, name)
            except UnsupportedPrimeError:
                continue
            for k in ks:
                pi = frobenius_pi(p, name)
                for n in ns:
                    assert pair(depths(p, k, n)) == _exact_depths(p, k, n, pi), (p, k, n)
                    checked += 1
    assert checked > 10000


def _sweep_degrees(max_n: int, max_m: int, max_i: int) -> set[int]:
    """The degrees `sweep-lemmas` reads: 1..max_n and 2^i * m for i <= max_i + 1."""
    return set(range(1, max_n + 1)) | {
        m << i for m in range(1, max_m + 1) for i in range(max_i + 2)}


def test_depth_table_matches_single_degrees_and_the_exact_route() -> None:
    # a grid wider than the sweep-lemmas defaults (6, 3, 3): degrees 1..9 and
    # 2^i * m up to 5 * 2^6 = 320, read off one ladder and one precision B
    degrees = _sweep_degrees(9, 5, 5)
    tables = exact = 0
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        for name in ("C2", "C3", "C3-"):
            if not CLASSES[name].admits(p):
                continue
            for k in find_k(p, name):
                table = depth_table(p, k, degrees)
                assert sorted(table) == sorted(degrees)
                pi = frobenius_pi(p, name)
                for n, dp in table.items():
                    assert dp == depths(p, k, n), (p, k, n)
                    if p < 60 and n <= 48:
                        assert pair(dp) == _exact_depths(p, k, n, pi), (p, k, n)
                        exact += 1
                tables += 1
    assert (tables, exact) == (126, 646)


def test_depth_table_takes_any_iterable_and_rejects_bad_degrees() -> None:
    table = depth_table(53, 15, iter([4, 1, 4, 2]))
    assert table == {n: depths(53, 15, n) for n in (1, 2, 4)}
    for degrees in ((), (0, 1), (3, -2)):
        with pytest.raises(UsageError):
            depth_table(53, 15, degrees)
    with pytest.raises(UsageError):
        depth_table(53, 27, (1, 2))  # C1


@pytest.mark.parametrize(
    "p, k, inc, floor, e0_at_2_19, e0_at_2_60",
    [
        (1000033, 175252, 2, 2, 44, 126),  # C2
        (1000099, 797403, 1, 1, 23, 64),  # C3
        (1000099, 202696, 1, 1, 23, 64),  # C3-, the mirror of -202696 = 797403
    ],
)
def test_depths_large_n_follow_the_doubling_law(p, k, inc, floor, e0_at_2_19, e0_at_2_60):
    # past n = 2, each doubling adds inc to e0 and keeps e1 at its floor
    base = depths(p, k, 2)
    assert pair(base) == _exact_depths(p, k, 2)
    assert base.e1 == floor
    for j, want in ((19, e0_at_2_19), (60, e0_at_2_60)):
        assert pair(depths(p, k, 1 << j)) == (base.e0 + inc * (j - 1), floor) == (want, floor)
