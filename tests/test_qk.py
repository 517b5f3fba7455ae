"""Tests for the degree-doubling transform, the evaluation map, and
multiplier classification."""

import random
import tracemalloc

import pytest

from qkforge.errors import UnsupportedPrimeError, UsageError
from qkforge.extfield import ExtField
from qkforge.ffpoly import (
    Poly,
    equal_degree_factorize,
    inv_mod,
    is_irreducible,
)
from qkforge.qk import (
    classify_k,
    find_k,
    qk_transform,
    transform_character,
)

from oracle import (
    INFINITY,
    min_poly_theta,
    poly_divmod,
    qk_transform_by_expansion,
    random_irreducible,
    theta_eval,
)


def fp(p: int) -> ExtField:
    return ExtField(Poly.x(p))  # F_p as a degree-1 extension


# ---------------------------------------------------------------------------
# theta evaluation
# ---------------------------------------------------------------------------


def test_theta_hand_value() -> None:
    # 15 * (2 + 2^-1) = 15 * (2 + 27) = 435 = 11 mod 53
    k53 = fp(53)
    assert theta_eval(k53.from_int(2), 15) == k53.from_int(11)


def test_theta_special_points() -> None:
    k53 = fp(53)
    assert theta_eval(INFINITY, 15) is INFINITY
    assert theta_eval(k53.zero(), 15) is INFINITY
    # the two ramification points map to +-2k
    assert theta_eval(k53.from_int(1), 15) == k53.from_int(30)
    assert theta_eval(k53.from_int(-1), 15) == k53.from_int(-30)


def test_theta_reciprocal_pairs_collide() -> None:
    k53 = fp(53)
    for v in (2, 3, 7, 29):
        x = k53.from_int(v)
        assert theta_eval(x, 15) == theta_eval(x.inverse(), 15)


def test_theta_rejects_zero_k() -> None:
    with pytest.raises(UsageError):
        theta_eval(fp(53).from_int(2), 53)


def test_theta_in_extension_field() -> None:
    field = ExtField(Poly((1, 0, 1), 3))  # F_9
    g = field.gen()  # g^2 = -1, so g + 1/g = g - g = 0
    assert theta_eval(g, 1) is INFINITY or theta_eval(g, 1) == field.zero()
    # g^-1 = -g, so g + g^-1 = 0 and theta lands on 0, not infinity
    assert theta_eval(g, 1) == field.zero()


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------


def test_transform_hand_values() -> None:
    # degree 1: x - a maps to x^2 - (a/k)x + 1
    got = qk_transform(Poly((-1, 1), 53), 15)  # a = 1, 1/15 = 46, -46 = 7
    assert got.coeffs == (1, 7, 1)
    # f = x^2 at k=1 maps to (x^2+1)^2
    got = qk_transform(Poly((0, 0, 1), 5), 1)
    assert got.coeffs == (1, 0, 2, 0, 1)


def test_transform_ramified_edges_are_squares() -> None:
    for p, k in ((53, 15), (11, 3), (5, 1)):
        plus = qk_transform(Poly((-2 * k, 1), p), k)  # root 2k -> (x-1)^2
        minus = qk_transform(Poly((2 * k, 1), p), k)  # root -2k -> (x+1)^2
        assert plus == Poly((-1, 1), p) * Poly((-1, 1), p)
        assert minus == Poly((1, 1), p) * Poly((1, 1), p)


def test_transform_shape_properties() -> None:
    rng = random.Random(17)
    for _ in range(60):
        p = rng.choice([5, 13, 53])
        n = rng.randrange(1, 7)
        k = rng.randrange(1, p)
        f = Poly(tuple(rng.randrange(p) for _ in range(n)) + (1,), p)
        g = qk_transform(f, k)
        assert g.degree == 2 * n
        assert g.is_monic
        assert g.coefficient(0) == 1
        assert g.coeffs == g.coeffs[::-1]  # palindromic


def test_transform_evaluation_identity() -> None:
    # transform(f,k)(x0) = (x0/k)^n * f(k(x0 + 1/x0)) for any nonzero x0
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([5, 13, 53])
        n = rng.randrange(1, 6)
        k = rng.randrange(1, p)
        x0 = rng.randrange(1, p)
        f = Poly(tuple(rng.randrange(p) for _ in range(n)) + (1,), p)
        lhs = qk_transform(f, k)(x0)
        arg = k * (x0 + inv_mod(x0, p)) % p
        rhs = pow(x0 * inv_mod(k, p), n, p) * f(arg) % p
        assert lhs == rhs


@pytest.mark.parametrize("p", [3, 5, 53, 2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_transform_matches_the_expansion_across_reductions(p) -> None:
    # the packed Horner loop reduces its slots every r steps; cover one
    # block, the edges of the first reduction, two blocks and degree 320
    rng = random.Random(p)
    r = max(1, 62 - (p - 1).bit_length())
    for n in sorted({1, r - 1, r, r + 1, 2 * r + 1, 320} - {0}):
        k = rng.randrange(1, p)
        f = Poly(tuple(rng.randrange(p) for _ in range(n)) + (1,), p)
        assert qk_transform(f, k) == qk_transform_by_expansion(f, k), (p, n, k)


def test_transform_memory_is_linear_in_the_degree() -> None:
    # one unreduced Horner integer would take about 2n^2 bits, 4 MB here
    rng = random.Random(4096)
    f = Poly(tuple(rng.randrange(53) for _ in range(4096)) + (1,), 53)
    tracemalloc.start()
    try:
        qk_transform(f, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_transform_rejects_bad_input() -> None:
    with pytest.raises(UsageError):
        qk_transform(Poly((1, 2), 5), 1)  # not monic
    with pytest.raises(UsageError):
        qk_transform(Poly((1,), 5), 1)  # constant
    with pytest.raises(UsageError):
        qk_transform(Poly((0, 1), 5), 5)  # k = 0 mod p


def test_transform_dichotomy_small_fields() -> None:
    """Transforms of irreducibles split into 1 or 2 irreducible pieces.

    Exhaustive over p in {5, 7}, all nonzero k, all monic irreducibles of
    degree <= 3 except the two ramified linear ones.
    """
    from qkforge.ffpoly import equal_degree_factorize

    for p in (5, 7):
        for k in range(1, p):
            ramified = {(-2 * k) % p, (2 * k) % p}
            for n in (1, 2, 3):
                for idx in range(p**n):
                    digits = []
                    v = idx
                    for _ in range(n):
                        digits.append(v % p)
                        v //= p
                    f = Poly(tuple(digits + [1]), p)
                    if not is_irreducible(f):
                        continue
                    if n == 1 and (-f.coefficient(0)) % p in ramified:
                        continue
                    g = qk_transform(f, k)
                    if is_irreducible(g):
                        continue
                    parts = equal_degree_factorize(f, k)
                    assert len(parts) == 2
                    assert parts[0] != parts[1]
                    assert all(is_irreducible(h) for h in parts)
                    assert parts[0] * parts[1] == g


def test_transform_character_matches_rabin() -> None:
    """chi = -1 exactly when Rabin's test finds the transform irreducible;
    chi = +1 splits it into two monic reciprocal factors; chi = 0 only at
    the ramified inputs x -+ 2k.  Every nonzero k, so every class."""
    rng = random.Random(20260)
    classes = set()
    for p in (3, 5, 7, 11, 13, 29, 53, 113):
        for n in range(1, 7):
            f = random_irreducible(p, n, rng)
            for k in range(1, p):
                classes.add(classify_k(p, k))
                chi = transform_character(f, k)
                g = qk_transform(f, k)
                tag = f"p={p} k={k} f={f.coeffs}"
                assert (chi == -1) == is_irreducible(g), tag
                if chi == 0:
                    assert f.degree == 1 and f(2 * k) * f(-2 * k) % p == 0, tag
                elif chi == 1:
                    first, second = equal_degree_factorize(f, k)
                    assert first.is_monic and second.is_monic, tag
                    assert second == Poly(first.coeffs[::-1], p).monic(), tag
    assert classes == {"C1", "C2", "C3", "C3-", "Generic"}


# ---------------------------------------------------------------------------
# multiplier classes
# ---------------------------------------------------------------------------


def test_find_k_frozen_values() -> None:
    assert find_k(53, "C1") == [26, 27]
    assert find_k(53, "C2") == [15, 38]
    assert find_k(53, "C3") == [7, 19]
    assert find_k(53, "C3-") == [34, 46]
    assert find_k(5, "C2") == [1, 4]
    assert find_k(11, "C3") == [2, 3]


def test_find_k_raises_when_congruence_fails() -> None:
    with pytest.raises(UnsupportedPrimeError, match="mod 4"):
        find_k(7, "C2")  # 7 = 3 mod 4
    with pytest.raises(UnsupportedPrimeError, match="mod 4"):
        find_k(11, "C2")
    with pytest.raises(UnsupportedPrimeError, match="mod 7"):
        find_k(5, "C3")  # 5 = 5 mod 7
    with pytest.raises(UnsupportedPrimeError, match="mod 7"):
        find_k(5, "C3-")
    # p = 7 itself is excluded: 7 = 0 mod 7 is not in {1, 2, 4}
    with pytest.raises(UnsupportedPrimeError, match="mod 7"):
        find_k(7, "C3")
    with pytest.raises(UnsupportedPrimeError, match="mod 7"):
        find_k(7, "C3-")


def test_find_k_rejects_unknown_class() -> None:
    with pytest.raises(UsageError):
        find_k(53, "C9")
    with pytest.raises(UsageError):
        find_k(15, "C2")  # not prime


def test_classify_k_frozen_values() -> None:
    assert type(classify_k(53, 27)) is str
    assert classify_k(53, 27) == "C1"
    assert classify_k(53, 15) == "C2"
    assert classify_k(53, 7) == "C3"
    assert classify_k(53, 46) == "C3-"
    assert classify_k(53, 3) == "Generic"
    # at p = 7 the C3 congruence has the root k = 5, but the class itself
    # requires p in {1,2,4} mod 7, so the multiplier is still Generic
    assert classify_k(7, 5) == "Generic"


def test_classify_roundtrips_find() -> None:
    for p in (5, 7, 11, 13, 29, 53, 113):
        for name in ("C1", "C2", "C3", "C3-"):
            try:
                ks = find_k(p, name)
            except UnsupportedPrimeError:
                continue
            for k in ks:
                assert classify_k(p, k) == classify_k(p, k + p) == name


def test_classes_disjoint_for_odd_primes() -> None:
    # The four class conditions, written out here rather than read from the
    # table in qk: at most one holds for each k, and it is the one reported.
    conditions = {
        "C1": lambda p, k: (4 * k * k - 1) % p == 0,
        "C2": lambda p, k: p % 4 == 1 and (4 * k * k + 1) % p == 0,
        "C3": lambda p, k: p % 7 in (1, 2, 4) and (2 * k * k + k + 1) % p == 0,
        "C3-": lambda p, k: p % 7 in (1, 2, 4) and (2 * k * k - k + 1) % p == 0,
    }
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        for k in range(1, p):
            held = [name for name, holds in conditions.items() if holds(p, k)]
            assert len(held) <= 1
            assert classify_k(p, k) == (held[0] if held else "Generic")


def test_classify_rejects_zero_k() -> None:
    with pytest.raises(UsageError):
        classify_k(53, 0)


# ---------------------------------------------------------------------------
# minimal polynomial of a transformed root
# ---------------------------------------------------------------------------


def test_min_poly_theta_linear() -> None:
    # alpha = 1 maps to 2k, alpha = -1 to -2k
    assert min_poly_theta(Poly((-1, 1), 53), 15) == Poly((-30, 1), 53)
    assert min_poly_theta(Poly((1, 1), 53), 15) == Poly((30, 1), 53)


def test_min_poly_theta_rejects_x_and_reducible() -> None:
    with pytest.raises(UsageError):
        min_poly_theta(Poly.x(53), 15)
    with pytest.raises(UsageError):
        min_poly_theta(Poly((1, 0, 1), 5), 1)  # reducible


def test_min_poly_theta_divisibility() -> None:
    """f divides the transform of the minimal polynomial of theta(root of f)."""
    rng = random.Random(31)
    for _ in range(25):
        p = rng.choice([5, 13, 53])
        n = rng.randrange(1, 5)
        k = rng.randrange(1, p)
        f = random_irreducible(p, n, rng)
        if f.coefficient(0) == 0:
            continue
        g = min_poly_theta(f, k)
        assert g.is_monic and is_irreducible(g)
        assert g.degree in (n, (n + 1) // 2, n // 2) and g.degree * 2 >= n
        assert poly_divmod(qk_transform(g, k), f)[1].is_zero


def test_min_poly_theta_degree_halves_on_palindromic_input() -> None:
    # A palindromic irreducible f equals its own reciprocal, so its root set
    # is closed under x -> 1/x and theta folds it onto half as many values.
    p = 53
    f = Poly((1, 7, 1), p)  # the transform of x-1 at k=15, irreducible
    assert is_irreducible(f)
    g = min_poly_theta(f, 15)
    assert g == Poly((-1, 1), p)
