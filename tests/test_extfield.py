"""Tests for extension-field arithmetic and minimal polynomials."""

import pytest

from qkforge.errors import UsageError
from qkforge.extfield import ExtField, batch_inverse
from qkforge.ffpoly import Poly, is_irreducible

from oracle import min_poly_of_element


def f9() -> ExtField:
    return ExtField(Poly((1, 0, 1), 3))  # F_3[x]/(x^2+1)


def f25() -> ExtField:
    return ExtField(Poly((2, 0, 1), 5))  # F_5[x]/(x^2+2)


def test_field_construction() -> None:
    k = f9()
    assert (k.p, k.n, k.q) == (3, 2, 9)
    with pytest.raises(UsageError):
        ExtField(Poly((1, 0, 1), 5))  # x^2+1 = (x+2)(x+3) over F_5
    # the bypass flag skips validation (used on hot paths)
    ExtField(Poly((1, 0, 1), 5), assume_irreducible=True)
    with pytest.raises(UsageError):
        ExtField(Poly((3,), 5))


def test_generator_squares_to_minus_one() -> None:
    k = f9()
    g = k.gen()
    assert g * g == k.from_int(-1)
    assert g * g == 2  # int comparison embeds
    assert g**4 == k.one()


def test_hand_product() -> None:
    # (x+1)(x+2) = x^2 + 2 = 1 in F_9 with x^2 = -1
    k = f9()
    a = k.make([1, 1])
    b = k.make([2, 1])
    assert a * b == k.one()


def test_add_sub_neg() -> None:
    k = f25()
    a = k.make([1, 2])
    b = k.make([4, 3])
    assert (a + b).rep == (0, 0)
    assert a + b == k.zero()
    assert (a - b).rep == (2, 4)
    assert -a == k.zero() - a
    assert a + 0 == a and 1 * a == a


def test_inverse_exhaustive_f9() -> None:
    k = f9()
    for j in range(1, k.q):
        e = k.from_index(j)
        assert e * e.inverse() == k.one()
    with pytest.raises(UsageError):
        k.zero().inverse()


def test_division_and_negative_pow() -> None:
    k = f25()
    a = k.make([1, 2])
    b = k.make([3, 4])
    assert (a / b) * b == a
    assert a**-1 == a.inverse()
    assert a**-3 == (a.inverse()) ** 3
    assert 1 / a == a.inverse()


def test_pow_matches_repeated_multiplication() -> None:
    k = f25()
    a = k.make([2, 1])
    acc = k.one()
    for e in range(10):
        assert a**e == acc
        acc = acc * a


def test_frobenius_fixes_exactly_prime_field() -> None:
    k = f9()
    fixed = [j for j in range(k.q) if (e := k.from_index(j)).frobenius() == e]
    assert fixed == [0, 1, 2]  # indices of 0, 1, 2 under the canonical order


def test_frobenius_is_additive_and_multiplicative() -> None:
    k = f25()
    for i in (3, 7, 11):
        for j in (5, 13, 24):
            a, b = k.from_index(i), k.from_index(j)
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_enumeration_roundtrip() -> None:
    k = f25()
    seen = set()
    for j in range(k.q):
        e = k.from_index(j)
        assert k.index_of(e) == j
        seen.add(e.rep)
    assert len(seen) == k.q
    assert k.from_index(0) == k.zero()
    # index j < p is the embedded integer j
    assert k.from_index(3) == k.from_int(3)
    with pytest.raises(UsageError):
        k.from_index(k.q)


def test_mixed_field_rejected() -> None:
    a = f9().gen()
    b = f25().gen()
    with pytest.raises(UsageError):
        _ = a + b


def test_batch_inverse_matches_individual() -> None:
    k = f25()
    elems = [k.from_index(j) for j in range(1, k.q)]
    got = batch_inverse(elems)
    assert got == [e.inverse() for e in elems]
    assert batch_inverse([]) == []
    with pytest.raises(UsageError):
        batch_inverse([k.one(), k.zero()])


def test_min_poly_of_generator_is_modulus() -> None:
    k = f9()
    assert min_poly_of_element(k.gen()) == Poly((1, 0, 1), 3)


def test_min_poly_of_prime_field_element_is_linear() -> None:
    k = f9()
    assert min_poly_of_element(k.from_int(2)) == Poly((1, 1), 3)  # X - 2 = X + 1
    assert min_poly_of_element(k.zero()) == Poly((0, 1), 3)


def test_min_poly_hand_value() -> None:
    # In F_25 with x^2 = -2: a = 2x+1 has conjugate 3x+1, sum 2, product 4,
    # so the minimal polynomial is X^2 - 2X + 4 = X^2 + 3X + 4 over F_5.
    k = f25()
    a = k.make([1, 2])
    mp = min_poly_of_element(a)
    assert mp == Poly((4, 3, 1), 5)
    assert is_irreducible(mp)


def test_min_poly_annihilates_and_divides() -> None:
    k = f25()
    for j in range(k.q):
        a = k.from_index(j)
        mp = min_poly_of_element(a)
        assert mp.is_monic
        assert k.n % mp.degree == 0
        # evaluate mp at a inside the field (Horner)
        acc = k.zero()
        for c in reversed(mp.coeffs):
            acc = acc * a + c
        assert acc == k.zero()
