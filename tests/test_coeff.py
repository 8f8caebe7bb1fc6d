import random
import time
from fractions import Fraction

import pytest

from locco import (CoefficientError, Integers, PrimeField, Rationals,
                   RealVectors, parse_system)
from locco.coeff import _is_prime


def test_rationals_arithmetic_and_json():
    Q = Rationals()
    a = Q.check_value(Fraction(1, 3))
    b = Q.check_value(2)
    assert Q.add(a, b) == Fraction(7, 3)
    assert Q.sub(a, b) == Fraction(-5, 3)
    assert Q.scale(3, a) == 1
    assert Q.is_zero(Q.sub(a, a))
    assert Q.value_from_json(Q.value_to_json(a)) == a
    assert Q.value_to_json(Fraction(1, 3)) == "1/3"
    assert Q.value_to_json(Fraction(4, 2)) == 2
    with pytest.raises(CoefficientError):
        Q.check_value(0.5)


def test_integers_reject_fractions():
    Z = Integers()
    assert Z.add(2, 3) == 5
    with pytest.raises(CoefficientError):
        Z.check_value(Fraction(1, 2))


def test_prime_field():
    F5 = PrimeField(5)
    assert F5.check_value(7) == 2
    assert F5.add(3, 4) == 2
    assert F5.scale(2, 4) == 3
    with pytest.raises(CoefficientError):
        PrimeField(6)
    with pytest.raises(CoefficientError):
        PrimeField(1)


def test_prime_field_primality_is_exact_and_quick():
    # a Carmichael number and a strong pseudoprime to the bases 2, 3, 5 and 7
    for composite in (561, 3215031751, 2 ** 61 + 1, (2 ** 31 - 1) * (2 ** 31 + 11)):
        with pytest.raises(CoefficientError):
            PrimeField(composite)
    start = time.perf_counter()
    for prime in (2, 3, 37, 41, 2 ** 61 - 1, 2 ** 63 - 25):
        assert PrimeField(prime).p == prime
    assert time.perf_counter() - start < 1.0
    assert [p for p in range(200) if _is_prime(p)] == [
        p for p in range(2, 200) if all(p % d for d in range(2, p))]


def test_prime_field_refuses_a_modulus_past_int64():
    with pytest.raises(CoefficientError):
        PrimeField(2 ** 63 + 29)   # the least prime above 2^63


def test_real_vectors():
    R2 = RealVectors(2)
    v = R2.check_value((1.0, 2.0))
    w = R2.check_value((0.5, -1.0))
    assert R2.add(v, w) == (1.5, 1.0)
    assert R2.approx_equal(v, (1.0, 2.0 + 1e-14))
    assert not R2.approx_equal(v, (1.0, 2.1))
    assert R2.is_zero((0.0, 0.0))
    with pytest.raises(CoefficientError):
        R2.check_value((1.0,))


def test_parse_system():
    assert parse_system("Q").name == "Q"
    assert parse_system("Z").name == "Z"
    assert parse_system("Zp:7").p == 7
    assert parse_system("Rd:3").d == 3
    with pytest.raises(CoefficientError):
        parse_system("GF:4")


def test_random_values_are_seeded():
    for system in (Rationals(), Integers(), PrimeField(5), RealVectors(2)):
        a = [system.random_value(random.Random(9)) for _ in range(5)]
        b = [system.random_value(random.Random(9)) for _ in range(5)]
        assert a == b


def test_equality_by_name():
    assert Rationals() == Rationals()
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
