"""p-adic orders of integers, factorials and residues, and carry counting."""

import math
import random

import pytest

from padicsums import (
    carries,
    euler_phi_prime_power,
    ord_factorial,
    ord_int,
    trunc_val,
)
from padicsums.padic import check_prime, is_prime


def test_ord_int_basics():
    assert ord_int(3, 162) == 4
    assert ord_int(2, 40) == 3
    assert ord_int(5, -250) == 3
    assert ord_int(7, 1) == 0
    assert ord_int(2, 0) is None


def test_ord_int_rejects_bad_prime():
    with pytest.raises(ValueError):
        ord_int(4, 8)
    with pytest.raises(ValueError):
        ord_int(1, 8)
    with pytest.raises(ValueError):
        ord_int(-3, 8)


def test_ord_int_divide_out_oracle():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 11))
        x = rng.randint(-10**6, 10**6)
        v = ord_int(p, x)
        if x == 0:
            assert v is None
            continue
        y, count = abs(x), 0
        while y % p == 0:
            y //= p
            count += 1
        assert v == count


def test_trunc_val_soundness():
    # residue p^v * unit below the precision cap reads back exactly v
    rng = random.Random(37)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        E = rng.randint(1, 12)
        v = rng.randint(0, E + 3)
        unit = rng.randrange(1, p**E)
        while unit % p == 0:
            unit = rng.randrange(1, p**E)
        assert trunc_val(p**v * unit, p, E) == ((E, False) if v >= E else (v, True))


def test_ord_factorial_values():
    assert ord_factorial(3, 100) == 48
    assert ord_factorial(2, 10) == 8
    assert ord_factorial(5, 4) == 0
    assert ord_factorial(2, 0) == 0
    assert ord_factorial(2, 1) == 0


def test_ord_factorial_matches_factor_count_oracle():
    """Closed form vs summing the order of every factor, all m <= 3000."""
    for p in (2, 3, 5):
        acc = 0
        for m in range(1, 3001):
            acc += ord_int(p, m)
            assert ord_factorial(p, m) == acc
            assert acc <= (m - 1) // (p - 1)


def test_ord_factorial_matches_big_factorial_spot_checks():
    rng = random.Random(41)
    for _ in range(25):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randint(1, 600)
        assert ord_factorial(p, m) == ord_int(p, math.factorial(m))


def test_carries_examples():
    assert carries(3, 4, 8) == 2
    assert carries(2, 3, 1) == 2
    assert carries(5, 4, 1) == 1
    assert carries(3, 1, 1) == 0
    assert carries(7, 0, 123) == 0


def test_carries_rejects_bad_input():
    with pytest.raises(ValueError, match="must be a prime"):
        carries(4, 1, 1)
    with pytest.raises(ValueError, match="a, b >= 0"):
        carries(3, -1, 2)


def _carries_by_digits(p, a, b):
    count = carry = 0
    while a or b or carry:
        carry = a % p + b % p + carry >= p
        count += carry
        a //= p
        b //= p
    return count


def test_carries_base_2_matches_the_digit_loop():
    for a in range(1024):
        for b in range(1024):
            assert carries(2, a, b) == _carries_by_digits(2, a, b), (a, b)
    with pytest.raises(ValueError, match="a, b >= 0"):
        carries(2, 1, -1)


def test_carries_match_binomial_order():
    # carry count vs the order of C(a+b, a), sampled; the full grid
    # a, b <= 2000 runs in the acceptance suite
    rng = random.Random(53)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        a, b = rng.randint(0, 2000), rng.randint(0, 2000)
        assert carries(p, a, b) == ord_int(p, math.comb(a + b, a))
        assert carries(p, a, b) == carries(p, b, a)


def test_euler_phi_prime_power():
    assert euler_phi_prime_power(2, 1) == 1
    assert euler_phi_prime_power(2, 3) == 4
    assert euler_phi_prime_power(3, 2) == 6
    assert euler_phi_prime_power(5, 1) == 4
    assert euler_phi_prime_power(7, 3) == 7**3 - 7**2
    with pytest.raises(ValueError, match="alpha >= 1"):
        euler_phi_prime_power(3, 0)


def test_primality_helpers():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-2, 500):
        assert is_prime(n) == trial(n), n
    check_prime(13)
    with pytest.raises(ValueError):
        check_prime(4)
    with pytest.raises(ValueError):
        check_prime(1)
