"""Valuations, truncated valuations, residue rings, and carry counting."""

import math
import random

import pytest

from padicsums import (
    ModPE,
    TruncatedValuation,
    Valuation,
    carries,
    euler_phi_prime_power,
    ord_factorial,
    ord_int,
    trunc_val,
)
from padicsums.padic import check_prime, is_prime


def test_ord_int_basics():
    assert ord_int(3, 162).value == 4
    assert ord_int(2, 40).value == 3
    assert ord_int(5, -250).value == 3
    assert ord_int(7, 1).value == 0
    assert ord_int(2, 0).value is None


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
            assert v.value is None
            continue
        y, count = abs(x), 0
        while y % p == 0:
            y //= p
            count += 1
        assert v.value == count


def test_valuation_fields_constructors_and_str():
    fin = Valuation(4)
    inf = Valuation.infinite()
    assert fin.value == 4
    assert inf.value is None
    assert str(fin) == "4"
    assert str(inf) == "inf"


def test_truncated_valuation_fields_constructors_and_str():
    exact = TruncatedValuation.exact_at(5)
    floor = TruncatedValuation.floor(8)

    assert exact.exact and exact.value == 5
    assert not floor.exact and floor.value == 8
    assert str(exact) == "5" and str(floor) == ">=8"


def test_modpe_reduces_its_residue_and_checks_its_ring():
    assert ModPE(7, 3, 2) == ModPE(-2, 3, 2) == ModPE(25, 3, 2)
    assert ModPE(-2, 3, 2).residue == 7
    assert ModPE(27, 3, 3).residue == 0
    with pytest.raises(ValueError, match="E must be >= 1, got E=0"):
        ModPE(1, 3, 0)
    with pytest.raises(ValueError, match="p must be a prime, got p=4"):
        ModPE(1, 4, 2)


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
        t = trunc_val(ModPE(p**v * unit, p, E))
        if v >= E:
            assert not t.exact and t.value == E
        else:
            assert t.exact and t.value == v


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
            acc += ord_int(p, m).value
            assert ord_factorial(p, m) == acc
            assert acc <= (m - 1) // (p - 1)


def test_ord_factorial_matches_big_factorial_spot_checks():
    rng = random.Random(41)
    for _ in range(25):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randint(1, 600)
        assert ord_factorial(p, m) == ord_int(p, math.factorial(m)).value


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


def test_carries_match_binomial_order():
    # carry count vs the order of C(a+b, a), sampled; the full grid
    # a, b <= 2000 runs in the acceptance suite
    rng = random.Random(53)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        a, b = rng.randint(0, 2000), rng.randint(0, 2000)
        assert carries(p, a, b) == ord_int(p, math.comb(a + b, a)).value
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
