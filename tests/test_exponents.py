"""Structured exponents c*base^L+d and modular powers with huge towers."""

import itertools
import math
import random

import pytest

from padicsums import (
    CapacityError,
    StructuredExponent,
    carmichael_prime_power,
    mstirling_scan,
    parse_exponent,
)
from padicsums.exponents import MATERIALIZE_CAP, power_rule


def test_tower_normalization():
    k = StructuredExponent(2, 3, 5, 7)
    assert (k.c, k.base, k.L, k.d) == (2, 3, 5, 7)
    assert not k.is_plain
    assert k.value() == 2 * 3**5 + 7

    # base factors inside c migrate into the tower height
    assert str(StructuredExponent(9, 3, 2, 1)) == "1*3^4+1"
    # vanishing coefficient or height folds to a plain integer
    assert StructuredExponent(0, 5, 3, 4).is_plain
    assert StructuredExponent(0, 5, 3, 4).value() == 4
    assert StructuredExponent(3, 7, 0, 2) == StructuredExponent.plain(5)
    # equality compares the normalized fields, never the materialized value
    assert StructuredExponent(6, 3, 3) == StructuredExponent(2, 3, 4)
    assert StructuredExponent(1, 3, 4, 1) != StructuredExponent.plain(82)


def test_materialization_cap():
    big = StructuredExponent(1, 2, 65, 0)
    assert not big.materializable
    with pytest.raises(CapacityError, match="exceeds cap 64"):
        big.value()
    assert StructuredExponent(1, 2, 64, 0).materializable


def test_exponent_mod_matches_exact():
    rng = random.Random(71)
    for _ in range(200):
        c = rng.randint(1, 9)
        base = rng.choice((2, 3, 5, 7))
        L = rng.randint(0, 40)
        d = rng.randint(0, 50)
        M = rng.randint(1, 10**6)
        k = StructuredExponent(c, base, L, d)
        assert k.mod(M) == (c * base**L + d) % M


def test_exponent_mod_divisor_compatibility():
    # reducing mod M then mod a divisor agrees with reducing directly,
    # including towers far past the materialization cap
    k = StructuredExponent(2, 3, 1000, 28)
    for m1, m2 in ((4, 54), (9, 100), (17, 1000)):
        assert k.mod(m1 * m2) % m1 == k.mod(m1)


def test_carmichael_table():
    assert [carmichael_prime_power(2, E) for E in range(1, 6)] == [1, 2, 2, 4, 8]
    assert carmichael_prime_power(3, 1) == 2
    assert carmichael_prime_power(3, 3) == 18
    assert carmichael_prime_power(5, 3) == 100
    assert carmichael_prime_power(7, 2) == 42


def test_carmichael_annihilates_units():
    rng = random.Random(83)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        E = rng.randint(1, 10)
        lam = carmichael_prime_power(p, E)
        j = rng.randrange(1, p**E)
        while j % p == 0:
            j = rng.randrange(1, p**E)
        assert pow(j, lam, p**E) == 1


def test_power_rule_matches_bigint_pow_sampled():
    rng = random.Random(97)
    for _ in range(400):
        j = rng.randint(0, 50)
        p = rng.choice((2, 3, 5))
        base = rng.choice((2, 3, 5, 7))
        E = rng.randint(1, 12)
        c = rng.choice((1, 2, 6))
        L = rng.randint(0, 10)
        d = rng.choice((0, 1, 13))
        k = StructuredExponent(c, base, L, d)
        assert power_rule(k, p, E)(j) == pow(j, k.value(), p**E)


def test_power_rule_beyond_materialization():
    # 2^500 is far past the cap for the engine but fine for bigint pow
    k = StructuredExponent(1, 2, 500, 3)
    for j, p, E in ((7, 3, 10), (10, 3, 6), (3, 5, 8)):
        assert power_rule(k, p, E)(j) == pow(j, 2**500 + 3, p**E)


def test_power_rule_divisible_base_short_circuit():
    # ord of j**k is at least E whenever p | j and k >= E
    assert power_rule(StructuredExponent(1, 2, 65, 0), 3, 5)(6) == 0
    assert power_rule(StructuredExponent(4, 7, 100, 9), 5, 12)(10) == 0
    # small plain exponents still come out exact
    assert power_rule(StructuredExponent.plain(2), 3, 5)(6) == 36 % 3**5


def test_power_rule_edge_cases():
    assert power_rule(StructuredExponent.plain(0), 3, 4)(0) == 1
    assert power_rule(StructuredExponent.plain(5), 3, 4)(0) == 0
    assert power_rule(StructuredExponent.plain(0), 3, 4)(9) == 1


def test_power_rule_agrees_with_the_stirling_scan_powers():
    # The scan differences j**k, j = 0, 1, ...; sum over m of C(j, m) times
    # its m-th term gives back the power it read for j.
    for p in (2, 3, 5):
        for k in (
            StructuredExponent.plain(0),
            StructuredExponent.plain(1),
            StructuredExponent.plain(7),
            StructuredExponent(p - 1, p, 3, 2),
            StructuredExponent(2, 3, 40, 5),
            StructuredExponent(1, 2, MATERIALIZE_CAP + 1, 3),
            StructuredExponent(p - 1, p, 500, 0),
        ):
            for E in (1, 4, 9):
                diffs = list(itertools.islice(mstirling_scan(k, p, E), 3 * p + 1))
                for j in range(1, 3 * p + 1):
                    scanned = sum(math.comb(j, m) * diffs[m] for m in range(j + 1)) % p**E
                    assert power_rule(k, p, E)(j) == scanned, (p, str(k), E, j)
                # the scan reads 0**0 = 1
                assert diffs[0] == (1 if k == StructuredExponent.plain(0) else 0)


def test_parse_exponent_round_trip():
    assert parse_exponent("4401") == StructuredExponent.plain(4401)
    assert parse_exponent("2*3^40+28") == StructuredExponent(2, 3, 40, 28)
    assert parse_exponent("1*2^10") == StructuredExponent(1, 2, 10, 0)
    assert parse_exponent("2*3^20 + 28") == StructuredExponent(2, 3, 20, 28)
    k = StructuredExponent(2, 3, 4, 9)
    assert parse_exponent(str(k)) == k


def test_parse_exponent_errors():
    with pytest.raises(ValueError, match="symbolic L"):
        parse_exponent("2*3^L+28")
    with pytest.raises(ValueError, match="bad exponent token"):
        parse_exponent("junk")
    with pytest.raises(ValueError, match="empty exponent"):
        parse_exponent("")
