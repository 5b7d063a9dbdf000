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
    pow_mod,
)
from padicsums.exponents import MATERIALIZE_CAP


def test_tower_normalization():
    k = StructuredExponent.tower(2, 3, 5, 7)
    assert (k.c, k.base, k.L, k.d) == (2, 3, 5, 7)
    assert not k.is_plain
    assert k.value() == 2 * 3**5 + 7

    # base factors inside c migrate into the tower height
    assert str(StructuredExponent.tower(9, 3, 2, 1)) == "1*3^4+1"
    # vanishing coefficient or height folds to a plain integer
    assert StructuredExponent.tower(0, 5, 3, 4).is_plain
    assert StructuredExponent.tower(0, 5, 3, 4).value() == 4
    assert StructuredExponent.tower(3, 7, 0, 2) == StructuredExponent.plain(5)
    # equality compares the normalized fields, never the materialized value
    assert StructuredExponent.tower(6, 3, 3) == StructuredExponent.tower(2, 3, 4)
    assert StructuredExponent.tower(1, 3, 4, 1) != StructuredExponent.plain(82)


def test_materialization_cap():
    big = StructuredExponent.tower(1, 2, 65, 0)
    assert not big.materializable
    with pytest.raises(CapacityError, match="exceeds cap 64"):
        big.value()
    assert StructuredExponent.tower(1, 2, 64, 0).materializable


def test_exponent_mod_matches_exact():
    rng = random.Random(71)
    for _ in range(200):
        c = rng.randint(1, 9)
        base = rng.choice((2, 3, 5, 7))
        L = rng.randint(0, 40)
        d = rng.randint(0, 50)
        M = rng.randint(1, 10**6)
        k = StructuredExponent.tower(c, base, L, d)
        assert k.mod(M) == (c * base**L + d) % M


def test_exponent_mod_divisor_compatibility():
    # reducing mod M then mod a divisor agrees with reducing directly,
    # including towers far past the materialization cap
    k = StructuredExponent.tower(2, 3, 1000, 28)
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


def test_pow_mod_matches_bigint_pow_sampled():
    rng = random.Random(97)
    for _ in range(400):
        j = rng.randint(0, 50)
        p = rng.choice((2, 3, 5))
        base = rng.choice((2, 3, 5, 7))
        E = rng.randint(1, 12)
        c = rng.choice((1, 2, 6))
        L = rng.randint(0, 10)
        d = rng.choice((0, 1, 13))
        k = StructuredExponent.tower(c, base, L, d)
        if j == 0 and k.value() == 0:
            continue
        assert pow_mod(j, k, p, E) == pow(j, k.value(), p**E)


def test_pow_mod_beyond_materialization():
    # 2^500 is far past the cap for the engine but fine for bigint pow
    k = StructuredExponent.tower(1, 2, 500, 3)
    for j, p, E in ((7, 3, 10), (10, 3, 6), (3, 5, 8)):
        assert pow_mod(j, k, p, E) == pow(j, 2**500 + 3, p**E)


def test_pow_mod_divisible_base_short_circuit():
    # ord of j**k is at least E whenever p | j and k >= E
    assert pow_mod(6, StructuredExponent.tower(1, 2, 65, 0), 3, 5) == 0
    assert pow_mod(10, StructuredExponent.tower(4, 7, 100, 9), 5, 12) == 0
    # small plain exponents still come out exact
    assert pow_mod(6, StructuredExponent.plain(2), 3, 5) == 36 % 3**5


def test_pow_mod_edge_cases():
    with pytest.raises(ValueError, match="0\\*\\*0"):
        pow_mod(0, StructuredExponent.plain(0), 3, 4)
    with pytest.raises(ValueError, match="j=-2"):
        pow_mod(-2, StructuredExponent.plain(3), 5, 4)
    assert pow_mod(0, StructuredExponent.plain(5), 3, 4) == 0
    assert pow_mod(9, StructuredExponent.plain(0), 3, 4) == 1


def test_pow_mod_agrees_with_the_stirling_scan_powers():
    # The scan differences j**k, j = 0, 1, ...; sum over m of C(j, m) times
    # its m-th term gives back the power it read for j.
    for p in (2, 3, 5):
        for k in (
            StructuredExponent.plain(0),
            StructuredExponent.plain(1),
            StructuredExponent.plain(7),
            StructuredExponent.tower(p - 1, p, 3, 2),
            StructuredExponent.tower(2, 3, 40, 5),
            StructuredExponent.tower(1, 2, MATERIALIZE_CAP + 1, 3),
            StructuredExponent.tower(p - 1, p, 500, 0),
        ):
            for E in (1, 4, 9):
                diffs = list(itertools.islice(mstirling_scan(k, p, E), 3 * p + 1))
                for j in range(1, 3 * p + 1):
                    scanned = sum(math.comb(j, m) * diffs[m] for m in range(j + 1)) % p**E
                    assert pow_mod(j, k, p, E) == scanned, (p, str(k), E, j)
                # the one difference: the scan reads 0**0 = 1, pow_mod refuses it
                assert diffs[0] == (1 if k == StructuredExponent.plain(0) else 0)
                if k == StructuredExponent.plain(0):
                    with pytest.raises(ValueError, match="0\\*\\*0 is undefined"):
                        pow_mod(0, k, p, E)


def test_parse_exponent_round_trip():
    assert parse_exponent("4401") == StructuredExponent.plain(4401)
    assert parse_exponent("2*3^40+28") == StructuredExponent.tower(2, 3, 40, 28)
    assert parse_exponent("1*2^10") == StructuredExponent.tower(1, 2, 10, 0)
    assert parse_exponent("2*3^L+28", L=20) == StructuredExponent.tower(2, 3, 20, 28)
    assert parse_exponent("2*3^L + 28", L=5) == StructuredExponent.tower(2, 3, 5, 28)
    k = StructuredExponent.tower(2, 3, 4, 9)
    assert parse_exponent(str(k)) == k


def test_parse_exponent_errors():
    with pytest.raises(ValueError, match="symbolic L"):
        parse_exponent("2*3^L+28")
    with pytest.raises(ValueError, match="bad exponent token"):
        parse_exponent("junk")
    with pytest.raises(ValueError, match="empty exponent"):
        parse_exponent("")
