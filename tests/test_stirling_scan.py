"""Differential tests of the forward-difference Stirling scan.

mstirling_scan yields m! S(k, m) mod p**E for m = 0, 1, 2, ... from one
difference table over j**k.  It is checked against two routes that share
none of its code: the exact triangle recurrence, and the surjection sum
with an exponent reduced by Euler's phi instead of the Carmichael number.
"""

import itertools
import math

import pytest

from padicsums import StructuredExponent, mstirling_mod, mstirling_scan, stirling_rows

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PRIMES = (2, 3, 5, 7)


def _scan(k, p, E, count):
    return list(itertools.islice(mstirling_scan(k, p, E), count))


def _exact_row(k):
    row = None
    for _, row in stirling_rows(k, k):
        pass
    return row


@st.composite
def _spelled_exponents(draw):
    """A plain k <= 300 and a tower spelling c * base**L + d of the same value."""
    base = draw(st.integers(2, 7))
    L = draw(st.integers(1, int(math.log(300, base))))
    c = draw(st.integers(1, 300 // base**L))
    d = draw(st.integers(0, 300 - c * base**L))
    return c * base**L + d, StructuredExponent.tower(c, base, L, d)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spelled=_spelled_exponents(), p=st.sampled_from(PRIMES), E=st.integers(1, 40))
@example(spelled=(8, StructuredExponent.tower(1, 2, 3)), p=2, E=9)  # k = E - 1: 2**8 survives
@example(spelled=(9, StructuredExponent.tower(1, 3, 2)), p=3, E=9)  # k = E: every 3j drops out
@example(spelled=(0, StructuredExponent.plain(0)), p=5, E=3)  # 0**0 = 1
@example(spelled=(1, StructuredExponent.plain(1)), p=2, E=1)
def test_scan_matches_exact_triangle(spelled, p, E):
    k, tower = spelled
    M = p**E
    row = _exact_row(k)
    want = [math.factorial(m) * row[m] % M for m in range(k + 1)] + [0, 0]
    assert _scan(k, p, E, k + 3) == want
    assert _scan(tower, p, E, k + 3) == want
    assert [mstirling_mod(tower, m, p, E) for m in (k // 2, k)] == [want[k // 2], want[k]]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    c=st.integers(1, 9), base=st.integers(2, 12), L=st.integers(65, 10**6), d=st.integers(0, 60),
    p=st.sampled_from(PRIMES), E=st.integers(1, 40),
)
def test_huge_tower_scan_matches_euler_reduced_sum(c, base, L, d, p, E):
    # k = c * base**L + d exceeds 2**64 > E, so every multiple of p drops out
    # and each unit power only needs k modulo phi(p**E).
    M, phi = p**E, (p - 1) * p ** (E - 1)
    e = (c * pow(base, L, phi) + d) % phi
    powers = [pow(j, e, M) if j % p else 0 for j in range(31)]
    want = [
        sum((-1) ** (m - j) * math.comb(m, j) * powers[j] for j in range(m + 1)) % M
        for m in range(31)
    ]
    k = StructuredExponent.tower(c, base, L, d)
    assert _scan(k, p, E, 31) == want
    assert [mstirling_mod(k, m, p, E) for m in (0, 7, 30)] == [want[0], want[7], want[30]]
