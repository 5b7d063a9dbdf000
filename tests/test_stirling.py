"""Stirling numbers, modular m!S(k,m) kernels, and minimum-order search."""

import math
import random

import pytest

from padicsums import (
    CapacityError,
    PrecisionError,
    StructuredExponent,
    default_precision,
    min_stirling_ord,
    mstirling_mod,
    ord_factorial,
    ord_int,
    parse_exponent,
    pow_mod,
    stable_min_ord,
    stable_params,
    stirling_exact,
    stirling_rows,
)


def test_stirling_exact_small_values():
    assert stirling_exact(0, 0) == 1
    assert stirling_exact(5, 0) == 0
    assert stirling_exact(0, 3) == 0
    assert stirling_exact(6, 6) == 1
    assert stirling_exact(3, 5) == 0
    assert stirling_exact(4, 2) == 7
    assert stirling_exact(10, 4) == 34105
    for k in range(1, 12):
        assert stirling_exact(k, 1) == 1
        assert stirling_exact(k, k - 1) == math.comb(k, 2)


def test_stirling_recurrence():
    for k in range(1, 30):
        for m in range(1, k + 1):
            want = m * stirling_exact(k - 1, m) + stirling_exact(k - 1, m - 1)
            assert stirling_exact(k, m) == want


def test_stirling_rows_agree_with_point_queries():
    for k, row in stirling_rows(25, 12):
        assert row == [stirling_exact(k, m) for m in range(len(row))]


def test_surjection_sum_oracle():
    """m! S(k,m) equals the signed binomial sum over j^k, exactly."""
    for k in range(0, 41):
        for m in range(0, min(k, 40) + 1):
            lhs = math.factorial(m) * stirling_exact(k, m)
            rhs = sum(
                (-1) ** (m - j) * math.comb(m, j) * j**k for j in range(m + 1)
            )
            assert lhs == rhs, (k, m)


def test_stirling_capacity_cap():
    with pytest.raises(CapacityError, match="capped at k <= 10000"):
        stirling_exact(10001, 5)


def test_mstirling_mod_matches_exact():
    assert mstirling_mod(StructuredExponent.plain(10), 4, 3, 8) == 4956
    rng = random.Random(139)
    for k in range(1, 121, 7):
        for m in range(1, 41, 3):
            p = rng.choice((2, 3, 5))
            E = (k + m) % 20 + 1
            want = (math.factorial(m) * stirling_exact(k, m)) % p**E
            got = mstirling_mod(StructuredExponent.plain(k), m, p, E)
            assert got == want, (k, m, p, E)


def test_residue_kernels_check_their_ring():
    # p and E are checked on the way to the Carmichael number, with the messages of those checks
    ten = StructuredExponent.plain(10)
    for p, E, msg in ((4, 3, "p must be a prime, got p=4"), (3, 0, "precision E must be >= 1, got E=0")):
        with pytest.raises(ValueError, match=rf"^{msg}$"):
            mstirling_mod(ten, 4, p, E)
        with pytest.raises(ValueError, match=rf"^{msg}$"):
            pow_mod(4, ten, p, E)


def test_residue_kernels_return_reduced_residues():
    # i is m for mstirling_mod, whose surjection sum starts at a negative sign for odd m, and j for pow_mod
    tower = StructuredExponent.tower(2, 3, 100, 7)
    for p in (2, 3, 5):
        for E in (1, 2, 7):
            M = p**E
            for i in range(12):
                assert 0 <= mstirling_mod(tower, i, p, E) < M, (p, E, i)
                assert 0 <= pow_mod(i, tower, p, E) < M, (p, E, i)


def test_mstirling_mod_tower_vs_plain():
    # materializable towers agree with the plain route
    k = StructuredExponent.tower(2, 3, 5, 28)
    plain = StructuredExponent.plain(k.value())
    for m, p, E in ((10, 3, 9), (7, 2, 12), (20, 5, 6)):
        assert mstirling_mod(k, m, p, E) == mstirling_mod(plain, m, p, E)


def test_min_stirling_ord_exact_route_brute_force():
    rng = random.Random(149)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 12)
        k = rng.randint(n, 22)
        res = min_stirling_ord(p, n, StructuredExponent.plain(k))
        assert res.certified and res.certificate == "exact-finite-k"
        vals = [
            ord_int(p, math.factorial(m) * stirling_exact(k, m))
            for m in range(n, k + 1)
        ]
        best = min(v for v in vals if v is not None)
        assert res.value == best, (p, n, k)
        assert res.m_scanned[0] == n


def test_min_at_k_equal_n_is_factorial_order():
    # the only nonzero term is m = n, so the minimum is ord of n!
    for p in (2, 3, 5):
        for n in (1, 2, 7, 20, 40):
            res = min_stirling_ord(p, n, StructuredExponent.plain(n))
            assert res.value == ord_factorial(p, n)
            assert res.witness_m == n


def test_min_stirling_ord_validation():
    with pytest.raises(ValueError, match="k must be >= n"):
        min_stirling_ord(3, 10, StructuredExponent.plain(5))
    with pytest.raises(ValueError):
        min_stirling_ord(4, 3, StructuredExponent.plain(7))


def test_heuristic_window_is_uncertified():
    res = min_stirling_ord(3, 29, StructuredExponent.plain(4401))
    assert not res.certified
    assert res.certificate == "heuristic-window"
    assert res.value == 18
    assert res.m_scanned == (29, 89)


def test_stable_params_frozen_examples():
    sp = stable_params(3, 29)
    assert (sp.N, sp.N0, sp.L0, sp.m0) == (32, 34, 32, 30)
    assert sp.m_scanned == (29, 89)
    sp2 = stable_params(2, 4)
    assert (sp2.N, sp2.N0, sp2.L0, sp2.m0) == (5, 4, 4, 4)
    sp3 = stable_params(2, 3, d=3)
    assert sp3.L0 == 1


def test_stable_min_ord_frozen_values():
    for n, want in ((19, 20), (21, 22), (28, 31), (29, 32), (41, 45)):
        res = stable_min_ord(3, n)
        assert res.certified and res.certificate == "stable-family"
        assert res.value == want, n
    res = stable_min_ord(3, 29)
    assert res.witness_m == 30
    assert res.precision == 57
    assert res.stable is not None and res.stable.L0 == 32


def test_stable_min_ord_explicit_height():
    # any height at or past the stability threshold reports the same order
    base = stable_min_ord(3, 21)
    threshold = max(base.stable.N, base.stable.N0)
    for L in (threshold, threshold + 1, threshold + 5):
        res = stable_min_ord(3, 21, L=L)
        assert res.value == 22
    with pytest.raises(ValueError, match="below the stabilization threshold"):
        stable_min_ord(3, 21, L=threshold - 1)


def test_precision_error_carries_partial():
    # precision 1 doubles DEFAULT_RETRIES = 4 times, to 16, and every term stays divisible by 3**16
    k = parse_exponent("1*7^70000+90")
    with pytest.raises(PrecisionError) as ei:
        min_stirling_ord(3, 80, k, precision=1)
    partial = ei.value.partial
    assert not partial.certified
    assert partial.value == 16


def test_precision_retries_recover():
    k = StructuredExponent.tower(1, 2, 70, 3)
    res = min_stirling_ord(2, 4, k, precision=1)
    assert res.value == 4
    assert res.precision > 1


def test_raising_precision_never_changes_exact_answers():
    k = StructuredExponent.tower(2, 3, 30, 28)
    low = min_stirling_ord(3, 29, k, precision=40)
    high = min_stirling_ord(3, 29, k, precision=80)
    assert low.value == high.value


def test_default_precision_values():
    assert default_precision(3, 29) == 57
    assert default_precision(2, 40) == 125
    assert default_precision(5, 10) == 19
    assert default_precision(3, 60) > default_precision(3, 30)


def test_stable_family_lower_bound_invariant():
    # certified stable orders dominate n - 1 + ord_p(floor(n/p)!)
    for p in (2, 3, 5):
        for n in range(2, 41):
            res = stable_min_ord(p, n)
            floor_bound = n - 1 + ord_factorial(p, n // p)
            assert res.value >= floor_bound, (p, n)


# (value, m_scanned, witness_m, precision, certificate), recorded
# before the scans moved to one forward-difference table.  A faster kernel
# must not move any of them: the scan bounds are printed by ``compute ep``.
PINNED_SCANS = {
    "exact-finite-k": (
        lambda: min_stirling_ord(3, 29, 80), (15, (29, 80), 29, 57, "exact-finite-k")),
    "stable p=3 n=19": (
        lambda: stable_min_ord(3, 19), (20, (19, 79), 19, 39, "stable-family")),
    "stable p=3 n=28": (
        lambda: stable_min_ord(3, 28), (31, (28, 88), 28, 55, "stable-family")),
    "stable p=3 n=41": (
        lambda: stable_min_ord(3, 41), (45, (41, 101), 41, 78, "stable-family")),
    "stable p=2 n=7": (
        lambda: stable_min_ord(2, 7), (8, (7, 67), 7, 26, "stable-family")),
    "window extension": (
        lambda: min_stirling_ord(3, 29, 4401, window=3),
        (18, (29, 62), 29, 57, "heuristic-window")),
    "precision doubling": (
        lambda: min_stirling_ord(2, 12, parse_exponent("1*7^70000+30"), precision=2),
        (11, (12, 72), 12, 16, "heuristic-window")),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCANS))
def test_scan_results_pinned(name):
    query, want = PINNED_SCANS[name]
    res = query()
    got = (res.value, res.m_scanned, res.witness_m, res.precision, res.certificate)
    assert got == want


def test_precision_error_partial_pinned():
    with pytest.raises(PrecisionError) as ei:
        min_stirling_ord(3, 80, parse_exponent("1*7^70000+90"), precision=2)
    part = ei.value.partial
    got = (part.value, part.m_scanned, part.witness_m, part.precision, part.certificate)
    assert got == (32, (80, 140), None, 32, "heuristic-window")


def test_stable_params_scans_pinned():
    want = {
        (3, 19, 60): (21, 20, 20, 19, (19, 79)),
        (3, 28, 60): (31, 31, 31, 28, (28, 88)),
        (3, 41, 60): (46, 45, 45, 41, (41, 101)),
        (2, 7, 60): (9, 8, 8, 7, (7, 67)),
        (3, 60, 5): (69, 68, 68, 60, (60, 95)),  # one window extension
    }
    for (p, n, window), fields in want.items():
        sp = stable_params(p, n, m_window=window)
        assert (sp.N, sp.N0, sp.L0, sp.m0, sp.m_scanned) == fields, (p, n, window)
