"""Stirling numbers, modular m!S(k,m) kernels, and minimum-order search."""

import hashlib
import itertools
import json
import math
import random

import pytest

from padicsums import (
    CapacityError,
    PrecisionError,
    StructuredExponent,
    default_precision,
    lower_bound,
    min_stirling_ord,
    mstirling_mod,
    ord_factorial,
    ord_int,
    parse_exponent,
    stable_min_ord,
    stable_params,
    stirling_exact,
    stirling_rows,
)
from padicsums import stirling
from padicsums.exponents import MATERIALIZE_CAP, power_rule
from padicsums.stirling import DEFAULT_RETRIES, SCAN_CAP, WINDOW_STEP


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


def test_band_equals_the_triangle():
    # every S(k, m) with k <= 300 and m <= k + 2: the band of each d = k - m is walked once to k = 300,
    # and stirling_exact, which reads one band to its m, is queried at every point up to k = 60
    rows = [row for _, row in stirling_rows(300, 300)]
    for d in range(301):
        band = list(itertools.islice(stirling._band(d), 301 - d))
        assert band == [rows[j + d][j] for j in range(301 - d)], d
    for k, row in enumerate(rows):
        assert stirling_exact(k, k + 1) == stirling_exact(k, k + 2) == 0
        if k <= 60:
            assert [stirling_exact(k, m) for m in range(k + 1)] == row, k


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
            power_rule(ten, p, E)


def test_residue_kernels_return_reduced_residues():
    # i is m for mstirling_mod, whose surjection sum starts at a negative sign for odd m, and j for power_rule
    tower = StructuredExponent(2, 3, 100, 7)
    for p in (2, 3, 5):
        for E in (1, 2, 7):
            M = p**E
            for i in range(12):
                assert 0 <= mstirling_mod(tower, i, p, E) < M, (p, E, i)
                assert 0 <= power_rule(tower, p, E)(i) < M, (p, E, i)


def test_least_factor_table_spans_the_scan_cap():
    lf = stirling._least_factors()
    assert len(lf) == SCAN_CAP + 1 and lf[:2] == (0, 1)
    assert all(lf[j] == next(q for q in range(2, j + 1) if j % q == 0) for j in range(2, SCAN_CAP + 1))


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("E", [1, 2, 3, 60])
def test_power_table_matches_the_rule(p, E):
    # plain k = 0, 1, 2 <= k < E and k >= E, a materializable tower and one past MATERIALIZE_CAP,
    # read past the least-factor table, where every j takes the rule
    N = SCAN_CAP + 40
    towers = [StructuredExponent(2, 3, 10, 4), StructuredExponent(1, 7, MATERIALIZE_CAP + 1, 5)]
    for k in sorted({0, 1, max(2, E - 1), E, 3 * E + 5}) + towers:
        rule = power_rule(k, p, E)
        assert list(itertools.islice(stirling._powers(k, p, E), N)) == [rule(j) for j in range(N)], (p, E, str(k))


@pytest.mark.parametrize("p", [2, 3, 101])
def test_power_table_pows_only_primes_and_multiples_of_p(p, monkeypatch):
    # 0, 1, a prime unit and a multiple of p take one pow each, and so does every j past SCAN_CAP;
    # a composite unit up to SCAN_CAP takes a product
    ruled = []

    def counted(k, p, E):
        rule = power_rule(k, p, E)
        return lambda j: ruled.append(j) or rule(j)

    monkeypatch.setattr(stirling, "power_rule", counted)
    N = SCAN_CAP + 10
    list(itertools.islice(stirling._powers(StructuredExponent(1, 7, 100, 5), p, 5), N))
    lf = stirling._least_factors()
    assert ruled == [j for j in range(N) if j > SCAN_CAP or j % p == 0 or lf[j] == j]


def test_mstirling_mod_tower_vs_plain():
    # materializable towers agree with the plain route
    k = StructuredExponent(2, 3, 5, 28)
    plain = StructuredExponent.plain(k.value())
    for m, p, E in ((10, 3, 9), (7, 2, 12), (20, 5, 6)):
        assert mstirling_mod(k, m, p, E) == mstirling_mod(plain, m, p, E)


def test_mstirling_mod_residues_pinned():
    # sha256 of 1800 residues recorded from the unit/p-power surjection route, which the exact binomial row replaced
    ms = [*range(32), 63, 64, 100, 127, 128, 243, 256, 343, 500, 625, 729, 1000, 1024]
    ks = (StructuredExponent.plain(123457), StructuredExponent(1, 7, 100, 5))
    residues = [mstirling_mod(k, m, p, E) for k in ks for p in (2, 3, 5, 7) for E in (1, 2, 5, 12, 40) for m in ms]
    assert len(residues) == 1800
    digest = hashlib.sha256(",".join(map(str, residues)).encode()).hexdigest()
    assert digest == "c4295b2004e863915bdaaa51b2edac98f9fbe999ade0ac2f6301202b636611dd"


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


def test_exact_route_past_the_window_brute_force():
    # a materializable k, also past n + DEFAULT_WINDOW, is scanned exactly, up to the first m with
    # ord_p((m+1)!) above the minimum or to m = k; value and witness are the exact triangle's
    for k in map(parse_exponent, ("31", "90", "300", "1*2^7+5")):
        top = k.value()
        *_, (_, row) = stirling_rows(top, top)
        for p in (2, 3, 5, 7):
            orders = {m: ord_factorial(p, m) + ord_int(p, s) for m, s in enumerate(row) if s}
            for n in range(1, 30):
                value, witness = min((v, m) for m, v in orders.items() if m >= n)
                end = next((m for m in range(n, top) if ord_factorial(p, m + 1) > value), top)
                res = min_stirling_ord(p, n, k)
                assert (res.value, res.witness_m, res.certificate) == (value, witness, "exact-finite-k"), (p, n, k)
                assert res.m_scanned == (n, end), (p, n, k)


def test_window_has_no_effect_on_a_materializable_k():
    for p, n, k in ((3, 29, "4401"), (2, 12, "1*7^20+30"), (5, 10, "12"), (3, 29, "2*3^3+28")):
        k = parse_exponent(k)
        want = min_stirling_ord(p, n, k)
        assert want.certificate == "exact-finite-k", (p, n, k)
        for window in (0, 3, 60, 1000):
            assert min_stirling_ord(p, n, k, window=window) == want, (p, n, k, window)


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
    res = min_stirling_ord(3, 29, parse_exponent("1*7^70+28"))
    assert not res.certified
    assert res.certificate == "heuristic-window"
    assert res.value == 16
    assert res.m_scanned == (29, 89)


def test_stable_params_frozen_examples():
    sp = stable_params(3, 29)
    assert (sp.N, sp.N0, sp.L0, sp.m0) == (32, 34, 32, 30)
    assert sp.m_scanned == (29, 35)
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
    k = StructuredExponent(1, 2, 70, 3)
    res = min_stirling_ord(2, 4, k, precision=1)
    assert res.value == 4
    assert res.precision > 1


def test_raising_precision_never_changes_exact_answers():
    k = StructuredExponent(2, 3, 30, 28)
    low = min_stirling_ord(3, 29, k, precision=40)
    high = min_stirling_ord(3, 29, k, precision=80)
    assert low.value == high.value


def test_default_precision_values():
    assert default_precision(3, 29) == 57
    assert default_precision(2, 40) == 125
    assert default_precision(5, 10) == 19
    assert default_precision(3, 60) > default_precision(3, 30)


def test_scans_refuse_past_their_caps():
    # a scan may read up to m = SCAN_CAP, but not extend its window or read on past it
    stop_past_cap = lambda m: 0 if m <= SCAN_CAP else math.inf  # noqa: E731
    assert stirling._scan_min(2, SCAN_CAP - 4, itertools.repeat(1), SCAN_CAP, 9, stop_past_cap)[3] == SCAN_CAP
    drops = (2 ** (2 * SCAN_CAP - m) for m in itertools.count())  # the minimum moves at every m
    want = rf"^Stirling scans capped at m <= {SCAN_CAP}, got m={SCAN_CAP - 4 + WINDOW_STEP}$"
    with pytest.raises(CapacityError, match=want):
        stirling._scan_min(2, SCAN_CAP - 4, drops, SCAN_CAP - 4, 9)
    # a tail-stopped scan whose values all vanish reads on to the cap, exactly
    with pytest.raises(CapacityError, match=rf"^Stirling scans capped at m <= {SCAN_CAP}, got m={SCAN_CAP + 1}$"):
        stirling._scan_min(2, 3, itertools.repeat(0), 3, math.inf, stirling._family_tail(2, 2))
    # the precision may go up to what the default doublings reach
    cap = default_precision(3, 29) << DEFAULT_RETRIES
    assert min_stirling_ord(3, 29, 35, precision=cap).value == 13
    with pytest.raises(CapacityError, match=rf"^precision capped at {cap} for p=3, n=29, got {cap + 1}$"):
        min_stirling_ord(3, 29, 35, precision=cap + 1)


def test_stable_family_lower_bound_invariant():
    # certified stable orders dominate n - 1 + ord_p(floor(n/p)!)
    for p in (2, 3, 5):
        for n in range(2, 41):
            res = stable_min_ord(p, n)
            floor_bound = n - 1 + ord_factorial(p, n // p)
            assert res.value >= floor_bound, (p, n)


# sha256 of [p, n, value, witness_m, precision, N0, L0, m0] for every
# stable-family answer below, recorded while the family scans still stopped
# by a 60-term window.  How the scans stop must not move any of them.
FAMILY_RANGES = ((2, 80), (3, 120), (5, 120), (7, 60))
FAMILY_DIGEST = "ad7700449c07629cc12b2c4781bd6245e7160d27e5b6e5f0eb92ef2e91417b36"


def test_stable_family_answers_pinned():
    rows = []
    for p, top in FAMILY_RANGES:
        for n in range(2, top + 1):
            res = stable_min_ord(p, n)
            sp = res.stable
            rows.append([p, n, res.value, res.witness_m, res.precision, sp.N0, sp.L0, sp.m0])
            assert res.value >= lower_bound(p, n), (p, n)
    assert len(rows) == 376
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == FAMILY_DIGEST


# (value, m_scanned, witness_m, precision, certificate), recorded
# before the scans moved to one forward-difference table.  A faster kernel
# must not move any of them: the scan bounds are printed by ``compute ep``.
# The stable rows' m_scanned were re-recorded when the family scans moved
# from a window to the family tail, and the exact row's when the exact scan
# came to stop by the factorial tail.
PINNED_SCANS = {
    "exact-finite-k": (
        lambda: min_stirling_ord(3, 29, 80), (15, (29, 35), 29, 57, "exact-finite-k")),
    "stable p=3 n=19": (
        lambda: stable_min_ord(3, 19), (20, (19, 26), 19, 39, "stable-family")),
    "stable p=3 n=28": (
        lambda: stable_min_ord(3, 28), (31, (28, 35), 28, 55, "stable-family")),
    "stable p=3 n=41": (
        lambda: stable_min_ord(3, 41), (45, (41, 44), 41, 78, "stable-family")),
    "stable p=2 n=7": (
        lambda: stable_min_ord(2, 7), (8, (7, 7), 7, 26, "stable-family")),
    "window extension": (
        lambda: min_stirling_ord(3, 29, parse_exponent("1*7^70+28"), window=3),
        (16, (29, 62), 29, 57, "heuristic-window")),
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


def test_precision_doublings_stop_at_the_cap(monkeypatch):
    # Every term faked to 0: each start doubles, at most DEFAULT_RETRIES
    # times, and a doubling past E_cap = default_precision(3, 29) << DEFAULT_RETRIES
    # runs at E_cap itself.
    passes = []

    def zeros(k, p, E):
        passes.append(E)
        return itertools.repeat(0)

    monkeypatch.setattr(stirling, "mstirling_scan", zeros)
    k = parse_exponent("2*3^70+28")
    assert default_precision(3, 29) << DEFAULT_RETRIES == 912
    starts = {None: [57, 114, 228, 456, 912], 1: [1, 2, 4, 8, 16], 300: [300, 600, 912], 500: [500, 912], 912: [912]}
    for start, want in starts.items():
        passes.clear()
        with pytest.raises(PrecisionError, match=rf"cap reached after {len(want) - 1} retries$") as ei:
            min_stirling_ord(3, 29, k, precision=start)
        assert passes == want and ei.value.partial.value == want[-1], start


def test_stable_params_scans_pinned():
    want = {
        (3, 19): (21, 20, 20, 19, (19, 26)),
        (3, 28): (31, 31, 31, 28, (28, 35)),
        (3, 41): (46, 45, 45, 41, (41, 44)),
        (2, 7): (9, 8, 8, 7, (7, 7)),
        (3, 60): (69, 68, 68, 60, (60, 71)),
    }
    for (p, n), fields in want.items():
        sp = stable_params(p, n)
        assert (sp.N, sp.N0, sp.L0, sp.m0, sp.m_scanned) == fields, (p, n)


def test_family_tail_bounds_every_family_sum():
    # Sun-Davis: ord_p(S_m) >= tail(m) on exact S_m, below and above m = d
    for p in (2, 3, 5, 7, 11):
        for n in range(2, 41):
            tail = stirling._family_tail(p, n - 1)
            family = (j ** (n - 1) if j % p else 0 for j in itertools.count())
            for m, s in zip(range(n + 300), stirling._diagonal(family)):
                assert s == 0 or ord_int(p, s) >= tail(m), (p, n, m)


def test_family_scans_stop_by_the_tail(monkeypatch):
    # no family answer reads a window, and the engine reads the exact scan's range
    for name in ("DEFAULT_WINDOW", "WINDOW_STEP", "STABLE_RUN"):
        monkeypatch.setattr(stirling, name, None)
    for p, top in ((2, 30), (3, 40), (7, 60)):
        for n in range(2, top + 1):
            res = stable_min_ord(p, n)
            assert res.m_scanned == res.stable.m_scanned, (p, n)
            assert stirling._family_tail(p, n - 1)(res.m_scanned[1] + 1) > res.value, (p, n)
