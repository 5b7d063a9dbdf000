"""Exponent lower bounds and the emitted reference tables."""

import json
import math

import pytest

from padicsums import (
    StructuredExponent,
    alt_sum,
    bound_report,
    carries,
    emit_delta,
    emit_table1,
    emit_table2,
    ep_auto,
    exponent_to_homotopy,
    homotopy_exponent_bound,
    lower_bound,
    min_stirling_ord,
    old_bound,
    ord_factorial,
    restated_bound,
    stable_min_ord,
)
from padicsums import IntPolynomial, golden
from padicsums.su_bounds import render, table_delta, table_one, table_two


def test_lower_bound_values():
    assert lower_bound(3, 27) == 30
    assert lower_bound(3, 19) == 20
    assert lower_bound(3, 100) == 114
    assert lower_bound(2, 2) == 1
    assert lower_bound(5, 24) == 23
    with pytest.raises(ValueError):
        lower_bound(3, 1)


def test_old_bound_values():
    assert old_bound(3, 100) == 113
    with pytest.raises(ValueError, match="odd p"):
        old_bound(2, 10)


def test_restated_bound_small_n_is_trivial():
    for p in (2, 3, 5, 7):
        for n in range(2, p * p):
            assert restated_bound(p, n) == n - 1


def test_lower_and_restated_bounds_agree():
    for p in (2, 3, 5, 7):
        for n in range(2, 2001):
            assert lower_bound(p, n) == restated_bound(p, n), (p, n)


def test_lower_vs_old_bound_difference():
    # the new bound loses at most 2 and eventually wins by a lot
    diffs = set()
    for p in (3, 5, 7):
        for n in range(2, 2001):
            diffs.add(lower_bound(p, n) - old_bound(p, n))
    assert min(diffs) == -2
    assert max(diffs) > 20


def test_bound_report():
    rep = bound_report(3, 100)
    assert (rep.new, rep.old, rep.restated) == (114, 113, 114)
    rep2 = bound_report(2, 40)
    assert rep2.old is None and rep2.new == rep2.restated == 57


def test_ep_auto_routes_by_exponent_shape():
    res = ep_auto(3, 29, StructuredExponent(2, 3, 40, 28))
    assert res.certificate == "stable-family"
    assert res.value == 32
    res2 = ep_auto(3, 29, StructuredExponent.plain(35))
    assert res2.certificate == "exact-finite-k"
    assert res2.value == 13


def test_ep_auto_falls_back_below_the_family_threshold():
    # L = 3 is below the family's height max(N, N0) = 34, so the direct scan answers
    k = StructuredExponent(2, 3, 3, 28)
    res = ep_auto(3, 29, k)
    assert res == min_stirling_ord(3, 29, k)
    assert (res.certificate, res.value, res.m_scanned) == ("exact-finite-k", 15, (29, 35))


def test_exponent_to_homotopy():
    assert exponent_to_homotopy(3, 29, 32) == 32
    assert exponent_to_homotopy(2, 10, 7) == 6
    assert exponent_to_homotopy(2, 11, 7) == 7


def test_p2_homotopy_bound_is_one_short_at_18_even_n():
    # at p = 2 the code proves the arithmetic bound on e_2, not the paper's homotopy bound
    short = {}
    for n in range(2, 81):
        gap = lower_bound(2, n) - exponent_to_homotopy(2, n, stable_min_ord(2, n).value)
        if gap > 0:
            short[n] = gap
    assert short == dict.fromkeys([2, 4, 6, 10, 12, 18, 20, 22, 34, 36, 38, 42, 44, 66, 68, 70, 74, 76], 1)


def test_homotopy_exponent_bound_requires_certificate():
    bound, res = homotopy_exponent_bound(3, 29, StructuredExponent(2, 3, 40, 28))
    assert bound == 32 and res.certified
    bound2, res2 = homotopy_exponent_bound(2, 10, StructuredExponent.plain(10))
    assert bound2 == 7 and res2.value == 8
    with pytest.raises(ValueError, match="not certified"):
        homotopy_exponent_bound(3, 29, StructuredExponent(1, 7, 70, 28))


def test_table1_rows_against_reference():
    rows = emit_table1(19, 41)
    assert [row.n for row in rows] == list(range(19, 42))
    stable = tuple(row.stable for row in rows)
    bound = tuple(row.bound for row in rows)
    assert bound == golden.TABLE1_BOUND
    # the reference stable column disagrees with exact recomputation in
    # exactly one place: n=28 is published as 32 but is proven to be 31 by
    # test_table1_n28_stable_order_is_31 below
    mismatches = {
        row.n: (got, want)
        for row, got, want in zip(rows, stable, golden.TABLE1_STABLE)
        if got != want
    }
    assert mismatches == {28: (31, 32)}


def _ord3(x):
    v = 0
    while x % 3 == 0:
        x //= 3
        v += 1
    return v


def test_table1_n28_stable_order_is_31():
    # Proof, by exact integers only, that e_3(28, k) = 31 for k = 2*3^L + 27
    # and every L >= 31, i.e. that the reference cell 32 is wrong. For 3 !| j,
    # j^(2*3^L) = 1 mod 3^(L+1), and terms with 3 | j vanish mod 3^k, so
    # m! S(k, m) = D^m g(0) mod 3^(L+1) with g(j) = j^27 [3 !| j].
    g = [0 if j % 3 == 0 else j**27 for j in range(69)]
    orders = {
        m: _ord3(sum((-1) ** (m - j) * math.comb(m, j) * g[j] for j in range(m + 1)))
        for m in range(28, 69)
    }
    least = min(orders.values())
    assert least == 31
    assert [m for m, v in orders.items() if v == least] == [28, 29]
    # m! S(k, m) is a multiple of m!, and ord_3(m!) never decreases in m,
    # so no m >= 69 can go below 32
    assert _ord3(math.factorial(69)) == 32
    # one concrete exponent of the family, through the surjection sum
    k, mod = 2 * 3**31 + 27, 3**40
    s = sum((-1) ** (28 - j) * math.comb(28, j) * pow(j, k, mod) for j in range(29)) % mod
    assert _ord3(s) == 31

def test_table1_internal_invariants():
    rows = emit_table1(19, 41)
    for row in rows:
        assert row.stable >= row.bound
        assert row.L > 0
        assert row.max_observed is None and row.k_searched is None


def test_table1_with_max_observed():
    rows = emit_table1(20, 22, k_budget=15)
    assert [(r.n, r.stable, r.bound, r.max_observed, r.k_searched) for r in rows] == [
        (20, 21, 21, 21, 35),
        (21, 22, 22, 22, 36),
        (22, 25, 23, 25, 37),
    ]
    for r in rows:
        assert r.max_observed >= r.stable


def test_table1_validation():
    with pytest.raises(ValueError):
        emit_table1(25, 19)


def test_table2_matches_reference_and_invariants():
    t2 = emit_table2()
    assert t2 == golden.TABLE2
    assert len(t2) == 9 and all(len(row) == 9 for row in t2)
    for n in range(9):
        assert t2[n][0] == 0
        for r in range(9):
            assert 0 <= t2[n][r] <= 2
            assert t2[n][r] == carries(3, r, (n - r) % 9)
    assert t2[8] == (0,) * 9


def test_delta_matches_reference():
    vals = emit_delta()
    assert tuple(vals) == golden.DELTA
    assert golden.DELTA_L_FROM == 25 and golden.DELTA_L_TO == 45
    assert ord_factorial(2, 25) == 22


def test_delta_recomputed_from_scratch():
    for l, want in zip(range(25, 46), golden.DELTA):
        s = alt_sum(100, 0, 4, IntPolynomial.monomial(l))
        v = 0
        while s % 2 == 0:
            s //= 2
            v += 1
        assert v - 22 == want, l


def test_delta_outside_reference_range():
    # the constant-weight column: sum over k = 0 (mod 4) of C(100,k)
    # equals 2^98 - 2^49, so the offset order is 49 - 22 = 27
    assert emit_delta(l_from=0, l_to=0) == [27]
    assert alt_sum(100, 0, 4, IntPolynomial.monomial(0)) == 2**98 - 2**49


def test_renderers_are_stable_and_labeled():
    rows = emit_table1(19, 21)
    csv = render(table_one(rows), "csv")
    assert csv.splitlines()[0] == "n,stable,bound"
    assert csv == render(table_one(rows), "csv")
    data = json.loads(render(table_one(rows), "json"))
    assert data["schema"] == 1
    md = render(table_one(rows), "md")
    assert "| 19 |" in md and "observed" not in md

    rows_max = emit_table1(20, 21, k_budget=5)
    assert render(table_one(rows_max), "csv").splitlines()[0] == "n,stable,bound,max_observed"
    assert "observed, not proven maximal" in render(table_one(rows_max), "md")
    assert "observed, not proven maximal" in render(table_one(rows_max), "json")

    t2 = emit_table2()
    assert render(table_two(t2), "csv").splitlines()[0].startswith("n_mod_9,")
    json.loads(render(table_two(t2), "json"))
    assert "|" in render(table_two(t2), "md")

    vals = emit_delta()
    assert render(table_delta(vals, 25), "csv").splitlines()[0] == "l,delta"
    json.loads(render(table_delta(vals, 25), "json"))
    assert "|" in render(table_delta(vals, 25), "md")
