"""Command line interface: outputs, formats, and exit codes."""

import argparse
import ast
import importlib
import json
import math
import random
import re
import shlex
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from padicsums import (
    IntPolynomial,
    check_binom_weight_bound,
    check_carry_bound,
    check_equality_conjecture,
    check_factorial_match,
    check_plain_sum_bound,
    check_polysum_bound,
    check_stirling_diff_bound,
    check_totient_bound,
    default_grid,
    ord_factorial,
    parse_grid,
    polysum,
    stirling,
    stirling_exact,
    stirling_rows,
    su_bounds,
    sweep,
    verify,
)
from padicsums.cli import DIGITS_CAP, _stirling_log10, build_parser, main
from padicsums.verify import BOUND_L_CAP


def run_cli(argv, capsys, entry=main):
    try:
        rc = entry(argv)
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["compute", "ord", "--p", "3", "--x", "162"], "4"),
        (["compute", "ord", "--p", "2", "--x", "0"], "inf"),
        (["compute", "ord-factorial", "--p", "3", "--m", "100"], "48"),
        (["compute", "tau", "--p", "3", "--a", "4", "--b", "8"], "2"),
        (["compute", "binom", "--n", "10", "--k", "4"], "210"),
        (["compute", "stirling", "--k", "10", "--m", "4"], "34105"),
        (
            ["compute", "mstirling", "--k", "2*3^5+28", "--m", "30", "--p", "3", "--E", "12"],
            "0 (mod 3^12)",
        ),
        (
            ["compute", "stable", "--p", "3", "--n", "29"],
            "N=32 N0=34 L0=32 m0=30 m_scanned=[29, 35]",
        ),
        (["compute", "bound", "--p", "3", "--n", "100"], "new=114 old=113 restated=114"),
        (["compute", "bound", "--p", "2", "--n", "40"], "new=57 old=n/a restated=57"),
        (["table", "delta", "--from", "30", "--to", "30", "--format", "csv"], "l,delta\n30,3"),
        (["compute", "mstirling", "--k", "1*7^100+5", "--m", "1024", "--p", "3", "--E", "12"], "0 (mod 3^12)"),
    ],
)
def test_compute_outputs(argv, want, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0 and out.strip() == want


def test_ep_certified_auto_height(capsys):
    argv = ["compute", "ep", "--p", "3", "--n", "29", "--k", "2*3^L+28", "--L", "auto"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out.strip() == "32 (certified: stable-family, L=34, m in [29, 35], precision=57)"
    # the family scan stops by its tail, so no window reaches it
    assert run_cli(argv + ["--window", "0"], capsys) == (rc, out, "")


@pytest.mark.parametrize(
    "k, extra, want",
    [
        ("2*3^5+28", [], "--L auto needs a symbolic exponent of the form 'c*base^L+d'"),
        ("2*3^L - 28", [], "--L auto needs a symbolic exponent of the form 'c*base^L+d'"),
        ("6*3^L+2", [], "--L auto requires the stable family form 2*3^L+d"),
        ("2*3^L+28", ["--p", "5"], "--L auto requires the stable family form 4*5^L+d"),
        ("3*4^L+2", ["--p", "4"], "p must be a prime, got p=4"),
        ("2*3^L+28", ["--n", "0"], "n must be >= 1, got n=0"),
        ("2*3^L+28", ["--p", "2"], "--L auto requires the stable family form 1*2^L+d"),
        ("2*3^L+28", ["--precision", "0"], "precision must be >= 1, got 0"),
        ("2*3^L+28", ["--p", "1"], "p must be a prime, got p=1"),
    ],
)
def test_ep_auto_height_errors(k, extra, want, capsys):
    argv = ["compute", "ep", "--p", "3", "--n", "29", "--k", k, "--L", "auto", *extra]
    assert run_cli(argv, capsys) == (64, "", f"error: {want}\n")


@pytest.mark.parametrize(
    "spaced, squeezed",
    [
        (["--k", " 2 * 3^L + 28", "--L", "auto"], ["--k", "2*3^L+28", "--L", "auto"]),
        (["--k", "2*3^40 + 28"], ["--k", "2*3^40+28"]),
    ],
)
def test_spaced_exponents_read_as_squeezed(spaced, squeezed, capsys):
    head = ["compute", "ep", "--p", "3", "--n", "29"]
    got = run_cli(head + spaced, capsys)
    assert got == run_cli(head + squeezed, capsys) and got[0] == 0


def test_ep_certified_exact(capsys):
    rc, out, _ = run_cli(["compute", "ep", "--p", "3", "--n", "29", "--k", "35"], capsys)
    assert rc == 0
    assert out.strip() == "13 (certified: exact-finite-k, m in [29, 29], precision=57)"


def test_ep_ignores_a_precision_environment_variable(capsys, monkeypatch):
    argv = ["compute", "ep", "--p", "3", "--n", "29", "--k", "35"]
    plain = run_cli(argv, capsys)
    monkeypatch.setenv("PADICSUMS_PRECISION", "0")
    assert run_cli(argv, capsys) == plain == (0, "13 (certified: exact-finite-k, m in [29, 29], precision=57)\n", "")


def test_ep_window_does_not_reach_a_plain_k(capsys):
    argv = ["compute", "ep", "--p", "3", "--n", "29", "--k", "4401"]
    want = (0, "18 (certified: exact-finite-k, m in [29, 41], precision=57)\n", "")
    assert run_cli(argv, capsys) == run_cli(argv + ["--window", "0"], capsys) == want


@pytest.mark.parametrize(
    "route",
    [
        ["--k", "2*3^40+28"],  # stable family
        ["--k", "2*3^L+28", "--L", "auto"],
        ["--k", "1*7^40+28"],  # exact scan
        ["--k", "1*7^70+28"],  # heuristic window
    ],
)
def test_negative_window_is_refused_on_every_route(route, capsys):
    argv = ["compute", "ep", "--p", "3", "--n", "29", *route, "--window", "-1"]
    assert run_cli(argv, capsys) == (64, "", "error: window must be >= 0, got -1\n")


def test_ep_uncertified_goes_to_stderr(capsys):
    rc, out, err = run_cli(["compute", "ep", "--p", "3", "--n", "29", "--k", "1*7^70+28"], capsys)
    assert rc == 2
    assert out == ""
    assert err.strip() == "16 (uncertified: heuristic-window, m in [29, 89], precision=57)"


def test_capacity_exit(capsys):
    rc, _, err = run_cli(["compute", "stirling", "--k", "100001", "--m", "5"], capsys)
    assert rc == 2
    assert "capacity:" in err and "capped at k <= 10000" in err


def test_verify_oversized_grid_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_run", None)  # a sweep that started would fail on it
    rc, out, err = run_cli(["verify", "carry-bound", "--grid", "p=2;alpha=0..9;n=1..1000;r=0..1000;l=0..1"], capsys)
    assert (rc, out) == (2, "")
    assert err == "capacity: grid has 20020000 instances, over the cap of 10000000\n"


def test_verify_stirling_diff_m_past_scan_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_run", None)  # a sweep that started would fail on it
    argv = ["verify", "stirling-diff-bound", "--grid", "p=2;alpha=3;h=1;l=400;m=1600;n=1600"]
    assert run_cli(argv, capsys) == (2, "", "capacity: Stirling scans capped at m <= 1024, got m=1600\n")


def test_verify_oversized_samples_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_run", None)  # a sweep that started would fail on it
    monkeypatch.setattr(verify, "_identity_tasks", None)  # and so would one that drew a sample
    over = verify.SAMPLES_CAP + 1
    rc, out, err = run_cli(["verify", "split-identity", "--samples", str(over)], capsys)
    assert (rc, out) == (2, "")
    assert err == f"capacity: identity sweeps capped at samples <= {verify.SAMPLES_CAP}, got samples={over}\n"


@pytest.mark.parametrize(
    "check, grid",
    [
        ("carry-bound", "p=2;alpha=0;n=1000000;r=0;l=0"),
        ("carry-bound", "p=2;alpha=0;n=1..999999,1000000;r=0;l=0"),
        ("equality-conjecture", "p=2;alpha=1;n=3,1000000;r=0"),
    ],
)
def test_verify_n_over_sum_cap_exits_2(capsys, monkeypatch, check, grid):
    monkeypatch.setattr(verify, "_run", None)  # a sweep that started would fail on it
    rc, out, err = run_cli(["verify", check, "--grid", grid], capsys)
    assert (rc, out) == (2, "")
    assert err == "capacity: grid axis n reaches 1000000, over the residue-class sum cap of 4096\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["compute", "ep", "--p", "3", "--n", "1600", "--k", "1*7^100+5"], "Stirling scans capped at m <= 1024, got m=1660"),
        (["compute", "ep", "--p", "3", "--n", "100000", "--k", "1*7^100+5"], "Stirling scans capped at m <= 1024, got m=100060"),
        (["compute", "stable", "--p", "3", "--n", "100000"], "Stirling scans capped at m <= 1024, got m=100000"),
        (["verify", "factorial-match", "--grid", "n=100000"], "Stirling scans capped at m <= 1024, got m=99999"),
        (["verify", "factorial-match", "--grid", "n=4,100000"], "Stirling scans capped at m <= 1024, got m=99999"),
        (["table", "one", "--to", "100000"], "Stirling scans capped at m <= 1024, got m=100000"),
        (
            ["compute", "ep", "--p", "3", "--n", "29", "--k", "1*7^100+5", "--precision", "100000"],
            "precision capped at 912 for p=3, n=29, got 100000",
        ),
        (["table", "one", "--from", "1025", "--to", "1025", "--with-max"], "Stirling scans capped at m <= 1024, got m=1025"),
        # ord_p(m!) = 0 below p, so an exact scan for p past the cap cannot stop before m = p - 1
        (["compute", "ep", "--p", "1031", "--n", "5", "--k", "5000"], "Stirling scans capped at m <= 1024, got m=1030"),
        (["table", "one", "--with-max", "1025"], "table one capped at k_budget <= 1024, got k_budget=1025"),
        (["table", "one", "--with-max", "1000000000"], "table one capped at k_budget <= 1024, got k_budget=1000000000"),
    ],
)
def test_oversized_stirling_scans_exit_2(argv, want, capsys, monkeypatch):
    def started(values):
        raise AssertionError("a scan read a term")
        yield

    monkeypatch.setattr(stirling, "_diagonal", started)
    assert run_cli(argv, capsys) == (2, "", f"capacity: {want}\n")


def test_table_one_with_max_checks_only_to(capsys, monkeypatch):
    # each exact scan checks SCAN_CAP before its next m, so the up-front check reads --to alone
    family = types.SimpleNamespace(value=7, stable=types.SimpleNamespace(height=9))
    ks = []

    def scan(p, n, k):
        ks.append(k)
        return types.SimpleNamespace(value=5)

    monkeypatch.setattr(su_bounds, "stable_min_ord", lambda p, n: family)
    monkeypatch.setattr(su_bounds, "min_stirling_ord", scan)
    rc, out, err = run_cli(["table", "one", "--from", "1000", "--to", "1000", "--with-max", "--format", "csv"], capsys)
    assert (rc, err) == (0, "") and ks == list(range(1000, 1041))
    assert out.splitlines()[1].startswith("1000,7,")


def test_with_max_takes_an_optional_budget(capsys):
    # K = 0 searches k = n alone, whose one term m = n is n! S(n, n) = n!: a column, not no column
    rc, out, err = run_cli(["table", "one", "--from", "19", "--to", "22", "--with-max", "0", "--format", "json"], capsys)
    rows = json.loads(out)["rows"]
    assert (rc, err) == (0, "") and [r["n"] for r in rows] == list(range(19, 23))
    for r in rows:
        assert (r["max_observed"], r["k_searched"]) == (max(r["stable"], ord_factorial(3, r["n"])), r["n"])
    # a bare --with-max is K = 40
    bare = run_cli(["table", "one", "--from", "19", "--to", "19", "--with-max", "--format", "csv"], capsys)
    assert bare == run_cli(["table", "one", "--from", "19", "--to", "19", "--with-max", "40", "--format", "csv"], capsys)


@pytest.mark.parametrize("m", [1025, 10**9])
def test_oversized_mstirling_exits_2(m, capsys, monkeypatch):
    def built(n):
        raise AssertionError("a binomial row was built")

    monkeypatch.setattr(stirling, "_comb_row", built)
    argv = ["compute", "mstirling", "--k", "1*7^100+5", "--m", str(m), "--p", "3", "--E", "12"]
    assert run_cli(argv, capsys) == (2, "", f"capacity: Stirling scans capped at m <= 1024, got m={m}\n")


def test_delta_n_over_sum_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(polysum, "_comb_row", None)  # a sum that started would fail on it
    rc, out, err = run_cli(["table", "delta", "--n", "3000000", "--from", "1", "--to", "1"], capsys)
    assert (rc, out) == (2, "")
    assert err == "capacity: residue-class sums capped at n <= 4096, got n=3000000\n"


@pytest.mark.parametrize(
    "argv, kernel, want",
    [
        (["table", "delta", "--from", str(BOUND_L_CAP + 1), "--to", str(BOUND_L_CAP + 1)], (IntPolynomial, "monomial"), f"got l={BOUND_L_CAP + 1}"),
        (["table", "delta", "--from", "1000000000", "--to", "1000000000"], (IntPolynomial, "monomial"), "got l=1000000000"),
        (["table", "delta", "--from", "0", "--to", "100000"], (IntPolynomial, "monomial"), "got l=100000"),
        (["compute", "binom", "--n", "20000", "--k", "10000"], (math, "comb"), "got C(20000, 10000)"),
        (["compute", "binom", "--n", "10000000", "--k", "5000000"], (math, "comb"), "got C(10000000, 5000000)"),
        (["verify", "carry-bound", "--grid", "p=2;alpha=0;n=1;r=0;l=0..1025"], (verify, "alt_sums_upto"), "got l=1025"),
        # E = min(4 l, n - 1 + ord_2(30!)) + 2 = 8002
        (["verify", "stirling-diff-bound", "--grid", "p=2;alpha=3;h=1;l=2000;m=60;n=8000"], (verify, "_diagonal"), "got E=8002"),
    ],
)
def test_oversized_delta_and_binom_exit_2(argv, kernel, want, capsys, monkeypatch):
    def started(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(*kernel, started)
    monkeypatch.setattr(verify, "_run", started)  # a sweep task would run through it
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (2, "") and err.startswith("capacity: ") and err.endswith(f", {want}\n")


def test_delta_and_binom_answer_at_their_caps(capsys):
    argv = ["table", "delta", "--from", str(BOUND_L_CAP - 2), "--to", str(BOUND_L_CAP), "--format", "csv"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0 and len(out.splitlines()) == 4 and out.endswith(f"\n{BOUND_L_CAP},9\n")
    # C(14291, 7145) has DIGITS_CAP digits and C(14292, 7146) one more; the exact value decides both
    rc, out, _ = run_cli(["compute", "binom", "--n", "14291", "--k", "7145"], capsys)
    assert rc == 0 and int(out) == math.comb(14291, 7145) and len(out.strip()) == DIGITS_CAP
    over = f"capacity: binomials capped at {DIGITS_CAP} digits, got C(14292, 7146)\n"
    assert run_cli(["compute", "binom", "--n", "14292", "--k", "7146"], capsys) == (2, "", over)


@pytest.mark.parametrize(
    "argv, kernel, want",
    [
        # S(2500, 100) >= 100**2400, past the cap before any band is walked
        (["compute", "stirling", "--k", "2500", "--m", "100"], "stirling_exact", "Stirling numbers capped at 4300 digits, got S(2500, 100)"),
        (["compute", "mstirling", "--k", "1*7^100+5", "--m", "20", "--p", "3", "--E", "10000"], "power_rule", "moduli capped at 4300 digits, got 3^10000"),
        (["compute", "mstirling", "--k", "10", "--m", "4", "--p", "3", "--E", "1000000"], "power_rule", "moduli capped at 4300 digits, got 3^1000000"),
        # S(10000, 9000) has 5071 digits; 9000**1000 promises 3954, the pairings C(10000, 2000) 1999!! 5038
        (["compute", "stirling", "--k", "10000", "--m", "9000"], "stirling_exact", "Stirling numbers capped at 4300 digits, got S(10000, 9000)"),
    ],
)
def test_oversized_printed_integers_exit_2(argv, kernel, want, capsys, monkeypatch):
    def started(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(stirling, kernel, started)
    assert run_cli(argv, capsys) == (2, "", f"capacity: {want}\n")


def test_stirling_digits_estimate_is_a_lower_bound():
    # every S(k, m) with 1 <= m <= k <= 200, and 400 random points with k <= 600
    for k, row in stirling_rows(200, 200):
        for m in range(1, k + 1):
            assert _stirling_log10(k, m) <= math.log10(row[m]) + 1e-9, (k, m)
    rng = random.Random(29)
    for _ in range(400):
        k = rng.randint(1, 600)
        m = rng.randint(1, k)
        assert _stirling_log10(k, m) <= math.log10(stirling_exact(k, m)) + 1e-9, (k, m)


def test_printed_integers_answer_at_the_digits_cap(capsys):
    # S(2228, 100) has 4299 digits and S(2229, 100) 4301, their lower bounds 100**2128 and 100**2129 only 4257
    # and 4259: the exact value decides
    rc, out, err = run_cli(["compute", "stirling", "--k", "2228", "--m", "100"], capsys)
    assert (rc, err, len(out)) == (0, "", 4299 + 1)
    over = f"capacity: Stirling numbers capped at {DIGITS_CAP} digits, got S(2229, 100)\n"
    assert run_cli(["compute", "stirling", "--k", "2229", "--m", "100"], capsys) == (2, "", over)
    # 3**9012 has 4300 digits and 3**9013 has 4301; 4! S(10, 4) = 818520
    argv = ["compute", "mstirling", "--k", "10", "--m", "4", "--p", "3", "--E"]
    assert run_cli(argv + ["9012"], capsys) == (0, "818520 (mod 3^9012)\n", "")
    over = f"capacity: moduli capped at {DIGITS_CAP} digits, got 3^9013\n"
    assert run_cli(argv + ["9013"], capsys) == (2, "", over)
    # mstirling_mod's own argument checks come first
    big = ["--k", "10", "--m", "4", "--p", "4", "--E", "1000000"]
    assert run_cli(["compute", "mstirling", *big], capsys) == (64, "", "error: p must be a prime, got p=4\n")
    big[3] = "-1"
    assert run_cli(["compute", "mstirling", *big], capsys) == (64, "", "error: m must be >= 0, got m=-1\n")


_CHECKS = {
    "polysum-bound": lambda p, alpha, n, r, l: check_polysum_bound(p, alpha, n, r, IntPolynomial.monomial(l)),
    "carry-bound": check_carry_bound,
    "binom-weight-bound": check_binom_weight_bound,
    "plain-sum-bound": check_plain_sum_bound,
    "totient-bound": check_totient_bound,
    "stirling-diff-bound": check_stirling_diff_bound,
    "factorial-match": check_factorial_match,
    "equality-conjecture": check_equality_conjecture,
}


@pytest.mark.parametrize(
    "check, grid, inst, want",
    [
        ("polysum-bound", "p=2,3,1;alpha=0..1;n=1..3;r=0;l=0..2", (1, 0, 1, 0, 0), "p must be >= 2, got 1"),
        ("polysum-bound", "p=2;alpha=0;n=1..3,-1;r=0..2;l=0", (2, 0, -1, 0, 0), "n must be >= 0, got -1"),
        ("carry-bound", "p=2;alpha=0;n=1;r=0;l=0..3,-1", (2, 0, 1, 0, -1), "l must be >= 0, got -1"),
        ("binom-weight-bound", "p=2,3,4;alpha=0;n=1;r=0;l=0", (4, 0, 1, 0, 0), "p must be a prime, got p=4"),
        ("plain-sum-bound", "p=2;alpha=0..2,-1;n=1;r=0", (2, -1, 1, 0), "alpha must be >= 0, got -1"),
        # the value gate comes before the totient bound's own precondition, alpha >= 1
        ("totient-bound", "p=3;alpha=1,-1;n=5;r=0", (3, -1, 5, 0), "alpha must be >= 0, got -1"),
        ("stirling-diff-bound", "p=2,1;alpha=0;h=1;l=1;m=2;n=2", (1, 0, 1, 1, 2, 2), "p must be >= 2, got 1"),
        ("stirling-diff-bound", "p=2;alpha=0,-1;h=1;l=1;m=2;n=2", (2, -1, 1, 1, 2, 2), "alpha must be >= 0, got -1"),
        ("stirling-diff-bound", "p=3;alpha=0;h=1,-1;l=1;m=2;n=2", (3, 0, -1, 1, 2, 2), "h must be >= 0, got -1"),
        ("stirling-diff-bound", "p=2;alpha=0;h=1;l=1,-1;m=2;n=2", (2, 0, 1, -1, 2, 2), "l must be >= 0, got -1"),
        ("stirling-diff-bound", "p=2;alpha=0;h=1;l=0..2;m=0..3,-1;n=2", (2, 0, 1, 0, -1, 2), "m must be >= 0, got -1"),
        ("stirling-diff-bound", "p=2;alpha=0;h=1;l=1;m=2;n=2,0", (2, 0, 1, 1, 2, 0), "n must be >= 1, got 0"),
        ("factorial-match", "n=4,6,8,2", (2,), "n must be even and >= 4, got 2"),
        ("factorial-match", "n=4,6,7", (7,), "n must be even and >= 4, got 7"),
        ("equality-conjecture", "p=2,3;alpha=1..2,0;n=5;r=0..3", (2, 0, 5, 0), "alpha must be >= 1, got 0"),
        ("equality-conjecture", "p=3,4;alpha=1;n=5;r=0", (4, 1, 5, 0), "p must be a prime, got p=4"),
        ("equality-conjecture", "p=3,1;alpha=1;n=5;r=0", (1, 1, 5, 0), "p must be >= 2, got 1"),
    ],
)
def test_value_gate_refuses_a_grid_before_any_task(check, grid, inst, want, capsys, monkeypatch):
    # the bad value is the last of its axis, in the last block; the one-instance check raises the same error
    def started(*args):
        raise AssertionError("a sweep task ran")

    monkeypatch.setattr(verify, "_run", started)
    assert run_cli(["verify", check, "--grid", grid], capsys) == (64, "", f"error: {want}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        sweep(check, grid=default_grid(check)[:1] + [parse_grid(grid)])
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        _CHECKS[check](*inst)


def test_usage_errors_exit_64(capsys):
    assert run_cli(["compute", "ord", "--p", "4", "--x", "8"], capsys)[0] == 64
    assert run_cli(["compute", "ep", "--p", "3", "--n", "29", "--k", "35", "--retries", "4"], capsys)[0] == 64
    assert run_cli(["compute", "ep", "--p", "3", "--n", "29", "--k", "junk"], capsys)[0] == 64
    assert run_cli(["compute", "ep", "--p", "3", "--n", "29", "--k", "2*3^L+28", "--L", "5"], capsys)[0] == 64
    assert run_cli(["compute", "mstirling", "--k", "2*3^L+28", "--L", "5", "--m", "3", "--p", "3", "--E", "4"], capsys)[0] == 64
    assert run_cli(["table", "delta", "--from", "30", "--to", "30", "--baseline", "22"], capsys)[0] == 64
    assert run_cli(["compute", "stable", "--p", "3", "--n", "29", "--d", "28"], capsys)[0] == 64
    assert run_cli(["verify", "nonsense"], capsys)[0] == 64
    assert run_cli(["verify", "carry-bound", "--grid", "p=2..1"], capsys)[0] == 64
    assert run_cli(["nope"], capsys)[0] == 64
    # removed spellings: compute delta is table delta --from L --to L, and --k-budget is --with-max K
    assert run_cli(["compute", "delta", "--l", "30"], capsys)[0] == 64
    assert run_cli(["table", "one", "--k-budget", "40"], capsys)[0] == 64


def test_package_reads_no_environment_variable():
    # a setting has one spelling, its option; an environment read would be a second
    reads = []
    for path in sorted(Path(polysum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) and node.module == "os" else []
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                names = [node.attr]
            reads += [f"{path.name}:{node.lineno} os.{name}" for name in names if name.startswith(("environ", "getenv"))]
    assert reads == []


def test_cli_has_forty_five_options():
    # every flag of every subcommand, -h aside: a new knob must change this count on purpose
    def flags(parser):
        count = 0
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                count += sum(map(flags, action.choices.values()))
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                count += 1
        return count

    assert flags(build_parser()) == 45


def test_table_one_csv(capsys):
    rc, out, _ = run_cli(["table", "one", "--from", "19", "--to", "23", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,stable,bound"
    assert lines[1] == "19,20,20"
    assert lines[4] == "22,25,23"


def test_table_one_json_schema(capsys):
    rc, out, _ = run_cli(["table", "one", "--from", "19", "--to", "20", "--format", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1


def test_table_one_golden_clean_range(capsys):
    rc, _, err = run_cli(["table", "one", "--from", "19", "--to", "27", "--golden"], capsys)
    assert rc == 0 and "mismatch" not in err


def test_table_one_golden_full_range_reports_known_mismatch(capsys):
    rc, _, err = run_cli(["table", "one", "--from", "19", "--to", "41", "--golden"], capsys)
    assert rc == 1
    assert "golden mismatch: n=28 stable: computed 31, reference 32" in err


def test_table_one_golden_out_of_range(capsys):
    rc, _, err = run_cli(["table", "one", "--from", "10", "--to", "20", "--golden"], capsys)
    assert rc == 64 and "--golden covers n in [19, 41]" in err


def test_table_two_golden(capsys):
    rc, out, _ = run_cli(["table", "two", "--golden"], capsys)
    assert rc == 0
    rc, out, _ = run_cli(["table", "two", "--format", "csv"], capsys)
    assert out.splitlines()[0].startswith("n_mod_9,")
    assert out.splitlines()[1] == "0,0,2,2,1,2,2,1,2,2"


def test_delta_is_the_polysum_bound_slack(capsys):
    argv = ["table", "delta", "--p", "3", "--alpha", "1", "--n", "50", "--from", "3", "--to", "3", "--format", "csv"]
    assert run_cli(argv, capsys) == (0, "l,delta\n3,15\n", "")
    argv = ["table", "delta", "--p", "3", "--alpha", "1", "--n", "50", "--from", "0", "--to", "5", "--format", "json"]
    rc, out, _ = run_cli(argv, capsys)
    want = [{"l": l, "delta": check_polysum_bound(3, 1, 50, 0, IntPolynomial.monomial(l)).slack} for l in range(6)]
    assert rc == 0 and json.loads(out)["values"] == want


def test_table_delta_golden(capsys):
    rc, _, err = run_cli(["table", "delta", "--golden"], capsys)
    assert rc == 0
    rc, _, err = run_cli(["table", "delta", "--golden", "--p", "3"], capsys)
    assert rc == 64 and "--golden covers" in err


def test_verify_json_report(capsys):
    rc, out, err = run_cli(
        ["verify", "carry-bound", "--grid", "p=3;alpha=1;n=1..10;r=0..2;l=0..2",
         "--format", "json"],
        capsys,
    )
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["check"] == "carry-bound"
    assert data["checked"] == 90 and data["violations"] == []
    assert "wall time:" in err


def test_verify_markdown_default(capsys):
    rc, out, _ = run_cli(
        ["verify", "polysum-bound", "--grid", "p=2;alpha=0..1;n=1..10;r=0..1;l=0..1"],
        capsys,
    )
    assert rc == 0
    assert "polysum-bound" in out and "violations: 0" in out


def test_verify_identity_rejects_grid(capsys):
    rc, out, err = run_cli(["verify", "floor-identity", "--grid", "p=2"], capsys)
    assert (rc, out) == (64, "")
    assert err == "error: floor-identity is randomized; use --samples and --seed instead of --grid\n"


def test_verify_identity_samples(capsys):
    rc, out, _ = run_cli(
        ["verify", "floor-identity", "--samples", "200", "--seed", "3", "--format", "json"],
        capsys,
    )
    assert rc == 0
    data = json.loads(out)
    assert data["checked"] == 200 and data["held"] == 200


def test_verify_jobs_do_not_change_output(capsys):
    argv = ["verify", "binom-weight-bound", "--grid",
            "p=2,3;alpha=0..2;n=1..20;r=-2..3;l=0..3", "--format", "json"]
    rc1, out1, _ = run_cli(argv + ["--jobs", "1"], capsys)
    rc2, out2, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_ignores_a_jobs_environment_variable(capsys, monkeypatch):
    argv = ["verify", "carry-bound", "--grid", "p=2;alpha=1;n=1..10;r=0..1;l=0..1", "--format", "json"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0 and json.loads(out)["checked"] == 40
    monkeypatch.setenv("PADICSUMS_JOBS", "0")
    assert run_cli(argv, capsys)[:2] == (0, out)


def _no_task(task):
    raise AssertionError("a sweep task ran")


def test_verify_jobs_over_the_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)  # a pool that started would fail on it
    monkeypatch.setattr(verify, "_eval_task", _no_task)
    cap, over = verify.JOBS_CAP, str(verify.JOBS_CAP + 1)
    argv = ["verify", "carry-bound", "--grid", "p=2;alpha=1;n=1..10;r=0..1;l=0..1"]
    assert run_cli(argv + ["--jobs", over], capsys) == (2, "", f"capacity: jobs must be <= {cap}, got {over}\n")


@pytest.mark.parametrize("value", ["0", "-2"])
def test_verify_jobs_below_one_is_refused(value, capsys, monkeypatch):
    monkeypatch.setattr(verify, "_eval_task", _no_task)
    argv = ["verify", "carry-bound", "--grid", "p=2;alpha=1;n=1..10;r=0..1;l=0..1"]
    rc, out, err = run_cli(argv + ["--jobs", value], capsys)
    assert (rc, out, err) == (64, "", f"error: jobs must be >= 1, got {value}\n")


def test_verify_strict_flag_accepted(capsys):
    rc, _, _ = run_cli(
        ["verify", "equality-conjecture", "--grid", "p=3;alpha=1;n=5..15;r=0..3", "--strict"],
        capsys,
    )
    assert rc == 0


def test_readme_commands_parse(capsys):
    # every `padicsums ...` line of README's sh blocks, so a deleted flag cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("padicsums ")]
    assert len(lines) >= 20
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")


def test_one_parser_per_process_gives_fresh_process_bytes(capsys, monkeypatch):
    # the shared parser answers a usage error, a command and --help in one process as fresh processes do
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys; sys.path.insert(0, sys.argv[1]); from padicsums.cli import main; sys.exit(main(sys.argv[2:]))"
    argvs = [
        ["compute", "ord", "--p", "3"],
        ["compute", "ord", "--p", "3", "--x", "162"],
        ["--help"],
        ["verify", "--help"],
        ["verify", "nope"],
        ["verify", "factorial-match"],  # twice: verify adds its check positional on its first parse only
        ["verify", "factorial-match"],
        ["compute", "ep", "--help"],
        ["compute", "ep", "--p", "3", "--n", "29", "--k", "163", "--window", "-1"],
    ]
    shared = [run_cli(argv, capsys) for argv in argvs]
    fresh = [subprocess.run([sys.executable, "-c", code, src, *argv], capture_output=True, text=True) for argv in argvs]
    assert [rc for rc, *_ in shared] == [64, 0, 0, 0, 64, 0, 0, 0, 64] and shared[1][1] == "4\n"

    def timeless(rc, out, err):  # verify's wall time line differs from run to run
        return rc, out, re.sub(r"(?m)^wall time: .*\n", "", err)

    assert [timeless(*r) for r in shared] == [timeless(cp.returncode, cp.stdout, cp.stderr) for cp in fresh]


def test_readme_family_examples_print_what_readme_shows(capsys):
    # every README line followed by `# -> <its stdout>` prints exactly that
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = [(line, lines[i + 1]) for i, line in enumerate(lines[:-1]) if lines[i + 1].startswith("# -> ")]
    assert len(examples) == 3
    for line, shown in examples:
        assert run_cli(shlex.split(line)[1:], capsys) == (0, shown[len("# -> "):] + "\n", ""), line


@pytest.mark.skipif(
    shutil.which("padicsums") is None,
    reason="padicsums console script not on PATH; run pip install -e . --no-build-isolation",
)
def test_console_script_installed():
    exe = shutil.which("padicsums")
    assert exe, "padicsums entry point not on PATH"
    cp = subprocess.run([exe, "compute", "ord", "--p", "3", "--x", "162"],
                        capture_output=True, text=True)
    assert cp.returncode == 0 and cp.stdout.strip() == "4"
    cp = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert cp.returncode == 0 and "compute" in cp.stdout


def test_console_script_entry_point_resolves(capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["padicsums"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    rc, out, _ = run_cli(["compute", "ord", "--p", "3", "--x", "162"], capsys, entry)
    assert rc == 0 and out.strip() == "4"
    rc, out, _ = run_cli(["--help"], capsys, entry)
    assert rc == 0 and "compute" in out
