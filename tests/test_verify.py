"""Check functions, grids, and sweep reports."""

import collections
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from concurrent.futures import Future

import pytest

from padicsums import (
    CHECK_NAMES,
    CapacityError,
    CheckOutcome,
    GridError,
    IntPolynomial,
    SweepReport,
    bound_sweep,
    carries,
    check_binom_weight_bound,
    check_carry_bound,
    check_equality_conjecture,
    check_factorial_match,
    check_plain_sum_bound,
    check_polysum_bound,
    check_stirling_diff_bound,
    check_totient_bound,
    default_grid,
    identity_sweep,
    ord_factorial,
    ord_int,
    parse_grid,
    stirling_rows,
    sweep,
)
from padicsums import verify
from padicsums.polysum import ONE, SUM_CAP
from padicsums.verify import BOUND_CHECKS, conjecture_modulus


def test_polysum_bound_tight_instance():
    oc = check_polysum_bound(2, 2, 100, 0, IntPolynomial.monomial(25))
    assert oc.lhs_ord == 22 and oc.lhs_exact
    assert oc.bound == 22
    assert oc.slack == 0 and oc.holds is True
    assert oc.instance_str() == "p=2 alpha=2 n=100 r=0 f=x^25"
    assert oc.lhs_str() == "22"


def test_polysum_bound_infinite_sum_holds():
    # the class is empty above n, so the sum vanishes identically
    oc = check_polysum_bound(3, 2, 5, 7, IntPolynomial.monomial(1))
    assert oc.lhs_ord is None and oc.holds is True
    assert oc.lhs_str() == "inf"


def test_carry_bound_adds_carry_count():
    oc = check_carry_bound(3, 2, 9, 1, 0)
    assert (oc.lhs_ord, oc.bound, oc.slack, oc.holds) == (2, 2, 0, True)
    assert oc.note == "tau=2"


def test_carry_bound_exceeds_plain_bound_by_tau():
    rng = random.Random(151)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        alpha = rng.randint(0, 3)
        m = p**alpha
        n = rng.randint(1, 120)
        r = rng.randint(-10, 2 * m)
        l = rng.randint(0, 6)
        a = check_carry_bound(p, alpha, n, r, l)
        b = check_polysum_bound(p, alpha, n, r, IntPolynomial.monomial(l))
        tau = carries(p, r % m, (n - r) % m)
        assert a.bound - b.bound == tau
        assert 0 <= tau <= alpha


def test_binom_weight_bound_examples():
    oc = check_binom_weight_bound(3, 1, 27, 2, 4)
    assert (oc.lhs_ord, oc.bound, oc.slack, oc.holds) == (8, 3, 5, True)
    # the weight can push the bound negative; the check still holds
    oc2 = check_binom_weight_bound(3, 0, 5, 1, 9)
    assert oc2.bound == -3 and oc2.holds is True


def test_binom_weight_bound_degenerates_to_polysum_at_weight_zero():
    a = check_binom_weight_bound(2, 2, 40, -3, 0)
    b = check_polysum_bound(2, 2, 40, -3, ONE)
    assert (a.lhs_ord, a.bound) == (b.lhs_ord, b.bound)


def test_plain_sum_bound_values():
    oc = check_plain_sum_bound(3, 2, 40, 5)
    assert (oc.lhs_ord, oc.bound, oc.holds) == (6, 5, True)
    # alpha = 0 sums over every k and vanishes for n >= 1
    oc0 = check_plain_sum_bound(3, 0, 12, 1)
    assert oc0.lhs_ord is None and oc0.holds is True
    assert oc0.bound == ord_factorial(3, 36)


def test_plain_sum_bound_chain_identity():
    # the two ways of expressing the bound agree on a dense grid
    for p in (2, 3, 5):
        for alpha in range(1, 7):
            m = p**alpha
            for n in range(0, 5001, 7):
                lhs = ord_factorial(p, n // p ** (alpha - 1))
                rhs = n // m + ord_factorial(p, n // m)
                assert lhs == rhs, (p, alpha, n)


def test_totient_bound_examples():
    oc = check_totient_bound(3, 2, 40, 5)
    assert (oc.lhs_ord, oc.bound, oc.slack, oc.holds) == (6, 6, 0, True)
    assert check_totient_bound(3, 2, 3, 1).bound == 0
    with pytest.raises(ValueError, match="alpha must be >= 1"):
        check_totient_bound(3, 0, 10, 1)
    with pytest.raises(ValueError, match="n must be >="):
        check_totient_bound(3, 2, 2, 1)


def test_totient_bound_dominates_plain_bound():
    rng = random.Random(157)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        alpha = rng.randint(1, 3)
        n = rng.randint(p ** (alpha - 1), 300)
        r = rng.randint(-5, 5)
        t = check_totient_bound(p, alpha, n, r)
        s = check_plain_sum_bound(p, alpha, n, r)
        assert t.bound >= s.bound, (p, alpha, n)


def test_stirling_diff_bound_examples():
    oc = check_stirling_diff_bound(3, 1, 1, 1, 29, 29)
    assert oc.lhs_str() == ">=4" and not oc.lhs_exact
    assert oc.bound == 2 and oc.holds is True
    oc2 = check_stirling_diff_bound(2, 2, 1, 2, 12, 10)
    assert (oc2.lhs_ord, oc2.bound, oc2.holds) == (8, 6, True)
    oc3 = check_stirling_diff_bound(3, 1, 1, 0, 30, 29)
    assert oc3.bound == 0 and oc3.holds is True


def test_stirling_diff_factorial_cut_matches_exact_sums():
    # Instances with ord_p(m!) at bound+1, bound+2 and bound+3, on both sides
    # of the cut that reads no table once ord_p(m!) >= bound+2, against
    # sum C(l,k)(-1)^k m! S(e_k, m) computed exactly from stirling_rows.
    cases = []
    for p, alpha, h, l, n, m in itertools.product((2, 3), range(3), (0, 1, 2), range(6), range(1, 5), range(12)):
        bound = min(l * (alpha + 1), n - 1 + ord_factorial(p, m // p))
        if ord_factorial(p, m) - bound in (1, 2, 3):
            cases.append((p, alpha, h, l, m, n))
    exps = {c: [k * c[2] * (c[0] - 1) * c[0] ** c[1] + c[5] - 1 for k in range(c[3] + 1)] for c in cases}
    need = {e for es in exps.values() for e in es}
    rows = {e: row for e, row in stirling_rows(max(need), 11) if e in need}
    offsets, tight = set(), 0
    for (p, alpha, h, l, m, n), es in exps.items():
        s = sum(math.comb(l, k) * (-1) ** k * math.factorial(m) * (rows[e][m] if m <= e else 0)
                for k, e in enumerate(es))
        v = ord_int(p, s)
        oc = check_stirling_diff_bound(p, alpha, h, l, m, n)
        E = oc.bound + 2
        offsets.add((p, alpha, ord_factorial(p, m) - oc.bound))
        tight += v == oc.bound + 1 == ord_factorial(p, m)
        if v is None or v >= E:
            want = (E, False, None, True)
        else:
            want = (v, True, v - oc.bound, v >= oc.bound)
        assert (oc.lhs_ord, oc.lhs_exact, oc.slack, oc.holds) == want, (p, alpha, h, l, m, n)
    assert offsets == set(itertools.product((2, 3), range(3), (1, 2, 3)))
    assert tight > 0  # some sum has order exactly ord_p(m!) = bound + 1, one below the cut


def _stirling_diff_draws(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield (rng.choice((2, 3, 5, 7)), rng.choice((0, 1, 2, 3, 70)), rng.randint(0, 3),
               rng.randint(0, 12), rng.randint(0, 80), rng.randint(1, 40))


def test_stirling_diff_outcomes_pinned():
    # 3000 seeded instances, recorded before the l-fold difference was read
    # off one table per l.  alpha = 70 is a tower that cannot be materialized.
    ocs = [check_stirling_diff_bound(*c) for c in _stirling_diff_draws(3000, 14)]
    digest = hashlib.sha256("\n".join(json.dumps(oc.to_dict()) for oc in ocs).encode()).hexdigest()
    assert digest == "703923d40218cd7653cca819e899290f8f39a21ce13a8f566ce48071515c3d62"
    insts = [dict(oc.instance) for oc in ocs if oc.lhs_exact]
    assert len(insts) == 698
    for covered in (lambda d: d["h"] == 0, lambda d: d["n"] == 1, lambda d: d["m"] < d["n"], lambda d: d["alpha"] == 70):
        assert any(map(covered, insts))


def test_stirling_diff_floor_is_the_only_inexact_outcome():
    # A floor reads the sum modulo p**(bound+2) only, so it reports lhs_ord =
    # bound + 2 with lhs_exact False, and it holds: no verdict is left open.
    ocs = [check_stirling_diff_bound(*c) for c in _stirling_diff_draws(600, 15)]
    floors = [oc for oc in ocs if not oc.lhs_exact]
    assert all((oc.lhs_ord, oc.slack, oc.holds) == (oc.bound + 2, None, True) for oc in floors)
    assert all(oc.holds is True for oc in ocs)
    # both kinds occur: ord_p(m!) >= bound + 2, read without a table, and a table whose residue vanished
    kinds = {ord_factorial(d["p"], d["m"]) >= oc.bound + 2 for oc in floors for d in [dict(oc.instance)]}
    assert kinds == {True, False}


@pytest.mark.parametrize(
    "inst, want",
    [
        ((3, 1, 1, 100, 29, 20), (24, True, 23, 1)),
        ((2, 70, 3, 200, 29, 20), (31, True, 30, 1)),
        ((2, 3, 1, 256, 1024, 1024), (1026, False, 1024, None)),
    ],
)
def test_stirling_diff_large_l_pinned(inst, want):
    oc = check_stirling_diff_bound(*inst)
    assert (oc.lhs_ord, oc.lhs_exact, oc.bound, oc.slack) == want and oc.holds


def test_stirling_diff_block_pairs_pinned():
    # Every (order, bound) of a grid whose blocks have several live l, recorded
    # before the residue-class sums became dot products, with order None for
    # a floor.  A kernel that reads a block's instances from one l's table
    # changes it; the sweep's counts and slack extremes do not see that.
    pairs, several = [], 0
    for p, alpha, h, n in itertools.product((2, 3), range(3), (1, 2), range(2, 13)):
        ls, ms = range(6), range(n, n + 13)
        axis = verify._m_axis(p, ms)
        (live,) = verify._stirling_diff_block(p, n, [(alpha, h)], ls, axis)
        found = {(i, j): (o, b) for i, j, o, b in live}
        bounds = [min(l * (alpha + 1), n - 1 + ord_factorial(p, m // p)) for l in ls for m in ms]
        block = [found.get((i, j), (None, b)) for (i, j), b in zip(itertools.product(range(6), range(13)), bounds)]
        assert [b for _, b in block] == bounds
        pairs += block
        several += len({i for i, _ in found}) >= 3
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == (
        "f6b7efeaf06e247fa9d79d50f07fde6e4a46f60ccb2cbaa14ef982ce19609a2f"
    )
    assert (len(pairs), sum(o is not None for o, _ in pairs), several) == (10296, 2185, 82)


def test_stirling_diff_l_axis_builds_one_table_per_l(monkeypatch):
    # The l-fold difference is the m-th difference of j^(n-1) (1 - j^H)^l,
    # so a block reads one table per live l, however large l is.
    real, built = verify._diagonal, []

    def counted(values):
        built.append(1)
        return real(values)

    monkeypatch.setattr(verify, "_diagonal", counted)
    oc = check_stirling_diff_bound(2, 3, 1, 256, 1024, 1024)
    assert (oc.lhs_ord, oc.lhs_exact, oc.bound, oc.holds, len(built)) == (1026, False, 1024, True, 1)
    rep = sweep("stirling-diff-bound", grid="p=2;alpha=3;h=1;l=256;m=1024;n=1024")
    assert (rep.checked, rep.held, len(built)) == (1, 1, 2)
    # six live l, four m each: one table per l, shared by its m
    built.clear()
    rep = sweep("stirling-diff-bound", grid="p=3;alpha=1;h=1;l=1..6;m=2,5,8,11;n=10")
    assert (rep.checked, rep.held, len(built)) == (24, 24, 6)
    # and each (l, m) of the block reads its own l's table, as a one-instance block does
    ls, ms = range(1, 7), (2, 5, 8, 11)
    axis = verify._m_axis(3, ms)
    (live,) = verify._stirling_diff_block(3, 10, [(1, 1)], ls, axis)
    found = {(ls[i], ms[j]): o for i, j, o, _ in live}
    ocs = {(l, m): check_stirling_diff_bound(3, 1, 1, l, m, 10) for l in ls for m in ms}
    assert found == {lm: oc.lhs_ord for lm, oc in ocs.items() if oc.lhs_exact}
    assert set(found.values()) == {2, 4, 6, 7, 8, 9, 10} and len(found) < len(ocs)


def test_stirling_diff_kernel_builds_one_row_per_p_n(monkeypatch):
    # The kernel builds one j^(n-1) row per (p, n) with a live instance, as
    # long as the largest live m + 1 and modulo p**(largest live bound + 2),
    # and one 1 - j^H row per live (alpha, h) block.
    real, rows = verify._powers, []

    def spy(k, p, E):
        rows.append(row := [p, k, E, 0])  # the last item counts the powers read
        for x in real(k, p, E):
            row[3] += 1
            yield x

    monkeypatch.setattr(verify, "_powers", spy)
    sweep("stirling-diff-bound")
    heads = {(p, k + 1): (E, size) for p, k, E, size in rows if isinstance(k, int)}
    live = collections.defaultdict(list)  # (p, n) -> (m, bound) of each live instance of the default grid
    for block in verify.default_grid("stirling-diff-bound"):
        for p, alpha, l, m, n in itertools.product(*(block[a] for a in ("p", "alpha", "l", "m", "n"))):
            if m // p <= n and ord_factorial(p, m) < l * (alpha + 1) + 2:
                live[p, n].append((m, min(l * (alpha + 1), n - 1 + ord_factorial(p, m // p))))
    assert heads == {pn: (max(b for _, b in v) + 2, max(m for m, _ in v) + 1) for pn, v in live.items()}
    assert len(rows) - len(heads) == 238 and [p for p, _ in heads].count(2) == 14 and len(heads) == 42


def test_factorial_match_examples():
    oc = check_factorial_match(4)
    assert (oc.lhs_ord, oc.bound, oc.holds) == (1, 1, True)
    oc6 = check_factorial_match(6)
    assert (oc6.lhs_ord, oc6.bound, oc6.holds) == (3, 3, True)
    assert oc6.note == "witness m=5"
    assert dict(oc6.instance)["n"] == 6
    for bad in (2, 3, 7):
        with pytest.raises(ValueError, match="even"):
            check_factorial_match(bad)


def test_equality_conjecture_instance():
    oc = check_equality_conjecture(3, 1, 8, 0)
    assert (oc.lhs_ord, oc.bound, oc.slack, oc.holds) == (0, 0, 0, True)
    assert dict(oc.instance)["l"] == 2
    assert oc.note == "boundary modulus (e=0)"


def test_equality_conjecture_modulus_and_target():
    assert conjecture_modulus(3, 1, 8) == (2, 0)
    assert conjecture_modulus(3, 1, 27) == (18, 2)
    assert conjecture_modulus(2, 2, 100) == (16, 4)
    # with no l given, the check takes the smallest admissible l
    assert dict(check_equality_conjecture(2, 2, 100, 0).instance)["l"] == 25
    assert dict(check_equality_conjecture(3, 1, 20, 1).instance)["l"] == 6


def test_equality_conjecture_skip_markers():
    assert check_equality_conjecture(3, 1, 4, 0).skipped
    assert "n >= 5" in check_equality_conjecture(3, 1, 4, 0).note
    small_l = check_equality_conjecture(3, 1, 20, 1, l=3)
    assert small_l.skipped and "l >= 6" in small_l.note
    wrong_class = check_equality_conjecture(3, 1, 20, 1, l=7)
    assert wrong_class.skipped and "(mod 6)" in wrong_class.note
    # any admissible height in the right class is exact
    for l in (6, 12):
        oc = check_equality_conjecture(3, 1, 20, 1, l=l)
        assert not oc.skipped and oc.slack == 0 and oc.holds is True


def _equality_draws(count, seed):
    """(p, alpha, n, r, l): l mostly admissible and often above the smallest, else any l near it."""
    rng = random.Random(seed)
    for _ in range(count):
        p, alpha = rng.choice((2, 3, 5)), rng.choice((1, 2))
        m = p**alpha
        n = rng.randint(2 * m - 1, 2 * m + 60)
        r = rng.randint(-3, n + 3)
        mod, _ = conjecture_modulus(p, alpha, n)
        lo = n // m
        target = (r // m + (n - r) // m) % mod
        smallest = lo + (target - lo) % mod
        if rng.random() < 0.8:
            l = smallest + mod * rng.randint(0, 3)
        else:
            l = rng.randint(max(0, lo - 3), smallest + 2 * mod)
        yield p, alpha, n, r, l


def test_equality_conjecture_explicit_l_pinned():
    # 200 outcomes recorded before the sums became dot products: 37 miss a
    # precondition on l, and 108 are checked at an l above the smallest.
    draws = list(_equality_draws(200, 15))
    ocs = [check_equality_conjecture(*d) for d in draws]
    digest = hashlib.sha256("\n".join(json.dumps(oc.to_dict()) for oc in ocs).encode()).hexdigest()
    assert digest == "b439b1029e9e4d1a80ec1b409627f8aac88111654519b723352b5f17c8d51f22"
    above = [d for d, oc in zip(draws, ocs) if not oc.skipped and d[4] != dict(check_equality_conjecture(*d[:4]).instance)["l"]]
    assert (sum(oc.skipped for oc in ocs), len(above)) == (37, 108)


def test_equality_conjecture_grid_pinned():
    # n from 1 (skipped below 2p^alpha - 1), r from -3 to 43 (past n), recorded
    # before the sums became dot products.  The conjecture holds on every
    # checked instance, so no sum vanishes and nothing is violated.
    rep = sweep("equality-conjecture", "p=2,3,5; alpha=1,2; n=1..40; r=-3..43")
    assert (rep.checked, rep.held, rep.skipped, rep.flagged) == (7708, 7708, 3572, 1504)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
        "59be4042968f621baceffaef41832c2d5fe167b41ae1d63404080bbd61e85f8b"
    )


def test_equality_block_sums_term_by_term(monkeypatch):
    # r far apart read tables of their own, each of at most 2 floor(n/m) + 1
    # powers; explicit l above the smallest too
    real, sizes = verify.class_sums, []

    def recorded(n, rs, m, w):
        sizes.append((n - min(rs)) // m + max(rs) // m + 1)  # the x class_sums tabulates w at
        return real(n, rs, m, w)

    monkeypatch.setattr(verify, "class_sums", recorded)
    rls = [(r, None) for r in (-10**6, -3, 0, 5, 12, 23, 10**6)] + [(1, 12), (1, 18), (1, 7)]
    boundary, rows = verify._equality_block(3, 1, 20, rls)
    assert not boundary and rows[-1] == "precondition: l = 0 (mod 6)"
    assert 0 < max(sizes) <= 13
    for (r, _), (l, v, bound) in zip(rls, rows[:-1]):
        s = sum((-1) ** k * math.comb(20, k) * ((k - r) // 3) ** l for k in range(r % 3, 21, 3))
        assert (v, bound) == (ord_int(3, s), ord_factorial(3, 6) + carries(3, r % 3, (20 - r) % 3)), r


def test_equality_conjecture_refuses_n_over_the_cap_before_any_table():
    # n = 10^6 at p = 2 needs l >= 500000: a table of such powers would take
    # gigabytes, so the cap must come first.  The peak is checked after each n,
    # so a table built before the cap fails at SUM_CAP + 1 (a few MB) and the
    # larger n never run.  A missed precondition on l is still a skipped outcome.
    tracemalloc.start()
    try:
        for n in (SUM_CAP + 1, 10**6, 10**30):
            with pytest.raises(CapacityError, match=f"capped at n <= {SUM_CAP}, got n={n}"):
                check_equality_conjecture(2, 1, n, 0)
            assert tracemalloc.get_traced_memory()[1] < 2**20, n
        skipped = check_equality_conjecture(2, 1, 10**6, 0, 0)
    finally:
        tracemalloc.stop()
    assert skipped.skipped and skipped.note == "precondition: l >= 500000"


@pytest.mark.parametrize("patch", ["bound", "vanished"])
def test_equality_sweep_violations_match_single_checks(patch, monkeypatch):
    # The conjecture holds on every grid tried, so a raised bound or vanished
    # sums stand in for violations: the sweep builds exactly the outcomes the
    # one-instance check gives, in grid order.
    if patch == "bound":
        real = verify.class_bound
        monkeypatch.setattr(verify, "class_bound", lambda p, alpha, n: real(p, alpha, n) + 1)
    else:
        monkeypatch.setattr(verify, "class_sums", lambda n, rs, m, w: [0] * len(rs))
    rep = sweep("equality-conjecture", "p=2,3;alpha=1;n=2..9;r=-1..10")
    want = [check_equality_conjecture(p, 1, n, r) for p in (2, 3) for n in range(2, 10) for r in range(-1, 11)]
    want = [o for o in want if not o.skipped]
    assert rep.violations == want and rep.held == 0 and rep.flagged == sum(o.note != "" for o in want)
    assert rep.slack == ({"p=2,alpha=1": (-1, -1), "p=3,alpha=1": (-1, -1)} if patch == "bound" else {})
    assert (rep.exit_code(), rep.exit_code(strict=True)) == (0, 1)


def test_outcome_serialization():
    oc = check_polysum_bound(2, 1, 10, 0, IntPolynomial.monomial(1))
    d = oc.to_dict()
    assert set(d) == {
        "check", "instance", "lhs_ord", "lhs_exact", "bound",
        "slack", "holds", "skipped", "note",
    }
    json.dumps(d)


def test_parse_grid():
    g = parse_grid("p=2,3 ; alpha=0..2; n = 1..5")
    assert g == {"p": [2, 3], "alpha": [0, 1, 2], "n": [1, 2, 3, 4, 5]}
    assert parse_grid("p=7")["p"] == [7]
    with pytest.raises(GridError, match="duplicate grid axis"):
        parse_grid("p=2;p=3")
    with pytest.raises(GridError, match="expected name=values"):
        parse_grid("p=")
    with pytest.raises(GridError, match="empty range"):
        parse_grid("p=2..1")
    with pytest.raises(GridError, match="empty grid"):
        parse_grid("")
    with pytest.raises(GridError, match="bad value"):
        parse_grid("p=two")


def test_parse_grid_refuses_oversized_grid_before_expanding(monkeypatch):
    # The instance count is the product of the axis lengths, checked against
    # GRID_CAP before any axis is expanded or any sweep work starts.
    assert verify.GRID_CAP == 10**7
    g = parse_grid("a=1..10;b=1..1000;c=1..1000")
    assert [len(v) for v in g.values()] == [10, 1000, 1000]
    with pytest.raises(CapacityError, match="grid has 10000001 instances, over the cap of 10000000"):
        parse_grid("a=1..11;b=1..909091")
    with pytest.raises(CapacityError, match="grid has 1000000000 instances"):
        parse_grid("p=2;alpha=0;n=1..1000000000;r=0;l=0")

    def no_work(*args):
        raise AssertionError("sweep work started for an oversized grid")

    monkeypatch.setattr(verify, "_run", no_work)
    with pytest.raises(CapacityError):
        sweep("carry-bound", grid="p=2;alpha=0..9;n=1..1000;r=0..1000;l=0..1")
    with pytest.raises(CapacityError):
        sweep("stirling-diff-bound", grid="p=2;alpha=0..9;h=1..10;l=0..100;m=1..1000;n=1..10")


def test_stirling_diff_bound_refuses_m_past_the_scan_cap(monkeypatch):
    def built(*args):
        raise AssertionError("a difference table was built or a sweep task ran")

    monkeypatch.setattr(verify, "_diagonal", built)
    monkeypatch.setattr(verify, "_run", built)
    want = r"^Stirling scans capped at m <= 1024, got m=1600$"
    with pytest.raises(CapacityError, match=want):
        check_stirling_diff_bound(2, 3, 1, 400, 1600, 1600)
    with pytest.raises(CapacityError, match=want):
        sweep("stirling-diff-bound", grid="p=2;alpha=3;h=1;l=400;m=1600;n=1600")
    with pytest.raises(CapacityError, match=r"got m=1025$"):
        sweep("stirling-diff-bound", grid="p=2;alpha=0;h=1;l=1;m=2,1025;n=2")
    # m = SCAN_CAP is read; ord_2(1024!) = 1023 makes this instance a floor without a table
    oc = check_stirling_diff_bound(2, 0, 1, 1, 1024, 2)
    assert (oc.lhs_ord, oc.lhs_exact, oc.bound) == (3, False, 1)


def test_stirling_diff_bound_refuses_precision_past_its_cap(monkeypatch):
    # E = bound + 2 with bound = min(4 l, n - 1 + ord_2(floor(m/2)!)); m = 2 keeps the table at three values
    assert verify.DIFF_PRECISION_CAP == 2048
    oc = check_stirling_diff_bound(2, 3, 1, 512, 2, 2047)
    assert oc.bound + 2 == 2048
    rep = sweep("stirling-diff-bound", grid="p=2,3;alpha=0..3;h=1;l=0,512;m=0..2;n=1,2047")
    assert rep.checked == rep.held == 96

    def built(*args):
        raise AssertionError("a difference table was built or a sweep task ran")

    monkeypatch.setattr(verify, "_diagonal", built)
    monkeypatch.setattr(verify, "_run", built)
    with pytest.raises(CapacityError, match=r"^stirling-diff-bound capped at precision E <= 2048, got E=2049$"):
        check_stirling_diff_bound(2, 3, 1, 512, 2, 2048)
    with pytest.raises(CapacityError, match=r"got E=2049$"):
        sweep("stirling-diff-bound", grid="p=2;alpha=3;h=1;l=512;m=2;n=2048")
    # the largest E of a grid pairs the largest l and alpha with the largest n and m and the smallest p
    with pytest.raises(CapacityError, match=r"got E=2049$"):
        sweep("stirling-diff-bound", grid=[{"p": [3, 2], "alpha": [0, 3], "h": [1], "l": [520], "m": [0, 4], "n": [2047]}])


def test_bound_sweeps_refuse_l_past_their_cap(monkeypatch):
    assert verify.BOUND_L_CAP == 1024
    assert sweep("carry-bound", grid="p=2;alpha=0;n=1;r=0;l=1024").checked == 1

    def no_work(*args):
        raise AssertionError("sweep work started past the l cap")

    monkeypatch.setattr(verify, "_run", no_work)
    for check in ("polysum-bound", "carry-bound", "binom-weight-bound"):
        with pytest.raises(CapacityError, match=r"^bound sweeps capped at l <= 1024, got l=4096$"):
            sweep(check, grid="p=2;alpha=0;n=1;r=0;l=0,4096,3")


@pytest.mark.parametrize(
    "check, grid, want",
    [
        # the first block passes a cap (l, n, m or the scan of factorial-match's n); the last holds a bad value
        ("carry-bound", [{"p": [2], "alpha": [0], "n": [1], "r": [0], "l": [0, 5000]},
                         {"p": [2, 1], "alpha": [0], "n": [1], "r": [0], "l": [0]}], "p must be >= 2, got 1"),
        ("plain-sum-bound", [{"p": [2], "alpha": [0], "n": [10**6], "r": [0]},
                             {"p": [2], "alpha": [0], "n": [-1], "r": [0]}], "n must be >= 0, got -1"),
        ("equality-conjecture", [{"p": [2], "alpha": [1], "n": [10**6], "r": [0]},
                                 {"p": [2], "alpha": [1, 0], "n": [3], "r": [0]}], "alpha must be >= 1, got 0"),
        ("stirling-diff-bound", [{"p": [2], "alpha": [3], "h": [1], "l": [400], "m": [1600], "n": [1600]},
                                 {"p": [2], "alpha": [0], "h": [1], "l": [1], "m": [2], "n": [0]}], "n must be >= 1, got 0"),
        ("factorial-match", "n=4,100000,7", "n must be even and >= 4, got 7"),
    ],
)
def test_grid_values_are_refused_before_caps(check, grid, want, monkeypatch):
    def no_work(*args):
        raise AssertionError("sweep work started for a grid with a bad value")

    monkeypatch.setattr(verify, "_run", no_work)
    with pytest.raises(ValueError, match=f"^{want}$"):
        sweep(check, grid=grid)


def test_sweep_rejects_incomplete_grids():
    with pytest.raises(GridError, match="missing axes"):
        sweep("polysum-bound", grid={"q": [1]})
    with pytest.raises(GridError, match="missing axes"):
        sweep("polysum-bound", grid={"p": [2], "alpha": [0], "n": [3]})
    with pytest.raises(GridError, match="no default grid"):
        default_grid("floor-identity")
    with pytest.raises(GridError, match=r"^grid has unknown axes \['h'\] for check 'carry-bound'$"):
        sweep("carry-bound", grid="p=2;alpha=0;n=1;r=0;l=0;h=1")
    with pytest.raises(GridError, match=r"^grid is missing axes \['l'\] for this check$"):
        bound_sweep(["carry-bound"], grid={"p": [2], "alpha": [0], "n": [1], "r": [0], "l": []})


def test_default_grid_shapes():
    sizes = {
        "polysum-bound": 12,
        "carry-bound": 12,
        "binom-weight-bound": 12,
        "plain-sum-bound": 12,
        "totient-bound": 12,
        "stirling-diff-bound": 29,
        "factorial-match": 1,
    }
    for check, blocks in sizes.items():
        assert len(default_grid(check)) == blocks, check
    assert default_grid("factorial-match")[0]["n"] == list(range(4, 41, 2))
    assert len(default_grid("equality-conjecture")) == 636


def test_small_sweep_all_hold():
    grid = parse_grid("p=3;alpha=0..2;n=1..40;r=-3..6;l=0..4")
    rep = sweep("polysum-bound", grid=grid, jobs=1)
    assert rep.checked == 3 * 40 * 10 * 5
    assert rep.held == rep.checked
    assert rep.violations == [] and rep.undetermined == 0
    assert rep.check == "polysum-bound"


def test_sweep_skip_counting():
    grid = parse_grid("p=3;alpha=0..1;n=1..20;r=0..3")
    rep = sweep("totient-bound", grid=grid)
    # alpha = 0 instances fail the precondition and are skipped
    assert rep.skipped == 20 * 4
    assert rep.checked == 20 * 4
    assert rep.violations == []


def test_sweep_determinism_across_jobs():
    grid = parse_grid("p=2,3;alpha=0..2;n=1..30;r=-2..4;l=0..3")
    seq = sweep("carry-bound", grid=grid, jobs=1)
    par = sweep("carry-bound", grid=grid, jobs=2)
    assert seq.to_json() == par.to_json()
    assert seq.to_markdown() == par.to_markdown()


def test_stirling_diff_sweep_shares_blocks_deterministically(monkeypatch):
    # 704 instances in 8 tasks of one (p, alpha, h) cell each; each (p, alpha, h, n)
    # block shares its difference tables, and with n innermost its instances
    # are interleaved with another block's, yet no block spans two tasks.
    grid = parse_grid("p=2,3;alpha=0..1;h=1..2;l=0..3;m=2..12;n=2..3")
    axes = ("p", "alpha", "h", "l", "m", "n")
    insts = list(itertools.product(*(grid[a] for a in axes)))
    with monkeypatch.context() as m:
        m.setattr(verify, "_CELL_CHUNK", 1)
        tasks = [list(itertools.product(*(sub[a] for a in axes))) for _, sub in verify._tasks(("stirling-diff-bound",), [grid])]
    sides = {}
    for t, chunk in enumerate(tasks):
        for p, alpha, h, _, _, n in chunk:
            sides.setdefault((p, alpha, h, n), set()).add(t)
    assert [i for chunk in tasks for i in chunk] == insts and len(tasks) == 8
    assert len(sides) == 16 and all(len(s) == 1 for s in sides.values())
    seq = sweep("stirling-diff-bound", grid=grid, jobs=1)
    par = sweep("stirling-diff-bound", grid=grid, jobs=2)
    assert seq.to_json() == par.to_json()
    assert _sweep_matches_single_instances(grid, monkeypatch)[0] == seq.to_json()


def _sweep_matches_single_instances(grid, monkeypatch):
    """(JSON report, exact instances) of a stirling-diff-bound sweep at jobs=1, checked against check_stirling_diff_bound.

    The single-instance API, one instance at a time, must give the report's
    counts and slacks, and every exact order must be one the sweep's kernel
    read for that instance, as often as the instance occurs in the grid.
    """
    real, read = verify._stirling_diff_block, []

    def spy(p, n, pairs, ls, axis):
        found = real(p, n, pairs, ls, axis)
        m_at = {j: m for m, _, j, _ in axis}
        for (alpha, h), live in zip(pairs, found):
            read.extend(((p, alpha, h, ls[i], m_at[j], n), o) for i, j, o, _ in live)
        return found

    with monkeypatch.context() as mp:
        mp.setattr(verify, "_stirling_diff_block", spy)
        rep = sweep("stirling-diff-bound", grid=grid, jobs=1)
    insts = list(itertools.product(*(grid[a] for a in ("p", "alpha", "h", "l", "m", "n"))))
    held, slack, exact = 0, {}, []
    for inst in insts:
        oc = check_stirling_diff_bound(*inst)
        held += oc.holds is True
        if oc.lhs_exact:
            exact.append((inst, oc.lhs_ord))
            key = f"p={inst[0]},alpha={inst[1]}"
            lo, hi = slack.get(key, (oc.slack, oc.slack))
            slack[key] = (min(lo, oc.slack), max(hi, oc.slack))
        else:
            assert (oc.lhs_ord, oc.slack, oc.holds) == (oc.bound + 2, None, True), inst
    assert (rep.checked, rep.held, rep.undetermined, rep.violations) == (len(insts), held, 0, [])
    assert rep.slack == slack
    assert sorted(read) == sorted(exact)
    return rep.to_json(), len(exact)


def test_stirling_diff_sweep_matches_single_instances_on_random_grids(monkeypatch):
    # Custom grids with unsorted and repeated l and m axes, m below p and
    # below n, n = 1, h = 0 and alpha = 0 and 70 (a tower that cannot be
    # materialized).
    rng = random.Random(22)
    grids = [
        {
            "p": rng.sample((2, 3, 5, 7), 2),
            "alpha": rng.sample((0, 1, 2, 70), 2),
            "h": rng.sample(range(3), 2),
            "l": [rng.randint(0, 5) for _ in range(3)],
            "m": [rng.randint(0, 30) for _ in range(6)],
            "n": rng.sample(range(1, 16), 3),
        }
        for _ in range(12)
    ]
    assert sum(_sweep_matches_single_instances(grid, monkeypatch)[1] for grid in grids) == 1202  # of 5184
    insts = [dict(zip(g, v)) for g in grids for v in itertools.product(*g.values())]
    for covered in (
        lambda d: d["m"] < d["p"], lambda d: d["m"] < d["n"], lambda d: d["n"] == 1, lambda d: d["l"] == 0,
        lambda d: d["h"] == 0, lambda d: d["alpha"] == 0, lambda d: d["alpha"] == 70,
    ):
        assert any(map(covered, insts))
    assert any(g["m"] != sorted(g["m"]) for g in grids)
    assert any(len(set(g["m"])) < len(g["m"]) for g in grids) and any(len(set(g["l"])) < len(g["l"]) for g in grids)


def test_stirling_diff_violations_in_grid_order(monkeypatch):
    # The worker reads every (alpha, h) block of one (p, n) at a time; violations
    # found across several n must still be reported in (p, alpha, h, l, m, n) order.
    chosen = [(1, 4, 2), (2, 3, 2), (0, 5, 3), (1, 3, 4)]  # (l, m, n), in block order
    real = verify._stirling_diff_block

    def fake(p, n, pairs, ls, axis):
        out = []
        for (alpha, _), live in zip(pairs, real(p, n, pairs, ls, axis)):
            found = {(i, j): (o, b) for i, j, o, b in live}
            for (i, l), (m, _, j, q) in itertools.product(enumerate(ls), axis):
                if (l, m, n) in chosen:
                    b = min(l * (alpha + 1), n - 1 + q)
                    found[i, j] = (b - 1, b)
            out.append([(i, j, o, b) for (i, j), (o, b) in reversed(found.items())])
        return out

    monkeypatch.setattr(verify, "_stirling_diff_block", fake)
    rep = sweep("stirling-diff-bound", grid="p=2;alpha=0;h=1..2;l=0..2;m=3..5;n=2..4", jobs=1)
    assert (rep.checked, rep.held) == (54, 46)
    assert [o.instance_str() for o in rep.violations] == [
        f"p=2 alpha=0 h={h} l={l} m={m} n={n}" for h in (1, 2) for l, m, n in sorted(chosen)
    ]
    assert all(o.slack == -1 for o in rep.violations)


def test_bound_violations_match_direct_checks_and_render_truncated(monkeypatch):
    # carry-bound raised one above its true bound: every tight instance of the
    # grid is violated, 149 of them over two worker tasks
    true_bound = verify._BOUNDS["carry-bound"]

    def one_above(p, alpha, n, r, base):
        bound, note = true_bound.bound(p, alpha, n, r, base)
        return bound + 1, note

    monkeypatch.setitem(verify._BOUNDS, "carry-bound", verify._Bound("x^l", one_above))
    grid = parse_grid("p=2;alpha=1..2;n=1..12;r=0..3;l=0..3")
    assert len(list(verify._tasks(("carry-bound",), [grid]))) == 2
    fused = bound_sweep(["polysum-bound", "carry-bound"], grid=grid)
    assert fused["polysum-bound"].violations == []
    rep = fused["carry-bound"]
    direct = [check_carry_bound(*inst) for inst in itertools.product(*grid.values())]
    want = [oc for oc in direct if oc.holds is False]
    assert rep.violations == want
    assert (rep.checked, rep.held, len(want)) == (384, 235, 149)
    assert rep.exit_code() == 1
    lines = rep.to_markdown().splitlines()
    assert lines[2:] == [
        "- grid: custom",
        "- checked: 384",
        "- held: 235",
        "- violations: 149",
        "- undetermined: 0",
        "- skipped: 0",
        "- flagged: 0",
        "",
        "| slice | min slack | max slack |",
        "|---|---|---|",
        "| p=2,alpha=1 | -1 | 7 |",
        "| p=2,alpha=2 | -1 | 6 |",
        "",
        "| violation | lhs ord | bound | note |",
        "|---|---|---|---|",
        *(f"| {oc.instance_str()} | {oc.lhs_str()} | {oc.bound} | {oc.note} |" for oc in want[: verify._RENDER_CAP]),
        "| ... 99 more | | | |",
    ]
    assert lines[17] == "| p=2 alpha=1 n=1 r=0 l=0 | 0 | 1 | tau=0 |"
    assert lines[-2] == "| p=2 alpha=1 n=6 r=1 l=2 | 2 | 3 | tau=1 |"


def test_broken_order_chain_names_its_instance(monkeypatch):
    # Legendre's formula makes ord_3(12!) = 12//3 + ord_3(4!); break it at 12
    real = verify.ord_factorial
    monkeypatch.setattr(verify, "ord_factorial", lambda p, m: real(p, m) + (p == 3 and m == 12))
    msg = r"order chain broken at p=3 alpha=1 n=12: 6 != 5"
    with pytest.raises(AssertionError, match=msg):
        check_plain_sum_bound(3, 1, 12, 0)
    with pytest.raises(AssertionError, match=msg):
        sweep("plain-sum-bound", grid="p=3;alpha=1;n=10..14;r=0..2")
    # at alpha = 0 every plain sum of n >= 1 vanishes, and the chain is still checked
    with pytest.raises(AssertionError, match=r"order chain broken at p=3 alpha=0 n=4: 6 != 5"):
        sweep("plain-sum-bound", grid="p=3;alpha=0;n=3..5;r=0..2")


def test_sweep_memory_is_bounded_by_the_task():
    # No task holds an instance list: a 100,000-instance stirling-diff-bound
    # sweep walks its blocks lazily, and the tasks of a 10^7-instance grid are
    # sub-blocks of axis lists.
    tracemalloc.start()
    try:
        sweep("stirling-diff-bound", grid="p=2;alpha=0;h=1;l=0..9;m=1..100;n=1..100", jobs=1)
        sweep_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        grid = parse_grid("p=2;alpha=0;h=1;l=0..9;m=1..1000;n=1..1000")
        tasks = sum(1 for _ in verify._tasks(("stirling-diff-bound",), [grid]))
        tasks_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep_peak < 2 * 10**6
    assert tasks == 1 and tasks_peak < 10**6


def test_oversized_n_axis_is_refused_before_it_is_expanded():
    # The residue-class sum cap reads the n axis's items, a range or a value
    # each: refusing a million-value axis allocates no list of its values,
    # whether the axis is written as one range or in two pieces.
    for n_axis in ("1..1000000", "1..999999,1000000"):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="grid axis n reaches 1000000, over the residue-class sum cap of 4096"):
                sweep("carry-bound", grid=f"p=2;alpha=0;n={n_axis};r=0;l=0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, n_axis


def test_run_sends_a_pool_a_bounded_window_of_tasks():
    pulled = []

    def tasks():
        for i in range(40):
            pulled.append(i)
            yield -i

    results = verify._run(abs, tasks(), 2)
    assert next(results) == 0 and len(pulled) <= 5
    assert list(results) == list(range(1, 40))


def test_bound_sweep_rejects_empty_check_list():
    with pytest.raises(GridError, match="the check list is empty"):
        bound_sweep([])


def test_bound_sweep_agrees_with_single_sweeps():
    grid = parse_grid("p=2;alpha=0..2;n=1..25;r=-2..3;l=0..3")
    fused = bound_sweep(["polysum-bound", "carry-bound"], grid=grid)
    assert set(fused) == {"polysum-bound", "carry-bound"}
    for name, rep in fused.items():
        solo = sweep(name, grid=grid)
        assert rep.to_json() == solo.to_json()


_DIRECT = {
    "polysum-bound": lambda p, alpha, n, r, l: check_polysum_bound(p, alpha, n, r, IntPolynomial.monomial(l)),
    "carry-bound": check_carry_bound,
    "binom-weight-bound": check_binom_weight_bound,
    "plain-sum-bound": lambda p, alpha, n, r, l: check_plain_sum_bound(p, alpha, n, r),
    "totient-bound": lambda p, alpha, n, r, l: check_totient_bound(p, alpha, n, r),
}


def test_fused_sweep_matches_direct_check_calls():
    # Every bound check, one sweep against one check_* call per instance.
    # alpha = 0 and n < p^(alpha-1) (n <= 2 at p=3, alpha=2; n = 0 at alpha=1)
    # miss the totient bound's precondition.
    for check in BOUND_CHECKS:
        uses_l = check in ("polysum-bound", "carry-bound", "binom-weight-bound")
        grid = parse_grid("p=2,3;alpha=0..2;n=0..12;r=-2..4" + ";l=0..3" * uses_l)
        ls = grid["l"] if uses_l else [None]
        rep = bound_sweep([check], grid=grid)[check]
        checked = held = skipped = 0
        slack = {}
        for p, alpha, n, r in itertools.product(grid["p"], grid["alpha"], grid["n"], grid["r"]):
            raised = 0
            for l in ls:
                try:
                    oc = _DIRECT[check](p, alpha, n, r, l)
                except ValueError:
                    raised += 1
                    continue
                checked += 1
                held += oc.holds is True
                if oc.slack is not None:
                    lo, hi = slack.get(f"p={p},alpha={alpha}", (oc.slack, oc.slack))
                    slack[f"p={p},alpha={alpha}"] = (min(lo, oc.slack), max(hi, oc.slack))
            # the check raises on exactly the instances the sweep skips
            cell = {"p": [p], "alpha": [alpha], "n": [n], "r": [r], **({"l": ls} if uses_l else {})}
            assert bound_sweep([check], grid=cell)[check].skipped == raised, (check, p, alpha, n, r)
            skipped += raised
        assert (rep.checked, rep.held, rep.skipped) == (checked, held, skipped), check
        assert (rep.undetermined, rep.violations) == (0, []), check
        assert rep.slack == slack, check
        assert (skipped > 0) == (check == "totient-bound"), check


def _per_instance_reports(checks, grid):
    """The reports bound_sweep should give, from one instance at a time in grid order.

    Each instance goes through _check_bound, the route of every check_*
    function (check_polysum_bound names its weight f=x^l, the sweep l).
    """
    reports = {}
    for check in checks:
        rep = reports[check] = SweepReport(check, "custom")
        ls = grid["l"] if verify._BOUNDS[check].uses_l else [0]
        for p, alpha, n, r, l in itertools.product(grid["p"], grid["alpha"], grid["n"], grid["r"], ls):
            try:
                oc = verify._check_bound(check, p, alpha, n, r, l)
            except ValueError:
                rep.skipped += 1
                continue
            slacks = () if oc.slack is None else (oc.slack,)
            rep.add(f"p={p},alpha={alpha}", slacks, oc.holds is True, () if oc.holds else (oc,))
    return reports


def _random_bound_grids(seed, count, primes=(2, 3, 5, 7)):
    """Seeded custom grids: unsorted and repeated r, negative r, n = 0, and the l axis 3,7..9."""
    rng = random.Random(seed)
    for _ in range(count):
        p, alpha = rng.choice(primes), rng.randint(0, 3)
        m = p**alpha
        rs = [rng.randint(-2 * m - 3, 2 * m + 3) for _ in range(rng.randint(1, 6))]
        rs += [r + m * rng.choice((1, 1, 2, -1)) for r in rs[: rng.randint(0, 3)]]
        ns = [0] + rng.sample(range(1, 60), rng.randint(1, 3))
        yield {"p": [p], "alpha": [alpha], "n": ns, "r": rs, "l": [3, 7, 8, 9]}


def test_bound_sweep_equals_the_per_instance_route_on_random_grids():
    for grid in _random_bound_grids(2026, 40):
        got = bound_sweep(BOUND_CHECKS, grid=grid)
        for check, want in _per_instance_reports(BOUND_CHECKS, grid).items():
            assert got[check].to_json() == want.to_json(), (check, grid)


@pytest.mark.parametrize("check", BOUND_CHECKS)
def test_raised_bound_violations_come_in_grid_order(check, monkeypatch):
    # one bound raised by 2: tight and near-tight instances are violated, and
    # every report equals the per-instance route, violations in grid order
    true_bound = verify._BOUNDS[check]

    def raised(p, alpha, n, r, base):
        bound, note = true_bound.bound(p, alpha, n, r, base)
        return bound + 2, note

    monkeypatch.setitem(verify._BOUNDS, check, verify._Bound(true_bound.weight, raised, true_bound.precondition))
    violations = 0
    for grid in _random_bound_grids(7, 12):
        if not true_bound.uses_l:
            del grid["l"]
        got = bound_sweep([check], grid=grid)[check]
        assert got.to_json() == _per_instance_reports([check], grid)[check].to_json(), grid
        violations += len(got.violations)
    assert violations >= 30


def test_raised_class_bound_is_read_below_p_to_the_base(monkeypatch):
    # class_bound one too high: a cell whose gcd p**base does not divide has
    # its least order read without dividing.  p = 2 only, as ord_nonzero(p, 0)
    # would not return at odd p.  plain-sum-bound's order chain reads base and
    # would break, so it is left out.
    real = verify.class_bound
    monkeypatch.setattr(verify, "class_bound", lambda p, alpha, n: real(p, alpha, n) + 1)
    checks = ("polysum-bound", "carry-bound", "binom-weight-bound", "totient-bound")
    violations = 0
    for grid in _random_bound_grids(11, 12, primes=(2,)):
        got = bound_sweep(checks, grid=grid)
        for check, want in _per_instance_reports(checks, grid).items():
            assert got[check].to_json() == want.to_json(), (check, grid)
            violations += len(want.violations)
    assert violations > 50


def test_top_order_reads_orders_far_above_the_start():
    # raw falling-factorial sums at large l have orders near ord_p(l!), far
    # above the cell's least; the search must land on the exact largest
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for top in (0, 1, 2, 7, 64, 1000):
            ks = [top] + [rng.randint(0, top) for _ in range(6)]
            xs = [(-1) ** k * p**k * rng.choice([u for u in range(1, 3 * p) if u % p]) for k in ks]
            rng.shuffle(xs)
            assert verify._top_order(p, xs, min(ks)) == top, (p, top)


def test_perturbed_falling_sum_names_its_instance(monkeypatch):
    want = r"binomial-weighted sum not divisible by 3! at \(\('p', 3\), \('alpha', 1\), \('n', 10\), \('r', 2\), \('l', 3\)\)"
    real_sums, real_sum = verify.alt_sums_upto, verify.alt_sum

    def sums(n, rs, m, maxl, powers, falling):
        cells = real_sums(n, rs, m, maxl, powers, falling)
        for r, (_, ffs) in zip(rs, cells):
            if (n, r) == (10, 2):
                ffs[3] += 1
        return cells

    monkeypatch.setattr(verify, "alt_sums_upto", sums)
    with pytest.raises(AssertionError, match=want):
        bound_sweep(["polysum-bound", "binom-weight-bound"], grid="p=3;alpha=1;n=9..11;r=0..3;l=0..4")
    monkeypatch.setattr(verify, "alt_sum", lambda n, r, m, f: real_sum(n, r, m, f) + ((n, r) == (10, 2)))
    with pytest.raises(AssertionError, match=want):
        check_binom_weight_bound(3, 1, 10, 2, 3)


def test_conjecture_sweep_report():
    grid = parse_grid("p=3;alpha=1;n=5..40;r=0..12")
    rep = sweep("equality-conjecture", grid=grid)
    assert rep.checked == 468
    assert rep.held == rep.checked
    assert rep.flagged == 52
    assert rep.equality_rate == 1.0
    d = json.loads(rep.to_json())
    assert d["schema"] == 1
    assert d["equality_rate"] == "1.000000"
    assert "wall_time" not in d


def test_identity_sweep_reproducible():
    a = identity_sweep("floor-identity", samples=300, seed=1)
    b = identity_sweep("floor-identity", samples=300, seed=1)
    assert a.checked == a.held == 300
    assert a.to_json() == b.to_json()
    c = identity_sweep("split-identity", samples=200, seed=7)
    assert c.checked == c.held == 200
    assert "seed=7" in c.grid


@pytest.mark.parametrize(
    "check, seed, digest",
    [
        ("floor-identity", 1, "fbe1c209b65894757f949e14e75b67dd82a358ff96babfae143df7112e29b88a"),
        ("floor-identity", 2, "afcd742c1feb682f6fc6b426ac35cc541f1335c980abbe52ddf5f921efd81338"),
        ("floor-identity", 3, "0e204bffaff28c63357229b43d2932501d0469710f7cbe5be9b5062a4545146d"),
        ("split-identity", 1, "f730382cd7bf129f8975849e16c432c65d68ffa3b103006e921db330f005b607"),
        ("split-identity", 2, "03641c360b63dc4248035ac26ba93f3b5ef58e1b47021166192336ad490cffd7"),
        ("split-identity", 3, "e7d1b528f3b43225adea13d44c649afc862cbaab17e85fab6cbb9c3659a46e66"),
    ],
)
def test_identity_sweeps_pinned(check, seed, digest):
    # recorded before the residue-class sums became dot products
    rep = identity_sweep(check, samples=2000, seed=seed)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


def test_identity_sweep_refuses_a_grid(monkeypatch):
    assert sweep("floor-identity", grid="default", samples=20).checked == 20
    monkeypatch.setattr(verify, "_run", None)  # a sweep that started would fail on it
    with pytest.raises(GridError, match=r"^floor-identity is randomized; use --samples and --seed instead of --grid$"):
        sweep("floor-identity", grid="p=2;alpha=0;n=1..5;r=0", samples=20)


def test_identity_sweep_refuses_oversized_samples(monkeypatch):
    # samples have a cap of their own, checked before any instance is drawn;
    # each task draws its own instances from the seeded stream as it is built
    assert len(next(verify._identity_tasks("split-identity", verify.SAMPLES_CAP, 0))[1]["instance"]) == verify._CELL_CHUNK
    monkeypatch.setattr(verify, "_run", None)  # a sweep that started would fail on it
    for samples in (verify.SAMPLES_CAP + 1, 10**8):
        with pytest.raises(CapacityError, match=f"^identity sweeps capped at samples <= 1000000, got samples={samples}$"):
            identity_sweep("split-identity", samples=samples)


def test_identity_samples_cap_admits_the_cap_and_the_defaults(monkeypatch):
    # 0.06 to 0.11 ms a split-identity sample: the cap is 1 to 2 minutes at jobs=1
    assert verify.SAMPLES_CAP == 10**6
    drawn = []

    def tasks(check, samples, seed):
        drawn.append(samples)
        return iter(())

    monkeypatch.setattr(verify, "_identity_tasks", tasks)
    for samples in (2000, 10**4, verify.SAMPLES_CAP):
        assert identity_sweep("split-identity", samples=samples).checked == 0
    assert drawn == [2000, 10**4, verify.SAMPLES_CAP]


def test_exit_codes():
    clean = SweepReport(check="carry-bound", grid="g", checked=5, held=5,
                        violations=[], skipped=0, flagged=0, slack={})
    assert clean.exit_code(strict=False) == clean.exit_code(strict=True) == 0
    assert clean.undetermined == 0 and clean.to_dict()["undetermined"] == 0
    bad = CheckOutcome(check="carry-bound", instance=(("p", 2),), lhs_ord=0,
                       lhs_exact=True, bound=1, slack=-1, holds=False)
    broken = SweepReport(check="carry-bound", grid="g", checked=5, held=4,
                         violations=[bad], skipped=0, flagged=0, slack={})
    assert broken.exit_code(strict=False) == 1
    # a failed conjecture instance is fatal only under strict mode
    conj = SweepReport(check="equality-conjecture", grid="g", checked=5, held=4,
                       violations=[bad], skipped=0, flagged=0, slack={})
    assert conj.exit_code(strict=False) == 0
    assert conj.exit_code(strict=True) == 1


def test_report_markdown_rendering():
    grid = parse_grid("p=2;alpha=1;n=1..10;r=0..1;l=0..1")
    rep = sweep("polysum-bound", grid=grid)
    md = rep.to_markdown()
    assert "polysum-bound" in md
    assert "checked: 40" in md
    assert "violations: 0" in md


def test_check_names_registry():
    assert len(CHECK_NAMES) == 10
    assert set(BOUND_CHECKS) <= set(CHECK_NAMES)
    assert "equality-conjecture" in CHECK_NAMES
    assert "floor-identity" in CHECK_NAMES and "split-identity" in CHECK_NAMES


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each task in this process and records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        done = Future()
        done.set_result(fn(arg))
        return done


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweeps_refuse_fewer_than_one_worker(jobs, monkeypatch):
    def ran(task):
        raise AssertionError("a sweep task ran")

    monkeypatch.setattr(verify, "_eval_task", ran)
    with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
        sweep("carry-bound", grid="p=2;alpha=1;n=1..10;r=0..1;l=0..1", jobs=jobs)


def test_sweeps_refuse_more_workers_than_the_cap(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)  # a pool that started would fail on it
    cap, grid = verify.JOBS_CAP, "p=2,3;alpha=0..1;n=1..12;r=0..2;l=0..2"
    with pytest.raises(CapacityError, match=rf"^jobs must be <= {cap}, got {cap + 1}$"):
        sweep("carry-bound", grid=grid, jobs=cap + 1)
    with pytest.raises(CapacityError, match=rf"^jobs must be <= {cap}, got {cap + 1}$"):
        bound_sweep(["carry-bound"], grid=grid, jobs=cap + 1)
    with pytest.raises(CapacityError, match=rf"^jobs must be <= {cap}, got {cap + 1}$"):
        identity_sweep("split-identity", samples=10, jobs=cap + 1)
    # at the cap itself the sweep answers, through a pool of that size
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes.clear()
    assert sweep("carry-bound", grid=grid, jobs=cap).to_dict() == sweep("carry-bound", grid=grid).to_dict()
    assert _InlinePool.sizes == [cap]
