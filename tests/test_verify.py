"""Check functions, grids, and sweep reports."""

import itertools
import json
import math
import random
import tracemalloc

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
from padicsums.polysum import ONE
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
    for p, alpha, h, l, n, m in itertools.product((2, 3), range(3), (1, 2), range(4), range(1, 5), range(12)):
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


def test_sweep_rejects_incomplete_grids():
    with pytest.raises(GridError, match="missing axes"):
        sweep("polysum-bound", grid={"q": [1]})
    with pytest.raises(GridError, match="missing axes"):
        sweep("polysum-bound", grid={"p": [2], "alpha": [0], "n": [3]})
    with pytest.raises(GridError, match="no default grid"):
        default_grid("floor-identity")


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
    # the single-instance API gives the same verdicts, one instance at a time
    held = undetermined = 0
    slack = {}
    for p, alpha, h, l, m, n in insts:
        oc = check_stirling_diff_bound(p, alpha, h, l, m, n)
        held += oc.holds is True
        undetermined += oc.holds is None
        if oc.slack is not None:
            lo, hi = slack.get(f"p={p},alpha={alpha}", (oc.slack, oc.slack))
            slack[f"p={p},alpha={alpha}"] = (min(lo, oc.slack), max(hi, oc.slack))
    assert (seq.checked, seq.held, seq.undetermined, seq.violations) == (len(insts), held, undetermined, [])
    assert seq.slack == slack


def test_stirling_diff_violations_in_grid_order(monkeypatch):
    # The worker reads one (p, alpha, h, n) block at a time; violations found
    # across several n must still be reported in (p, alpha, h, l, m, n) order.
    chosen = [(1, 4, 2), (2, 3, 2), (0, 5, 3), (1, 3, 4)]  # (l, m, n), in block order
    real = verify._stirling_diff_block

    def fake(p, alpha, h, n, lms):
        res = real(p, alpha, h, n, lms)
        return [(b - 1, b) if (l, m, n) in chosen else (o, b) for (l, m), (o, b) in zip(lms, res)]

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

    def one_above(p, alpha, n, r, base, ls):
        bounds, note = true_bound.bound(p, alpha, n, r, base, ls)
        return [b + 1 for b in bounds], note

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


def test_identity_sweep_refuses_oversized_samples(monkeypatch):
    # samples are capped like grids, before any instance is drawn; each task
    # draws its own instances from the seeded stream as it is built
    assert len(next(verify._identity_tasks("split-identity", verify.GRID_CAP, 0))[1]["instance"]) == verify._CELL_CHUNK
    monkeypatch.setattr(verify, "_run", None)  # a sweep that started would fail on it
    with pytest.raises(CapacityError, match="100000000 samples requested, over the cap of 10000000"):
        identity_sweep("split-identity", samples=10**8)


def test_exit_codes():
    clean = SweepReport(check="carry-bound", grid="g", checked=5, held=5,
                        violations=[], undetermined=0, skipped=0, flagged=0, slack={})
    assert clean.exit_code(strict=False) == 0
    bad = CheckOutcome(check="carry-bound", instance=(("p", 2),), lhs_ord=0,
                       lhs_exact=True, bound=1, slack=-1, holds=False)
    broken = SweepReport(check="carry-bound", grid="g", checked=5, held=4,
                         violations=[bad], undetermined=0, skipped=0, flagged=0, slack={})
    assert broken.exit_code(strict=False) == 1
    fuzzy = SweepReport(check="carry-bound", grid="g", checked=5, held=4,
                        violations=[], undetermined=1, skipped=0, flagged=0, slack={})
    assert fuzzy.exit_code(strict=False) == 2
    # a failed conjecture instance is fatal only under strict mode
    conj = SweepReport(check="equality-conjecture", grid="g", checked=5, held=4,
                       violations=[bad], undetermined=0, skipped=0, flagged=0, slack={})
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
