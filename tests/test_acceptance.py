"""Acceptance gate: one test per shipped criterion.

Every test prints a single "criterion N: PASS|FAIL" line (visible in the
captured output on failure, and mirrored by the pytest -v status line)
and then asserts. Runtime limits are part of the criteria.
"""

import hashlib
import json
import math
import random
import time

import pytest

from padicsums import (
    IntPolynomial,
    StructuredExponent,
    bound_sweep,
    carries,
    check_carry_bound,
    check_polysum_bound,
    default_grid,
    identity_sweep,
    lower_bound,
    min_stirling_ord,
    mstirling_mod,
    old_bound,
    ord_factorial,
    ord_int,
    pow_mod,
    restated_bound,
    stirling_rows,
    sweep,
)
from padicsums import golden
from padicsums.cli import main
from padicsums.verify import BOUND_CHECKS


def _criterion(num, desc, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def run_cli(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture(scope="module")
def bound_reports():
    """One fused pass over the shared default grid covers criteria 5-7."""
    t0 = time.perf_counter()
    reports = bound_sweep(BOUND_CHECKS, jobs=1)
    reports["_wall"] = time.perf_counter() - t0
    return reports


def test_criterion_01_stable_order_table(capsys):
    # The reference records e_3(28, 2*3^L + 27) as 32, but the stated
    # definition gives 31 (proven by test_table1_n28_stable_order_is_31 in
    # test_bounds.py). The reference stays verbatim, so --golden must report
    # exactly that one cell and match every other.
    t0 = time.perf_counter()
    rc, out, err = run_cli(["table", "one", "--from", "19", "--to", "41", "--golden"], capsys)
    wall = time.perf_counter() - t0
    want_rows = [
        (n, 31 if n == 28 else stable, bound)
        for n, stable, bound in zip(range(19, 42), golden.TABLE1_STABLE, golden.TABLE1_BOUND)
    ]
    rows = [
        tuple(int(cell) for cell in ln.strip("|").split("|"))
        for ln in out.splitlines()
        if ln.startswith("| ") and ln[2].isdigit()
    ]
    mismatches = [ln for ln in err.splitlines() if "mismatch" in ln]
    _criterion(
        1,
        "stable-order table rows 19..41 match the embedded reference, "
        "apart from the proven n=28 erratum",
        rows == want_rows
        and mismatches == ["golden mismatch: n=28 stable: computed 31, reference 32"]
        and rc == 1
        and wall < 60,
        f"exit={rc}, wall={wall:.1f}s" + (f", {'; '.join(mismatches)}" if mismatches else ""),
    )


def test_criterion_02_carry_table(capsys):
    t0 = time.perf_counter()
    rc, _, _ = run_cli(["table", "two", "--golden"], capsys)
    wall = time.perf_counter() - t0
    _criterion(2, "all 81 carry-table entries match the embedded reference",
               rc == 0 and wall < 1, f"exit={rc}, wall={wall:.2f}s")


def test_criterion_03_delta_list(capsys):
    t0 = time.perf_counter()
    rc, _, _ = run_cli(["table", "delta", "--golden"], capsys)
    wall = time.perf_counter() - t0
    _criterion(3, "offset-order list for l=25..45 matches the embedded reference",
               rc == 0 and wall < 5, f"exit={rc}, wall={wall:.2f}s")


def test_criterion_04_factorial_match_sweep():
    t0 = time.perf_counter()
    rep = sweep("factorial-match")
    wall = time.perf_counter() - t0
    ok = (
        rep.checked == 19
        and rep.held == rep.checked
        and rep.violations == []
        and rep.undetermined == 0
        and wall < 120
    )
    _criterion(4, "stable order equals the factorial order for even n in 4..40",
               ok, f"checked={rep.checked}, held={rep.held}, wall={wall:.1f}s")


def test_criterion_05_polysum_bound_sweep(bound_reports):
    rep = bound_reports["polysum-bound"]
    ok = rep.violations == [] and rep.undetermined == 0 and rep.checked == 3434800
    _criterion(5, "polynomial-sum bound holds on the full default grid",
               ok, f"checked={rep.checked}, violations={len(rep.violations)}")


def test_criterion_06_carry_bound_sweep(bound_reports):
    rep = bound_reports["carry-bound"]
    ok = rep.violations == [] and rep.undetermined == 0 and rep.checked == 3434800

    # independent spot check: the sharpened bound exceeds the plain one
    # by exactly the carry count, recomputed outside the sweep engine
    rng = random.Random(2029)
    gap_ok = True
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        alpha = rng.randint(0, 3)
        m = p**alpha
        n = rng.randint(1, 200)
        r = rng.randint(-10, 2 * m)
        l = rng.randint(0, 30)
        a = check_carry_bound(p, alpha, n, r, l)
        b = check_polysum_bound(p, alpha, n, r, IntPolynomial.monomial(l))
        tau = carries(p, r % m, (n - r) % m)
        if a.bound - b.bound != tau or not 0 <= tau <= alpha:
            gap_ok = False
            break
    _criterion(6, "carry-sharpened bound holds and its gap is exactly the carry count",
               ok and gap_ok, f"checked={rep.checked}, gap_spot_checks=300")


def test_criterion_07_remaining_bound_sweeps(bound_reports):
    details = []
    ok = True
    for name in ("plain-sum-bound", "totient-bound", "binom-weight-bound"):
        rep = bound_reports[name]
        details.append(f"{name}: checked={rep.checked}, violations={len(rep.violations)}")
        ok = ok and rep.violations == [] and rep.undetermined == 0 and rep.checked > 0

    # the chain identity behind the plain bound, recomputed directly
    for p in (2, 3, 5):
        for alpha in range(1, 7):
            for n in range(0, 5001, 3):
                lhs = ord_factorial(p, n // p ** (alpha - 1))
                rhs = n // p**alpha + ord_factorial(p, n // p**alpha)
                if lhs != rhs:
                    ok = False
                    details.append(f"chain broken at p={p} alpha={alpha} n={n}")
    _criterion(7, "plain, totient, and binomial-weight bounds hold on the default grids",
               ok, "; ".join(details))


# sha256 of (to_json(), to_markdown()) of each default-grid bound report
_BOUND_REPORT_DIGESTS = {
    "polysum-bound": (
        "4b185f2b689204c071b2882c64546f4ff1bb0889cf8d29faf9a8aeaec4b12688",
        "a0d220cbf1f272d5a32161383684e8625da56e9ef4573109b494039bf8e5cf34",
    ),
    "carry-bound": (
        "09360aeeada2db23085f3f33f5968617bdf5e7ae5aa5137039a364ec110933d5",
        "684777b1276387e0be54706ecf6acb52fa6fabb7dbabaf9986faaca25490b179",
    ),
    "binom-weight-bound": (
        "cf62e5a839b7903d771fc33251008fdbb79f3a8dceda6777fe7b37241d8b570a",
        "793d31ce5f5b67b884fdba8c2ece8c851d195021c4748190a529e08d5ca01be4",
    ),
    "plain-sum-bound": (
        "1d03175b65df8d25bc9259a06cee3f47c56c3943d3b06cbf8d1d408b4d1ee272",
        "c20753b5f4157077d4b784f3872a2cd7aa514388fc2f7f1990809a6e9ee7c0bf",
    ),
    "totient-bound": (
        "b130469733adb7f527bb1517ef270dc588d14d5b68ed496eb72a99f88acf3eb5",
        "b3302bd50da3064b501e12ee8771e897a401049d519ef9791b27a8d455fb6c56",
    ),
}


def test_bound_report_bytes_are_pinned(bound_reports):
    """Criteria 5-7 read counts only; the pins also hold every order, slack and slice row."""
    for name, want in _BOUND_REPORT_DIGESTS.items():
        rep = bound_reports[name]
        got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (rep.to_json(), rep.to_markdown()))
        assert got == want, name


def test_criterion_08_stirling_diff_sweep():
    rep = sweep("stirling-diff-bound")
    alphas = {a for blk in default_grid("stirling-diff-bound") for a in blk["alpha"]}
    ok = (
        rep.violations == []
        and rep.undetermined == 0
        and rep.checked == 38976
        and 3 in alphas
    )
    _criterion(8, "iterated-difference order bound holds via the modular engine",
               ok, f"checked={rep.checked}, violations={len(rep.violations)}")


def test_criterion_09_identity_suites():
    a = identity_sweep("floor-identity", samples=10**4, seed=0)
    b = identity_sweep("split-identity", samples=10**4, seed=0)
    ok = (
        a.checked == a.held == 10**4
        and b.checked == b.held == 10**4
        and a.violations == [] and b.violations == []
    )
    _criterion(9, "floor and split identities hold on 10^4 randomized instances each",
               ok, f"floor held={a.held}, split held={b.held}")


def test_criterion_10_oracle_equivalences():
    # modular m!S(k,m) against exact triangle values, all k<=300, m<=120,
    # with the precision cycling deterministically through 1..20
    rows = {k: row for k, row in stirling_rows(300, 120)}
    facts = [math.factorial(m) for m in range(121)]
    mismatch = None
    for k in range(1, 301):
        row = rows[k]
        for m in range(1, 121):
            exact = facts[m] * (row[m] if m < len(row) else 0)
            for p in (2, 3, 5):
                E = (k + m) % 20 + 1
                got = mstirling_mod(StructuredExponent.plain(k), m, p, E)
                if got != exact % p**E:
                    mismatch = ("mstirling", k, m, p, E)
                    break
            if mismatch:
                break
        if mismatch:
            break

    # structured-tower powers against big-integer exponentiation
    if mismatch is None:
        rng = random.Random(31)
        for _ in range(2000):
            j = rng.randint(0, 50)
            p = rng.choice((2, 3, 5))
            E = rng.randint(1, 12)
            k = StructuredExponent.tower(
                rng.randint(1, 9), rng.choice((2, 3, 5, 7)),
                rng.randint(0, 10), rng.randint(0, 30),
            )
            if j == 0 and k.value() == 0:
                continue
            if pow_mod(j, k, p, E) != pow(j, k.value(), p**E):
                mismatch = ("pow_mod", j, str(k), p, E)
                break

    # carry counts against binomial-coefficient orders, full a,b <= 2000
    if mismatch is None:
        for p in (2, 3, 5, 7):
            ordf = [0] * 4002
            for i in range(1, 4002):
                ordf[i] = ordf[i - 1] + ord_int(p, i)
                if i <= 4001 and ord_factorial(p, i) != ordf[i]:
                    mismatch = ("ordf", p, i)
                    break
            if mismatch:
                break
            for a in range(0, 2001):
                base = ordf[a]
                for b in range(0, 2001):
                    if carries(p, a, b) != ordf[a + b] - base - ordf[b]:
                        mismatch = ("carries", p, a, b)
                        break
                if mismatch:
                    break
            if mismatch:
                break
        # anchor the factorial-order route to direct binomials
        rng = random.Random(37)
        for _ in range(200):
            p = rng.choice((2, 3, 5, 7))
            a, b = rng.randint(0, 2000), rng.randint(0, 2000)
            if carries(p, a, b) != ord_int(p, math.comb(a + b, a)):
                mismatch = ("anchor", p, a, b)
                break

    _criterion(10, "modular kernels agree with independent exact oracles",
               mismatch is None, f"first mismatch: {mismatch}" if mismatch else "all routes agree")


def test_criterion_11_equality_conjecture_report():
    rep1 = sweep("equality-conjecture", jobs=1)
    rep2 = sweep("equality-conjecture", jobs=2)
    deterministic = rep1.to_json() == rep2.to_json()
    accounted = len(rep1.violations) == rep1.checked - rep1.held
    ok = deterministic and accounted and rep1.checked > 40000
    _criterion(
        11,
        "equality conjecture report is deterministic and accounts for every instance",
        ok,
        f"checked={rep1.checked}, equality_rate={rep1.equality_rate:.6f}, "
        f"flagged={rep1.flagged}, violations={len(rep1.violations)}",
    )


def test_criterion_12_bound_comparisons():
    ok = True
    detail = ""
    for p in (2, 3, 5, 7):
        for n in range(2, 10001):
            if lower_bound(p, n) != restated_bound(p, n):
                ok, detail = False, f"split forms differ at p={p}, n={n}"
                break
    if ok and not (lower_bound(3, 100) == 114 and old_bound(3, 100) == 113):
        ok, detail = False, "frozen p=3, n=100 values changed"
    if ok:
        worst = min(
            lower_bound(p, n) - old_bound(p, n)
            for p in (3, 5, 7)
            for n in range(2, 10001)
        )
        if worst < -2:
            ok, detail = False, f"new bound trails old bound by {-worst}"
        else:
            detail = f"min(new - old) = {worst}"
    _criterion(12, "closed-form bound comparisons hold for n up to 10^4", ok, detail)


def test_criterion_13_soft_check_structured_family():
    """Informational only: sampled orders near a structured point.

    Mismatches are logged, never fatal; the formula is suggested by
    observation rather than proven.
    """
    k0 = 28 + 8 * 3**20
    rng = random.Random(2027)
    offsets = {0}
    while len(offsets) < 20:
        offsets.add(rng.randint(-3280, 3280))
    mismatches = []
    for t in sorted(offsets):
        k = k0 + 18 * t
        res = min_stirling_ord(3, 29, StructuredExponent.plain(k))
        if t == 0:
            want = 34
        else:
            want = min(ord_int(3, k - k0) + 12, 34)
        got = res.value
        if got != want:
            mismatches.append((k, got, want))
            print(f"soft check mismatch: k={k}, engine={res.value}, formula={want}")
    _criterion(
        13,
        "sampled orders near the structured point follow the suggested formula "
        "(informational)",
        True,
        f"20 sampled, {len(mismatches)} mismatches",
    )
