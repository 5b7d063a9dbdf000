"""Integer polynomials and exact alternating sums over residue classes."""

import ast
import collections
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from padicsums import (
    CapacityError,
    IntPolynomial,
    alt_floor_sum,
    alt_sum,
    binom_exact,
    binom_poly,
    check_floor_identity,
    check_split_identity,
    poly_delta,
)
from padicsums import polysum, stirling, verify
from padicsums.polysum import ONE, SUM_CAP, _comb_row, alt_sums_upto

ZERO = IntPolynomial(())
X = IntPolynomial((0, 1))


def brute_alt_sum(n, r, m, f):
    return sum(
        (-1) ** k * math.comb(n, k) * f((k - r) // m)
        for k in range(n + 1)
        if (k - r) % m == 0
    )


def brute_alt_floor_sum(n, r, m, f):
    return sum((-1) ** k * math.comb(n, k) * f((k - r) // m) for k in range(n + 1))


def random_poly(rng, max_deg=5):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
    return IntPolynomial(tuple(coeffs))


def test_polynomial_evaluation_and_accessors():
    f = IntPolynomial((1, -2, 0, 1))
    assert f.coeffs == (1, -2, 0, 1)
    assert f.degree == 3
    assert [f(x) for x in (-2, 0, 3)] == [-3, 1, 22]
    assert str(f) == "x^3-2*x+1"
    assert IntPolynomial((1, 2, 3))(10) == 321
    assert IntPolynomial.monomial(2)(7) == 49
    assert IntPolynomial((5,))(-100) == 5
    assert ZERO(3) == 0 and ONE(3) == 1 and X(3) == 3


def test_poly_delta_is_forward_difference():
    assert str(poly_delta(IntPolynomial((1, -2, 0, 1)))) == "3*x^2+3*x-1"
    assert poly_delta(IntPolynomial((7,))) == ZERO
    rng = random.Random(103)
    for _ in range(100):
        f = random_poly(rng)
        g = poly_delta(f)
        for x in range(-4, 5):
            assert g(x) == f(x + 1) - f(x)


def test_binom_poly_is_falling_factorial():
    assert str(binom_poly(3)) == "x^3-3*x^2+2*x"
    assert binom_poly(0) == ONE
    assert binom_poly(1) == X
    for l in range(7):
        f = binom_poly(l)
        for x in range(-6, 12):
            assert f(x) == math.prod(x - i for i in range(l))
        for x in range(l, 12):
            assert f(x) == math.factorial(l) * math.comb(x, l)


def test_binom_exact():
    for n in range(0, 40):
        for k in range(-2, n + 3):
            want = math.comb(n, k) if 0 <= k <= n else 0
            assert binom_exact(n, k) == want
    # the residue-class sums read each signed binomial row built multiplicatively
    for n in (0, 1, 2, 200, SUM_CAP):
        assert _comb_row(n) == tuple((-1) ** k * math.comb(n, k) for k in range(n + 1))


def test_binomial_rows_near_the_cap_stay_bounded_in_memory():
    # 64 cached rows at n = 4033..4096 once held 110.7 MB
    polysum._large_rows.cache_clear()
    tracemalloc.start()
    try:
        for n in range(SUM_CAP - 63, SUM_CAP + 1):
            _comb_row(n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 20 * 2**20
    assert polysum._large_rows.cache_info().currsize == 4
    assert polysum._small_rows.cache_info().maxsize == 64


def test_alt_sum_matches_brute_force():
    rng = random.Random(107)
    for _ in range(300):
        n = rng.randint(0, 50)
        m = rng.randint(1, 9)
        r = rng.randint(-12, 12)
        f = random_poly(rng)
        assert alt_sum(n, r, m, f) == brute_alt_sum(n, r, m, f)


def test_alt_sum_pascal_recurrence():
    rng = random.Random(109)
    for _ in range(200):
        n = rng.randint(1, 40)
        m = rng.randint(1, 9)
        r = rng.randint(-12, 12)
        f = random_poly(rng)
        assert alt_sum(n, r, m, f) == alt_sum(n - 1, r, m, f) - alt_sum(n - 1, r - 1, m, f)


def test_alt_sum_reflection_symmetry():
    """Swapping r for n-r flips the sign by (-1)^(l+n) for monomials."""
    ms = (1, 2, 3, 4, 5, 8, 9, 16, 25, 27)
    for n in range(1, 61, 3):
        for m in ms:
            for l in (0, 1, 3, 8):
                f = IntPolynomial.monomial(l)
                for r in {0, 1, m // 2, m - 1, n % m}:
                    lhs = alt_sum(n, n - r, m, f)
                    rhs = (-1) ** (l + n) * alt_sum(n, r, m, f)
                    assert lhs == rhs, (n, m, l, r)


def test_alt_floor_sum_matches_brute_force():
    rng = random.Random(113)
    for _ in range(300):
        n = rng.randint(0, 50)
        m = rng.randint(1, 9)
        r = rng.randint(-12, 12)
        f = random_poly(rng)
        assert alt_floor_sum(n, r, m, f) == brute_alt_floor_sum(n, r, m, f)


def test_floor_identity_random():
    rng = random.Random(127)
    for _ in range(500):
        n = rng.randint(1, 60)
        m = rng.randint(1, 9)
        r = rng.randint(-12, 12)
        f = random_poly(rng)
        assert check_floor_identity(n, m, r, f)


def test_split_identity_random():
    rng = random.Random(131)
    for _ in range(500):
        n = rng.randint(1, 60)
        m = rng.randint(1, 9)
        r = rng.randint(-12, 12)
        f = random_poly(rng)
        assert check_split_identity(n, m, r, f)


def test_identities_edge_cases():
    # constants, m = 1, and extreme residues
    for f in (ZERO, ONE, IntPolynomial((-4,)), binom_poly(5)):
        for n in (1, 2, 7):
            for m in (1, 2, 9):
                for r in (-12, 0, m - 1, 12):
                    assert check_floor_identity(n, m, r, f)
                    assert check_split_identity(n, m, r, f)


def test_alt_sum_small_closed_forms():
    # m = 1 collapses to a plain alternating binomial sum; degree below n
    # kills it, degree n leaves the sign and factorial
    for n in range(1, 10):
        for l in range(0, n):
            assert alt_sum(n, 0, 1, IntPolynomial.monomial(l)) == 0
        assert alt_sum(n, 0, 1, IntPolynomial.monomial(n)) == (-1) ** n * math.factorial(n)


def test_alt_sums_upto_shared_classes_match_direct_sums():
    """Every r of a cell equals a one-r pass and alt_sum, whether its class is long or short."""
    rng = random.Random(137)
    polys = {l: (IntPolynomial.monomial(l), binom_poly(l)) for l in range(13)}
    seen = {"long": 0, "short": 0, "above n": 0}
    for _ in range(250):
        p, alpha = rng.choice((2, 3, 5, 7)), rng.randint(0, 3)
        m, n, maxl = p**alpha, rng.randint(0, 80), rng.randint(0, 12)
        # a few classes, each met at several r (t of both signs), in no order
        rs = [rng.randrange(m) + m * rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        rs += [r + m * rng.randint(-4, 4) for r in rs for _ in range(rng.randint(0, 3))]
        rng.shuffle(rs)
        cells = alt_sums_upto(n, rs, m, maxl, True, True)
        assert len(cells) == len(rs)
        firsts = set()
        for r, cell in zip(rs, cells):
            start = r % m
            terms = len(range(start, n + 1, m))
            if start > n:
                seen["above n"] += 1
            elif start in firsts:
                seen["long" if 8 * terms > maxl else "short"] += 1
            firsts.add(start)
            assert cell == alt_sums_upto(n, [r], m, maxl, True, True)[0], (p, alpha, n, r, maxl)
            pows, ffs = cell
            for l in range(maxl + 1):
                assert pows[l] == alt_sum(n, r, m, polys[l][0]), (p, alpha, n, r, l)
                assert ffs[l] == alt_sum(n, r, m, polys[l][1]), (p, alpha, n, r, l)
    assert min(seen.values()) >= 20, seen


def test_alt_sums_upto_families_asked_for():
    assert alt_sums_upto(6, [0, 3], 3, 2, powers=False, falling=True)[1][0] is None
    assert alt_sums_upto(6, [0, 3], 3, 2)[1][1] is None
    assert alt_sums_upto(6, [], 3, 2) == []


def _routes(monkeypatch):
    """Count the calls of each alt_sums_upto route: term by term, l by l, unit shift."""
    seen = collections.Counter()
    for name in ("_by_terms", "_moments", "_unit_shift"):
        real = getattr(polysum, name)

        def counted(*args, _real=real, _name=name):
            seen[_name] += 1
            return _real(*args)

        monkeypatch.setattr(polysum, name, counted)
    return seen


def _assert_cells_are_alt_sums(n, rs, m, maxl, cells, powers=True, falling=True):
    assert len(cells) == len(rs)
    for r, (pows, ffs) in zip(rs, cells):
        assert (pows is None, ffs is None) == (not powers, not falling)
        for l in range(maxl + 1):
            if powers:
                assert pows[l] == alt_sum(n, r, m, IntPolynomial.monomial(l)), (n, r, m, l)
            if falling:
                assert ffs[l] == alt_sum(n, r, m, binom_poly(l)), (n, r, m, l)
        assert len(pows if powers else ffs) == maxl + 1


@pytest.mark.parametrize(
    "maxl, routes",
    [
        # every class of n = 5 modulo 3 has 2 terms: 8*2 == maxl is short,
        (16, {"_by_terms": 30}),
        # and 8*2 == maxl + 1 is long, shifted one step at a time after its first r
        (15, {"_moments": 6, "_unit_shift": 24}),
    ],
)
def test_alt_sums_upto_at_the_short_long_boundary(maxl, routes, monkeypatch):
    n, m, rs = 5, 3, list(range(-6, 9))
    seen = _routes(monkeypatch)
    cells = alt_sums_upto(n, rs, m, maxl, True, True)
    assert dict(seen) == routes
    _assert_cells_are_alt_sums(n, rs, m, maxl, cells)


@pytest.mark.parametrize("maxl, short", [(10, False), (64, True)])
def test_alt_sums_upto_unsorted_repeated_and_gapped_r(maxl, short, monkeypatch):
    # classes of n = 40 modulo 5 have 8 or 9 terms; the r of class 2 step by
    # m, 2m, -m, 0, -4m and m, and those of class 4, met between them, by m
    n, m = 40, 5
    rs = [2, 7, 17, 12, 12, -8, 4, -3, 9]
    seen = _routes(monkeypatch)
    cells = alt_sums_upto(n, rs, m, maxl, True, True)
    if short:
        assert dict(seen) == {"_by_terms": 2 * len(rs)}
    else:
        # unit steps 2 -> 7, -8 -> -3 (class 2) and 4 -> 9 (class 4); every other r, 17, 12, 12 and -8 too, is summed l by l
        assert dict(seen) == {"_moments": 12, "_unit_shift": 6}
    _assert_cells_are_alt_sums(n, rs, m, maxl, cells)


def test_one_forward_difference_kernel():
    # the Stirling scans, the stirling-diff-bound tables and the unit shift of x^l sums read one _diagonal;
    # poly_delta builds its coefficients itself, so IntPolynomial keeps no Taylor shift
    found = []
    for path in sorted(Path(polysum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_diagonal":
                found.append(f"{path.name} _diagonal")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.name} {node.name}.shift" for f in node.body if getattr(f, "name", None) == "shift"]
    assert found == ["polysum.py _diagonal"]
    assert stirling._diagonal is verify._diagonal is polysum._diagonal
    assert list(polysum._diagonal([0, 1, 8, 27])) == [0, 1, 6, 6]  # D^m j^3 at 0 is m! S(3, m)


def test_alt_sums_upto_negative_r_empty_classes_and_maxl_0():
    # n = 4 modulo 7: classes 5 and 6 are empty, the others hold one term
    for maxl in (0, 1, 2, 5):
        rs = list(range(-15, 16))
        _assert_cells_are_alt_sums(4, rs, 7, maxl, alt_sums_upto(4, rs, 7, maxl, True, True))
    rs = [6, -1, 13, 5, 2]
    assert [c for c, _ in alt_sums_upto(4, rs, 7, 3)[:4]] == [[0] * 4] * 4
    _assert_cells_are_alt_sums(0, rs, 1, 0, alt_sums_upto(0, rs, 1, 0, True, True))


@pytest.mark.parametrize("n, m, maxl", [(5, 3, 16), (5, 3, 15), (40, 5, 10), (4, 7, 0)])
def test_alt_sums_upto_each_family_alone(n, m, maxl):
    rs = [2, 7, 17, 12, 12, -8, 4, -3, 9, 3, 8]
    both = alt_sums_upto(n, rs, m, maxl, True, True)
    powers = alt_sums_upto(n, rs, m, maxl, True, False)
    falling = alt_sums_upto(n, rs, m, maxl, False, True)
    assert powers == [(pows, None) for pows, _ in both]
    assert falling == [(None, ffs) for _, ffs in both]
    _assert_cells_are_alt_sums(n, rs, m, maxl, powers, falling=False)
    _assert_cells_are_alt_sums(n, rs, m, maxl, falling, powers=False)


def test_alt_sums_upto_keeps_nothing_after_return():
    # l = 0..1024 at m = 125: every class is short, summed term by term; the
    # cells hold over 1 MB, and once they are dropped nothing of the call stays
    n, m, maxl, rs = 200, 125, 1024, [-130, -10, 0, 5, 124, 130, 250]
    alt_sums_upto(n, rs, m, 1)  # the binomial row is cached before tracing
    tracemalloc.start()
    try:
        cells = alt_sums_upto(n, rs, m, maxl, True, True)
        peak = tracemalloc.get_traced_memory()[1]
        del cells
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak > 2**20 and held < 2**16


def test_residue_class_sums_refuse_n_over_the_cap():
    n = SUM_CAP + 1
    for call in (
        lambda: alt_sum(n, 0, 2, ONE),
        lambda: alt_floor_sum(n, 0, 2, ONE),
        lambda: alt_sums_upto(n, [0], 2, 3),
        lambda: check_split_identity(n, 2, 0, X),
        lambda: check_floor_identity(n, 2, 0, X),
    ):
        with pytest.raises(CapacityError, match=f"capped at n <= {SUM_CAP}, got n={n}"):
            call()
    # the cap itself is allowed: the class of r = 0 modulo SUM_CAP is k = 0 and k = SUM_CAP
    assert alt_sum(SUM_CAP, 0, SUM_CAP, ONE) == 2
