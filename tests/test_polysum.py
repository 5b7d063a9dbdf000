"""Integer polynomials and exact alternating sums over residue classes."""

import math
import random
import tracemalloc

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
from padicsums import polysum
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


def test_shift_property():
    rng = random.Random(101)
    for _ in range(100):
        f = random_poly(rng)
        t = rng.randint(-6, 6)
        g = f.shift(t)
        for x in range(-5, 6):
            assert g(x) == f(x + t)


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
    """Every r of a cell equals a one-r pass and alt_sum, whether its class is shifted or summed again."""
    rng = random.Random(137)
    polys = {l: (IntPolynomial.monomial(l), binom_poly(l)) for l in range(13)}
    seen = {"shifted": 0, "summed again": 0, "above n": 0}
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
                seen["shifted" if 2 * terms > maxl else "summed again"] += 1
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
