"""Stirling numbers of the second kind, exact and modulo p**E, and the
minimum order engine.

The quantity of interest is

    min over m >= n of ord_p(m! * S(k, m))

for k far too large to expand S(k, m) exactly.  m! S(k, m) is the m-th
forward difference of j**k at 0, so a scan reads every m off one
difference table of j**k mod p**E, and only the residue of k modulo the
Carmichael number of p**E is ever needed.  For the geometric family of
exponents k = (p-1) p**L + d the minimum stabilizes once L is large
enough, and the stabilized value can be certified from exact integer scans.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from operator import mul

from .exponents import StructuredExponent, as_exponent, power_rule
from .padic import CapacityError, PrecisionError, check_prime, class_bound, ord_factorial, ord_nonzero
from .polysum import _comb_row, _diagonal

STIRLING_CAP = 10**4
DEFAULT_WINDOW = 60
WINDOW_STEP = 30
STABLE_RUN = 25
DEFAULT_RETRIES = 4
# Largest m a minimum-order scan may read.  The stable-family scans stop by m = 87, 134, 174, 146
# at p = 2, 3, 5, 7 (n <= 80, 120, 120, 60).  A tower scan to the cap at the default precision
# takes about 1.0 s (p=3, n=964) and 0.34 s at n=482, mostly the difference table's m**2/2
# subtractions of numbers whose size grows with E, so with m.
SCAN_CAP = 1024


def _check_stirling_cap(k: int):
    if k > STIRLING_CAP:
        raise CapacityError(f"exact Stirling numbers capped at k <= {STIRLING_CAP}, got k={k}")


def _band(d: int):
    """Yield S(j + d, j), j = 0, 1, ...: step j makes band[t] = S(j + t, j), t <= d, from S(j - 1 + t, j - 1)."""
    band = [1] + [0] * d  # S(t, 0)
    for j in itertools.count(1):
        yield band[d]
        acc = 0
        for t, s in enumerate(band):
            acc = j * acc + s  # S(j + t, j) = j S(j + t - 1, j) + S(j + t - 1, j - 1)
            band[t] = acc


def stirling_exact(k: int, m: int) -> int:
    """S(k, m) off the band of _band(k - m): m(k - m + 1) steps on numbers at most S(k, m)."""
    if k < 0 or m < 0:
        raise ValueError(f"need k, m >= 0, got k={k}, m={m}")
    _check_stirling_cap(k)
    return next(itertools.islice(_band(k - m), m, None)) if m <= k else 0


def stirling_rows(k_max: int, m_max: int):
    """Yield (k, row) for k = 0..k_max with row[j] = S(k, j), j <= min(k, m_max)."""
    _check_stirling_cap(k_max)
    row = [1]
    yield 0, row[:]
    for i in range(1, k_max + 1):
        hi = min(i, m_max)
        if hi >= len(row):
            row.append(0)
        for j in range(hi, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
        yield i, row[:]


@functools.cache
def _least_factors():
    """lf[j], the least prime factor of j for 2 <= j <= SCAN_CAP, and lf[j] = j for j < 2: sieved on first use."""
    lf = list(range(SCAN_CAP + 1))
    for q in range(2, math.isqrt(SCAN_CAP) + 1):
        if lf[q] == q:
            for j in range(q * q, SCAN_CAP + 1, q):
                lf[j] = min(lf[j], q)
    return tuple(lf)


def _powers(k, p: int, E: int):
    """Yield power_rule(k, p, E)(j), j**k mod p**E, for j = 0, 1, 2, ...

    0, 1, a prime unit and every multiple of p take the rule, one pow each.
    A composite unit j <= SCAN_CAP with least prime factor q takes
    q**k (j/q)**k mod p**E from the powers already yielded: both factors are
    units, so the rule raises both to its one unit exponent.  Past SCAN_CAP,
    where the least-factor table ends, every j takes the rule.
    """
    rule, M, lf = power_rule(k, p, E), p**E, _least_factors()
    done = []
    for j, q in enumerate(lf):
        done.append(done[q] * done[j // q] % M if q < j and j % p else rule(j))
        yield done[j]
    yield from map(rule, itertools.count(len(lf)))


def mstirling_scan(k, p: int, E: int):
    """Yield m! S(k, m) mod p**E for m = 0, 1, 2, ... from one difference table.

    m! S(k, m) is the m-th forward difference of j**k at 0, so a scan over
    consecutive m reads each power once, from _powers (one pow per prime
    unit and multiple of p, a product per composite unit), and O(m)
    additions per new m.
    """
    M = p**E
    return (x % M for x in _diagonal(_powers(k, p, E)))


def mstirling_mod(k, m: int, p: int, E: int) -> int:
    """m! * S(k, m) modulo p**E, in [0, p**E), for a possibly huge structured exponent k.

    The surjection count sum((-1)**(m-j) C(m, j) j**k), (-1)**m times the exact
    signed binomial row dotted with the powers, reduced once: a route apart
    from mstirling_scan's difference table and its products of powers, with
    one pow per j through power_rule.  m is capped at SCAN_CAP.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got m={m}")
    power = power_rule(k, p, E)
    check_scan_cap(m)
    return (-1) ** m * sum(map(mul, _comb_row(m), map(power, range(m + 1)))) % p**E


def default_precision(p: int, n: int) -> int:
    """Working precision: a proven cap on certified minima for odd p, plus margin.

    The cap floor((n-1)(1 + 1/(p-1) + 1/(p-1)**2)) is used as a sizing
    heuristic for every p; the engine doubles the precision on demand.
    """
    q = p - 1
    return max(1, (n - 1) * (q * q + q + 1) // (q * q)) + 8


@dataclass(frozen=True)
class StableParams:
    """Stabilization data for the family k = (p-1) p**L + d.

    N is the guaranteed-bound threshold, N0 the order of the first nonzero
    family sum, L0 the minimum order over the scan, m0 the smallest m
    attaining it.  The family value L0 applies to every L >= height.
    """

    N: int
    N0: int
    L0: int
    m0: int
    m_scanned: tuple[int, int]

    @property
    def height(self) -> int:
        """max(N, N0), the smallest family height L at which L0 applies."""
        return max(self.N, self.N0)


@dataclass(frozen=True)
class EpResult:
    """Result of a minimum-order scan.

    value is the minimum order found; on a PrecisionError's partial result
    it is the floor E, the precision at which every term vanished.
    """

    value: int
    m_scanned: tuple[int, int]
    certificate: str  # "exact-finite-k" | "stable-family" | "heuristic-window"
    witness_m: int | None
    precision: int
    stable: StableParams | None = None

    @property
    def certified(self) -> bool:
        """Every certificate but the window heuristic proves the minimum."""
        return self.certificate != "heuristic-window"


def check_scan_cap(m: int):
    """Refuse a scan that would read past m = SCAN_CAP."""
    if m > SCAN_CAP:
        raise CapacityError(f"Stirling scans capped at m <= {SCAN_CAP}, got m={m}")


def _scan_min(p, n, values, m_hi, E, tail=None):
    """Scan the orders of values[m], m >= n, skipping zeros; returns (best, witness, first nonzero order, hi).

    tail(m) floors every order from m on: the scan stops after the first m with tail(m+1) > best, or >= E
    while all vanished mod p**E.  Else it reads [n, m_hi], extended by WINDOW_STEP while best moved in the
    last STABLE_RUN terms.  hi is the last m read; m_hi and each next m are held to SCAN_CAP.
    """
    check_scan_cap(m_hi)
    best = witness = first = None
    last_change = n
    hi = m_hi
    for m, r in enumerate(values):
        if m < n:
            continue
        if r:
            v = ord_nonzero(p, r)
            if first is None:
                first = v
            if best is None or v < best:
                best, witness, last_change = v, m, m
        if tail is not None:
            if tail(m + 1) > (E - 1 if best is None else best):  # a vanished term's order is >= E
                return best, witness, first, m
            hi = m + 1
        elif m >= hi:
            if last_change <= hi - STABLE_RUN:
                break
            hi += WINDOW_STEP
        check_scan_cap(hi)
    return best, witness, first, hi


def _family_tail(p, d):
    """tail(m) <= ord_p(S_m) for the family sums S_m = sum(C(m,j)(-1)**j j**d, p not | j), never decreasing in m.

    S_m = +-m! S((p-1)p**L + d, m) mod p**(L+1) for every L, so ord_p(S_m) >= ord_p(m!).  For m > d,
    S_m = -p**d sum(C(m,k)(-1)**k (k/p)**d, k = 0 mod p), so ord_p(S_m) >= d + ord_p(floor(m/p)!)
    by Sun and Davis, Trans. Amer. Math. Soc. 359 (2007), with alpha = 1.
    """
    return lambda m: max(ord_factorial(p, m), d + class_bound(p, 1, m) if m > d else 0)


def _min_ord(p, n, k, precision, m_hi, tail, certificate):
    """min ord_p(m! S(k, m)) over m >= n by _scan_min mod p**E, E = min(E0 << i, E_cap) for i <= DEFAULT_RETRIES.

    Repeated E are dropped.  E_cap = default_precision << DEFAULT_RETRIES also caps the start E0.
    """
    E0 = default_precision(p, n) if precision is None else precision
    if E0 < 1:
        raise ValueError(f"precision must be >= 1, got {E0}")
    E_cap = default_precision(p, n) << DEFAULT_RETRIES
    if E0 > E_cap:
        raise CapacityError(f"precision capped at {E_cap} for p={p}, n={n}, got {E0}")
    ladder = sorted({min(E0 << i, E_cap) for i in range(DEFAULT_RETRIES + 1)})
    for retries, E in enumerate(ladder):
        best, witness, _, hi = _scan_min(p, n, mstirling_scan(k, p, E), m_hi, E, tail)
        if best is not None:
            break
    res = EpResult(
        value=E if best is None else best,
        m_scanned=(n, hi),
        certificate="heuristic-window" if best is None else certificate,
        witness_m=witness,
        precision=E,
    )
    if best is None:
        raise PrecisionError(
            f"every term for m in [{n}, {hi}] is divisible by {p}**{E}; "
            f"precision cap reached after {retries} retries",
            partial=res,
        )
    return res


def min_stirling_ord(
    p: int,
    n: int,
    k,
    window: int = DEFAULT_WINDOW,
    precision: int | None = None,
) -> EpResult:
    """Minimum of ord_p(m! S(k, m)) over m >= n, scanned modulo p**E.

    A materializable k is scanned until ord_p((m+1)!) passes the minimum or to m = k, as S(k, m) is an
    integer and 0 past k: exact.  That tail is 0 below p, so no such scan stops before min(k, p - 1).
    Only a tower past MATERIALIZE_CAP reads [n, n+window], extended while the minimum moves: a heuristic.
    """
    check_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    k = as_exponent(k)
    if k.materializable and k.value() < n:
        raise ValueError(f"k must be >= n, got k={k} < n={n}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if k.materializable:
        top = k.value()
        tail = lambda m: ord_factorial(p, m) if m <= top else math.inf  # noqa: E731
        return _min_ord(p, n, k, precision, max(n, min(top, p - 1)), tail, "exact-finite-k")
    return _min_ord(p, n, k, precision, n + window, None, "heuristic-window")


def stable_params(p: int, n: int, d: int | None = None) -> StableParams:
    """Exact scan of the family sums S_m = sum(C(m,j)(-1)**j j**d, p not | j).

    These are the L-independent parts of (-1)**m m! S((p-1)p**L + d, m);
    the discarded parts are divisible by p**(L+1).  The scan starts at
    m = n and stops once _family_tail rules out a lower S_m further on.
    """
    check_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    if d is None:
        d = n - 1
    if d < 0:
        raise ValueError(f"d must be >= 0, got d={d}")
    N = n - 1 + n // (p * (p - 1))
    family = (j**d if j % p else 0 for j in itertools.count())
    L0, m0, N0, hi = _scan_min(p, n, _diagonal(family), n, math.inf, _family_tail(p, d))
    return StableParams(N=N, N0=N0, L0=L0, m0=m0, m_scanned=(n, hi))


def stable_min_ord(
    p: int,
    n: int,
    L: int | None = None,
    d: int | None = None,
    precision: int | None = None,
) -> EpResult:
    """Certified minimum order for the family exponent k = (p-1) p**L + d.

    L defaults to max(N, N0), the smallest height at which both the
    stabilization and the bound threshold are guaranteed.  The engine scan
    stops by the family tail, since its terms are +-S_m mod p**(L+1) and
    L >= L0, and must agree with the exact family value.
    """
    params = stable_params(p, n, d=d)
    floor_L = params.height
    if L is None:
        L = floor_L
    elif L < floor_L:
        raise ValueError(f"L={L} is below the stabilization threshold max(N, N0)={floor_L}")
    k = StructuredExponent(p - 1, p, L, n - 1 if d is None else d)
    res = _min_ord(p, n, k, precision, n, _family_tail(p, k.d), "stable-family")
    if res.value != params.L0:
        raise AssertionError(
            f"engine minimum {res.value} disagrees with exact family value {params.L0} "
            f"(p={p}, n={n}, k={k})"
        )
    return replace(res, stable=params)
