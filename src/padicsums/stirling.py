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

import itertools
from dataclasses import dataclass

from .exponents import StructuredExponent, as_exponent, power_rule
from .padic import CapacityError, check_prime, ord_nonzero

STIRLING_CAP = 10**4
DEFAULT_WINDOW = 60
WINDOW_STEP = 30
STABLE_RUN = 25
DEFAULT_RETRIES = 4


class PrecisionError(Exception):
    """All scanned terms stayed indistinguishable from zero at the precision cap.

    Carries the partial result, whose value is a floor, on the ``partial`` attribute.
    """

    def __init__(self, message: str, partial: EpResult):
        super().__init__(message)
        self.partial = partial


def stirling_exact(k: int, m: int) -> int:
    """S(k, m), read off the last row of stirling_rows(k, m)."""
    if k < 0 or m < 0:
        raise ValueError(f"need k, m >= 0, got k={k}, m={m}")
    for _, row in stirling_rows(k, m):
        pass
    return row[m] if m <= k else 0


def stirling_rows(k_max: int, m_max: int):
    """Yield (k, row) for k = 0..k_max with row[j] = S(k, j), j <= min(k, m_max)."""
    if k_max > STIRLING_CAP:
        raise CapacityError(f"exact Stirling numbers capped at k <= {STIRLING_CAP}, got k={k_max}")
    row = [1]
    yield 0, row[:]
    for i in range(1, k_max + 1):
        hi = min(i, m_max)
        if hi >= len(row):
            row.append(0)
        for j in range(hi, 0, -1):
            row[j] = j * row[j] + (row[j - 1] if j - 1 < len(row) else 0)
        row[0] = 0
        yield i, row[:]


def _diagonal(values):
    """Yield the forward differences D^m a(0), m = 0, 1, ..., of a_0, a_1, ...

    row[i] holds D^i a(m-i), so each new a_m costs m subtractions.  Exact
    integers stay exact; a caller working mod M reduces what it reads.
    """
    row = []
    for cur in values:
        for i, prev in enumerate(row):
            row[i] = cur
            cur -= prev
        row.append(cur)
        yield cur


def mstirling_scan(k, p: int, E: int):
    """Yield m! S(k, m) mod p**E for m = 0, 1, 2, ... from one difference table.

    m! S(k, m) is the m-th forward difference of j**k at 0, so a scan over
    consecutive m needs each power once and O(m) additions per new m.
    """
    M = p**E
    return (x % M for x in _diagonal(map(power_rule(k, p, E), itertools.count())))


def mstirling_mod(k, m: int, p: int, E: int) -> int:
    """m! * S(k, m) modulo p**E, in [0, p**E), for a possibly huge structured exponent k.

    Uses the surjection count sum(C(m,j) (-1)**(m-j) j**k) in O(m) terms.
    Binomials are carried incrementally as (u / w) * p**t with units u, w,
    and the sum as a fraction over w, so dividing by j stays legal in
    Z/p**E and costs one modular inverse in all.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got m={m}")
    M = p**E
    ppow = [1]
    for _ in range(E - 1):
        ppow.append(ppow[-1] * p)

    u, w, t = 1, 1, 0  # C(m, j) = u / w * p**t; the sum so far is total / w
    total = 0
    sign = 1 if m % 2 == 0 else -1  # (-1)**(m-j) at j = 0
    for j, pw in enumerate(map(power_rule(k, p, E), range(m + 1))):
        if j:
            num = m - j + 1
            while num % p == 0:
                num //= p
                t += 1
            den = j
            while den % p == 0:
                den //= p
                t -= 1
            u = u * num % M
            if den != 1:
                w = w * den % M
                total = total * den % M
        if pw and t < E:
            total = (total + sign * (u * ppow[t] % M * pw)) % M
        sign = -sign
    return total * pow(w, -1, M) % M


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


def _scan_min(p, n, values, m_hi, adaptive):
    """Scan the orders of values[m], m >= n, skipping zeros; returns (best, witness, first nonzero order, hi).

    hi is the last m read: m_hi, or later when adaptive and best moved within STABLE_RUN terms.
    """
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
        if m >= hi:
            if not (adaptive and last_change > hi - STABLE_RUN):
                break
            hi += WINDOW_STEP
    return best, witness, first, hi


def min_stirling_ord(
    p: int,
    n: int,
    k,
    window: int = DEFAULT_WINDOW,
    precision: int | None = None,
) -> EpResult:
    """Minimum of ord_p(m! S(k, m)) over m >= n, scanned modulo p**E.

    When k is materializable and k <= n + window the scan covers every m
    up to k (terms beyond vanish identically), so the result is exact and
    certified.  Otherwise a finite window [n, n+window] is scanned,
    extended while the running minimum keeps moving, and the result is a
    heuristic unless certified through the stable family path.  Whenever
    every scanned term is indistinguishable from zero the precision is
    doubled, up to DEFAULT_RETRIES times; a larger precision gives more
    headroom.
    """
    check_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    k = as_exponent(k)
    if k.materializable and k.value() < n:
        raise ValueError(f"k must be >= n, got k={k} < n={n}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    exact_path = k.materializable and k.value() <= n + window
    E0 = default_precision(p, n) if precision is None else precision
    if E0 < 1:
        raise ValueError(f"precision must be >= 1, got {E0}")
    m_hi = k.value() if exact_path else n + window
    for E in (E0 << i for i in range(DEFAULT_RETRIES + 1)):
        best, witness, _, hi = _scan_min(p, n, mstirling_scan(k, p, E), m_hi, adaptive=not exact_path)
        if best is not None:
            return EpResult(
                value=best,
                m_scanned=(n, hi),
                certificate="exact-finite-k" if exact_path else "heuristic-window",
                witness_m=witness,
                precision=E,
            )
    partial = EpResult(
        value=E,
        m_scanned=(n, hi),
        certificate="heuristic-window",
        witness_m=None,
        precision=E,
    )
    raise PrecisionError(
        f"every term for m in [{n}, {hi}] is divisible by {p}**{E}; "
        f"precision cap reached after {DEFAULT_RETRIES} retries",
        partial=partial,
    )


def stable_params(
    p: int,
    n: int,
    m_window: int = DEFAULT_WINDOW,
    d: int | None = None,
) -> StableParams:
    """Exact scan of the family sums S_m = sum(C(m,j)(-1)**j j**d, p not | j).

    These are the L-independent parts of (-1)**m m! S((p-1)p**L + d, m);
    the discarded parts are divisible by p**(L+1).  The scan starts at
    m = n and extends adaptively while the running minimum keeps moving.
    """
    check_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    if m_window < 0:
        raise ValueError(f"m_window must be >= 0, got {m_window}")
    if d is None:
        d = n - 1
    if d < 0:
        raise ValueError(f"d must be >= 0, got d={d}")
    N = n - 1 + n // (p * (p - 1))
    family = (j**d if j % p else 0 for j in itertools.count())
    L0, m0, N0, hi = _scan_min(p, n, _diagonal(family), n + m_window, adaptive=True)
    if N0 is None:
        raise ValueError(f"every family sum for m in [{n}, {hi}] vanished (p={p}, d={d})")
    return StableParams(N=N, N0=N0, L0=L0, m0=m0, m_scanned=(n, hi))


def stable_min_ord(
    p: int,
    n: int,
    L: int | None = None,
    d: int | None = None,
    window: int = DEFAULT_WINDOW,
    precision: int | None = None,
) -> EpResult:
    """Certified minimum order for the family exponent k = (p-1) p**L + d.

    L defaults to max(N, N0), the smallest height at which both the
    stabilization and the bound threshold are guaranteed.  The engine scan
    is cross-checked against the exact family value and must agree.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    params = stable_params(p, n, m_window=window, d=d)
    floor_L = params.height
    if L is None:
        L = floor_L
    elif L < floor_L:
        raise ValueError(f"L={L} is below the stabilization threshold max(N, N0)={floor_L}")
    k = StructuredExponent.tower(p - 1, p, L, n - 1 if d is None else d)
    eng_window = max(window, params.m0 - n + STABLE_RUN)
    res = min_stirling_ord(p, n, k, window=eng_window, precision=precision)
    if res.value != params.L0:
        raise AssertionError(
            f"engine minimum {res.value} disagrees with exact family value {params.L0} "
            f"(p={p}, n={n}, k={k})"
        )
    return EpResult(
        value=res.value,
        m_scanned=res.m_scanned,
        certificate="stable-family",
        witness_m=res.witness_m,
        precision=res.precision,
        stable=params,
    )
