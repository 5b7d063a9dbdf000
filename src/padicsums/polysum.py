"""Integer polynomials and alternating binomial sums over residue classes.

The central object is the exact integer

    sum of C(n, k) * (-1)**k * f((k - r) / m)   over 0 <= k <= n, k = r (mod m)

together with its full-range floor variant, where f has integer
coefficients.  Every sum reads one cached row of signed binomials
(-1)**k C(n, k): a residue class is the slice row[r % m::m], summed as one
C-level dot product with its weight values (one table where classes share
them).  alt_sums_upto sums x^l and (x)_l for every l at once with C-level
list passes: a short class term by term, a long class l by l, or from its
sums at r - m by differences.  _diagonal, the running form of the signed
rows, yields every forward difference D^m a(0) of a sequence; it is the one
such kernel, read by those unit shifts, by the Stirling scans
(m! S(k, m) = D^m j^k (0)) and by verify's stirling-diff-bound tables.  Two
exact rewriting identities are checked; the bounds live in verify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul

from .padic import CapacityError


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, ascending powers.

    Trailing zero coefficients are stripped; the zero polynomial is the
    empty tuple.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def monomial(cls, degree: int) -> "IntPolynomial":
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        return cls((0,) * degree + (1,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            if j == 0:
                term = str(abs(c))
            else:
                x = "x" if j == 1 else f"x^{j}"
                term = x if abs(c) == 1 else f"{abs(c)}*{x}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+{term}" if c > 0 else f"-{term}")
        return "".join(parts)


ONE = IntPolynomial((1,))


def binom_exact(n: int, k: int) -> int:
    """C(n, k), with value 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def poly_delta(f: IntPolynomial) -> IntPolynomial:
    """Forward difference x -> f(x+1) - f(x); drops the degree by one.  Its x^i coefficient is sum(C(j, i) a_j) over j > i."""
    cs = f.coeffs
    return IntPolynomial(tuple(sum(math.comb(j, i) * cs[j] for j in range(i + 1, len(cs))) for i in range(len(cs) - 1)))


def binom_poly(l: int) -> IntPolynomial:
    """Falling factorial x(x-1)...(x-l+1), the numerator of C(x, l)."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got l={l}")
    out = [1]
    for i in range(l):
        out = [a - i * b for a, b in zip([0] + out, out + [0])]  # times (x - i)
    return IntPolynomial(tuple(out))


# Largest n of a residue-class sum; it also bounds each cached binomial row.
SUM_CAP = 4096


def _check_sum_args(n: int, m: int):
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")
    if n > SUM_CAP:
        raise CapacityError(f"residue-class sums capped at n <= {SUM_CAP}, got n={n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got m={m}")


def _binomials(n: int) -> tuple[int, ...]:
    """(-1)**k C(n, k) for k = 0..n, each from the one before: C(n, k+1) = C(n, k) (n-k) / (k+1)."""
    row = [1]
    for k in range(n):
        row.append(-row[-1] * (n - k) // (k + 1))
    return tuple(row)


# 64 rows up to n = 1024 hold about 8 MB (the split identity reads 61); a row
# near SUM_CAP holds about 1.75 MB and is rebuilt in a few ms, so 4 stay cached.
_small_rows = lru_cache(maxsize=64)(_binomials)
_large_rows = lru_cache(maxsize=4)(_binomials)


def _comb_row(n: int) -> tuple[int, ...]:
    """The signed row (-1)**k C(n, k) for k = 0..n, from one of two caches bounded in memory."""
    return _small_rows(n) if n <= 1024 else _large_rows(n)


def _diagonal(values):
    """Yield the forward differences D^m a(0) = (-1)**m sum(_comb_row(m)[j] a_j), m = 0, 1, ..., of a_0, a_1, ...

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


def _evaluator(f: IntPolynomial):
    """A fast exact evaluation callable for f (monomials bypass Horner)."""
    cs = f.coeffs
    if not cs:
        return lambda x: 0
    if len(cs) == 1:
        c = cs[0]
        return lambda x: c
    if not any(cs[:-1]):
        l, c = len(cs) - 1, cs[-1]
        if c == 1:
            return lambda x: x**l
        return lambda x: c * x**l
    return f.__call__


def alt_sum(n: int, r: int, m: int, f: IntPolynomial) -> int:
    """Exact value of sum(C(n,k)(-1)**k f((k-r)/m)) over k = r (mod m), 0<=k<=n.

    n above SUM_CAP raises CapacityError.
    """
    _check_sum_args(n, m)
    return sum(map(mul, _comb_row(n)[r % m :: m], map(_evaluator(f), itertools.count(-(r // m)))))


def _class_dot(row, r, m, values, lo):
    """sum(row[k] * values[(k - r)/m - lo]) over k = r (mod m), one C-level dot product."""
    return sum(map(mul, row[r % m :: m], values[-(r // m) - lo :]))


def class_sums(n: int, rs, m: int, w) -> list[int]:
    """alt_sum(n, r, m, w) for each r in rs; w, a weight callable, is tabulated once over the x the classes read.

    The table runs from -(max(rs) // m) to (n - min(rs)) // m; n above SUM_CAP raises CapacityError before w is called.
    """
    _check_sum_args(n, m)
    lo, row = -(max(rs, default=0) // m), _comb_row(n)
    values = list(map(w, range(lo, (n - min(rs, default=0)) // m + 1)))
    return [_class_dot(row, r, m, values, lo) for r in rs]


def alt_sums_upto(n: int, rs, m: int, maxl: int, powers: bool = True, falling: bool = False):
    """alt_sum of x^l and of the falling factorial x(x-1)...(x-l+1), for every l <= maxl and r in rs.

    Returns one (powers, falling) pair of lists indexed by l for each r, with
    None for a family not asked for; n above SUM_CAP raises CapacityError.
    A class of at most maxl/8 terms is short and summed term by term: one
    pass per term, which makes c * w_l(x) for every l by multiplying c by the
    small factors of w.  A longer class is summed l by l, one pass per l,
    unless the class's previous r in rs is r - m: its x is then that r's x
    minus 1, and its sums follow without products: P'_l is the l-th
    difference of P at 0, and F'_l = F_l - l F'_(l-1) since
    (x)_l - (x-1)_l = l (x-1)_(l-1).
    """
    _check_sum_args(n, m)
    row = _comb_row(n)
    families = [f for f, asked in ((False, powers), (True, falling)) if asked]
    last = {}  # start of a long class -> (its latest r, the sums there)
    out = []
    for r in rs:
        start = r % m
        cs = row[start::m]
        short = 8 * len(cs) <= maxl
        prev = last.get(start)
        if short:
            sums = {f: _by_terms(cs, (start - r) // m, maxl, f) for f in families}
        elif prev and prev[0] == r - m:
            sums = {f: _unit_shift(prev[1][f], f) for f in families}
        else:
            sums = {f: _moments(cs, (start - r) // m, maxl, f) for f in families}
        if not short:
            last[start] = (r, sums)
        out.append((sums.get(False), sums.get(True)))
    return out


def _by_terms(cs, x0, maxl, falling):
    """sum(cs[i] * w(x0 + i)) for w = x^l, or the falling factorial (x)_l if falling, and each l <= maxl; one pass per term."""
    acc = [0] * (maxl + 1)
    for x, c in enumerate(cs, x0):
        factors = range(x, x - maxl, -1) if falling else itertools.repeat(x, maxl)
        acc = list(map(add, acc, itertools.accumulate(factors, mul, initial=c)))
    return acc


def _moments(cs, x0, maxl, falling):
    """sum(cs[i] * w(x0 + i)) for w = x^l, or the falling factorial (x)_l if falling, and each l <= maxl; one pass per l."""
    acc, sums = cs, [sum(cs)]
    for l in range(1, maxl + 1):
        lo = x0 - (l - 1) * falling
        acc = list(map(mul, acc, range(lo, lo + len(cs))))
        sums.append(sum(acc))
    return sums


def _unit_shift(sums, falling):
    """Class sums at x - 1 from the class sums at x, l <= len(sums) - 1, without a product of two sums."""
    if not falling:
        return list(_diagonal(sums))
    out = [sums[0]]
    for l in range(1, len(sums)):
        out.append(sums[l] - l * out[-1])
    return out


def alt_floor_sum(n: int, r: int, m: int, f: IntPolynomial) -> int:
    """Exact value of sum(C(n,k)(-1)**k f(floor((k-r)/m))) over all 0<=k<=n.

    n above SUM_CAP raises CapacityError.
    """
    _check_sum_args(n, m)
    return sum(map(mul, _comb_row(n), map(_evaluator(f), ((k - r) // m for k in range(n + 1)))))


def check_floor_identity(n: int, m: int, r: int, f: IntPolynomial) -> bool:
    """Exact identity turning a floor-weighted full sum into a residue-class sum.

    For n >= 1:
        alt_floor_sum(n, r, m, f)
            == - alt_sum(n-1, r-1+m, m, delta f)
    where the right side runs over k = r-1+m (mod m) with argument
    (k - (r-1+m))/m.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    lhs = alt_floor_sum(n, r, m, f)
    rhs = -alt_sum(n - 1, r - 1 + m, m, poly_delta(f))
    return lhs == rhs


def check_split_identity(n: int, m: int, r: int, f: IntPolynomial) -> bool:
    """Exact convolution identity splitting off the constant part of f.

    For n >= 1, with r_j = r - j + m - 1 and df the forward difference:
        alt_sum(n, r, m, f) - f(floor((n-r)/m)) * alt_sum(n, r, m, 1)
            == - sum_{j=0}^{n-1} C(n,j) * alt_sum(j, r, m, 1)
                                       * alt_sum(n-j-1, r_j, m, df)
    Each sum on the right is a dot product; the df sums read one table of df,
    from x = -(r_0 // m) to (n - r) // m - 1, the last x at every j.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    lhs = alt_sum(n, r, m, f) - f((n - r) // m) * alt_sum(n, r, m, ONE)
    lo = -((r + m - 1) // m)
    dfs = list(map(_evaluator(poly_delta(f)), range(lo, (n - r) // m)))
    row, start = _comb_row(n), r % m
    rhs = 0
    for j in range(n):
        a = sum(_comb_row(j)[start::m])
        if a:
            rhs += abs(row[j]) * a * _class_dot(_comb_row(n - j - 1), r - j + m - 1, m, dfs, lo)
    return lhs == -rhs
