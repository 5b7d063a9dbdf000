"""Integer polynomials and alternating binomial sums over residue classes.

The central object is the exact integer

    sum of C(n, k) * (-1)**k * f((k - r) / m)   over 0 <= k <= n, k = r (mod m)

together with its full-range floor variant, where f has integer
coefficients.  Two exact rewriting identities for these sums are checked
term by term; the order bounds themselves live in the verifier module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

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

    def shift(self, t: int) -> "IntPolynomial":
        """The polynomial x -> f(x + t)."""
        n = len(self.coeffs)
        out = [0] * n
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            tp = 1
            for i in range(j, -1, -1):
                out[i] += a * math.comb(j, i) * tp
                tp *= t
        return IntPolynomial(tuple(out))

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
    """Forward difference x -> f(x+1) - f(x); drops the degree by one."""
    return IntPolynomial(tuple(a - b for a, b in zip(f.shift(1).coeffs, f.coeffs)))


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
    """C(n, k) for k = 0..n, each from the one before: C(n, k+1) = C(n, k) (n-k) / (k+1)."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(row)


# 64 rows up to n = 1024 hold about 8 MB (the split identity reads 61); a row
# near SUM_CAP holds about 1.75 MB and is rebuilt in a few ms, so 4 stay cached.
_small_rows = lru_cache(maxsize=64)(_binomials)
_large_rows = lru_cache(maxsize=4)(_binomials)


def _comb_row(n: int) -> tuple[int, ...]:
    """C(n, k) for k = 0..n, from one of two caches bounded in memory."""
    return _small_rows(n) if n <= 1024 else _large_rows(n)


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
    start = r % m
    if start > n:
        return 0
    ev = _evaluator(f)
    row = _comb_row(n)
    x = (start - r) // m
    total = 0
    for k in range(start, n + 1, m):
        term = row[k] * ev(x)
        total = total - term if k & 1 else total + term
        x += 1
    return total


def alt_sums_upto(n: int, rs, m: int, maxl: int, powers: bool = True, falling: bool = False):
    """alt_sum of x^l and of the falling factorial x(x-1)...(x-l+1), for every l <= maxl and r in rs.

    Returns one (powers, falling) pair of lists indexed by l for each r, with
    None for a family not asked for; n above SUM_CAP raises CapacityError.
    Each residue class is summed directly at its first r in rs.  A later r of
    the class has x' = x - t with t = (r - r0)/m, so its sums follow exactly
    from those at r0: P'_l = sum C(l,j) (-t)^(l-j) P_j by the binomial theorem,
    and F'_l = sum C(l,j) (-t)_(l-j) F_j by Vandermonde's identity.  The shift
    costs about maxl**2/2 products and a direct pass maxl per term, so a class
    is shifted only when it has more than maxl/2 terms.
    """
    _check_sum_args(n, m)
    row = _comb_row(n)
    first = {}  # class start -> (r0, its sums)
    out = []
    for r in rs:
        start = r % m
        if start > n:
            out.append(([0] * (maxl + 1) if powers else None, [0] * (maxl + 1) if falling else None))
            continue
        ks = range(start, n + 1, m)
        if start in first and 2 * len(ks) > maxl:
            r0, (pows, ffs) = first[start]
            t = (r - r0) // m
            out.append((_shifted(pows, t, False) if powers else None, _shifted(ffs, t, True) if falling else None))
            continue
        cs = [-row[k] if k & 1 else row[k] for k in ks]
        x0 = (start - r) // m
        sums = (
            _moments(cs, x0, maxl, False) if powers else None,
            _moments(cs, x0, maxl, True) if falling else None,
        )
        first.setdefault(start, (r, sums))
        out.append(sums)
    return out


def _moments(cs, x0, maxl, falling):
    """sum(cs[i] * w(x0 + i)) for w = x^l, or the falling factorial (x)_l if falling, and each l <= maxl."""
    acc, sums = cs, [sum(cs)]
    for l in range(1, maxl + 1):
        lo = x0 - (l - 1) * falling
        acc = list(map(mul, acc, range(lo, lo + len(cs))))
        sums.append(sum(acc))
    return sums


@lru_cache(maxsize=256)
def _shift_rows(t: int, maxl: int, falling: bool) -> tuple[tuple[int, ...], ...]:
    """Row l <= maxl: C(l,j) (-t)^(l-j), or C(l,j) (-t)_(l-j) if falling, for j <= l."""
    steps = [1]
    for i in range(maxl):
        steps.append(steps[-1] * (-t - i if falling else -t))
    return tuple(tuple(math.comb(l, j) * steps[l - j] for j in range(l + 1)) for l in range(maxl + 1))


def _shifted(sums, t, falling):
    """Class sums at x - t from the class sums at x, l <= len(sums) - 1."""
    return [sum(map(mul, row, sums)) for row in _shift_rows(t, len(sums) - 1, falling)]


def alt_floor_sum(n: int, r: int, m: int, f: IntPolynomial) -> int:
    """Exact value of sum(C(n,k)(-1)**k f(floor((k-r)/m))) over all 0<=k<=n.

    n above SUM_CAP raises CapacityError.
    """
    _check_sum_args(n, m)
    ev = _evaluator(f)
    row = _comb_row(n)
    total = 0
    for k in range(n + 1):
        term = row[k] * ev((k - r) // m)
        total = total - term if k & 1 else total + term
    return total


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
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    df = poly_delta(f)
    lhs = alt_sum(n, r, m, f) - f((n - r) // m) * alt_sum(n, r, m, ONE)
    row = _comb_row(n)
    rhs = 0
    for j in range(n):
        a = alt_sum(j, r, m, ONE)
        if a == 0:
            continue
        b = alt_sum(n - j - 1, r - j + m - 1, m, df)
        if b == 0:
            continue
        rhs += row[j] * a * b
    return lhs == -rhs
