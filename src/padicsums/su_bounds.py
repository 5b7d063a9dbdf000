"""Homotopy-exponent lower bounds for SU(n) and the published-table emitters.

The bridge out of pure arithmetic: a certified minimum Stirling order
e_p(n,k) bounds the homotopy p-exponent of SU(n) from below (one less at
p = 2 for even n), and n-1+ord_p(floor(n/p)!) is the closed-form bound.
Emitters reproduce the published p=3 comparison table, the 9x9 carry
table, and the excess-order delta sequence, in byte-stable formats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exponents import as_exponent
from .padic import carries, check_prime, ord_factorial, ord_int
from .polysum import IntPolynomial, alt_sum
from .stirling import (
    DEFAULT_WINDOW,
    EpResult,
    min_stirling_ord,
    stable_min_ord,
)


def lower_bound(p: int, n: int) -> int:
    """The closed-form exponent bound n - 1 + ord_p(floor(n/p)!)."""
    check_prime(p)
    if n < 2:
        raise ValueError(f"n must be >= 2, got n={n}")
    return n - 1 + ord_factorial(p, n // p)


def old_bound(p: int, n: int) -> int:
    """The older two-floor bound; stated for odd primes only."""
    check_prime(p)
    if p == 2:
        raise ValueError("the older bound is only stated for odd p")
    if n < 2:
        raise ValueError(f"n must be >= 2, got n={n}")
    return n - 1 + (n + 2 * p - 3) // p**2 + (n + p**2 - p - 1) // p**3


def restated_bound(p: int, n: int) -> int:
    """Same bound as lower_bound, restated as n - 1 + sum of floor(n/p^i), i >= 2."""
    check_prime(p)
    if n < 2:
        raise ValueError(f"n must be >= 2, got n={n}")
    total = n - 1
    q = p * p
    while q <= n:
        total += n // q
        q *= p
    return total


@dataclass(frozen=True)
class BoundReport:
    """The new, old, and restated exponent bounds at one (p, n)."""

    p: int
    n: int
    new: int
    old: int | None
    restated: int


def bound_report(p: int, n: int) -> BoundReport:
    new = lower_bound(p, n)
    restated = restated_bound(p, n)
    if new != restated:
        raise AssertionError(f"bound restatement broke at (p={p}, n={n}): {new} != {restated}")
    return BoundReport(p, n, new, None if p == 2 else old_bound(p, n), restated)


def ep_auto(
    p: int,
    n: int,
    k,
    window: int = DEFAULT_WINDOW,
    precision: int | None = None,
) -> EpResult:
    """Route an e_p(n,k) query to the certifying path when one applies.

    Exponents of the family shape (p-1)*p^L + d go through the stable-family
    certification when L is above the stabilization threshold; everything
    else runs the direct scan (exact for small materializable k, heuristic
    window otherwise).
    """
    k = as_exponent(k)
    if not k.is_plain and k.base == p and k.c == p - 1:
        try:
            return stable_min_ord(p, n, L=k.L, d=k.d, window=window, precision=precision)
        except ValueError:
            pass
    return min_stirling_ord(p, n, k, window=window, precision=precision)


def exponent_to_homotopy(p: int, n: int, value: int) -> int:
    """Convert a minimum Stirling order into a homotopy exponent bound."""
    if p == 2 and n % 2 == 0:
        return value - 1
    return value


def homotopy_exponent_bound(
    p: int,
    n: int,
    k,
    window: int = DEFAULT_WINDOW,
    precision: int | None = None,
) -> tuple[int, EpResult]:
    """Certified homotopy p-exponent lower bound for SU(n) from one exponent instance.

    Returns (bound, engine result).  Uncertified engine results are refused:
    a heuristic window minimum must not be passed off as a proven bound.
    """
    res = ep_auto(p, n, k, window=window, precision=precision)
    if not res.certified:
        raise ValueError(
            f"minimum order for (p={p}, n={n}, k={as_exponent(k)}) is not certified "
            f"(certificate: {res.certificate}); no homotopy bound can be asserted"
        )
    return exponent_to_homotopy(p, n, res.value), res


@dataclass(frozen=True)
class Table1Row:
    """One row of the p=3 comparison table.

    max_observed, when present, is a maximum over the finite exponents
    k <= k_searched plus the stable family value: observed, not proven
    maximal.
    """

    n: int
    L: int
    stable: int
    bound: int
    max_observed: int | None = None
    k_searched: int | None = None


def emit_table1(
    n_from: int,
    n_to: int,
    with_max: bool = False,
    k_budget: int = 40,
) -> list[Table1Row]:
    """Rows (n, stable family value, closed-form bound) for n in [n_from, n_to]."""
    if not 2 <= n_from <= n_to:
        raise ValueError(f"need 2 <= n_from <= n_to, got [{n_from}, {n_to}]")
    if k_budget < 0:
        raise ValueError(f"k_budget must be >= 0, got {k_budget}")
    rows = []
    for n in range(n_from, n_to + 1):
        res = stable_min_ord(3, n)
        stable = res.value
        L = res.stable.height
        bound = lower_bound(3, n)
        max_observed = k_hi = None
        if with_max:
            k_hi = n + k_budget
            window = max(DEFAULT_WINDOW, k_budget)
            best = stable
            for k in range(n, k_hi + 1):
                v = min_stirling_ord(3, n, k, window=window).value
                if v > best:
                    best = v
            max_observed = best
        rows.append(Table1Row(n, L, stable, bound, max_observed, k_hi))
    return rows


def emit_table2() -> tuple[tuple[int, ...], ...]:
    """The 9x9 carry-count matrix tau_3({r}_9, {n-r}_9)."""
    return tuple(
        tuple(carries(3, r, (n - r) % 9) for r in range(9))
        for n in range(9)
    )


def emit_delta(
    p: int = 2,
    alpha: int = 2,
    n: int = 100,
    baseline: int = 22,
    l_from: int = 25,
    l_to: int = 45,
) -> list[int | None]:
    """Excess orders delta(l) of the residue-class monomial sums over a baseline.

    delta(l) = ord_p(alt_sum(n, 0, p^alpha, x^l)) - baseline; a vanishing sum
    yields None (infinite excess).
    """
    check_prime(p)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if l_from < 0 or l_to < l_from:
        raise ValueError(f"need 0 <= l_from <= l_to, got [{l_from}, {l_to}]")
    m = p**alpha
    out: list[int | None] = []
    for l in range(l_from, l_to + 1):
        s = alt_sum(n, 0, m, IntPolynomial.monomial(l))
        out.append(None if s == 0 else ord_int(p, s) - baseline)
    return out


@dataclass(frozen=True)
class Table:
    """One emitted table: markdown prints title, note, header and rows; json prints data after the schema.

    csv, when given, holds (header, row cell index) per csv column; else csv has the markdown columns.
    """

    title: str
    header: tuple[str, ...]
    rows: list[tuple]
    data: dict
    note: str = ""
    csv: tuple[tuple[str, int], ...] | None = None


def render(table: Table, fmt: str) -> str:
    """The table as "md", "csv" or "json" text, ending in a newline."""
    if fmt == "json":
        return json.dumps({"schema": 1, **table.data}, indent=2) + "\n"
    if fmt == "csv":
        cols = table.csv or tuple((name, i) for i, name in enumerate(table.header))
        lines = [",".join(name for name, _ in cols)]
        lines += [",".join(str(row[i]) for _, i in cols) for row in table.rows]
    else:
        lines = [f"# {table.title}", ""] + ([table.note, ""] if table.note else [])
        lines += ["| " + " | ".join(table.header) + " |", "|---" * len(table.header) + "|"]
        lines += ["| " + " | ".join(map(str, row)) + " |" for row in table.rows]
    return "\n".join(lines) + "\n"


def table_one(rows: list[Table1Row]) -> Table:
    """Table one from emit_table1's rows; an observed-maximum column comes second in markdown, last in csv."""
    recs = []
    for r in rows:
        rec = {"n": r.n, "L": r.L, "stable": r.stable, "bound": r.bound}
        if r.max_observed is not None:
            rec["max_observed"] = r.max_observed
            rec["k_searched"] = r.k_searched
            rec["max_label"] = "observed, not proven maximal"
        recs.append(rec)
    title, data = "exponent comparison at p=3", {"table": "one", "rows": recs}
    if not any(r.max_observed is not None for r in rows):
        return Table(title, ("n", "stable", "bound"), [(r.n, r.stable, r.bound) for r in rows], data)
    k_hi = max(r.k_searched for r in rows if r.k_searched is not None)
    note = f"max column: observed over k <= {k_hi} plus the stable family; observed, not proven maximal"
    cells = [(r.n, r.max_observed, r.stable, r.bound) for r in rows]
    csv = (("n", 0), ("stable", 2), ("bound", 3), ("max_observed", 1))
    return Table(title, ("n", "max observed", "stable", "bound"), cells, data, note, csv)


def table_two(matrix) -> Table:
    """Table two from emit_table2's matrix, one row per n mod 9."""
    header = ("{n}_9 \\ {r}_9", *map(str, range(9)))
    cells = [(n, *row) for n, row in enumerate(matrix)]
    data = {"table": "two", "entries": [list(row) for row in matrix]}
    csv = (("n_mod_9", 0), *((f"r{r}", r + 1) for r in range(9)))
    return Table("carry counts tau_3({r}_9, {n-r}_9)", header, cells, data, csv=csv)


def table_delta(values, l_from: int) -> Table:
    """The delta table from emit_delta's values, the first at l = l_from; a vanishing sum shows as inf."""
    cells = [(l, "inf" if v is None else v) for l, v in enumerate(values, l_from)]
    data = {"table": "delta", "values": [{"l": l, "delta": v} for l, v in enumerate(values, l_from)]}
    return Table("excess orders delta(l)", ("l", "delta"), cells, data)
