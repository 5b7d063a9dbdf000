"""Grid verification of valuation bounds and exact integer identities.

Every check_* function evaluates one inequality or equality on exact integers
(or residues modulo p**E) for one instance and returns a CheckOutcome; the
equality and Stirling-difference checks run their sweep's block kernel on it.
sweep() refuses a grid value its check does not accept before any task runs,
runs the check over the grid in a fixed lexicographic order, counts held
instances in bulk into a SweepReport and builds a CheckOutcome only for a
violation; reports render byte-identically at any parallelism level.
The bound sweep reads a cell's least order from the gcd of its sums and its
largest only when it can beat the row's largest slack so far; the check_*
functions sum each instance with alt_sum instead, an independent route.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import json
import math
import operator
import random
import re
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from .exponents import StructuredExponent
from .padic import (
    CapacityError,
    carries,
    check_prime,
    class_bound,
    euler_phi_prime_power,
    ord_factorial,
    ord_nonzero,
)
from .polysum import (
    SUM_CAP,
    IntPolynomial,
    ONE,
    _diagonal,
    alt_sum,
    alt_sums_upto,
    binom_poly,
    check_floor_identity,
    check_split_identity,
    class_sums,
)
from .stirling import _powers, check_scan_cap, stable_min_ord


IDENTITY_CHECKS = ("floor-identity", "split-identity")

# Cells per worker task: points of a grid sub-block's cut axes, or identity
# samples.  Fixed, so tasks depend on the grid alone, never on the pool size.
_CELL_CHUNK = 64
_RENDER_CAP = 50
# Instances one parsed grid may hold: about three times a default bound grid.
GRID_CAP = 10**7
# Samples one identity sweep may draw: a split-identity sample takes 0.06 to 0.11 ms, so 1 to 2 minutes at jobs=1.
SAMPLES_CAP = 10**6
# Largest degree l of a residue-class monomial sum, in a bound grid and in su_bounds.emit_delta: one bound
# cell summed l = 0..1024 in 0.07-0.12 s and 3.1 MB, and l = 0..4096 in 3.2-3.8 s and 56 MB; one delta at
# n = SUM_CAP, alpha = 0 takes about 0.3 s at l = 1024 and 2 s at l = 4096.
BOUND_L_CAP = 1024
# Largest working precision E = bound + 2 of stirling-diff-bound: one block reading one table at
# m = SCAN_CAP took 0.3 s at p = 2 and 1.6 s at p = 7 with E = 2048, and 0.9 s and 6.3 s with E = 4096.
DIFF_PRECISION_CAP = 2048
JOBS_CAP = 64  # worker processes one sweep may start; a fork-started pool starts them all at once


class GridError(ValueError):
    """Raised for malformed grid specifications or unknown check names."""


@dataclass(frozen=True)
class CheckOutcome:
    """One checked instance.

    lhs_ord is the measured order of the left-hand sum: None means the sum
    vanished (infinite order), and lhs_exact=False means only
    "order >= lhs_ord" is known from the working precision: a
    stirling-diff-bound floor, two above its bound, which holds.  holds is
    None only on a skipped instance.  Identity checks carry holds only.
    """

    check: str
    instance: tuple[tuple[str, object], ...]
    lhs_ord: int | None
    lhs_exact: bool
    bound: int | None
    slack: int | None
    holds: bool | None
    skipped: bool = False
    note: str = ""

    def instance_str(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.instance)

    def lhs_str(self) -> str:
        if self.lhs_ord is None:
            return "inf"
        return str(self.lhs_ord) if self.lhs_exact else f">={self.lhs_ord}"

    def to_dict(self) -> dict:
        return {**asdict(self), "instance": dict(self.instance)}


def _outcome(check, inst, s_ord, bound, note=""):
    """The outcome of an exactly measured order against an integer bound; None order: the sum vanished, which holds."""
    slack = None if s_ord is None else s_ord - bound
    return CheckOutcome(check, inst, s_ord, True, bound, slack, slack is None or slack >= 0, note=note)


def _carry_bound(p, alpha, n, r, base):
    m = p**alpha
    tau = carries(p, r % m, (n - r) % m)
    assert 0 <= tau <= alpha
    return base + tau, f"tau={tau}"


def _plain_sum_bound(p, alpha, n, r, base):
    # ord_p(floor(n/p^(alpha-1))!) = floor(n/p^alpha) + base by Legendre's formula; alpha = 0 uses n*p
    prev = n * p if alpha == 0 else n // p ** (alpha - 1)
    bound = ord_factorial(p, prev)
    chain = n // p**alpha + base
    if bound != chain:
        raise AssertionError(f"order chain broken at p={p} alpha={alpha} n={n}: {bound} != {chain}")
    return bound, ""


def _totient_precondition(p, alpha, n):
    if alpha < 1:
        return f"alpha must be >= 1, got {alpha}"
    if n < p ** (alpha - 1):
        return f"n must be >= p**(alpha-1) = {p ** (alpha - 1)}, got n={n}"
    return None


def _totient_bound(p, alpha, n, r, base):
    return (n - p ** (alpha - 1)) // euler_phi_prime_power(p, alpha), ""


@dataclass(frozen=True)
class _Bound:
    """One lower bound on the order of an alternating residue-class sum.

    weight names the summand: "x^l", "C(x,l)" (the falling factorial over
    l!, whose exact division is asserted) or "1"; only the first two read
    the l axis.  bound(p, alpha, n, r, base), with base = class_bound(p,
    alpha, n), gives the note and one bound B for every l of a cell, on the
    order of the sum of the weight's numerator: x^l, (x)_l or 1.  So an
    instance's bound is B, or B - ord_p(l!) for "C(x,l)", and its slack is
    the numerator sum's order minus B either way.
    precondition(p, alpha, n) names the hypothesis an instance misses: the
    check_* function raises it as a ValueError and the sweep counts the
    instance skipped.
    """

    weight: str
    bound: Callable
    precondition: Callable = lambda p, alpha, n: None

    @property
    def uses_l(self) -> bool:
        return self.weight != "1"


_BOUNDS = {
    "polysum-bound": _Bound("x^l", lambda p, alpha, n, r, base: (base, "")),
    "carry-bound": _Bound("x^l", _carry_bound),
    "binom-weight-bound": _Bound("C(x,l)", lambda p, alpha, n, r, base: (base, "")),
    "plain-sum-bound": _Bound("1", _plain_sum_bound),
    "totient-bound": _Bound("1", _totient_bound, _totient_precondition),
}

BOUND_CHECKS = tuple(_BOUNDS)

CHECK_NAMES = BOUND_CHECKS + ("stirling-diff-bound", "factorial-match", *IDENTITY_CHECKS, "equality-conjecture")

_WEIGHTS = {"x^l": IntPolynomial.monomial, "C(x,l)": binom_poly, "1": lambda l: ONE}

# Each grid check's axes in grid order, each with its least value (None: any integer).
_CHECK_AXES = {
    **{c: {"p": 2, "alpha": 0, "n": 0, "r": None} | ({"l": 0} if d.uses_l else {}) for c, d in _BOUNDS.items()},
    "stirling-diff-bound": {"p": 2, "alpha": 0, "h": 0, "l": 0, "m": 0, "n": 1},
    "factorial-match": {"n": 4},
    "equality-conjecture": {"p": 2, "alpha": 1, "n": None, "r": None},
}


def _check_values(check, block):
    """Raise ValueError at the first block value, in axis order, below its least, a non-prime p or an odd factorial n."""
    even = check == "factorial-match"
    for axis, lo in _CHECK_AXES[check].items():
        for v in () if lo is None else block[axis]:
            if v < lo or even and v % 2:
                raise ValueError(f"{axis} must be {'even and ' * even}>= {lo}, got {v}")
            if axis == "p":
                check_prime(v)


def _bound_inst(p, alpha, n, r, l, d, f=None):
    inst = (("p", p), ("alpha", alpha), ("n", n), ("r", r))
    if f is not None:
        return inst + (("f", str(f)),)
    return inst + (("l", l),) if d.uses_l else inst


def _check_divisible(d, sums, ls, facts, cell):
    """Raise AssertionError naming the first instance of cell (p, alpha, n, r) whose falling-factorial sum l! does not divide.

    sums[i] and facts[i] = ls[i]! belong to the l = ls[i] of the cell.
    """
    for l, s, f in zip(ls, sums, facts):
        if s % f:
            raise AssertionError(f"binomial-weighted sum not divisible by {l}! at {_bound_inst(*cell, l, d)}")


def _check_bound(check, p, alpha, n, r, l=0, f=None):
    """One instance of a bound check, summed directly with alt_sum (f overrides the weight)."""
    d = _BOUNDS[check]
    _check_values(check, dict(zip(_CHECK_AXES[check], ([p], [alpha], [n], [r], [l]))))
    missing = d.precondition(p, alpha, n)
    if missing:
        raise ValueError(missing)
    m = p**alpha
    inst = _bound_inst(p, alpha, n, r, l, d, f)
    bound, note = d.bound(p, alpha, n, r, class_bound(p, alpha, n))
    s = alt_sum(n, r, m, f if f is not None else _WEIGHTS[d.weight](l))
    if d.weight == "C(x,l)":
        _check_divisible(d, (s,), (l,), (math.factorial(l),), (p, alpha, n, r))
        s //= math.factorial(l)
        bound -= ord_factorial(p, l)
    return _outcome(check, inst, ord_nonzero(p, s) if s else None, bound, note)


def check_polysum_bound(p: int, alpha: int, n: int, r: int, f: IntPolynomial) -> CheckOutcome:
    """ord_p of the alternating residue-class sum of f is >= ord_p(floor(n/p^alpha)!)."""
    return _check_bound("polysum-bound", p, alpha, n, r, f=f)


def check_carry_bound(p: int, alpha: int, n: int, r: int, l: int) -> CheckOutcome:
    """Sharper monomial bound: the base bound plus the carry count of the residues."""
    return _check_bound("carry-bound", p, alpha, n, r, l)


def check_binom_weight_bound(p: int, alpha: int, n: int, r: int, l: int) -> CheckOutcome:
    """Binomial-weighted variant; the bound drops by ord_p(l!) and may be negative."""
    return _check_bound("binom-weight-bound", p, alpha, n, r, l)


def check_plain_sum_bound(p: int, alpha: int, n: int, r: int) -> CheckOutcome:
    """Unweighted sum bound ord_p(floor(n/p^(alpha-1))!), via the order chain.

    The bound is asserted equal to floor(n/p^alpha) + ord_p(floor(n/p^alpha)!)
    on every instance; alpha = 0 uses n*p in place of the parent floor.
    """
    return _check_bound("plain-sum-bound", p, alpha, n, r)


def check_totient_bound(p: int, alpha: int, n: int, r: int) -> CheckOutcome:
    """Totient-floor bound for the unweighted sum; dominates the factorial bound."""
    return _check_bound("totient-bound", p, alpha, n, r)


def check_stirling_diff_bound(p: int, alpha: int, h: int, l: int, m: int, n: int) -> CheckOutcome:
    """Bound on the l-fold difference of scaled Stirling numbers along a tower family.

    The sum binom(l,k)(-1)^k m! S(k H + n - 1, m), H = h (p-1) p^alpha, is
    the m-th difference at 0 of j^(n-1) (1 - j^H)^l, read by the sweep's
    kernel modulo p**E with E two above the bound.  A sum that vanishes there,
    as every sum with ord_p(m!) >= E does, is the floor lhs_ord = E with
    lhs_exact False, which holds.  An m past SCAN_CAP, then an E past
    DIFF_PRECISION_CAP, raises CapacityError before any table.
    """
    inst = tuple(zip(_CHECK_AXES["stirling-diff-bound"], (p, alpha, h, l, m, n)))
    block = {a: [v] for a, v in inst}
    _check_values("stirling-diff-bound", block)
    bound = _diff_precision(block) - 2
    (live,) = _stirling_diff_block(p, n, [(alpha, h)], [l], _m_axis(p, [m]))
    if live:
        return _outcome("stirling-diff-bound", inst, live[0][2], bound)
    return CheckOutcome("stirling-diff-bound", inst, bound + 2, False, bound, None, True)


def _diff_bound(l, alpha, n, q):
    """The stirling-diff-bound bound min(l (alpha+1), n - 1 + q), with q = ord_p(floor(m/p)!)."""
    return min(l * (alpha + 1), n - 1 + q)


def _diff_precision(block):
    """The largest bound + 2 of a stirling-diff-bound block, at its largest l, alpha, n and m and smallest p.

    CapacityError past SCAN_CAP, then past DIFF_PRECISION_CAP.
    """
    top_m, p = max(block["m"], default=0), min(block["p"], default=2)
    check_scan_cap(top_m)
    l, alpha, n = (max(block[a], default=0) for a in ("l", "alpha", "n"))
    E = _diff_bound(l, alpha, n, class_bound(p, 1, top_m)) + 2
    if E > DIFF_PRECISION_CAP:
        raise CapacityError(f"stirling-diff-bound capped at precision E <= {DIFF_PRECISION_CAP}, got E={E}")
    return E


def _m_axis(p, ms):
    """(m, ord_p(m!), index in ms, q = ord_p(floor(m/p)!)) in increasing m; ord_p(m!) = floor(m/p) + q (Legendre)."""
    return sorted((m, m // p + q, j, q) for j, m in enumerate(ms) for q in [class_bound(p, 1, m)])


def _cut(p, n, axis, la):
    """The length of axis' prefix with floor(m/p) <= n and ord_p(m!) < la + 2: the m a table of l (alpha+1) = la reads."""
    top = bisect.bisect_left(axis, (p * (n + 1),))
    return bisect.bisect_left(axis, la + 2, 0, top, key=operator.itemgetter(1))


def _stirling_diff_block(p, n, pairs, ls, axis):
    """One list per (alpha, h) of pairs: (l index, m index, order, bound) of each instance nonzero mod p**(bound+2).

    axis is _m_axis(p, ms); every instance of ls x ms left out is a floor.
    With bound = min(l (alpha+1), n - 1 + ord_p(floor(m/p)!)), ord_p(m!) <
    bound + 2 exactly when floor(m/p) <= n and ord_p(m!) < l (alpha+1) + 2,
    each a prefix of the axis (_cut).  Each l with such an m reads one table
    of j^(n-1) (1 - j^H)^l up to that m, modulo p**(its largest bound + 2).
    Cuts and bounds never shrink as l (alpha+1) grows, so one row of j^(n-1),
    built at the largest l and alpha, serves every pair and is no longer and
    no finer than the largest table; 1 - j^H is taken once per pair, modulo
    its largest p**E.
    """
    top_l, top_alpha = max(ls, default=0), max((alpha for alpha, _ in pairs), default=0)
    if not (top := _cut(p, n, axis, top_l * (top_alpha + 1))):
        return [[] for _ in pairs]
    m, *_, q = axis[top - 1]
    heads = list(itertools.islice(_powers(n - 1, p, _diff_bound(top_l, top_alpha, n, q) + 2), m + 1))
    out = []
    for alpha, h in pairs:
        found = {}  # l -> (m index, residue, bound) of each nonzero sum
        if cuts := {l: c for l in ls if (c := _cut(p, n, axis, l * (alpha + 1)))}:
            E = max(_diff_bound(l, alpha, n, axis[c - 1][3]) for l, c in cuts.items()) + 2
            H = StructuredExponent(h * (p - 1), p, alpha, 0)
            tails = [1 - x for x in itertools.islice(_powers(H, p, E), axis[max(cuts.values()) - 1][0] + 1)]
        for l, c in cuts.items():
            bounds = [_diff_bound(l, alpha, n, q) for *_, q in axis[:c]]
            P = p ** (bounds[-1] + 2)
            table = list(_diagonal([a * pow(b, l, P) % P for a, b in zip(heads[: axis[c - 1][0] + 1], tails)]))
            found[l] = [(j, r, b) for (m, _, j, _), b in zip(axis, bounds) if (r := table[m] % p ** (b + 2))]
        out.append([(i, j, ord_nonzero(p, r), b) for i, l in enumerate(ls) if l in found for j, r, b in found[l]])
    return out


def check_factorial_match(n: int) -> CheckOutcome:
    """Exact equality of the stable family value at exponent offset n-1 with ord_2((n-1)!).

    For even n > 2 the family k = 2^L + n - 1 (scan start n-1) stabilizes at
    ord_2((n-1)!) once L >= max(N, N0); the check runs at that height.
    """
    _check_values("factorial-match", {"n": [n]})
    res = stable_min_ord(2, n - 1, d=n - 1)
    inst = (("n", n), ("L", res.stable.height))
    got = res.value
    want = ord_factorial(2, n - 1)
    return CheckOutcome(
        "factorial-match", inst, got, True, want, got - want, got == want,
        note=f"witness m={res.witness_m}",
    )


def conjecture_modulus(p: int, alpha: int, n: int) -> tuple[int, int]:
    """Congruence modulus (p-1)p^e with e the base-p magnitude of n/p^alpha."""
    check_prime(p)
    if n < p**alpha:
        raise ValueError(f"n must be >= p**alpha, got n={n}")
    e = 0
    while p ** (e + 1 + alpha) <= n:
        e += 1
    return euler_phi_prime_power(p, e + 1), e


def check_equality_conjecture(p: int, alpha: int, n: int, r: int, l: int | None = None) -> CheckOutcome:
    """Conjectured equality in the carry bound for admissible exponents.

    Preconditions (n >= 2p^alpha - 1, l >= floor(n/p^alpha), and the
    congruence on l) gate the instance; failures are marked skipped, not
    violated.  Instances where the congruence modulus degenerates to p-1
    (magnitude e = 0) are checked but flagged in the note.  l None takes
    the smallest admissible l.
    """
    _check_values("equality-conjecture", {"p": [p], "alpha": [alpha], "n": [n], "r": [r]})
    boundary, (row,) = _equality_block(p, alpha, n, [(r, l)])
    return _equality_outcome(p, alpha, n, r, l, boundary, row)


def _equality_outcome(p, alpha, n, r, l, boundary, row):
    """The outcome of instance (p, alpha, n, r, l) from its kernel row: a precondition, or (l, order, bound)."""
    skip = isinstance(row, str)
    l, v, bound = (l, None, None) if skip else row
    inst = (("p", p), ("alpha", alpha), ("n", n), ("r", r), ("l", l))
    if skip:
        return CheckOutcome("equality-conjecture", inst, None, True, None, None, None, skipped=True, note=row)
    slack, note = None if v is None else v - bound, "boundary modulus (e=0)" if boundary else ""
    return CheckOutcome("equality-conjecture", inst, v, True, bound, slack, v == bound, note=note)


def _equality_block(p, alpha, n, rls):
    """(boundary, rows) of check_equality_conjecture for the (r, l) of one (p, alpha, n) block.

    boundary flags the modulus p-1 (e = 0).  rows[i] is the precondition an
    instance misses, or (l, order, bound) with order None for a vanished sum;
    l None takes the smallest admissible l, which a residue class shares.
    The sums of one l are dot products against one table of x^l.  An r whose
    first x lies floor(n/m) + 1 or more past the block's first starts another
    table, so none holds more than 2 floor(n/m) + 1 powers, however far apart r lie.
    An n above SUM_CAP with an instance to sum raises CapacityError before any table.
    """
    m = p**alpha
    if n < 2 * m - 1:
        return False, [f"precondition: n >= {2 * m - 1}"] * len(rls)
    mod, e = conjecture_modulus(p, alpha, n)
    lo, base = n // m, class_bound(p, alpha, n)
    first = -(max((r for r, _ in rls), default=0) // m)  # the smallest x a term reads
    rows, groups = [], collections.defaultdict(list)  # (l, table run) -> (row index, r) of its sums
    for r, l in rls:
        target = (r // m + (n - r) // m) % mod
        l = lo + (target - lo) % mod if l is None else l
        if l < lo:
            rows.append(f"precondition: l >= {lo}")
        elif l % mod != target:
            rows.append(f"precondition: l = {target} (mod {mod})")
        else:
            groups[l, (-(r // m) - first) // (lo + 1)].append((len(rows), r))
            rows.append(_carry_bound(p, alpha, n, r, base)[0])  # the bound, until the sum is read
    for (l, _), group in groups.items():
        idx, rs = zip(*group)
        for i, s in zip(idx, class_sums(n, rs, m, lambda x: x**l)):
            rows[i] = (l, ord_nonzero(p, s) if s else None, rows[i])
    return e == 0, rows


_AXIS_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+?)\s*$")
_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_grid(text: str) -> dict[str, list[int]]:
    """Parse 'p=2,3,5; alpha=0..3; n=1..200' into axis value lists.

    The grid's instance count, the product of its axis lengths, is checked
    against GRID_CAP before any axis is expanded; a larger grid raises
    CapacityError.
    """
    return {name: list(values) for name, values in _grid_axes(text).items()}


def _grid_axes(text, n_capped=False):
    """parse_grid's axes, with an axis of one range or value left unexpanded for the sweep's cap checks.

    With n_capped, an n axis reaching past SUM_CAP is refused before any axis is expanded.
    """
    axes: dict[str, list] = {}  # name -> its items, each a range or a one-value tuple
    for part in text.split(";"):
        if not part.strip():
            continue
        match = _AXIS_RE.match(part)
        if not match:
            raise GridError(f"bad grid axis {part.strip()!r}; expected name=values")
        name, body = match.group(1), match.group(2)
        if name in axes:
            raise GridError(f"duplicate grid axis {name!r}")
        items = axes[name] = []
        for item in body.split(","):
            item = item.strip()
            rng = _RANGE_RE.match(item)
            if rng:
                a, b = int(rng.group(1)), int(rng.group(2))
                if b < a:
                    raise GridError(f"empty range {item!r} in axis {name!r}")
                items.append(range(a, b + 1))
            else:
                try:
                    items.append((int(item),))
                except ValueError:
                    raise GridError(f"bad value {item!r} in axis {name!r}") from None
    if not axes:
        raise GridError("empty grid")
    _check_grid_size(math.prod(sum(map(len, items)) for items in axes.values()))
    if n_capped:
        _check_n_axis(max((it[-1] for it in axes.get("n", ())), default=0))
    return {name: items[0] if len(items) == 1 else [v for it in items for v in it] for name, items in axes.items()}


# Each grid check's default grid: the line its report prints, and its product blocks, built when asked for.
_DEFAULT_GRIDS = {
    **{
        c: (
            "p=2,3,5; alpha=0..3; n=1..200; r=-10..2*p^alpha" + "; l=0..30" * d.uses_l,
            lambda uses_l=d.uses_l: [
                {"p": [p], "alpha": [alpha], "n": list(range(1, 201)), "r": list(range(-10, 2 * p**alpha + 1))}
                | ({"l": list(range(31))} if uses_l else {})
                for p in (2, 3, 5) for alpha in range(4)
            ],
        )
        for c, d in _BOUNDS.items()
    },
    "stirling-diff-bound": (
        "p=2,3; alpha=0..3; h=1..2; l=0..3; n=2..30; m=n..n+20",
        lambda: [
            {"p": [2, 3], "alpha": [0, 1, 2, 3], "h": [1, 2], "l": [0, 1, 2, 3], "m": list(range(n, n + 21)), "n": [n]}
            for n in range(2, 31)
        ],
    ),
    "factorial-match": ("n=4..40 even; L=max(N,N0)", lambda: [{"n": list(range(4, 41, 2))}]),
    "equality-conjecture": (
        "p=2,3,5; alpha=1,2; n=2p^alpha-1..120; r=0..n; l smallest admissible",
        lambda: [
            {"p": [p], "alpha": [alpha], "n": [n], "r": list(range(n + 1))}
            for p in (2, 3, 5) for alpha in (1, 2) for n in range(2 * p**alpha - 1, 121)
        ],
    ),
}


def default_grid(check: str) -> list[dict[str, list[int]]]:
    """The acceptance grid for a check, as a list of product blocks."""
    if check not in _DEFAULT_GRIDS:
        raise GridError(f"no default grid for check {check!r}")
    return _DEFAULT_GRIDS[check][1]()


def _resolve_grid(check, grid):
    if grid is None or grid == "default":
        return default_grid(check), _DEFAULT_GRIDS[check][0]
    if isinstance(grid, str):
        return [_grid_axes(grid, "r" in _CHECK_AXES[check])], grid
    if isinstance(grid, dict):
        return [grid], "custom"
    return list(grid), "custom"


def _check_block_axes(checks, blocks):
    """Refuse a missing or unknown axis (GridError) or a value (ValueError) of any block, then a cap (CapacityError)."""
    need_l = any(c in _BOUNDS and _BOUNDS[c].uses_l for c in checks)
    for check in checks:
        axes = _CHECK_AXES[check]
        wanted = set(axes) | ({"l"} if need_l else set())
        for block in blocks:
            missing = [a for a in axes if a not in block]
            if missing:
                raise GridError(f"grid is missing axes {missing} for check {check!r}")
            extra = [a for a in block if a not in wanted]
            if extra:
                raise GridError(f"grid has unknown axes {extra} for check {check!r}")
            _check_values(check, block)
    if need_l and not all(block["l"] for block in blocks):
        raise GridError("grid is missing axes ['l'] for this check")
    _check_grid_size(sum(math.prod(map(len, block.values())) for block in blocks))  # every block's instances
    top_n = max((max(block["n"], default=0) for block in blocks), default=0)
    if "r" in _CHECK_AXES[checks[0]]:  # a residue-class sum check
        _check_n_axis(top_n)
    elif checks[0] == "factorial-match":
        check_scan_cap(top_n - 1)  # the first term of the last n's scan
    elif checks[0] == "stirling-diff-bound":
        for block in blocks:
            _diff_precision(block)
    if need_l and (top_l := max(max(block["l"]) for block in blocks)) > BOUND_L_CAP:
        raise CapacityError(f"bound sweeps capped at l <= {BOUND_L_CAP}, got l={top_l}")


def _check_grid_size(size):
    if size > GRID_CAP:
        raise CapacityError(f"grid has {size} instances, over the cap of {GRID_CAP}")


def _check_n_axis(top):
    if top > SUM_CAP:
        raise CapacityError(f"grid axis n reaches {top}, over the residue-class sum cap of {SUM_CAP}")


@dataclass
class SweepReport:
    """Aggregated result of one check swept over a grid; each worker task fills a partial one."""

    check: str
    grid: str
    checked: int = 0
    held: int = 0
    violations: list[CheckOutcome] = field(default_factory=list)
    skipped: int = 0
    flagged: int = 0
    slack: dict[str, tuple[int, int]] = field(default_factory=dict)
    wall_time: float = 0.0
    undetermined = 0  # every verdict is decided; the report schema keeps the field

    def add(self, key, slacks, held, violations=()):
        """Count checked instances of slice key (held or violated) and their known slacks."""
        self.checked += held + len(violations)
        self.held += held
        self.violations.extend(violations)
        if slacks:
            lo, hi = min(slacks), max(slacks)
            old_lo, old_hi = self.slack.get(key, (lo, hi))
            self.slack[key] = (min(old_lo, lo), max(old_hi, hi))

    def merge(self, other: "SweepReport"):
        """Count a partial report of the same check that follows this one in grid order."""
        self.skipped += other.skipped
        self.flagged += other.flagged
        self.add(None, (), other.held, other.violations)
        for key, rec in other.slack.items():
            self.add(key, rec, 0)

    @property
    def equality_rate(self) -> float | None:
        if self.check != "equality-conjecture" or self.checked == 0:
            return None
        return self.held / self.checked

    def exit_code(self, strict: bool = False) -> int:
        return 1 if self.violations and (strict or self.check != "equality-conjecture") else 0

    def to_dict(self) -> dict:
        d = {
            "schema": 1,
            "check": self.check,
            "grid": self.grid,
            "checked": self.checked,
            "held": self.held,
            "violations": [o.to_dict() for o in self.violations],
            "undetermined": self.undetermined,
            "skipped": self.skipped,
            "flagged": self.flagged,
            "slack": {k: {"min": v[0], "max": v[1]} for k, v in self.slack.items()},
        }
        rate = self.equality_rate
        if rate is not None:
            d["equality_rate"] = f"{rate:.6f}"
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_markdown(self) -> str:
        lines = [
            f"# verify {self.check}",
            "",
            f"- grid: {self.grid}",
            f"- checked: {self.checked}",
            f"- held: {self.held}",
            f"- violations: {len(self.violations)}",
            f"- undetermined: {self.undetermined}",
            f"- skipped: {self.skipped}",
            f"- flagged: {self.flagged}",
        ]
        rate = self.equality_rate
        if rate is not None:
            lines.append(f"- equality rate: {rate:.6f}")
        if self.slack:
            lines += ["", "| slice | min slack | max slack |", "|---|---|---|"]
            lines += [f"| {k} | {v[0]} | {v[1]} |" for k, v in self.slack.items()]
        if self.violations:
            shown = self.violations[:_RENDER_CAP]
            lines += ["", "| violation | lhs ord | bound | note |", "|---|---|---|---|"]
            lines += [f"| {o.instance_str()} | {o.lhs_str()} | {o.bound} | {o.note} |" for o in shown]
            if len(self.violations) > len(shown):
                lines.append(f"| ... {len(self.violations) - len(shown)} more | | | |")
        return "\n".join(lines) + "\n"


def _eval_bounds(checks, block, reports):
    """Count bound checks over a sub-block, one (p, alpha, n) row of r cells at a time.

    One alt_sums_upto call sums every residue class of a row for every l at
    once.  A cell's verdict reads two orders of its nonzero sums, both
    against its one bound B: the least is the order of their gcd, and the
    largest is read exactly only when some sum is divisible by
    p**(B + hi + 1), with hi the row's largest slack so far.  Each (row,
    check) pair is added to its report in one call; only a cell whose least
    slack is negative has its instances' orders read, and only a violated
    instance becomes a CheckOutcome, added in grid order.
    """
    plan = [(c, _BOUNDS[c], reports[c]) for c in checks]
    weights = {d.weight for _, d, _ in plan}
    ls, rs = tuple(block.get("l", ())), block["r"]
    maxl = max(ls, default=0)
    facts = [math.factorial(l) for l in ls]
    for p, alpha, n in itertools.product(block["p"], block["alpha"], block["n"]):
        base = class_bound(p, alpha, n)
        key = f"p={p},alpha={alpha}"
        cells = alt_sums_upto(n, rs, p**alpha, maxl, bool(weights - {"C(x,l)"}), "C(x,l)" in weights)
        read = {}  # weight -> per r, (the sums it reads, their nonzero ones, the least order among those)
        for check, d, rep in plan:
            lv = ls if d.uses_l else (0,)
            if d.precondition(p, alpha, n):
                rep.skipped += len(lv) * len(rs)
                continue
            if d.weight not in read:
                read[d.weight] = [_cell_sums(p, base, d, lv, facts, (p, alpha, n, r), c) for r, c in zip(rs, cells)]
            lo = hi = None
            bad = []
            for r, (sums, nz, least) in zip(rs, read[d.weight]):
                B, note = d.bound(p, alpha, n, r, base)  # on every cell: its own checks do not read the sums
                if not nz:
                    continue
                lo = least - B if lo is None else min(lo, least - B)
                t = least if hi is None else max(least, B + hi + 1)
                above = nz if t == least else _multiples(p**t, nz)
                if above:
                    hi = _top_order(p, above, t) - B
                if least < B:
                    shift = [ord_factorial(p, l) for l in lv] if d.weight == "C(x,l)" else [0] * len(lv)
                    bad += [
                        _outcome(check, _bound_inst(p, alpha, n, r, l, d), o - sh, B - sh, note)
                        for l, s, sh in zip(lv, sums, shift)
                        if s and (o := ord_nonzero(p, s)) < B
                    ]
            rep.add(key, () if lo is None else (lo, hi), len(lv) * len(rs) - len(bad), bad)


def _multiples(q, xs):
    """The integers of xs that q divides, in one C-level pass."""
    return list(itertools.compress(xs, map(operator.not_, map(operator.mod, xs, itertools.repeat(q)))))


def _top_order(p, xs, t):
    """The largest p-adic order among the nonzero integers xs, each divisible by p**t.

    A search over the exponent that keeps only the integers still divisible:
    each step is one C-level pass, and the steps grow with the log of the
    order, not with the order.
    """
    step = 1
    while above := _multiples(p ** (t + step), xs):
        xs, t, step = above, t + step, 2 * step
    while step > 1:  # p**t divides each of xs, p**(t + step) none
        step //= 2
        if above := _multiples(p ** (t + step), xs):
            xs, t = above, t + step
    return t


def _cell_sums(p, base, d, lv, facts, cell, pair):
    """(sums, nonzero sums, least order) of one cell for bound d: the sums of its weight's numerator at each l of lv.

    pair is the cell's (powers, falling) pair from alt_sums_upto.  The least
    order is that of the gcd of the nonzero sums, None when every sum
    vanished; p**base is divided out first when it divides.  A falling sum
    not divisible by l! raises AssertionError naming its instance in cell (p, alpha, n, r).
    """
    fam = d.weight == "C(x,l)"
    sums = list(map(pair[fam].__getitem__, lv))
    if fam and any(map(operator.mod, sums, facts)):
        _check_divisible(d, sums, lv, facts, cell)
    nz = list(filter(None, sums))
    if not nz:
        return sums, nz, None
    g, pb = math.gcd(*nz), p**base
    return sums, nz, base + ord_nonzero(p, g // pb) if g % pb == 0 else ord_nonzero(p, g)


def _eval_stirling_diff(block, rep):
    """Count stirling-diff-bound over a sub-block, one kernel call per (p, n) for all its (alpha, h) blocks.

    The m axis is sorted once per p; an instance the kernel leaves out is a
    held floor with no slack.  Violations are added in grid order
    (p, alpha, h, l, m, n).
    """
    ls, ms, ns = block["l"], block["m"], block["n"]
    check, axes = "stirling-diff-bound", _CHECK_AXES["stirling-diff-bound"]
    pairs = list(itertools.product(block["alpha"], block["h"]))
    for p in block["p"]:
        axis = _m_axis(p, ms)
        found = [[] for _ in pairs]  # (l index, m index, n index, order, bound) of each (alpha, h)
        for k, n in enumerate(ns):
            for f, live in zip(found, _stirling_diff_block(p, n, pairs, ls, axis)):
                f += [(i, j, k, o, b) for i, j, o, b in live]
        for f, (alpha, h) in zip(found, pairs):
            bad = sorted(x for x in f if x[3] < x[4])
            held = len(ls) * len(ms) * len(ns) - len(bad)
            outcomes = [_outcome(check, tuple(zip(axes, (p, alpha, h, ls[i], ms[j], ns[k]))), o, b)
                        for i, j, k, o, b in bad]
            rep.add(f"p={p},alpha={alpha}", [o - b for *_, o, b in f], held, outcomes)


def _eval_task(task):
    """{check: partial SweepReport} of one task: its checks over a sub-block, or a chunk of identity samples.

    Held instances are counted; only a violation becomes a CheckOutcome.
    """
    checks, block = task
    reports = {c: SweepReport(c, "") for c in checks}
    check, rep = checks[0], reports[checks[0]]
    if check in _BOUNDS:
        _eval_bounds(checks, block, reports)
    elif check == "stirling-diff-bound":
        _eval_stirling_diff(block, rep)
    elif check == "equality-conjecture":
        for p, alpha, n in itertools.product(block["p"], block["alpha"], block["n"]):
            boundary, rows = _equality_block(p, alpha, n, [(r, None) for r in block["r"]])
            checked = [(r, row) for r, row in zip(block["r"], rows) if not isinstance(row, str)]
            rep.skipped += len(rows) - len(checked)
            rep.flagged += boundary * len(checked)
            bad = [_equality_outcome(p, alpha, n, r, None, boundary, row) for r, row in checked if row[1] != row[2]]
            slacks = [v - bound for _, (_, v, bound) in checked if v is not None]
            rep.add(f"p={p},alpha={alpha}", slacks, len(checked) - len(bad), bad)
    elif check == "factorial-match":
        for n in block["n"]:
            o = check_factorial_match(n)
            rep.add("all", (o.slack,), o.holds, () if o.holds else (o,))
    else:
        fn = check_floor_identity if check == "floor-identity" else check_split_identity
        fs = [(n, m, r, IntPolynomial(coeffs)) for n, m, r, coeffs in block["instance"]]
        bad = [
            CheckOutcome(check, (("n", n), ("m", m), ("r", r), ("f", str(f))), None, True, None, None, False)
            for n, m, r, f in fs
            if not fn(n, m, r, f)
        ]
        rep.add(None, (), len(fs) - len(bad), bad)
    return reports


def _split(block, axes):
    """Cut a grid block, in grid order, into sub-blocks of at most _CELL_CHUNK cells over axes.

    Leading axes are narrowed to single values until the axes after them
    hold at most _CELL_CHUNK cells; the next axis is then cut into runs.
    """
    head, rest = axes[0], axes[1:]
    inner = math.prod(len(block[a]) for a in rest)
    if inner > _CELL_CHUNK:
        for v in block[head]:
            yield from _split(block | {head: [v]}, rest)
        return
    step = _CELL_CHUNK // max(inner, 1)
    for i in range(0, len(block[head]), step):
        yield block | {head: block[head][i : i + step]}


def _tasks(checks, blocks):
    """Worker tasks (checks, sub-block) of a grid, cut by the grid alone, never by the pool size.

    Tasks are cut along the axes before l; l and every axis after it stay
    whole, so a bound cell sums every l at once and a stirling-diff-bound
    (p, alpha, h, n) block reads one table per l, of j^(n-1) (1 - j^H)^l.
    """
    cut = tuple(itertools.takewhile(lambda a: a != "l", _CHECK_AXES[checks[0]]))
    return ((checks, sub) for block in blocks for sub in _split(block, cut))


def _identity_tasks(check, samples, seed):
    """Worker tasks of an identity sweep, each drawing its samples from one seeded stream as it is built."""
    rng = random.Random(seed)
    for start in range(0, samples, _CELL_CHUNK):
        chunk = []
        for _ in range(min(_CELL_CHUNK, samples - start)):
            n, m, r, deg = rng.randint(1, 60), rng.randint(1, 9), rng.randint(-12, 12), rng.randint(0, 5)
            chunk.append((n, m, r, tuple(rng.randint(-9, 9) for _ in range(deg + 1))))
        yield (check,), {"instance": chunk}


def _run(worker, tasks, jobs):
    """worker(task) for each task, in order; a pool is sent at most 2 * jobs tasks ahead of the results read.

    A worker count below 1 or above JOBS_CAP is refused before any task runs or pool starts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > JOBS_CAP:
        raise CapacityError(f"jobs must be <= {JOBS_CAP}, got {jobs}")
    if jobs == 1:
        yield from map(worker, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, so a one-job sweep never loads the pool

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = collections.deque()
        for task in tasks:
            pending.append(pool.submit(worker, task))
            if len(pending) > 2 * jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _merge_reports(check_list, report_streams, grid_desc, started):
    totals = {c: SweepReport(c, grid_desc) for c in check_list}
    for reports in report_streams:
        for check, rep in reports.items():
            totals[check].merge(rep)
    elapsed = time.monotonic() - started
    for rep in totals.values():
        rep.wall_time = elapsed
    return totals


def _grid_sweep(checks, grid, jobs):
    started = time.monotonic()
    blocks, desc = _resolve_grid(checks[0], grid)
    _check_block_axes(checks, blocks)
    return _merge_reports(checks, _run(_eval_task, _tasks(checks, blocks), jobs), desc, started)


def bound_sweep(checks, grid=None, jobs: int = 1) -> dict[str, SweepReport]:
    """Sweep several residue-class-sum bound checks over one grid in a single pass."""
    checks = tuple(checks)
    if not checks:
        raise GridError("no bound checks to sweep: the check list is empty")
    for check in checks:
        if check not in BOUND_CHECKS:
            raise GridError(f"{check!r} is not a bound check")
    return _grid_sweep(checks, grid, jobs)


def sweep(check: str, grid=None, jobs: int = 1, samples: int = 10**4, seed: int = 0) -> SweepReport:
    """Run one named check over a grid (or its default), returning the report.

    An identity check is randomized: it draws samples from seed and refuses a grid.
    """
    if check in IDENTITY_CHECKS:
        if grid not in (None, "default"):
            raise GridError(f"{check} is randomized; use --samples and --seed instead of --grid")
        return identity_sweep(check, samples=samples, seed=seed, jobs=jobs)
    if check not in CHECK_NAMES:
        raise GridError(f"unknown check {check!r}")
    return _grid_sweep((check,), grid, jobs)[check]


def identity_sweep(check: str, samples: int = 10**4, seed: int = 0, jobs: int = 1) -> SweepReport:
    """Check an exact identity on randomized instances drawn from a fixed seed.

    More than SAMPLES_CAP samples raise CapacityError before any is drawn.
    """
    if check not in IDENTITY_CHECKS:
        raise GridError(f"{check!r} is not an identity check")
    if samples < 1:
        raise GridError(f"samples must be >= 1, got {samples}")
    if samples > SAMPLES_CAP:
        raise CapacityError(f"identity sweeps capped at samples <= {SAMPLES_CAP}, got samples={samples}")
    started = time.monotonic()
    desc = f"random(samples={samples}, seed={seed}, n<=60, m<=9, |r|<=12, deg<=5, |coeff|<=9)"
    tasks = _identity_tasks(check, samples, seed)
    return _merge_reports([check], _run(_eval_task, tasks, jobs), desc, started)[check]
