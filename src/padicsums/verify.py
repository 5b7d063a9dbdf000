"""Grid verification of valuation bounds and exact integer identities.

Every check_* function evaluates one inequality or equality on exact
integers (or on residues with a truncated valuation) for one instance and
returns a CheckOutcome.  sweep() runs a check over a parameter grid in a
fixed lexicographic order and counts held and undetermined instances in
bulk into a SweepReport, building a CheckOutcome only for a violation; the
report's rendered form is byte-identical at any parallelism level.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import random
import re
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .exponents import StructuredExponent
from .padic import (
    CapacityError,
    carries,
    check_prime,
    euler_phi_prime_power,
    ord_factorial,
    ord_nonzero,
)
from .polysum import (
    SUM_CAP,
    IntPolynomial,
    ONE,
    alt_sum,
    alt_sums_upto,
    binom_poly,
    check_floor_identity,
    check_split_identity,
)
from .stirling import mstirling_scan, stable_min_ord


IDENTITY_CHECKS = ("floor-identity", "split-identity")

# Cells per worker task: points of a grid sub-block's cut axes, or identity
# samples.  Fixed, so tasks depend on the grid alone, never on the pool size.
_CELL_CHUNK = 64
_RENDER_CAP = 50
# Instances one parsed grid may hold: about three times a default bound grid.
GRID_CAP = 10**7


class GridError(ValueError):
    """Raised for malformed grid specifications or unknown check names."""


@dataclass(frozen=True)
class CheckOutcome:
    """One checked instance.

    lhs_ord is the measured order of the left-hand sum: None means the sum
    vanished (infinite order), and lhs_exact=False means only
    "order >= lhs_ord" is known from the working precision.  holds is
    three-valued; None marks an instance the precision could not decide.
    Identity checks carry holds only.
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
        return {
            "check": self.check,
            "instance": dict(self.instance),
            "lhs_ord": self.lhs_ord,
            "lhs_exact": self.lhs_exact,
            "bound": self.bound,
            "slack": self.slack,
            "holds": self.holds,
            "skipped": self.skipped,
            "note": self.note,
        }


def _verdict(s_ord, exact, bound):
    """(slack, holds) of a measured order against an integer bound; None order: the sum vanished."""
    if s_ord is None:
        return None, True
    if exact:
        return s_ord - bound, s_ord >= bound
    return None, True if s_ord >= bound else None


def _outcome(check, inst, s_ord, exact, bound, note=""):
    slack, holds = _verdict(s_ord, exact, bound)
    return CheckOutcome(check, inst, s_ord, exact or s_ord is None, bound, slack, holds, note=note)


def _skipped(check, inst, note):
    return CheckOutcome(check, inst, None, True, None, None, None, skipped=True, note=note)


def _carry_bound(p, alpha, n, r, base, ls):
    m = p**alpha
    tau = carries(p, r % m, (n - r) % m)
    assert 0 <= tau <= alpha
    return [base + tau] * len(ls), f"tau={tau}"


def _plain_sum_bound(p, alpha, n, r, base, ls):
    # ord_p(floor(n/p^(alpha-1))!) = floor(n/p^alpha) + base by Legendre's formula; alpha = 0 uses n*p
    prev = n * p if alpha == 0 else n // p ** (alpha - 1)
    bound = ord_factorial(p, prev)
    chain = n // p**alpha + base
    if bound != chain:
        raise AssertionError(f"order chain broken at p={p} alpha={alpha} n={n}: {bound} != {chain}")
    return [bound], ""


def _totient_precondition(p, alpha, n):
    if alpha < 1:
        return f"alpha must be >= 1, got {alpha}"
    if n < p ** (alpha - 1):
        return f"n must be >= p**(alpha-1) = {p ** (alpha - 1)}, got n={n}"
    return None


def _totient_bound(p, alpha, n, r, base, ls):
    return [(n - p ** (alpha - 1)) // euler_phi_prime_power(p, alpha)], ""


@functools.lru_cache(maxsize=64)
def _ord_factorials(p, ls):
    """ord_p(l!) for each l of the tuple ls, computed once per (p, l axis), not per cell."""
    return tuple(ord_factorial(p, l) for l in ls)


@dataclass(frozen=True)
class _Bound:
    """One lower bound on the order of an alternating residue-class sum.

    weight names the summand: "x^l", "C(x,l)" (the falling factorial over
    l!, whose exact division is asserted) or "1"; only the first two read
    the l axis.  bound(p, alpha, n, r, base, ls), with base the order of
    floor(n/p^alpha)!, gives one bound per l and the note.
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
    "polysum-bound": _Bound("x^l", lambda p, alpha, n, r, base, ls: ([base] * len(ls), "")),
    "carry-bound": _Bound("x^l", _carry_bound),
    "binom-weight-bound": _Bound(
        "C(x,l)", lambda p, alpha, n, r, base, ls: ([base - o for o in _ord_factorials(p, ls)], "")
    ),
    "plain-sum-bound": _Bound("1", _plain_sum_bound),
    "totient-bound": _Bound("1", _totient_bound, _totient_precondition),
}

BOUND_CHECKS = tuple(_BOUNDS)

CHECK_NAMES = BOUND_CHECKS + ("stirling-diff-bound", "factorial-match", *IDENTITY_CHECKS, "equality-conjecture")

_WEIGHTS = {"x^l": IntPolynomial.monomial, "C(x,l)": binom_poly, "1": lambda l: ONE}


def _check_args(p, alpha, n, l=0):
    check_prime(p)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got n={n}")


def _bound_inst(p, alpha, n, r, l, d, f=None):
    inst = (("p", p), ("alpha", alpha), ("n", n), ("r", r))
    if f is not None:
        return inst + (("f", str(f)),)
    return inst + (("l", l),) if d.uses_l else inst


def _class_sums(d, sums, ls, facts, cell):
    """The residue-class sums bound d reads for each l of ls, from the sums of its weight's numerator.

    sums is indexed by l, and facts[i] = ls[i]!.  A binomial-weighted sum not
    divisible by l! raises AssertionError naming its instance in cell (p, alpha, n, r).
    """
    if d.weight != "C(x,l)":
        return [sums[l] for l in ls]
    out = []
    for l, f in zip(ls, facts):
        q, rem = divmod(sums[l], f)
        if rem:
            raise AssertionError(f"binomial-weighted sum not divisible by {l}! at {_bound_inst(*cell, l, d)}")
        out.append(q)
    return out


def _check_bound(check, p, alpha, n, r, l=0, f=None):
    """One instance of a bound check, summed directly with alt_sum (f overrides the weight)."""
    d = _BOUNDS[check]
    check_prime(p)
    missing = d.precondition(p, alpha, n)
    if missing:
        raise ValueError(missing)
    _check_args(p, alpha, n, l)
    m = p**alpha
    inst = _bound_inst(p, alpha, n, r, l, d, f)
    (bound,), note = d.bound(p, alpha, n, r, ord_factorial(p, n // m), (l,))
    s = alt_sum(n, r, m, f if f is not None else _WEIGHTS[d.weight](l))
    (q,) = _class_sums(d, {l: s}, (l,), (math.factorial(l),), (p, alpha, n, r))
    return _outcome(check, inst, ord_nonzero(p, q) if q else None, True, bound, note)


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

    The sum binom(l,k)(-1)^k m! S(k h (p-1) p^alpha + n - 1, m) is evaluated
    modulo p**E with E two above the bound, so the verdict is never left
    undetermined.  Each S is an integer, so the sum is divisible by m!:
    when ord_p(m!) >= E it vanishes modulo p**E before any table is read,
    and the outcome is the floor lhs_ord = E with lhs_exact False.
    """
    ((order, bound),) = _stirling_diff_block(p, alpha, h, n, [(l, m)])
    return _stirling_diff_outcome((p, alpha, h, l, m, n), order, bound)


def _stirling_diff_outcome(inst, order, bound):
    """The outcome of instance (p, alpha, h, l, m, n) from its kernel pair; order None is the floor."""
    inst = tuple(zip(_CHECK_AXES["stirling-diff-bound"], inst))
    if order is None:
        return _outcome("stirling-diff-bound", inst, bound + 2, False, bound)
    return _outcome("stirling-diff-bound", inst, order, True, bound)


def _stirling_diff_block(p, alpha, h, n, lms):
    """(order, bound) of check_stirling_diff_bound for each (l, m) of one (p, alpha, h, n) block.

    order is None for a floor: the sum vanishes modulo p**(bound+2).  An
    instance with ord_p(m!) >= bound + 2 is a floor without a table.  The
    others share one difference table per exponent k h (p-1) p^alpha + n - 1,
    k <= their largest l, run up to their largest m and read modulo the
    largest p**E they need.
    """
    check_prime(p)
    for name, v in (("alpha", alpha), ("h", h), ("l", min(l for l, _ in lms)), ("m", min(m for _, m in lms))):
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = {m: ord_factorial(p, m // p) for _, m in lms}
    bounds = [min(l * (alpha + 1), n - 1 + q[m]) for l, m in lms]
    out = [(None, bound) for bound in bounds]
    # ord_p(m!) = floor(m/p) + ord_p(floor(m/p)!) by Legendre's formula
    live = [i for i, ((_, m), bound) in enumerate(zip(lms, bounds)) if m // p + q[m] < bound + 2]
    if not live:
        return out
    top_E = max(bounds[i] for i in live) + 2
    top_m = max(lms[i][1] for i in live)
    tables = []
    for k in range(max(lms[i][0] for i in live) + 1):
        exp = StructuredExponent.tower(k * h * (p - 1), p, alpha, n - 1)
        tables.append(list(itertools.islice(mstirling_scan(exp, p, top_E), top_m + 1)))
    for i in live:
        (l, m), bound = lms[i], bounds[i]
        acc = sum(math.comb(l, k) * (-1) ** k * tables[k][m] for k in range(l + 1)) % p ** (bound + 2)
        if acc:
            out[i] = (ord_nonzero(p, acc), bound)
    return out


def check_factorial_match(n: int) -> CheckOutcome:
    """Exact equality of the stable family value at exponent offset n-1 with ord_2((n-1)!).

    For even n > 2 the family k = 2^L + n - 1 (scan start n-1) stabilizes at
    ord_2((n-1)!) once L >= max(N, N0); the check runs at that height.
    """
    if n <= 2 or n % 2:
        raise ValueError(f"n must be even and > 2, got n={n}")
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
    return (p - 1) * p**e, e


def _admissible_l(m, n, r, mod):
    """(floor(n/m), the residue l must have modulo mod, the smallest admissible l)."""
    lo = n // m
    target = (r // m + (n - r) // m) % mod
    return lo, target, lo + (target - lo) % mod


def check_equality_conjecture(p: int, alpha: int, n: int, r: int, l: int | None = None) -> CheckOutcome:
    """Conjectured equality in the carry bound for admissible exponents.

    Preconditions (n >= 2p^alpha - 1, l >= floor(n/p^alpha), and the
    congruence on l) gate the instance; failures are marked skipped, not
    violated.  Instances where the congruence modulus degenerates to p-1
    (magnitude e = 0) are checked but flagged in the note.
    """
    check_prime(p)
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    m = p**alpha
    if n < 2 * m - 1:
        inst = (("p", p), ("alpha", alpha), ("n", n), ("r", r), ("l", l))
        return _skipped("equality-conjecture", inst, f"precondition: n >= {2 * m - 1}")
    mod, e = conjecture_modulus(p, alpha, n)
    lo, target, smallest = _admissible_l(m, n, r, mod)
    if l is None:
        l = smallest
    inst = (("p", p), ("alpha", alpha), ("n", n), ("r", r), ("l", l))
    if l < lo:
        return _skipped("equality-conjecture", inst, f"precondition: l >= {lo}")
    if l % mod != target:
        return _skipped("equality-conjecture", inst, f"precondition: l = {target} (mod {mod})")
    (bound,), _ = _carry_bound(p, alpha, n, r, ord_factorial(p, lo), (l,))
    s = alt_sum(n, r, m, IntPolynomial.monomial(l))
    note = "boundary modulus (e=0)" if e == 0 else ""
    if s == 0:
        return CheckOutcome("equality-conjecture", inst, None, True, bound, None, False, note=note)
    v = ord_nonzero(p, s)
    return CheckOutcome("equality-conjecture", inst, v, True, bound, v - bound, v == bound, note=note)


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
    size = math.prod(sum(map(len, items)) for items in axes.values())
    if size > GRID_CAP:
        raise CapacityError(f"grid has {size} instances, over the cap of {GRID_CAP}")
    if n_capped:
        _check_n_axis(max((it[-1] for it in axes.get("n", ())), default=0))
    return {name: items[0] if len(items) == 1 else [v for it in items for v in it] for name, items in axes.items()}


_CHECK_AXES = {
    **{c: ("p", "alpha", "n", "r") + ("l",) * d.uses_l for c, d in _BOUNDS.items()},
    "stirling-diff-bound": ("p", "alpha", "h", "l", "m", "n"),
    "factorial-match": ("n",),
    "equality-conjecture": ("p", "alpha", "n", "r"),
}

_SUM_CHECKS = (*_BOUNDS, "equality-conjecture")  # checks whose n axis SUM_CAP bounds

_DEFAULT_GRID_DESC = {
    **{
        c: "p=2,3,5; alpha=0..3; n=1..200; r=-10..2*p^alpha" + "; l=0..30" * d.uses_l
        for c, d in _BOUNDS.items()
    },
    "stirling-diff-bound": "p=2,3; alpha=0..3; h=1..2; l=0..3; n=2..30; m=n..n+20",
    "factorial-match": "n=4..40 even; L=max(N,N0)",
    "equality-conjecture": "p=2,3,5; alpha=1,2; n=2p^alpha-1..120; r=0..n; l smallest admissible",
}


def default_grid(check: str) -> list[dict[str, list[int]]]:
    """The acceptance grid for a check, as a list of product blocks."""
    if check in _BOUNDS:
        uses_l = _BOUNDS[check].uses_l
        return [
            {"p": [p], "alpha": [alpha], "n": list(range(1, 201)), "r": list(range(-10, 2 * p**alpha + 1))}
            | ({"l": list(range(31))} if uses_l else {})
            for p in (2, 3, 5)
            for alpha in range(4)
        ]
    if check == "stirling-diff-bound":
        return [
            {
                "p": [2, 3],
                "alpha": [0, 1, 2, 3],
                "h": [1, 2],
                "l": [0, 1, 2, 3],
                "m": list(range(n, n + 21)),
                "n": [n],
            }
            for n in range(2, 31)
        ]
    if check == "factorial-match":
        return [{"n": list(range(4, 41, 2))}]
    if check == "equality-conjecture":
        return [
            {"p": [p], "alpha": [alpha], "n": [n], "r": list(range(n + 1))}
            for p in (2, 3, 5)
            for alpha in (1, 2)
            for n in range(2 * p**alpha - 1, 121)
        ]
    raise GridError(f"no default grid for check {check!r}")


def _resolve_grid(check, grid):
    if grid is None or grid == "default":
        return default_grid(check), _DEFAULT_GRID_DESC[check]
    if isinstance(grid, str):
        return [_grid_axes(grid, check in _SUM_CHECKS)], grid
    if isinstance(grid, dict):
        return [grid], "custom"
    return list(grid), "custom"


def _check_block_axes(checks, blocks):
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
    if need_l and not all(block["l"] for block in blocks):
        raise GridError("grid is missing axes ['l'] for this check")
    if checks[0] in _SUM_CHECKS:
        _check_n_axis(max((max(block["n"], default=0) for block in blocks), default=0))


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
    undetermined: int = 0
    skipped: int = 0
    flagged: int = 0
    slack: dict[str, tuple[int, int]] = field(default_factory=dict)
    wall_time: float = 0.0

    def add(self, key, slacks, held, undetermined=0, violations=()):
        """Count checked instances of slice key (held, undetermined or violated) and their known slacks."""
        self.checked += held + undetermined + len(violations)
        self.held += held
        self.undetermined += undetermined
        self.violations.extend(violations)
        if slacks:
            lo, hi = min(slacks), max(slacks)
            old_lo, old_hi = self.slack.get(key, (lo, hi))
            self.slack[key] = (min(old_lo, lo), max(old_hi, hi))

    def merge(self, other: "SweepReport"):
        """Count a partial report of the same check that follows this one in grid order."""
        self.skipped += other.skipped
        self.flagged += other.flagged
        self.add(None, (), other.held, other.undetermined, other.violations)
        for key, rec in other.slack.items():
            self.add(key, rec, 0)

    @property
    def equality_rate(self) -> float | None:
        if self.check != "equality-conjecture" or self.checked == 0:
            return None
        return self.held / self.checked

    def exit_code(self, strict: bool = False) -> int:
        fatal = self.violations and (strict or self.check != "equality-conjecture")
        if fatal:
            return 1
        if self.undetermined:
            return 2
        return 0

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
    once.  Each (row, check) pair is added to its report in one call, and
    only a violated instance becomes a CheckOutcome, added in grid order.
    """
    plan = [(c, _BOUNDS[c], reports[c]) for c in checks]
    weights = {d.weight for _, d, _ in plan}
    ls, rs = tuple(block.get("l", ())), block["r"]
    facts = [math.factorial(l) for l in ls]
    for p, alpha, n in itertools.product(block["p"], block["alpha"], block["n"]):
        _check_args(p, alpha, n, min(ls, default=0))
        m = p**alpha
        base = ord_factorial(p, n // m)
        key = f"p={p},alpha={alpha}"
        cells = alt_sums_upto(n, rs, m, max(ls, default=0), bool(weights - {"C(x,l)"}), "C(x,l)" in weights)
        orders = {}  # weight -> per r, the order of each sum it reads (None: the sum vanished)
        for check, d, rep in plan:
            lv = ls if d.uses_l else (0,)
            if d.precondition(p, alpha, n):
                rep.skipped += len(lv) * len(rs)
                continue
            ords = orders.get(d.weight)
            if ords is None:
                fam = d.weight == "C(x,l)"  # the index of its family in each (powers, falling) pair
                ords = orders[d.weight] = [
                    [ord_nonzero(p, s) if s else None for s in _class_sums(d, c[fam], lv, facts, (p, alpha, n, r))]
                    for r, c in zip(rs, cells)
                ]
            slacks, bad = [], []
            for r, cell_ords in zip(rs, ords):
                bounds, note = d.bound(p, alpha, n, r, base, lv)
                cell_slacks = [o - b for o, b in zip(cell_ords, bounds) if o is not None]
                slacks += cell_slacks
                if min(cell_slacks, default=0) >= 0:
                    continue
                bad += [
                    _outcome(check, _bound_inst(p, alpha, n, r, l, d), o, True, b, note)
                    for l, o, b in zip(lv, cell_ords, bounds)
                    if o is not None and o < b
                ]
            rep.add(key, slacks, len(lv) * len(rs) - len(bad), 0, bad)


def _eval_stirling_diff(block, rep):
    """Count stirling-diff-bound over a sub-block, one (p, alpha, h, n) table block at a time.

    Each block's counts are added at once; violations wait, to be added in grid order (p, alpha, h, l, m, n).
    """
    lms, ns = list(itertools.product(block["l"], block["m"])), block["n"]
    for p, alpha, h in itertools.product(block["p"], block["alpha"], block["h"]):
        key, bad = f"p={p},alpha={alpha}", []  # bad: (index in lms, index in ns, order, bound)
        for j, n in enumerate(ns if lms else ()):
            res = _stirling_diff_block(p, alpha, h, n, lms)
            low = [(i, j, o, b) for i, (o, b) in enumerate(res) if o is not None and o < b]
            rep.add(key, [o - b for o, b in res if o is not None], len(res) - len(low))
            bad += low
        bad.sort()
        rep.add(key, (), 0, 0, [_stirling_diff_outcome((p, alpha, h, *lms[i], ns[j]), o, b) for i, j, o, b in bad])


def _outcomes(check, block):
    """(slice key, outcome) of each instance of a sub-block, for checks evaluated one instance at a time."""
    if check == "factorial-match":
        for n in block["n"]:
            yield "all", check_factorial_match(n)
    elif check == "equality-conjecture":
        for p, alpha, n, r in itertools.product(block["p"], block["alpha"], block["n"], block["r"]):
            yield f"p={p},alpha={alpha}", check_equality_conjecture(p, alpha, n, r)
    else:
        fn = check_floor_identity if check == "floor-identity" else check_split_identity
        for n, m, r, coeffs in block["instance"]:
            f = IntPolynomial(coeffs)
            inst = (("n", n), ("m", m), ("r", r), ("f", str(f)))
            yield None, CheckOutcome(check, inst, None, True, None, None, fn(n, m, r, f))


def _eval_task(task):
    """{check: partial SweepReport} of one task: its checks over a sub-block, or a chunk of identity samples."""
    checks, block = task
    reports = {c: SweepReport(c, "") for c in checks}
    if checks[0] in _BOUNDS:
        _eval_bounds(checks, block, reports)
    elif checks[0] == "stirling-diff-bound":
        _eval_stirling_diff(block, reports[checks[0]])
    else:
        rep = reports[checks[0]]
        for key, o in _outcomes(checks[0], block):
            if o.skipped:
                rep.skipped += 1
                continue
            rep.flagged += o.note.startswith("boundary")
            slacks = () if o.slack is None else (o.slack,)
            rep.add(key, slacks, o.holds is True, o.holds is None, (o,) if o.holds is False else ())
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
    (p, alpha, h, n) block shares its difference tables.
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
    """worker(task) for each task, in order; a pool is sent at most 2 * jobs tasks ahead of the results read."""
    if jobs <= 1:
        yield from map(worker, tasks)
        return
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
    """Run one named check over a grid (or its default), returning the report."""
    if check in IDENTITY_CHECKS:
        return identity_sweep(check, samples=samples, seed=seed, jobs=jobs)
    if check not in CHECK_NAMES:
        raise GridError(f"unknown check {check!r}")
    return _grid_sweep((check,), grid, jobs)[check]


def identity_sweep(check: str, samples: int = 10**4, seed: int = 0, jobs: int = 1) -> SweepReport:
    """Check an exact identity on randomized instances drawn from a fixed seed.

    More than GRID_CAP samples raise CapacityError before any is drawn.
    """
    if check not in IDENTITY_CHECKS:
        raise GridError(f"{check!r} is not an identity check")
    if samples < 1:
        raise GridError(f"samples must be >= 1, got {samples}")
    if samples > GRID_CAP:
        raise CapacityError(f"{samples} samples requested, over the cap of {GRID_CAP}")
    started = time.monotonic()
    desc = f"random(samples={samples}, seed={seed}, n<=60, m<=9, |r|<=12, deg<=5, |coeff|<=9)"
    tasks = _identity_tasks(check, samples, seed)
    return _merge_reports([check], _run(_eval_task, tasks, jobs), desc, started)[check]
