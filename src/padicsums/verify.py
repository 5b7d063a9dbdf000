"""Grid verification of valuation bounds and exact integer identities.

Every check evaluates one inequality or equality on exact integers (or on
residues with a truncated valuation) and returns a CheckOutcome.  sweep()
runs a check over a parameter grid in a fixed lexicographic order and
aggregates the outcomes into a SweepReport whose rendered form is
byte-identical at any parallelism level.
"""

from __future__ import annotations

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
    ord_int,
    ord_nonzero,
)
from .polysum import (
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

# Instances per worker task; fixed so reports never depend on the pool size.
_CELL_CHUNK = 64
_INSTANCE_CHUNK = 256
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


def _verdict(s_ord, exact, bound, sound=True):
    """(slack, holds) of a measured order against an integer bound; None order: the sum vanished.

    sound=False marks a bound whose own derivation failed: a violation whatever the order.
    """
    if not sound:
        return None, False
    if s_ord is None:
        return None, True
    if exact:
        return s_ord - bound, s_ord >= bound
    return None, True if s_ord >= bound else None


def _outcome(check, inst, s_ord, exact, bound, note="", sound=True):
    slack, holds = _verdict(s_ord, exact, bound, sound)
    lhs = s_ord if sound else None
    return CheckOutcome(check, inst, lhs, exact or lhs is None, bound, slack, holds, note=note)


def _skipped(check, inst, note):
    return CheckOutcome(check, inst, None, True, None, None, None, skipped=True, note=note)


def _order(p, s):
    return None if s == 0 else ord_int(p, s).value


def _carry_bound(p, alpha, n, r, base, ls):
    m = p**alpha
    tau = carries(p, r % m, (n - r) % m)
    assert 0 <= tau <= alpha
    return [base + tau] * len(ls), f"tau={tau}", True


def _plain_sum_bound(p, alpha, n, r, base, ls):
    # ord_p(floor(n/p^(alpha-1))!), checked against the order chain; alpha = 0 uses n*p
    prev = n * p if alpha == 0 else n // p ** (alpha - 1)
    bound = ord_factorial(p, prev)
    chain = n // p**alpha + base
    return [bound], f"order chain broken: {bound} != {chain}" if bound != chain else "", bound == chain


def _totient_precondition(p, alpha, n):
    if alpha < 1:
        return f"alpha must be >= 1, got {alpha}"
    if n < p ** (alpha - 1):
        return f"n must be >= p**(alpha-1) = {p ** (alpha - 1)}, got n={n}"
    return None


def _totient_bound(p, alpha, n, r, base, ls):
    return [(n - p ** (alpha - 1)) // euler_phi_prime_power(p, alpha)], "", True


@dataclass(frozen=True)
class _Bound:
    """One lower bound on the order of an alternating residue-class sum.

    weight names the summand: "x^l", "C(x,l)" (the falling factorial over
    l!, whose exact division is asserted) or "1"; only the first two read
    the l axis.  bound(p, alpha, n, r, base, ls), with base the order of
    floor(n/p^alpha)!, gives one bound per l, the note, and False when the
    bound's own derivation fails (each instance is then a violation with no
    measured order).  precondition(p, alpha, n) names the hypothesis an
    instance misses: the check_* function raises it as a ValueError and the
    sweep counts the instance skipped.
    """

    weight: str
    bound: Callable
    precondition: Callable = lambda p, alpha, n: None

    @property
    def uses_l(self) -> bool:
        return self.weight != "1"


_BOUNDS = {
    "polysum-bound": _Bound("x^l", lambda p, alpha, n, r, base, ls: ([base] * len(ls), "", True)),
    "carry-bound": _Bound("x^l", _carry_bound),
    "binom-weight-bound": _Bound(
        "C(x,l)", lambda p, alpha, n, r, base, ls: ([base - ord_factorial(p, l) for l in ls], "", True)
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


def _class_sum(d, s, l, make_inst):
    """The residue-class sum the bound reads, from the sum of its weight's numerator."""
    if d.weight != "C(x,l)":
        return s
    q, rem = divmod(s, math.factorial(l))
    if rem:
        raise AssertionError(f"binomial-weighted sum not divisible by {l}! at {make_inst()}")
    return q


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
    (bound,), note, sound = d.bound(p, alpha, n, r, ord_factorial(p, n // m), (l,))
    s = alt_sum(n, r, m, f if f is not None else _WEIGHTS[d.weight](l))
    return _outcome(check, inst, _order(p, _class_sum(d, s, l, lambda: inst)), True, bound, note, sound)


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


def check_factorial_match(n: int, L: int | None = None) -> CheckOutcome:
    """Exact equality of the stable family value at exponent offset n-1 with ord_2((n-1)!).

    For even n > 2 the family k = 2^L + n - 1 (scan start n-1) stabilizes at
    ord_2((n-1)!) once L >= max(N, N0).
    """
    if n <= 2 or n % 2:
        raise ValueError(f"n must be even and > 2, got n={n}")
    res = stable_min_ord(2, n - 1, L=L, d=n - 1)
    used = L if L is not None else max(res.stable.N, res.stable.N0)
    inst = (("n", n), ("L", used))
    got = res.value.value
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


def conjecture_l(p: int, alpha: int, n: int, r: int) -> int:
    """Smallest admissible exponent l for the equality conjecture at (p, alpha, n, r)."""
    m = p**alpha
    mod, _ = conjecture_modulus(p, alpha, n)
    lo = n // m
    target = r // m + (n - r) // m
    return lo + (target - lo) % mod


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
    lo = n // m
    target = (r // m + (n - r) // m) % mod
    if l is None:
        l = lo + (target - lo) % mod
    inst = (("p", p), ("alpha", alpha), ("n", n), ("r", r), ("l", l))
    if l < lo:
        return _skipped("equality-conjecture", inst, f"precondition: l >= {lo}")
    if l % mod != target:
        return _skipped("equality-conjecture", inst, f"precondition: l = {target} (mod {mod})")
    (bound,), _, _ = _carry_bound(p, alpha, n, r, ord_factorial(p, lo), (l,))
    s = alt_sum(n, r, m, IntPolynomial.monomial(l))
    note = "boundary modulus (e=0)" if e == 0 else ""
    if s == 0:
        return CheckOutcome("equality-conjecture", inst, None, True, bound, None, False, note=note)
    v = ord_int(p, s).value
    return CheckOutcome("equality-conjecture", inst, v, True, bound, v - bound, v == bound, note=note)


_AXIS_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+?)\s*$")
_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_grid(text: str) -> dict[str, list[int]]:
    """Parse 'p=2,3,5; alpha=0..3; n=1..200' into axis value lists.

    The grid's instance count, the product of its axis lengths, is checked
    against GRID_CAP before any axis is expanded; a larger grid raises
    CapacityError.
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
    return {name: [v for item in items for v in item] for name, items in axes.items()}


_CHECK_AXES = {
    **{c: ("p", "alpha", "n", "r") + ("l",) * d.uses_l for c, d in _BOUNDS.items()},
    "stirling-diff-bound": ("p", "alpha", "h", "l", "m", "n"),
    "factorial-match": ("n",),
    "equality-conjecture": ("p", "alpha", "n", "r"),
}

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
        return [parse_grid(grid)], grid
    if isinstance(grid, dict):
        return [grid], "custom"
    return list(grid), "custom"


def _check_block_axes(check, blocks, need_l):
    axes = _CHECK_AXES[check]
    for block in blocks:
        wanted = set(axes) | ({"l"} if need_l else set())
        missing = [a for a in axes if a not in block]
        if missing:
            raise GridError(f"grid is missing axes {missing} for check {check!r}")
        extra = [a for a in block if a not in wanted]
        if extra:
            raise GridError(f"grid has unknown axes {extra} for check {check!r}")


def _slice_key(inst):
    return ",".join(f"{k}={v}" for k, v in inst if k in ("p", "alpha")) or "all"


@dataclass
class _Agg:
    """Order-preserving partial aggregate of check outcomes."""

    checked: int = 0
    held: int = 0
    undetermined: int = 0
    skipped: int = 0
    flagged: int = 0
    violations: list = field(default_factory=list)
    slack: dict = field(default_factory=dict)

    def add(self, key, slack, holds, violation=None):
        """Count one checked instance of slice key; violation is its outcome when holds is False."""
        self.checked += 1
        if holds:
            self.held += 1
        elif holds is None:
            self.undetermined += 1
        else:
            self.violations.append(violation)
        if slack is not None:
            rec = self.slack.get(key)
            if rec is None:
                self.slack[key] = [slack, slack]
            elif slack < rec[0]:
                rec[0] = slack
            elif slack > rec[1]:
                rec[1] = slack

    def fold(self, out: CheckOutcome):
        if out.skipped:
            self.skipped += 1
            return
        if out.note.startswith("boundary"):
            self.flagged += 1
        self.add(_slice_key(out.instance) if out.slack is not None else None, out.slack, out.holds, out)

    def merge(self, other: "_Agg"):
        self.checked += other.checked
        self.held += other.held
        self.undetermined += other.undetermined
        self.skipped += other.skipped
        self.flagged += other.flagged
        self.violations.extend(other.violations)
        for key, (lo, hi) in other.slack.items():
            rec = self.slack.get(key)
            if rec is None:
                self.slack[key] = [lo, hi]
            else:
                rec[0] = min(rec[0], lo)
                rec[1] = max(rec[1], hi)


@dataclass
class SweepReport:
    """Aggregated result of one check swept over a grid."""

    check: str
    grid: str
    checked: int
    held: int
    violations: list[CheckOutcome]
    undetermined: int
    skipped: int
    flagged: int
    slack: dict[str, tuple[int, int]]
    wall_time: float = 0.0

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


def _eval_bound_task(args):
    """Evaluate a chunk of (p, alpha, n, r, l-tuple) cells for several bound checks."""
    checks, cells = args
    plan = [(c, _BOUNDS[c], _Agg()) for c in checks]
    weights = {d.weight for _, d, _ in plan}
    for p, alpha, n, r, ls in cells:
        _check_args(p, alpha, n, min(ls, default=0))
        m = p**alpha
        base = ord_factorial(p, n // m)
        key = _slice_key((("p", p), ("alpha", alpha)))
        pows, ffs = alt_sums_upto(n, r, m, max(ls, default=0), bool(weights - {"C(x,l)"}), "C(x,l)" in weights)
        orders = {}  # weight -> order of each sum it reads, shared by the checks that read it
        for check, d, agg in plan:
            lv = ls if d.uses_l else (0,)
            if d.precondition(p, alpha, n):
                agg.skipped += len(lv)
                continue
            bounds, note, sound = d.bound(p, alpha, n, r, base, lv)
            ords = orders.get(d.weight)
            if ords is None:
                sums = ffs if d.weight == "C(x,l)" else pows
                ords = orders[d.weight] = [
                    _order(p, _class_sum(d, sums[l], l, lambda: _bound_inst(p, alpha, n, r, l, d))) for l in lv
                ]
            for l, s_ord, bound in zip(lv, ords, bounds):
                slack, holds = _verdict(s_ord, True, bound, sound)
                if holds:
                    agg.add(key, slack, holds)
                else:
                    inst = _bound_inst(p, alpha, n, r, l, d)
                    agg.add(key, slack, holds, _outcome(check, inst, s_ord, True, bound, note, sound))
    return {c: agg for c, _, agg in plan}


def _eval_instance_task(args):
    check, instances = args
    agg = _Agg()
    if check == "stirling-diff-bound":
        blocks = {}  # (p, alpha, h, n) -> {index: (l, m)}; a block shares its tables
        for i, (p, alpha, h, l, m, n) in enumerate(instances):
            blocks.setdefault((p, alpha, h, n), {})[i] = (l, m)
        results = [None] * len(instances)
        for block, lms in blocks.items():
            for i, res in zip(lms, _stirling_diff_block(*block, list(lms.values()))):
                results[i] = res
        for inst, (order, bound) in zip(instances, results):
            if order is None:
                agg.add(None, None, True)
                continue
            holds = order >= bound
            violation = None if holds else _stirling_diff_outcome(inst, order, bound)
            agg.add(f"p={inst[0]},alpha={inst[1]}", order - bound, holds, violation)
    elif check == "factorial-match":
        for (n,) in instances:
            agg.fold(check_factorial_match(n))
    elif check == "equality-conjecture":
        for p, alpha, n, r in instances:
            agg.fold(check_equality_conjecture(p, alpha, n, r))
    else:
        raise GridError(f"unknown check {check!r}")
    return {check: agg}


def _eval_identity_task(args):
    check, instances = args
    fn = check_floor_identity if check == "floor-identity" else check_split_identity
    agg = _Agg()
    for n, m, r, coeffs in instances:
        f = IntPolynomial(coeffs)
        inst = (("n", n), ("m", m), ("r", r), ("f", str(f)))
        agg.fold(CheckOutcome(check, inst, None, True, None, None, fn(n, m, r, f)))
    return {check: agg}


def _chunks(seq, size):
    it = iter(seq)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def _run(worker, tasks, jobs):
    if jobs <= 1:
        for task in tasks:
            yield worker(task)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(worker, tasks)


def _merge_reports(check_list, agg_streams, grid_desc, started):
    totals = {c: _Agg() for c in check_list}
    for aggs in agg_streams:
        for check, agg in aggs.items():
            totals[check].merge(agg)
    elapsed = time.monotonic() - started
    return {
        c: SweepReport(
            c, grid_desc, a.checked, a.held, a.violations, a.undetermined, a.skipped, a.flagged,
            {k: (v[0], v[1]) for k, v in a.slack.items()}, wall_time=elapsed,
        )
        for c, a in totals.items()
    }


def bound_sweep(checks, grid=None, jobs: int = 1) -> dict[str, SweepReport]:
    """Sweep several residue-class-sum bound checks over one grid in a single pass."""
    checks = tuple(checks)
    for check in checks:
        if check not in BOUND_CHECKS:
            raise GridError(f"{check!r} is not a bound check")
    started = time.monotonic()
    blocks, desc = _resolve_grid(checks[0], grid)
    need_l = any(_BOUNDS[c].uses_l for c in checks)
    for check in checks:
        _check_block_axes(check, blocks, need_l)

    def cells():
        for block in blocks:
            ls = tuple(block.get("l", ()))
            if need_l and not ls:
                raise GridError("grid is missing axes ['l'] for this check")
            for p, alpha, n, r in itertools.product(block["p"], block["alpha"], block["n"], block["r"]):
                yield (p, alpha, n, r, ls)

    tasks = ((checks, chunk) for chunk in _chunks(cells(), _CELL_CHUNK))
    return _merge_reports(checks, _run(_eval_bound_task, tasks, jobs), desc, started)


def sweep(check: str, grid=None, jobs: int = 1, samples: int = 10**4, seed: int = 0) -> SweepReport:
    """Run one named check over a grid (or its default), returning the report."""
    if check in BOUND_CHECKS:
        return bound_sweep([check], grid, jobs)[check]
    if check in IDENTITY_CHECKS:
        return identity_sweep(check, samples=samples, seed=seed, jobs=jobs)
    if check not in CHECK_NAMES:
        raise GridError(f"unknown check {check!r}")
    started = time.monotonic()
    blocks, desc = _resolve_grid(check, grid)
    _check_block_axes(check, blocks, need_l=False)
    tasks = _instance_tasks(check, blocks)
    return _merge_reports([check], _run(_eval_instance_task, tasks, jobs), desc, started)[check]


def _instance_tasks(check, blocks):
    """Worker tasks of a grid, cut by the grid alone, never by the pool size.

    A stirling-diff-bound task is one (p, alpha, h) of a block, so that every
    (p, alpha, h, n) block, which shares its difference tables, stays whole.
    Other checks are cut every _INSTANCE_CHUNK instances.
    """
    axes = _CHECK_AXES[check]
    if check == "stirling-diff-bound":
        for block in blocks:
            for head in itertools.product(block["p"], block["alpha"], block["h"]):
                yield check, [head + tail for tail in itertools.product(block["l"], block["m"], block["n"])]
        return
    instances = itertools.chain.from_iterable(itertools.product(*(b[a] for a in axes)) for b in blocks)
    for chunk in _chunks(instances, _INSTANCE_CHUNK):
        yield check, chunk


def identity_sweep(check: str, samples: int = 10**4, seed: int = 0, jobs: int = 1) -> SweepReport:
    """Check an exact identity on randomized instances drawn from a fixed seed."""
    if check not in IDENTITY_CHECKS:
        raise GridError(f"{check!r} is not an identity check")
    if samples < 1:
        raise GridError(f"samples must be >= 1, got {samples}")
    started = time.monotonic()
    rng = random.Random(seed)
    instances = []
    for _ in range(samples):
        n = rng.randint(1, 60)
        m = rng.randint(1, 9)
        r = rng.randint(-12, 12)
        deg = rng.randint(0, 5)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(deg + 1))
        instances.append((n, m, r, coeffs))
    desc = f"random(samples={samples}, seed={seed}, n<=60, m<=9, |r|<=12, deg<=5, |coeff|<=9)"
    tasks = ((check, chunk) for chunk in _chunks(instances, _INSTANCE_CHUNK))
    return _merge_reports([check], _run(_eval_identity_task, tasks, jobs), desc, started)[check]
