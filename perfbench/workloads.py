"""The three benchmark workloads: seeded inputs, timed body, correctness gate.

Each workload is a closed loop with one client: the next operation starts
when the previous one returned.  ``run()`` is the timed body and returns
one ``Op`` per operation; ``check()`` runs outside the timed region and
re-derives the answers through independent routes.  The package is only
reached through module attributes looked up at call time
(``verify.bound_sweep``, ``cli.main``), so the tracer's rebinding applies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
from dataclasses import dataclass
from statistics import median
from time import perf_counter

from padicsums import cli, golden, polysum, stirling, verify


@dataclass
class Op:
    """One operation of a pass: its wall time, output digest and parsed result."""

    name: str
    seconds: float
    digest: str
    result: object = None
    error: str = ""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def run_cli(name: str, argv: list[str]) -> Op:
    """Run ``padicsums.cli.main`` in-process with captured stdout and stderr.

    The digest covers the exit code, stdout and stderr; the ``wall time:``
    line that ``verify`` writes to stderr is a timing, so it is left out.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
    except Exception as exc:  # an unexpected exception fails this operation only
        return Op(name, perf_counter() - t0, "", error=f"{type(exc).__name__}: {exc}")
    dt = perf_counter() - t0
    err_text = "".join(line for line in err.getvalue().splitlines(True)
                       if not line.startswith("wall time:"))
    res = CliResult(rc, out.getvalue(), err_text)
    return Op(name, dt, _sha(f"{rc}\n{res.out}\n{res.err}"), res)


def run_call(name: str, fn, *args, **kwargs) -> Op:
    """Time one public API call returning a SweepReport or a dict of them."""
    t0 = perf_counter()
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:
        return Op(name, perf_counter() - t0, "", error=f"{type(exc).__name__}: {exc}")
    dt = perf_counter() - t0
    reports = res if isinstance(res, dict) else {res.check: res}
    text = "".join(f"{c}\n{r.to_json()}\n" for c, r in reports.items())
    return Op(name, dt, _sha(text), reports)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One value from each of ``count`` equal strata of [lo, hi]: seeds move
    the values but keep the spread of cost across the range the same."""
    width = (hi - lo + 1) / count
    return [rng.randint(lo + math.floor(i * width), lo + math.floor((i + 1) * width) - 1)
            for i in range(count)]


def _digits(p: int, x: int) -> list[int]:
    out = []
    while x:
        x, d = divmod(x, p)
        out.append(d)
    return out


def _ord(p: int, x: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------- residue-sweeps


class ResidueSweeps:
    """Fused bound sweep, equality conjecture and split identity at jobs=1.

    verify, padic and polysum do the work; stirling does none.  This is
    the target of the fused-sweep work and the control for stirling work.
    """

    name = "residue-sweeps"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        # The full grid (n=1..200) takes about two minutes; one n from each of
        # eight strata keeps the cost of a pass nearly the same for every seed.
        self.ns = _stratified(rng, 1, 40 if tiny else 200, 1 if tiny else 8)
        self.bound_blocks = [dict(b, n=list(self.ns)) for b in verify.default_grid("polysum-bound")]
        if tiny:
            self.bound_blocks = [dict(b, r=b["r"][:6], l=b["l"][:4]) for b in self.bound_blocks[:2]]
        eq = verify.default_grid("equality-conjecture")
        group = 4
        self.eq_blocks = [eq[i + rng.randrange(min(group, len(eq) - i))] for i in range(0, len(eq), group)]
        if tiny:
            self.eq_blocks = self.eq_blocks[:3]
        self.identity_samples = 40 if tiny else 2000
        self.identity_seed = seed
        self.recheck = [
            (b["p"][0], b["alpha"][0], rng.choice(self.ns), rng.choice(b["r"]), rng.choice(b["l"]))
            for b in (rng.choice(self.bound_blocks) for _ in range(4 if tiny else 24))
        ]

    def run(self) -> list[Op]:
        return [
            run_call("bound_sweep", verify.bound_sweep, verify.BOUND_CHECKS, self.bound_blocks, jobs=1),
            run_call("equality-conjecture", verify.sweep, "equality-conjecture", self.eq_blocks, jobs=1),
            run_call(
                "split-identity", verify.identity_sweep, "split-identity",
                samples=self.identity_samples, seed=self.identity_seed, jobs=1,
            ),
        ]

    def expected_instances(self) -> dict[str, int]:
        out = {}
        for c in verify.BOUND_CHECKS:
            per_l = c in ("polysum-bound", "carry-bound", "binom-weight-bound")
            out[c] = sum(len(b["n"]) * len(b["r"]) * (len(b["l"]) if per_l else 1)
                         for b in self.bound_blocks)
        out["equality-conjecture"] = sum(b["n"][0] + 1 for b in self.eq_blocks)
        out["split-identity"] = self.identity_samples
        return out

    def instances(self, ops: list[Op]) -> int:
        return sum(r.checked + r.skipped for op in ops if op.result for r in op.result.values())

    def certified(self, ops: list[Op]) -> tuple[int, int]:
        """Verdicts the precision decided, over all checked instances."""
        reports = [r for op in ops if op.result for r in op.result.values()]
        return sum(r.checked - r.undetermined for r in reports), sum(r.checked for r in reports)

    def check(self, ops: list[Op]) -> dict[str, list[str]]:
        fails: dict[str, list[str]] = {}
        want = self.expected_instances()
        for op in ops:
            bad = fails.setdefault(op.name, [])
            if op.error:
                bad.append(op.error)
                continue
            for c, r in op.result.items():
                if r.checked + r.skipped != want[c]:
                    bad.append(f"{c}: {r.checked + r.skipped} instances, grid has {want[c]}")
                if c != "equality-conjecture" and (r.violations or r.undetermined):
                    bad.append(f"{c}: {len(r.violations)} violations, {r.undetermined} undetermined")
        results = {op.name: op.result for op in ops if op.result}
        if "bound_sweep" in results:
            fails["bound_sweep"] += self._recheck(results["bound_sweep"])
        if "equality-conjecture" in results:
            fails["equality-conjecture"] += self._recheck_equality(results["equality-conjecture"]["equality-conjecture"])
        return {k: v for k, v in fails.items() if v}

    def _recheck_equality(self, report) -> list[str]:
        """Re-derive every equality-conjecture instance with ``math.comb``:
        an instance is a violation exactly when the p-adic order of its
        alternating residue-class sum differs from ord_p(floor(n/p^alpha)!)
        plus the carries of r and n-r modulo p^alpha (Kummer)."""
        held = flagged = 0
        violations = set()
        for b in self.eq_blocks:
            (p,), (alpha,), (n,) = b["p"], b["alpha"], b["n"]
            m, q = p**alpha, n // p**alpha
            e = len(_digits(p, q)) - 1  # base-p magnitude of n/p^alpha
            mod = (p - 1) * p**e
            flagged += len(b["r"]) if e == 0 else 0
            bound0 = _ord(p, math.factorial(q))
            for r in b["r"]:
                l = q + (r // m + (n - r) // m - q) % mod  # smallest admissible exponent
                s = sum((-1) ** k * math.comb(n, k) * ((k - r) // m) ** l for k in range(r % m, n + 1, m))
                a, c = r % m, (n - r) % m
                bound = bound0 + _ord(p, math.comb(a + c, a))
                if s and _ord(p, s) == bound:
                    held += 1
                else:
                    violations.add((p, alpha, n, r, l))
        got = {tuple(v for _, v in o.instance) for o in report.violations}
        bad = []
        if (report.held, report.flagged) != (held, flagged):
            bad.append(f"equality-conjecture: held={report.held} flagged={report.flagged}, "
                       f"independent route gives held={held} flagged={flagged}")
        if got != violations:
            bad.append(f"equality-conjecture: violations differ from the independent route at "
                       f"{sorted(got ^ violations)[:5]}")
        return bad

    def _recheck(self, reports) -> list[str]:
        """Re-derive sampled instances through the single-instance checks,
        which sum with ``polysum.alt_sum`` instead of the fused cell sums."""
        bad = []
        for p, alpha, n, r, l in self.recheck:
            outs = [
                verify.check_polysum_bound(p, alpha, n, r, polysum.IntPolynomial.monomial(l)),
                verify.check_carry_bound(p, alpha, n, r, l),
                verify.check_binom_weight_bound(p, alpha, n, r, l),
                verify.check_plain_sum_bound(p, alpha, n, r),
            ]
            if alpha >= 1 and n >= p ** (alpha - 1):
                outs.append(verify.check_totient_bound(p, alpha, n, r))
            for out in outs:
                if out.holds is not True:
                    bad.append(f"recheck {out.check} {out.instance_str()}: holds={out.holds}")
                    continue
                if out.slack is None:
                    continue
                lo, hi = reports[out.check].slack.get(f"p={p},alpha={alpha}", (None, None))
                if lo is None or not lo <= out.slack <= hi:
                    bad.append(f"recheck {out.check} {out.instance_str()}: slack {out.slack} "
                               f"outside the sweep's [{lo}, {hi}]")
        return bad

    def step_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        return {}


# ---------------------------------------------------------------- paper-tables


_TABLE_ROW = re.compile(r"^\|\s*(\d+)\s*\|(.*)\|\s*$")


def _table_rows(md: str) -> dict[int, list[str]]:
    rows = {}
    for line in md.splitlines():
        m = _TABLE_ROW.match(line)
        if m:
            rows[int(m.group(1))] = [c.strip() for c in m.group(2).split("|")]
    return rows


def _report_field(md: str, field: str) -> int | None:
    m = re.search(rf"^- {field}: (\d+)$", md, re.M)
    return int(m.group(1)) if m else None


class PaperTables:
    """The paper's fixed reproduction set through the CLI.

    stirling does most of the work (the exact scan in stable_params and the
    modular scans of stirling-diff-bound); this is the target of a faster
    Stirling kernel and the control for the fused sweep.  The seed is
    recorded but has no effect: these inputs are the paper's own.
    """

    name = "paper-tables"

    def __init__(self, seed: int, tiny: bool = False):
        self.n_to = 21 if tiny else golden.TABLE1_N_TO
        self.diff_grid = "p=2;alpha=0..1;h=1;l=0..2;m=2..6;n=2..3" if tiny else "default"
        self.match_grid = "n=4,6" if tiny else "default"
        self.diff_instances = 2 * 1 * 3 * 5 * 2 if tiny else 38976
        self.match_instances = 2 if tiny else 19
        self.commands = [
            ("table one --golden", ["table", "one", "--to", str(self.n_to), "--golden"]),
            ("table two --golden", ["table", "two", "--golden"]),
            ("table delta --golden", ["table", "delta", "--golden"]),
            ("verify stirling-diff-bound", ["verify", "stirling-diff-bound", "--grid", self.diff_grid]),
            ("verify factorial-match", ["verify", "factorial-match", "--grid", self.match_grid]),
        ]

    def run(self) -> list[Op]:
        return [run_cli(name, argv) for name, argv in self.commands]

    def instances(self, ops: list[Op]) -> int:
        """Table rows plus verify instances."""
        return (self.n_to - golden.TABLE1_N_FROM + 1) + len(golden.TABLE2) + len(golden.DELTA) \
            + self.diff_instances + self.match_instances

    def certified(self, ops: list[Op]) -> tuple[int, int]:
        """Table rows and verdicts that are proven, over all answers."""
        total = proven = 0
        for op in ops:
            if op.result is None:
                continue
            if op.name.startswith("verify"):
                checked = _report_field(op.result.out, "checked") or 0
                undetermined = _report_field(op.result.out, "undetermined") or 0
                total += checked
                proven += checked - undetermined
            else:
                rows = len(_table_rows(op.result.out))
                total += rows
                proven += rows
        return proven, total

    def check(self, ops: list[Op]) -> dict[str, list[str]]:
        fails = {}
        for op in ops:
            bad = fails.setdefault(op.name, [])
            if op.error:
                bad.append(op.error)
                continue
            res = op.result
            if op.name == "table one --golden":
                bad += self._check_table_one(res)
            elif op.name == "table two --golden":
                rows = _table_rows(res.out)
                got = tuple(tuple(int(v) for v in rows.get(n, [])) for n in range(9))
                if res.rc != 0 or res.err or got != golden.TABLE2:
                    bad.append(f"table two: rc={res.rc}, differs from golden or stderr {res.err!r}")
            elif op.name == "table delta --golden":
                rows = _table_rows(res.out)
                got = tuple(None if rows[l][0] == "inf" else int(rows[l][0]) for l in sorted(rows))
                if res.rc != 0 or res.err or got != golden.DELTA:
                    bad.append(f"table delta: rc={res.rc}, differs from golden or stderr {res.err!r}")
            else:
                want = self.diff_instances if "stirling" in op.name else self.match_instances
                fields = {f: _report_field(res.out, f) for f in ("checked", "held", "violations", "undetermined")}
                if res.rc != 0 or fields != {"checked": want, "held": want, "violations": 0, "undetermined": 0}:
                    bad.append(f"{op.name}: rc={res.rc} {fields}, want {want} checked and held")
        return {k: v for k, v in fails.items() if v}

    def _check_table_one(self, res: CliResult) -> list[str]:
        """Every cell equals golden except n=28 stable, which must read 31
        (the documented reference discrepancy; the reference says 32)."""
        bad = []
        rows = _table_rows(res.out)
        want_rows = range(golden.TABLE1_N_FROM, self.n_to + 1)
        if sorted(rows) != list(want_rows):
            return [f"table one: rows {sorted(rows)}"]
        for n in want_rows:
            i = n - golden.TABLE1_N_FROM
            stable = 31 if n == 28 else golden.TABLE1_STABLE[i]
            if rows[n] != [str(stable), str(golden.TABLE1_BOUND[i])]:
                bad.append(f"table one n={n}: {rows[n]}, want {[stable, golden.TABLE1_BOUND[i]]}")
        has_28 = self.n_to >= 28
        want_err = "golden mismatch: n=28 stable: computed 31, reference 32\n" if has_28 else ""
        if res.rc != (1 if has_28 else 0) or res.err != want_err:
            bad.append(f"table one: rc={res.rc} stderr={res.err!r}")
        return bad

    def step_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        def med(name):
            return median([op.seconds for ops in passes for op in ops if op.name == name])

        return {
            "table_one_s": (med("table one --golden"), "s"),
            "stirling_diff_s": (med("verify stirling-diff-bound"), "s"),
        }


# ---------------------------------------------------------------- ep-queries


_EP_RE = re.compile(
    r"^(\d+) \((certified|uncertified): ([a-z-]+)(?:, L=\d+)?, m in \[(\d+), (\d+)\], precision=(\d+)\)\n$"
)
_PARTIAL_RE = re.compile(r"^partial: >=(\d+) \(m in \[(\d+), (\d+)\], precision=(\d+)\)$", re.M)

# Off-family (c, base) pairs, fixed per slot so that the seed does not move
# the cost: a base sharing a factor with the Carmichael number makes the
# reduced exponent tiny and the modular powers cheap.
_OFF_FAMILY = ((1, 7), (3, 2), (5, 3), (2, 10), (7, 5), (2, 3))

_TOWER_RE = re.compile(r"^(\d+)\*(\d+)\^(\d+|L)\+(\d+)$")


@dataclass(frozen=True)
class Query:
    kind: str
    p: int
    n: int
    k: str
    flags: tuple[str, ...] = ()

    @property
    def argv(self) -> list[str]:
        return ["compute", "ep", "--p", str(self.p), "--n", str(self.n), "--k", self.k, *self.flags]


class EpQueries:
    """Seeded ``compute ep`` point queries over p in {2, 3, 5}.

    The mix: stable-family towers (with --L auto and explicit heights),
    family-shaped towers below the threshold (ep_auto falls back to a
    direct scan), off-family towers past the materialization cap (the
    heuristic-window route, some with a small --precision to force
    doubling and some with a small --window to force extension), and
    small plain k (exact-finite-k).  Exit 2 is a valid answer.

    The counts are chosen by measured cost (NOTES.md): the short scans
    (family, plain) and the extended scans (precision, window) each take
    a third of a pass or more, so doubling the cost of either moves
    ``wall_s`` by more than its bound.
    """

    name = "ep-queries"

    # queries per prime, per kind
    MIX = (("family-auto", 2), ("family", 16), ("fallback", 2), ("off-family", 2),
           ("precision", 7), ("window", 7), ("plain", 18))

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        n_lo, n_hi = (6, 12) if tiny else (6, 40)
        self.queries: list[Query] = []
        for p in (2, 3, 5):
            for kind, count in self.MIX:
                count = 1 if tiny else count
                off = [cb for cb in _OFF_FAMILY if cb != (p - 1, p)]
                for i, n in enumerate(_stratified(rng, n_lo, n_hi, count)):
                    self.queries.append(self._query(rng, kind, p, n, off[i % len(off)]))

    @staticmethod
    def _query(rng, kind, p, n, cb) -> Query:
        c, base = cb
        if kind == "family-auto":
            return Query(kind, p, n, f"{p - 1}*{p}^L+{n - 1}", ("--L", "auto"))
        if kind == "family":
            return Query(kind, p, n, f"{p - 1}*{p}^{rng.randint(100, 10**6)}+{n - 1 + rng.randint(0, 9)}")
        if kind == "fallback":
            # Below the family threshold: a direct scan, exact for p=2,3 and
            # heuristic for p=5, so the certified share does not move with the seed.
            return Query(kind, p, n, f"{p - 1}*{p}^3+{n - 1}")
        if kind == "plain":
            return Query(kind, p, n, str(n + rng.randint(0, 60)))
        k = f"{c}*{base}^{rng.randint(65, 10**5)}+{n - 1 + rng.randint(0, 20)}"
        flags = {"precision": ("--precision", "2"), "window": ("--window", "3")}.get(kind, ())
        return Query(kind, p, n, k, flags)

    def run(self) -> list[Op]:
        return [run_cli(f"query {i}", q.argv) for i, q in enumerate(self.queries)]

    def instances(self, ops: list[Op]) -> int:
        return len(ops)

    def certified(self, ops: list[Op]) -> tuple[int, int]:
        return sum(1 for op in ops if op.result is not None and op.result.rc == 0), len(ops)

    def check(self, ops: list[Op]) -> dict[str, list[str]]:
        fails = {}
        for q, op in zip(self.queries, ops):
            msg = op.error or self._check_query(q, op.result)
            if msg:
                fails[op.name] = [f"{q.argv}: {msg}"]
        return fails

    def _check_query(self, q: Query, res: CliResult) -> str:
        text = res.out if res.rc == 0 else res.err
        m = _EP_RE.match(text)
        if res.rc == 2 and m is None:
            part = _PARTIAL_RE.search(res.err)
            if part is None or not res.err.startswith("undetermined:"):
                return f"exit 2 without an answer: {res.err!r}"
            return self._check_undetermined(q, part)
        if m is None or res.rc not in (0, 2) or (res.rc == 0) != (m.group(2) == "certified"):
            return f"unexpected output rc={res.rc} out={res.out!r} err={res.err!r}"
        value, cert = int(m.group(1)), m.group(3)
        lo, hi, prec = int(m.group(4)), int(m.group(5)), int(m.group(6))
        if cert == "exact-finite-k":
            want = self._exact_min(q.p, q.n, int(q.k) if q.k.isdigit() else _tower_value(q.k))
        elif cert in ("stable-family", "heuristic-window"):
            # The family value is checked without stable_params (which
            # stable_min_ord already cross-checks): the answer's k is
            # rescanned over its printed m range at doubled precision.
            height = re.search(r", L=(\d+),", text)
            want = _surjection_min(q.p, q.k, lo, hi, 2 * prec, height and int(height.group(1)))
        else:
            return f"unknown certificate {cert!r}"
        if value != want:
            return f"answer {value} ({cert}, m in [{lo}, {hi}]), independent route gives {want}"
        return ""

    @staticmethod
    def _exact_min(p: int, n: int, k: int) -> int:
        """min over n <= m <= k of ord_p(m! S(k, m)), from the exact triangle."""
        row = None
        for _, row in stirling.stirling_rows(k, k):
            pass
        return min(_ord(p, math.factorial(m) * row[m]) for m in range(n, k + 1) if row[m])

    def _check_undetermined(self, q: Query, part) -> str:
        floor, lo, hi = int(part.group(1)), int(part.group(2)), int(part.group(3))
        got = _surjection_min(q.p, q.k, lo, hi, 2 * floor)
        if got is not None and got < floor:
            return f"undetermined at precision {floor}, but doubled precision finds {got} < {floor}"
        return ""

    def step_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        per_query = [median([ops[i].seconds for ops in passes]) * 1000 for i in range(len(self.queries))]
        return {
            "query_p50_ms": (_percentile(per_query, 50), "ms"),
            "query_p90_ms": (_percentile(per_query, 90), "ms"),
        }


def _tower_value(k: str) -> int:
    c, base, L, d = _TOWER_RE.match(k).groups()
    return int(c) * int(base) ** int(L) + int(d)


def _surjection_min(p: int, k: str, lo: int, hi: int, precision: int, L: int | None = None) -> int | None:
    """min over lo <= m <= hi of ord_p(m! S(k, m)) for the tower k = c*b^L+d,
    from the surjection count sum((-1)**(m-j) C(m, j) j**k) modulo
    p**precision; None if every term vanishes.  ``L`` fills in a symbolic
    height.

    Written apart from ``stirling.mstirling_mod``: for j prime to p the
    exponent is reduced modulo phi(p**precision) by Euler's theorem, and for
    p | j the power vanishes once k >= precision.
    """
    c, base, height, d = _TOWER_RE.match(k).groups()
    c, base, d = int(c), int(base), int(d)
    height = L if height == "L" else int(height)
    M = p**precision
    if height <= 64:
        exact = c * base**height + d
        powers = [pow(j, exact, M) for j in range(hi + 1)]
    else:  # k > 2**64 > precision
        phi = (p - 1) * p ** (precision - 1)
        e = (c * pow(base, height, phi) + d) % phi
        powers = [pow(j, e, M) if j % p else 0 for j in range(hi + 1)]
    orders = []
    for m in range(lo, hi + 1):
        s = sum((-1) ** (m - j) * math.comb(m, j) * powers[j] for j in range(1, m + 1)) % M
        if s:
            orders.append(_ord(p, s))
    return min(orders) if orders else None


def _percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


WORKLOADS = {w.name: w for w in (ResidueSweeps, PaperTables, EpQueries)}
