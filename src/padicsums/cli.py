"""Command-line surface: single computations, table emission, verification sweeps.

Exit codes: 0 success, 1 golden mismatch or sweep violation, 2 undetermined
or uncertified result (partial output on stderr), 64 usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import golden
from .exponents import parse_exponent, symbolic_tower
from .padic import CapacityError, carries, ord_factorial, ord_int
from .polysum import binom_exact
from .stirling import (
    DEFAULT_WINDOW,
    PrecisionError,
    mstirling_mod,
    stable_min_ord,
    stable_params,
    stirling_exact,
)
from .su_bounds import (
    bound_report,
    emit_delta,
    emit_table1,
    emit_table2,
    ep_auto,
    render,
    table_delta,
    table_one,
    table_two,
)
from .verify import CHECK_NAMES, IDENTITY_CHECKS, GridError, sweep


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit status pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}") from None


def _cmd_compute_ord(args) -> int:
    order = ord_int(args.p, args.x)
    print("inf" if order is None else order)
    return 0


def _cmd_compute_ord_factorial(args) -> int:
    print(ord_factorial(args.p, args.m))
    return 0


def _cmd_compute_tau(args) -> int:
    print(carries(args.p, args.a, args.b))
    return 0


def _cmd_compute_binom(args) -> int:
    print(binom_exact(args.n, args.k))
    return 0


def _cmd_compute_stirling(args) -> int:
    print(stirling_exact(args.k, args.m))
    return 0


def _cmd_compute_mstirling(args) -> int:
    k = parse_exponent(args.k, L=args.L)
    residue = mstirling_mod(k, args.m, args.p, args.E)
    print(f"{residue} (mod {args.p}^{args.E})")
    return 0


def _cmd_compute_ep(args) -> int:
    """--L auto needs the family form (p-1)*p^L+d and takes stable_min_ord's own height."""
    opts = {"window": args.window, "precision": args.precision}
    if args.L == "auto":
        tower = symbolic_tower(args.k)
        if tower is None:
            raise ValueError("--L auto needs a symbolic exponent of the form 'c*base^L+d'")
        if tower[:2] != (args.p - 1, args.p):
            raise ValueError(f"--L auto requires the stable family form {args.p - 1}*{args.p}^L+d")
        res = stable_min_ord(args.p, args.n, d=tower[2], **opts)
        L = res.stable.height
    else:
        try:
            height = None if args.L is None else int(args.L)
        except ValueError:
            raise ValueError(f"--L must be an integer or 'auto', got {args.L!r}") from None
        k = parse_exponent(args.k, L=height)
        res, L = ep_auto(args.p, args.n, k, **opts), k.L
    lo, hi = res.m_scanned
    if res.certified:
        detail = f"certified: {res.certificate}"
        if res.certificate == "stable-family":
            detail += f", L={L}"
        print(f"{res.value} ({detail}, m in [{lo}, {hi}], precision={res.precision})")
        return 0
    print(
        f"{res.value} (uncertified: {res.certificate}, m in [{lo}, {hi}], precision={res.precision})",
        file=sys.stderr,
    )
    return 2


def _cmd_compute_stable(args) -> int:
    params = stable_params(args.p, args.n, m_window=args.window, d=args.d)
    lo, hi = params.m_scanned
    print(f"N={params.N} N0={params.N0} L0={params.L0} m0={params.m0} m_scanned=[{lo}, {hi}]")
    return 0


def _cmd_compute_bound(args) -> int:
    rep = bound_report(args.p, args.n)
    old = "n/a" if rep.old is None else rep.old
    print(f"new={rep.new} old={old} restated={rep.restated}")
    return 0


def _cmd_compute_delta(args) -> int:
    value = emit_delta(args.p, args.alpha, args.n, args.baseline, args.l, args.l)[0]
    print("inf" if value is None else value)
    return 0


def _golden_compare(cells) -> int:
    """Print a golden mismatch line for each (label, computed, reference) that differs; 1 if any did."""
    mismatches = 0
    for label, got, want in cells:
        if got != want:
            mismatches += 1
            shown = "inf" if got is None else got
            print(f"golden mismatch: {label}: computed {shown}, reference {want}", file=sys.stderr)
    return 1 if mismatches else 0


def _cmd_table_one(args) -> int:
    if args.golden and (args.lo < golden.TABLE1_N_FROM or args.hi > golden.TABLE1_N_TO):
        raise ValueError(
            f"--golden covers n in [{golden.TABLE1_N_FROM}, {golden.TABLE1_N_TO}], "
            f"got [{args.lo}, {args.hi}]"
        )
    rows = emit_table1(args.lo, args.hi, with_max=args.with_max, k_budget=args.k_budget)
    sys.stdout.write(render(table_one(rows), args.format))
    if not args.golden:
        return 0
    return _golden_compare(
        cell
        for row in rows
        for cell in (
            (f"n={row.n} stable", row.stable, golden.TABLE1_STABLE[row.n - golden.TABLE1_N_FROM]),
            (f"n={row.n} bound", row.bound, golden.TABLE1_BOUND[row.n - golden.TABLE1_N_FROM]),
        )
    )


def _cmd_table_two(args) -> int:
    matrix = emit_table2()
    sys.stdout.write(render(table_two(matrix), args.format))
    if not args.golden:
        return 0
    return _golden_compare((f"({n},{r})", matrix[n][r], golden.TABLE2[n][r]) for n in range(9) for r in range(9))


def _cmd_table_delta(args) -> int:
    if args.golden:
        defaults = (args.p, args.alpha, args.n, args.baseline) == (2, 2, 100, 22)
        in_range = golden.DELTA_L_FROM <= args.lo and args.hi <= golden.DELTA_L_TO
        if not (defaults and in_range):
            raise ValueError(
                f"--golden covers p=2 alpha=2 n=100 baseline=22, "
                f"l in [{golden.DELTA_L_FROM}, {golden.DELTA_L_TO}]"
            )
    values = emit_delta(args.p, args.alpha, args.n, args.baseline, args.lo, args.hi)
    sys.stdout.write(render(table_delta(values, args.lo), args.format))
    if not args.golden:
        return 0
    return _golden_compare(
        (f"l={l}", value, golden.DELTA[l - golden.DELTA_L_FROM]) for l, value in enumerate(values, args.lo)
    )


def _cmd_verify(args) -> int:
    source = "--jobs" if args.jobs is not None else "environment variable PADICSUMS_JOBS"
    jobs = args.jobs if args.jobs is not None else _env_int("PADICSUMS_JOBS")
    if jobs is not None and jobs < 1:
        raise ValueError(f"{source} must be >= 1, got {jobs}")
    grid = None if args.grid in (None, "default") else args.grid
    if args.check in IDENTITY_CHECKS and grid is not None:
        raise GridError(f"{args.check} is randomized; use --samples and --seed instead of --grid")
    report = sweep(args.check, grid=grid, jobs=jobs or 1, samples=args.samples, seed=args.seed)
    sys.stdout.write(report.to_markdown() if args.format == "md" else report.to_json() + "\n")
    print(f"wall time: {report.wall_time:.1f}s", file=sys.stderr)
    return report.exit_code(strict=args.strict)


def build_parser() -> _Parser:
    parser = _Parser(prog="padicsums", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print one value")
    csub = compute.add_subparsers(dest="subject", required=True)

    c = csub.add_parser("ord", help="p-adic order of an integer")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--x", type=int, required=True)
    c.set_defaults(func=_cmd_compute_ord)

    c = csub.add_parser("ord-factorial", help="p-adic order of m!")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.set_defaults(func=_cmd_compute_ord_factorial)

    c = csub.add_parser("tau", help="base-p carries when adding a and b")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--a", type=int, required=True)
    c.add_argument("--b", type=int, required=True)
    c.set_defaults(func=_cmd_compute_tau)

    c = csub.add_parser("binom", help="exact binomial coefficient")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.set_defaults(func=_cmd_compute_binom)

    c = csub.add_parser("stirling", help="exact Stirling number of the second kind")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.set_defaults(func=_cmd_compute_stirling)

    c = csub.add_parser("mstirling", help="m! S(k,m) modulo p^E for structured k")
    c.add_argument("--k", required=True, help="exponent, e.g. 163 or '2*3^40+28'")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--E", type=int, required=True)
    c.add_argument("--L", type=int, default=None, help="value for a symbolic L in --k")
    c.set_defaults(func=_cmd_compute_mstirling)

    c = csub.add_parser("ep", help="minimum of ord_p(m! S(k,m)) over m >= n")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", required=True, help="exponent, e.g. 163 or '2*3^L+28'")
    c.add_argument("--L", default=None, help="height for a symbolic L, or 'auto'")
    c.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    c.add_argument("--precision", type=int, default=None)
    c.set_defaults(func=_cmd_compute_ep)

    c = csub.add_parser("stable", help="stable family parameters N, N0, L0, m0")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, default=None)
    c.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    c.set_defaults(func=_cmd_compute_stable)

    c = csub.add_parser("bound", help="homotopy exponent lower bounds at (p, n)")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=_cmd_compute_bound)

    c = csub.add_parser("delta", help="one excess order delta(l)")
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--p", type=int, default=2)
    c.add_argument("--alpha", type=int, default=2)
    c.add_argument("--n", type=int, default=100)
    c.add_argument("--baseline", type=int, default=22)
    c.set_defaults(func=_cmd_compute_delta)

    table = sub.add_parser("table", help="emit a reference table")
    tsub = table.add_subparsers(dest="which", required=True)

    t = tsub.add_parser("one", help="p=3 comparison table")
    t.add_argument("--from", dest="lo", type=int, default=golden.TABLE1_N_FROM)
    t.add_argument("--to", dest="hi", type=int, default=golden.TABLE1_N_TO)
    t.add_argument("--golden", action="store_true", help="compare against embedded reference values")
    t.add_argument("--with-max", action="store_true", help="add the bounded-search observed maximum")
    t.add_argument("--k-budget", type=int, default=40)
    t.add_argument("--format", choices=("md", "csv", "json"), default="md")
    t.set_defaults(func=_cmd_table_one)

    t = tsub.add_parser("two", help="9x9 carry-count table")
    t.add_argument("--golden", action="store_true")
    t.add_argument("--format", choices=("md", "csv", "json"), default="md")
    t.set_defaults(func=_cmd_table_two)

    t = tsub.add_parser("delta", help="excess order sequence delta(l)")
    t.add_argument("--from", dest="lo", type=int, default=golden.DELTA_L_FROM)
    t.add_argument("--to", dest="hi", type=int, default=golden.DELTA_L_TO)
    t.add_argument("--p", type=int, default=2)
    t.add_argument("--alpha", type=int, default=2)
    t.add_argument("--n", type=int, default=100)
    t.add_argument("--baseline", type=int, default=22)
    t.add_argument("--golden", action="store_true")
    t.add_argument("--format", choices=("md", "csv", "json"), default="md")
    t.set_defaults(func=_cmd_table_delta)

    verify = sub.add_parser("verify", help="sweep one check over a grid")
    verify.add_argument("check", choices=CHECK_NAMES)
    verify.add_argument("--grid", default=None, help="'default' or 'p=2,3; alpha=0..3; n=1..200; ...'")
    verify.add_argument("--jobs", type=int, default=None)
    verify.add_argument("--format", choices=("md", "json"), default="md")
    verify.add_argument("--strict", action="store_true", help="conjecture violations become fatal")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=10**4)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except PrecisionError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        lo, hi = exc.partial.m_scanned
        print(
            f"partial: >={exc.partial.value} (m in [{lo}, {hi}], precision={exc.partial.precision})",
            file=sys.stderr,
        )
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
