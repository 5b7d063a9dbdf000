"""Command-line surface: single computations, table emission, verification sweeps.

Exit codes: 0 success, 1 golden mismatch or sweep violation, 2 an input over a capacity cap or an
uncertified or undetermined compute ep answer (partial output on stderr), 64 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import golden
from .padic import CapacityError, PrecisionError, carries, check_prime, is_prime, ord_factorial, ord_int

DIGITS_CAP = 4300  # the most digits str() writes of an int by default


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit status pinned to 64.

    ``late(parser)``, when given, adds arguments on the parser's first parse, so a
    subcommand whose choices live in a kernel module imports it only when it runs.
    argparse lists optionals before positionals in usage and help, so the bytes do
    not depend on when a positional is added.
    """

    def __init__(self, *args, late=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._late = late

    def parse_known_args(self, args=None, namespace=None):
        if self._late is not None:
            late, self._late = self._late, None
            late(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


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


def _capped(kind, what, log10, build):
    """build(), refused past DIGITS_CAP digits: unbuilt when log10, a lower bound on its log10 to within 1e-6,
    passes DIGITS_CAP + 1, and else by its exact value."""
    refused = CapacityError(f"{kind} capped at {DIGITS_CAP} digits, got {what}")
    if log10 > DIGITS_CAP + 1:
        raise refused
    value = build()
    if value >= 10**DIGITS_CAP:
        raise refused
    return value


def _cmd_compute_binom(args) -> int:
    """C(n, k) >= 2**k, and the sum of logs is log10 C(n, k) to within 1e-6."""
    from .polysum import binom_exact

    n, k = args.n, min(args.k, args.n - args.k)
    log10 = math.inf if k > 4 * DIGITS_CAP else sum(math.log10(n - i) - math.log10(k - i) for i in range(k))
    print(_capped("binomials", f"C({args.n}, {args.k})", log10, lambda: binom_exact(args.n, args.k)))
    return 0


def _stirling_log10(k, m):
    """A lower bound on log10 S(k, m) for 1 <= m <= k: S(k, m) >= m**d with d = k - m, and for d <= m,
    S(k, m) >= C(k, 2d) (2d-1)!! = k! / ((k-2d)! d! 2**d), the partitions into d pairs and k - 2d singletons."""
    d = k - m
    if d > m:
        return d * math.log10(m)
    pairs = (math.lgamma(k + 1) - math.lgamma(k - 2 * d + 1) - math.lgamma(d + 1)) / math.log(10) - d * math.log10(2)
    return max(d * math.log10(m), pairs)


def _cmd_compute_stirling(args) -> int:
    """A k past STIRLING_CAP is refused by stirling_exact first."""
    from .stirling import STIRLING_CAP, stirling_exact

    log10 = _stirling_log10(args.k, args.m) if 0 < args.m <= args.k <= STIRLING_CAP else 0
    print(_capped("Stirling numbers", f"S({args.k}, {args.m})", log10, lambda: stirling_exact(args.k, args.m)))
    return 0


def _cmd_compute_mstirling(args) -> int:
    from .exponents import parse_exponent
    from .stirling import mstirling_mod

    k, p, E = parse_exponent(args.k), args.p, args.E
    if args.m >= 0 and is_prime(p) and E >= 1:  # past mstirling_mod's own checks, before any power
        _capped("moduli", f"{p}^{E}", E * math.log10(p), lambda: p**E)
    print(f"{mstirling_mod(k, args.m, p, E)} (mod {p}^{E})")
    return 0


def _cmd_compute_ep(args) -> int:
    """--L auto needs the family form (p-1)*p^L+d and takes stable_min_ord's own height."""
    from .exponents import parse_exponent, symbolic_tower
    from .stirling import DEFAULT_WINDOW, stable_min_ord
    from .su_bounds import ep_auto

    window = DEFAULT_WINDOW if args.window is None else args.window
    if args.L == "auto":
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        tower = symbolic_tower(args.k)
        if tower is None:
            raise ValueError("--L auto needs a symbolic exponent of the form 'c*base^L+d'")
        if tower[:2] != (check_prime(args.p) - 1, args.p):
            raise ValueError(f"--L auto requires the stable family form {args.p - 1}*{args.p}^L+d")
        res = stable_min_ord(args.p, args.n, d=tower[2], precision=args.precision)
        L = res.stable.height
    else:
        k = parse_exponent(args.k)
        res, L = ep_auto(args.p, args.n, k, window=window, precision=args.precision), k.L
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
    from .stirling import stable_params

    params = stable_params(args.p, args.n)
    lo, hi = params.m_scanned
    print(f"N={params.N} N0={params.N0} L0={params.L0} m0={params.m0} m_scanned=[{lo}, {hi}]")
    return 0


def _cmd_compute_bound(args) -> int:
    from .su_bounds import bound_report

    rep = bound_report(args.p, args.n)
    old = "n/a" if rep.old is None else rep.old
    print(f"new={rep.new} old={old} restated={rep.restated}")
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
    from .su_bounds import emit_table1, render, table_one

    if args.golden and (args.lo < golden.TABLE1_N_FROM or args.hi > golden.TABLE1_N_TO):
        raise ValueError(
            f"--golden covers n in [{golden.TABLE1_N_FROM}, {golden.TABLE1_N_TO}], "
            f"got [{args.lo}, {args.hi}]"
        )
    rows = emit_table1(args.lo, args.hi, k_budget=args.k_budget)
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
    from .su_bounds import emit_table2, render, table_two

    matrix = emit_table2()
    sys.stdout.write(render(table_two(matrix), args.format))
    if not args.golden:
        return 0
    return _golden_compare((f"({n},{r})", matrix[n][r], golden.TABLE2[n][r]) for n in range(9) for r in range(9))


def _cmd_table_delta(args) -> int:
    from .su_bounds import emit_delta, render, table_delta

    if args.golden:
        defaults = (args.p, args.alpha, args.n) == (2, 2, 100)
        in_range = golden.DELTA_L_FROM <= args.lo and args.hi <= golden.DELTA_L_TO
        if not (defaults and in_range):
            raise ValueError(
                f"--golden covers p=2 alpha=2 n=100, l in [{golden.DELTA_L_FROM}, {golden.DELTA_L_TO}]"
            )
    values = emit_delta(args.p, args.alpha, args.n, args.lo, args.hi)
    sys.stdout.write(render(table_delta(values, args.lo), args.format))
    if not args.golden:
        return 0
    return _golden_compare(
        (f"l={l}", value, golden.DELTA[l - golden.DELTA_L_FROM]) for l, value in enumerate(values, args.lo)
    )


def _add_check(parser) -> None:
    from .verify import CHECK_NAMES

    parser.add_argument("check", choices=CHECK_NAMES)


def _cmd_verify(args) -> int:
    from .verify import sweep

    report = sweep(args.check, grid=args.grid, jobs=args.jobs, samples=args.samples, seed=args.seed)
    sys.stdout.write(report.to_markdown() if args.format == "md" else report.to_json() + "\n")
    print(f"wall time: {report.wall_time:.1f}s", file=sys.stderr)
    return report.exit_code(strict=args.strict)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and shared by every later call in the process.

    Building it imports no kernel module: each subcommand's handler imports its
    kernels when it runs, and verify adds its check positional on its first parse.
    Parsing otherwise leaves a built parser unchanged, so one parser serves every
    main call, and the handlers' call-time lookups see any rebinding of a kernel.
    """
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
    c.set_defaults(func=_cmd_compute_mstirling)

    c = csub.add_parser("ep", help="minimum of ord_p(m! S(k,m)) over m >= n")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", required=True, help="exponent, e.g. 163, '2*3^40+28', or '2*3^L+28' with --L auto")
    c.add_argument("--L", choices=("auto",), default=None, help="take the height the family scan certifies")
    c.add_argument("--window", type=int, default=None)
    c.add_argument("--precision", type=int, default=None)
    c.set_defaults(func=_cmd_compute_ep)

    c = csub.add_parser("stable", help="stable family parameters N, N0, L0, m0")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=_cmd_compute_stable)

    c = csub.add_parser("bound", help="homotopy exponent lower bounds at (p, n)")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=_cmd_compute_bound)

    table = sub.add_parser("table", help="emit a reference table")
    tsub = table.add_subparsers(dest="which", required=True)

    t = tsub.add_parser("one", help="p=3 comparison table")
    t.add_argument("--from", dest="lo", type=int, default=golden.TABLE1_N_FROM)
    t.add_argument("--to", dest="hi", type=int, default=golden.TABLE1_N_TO)
    t.add_argument("--golden", action="store_true", help="compare against embedded reference values")
    t.add_argument("--with-max", dest="k_budget", nargs="?", type=int, const=40, metavar="K",
                   help="add the observed maximum over k <= n + K (K defaults to 40)")
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
    t.add_argument("--golden", action="store_true")
    t.add_argument("--format", choices=("md", "csv", "json"), default="md")
    t.set_defaults(func=_cmd_table_delta)

    verify = sub.add_parser("verify", help="sweep one check over a grid", late=_add_check)
    verify.add_argument("--grid", default=None, help="'default' or 'p=2,3; alpha=0..3; n=1..200; ...'")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--format", choices=("md", "json"), default="md")
    verify.add_argument("--strict", action="store_true", help="conjecture violations become fatal")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=10**4)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command on argv (default sys.argv[1:]) with build_parser's shared parser; returns its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
