#!/usr/bin/env python3
"""padicsums benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: residue-sweeps, paper-tables, ep-queries (see
NOTES.md).  The workload body is repeated as a closed loop until
``--seconds`` have passed (at least three passes).  ``wall_s`` is the
mean pass time and the other timings are medians (NOTES.md says why).
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Outputs are checked outside the timed region; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit status is 1 when any operation
failed.  Results and trace spans are written under ``perfbench/out/``.
``--tiny`` runs a few-second version of each workload for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_STARTS = 25
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import padicsums, padicsums.cli; padicsums.cli.build_parser()"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "certified_ratio": "1",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    for t in tracer.TARGETS:
        for key in ("calls", "self_s") + t.counters:
            units[f"{t.name}.{key}"] = "s" if key == "self_s" else "count"
    for name in tracer.EXTRA_COUNTERS:
        units[name] = "count"
    units["trace.overhead_ratio"] = "1"
    return units


def load_package():
    """Import padicsums from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "padicsums" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'padicsums'}; run from a padicsums checkout")
    for var in ("PADICSUMS_PRECISION", "PADICSUMS_JOBS"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import padicsums

    if Path(padicsums.__file__).resolve().parent != (SRC / "padicsums").resolve():
        sys.exit(f"error: imported padicsums from {padicsums.__file__}, not from {SRC}")


def cold_start() -> float:
    """Wall time of one cold interpreter start that imports the package and builds the CLI parser."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        check=True, stdout=subprocess.DEVNULL, env=os.environ.copy(),
    )
    return perf_counter() - t0


def git_revision() -> str:
    """The checked-out commit, with "+dirty" when the tree has changes; "unknown" outside git."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()

    try:
        rev = git("rev-parse", "HEAD")
        return rev + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def timed_pass(wl):
    """One pass; its wall time is the sum of the times measured around each
    program call, so digesting and capturing outputs are left out."""
    ops = wl.run()
    return sum(op.seconds for op in ops), ops


def count_failures(wl, passes) -> tuple[int, int, dict[str, list[str]]]:
    """Gate the first pass through independent routes; every later pass must
    give byte-identical outputs.  Returns (attempted, failed, reasons)."""
    first = passes[0]
    reasons = wl.check(first)
    attempted = failed = 0
    for ops in passes:
        for i, op in enumerate(ops):
            attempted += 1
            bad = op.error or op.name in reasons or op.digest != first[i].digest
            if bad and op.name not in reasons:
                reasons[op.name] = [op.error or "output differs from the first pass"]
            failed += bool(bad)
    return attempted, failed, reasons


def run_untraced(wl, seconds, min_passes, orig):
    """Repeat passes for ``seconds``.  The SETUP_STARTS cold starts are spread
    between the passes in proportion to the time gone, so that they sample
    the same spells of machine load as the passes, not one short window."""
    tracer.assert_unpatched(orig)
    walls, passes, setups = [], [], []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        wall, ops = timed_pass(wl)
        walls.append(wall)
        passes.append(ops)
        while len(setups) < SETUP_STARTS * min(1.0, (perf_counter() - start) / seconds):
            setups.append(cold_start())
    while len(setups) < SETUP_STARTS:
        setups.append(cold_start())
    tracer.assert_unpatched(orig)
    return walls, passes, setups


def run_traced(wl, seconds, min_passes, orig):
    """Alternate untraced and traced passes; the traced ones must reproduce
    the untraced outputs byte for byte and their counts exactly."""
    u_walls, t_walls, passes, tracers = [], [], [], []
    start = perf_counter()
    while len(tracers) < min_passes or perf_counter() - start < seconds:
        tracer.assert_unpatched(orig)
        wall, ops = timed_pass(wl)
        u_walls.append(wall)
        passes.append(ops)
        tr = tracer.Tracer()
        tr.install()
        try:
            wall, ops = timed_pass(wl)
        finally:
            tr.uninstall()
        tracer.assert_unpatched(orig)
        t_walls.append(wall)
        passes.append(ops)
        tracers.append(tr)
    return u_walls, t_walls, passes, tracers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="few-second inputs for the self-tests")
    args = ap.parse_args(argv)

    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    orig = tracer.originals()
    min_passes = 2 if args.tiny else MIN_PASSES
    facts = machine_facts(args.seed)
    lines = [f"workload {wl.name}  " + "  ".join(f"{k}={v}" for k, v in facts.items())]
    record = {"workload": wl.name, "trace": args.trace, "tiny": args.tiny, "machine": facts}

    if args.trace == 0:
        walls, passes, setups = run_untraced(wl, args.seconds, min_passes, orig)
        # The mean, not the median or the fastest pass: host contention
        # comes in spells of seconds to minutes, and over stored sets of ten
        # runs the mean spread least across runs (NOTES.md, Steadiness).
        wall = fmean(walls)
        proven, answers = wl.certified(passes[0])
        metrics = {
            "setup_s": median(setups),
            "wall_s": wall,
            "instances_per_s": wl.instances(passes[0]) / wall,
            "certified_ratio": proven / answers,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        steps = wl.step_metrics(passes)
        record["pass_walls_s"] = walls
        record["pass_ops_s"] = [[op.seconds for op in ops] for ops in passes]
        record["setup_starts_s"] = setups
    else:
        u_walls, t_walls, passes, tracers = run_traced(wl, args.seconds, min_passes, orig)
        units = per_layer_units()
        per_pass = [tr.metrics() for tr in tracers]
        counts = [{k: v for k, v in m.items() if not k.endswith("self_s")} for m in per_pass]
        metrics = {}
        for name, unit in units.items():
            if name == "trace.overhead_ratio":
                metrics[name] = fmean(t_walls) / fmean(u_walls)
            elif unit == "s":
                metrics[name] = median(m[name] for m in per_pass)
            else:
                metrics[name] = counts[0][name]
        steps = {}
        record["pass_walls_s"] = {"untraced": u_walls, "traced": t_walls}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.jsonl"
        tracers[0].write_spans(spans_path)
        lines.append(f"spans {len(tracers[0].spans)} written to {spans_path.relative_to(ROOT)}")

    attempted, failed, reasons = count_failures(wl, passes)
    if args.trace == 1:
        # Each later traced pass is one more operation: its counts must repeat exactly.
        for i, c in enumerate(counts[1:], 2):
            attempted += 1
            if c != counts[0]:
                diff = sorted(k for k in c if c[k] != counts[0][k])
                reasons.setdefault("trace", []).append(f"traced pass {i} counts differ from pass 1: {diff}")
                failed += 1

    digests = [(op.name, op.digest) for op in passes[0]]
    steps["failed_ratio"] = (failed / attempted, "1")
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in steps.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    lines.append(f"passes {len(passes)}  attempted {attempted}  failed {failed}")
    for name, digest in digests:
        lines.append(f"digest {digest[:16]} {name}")
    for name, msgs in reasons.items():
        for msg in msgs[:5]:
            lines.append(f"FAILED {name}: {msg}")

    record.update(
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        steps={k: {"value": v, "unit": u} for k, (v, u) in steps.items()},
        digests=dict(digests),
        attempted=attempted,
        failed=failed,
        failures=reasons,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
