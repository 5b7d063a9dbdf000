#!/usr/bin/env python3
"""Self-tests for the benchmark: tiny runs of every workload.

    python3 perfbench/selftest.py

Checks that each workload prints every metric BENCHMARK.json names, with
its unit, in the result line; that the workload-specific figures appear
in the report; that traced runs reproduce the untraced output digests and
repeat their counts exactly; and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics the benchmark is specified to report (NOTES.md has the map).
NAMED_PER_LAYER = """
padic.ord_int.calls padic.ord_int.self_s padic.ord_factorial.calls padic.ord_factorial.self_s
padic.carries.calls padic.carries.self_s padic.trunc_val.calls
exponents.carmichael_prime_power.calls exponents.carmichael_prime_power.self_s
exponents.parse_exponent.calls
polysum.alt_sum.calls polysum.alt_sum.self_s polysum.check_split_identity.calls
polysum.check_split_identity.self_s
stirling.mstirling_mod.calls stirling.mstirling_mod.self_s stirling.mstirling_mod.terms
stirling.stable_params.calls stirling.stable_params.self_s stirling.stable_params.m_scanned
stirling.stable_params.bigint_terms stirling.min_stirling_ord.calls stirling.min_stirling_ord.self_s
stirling.min_stirling_ord.m_scanned stirling.min_stirling_ord.precision_doublings
stirling.min_stirling_ord.window_extensions stirling.min_stirling_ord.tail_m
stirling.stable_min_ord.calls stirling.stable_min_ord.self_s stirling.precision_errors
verify.bound_sweep.calls verify.bound_sweep.self_s verify.bound_sweep.cells
verify.bound_sweep.instances verify.sweep.self_s verify.sweep.instances
verify.identity_sweep.self_s verify.identity_sweep.instances
verify.check_stirling_diff_bound.calls verify.check_stirling_diff_bound.self_s
verify.check_equality_conjecture.calls verify.check_equality_conjecture.self_s
su_bounds.emit_table1.calls su_bounds.emit_table1.self_s su_bounds.emit_delta.self_s
su_bounds.ep_auto.calls su_bounds.ep_auto.self_s su_bounds.ep_auto.family_fallbacks
cli.main.calls cli.main.self_s trace.overhead_ratio
""".split()
NAMED_END_TO_END = ("setup_s", "wall_s", "instances_per_s", "certified_ratio", "peak_rss_mb")

# Figures printed in the report of the workload they belong to.
STEP_METRICS = {
    "residue-sweeps": {"failed_ratio": "1"},
    "paper-tables": {"table_one_s": "s", "stirling_diff_s": "s", "failed_ratio": "1"},
    "ep-queries": {"query_p50_ms": "ms", "query_p90_ms": "ms", "failed_ratio": "1"},
}

_METRIC_LINE = re.compile(r"^metric (\S+) = \S+ (\S+)$", re.M)


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def record(workload: str, trace: int, seed: int = 3) -> dict:
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


class WorkloadTests(unittest.TestCase):
    def test_spec_names_every_metric(self) -> None:
        self.assertLessEqual(set(NAMED_PER_LAYER), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(set(NAMED_END_TO_END), {m["name"] for m in SPEC["end_to_end"]})

    def check_result(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in specs},
        )
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_workloads(self) -> None:
        # Every workload the command runs, also ep-queries, which
        # BENCHMARK.json leaves out of the gated runs (NOTES.md says why).
        for name in STEP_METRICS:
            with self.subTest(workload=name):
                rc, out, untraced = bench(name, 0)
                self.assertEqual(rc, 0, out)
                self.check_result(untraced, SPEC["end_to_end"])
                printed = dict(_METRIC_LINE.findall(out))
                for metric, unit in STEP_METRICS[name].items():
                    self.assertEqual(printed.get(metric), unit, f"{metric} not printed with {unit}")

                rc, out, traced = bench(name, 1)
                self.assertEqual(rc, 0, out)
                self.check_result(traced, SPEC["per_layer"])
                first = record(name, 1)
                self.assertEqual(first["digests"], record(name, 0)["digests"])

                rc, out, again = bench(name, 1)
                self.assertEqual(rc, 0, out)
                counts = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "count"}
                counts2 = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] == "count"}
                self.assertEqual(counts, counts2)
                self.assertGreater(sum(counts.values()), 0)

    def test_refuses_without_package_source(self) -> None:
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            rc, out, result = bench("paper-tables", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result, out)


if __name__ == "__main__":
    unittest.main()
