"""The package names the benchmark harness reads still exist.

perfbench/selftest.py runs the harness end to end but is too slow for the
default test run; this catches a renamed or deleted name in a second.
"""

import importlib.util
from pathlib import Path

from padicsums import stirling, verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_perfbench_reads_existing_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    orig = tracer.originals()
    assert set(orig) == {t.name for t in tracer.TARGETS} and all(map(callable, orig.values()))
    assert isinstance(stirling.WINDOW_STEP, int)
    for fn in (stirling.default_precision, stirling.stirling_rows, verify.default_grid):
        assert callable(fn)
    assert verify.BOUND_CHECKS
