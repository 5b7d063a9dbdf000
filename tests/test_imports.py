"""What a cold start imports, and the public names the package resolves on first use."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import padicsums

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("verify", "stirling", "polysum", "exponents", "su_bounds")

# Every name the package exported while its __init__ imported each module eagerly, by defining module.
PUBLIC = {
    "padic": "CapacityError carries euler_phi_prime_power ord_factorial ord_int trunc_val",
    "exponents": "StructuredExponent carmichael_prime_power parse_exponent",
    "polysum": (
        "IntPolynomial alt_floor_sum alt_sum binom_exact binom_poly check_floor_identity "
        "check_split_identity poly_delta"
    ),
    "stirling": (
        "EpResult PrecisionError StableParams default_precision min_stirling_ord mstirling_mod "
        "mstirling_scan stable_min_ord stable_params stirling_exact stirling_rows"
    ),
    "verify": (
        "CHECK_NAMES CheckOutcome GridError SweepReport bound_sweep check_binom_weight_bound "
        "check_carry_bound check_equality_conjecture check_factorial_match check_plain_sum_bound "
        "check_polysum_bound check_stirling_diff_bound check_totient_bound default_grid identity_sweep "
        "parse_grid sweep"
    ),
    "su_bounds": (
        "BoundReport Table1Row bound_report emit_delta emit_table1 emit_table2 ep_auto "
        "exponent_to_homotopy homotopy_exponent_bound lower_bound old_bound restated_bound"
    ),
}


def _fresh(code):
    """The last stdout line of code run in a fresh interpreter with sys.argv[1] the source dir, as JSON."""
    cp = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.splitlines()[-1])


def test_cold_start_loads_no_kernel_module():
    # perfbench/run.py times this code as setup_s; it may load only padicsums, cli, golden and padic
    run_py = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    setup = next(
        ast.literal_eval(node.value)
        for node in run_py.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]
    )
    before, rc, after = _fresh(
        setup + "; import json; before = sorted(sys.modules); "
        "rc = padicsums.cli.main(['verify', 'factorial-match', '--jobs', '1']); "
        "print(json.dumps([before, rc, sorted(sys.modules)]))"
    )
    assert {"padicsums.cli", "padicsums.golden", "padicsums.padic"} <= set(before)
    assert not {f"padicsums.{name}" for name in KERNELS} & set(before)
    assert not {"concurrent.futures", "multiprocessing"} & set(before)
    # a one-job sweep imports its kernels and no pool
    assert rc == 0 and "padicsums.verify" in after
    assert not {"concurrent.futures.process", "multiprocessing"} & set(after)


def test_public_names_resolve_to_their_modules():
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"padicsums.{module}")
        for name in names.split():
            assert getattr(padicsums, name) is getattr(mod, name), name
    names = " ".join(PUBLIC.values()).split()
    namespace = {}
    exec(f"from padicsums import {', '.join(names)}", namespace)
    assert all(namespace[name] is getattr(padicsums, name) for name in names)
    assert padicsums.PrecisionError is padicsums.padic.PrecisionError
    assert sorted(padicsums.__all__) == sorted(names)


def test_from_import_of_a_submodule_and_unknown_names():
    assert _fresh(
        "import json, sys; sys.path.insert(0, sys.argv[1]); import padicsums; from padicsums import verify; "
        "print(json.dumps(verify is sys.modules['padicsums.verify']))"
    ) is True
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        padicsums.nope
    with pytest.raises(ImportError):
        exec("from padicsums import nope", {})


def test_tables_and_bounds_load_no_sweep_module():
    # table one/two, compute bound and compute ep never sweep, so only a delta loads verify
    loaded = _fresh(
        "import json, sys; sys.path.insert(0, sys.argv[1]); from padicsums import cli; seen = []\n"
        "for argv in (['table', 'two', '--golden'], ['compute', 'bound', '--p', '3', '--n', '40'],\n"
        "             ['table', 'delta', '--golden']):\n"
        "    seen.append([cli.main(argv), 'padicsums.verify' in sys.modules])\n"
        "print(json.dumps(seen))"
    )
    assert loaded == [[0, False], [0, False], [0, True]]
