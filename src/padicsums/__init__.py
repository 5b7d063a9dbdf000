"""Exact p-adic valuations of alternating binomial and Stirling sums.

Every public name below resolves on first use (PEP 562), importing only the
module that defines it, so ``import padicsums`` loads no kernel module.
``padicsums.X`` and ``from padicsums import X`` work for every name in
``_EXPORTS``, and ``from padicsums import verify`` imports the submodule.
"""

import importlib

_EXPORTS = {
    name: module
    for module, names in {
        "padic": "CapacityError PrecisionError carries euler_phi_prime_power ord_factorial ord_int trunc_val",
        "exponents": "StructuredExponent carmichael_prime_power parse_exponent",
        "polysum": (
            "IntPolynomial alt_floor_sum alt_sum binom_exact binom_poly check_floor_identity "
            "check_split_identity poly_delta"
        ),
        "stirling": (
            "EpResult StableParams default_precision min_stirling_ord mstirling_mod mstirling_scan "
            "stable_min_ord stable_params stirling_exact stirling_rows"
        ),
        "verify": (
            "CHECK_NAMES CheckOutcome GridError SweepReport bound_sweep check_binom_weight_bound "
            "check_carry_bound check_equality_conjecture check_factorial_match check_plain_sum_bound "
            "check_polysum_bound check_stirling_diff_bound check_totient_bound default_grid "
            "identity_sweep parse_grid sweep"
        ),
        "su_bounds": (
            "BoundReport Table1Row bound_report emit_delta emit_table1 emit_table2 ep_auto "
            "exponent_to_homotopy homotopy_exponent_bound lower_bound old_bound restated_bound"
        ),
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """The public name from the module that defines it; a submodule's name raises, so `from` imports it."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
