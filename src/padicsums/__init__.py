"""Exact p-adic valuations of alternating binomial and Stirling sums."""

from .padic import (
    CapacityError,
    carries,
    euler_phi_prime_power,
    ord_factorial,
    ord_int,
    trunc_val,
)
from .exponents import (
    StructuredExponent,
    carmichael_prime_power,
    parse_exponent,
    pow_mod,
)
from .polysum import (
    IntPolynomial,
    alt_floor_sum,
    alt_sum,
    binom_exact,
    binom_poly,
    check_floor_identity,
    check_split_identity,
    poly_delta,
)
from .stirling import (
    EpResult,
    PrecisionError,
    StableParams,
    default_precision,
    min_stirling_ord,
    mstirling_mod,
    mstirling_scan,
    stable_min_ord,
    stable_params,
    stirling_exact,
    stirling_rows,
)
from .verify import (
    CHECK_NAMES,
    CheckOutcome,
    GridError,
    SweepReport,
    bound_sweep,
    check_binom_weight_bound,
    check_carry_bound,
    check_equality_conjecture,
    check_factorial_match,
    check_plain_sum_bound,
    check_polysum_bound,
    check_stirling_diff_bound,
    check_totient_bound,
    default_grid,
    identity_sweep,
    parse_grid,
    sweep,
)
from .su_bounds import (
    BoundReport,
    Table1Row,
    bound_report,
    emit_delta,
    emit_table1,
    emit_table2,
    ep_auto,
    exponent_to_homotopy,
    homotopy_exponent_bound,
    lower_bound,
    old_bound,
    restated_bound,
)

__version__ = "0.1.0"
