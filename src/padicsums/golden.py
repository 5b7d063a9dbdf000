"""Embedded reference data for golden comparisons.

These are the published values the emitters are expected to reproduce,
frozen verbatim so that ``--golden`` needs no external files.  Any
disagreement between a fresh computation and this data is reported as a
mismatch, never silently patched on either side.
"""

TABLE1_N_FROM = 19
TABLE1_N_TO = 41

# Stable family values e_3(n, 2*3^L + n - 1) for n = 19..41.
TABLE1_STABLE = (
    20, 21, 22, 25, 26, 28, 28, 30, 31, 32, 32, 33,
    34, 35, 37, 37, 39, 41, 41, 42, 43, 44, 45,
)

# Lower bounds n - 1 + ord_3(floor(n/3)!) for n = 19..41.
TABLE1_BOUND = (
    20, 21, 22, 23, 24, 25, 26, 27, 30, 31, 32, 33,
    34, 35, 36, 37, 38, 40, 41, 42, 43, 44, 45,
)

# Carry counts tau_3({r}_9, {n-r}_9); rows indexed by {n}_9, columns by {r}_9.
TABLE2 = (
    (0, 2, 2, 1, 2, 2, 1, 2, 2),
    (0, 0, 2, 1, 1, 2, 1, 1, 2),
    (0, 0, 0, 1, 1, 1, 1, 1, 1),
    (0, 1, 1, 0, 2, 2, 1, 2, 2),
    (0, 0, 1, 0, 0, 2, 1, 1, 2),
    (0, 0, 0, 0, 0, 0, 1, 1, 1),
    (0, 1, 1, 0, 1, 1, 0, 2, 2),
    (0, 0, 1, 0, 0, 1, 0, 0, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
)

DELTA_P, DELTA_ALPHA, DELTA_N = 2, 2, 100
DELTA_L_FROM = 25
DELTA_L_TO = 45

# Excess orders delta(l) of the weighted sums at p=2, alpha=2, n=100 over
# the baseline ord_2(25!) = 22, for l = 25..45.
DELTA = (0, 0, 0, 0, 2, 3, 2, 4, 1, 1, 1, 1, 2, 2, 4, 1, 0, 0, 0, 0, 3)
