"""Exact enumeration and verification of weighted-record statistics on set partitions."""

from .asymptotics import (
    AsymptoticReport,
    asymptotic_report,
    bell_shift_error,
    solve_r,
    total_swrec_estimate,
)
from .closedform import (
    BellStirlingTables,
    bell_egf,
    bell_numbers,
    build_tables,
    egf_w,
    total_swrec_formula,
)
from .genfunc import (
    PartialFractionDecomposition,
    gf_product,
    gf_recurrence,
    partial_fraction_coeffs,
    partial_fraction_eval,
    pole_expansion_coeffs,
    total_swrec_rational,
    total_swrec_series,
)
from .powerseries import BiSeries, UniSeries
from .setpartitions import (
    DEFAULT_ENUMERATION_CAP,
    RecordEntry,
    blocks_from_rgs,
    enumerate_rgs,
    is_valid_rgs,
    rec_count,
    records,
    srec,
    swrec,
    swrec_histogram,
    total_swrec_bruteforce,
)
from .verify import SUITES, VerificationOutcome

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "BellStirlingTables",
    "BiSeries",
    "DEFAULT_ENUMERATION_CAP",
    "PartialFractionDecomposition",
    "RecordEntry",
    "SUITES",
    "UniSeries",
    "VerificationOutcome",
    "asymptotic_report",
    "bell_egf",
    "bell_numbers",
    "bell_shift_error",
    "blocks_from_rgs",
    "build_tables",
    "egf_w",
    "enumerate_rgs",
    "gf_product",
    "gf_recurrence",
    "is_valid_rgs",
    "partial_fraction_coeffs",
    "partial_fraction_eval",
    "pole_expansion_coeffs",
    "rec_count",
    "records",
    "solve_r",
    "srec",
    "swrec",
    "swrec_histogram",
    "total_swrec_bruteforce",
    "total_swrec_estimate",
    "total_swrec_formula",
    "total_swrec_rational",
    "total_swrec_series",
    "__version__",
]
