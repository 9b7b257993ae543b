"""Regenerate ``reference.json``, the pinned answers the benchmark checks
CLI output against.

Totals of swrec over all partitions of [n]:

* n = 0..12 by brute-force enumeration, stored as integers;
* n = 13..1000 from the EGF route (``egf_w`` at order 1000), stored as the
  first 16 hex digits of the SHA-256 of the decimal string, which keeps the
  file small.

The benchmark queries these n through ``total`` (the Bell-number formula)
and ``asymptotic`` (whose ``exact_total`` is the same formula), so every
pinned value comes from a route other than the one being checked.

Run from the repository root (takes about two minutes):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

from partition_records import closedform, setpartitions
from workloads import REFERENCE_PATH, digest

BRUTE_MAX_N = 12
EGF_MAX_N = 1000


def main() -> None:
    brute = [
        setpartitions.total_swrec_bruteforce(n, cap=BRUTE_MAX_N) for n in range(BRUTE_MAX_N + 1)
    ]
    tables = closedform.build_tables(EGF_MAX_N + 3, stirling_max_n=0)
    w = closedform.egf_w(EGF_MAX_N, tables)
    digests = []
    for n in range(BRUTE_MAX_N + 1, EGF_MAX_N + 1):
        value = w.egf_coefficient(n)
        if value.denominator != 1:
            raise ArithmeticError(f"EGF coefficient for n={n} is not an integer")
        digests.append(digest(str(value.numerator)))
    data = {
        "brute_force": brute,
        "egf_digest_first_n": BRUTE_MAX_N + 1,
        "egf_digests": digests,
    }
    REFERENCE_PATH.write_text(json.dumps(data, indent=0) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
