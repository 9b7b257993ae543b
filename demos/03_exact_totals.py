#!/usr/bin/env python3
"""Three independent routes to the total of swrec over all partitions of [n].

1. brute force: enumerate every partition and add up swrec;
2. Bell-number formula: 3/4 (B_{n+3} - B_{n+2}) - (n + 7/4) B_{n+1} - (n+1)/2 B_n;
3. EGF: n! times the x^n coefficient of
   e^(e^x - 1) (3/4 e^{3x} + 3/2 e^{2x} - 7/4 e^x - x e^{2x} - 3/2 x e^x - 1/2).

All exact integers; all three must coincide.
"""

from partition_records import (
    build_tables,
    egf_w,
    total_swrec_bruteforce,
    total_swrec_formula,
)
from partition_records.closedform import BELL_FORM_REACH

max_n = 10
tables = build_tables(max_n + BELL_FORM_REACH)
w = egf_w(max_n, tables)

print(f"{'n':>2} {'brute force':>12} {'Bell formula':>12} {'EGF coeff':>12}")
for n in range(max_n + 1):
    brute = total_swrec_bruteforce(n)
    formula = total_swrec_formula(n, tables)
    egf = w.egf_coefficient(n)
    flag = "" if brute == formula == egf else "   <-- MISMATCH"
    print(f"{n:>2} {brute:>12} {formula:>12} {str(egf):>12}{flag}")

print("\nThe formula alone reaches far beyond enumeration range:")
big_ns = (50, 100, 200)
big = build_tables(max(big_ns) + BELL_FORM_REACH)
for n in big_ns:
    total = total_swrec_formula(n, big)
    print(f"  n={n}: {len(str(total))}-digit total, leading digits {str(total)[:12]}...")
