#!/usr/bin/env python3
"""How well does the large-n estimate track the exact total?

With r solving r e^r = n + 1, the estimate is B_n n^3/r^3 (1 + r/n).
The exact/estimate ratio stays O(1) but sits well below 1 at reachable n,
drifting toward 3/4 -- the multiplier carried by the dominant term of the
exact Bell-number form.  The shift-expansion errors shrink like log(n)/n.
"""

import mpmath as mp

from partition_records import asymptotic_report, build_tables

ns = [10, 50, 100, 200, 400, 800]
tables = build_tables(max(ns) + 3)

print(f"{'n':>4} {'r':>8} {'estimate':>12} {'exact/est':>10} {'shift err h=1':>14}")
for rep in asymptotic_report(ns, tables):
    print(
        f"{rep.n:>4} {rep.r:>8.4f} {mp.nstr(rep.estimate, 4):>12}"
        f" {rep.ratio:>10.4f} {rep.bell_shift_errors[1]:>14.6f}"
    )

print(
    "\nThe ratio column rises steadily but the limit constant is an open"
    "\ndiagnostic: reports flag it rather than asserting convergence to 1."
)
