#!/usr/bin/env python3
"""The bivariate generating function G_k(x, q), two ways, against enumeration.

The coefficient of x^n q^s in G_k counts partitions of [n] with k blocks
and swrec = s.  The product construction and the recurrence construction
should agree with each other and with brute-force histograms -- exactly,
since everything is integer arithmetic.
"""

from partition_records import gf_product, gf_recurrence, swrec_histogram, total_swrec_series

k, order = 3, 7

prod = gf_product(k, order)
recur = gf_recurrence(k, order)
print(f"G_{k}(x, q) truncated at x^{order}, both constructions:")
print(f"  product == recurrence: {prod == recur}\n")

print(f"{'n':>2}  {'q-coefficients of [x^n]':40} matches enumeration?")
for n in range(k, order + 1):
    coeffs = prod.q_coefficients(n)
    rendered = " + ".join(
        f"{c if c > 1 else ''}q^{s}" for s, c in sorted(coeffs.items(), reverse=True)
    )
    ok = coeffs == dict(swrec_histogram(n, k))
    print(f"{n:>2}  {rendered:40} {ok}")

print("\nSetting q to 1 after one q-derivative totals swrec per size:")
series = total_swrec_series(k, order)
weighted = prod.q_weighted_sum()
for n in range(k, order + 1):
    print(f"  n={n}: closed form {series[n]}, from G_{k} {weighted[n]}")
