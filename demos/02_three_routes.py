"""
Three independent routes to the same number
===========================================

sigma4 can be computed from the Walsh spectrum, from the shift sums X_alpha,
or assembled from the (N0, N) counts that the per-shift classifier predicts
without ever touching the truth table.  Watching all three agree is the core
consistency argument of this package.
"""

from collections import Counter

from walshforge import (FieldCtx, TracePoly, amplitude_counts, classify_all, count_n0_n, fwht,
                        l4_fourth, sigma_autocorr, sigma_decomposition, truth_table,
                        x_alpha_all)

ctx = FieldCtx(7)
g = TracePoly(a7=0x5, b=(0x1, 0x4))
q = ctx.q

# routes 1 and 2 read the same truth table bits[x] = Tr(G(x))
bits = truth_table(ctx, g)

# route 1: spectral, read from the histogram of Walsh amplitudes
sigma_spectral = l4_fourth(amplitude_counts(fwht(bits)))

# route 2: direct shift sums (no transform involved)
table = x_alpha_all(ctx, bits)
sigma_shift = sigma_autocorr(table)

# route 3: classify every shift algebraically, then assemble; entry k of the
# shift arrays is alpha = k + 1
shifts = classify_all(ctx, g)
counts = count_n0_n(ctx, g, shifts)
sigma_counts = q * q + 2 * q * counts["N0"] + 8 * q * counts["N"]

print(f"spectral route : {sigma_spectral}")
print(f"shift-sum route: {sigma_shift}")
print(f"count route    : {sigma_counts}   (N0={counts['N0']}, N={counts['N']}, Z={counts['Z']})")
assert sigma_spectral == sigma_shift == sigma_counts

# the shift sums only ever take three values: 0, 2q, 8q
hist = Counter(int(v) for v in table[1:])
print(f"X_alpha histogram: {dict(sorted(hist.items()))}")
print(f"decomposition    : {sigma_decomposition(table)}")

# look at one shift of each kind in detail; v = -1 marks Tr(ell) = 1, where
# v^4 + v = ell has no root
want = {0, 2 * q, 8 * q}
for alpha in range(1, q):
    x_val, k = int(table[alpha]), alpha - 1
    if x_val in want:
        want.discard(x_val)
        how = "degenerate fiber" if shifts.lambda_zero[k] else (
            "Tr(ell)=1" if shifts.v[k] < 0 else "quartic test")
        print(f"alpha={alpha:#4x}: X={x_val:4d}, predicted={int(shifts.predicted[k]):4d}"
              f"  via {how}")
    if not want:
        break
