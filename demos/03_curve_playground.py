"""
Supersingular quintic curves and their point counts
===================================================

Every shift alpha of f turns into a curve y^2 + y = a x^5 + b x^3 + c x + d
whose affine count determines X_alpha.  The classifier never counts points:
it computes the radical of a symplectic form and predicts the tiny set of
counts the curve is allowed to have.  Here we watch the prediction and the
brute count agree on random curves, and then on the curves of every shift of
one G at once, where the counts also reproduce the measured X_alpha.
"""

import numpy as np

from walshforge import (FieldCtx, TracePoly, classify, classify_curves, count_points,
                        count_points_all, curve_corpus, reduce_difference_all, truth_table,
                        x_alpha_all)

ctx = FieldCtx(9)
q = ctx.q

print("-- random curves --")
for i, cv in enumerate(curve_corpus(q, 6, seed=7)):
    data = classify(ctx, cv)
    n = count_points(ctx, cv)
    ok = "ok" if n in data.predicted_counts else "MISMATCH"
    print(f"a={cv.a:#5x} b={cv.b:#5x} c={cv.c:#5x}: w={data.w}, "
          f"predicted {sorted(data.predicted_counts)}, counted {n}  [{ok}]")

print()
print("-- curves from shifts of a fixed G --")
g = TracePoly(a7=0x21, b=(0, 0x5))
a, b, c, d = reduce_difference_all(ctx, g)  # entry k is the curve of alpha = k + 1
curves = classify_curves(ctx, a, b, c)      # allowed counts: 1 + q +- radius
counts = count_points_all(ctx, a, b, c, d)
table = x_alpha_all(ctx, truth_table(ctx, g))  # measured on the truth table alone
for alpha in (0x1, 0x2, 0x17):
    k = alpha - 1
    n = int(counts[k])
    print(f"alpha={alpha:#4x}: count={n:4d}  ->  X_alpha=(count-q-1)^2={(n - q - 1) ** 2}"
          f"  (measured {int(table[alpha])})")
    print(f"            w={int(curves.w[k])}, allowed counts "
          f"{sorted({q + 1 - int(curves.radius[k]), q + 1 + int(curves.radius[k])})}")

dev = counts - q - 1
assert (np.abs(dev) == curves.radius).all() and (dev * dev == table[1:]).all()
print(f"all {q - 1} shifts: every count allowed by its radical, every X_alpha reproduced")
