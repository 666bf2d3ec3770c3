"""
One auxiliary curve bounds a whole family of counts
===================================================

The quartic curve v^4 + v = gamma x^7 with gamma = a7^(-1/3) packs every
shift's quartic test into a single point set: three trace conditions counted
over its points recover N (the number of shifts with X_alpha = 8q) exactly,
and Weil-type bounds on the curve cap how far N can stray from q/8.
"""

from walshforge import (FieldCtx, TracePoly, classify_all, count_n0_n, count_n123,
                        enumerate_points, gamma_of, s7_sum)

ctx = FieldCtx(9)
q = ctx.q
g = TracePoly(a7=0x1F, b=(0x3, 0x8, 0x2C))   # s = 2, so the bounds are in force

gamma = gamma_of(ctx, g)
print(f"gamma = a7^(-1/3) = {gamma:#x}")

pts = enumerate_points(ctx, gamma)
s7 = s7_sum(ctx, gamma)
print(f"affine points: {len(pts.points)}, total with the 3 rational points "
      f"above x=0 and infinity: {pts.count_total}")
print(f"character sum S7 = {s7};  count identity S7 + q + 1 = {s7 + q + 1}")
assert pts.count_total == s7 + q + 1
assert s7 * s7 <= 36 * q   # Weil strip for a genus-3 quotient

res = count_n123(ctx, g, pts)
print(f"N1={res['N1']}, N2={res['N2']}, N3={res['N3']} over {len(pts.points)} points")
print(f"assembled N = (N1 + N2 + N3 - #points)/4 = {res['N_assembled']}")

direct = count_n0_n(ctx, g, classify_all(ctx, g))["N"]
print(f"N by classifying every shift directly      = {direct}")
assert res["N_assembled"] == direct

print()
print("deviation bounds (hard once s >= 2):")
for chk in res["bounds"]:
    flag = "hard" if chk.hard else "info"
    print(f"  [{flag}] {chk.name}: {chk.lhs} {chk.relation} {chk.rhs}  "
          f"-> {'ok' if chk.passed else 'VIOLATED'}")
