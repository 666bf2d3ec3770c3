"""
A first walk through the spectral toolkit
=========================================

Build f(x) = Tr(G(x)) for a small G over GF(2^7), transform it, and read the
standard figures of merit off the spectrum's amplitude histogram: how many
Walsh values have each absolute value.
"""

from walshforge import (FieldCtx, TracePoly, amplitude_counts, fwht, l4_fourth, linf,
                        nonlinearity, truth_table)

ctx = FieldCtx(7)           # GF(128) with the default modulus x^7 + x + 1
g = TracePoly(a7=0x3, b=(0, 0x6, 0x2))   # G = 3x^7 + 6x^3 + 2x^5 (b-indices 1,2)

print(f"field: GF(2^{ctx.m}), modulus {ctx.modulus:#x}")
print(f"G exponents with nonzero coefficients: {g.exponents()}")

# the truth table is a length-q 0/1 vector indexed by the field element's bitmask
table = truth_table(ctx, g)
print(f"weight of f: {int(table.sum())} of {ctx.q}")

# every norm depends on the spectrum only through its amplitude histogram
counts = amplitude_counts(fwht(table))
print(f"spectral maximum  : {linf(counts)}")
print(f"nonlinearity      : {nonlinearity(counts)}  (= 2^{ctx.m - 1} - max/2)")
print(f"sum of 4th powers : {l4_fourth(counts)}  (sigma4; q^2 = {ctx.q ** 2} is the floor)")

# every Walsh value of a cubic-exponent trace form is divisible by 2^ceil(m/3)
vals = [int(v) for v in counts.nonzero()[0]]
print(f"distinct |values| : {vals}")
print(f"all divisible by 2^ceil(7/3) = 8: {all(v % 8 == 0 for v in vals)}")
