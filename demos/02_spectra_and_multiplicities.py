"""Spectra of intersection matrices, exactly where possible.

The tridiagonal intersection matrix L has D+1 simple eigenvalues.  Rational
ones are integers (the characteristic polynomial is monic with integer
coefficients) and are extracted exactly; the rest are isolated by exact Sturm
counts and polished to the working precision of 50 digits.
"""

import math
from fractions import Fraction

from drgf import parse_array, spectrum
from drgf.spectral import minor_polys, multiplicity_upper_bound

arr = parse_array("{5,4,4,3;1,1,2,2}")   # the Odd graph O_5
# the intersection matrix L: a_i on the diagonal, b_i above it, c_(i+1) below it
L = [[0] * (arr.D + 1) for _ in range(arr.D + 1)]
for i, a in enumerate(arr.a):
    L[i][i] = a
for i, (b, c) in enumerate(zip(arr.b, arr.c)):
    L[i][i + 1], L[i + 1][i] = b, c
print("L =")
for row in L:
    print(" ".join(f"{x:2d}" for x in row))

spec = spectrum(arr)
print(f"eigenvalues: {spec.thetas}")
print(f"multiplicities: {spec.mults}  (sum = {sum(spec.mults)} = v)")

# the standard sequence of the smallest eigenvalue, u_i = P_i(theta_min) / B_i
# with P_i the leading principal minors of xI - L and B_i = b_0...b_{i-1},
# alternates in sign; P_{D+1} = det(xI - L) vanishes there
P = [sum(c * spec.theta_min ** n for n, c in enumerate(p))
     for p in minor_polys(arr.a, [b * c for b, c in zip(arr.b, arr.c)])]
u = [Fraction(p, math.prod(arr.b[:i])) for i, p in enumerate(P[:-1])]
print(f"u(theta_min) = {[str(x) for x in u]}")
print(f"P_(D+1)(theta_min) = {P[-1]}")

# the tail bound dominates the true multiplicity for every split point j:
# it takes u_0..u_j and the tail (k_j + ... + k_D) / k_j
for j in range(1, arr.D + 1):
    b = multiplicity_upper_bound(u[:j + 1], sum(arr.kseq[j:]) / arr.kseq[j])
    print(f"  multiplicity bound (j={j}): {float(b):9.4f}  >=  m = 8")

# mixed rational/irrational spectra work the same way
cox = parse_array("{3,2,2,1;1,1,1,2}")   # the Coxeter graph
spec = spectrum(cox)
print(f"\nCoxeter eigenvalues: {[str(t)[:20] for t in spec.thetas]}")
print(f"Coxeter multiplicities: {spec.mults}")
