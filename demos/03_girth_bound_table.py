"""The odd-girth smallest-eigenvalue bound.

On the branch where c_t <= zeta k, combining the cycle inequality with the
polynomial f(x, y) = sum p_i(x) y^i yields theta_min >= -(1 - epsilon1) k,
where -(1 - epsilon1) is the smallest root of f(eta, y) + M1 zeta in (-1, 0).
The sharper girth-5 schedule reproduces the headline figure: at zeta = 0.1,
theta >= -0.78 k.
"""

from fractions import Fraction

from drgf.bound import (bound_table, conservative_2dp, diameter_bound,
                        epsilon1, polygon_epsilon_upper)

tb = epsilon1(5, "sharp-g5", Fraction(1, 10)).theta_over_k
print(f"girth 5, zeta = 0.1, sharp schedule: theta/k >= {float(tb):.6f}"
      f"  (conservatively {conservative_2dp(tb)})")
print(f"diameter bound at zeta = 0.1, t = 2: {diameter_bound(2, Fraction(1, 10))}")

print("\n g   zeta*        epsilon1     theta/k bound   cycle-graph gap")
for g, z, e, th in bound_table(5, 21):
    poly = polygon_epsilon_upper(g)
    print(f"{g:3d}  {float(z):.8f}  {float(e):.8f}  {float(th):+.8f}   {float(poly):.8f}")

print("\nnote: epsilon1 covers only the c_t <= zeta* k branch.  The cycle has"
      "\nc_t/k = 1/2 > zeta*, so it lies outside that branch and its gap bounds"
      "\nonly the full constant, not epsilon1 (which exceeds it for g >= 7).")
