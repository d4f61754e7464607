"""Parse intersection arrays and run the feasibility battery.

An intersection array {b_0,...,b_{D-1}; c_1,...,c_D} is only structurally
checked at parse time (c_1 = 1, a_i >= 0, positive entries).  Whether it can
belong to a distance-regular graph is a separate question answered by
full_report: monotone c and b sequences, integral subconstituent sizes k_i,
integral Biggs multiplicities, the a_1 = 0 and c_2 <= 2 smallest-eigenvalue
gates, the odd-girth cycle inequality, and the trace identity.
"""

from drgf import full_report, parse_array

# the folded 9-cube: a real graph, so every necessary condition passes
arr = parse_array("{9,8,7,6;1,2,3,4}")
print(f"array {arr}  k={arr.k}  D={arr.D}")
print(f"  a_i = {arr.a}")
print(f"  k_i = {[str(x) for x in arr.kseq]}  ->  v = {arr.v}")
print(f"  odd girth = {arr.g}")

report = full_report(arr)
for entry in report.checks:
    print(f"  {entry.name:32s} {entry.verdict}")
print(f"overall: {report.overall}")

# perturb one entry and the battery finds the contradiction
bad = parse_array("{5,4,4,3;1,1,2,3}")
report = full_report(bad)
print(f"\narray {bad}: overall {report.overall}; failing: {report.failing}")
