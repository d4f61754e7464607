"""Reproduce the diameter-4 classification by pruned exhaustive search.

Graphs with theta_min <= -(3/4) k and D = 4: enumerating k <= 4 over every
a-pattern finds the Coxeter graph and the 9-gon once bipartite arrays are set
aside; branch-by-branch exclusions (girth-5 inequality, eta = 2 inequality,
the valency cap k <= 35) reduce the rest to one finite enumeration whose
survivors are the Odd graph O_5 and the folded 9-cube.
"""

from drgf import classify_diameter
from drgf.core import format_array
from drgf.search import GRAPH_NAMES

result = classify_diameter(4)
for stage in result.stages:
    print(f"[{stage.name}]")
    for line in stage.lines:
        print(f"  {line}")
print("classification:")
for arr in result.arrays:
    text = format_array(arr)
    print(f"  {text}  ({GRAPH_NAMES[text]})")
assert not result.discrepancies

# the final enumeration's pruning statistics
stats = result.stages[-1].stats
print(f"\nsearch space: {stats.generated} arrays")
for name, n in sorted(stats.killed.items()):
    print(f"  killed by {name}: {n}")
