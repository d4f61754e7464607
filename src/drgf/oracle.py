"""Explicit witness graphs and brute-force verification.

Everything the rest of the package derives from an intersection array alone
(distance-regularity, spectra, multiplicities, odd girth) can be recomputed
here directly from an adjacency structure, giving an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .core import IntersectionArray

BIPARTITE = "bipartite"

# Coxeter graph: vertices are the 28 triples from a 7-set that are not lines
# of a Fano plane (lines {0,1,3}+i mod 7), triples adjacent when disjoint;
# labels follow the lexicographic order of the sorted triples.  Verified by
# verify_distance_regular, not trusted from the construction.
_COXETER_EDGES = (
    (0, 25), (0, 26), (0, 27), (1, 21), (1, 24), (1, 26), (2, 20),
    (2, 21), (2, 23), (3, 20), (3, 22), (3, 25), (4, 18), (4, 19),
    (4, 27), (5, 16), (5, 17), (5, 26), (6, 15), (6, 17), (6, 19),
    (7, 13), (7, 14), (7, 24), (8, 14), (8, 19), (8, 23), (9, 13),
    (9, 18), (9, 22), (10, 12), (10, 13), (10, 16), (11, 12), (11, 15),
    (11, 20), (12, 27), (14, 25), (15, 24), (16, 23), (17, 22), (18, 21),
)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise OracleError(f"loop at {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise OracleError(f"edge ({u},{v}) out of range")

    @cached_property
    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.float64)
        for u, v in self.edges:
            A[u, v] = A[v, u] = 1.0
        return A

    @cached_property
    def distances(self) -> np.ndarray:
        """All-pairs BFS distance matrix (inf marks disconnection)."""
        import scipy.sparse.csgraph  # here, so only the graph oracles load scipy
        sp = scipy.sparse.csr_matrix(self.adjacency)
        return scipy.sparse.csgraph.shortest_path(sp, method="D", unweighted=True)

    def edge_list_text(self) -> str:
        """One 'u v' pair per line, 0-indexed, sorted."""
        pairs = sorted((min(u, v), max(u, v)) for u, v in self.edges)
        return "\n".join(f"{u} {v}" for u, v in pairs) + "\n"

    def write_edge_list(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.edge_list_text())


def _graph(name, n, edges) -> Graph:
    g = Graph(name, n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))
    if np.isinf(g.distances).any():
        raise OracleError(f"{name} is not connected")
    return g


def cycle(n: int) -> Graph:
    if n < 3:
        raise OracleError("cycle needs n >= 3")
    return _graph(f"cycle:{n}", n, [(i, (i + 1) % n) for i in range(n)])


def odd_graph(m: int) -> Graph:
    """Kneser graph on (m-1)-subsets of a (2m-1)-set, adjacency = disjointness."""
    if m < 2:
        raise OracleError("odd_graph needs m >= 2")
    verts = list(combinations(range(2 * m - 1), m - 1))
    masks = [sum(1 << x for x in t) for t in verts]
    edges = [(i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))
             if not masks[i] & masks[j]]
    return _graph(f"odd_graph:{m}", len(verts), edges)


def folded_cube(n: int) -> Graph:
    """n-cube with antipodal vertices identified; n odd keeps it simple."""
    if n < 3 or n % 2 == 0:
        raise OracleError("folded_cube needs odd n >= 3")
    half = 1 << (n - 1)  # representatives: words with top bit 0
    full = (1 << n) - 1

    def rep(w: int) -> int:
        return w if w < half else w ^ full

    edges = set()
    for w in range(half):
        for bit in range(n):
            x = rep(w ^ (1 << bit))
            if x != w:
                edges.add((min(w, x), max(w, x)))
    return _graph(f"folded_cube:{n}", half, sorted(edges))


def coxeter() -> Graph:
    return _graph("coxeter", 28, _COXETER_EDGES)


def build(name: str) -> Graph:
    """Build a named graph: cycle:N, odd_graph:M, folded_cube:N, or coxeter."""
    base, _, param = name.partition(":")
    makers = {"cycle": cycle, "odd_graph": odd_graph, "folded_cube": folded_cube}
    if base == "coxeter":
        if param:
            raise OracleError("coxeter takes no parameter")
        return coxeter()
    if base in makers:
        try:
            p = int(param)
        except ValueError:
            raise OracleError(f"{base} needs an integer parameter, got {param!r}")
        return makers[base](p)
    raise OracleError(f"unknown graph {name!r}")


def verify_distance_regular(g: Graph):
    """BFS from every vertex and check the c_i/b_i counts are globally constant.

    Returns (IntersectionArray, None) on success, (None, witness) on failure
    where witness is the first violating (x, y, i) triple.
    """
    dist = g.distances
    if np.isinf(dist).any():
        raise OracleError("graph is not connected")
    dist = dist.astype(np.int64)
    diam = int(dist.max())
    A = g.adjacency
    b = {}
    c = {}
    for i in range(diam + 1):
        sel = dist == i
        counts_c = (dist == i - 1).astype(np.float64) @ A if i > 0 else None
        counts_b = (dist == i + 1).astype(np.float64) @ A if i < diam else None
        for kind, counts, store in (("c", counts_c, c), ("b", counts_b, b)):
            if counts is None:
                continue
            vals = counts[sel]
            first = vals.flat[0]
            if not (vals == first).all():
                bad = np.argwhere(sel & (counts != first))
                x, y = map(int, min(map(tuple, bad)))
                return None, (x, y, i)
            store[i] = int(first)
    arr = IntersectionArray(tuple(b[i] for i in range(diam)),
                            tuple(c[i] for i in range(1, diam + 1)))
    return arr, None


class ClusteringError(RuntimeError):
    pass


def spectrum_bruteforce(g: Graph, tol: float = 1e-7):
    """Dense symmetric eigendecomposition, clustered into distinct eigenvalues.

    Returns (values, mults) sorted by decreasing eigenvalue; mults are exact
    integers summing to n.  Raises ClusteringError when adjacent clusters are
    not separated by at least tol.
    """
    if g.n > 4096:
        raise OracleError("graph too large for the dense oracle")
    import scipy.linalg
    w = scipy.linalg.eigvalsh(g.adjacency)[::-1]
    values, mults = [], []
    for x in w:
        if values and abs(x - values[-1]) < tol:
            mults[-1] += 1
            continue
        if values and abs(x - values[-1]) < 10 * tol:
            raise ClusteringError(f"ambiguous eigenvalue gap near {x}")
        values.append(float(x))
        mults.append(1)
    return values, mults


def odd_girth_bruteforce(g: Graph):
    """Length of the shortest odd cycle via BFS layers, or 'bipartite'.

    An edge inside BFS layer r of root x closes an odd walk of length 2r + 1
    through x; minimising over roots and edges gives the odd girth.
    """
    dist = g.distances
    U = np.array([e[0] for e in g.edges])
    V = np.array([e[1] for e in g.edges])
    du, dv = dist[:, U], dist[:, V]
    same = du == dv
    if not same.any():
        return BIPARTITE
    return int(2 * du[same].min() + 1)


# The witness graphs of the diameter-4/5 classification as (graph name for
# build, intersection array, display name), in the order theorem2 lists them.
WITNESSES = (
    ("coxeter", "{3,2,2,1;1,1,1,2}", "Coxeter graph"),
    ("cycle:9", "{2,1,1,1;1,1,1,1}", "9-gon"),
    ("odd_graph:5", "{5,4,4,3;1,1,2,2}", "Odd graph O_5"),
    ("folded_cube:9", "{9,8,7,6;1,2,3,4}", "folded 9-cube"),
    ("cycle:11", "{2,1,1,1,1;1,1,1,1,1}", "11-gon"),
    ("odd_graph:6", "{6,5,5,4,4;1,1,2,2,3}", "Odd graph O_6"),
    ("folded_cube:11", "{11,10,9,8,7;1,2,3,4,5}", "folded 11-cube"),
)

CATALOG = tuple((graph, text) for graph, text, _name in WITNESSES)
