"""Explicit witness graphs and brute-force verification.

Everything the rest of the package derives from an intersection array alone
(distance-regularity, spectra, multiplicities, odd girth) can be recomputed
here directly from an adjacency structure, giving an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count
from typing import NamedTuple

import numpy as np

from .core import IntersectionArray

BIPARTITE = "bipartite"
CLUSTER_TOL = 1e-7  # spectrum_bruteforce merges eigenvalues closer than this
DENSE_MAX_VERTICES = 4096  # spectrum_bruteforce's limit: its n x n eigvalsh past it

# Coxeter graph: vertices are the 28 triples from a 7-set that are not lines
# of a Fano plane (lines {0,1,3}+i mod 7), triples adjacent when disjoint;
# labels follow the lexicographic order of the sorted triples.  Verified by
# verify_distance_regular, not trusted from the construction.
_FANO_LINES = {frozenset((i, (i + 1) % 7, (i + 3) % 7)) for i in range(7)}
_COXETER_EDGES = tuple(
    (i, j) for (i, s), (j, r) in combinations(enumerate(
        frozenset(t) for t in combinations(range(7), 3) if frozenset(t) not in _FANO_LINES), 2)
    if not s & r)


class OracleError(ValueError):
    pass


class BFS(NamedTuple):
    """What one all-sources BFS pass finds (see Graph.bfs)."""

    connected: bool
    b: tuple[int, ...]  # b_0, b_1, ... while the counts are constant
    c: tuple[int, ...]  # c_1, c_2, ... likewise
    witness: tuple[int, int, int] | None  # first (x, y, i) where one is not
    odd_girth: int | str


@dataclass(frozen=True)
class Graph:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise OracleError(f"loop at {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise OracleError(f"edge ({u},{v}) out of range")
            if (key := (u, v) if u < v else (v, u)) in seen:
                raise OracleError(f"edge ({u},{v}) repeats")
            seen.add(key)

    def _ends(self) -> tuple[np.ndarray, np.ndarray]:  # every edge from both ends: (y, z ~ y)
        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        return np.r_[u, v], np.r_[v, u]

    @cached_property
    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.float64)
        A[self._ends()] = 1.0
        return A

    @cached_property
    def bfs(self) -> BFS:
        """BFS from every vertex at once, one distance layer at a time.

        L_i is the 0/1 matrix of pairs at distance i and N_i = L_i A, so
        N_i[x, y] = #{z ~ y : d(x, z) = i}; L_{i+1} is N_i > 0 less the pairs
        reached.  On layer i, c_i is read off N_{i-1} and b_i off N_{i+1}
        [BCN 4.1]; the witness is the first layer i, c before b, then the
        lexicographically least (x, y) whose count differs from the count at
        the layer's least pair.  An edge inside layer r (L_r o N_r != 0)
        closes an odd walk of length 2r + 1, so the least such r gives the
        odd girth.  Only L_i, L_{i+1}, the pairs reached and N_{i-1..i+1} are held.

        The pass holds A L_i = N_i^T, the C-ordered product.  Where it reads
        a count, every earlier check has passed, so L_{i-1} and, for b_i,
        L_i are polynomials in A by the three-term recurrence and commute
        with it; hence c(x, y) = (L_{i-1} A)[x, y] and b(x, y) = k -
        (L_i A)[x, y] - (L_{i-1} A)[x, y] are symmetric on layer i, where
        N_i^T therefore reads as N_i.

        Row y of A L sums L's rows at y's neighbours.  Ranked by degree, the
        vertices of degree > j come first and slot j lists their j-th
        neighbours, so each edge end adds one gathered row, into 256 KB of
        rank-ordered sums (in cache) at a time.  Counts take the narrowest
        unsigned dtype of the largest degree (one byte on every witness) and
        are read by masked reductions in C order: argmax of L_i is the layer's
        least pair, argmax of (N != its count) & L_i the first that differs.
        """
        n, (ends, nbr) = self.n, self._ends()
        deg = np.bincount(ends, minlength=n)
        dtype = np.min_scalar_type(int(deg.max(initial=0)))
        rank = np.argsort(np.argsort(-deg, kind="stable"))
        e = np.argsort(ends, kind="stable")
        slot = np.arange(len(e)) - np.repeat(np.cumsum(deg) - deg, deg)  # place among y's ends
        nbr, size = nbr[e][np.argsort(slot * n + rank[ends[e]])], np.bincount(slot).tolist()
        step = 1 + (1 << 18) // max(n, 1)  # rows of about 256 KB
        blocks = [(r0, min(c, r0 + step), nbr[lo + r0:lo + min(c, r0 + step)])
                  for r0 in range(0, n, step) for lo, c in zip(np.cumsum([0] + size), size) if c > r0]
        def times_a(L):  # A @ L for a 0/1 uint8 L
            S = np.zeros((n, n), dtype)  # rows in rank order
            for r0, r1, at in blocks:
                S[r0:r1] += L[at]
            return S[rank]

        cur = np.eye(n, dtype=bool)
        reached, nt_prev, nt_cur = cur.copy(), None, times_a(cur.view(np.uint8))
        b, c, witness, odd_girth = [], [], None, BIPARTITE
        for i in count():
            if odd_girth == BIPARTITE and np.logical_and(nt_cur, cur).any():
                odd_girth = 2 * i + 1
            nxt = (nt_cur != 0) & ~reached
            nt_next = times_a(nxt.view(np.uint8)) if nxt.any() else None
            for nt, store in ((nt_prev, c), (nt_next, b)):
                if witness is not None or nt is None:
                    continue
                v0 = nt.flat[np.argmax(cur)]  # the count at the layer's least pair
                differ = nt != v0
                differ &= cur
                bad = int(np.argmax(differ))
                if differ.flat[bad]:
                    witness = (*divmod(bad, n), i)
                else:
                    store.append(int(v0))
            if nt_next is None:
                return BFS(bool(reached.all()), tuple(b), tuple(c), witness, odd_girth)
            reached |= nxt
            cur, nt_prev, nt_cur = nxt, nt_cur, nt_next

    def edge_list_text(self) -> str:
        """One 'u v' pair per line, 0-indexed, sorted."""
        pairs = sorted((min(u, v), max(u, v)) for u, v in self.edges)
        return "\n".join(f"{u} {v}" for u, v in pairs) + "\n"

    def write_edge_list(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.edge_list_text())


def _connected_bfs(g: Graph) -> BFS:
    if not g.bfs.connected:
        raise OracleError(f"{g.name} is not connected")
    return g.bfs


def _graph(name, n, edges) -> Graph:
    return Graph(name, n, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise OracleError("cycle needs n >= 3")
    return _graph(f"cycle:{n}", n, [(i, (i + 1) % n) for i in range(n)])


def odd_graph(m: int) -> Graph:
    """Kneser graph on (m-1)-subsets of a (2m-1)-set, adjacency = disjointness."""
    if m < 2:
        raise OracleError("odd_graph needs m >= 2")
    masks = np.array([sum(1 << x for x in t) for t in combinations(range(2 * m - 1), m - 1)])
    order, bits = np.argsort(masks), 1 << np.arange(2 * m - 1)
    # the subsets disjoint from a vertex are its m-set complement less one point
    rest = masks[:, None] ^ ((1 << (2 * m - 1)) - 1)
    i, x = np.nonzero(rest & bits)
    j = order[np.searchsorted(masks[order], rest[i, 0] ^ bits[x])]
    return _graph(f"odd_graph:{m}", len(masks), np.c_[i, j][i < j].tolist())


def folded_cube(n: int) -> Graph:
    """n-cube with antipodal vertices identified; n odd keeps it simple."""
    if n < 3 or n % 2 == 0:
        raise OracleError("folded_cube needs odd n >= 3")
    half = 1 << (n - 1)  # representatives: words with top bit 0
    w = np.arange(half)[:, None]
    x = w ^ (1 << np.arange(n))
    x = np.where(x < half, x, x ^ ((1 << n) - 1))  # fold onto the antipodal word
    w, bit = np.nonzero(w < x)
    return _graph(f"folded_cube:{n}", half, np.c_[w, x[w, bit]].tolist())


def build(name: str) -> Graph:
    """Build a named graph: cycle:N, odd_graph:M, folded_cube:N, or coxeter."""
    base, _, param = name.partition(":")
    makers = {"cycle": cycle, "odd_graph": odd_graph, "folded_cube": folded_cube}
    if base == "coxeter":
        if param:
            raise OracleError("coxeter takes no parameter")
        return _graph("coxeter", 28, _COXETER_EDGES)
    if base in makers:
        try:
            p = int(param)
        except ValueError:
            raise OracleError(f"{base} needs an integer parameter, got {param!r}")
        return makers[base](p)
    raise OracleError(f"unknown graph {name!r}")


def verify_distance_regular(g: Graph):
    """Check the c_i/b_i counts of every BFS layer are globally constant.

    Returns (IntersectionArray, None) on success, (None, witness) on failure
    where witness is the first violating (x, y, i) triple (see Graph.bfs).
    """
    bfs = _connected_bfs(g)
    if bfs.witness is not None:
        return None, bfs.witness
    return IntersectionArray(bfs.b, bfs.c), None


class ClusteringError(RuntimeError):
    pass


def spectrum_bruteforce(g: Graph):
    """Dense symmetric eigendecomposition, clustered into distinct eigenvalues.

    Returns (values, mults) sorted by decreasing eigenvalue; mults are exact
    integers summing to n.  Raises ClusteringError when adjacent clusters are
    not separated by at least 10 CLUSTER_TOL.
    """
    if g.n > DENSE_MAX_VERTICES:
        raise OracleError("graph too large for the dense oracle")
    values, mults = [], []
    for x in np.linalg.eigvalsh(g.adjacency)[::-1]:
        if values and abs(x - values[-1]) < CLUSTER_TOL:
            mults[-1] += 1
            continue
        if values and abs(x - values[-1]) < 10 * CLUSTER_TOL:
            raise ClusteringError(f"ambiguous eigenvalue gap near {x}")
        values.append(float(x))
        mults.append(1)
    return values, mults


def odd_girth_bruteforce(g: Graph):
    """Length of the shortest odd cycle via BFS layers (see Graph.bfs), or 'bipartite'."""
    return _connected_bfs(g).odd_girth


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
