import math
import random
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from drgf import oracle
from drgf.core import format_array, parse_array
from drgf.spectral import as_mpf, spectrum


def test_build_orders_and_regularity(catalog_graphs):
    expect = {"cycle:9": (9, 2), "cycle:11": (11, 2), "coxeter": (28, 3),
              "odd_graph:5": (126, 5), "odd_graph:6": (462, 6),
              "folded_cube:9": (256, 9), "folded_cube:11": (1024, 11)}
    for name, (n, k) in expect.items():
        g = catalog_graphs[name]
        assert g.n == n
        deg = g.adjacency.sum(axis=1)
        assert deg.min() == deg.max() == k


def test_build_rejects_unknown():
    with pytest.raises(oracle.OracleError):
        oracle.build("petersen")
    with pytest.raises(oracle.OracleError):
        oracle.build("cycle:x")
    with pytest.raises(oracle.OracleError):
        oracle.build("folded_cube:8")  # even cube folds onto a multigraph
    with pytest.raises(oracle.OracleError):
        oracle.build("coxeter:3")


def test_verify_distance_regular_catalog(catalog_graphs):
    for name, text in oracle.CATALOG:
        arr, witness = oracle.verify_distance_regular(catalog_graphs[name])
        assert witness is None
        assert format_array(arr) == text


def test_verify_rejects_path():
    p4 = oracle.Graph("path", 4, ((0, 1), (1, 2), (2, 3)))
    arr, witness = oracle.verify_distance_regular(p4)
    assert arr is None and witness == (1, 1, 0)  # b_0: degree 2 at 1, 1 at 0


def test_disconnected_graph_raises():
    two = oracle.Graph("two", 4, ((0, 1), (2, 3)))
    with pytest.raises(oracle.OracleError, match="not connected"):
        oracle.verify_distance_regular(two)
    with pytest.raises(oracle.OracleError, match="not connected"):
        oracle.odd_girth_bruteforce(two)


@pytest.mark.parametrize("name", [
    *(f"cycle:{n}" for n in range(3, 13)), *(f"odd_graph:{m}" for m in range(2, 6)),
    *(f"folded_cube:{n}" for n in (3, 5, 7, 9)), "coxeter"])
def test_build_makes_connected_graphs(name):
    # build runs no connectivity check of its own: every maker's graph is
    # connected by construction, and the all-sources pass confirms it
    assert oracle.build(name).bfs.connected


@pytest.mark.parametrize("edges, bad", [
    (((0, 1), (1, 2), (0, 2), (2, 0)), "(2,0)"),  # a triangle, K3, one edge twice
    (((0, 1), (0, 1)), "(0,1)"),                   # K2 given twice
    (((0, 1), (1, 0)), "(1,0)"),                   # the same edge reversed
])
def test_graph_rejects_repeated_edge(edges, bad):
    with pytest.raises(oracle.OracleError, match=re.escape(f"edge {bad} repeats")):
        oracle.Graph("repeat", 3, edges)


def test_graph_reports_first_bad_edge_in_order():
    with pytest.raises(oracle.OracleError, match="loop at 2"):
        oracle.Graph("g", 3, ((0, 1), (2, 2), (1, 0)))
    with pytest.raises(oracle.OracleError, match="out of range"):
        oracle.Graph("g", 3, ((0, 1), (1, 3), (0, 1)))
    with pytest.raises(oracle.OracleError, match="repeats"):
        oracle.Graph("g", 3, ((0, 1), (1, 0), (2, 2)))

def _reference_bfs(n, edges):
    """Per-root BFS in plain Python: (b, c, witness, odd girth), with the
    witness taken in the documented order (least i, c before b, then the
    lexicographically least (x, y))."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for x in range(n):
        d = {x: 0}
        queue = [x]
        for y in queue:
            for z in adj[y]:
                if z not in d:
                    d[z] = d[y] + 1
                    queue.append(z)
        dist.append([d[y] for y in range(n)])
    diam = max(map(max, dist))
    odd = [2 * dist[x][u] + 1 for x in range(n) for u, v in edges
           if dist[x][u] == dist[x][v]]
    odd_girth = min(odd) if odd else oracle.BIPARTITE
    b, c = [], []
    for i in range(diam + 1):
        layer = [(x, y) for x in range(n) for y in range(n) if dist[x][y] == i]
        for j, store in ((i - 1, c), (i + 1, b)):
            if not 0 <= j <= diam:
                continue
            counts = [sum(dist[x][z] == j for z in adj[y]) for x, y in layer]
            for (x, y), k in zip(layer, counts):
                if k != counts[0]:
                    return b, c, (x, y, i), odd_girth
            store.append(counts[0])
    return b, c, None, odd_girth


def _random_connected_graphs(count, seed):
    """Seeded random connected graphs: a random spanning tree plus G(n, p)
    edges, and random regular graphs, which pass b_0 and fail later."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(2, 14)
        if len(graphs) % 2:
            k = rng.randint(2, n - 1) if n > 2 else 1
            if n * k % 2:
                continue
            G = nx.random_regular_graph(k, n, seed=rng.randrange(2**32))
            if not nx.is_connected(G):
                continue
            edges = set(G.edges())
        else:
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            p = rng.random()
            edges |= {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}
        graphs.append(oracle.Graph(f"random:{len(graphs)}", n, tuple(sorted(edges))))
    return graphs


def test_bfs_matches_plain_python_reference():
    graphs = _random_connected_graphs(200, seed=14)
    assert sum(oracle.verify_distance_regular(g)[1] is None for g in graphs) >= 10
    for g in graphs:
        b, c, witness, odd_girth = _reference_bfs(g.n, g.edges)
        arr, got = oracle.verify_distance_regular(g)
        assert got == witness, g
        if witness is None:
            assert (arr.b, arr.c) == (tuple(b), tuple(c)), g
        assert oracle.odd_girth_bruteforce(g) == odd_girth, g



@pytest.mark.parametrize("chord", [False, True])
@pytest.mark.parametrize("leaves", [255, 256])
def test_bfs_on_stars_either_side_of_the_one_byte_counts(leaves, chord):
    """K_{1,255} has one-byte counts and K_{1,256} two-byte ones; a leaf-leaf
    chord makes odd girth 3."""
    edges = tuple((0, y) for y in range(1, leaves + 1)) + ((1, 2),) * chord
    g = oracle.Graph(f"star:{leaves}", leaves + 1, edges)
    b, c, witness, odd_girth = _reference_bfs(g.n, g.edges)
    assert witness is not None and odd_girth == (3 if chord else oracle.BIPARTITE)
    assert oracle.verify_distance_regular(g) == (None, witness)
    assert oracle.odd_girth_bruteforce(g) == odd_girth


def test_bfs_on_a_large_star_with_a_chord():
    """K_{1,1200} and one leaf-leaf chord: one vertex of degree 1200, two of
    degree 2 and the rest of degree 1, so the neighbour slots past the
    second cover the hub alone."""
    leaves = 1200
    g = oracle.Graph("star+chord", leaves + 1,
                     tuple((0, y) for y in range(1, leaves + 1)) + ((leaves - 1, leaves),))
    b, c, witness, odd_girth = _reference_bfs(g.n, g.edges)
    assert witness == (1, 1, 0) and odd_girth == 3
    assert g.bfs == (True, tuple(b), tuple(c), witness, odd_girth)
    assert oracle.verify_distance_regular(g) == (None, witness)


@pytest.mark.parametrize("n", [256, 257])
def test_bfs_counts_do_not_wrap_on_complete_graphs(n):
    """b_0 = n - 1 is read whole either side of the one-byte limit."""
    g = oracle.Graph(f"K{n}", n, tuple(combinations(range(n), 2)))
    arr, witness = oracle.verify_distance_regular(g)
    assert witness is None and (arr.b, arr.c) == ((n - 1,), (1,))
    assert oracle.odd_girth_bruteforce(g) == 3


def test_bfs_peak_memory_on_folded_cube_11(catalog_graphs):
    """One-byte products and masked reads keep the pass under 10 MB; int32
    products or gathered counts read about 20 MB."""
    g = catalog_graphs["folded_cube:11"]
    fresh = oracle.Graph(g.name, g.n, g.edges)
    tracemalloc.start()
    try:
        fresh.bfs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak

def test_verify_matches_networkx(catalog_graphs):
    nx = pytest.importorskip("networkx")
    graphs = list(catalog_graphs.values()) + _random_connected_graphs(200, seed=41)
    for g in graphs:
        G = nx.Graph(g.edges)
        G.add_nodes_from(range(g.n))
        try:
            want = nx.intersection_array(G)
        except nx.NetworkXError:  # not distance-regular
            want = None
        arr, _ = oracle.verify_distance_regular(g)
        got = None if arr is None else (list(arr.b), list(arr.c))
        assert got == want, g.name


def test_spectrum_bruteforce_coxeter(catalog_graphs):
    vals, mults = oracle.spectrum_bruteforce(catalog_graphs["coxeter"])
    expect = [3, 2, math.sqrt(2) - 1, -1, -1 - math.sqrt(2)]
    assert np.allclose(vals, expect, atol=1e-7)
    assert mults == [1, 8, 6, 7, 6]
    assert sum(mults) == 28
    assert abs(sum(m * v for m, v in zip(mults, vals))) < 1e-6
    assert abs(sum(m * v * v for m, v in zip(mults, vals)) - 28 * 3) < 1e-6


def test_spectrum_bruteforce_cycle9(catalog_graphs):
    vals, mults = oracle.spectrum_bruteforce(catalog_graphs["cycle:9"])
    assert mults == [1, 2, 2, 2, 2]


def test_odd_graph_edges_match_pairwise_disjointness():
    for m in range(2, 7):
        verts = list(combinations(range(2 * m - 1), m - 1))
        pairwise = {(i, j) for i, j in combinations(range(len(verts)), 2)
                    if not set(verts[i]) & set(verts[j])}
        g = oracle.odd_graph(m)
        assert g.n == len(verts) and set(g.edges) == pairwise, m



@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_folded_cube_edges_match_definition(n):
    """Words below 2^(n-1) stand for antipodal pairs, adjacent when they or
    their complements differ in one bit."""
    half = 1 << (n - 1)
    want = [(w, x) for w in range(half) for x in range(w + 1, half)
            if (w ^ x).bit_count() in (1, n - 1)]
    assert oracle.folded_cube(n).edges == tuple(want)

def test_odd_girth_bruteforce(catalog_graphs):
    assert oracle.odd_girth_bruteforce(catalog_graphs["odd_graph:6"]) == 11
    assert oracle.odd_girth_bruteforce(catalog_graphs["folded_cube:9"]) == 9
    assert oracle.odd_girth_bruteforce(oracle.build("cycle:10")) == oracle.BIPARTITE


def test_oracle_matches_array_derivations(catalog_graphs):
    """Brute force agrees with everything computed from the array alone."""
    for name, text in oracle.CATALOG:
        g = catalog_graphs[name]
        arr, _ = oracle.verify_distance_regular(g)
        assert format_array(arr) == text
        spec = spectrum(arr)
        vals, mults = oracle.spectrum_bruteforce(g)
        assert len(vals) == len(spec.thetas)
        for got, want in zip(vals, spec.thetas):
            assert abs(got - float(as_mpf(want))) < 1e-7, name
        assert tuple(mults) == spec.mults, name
        og = oracle.odd_girth_bruteforce(g)
        assert og == (arr.g if arr.g is not None else oracle.BIPARTITE), name


def test_theta_min_gate_on_witnesses(catalog_graphs):
    """Every witness meets theta_min <= -(D-1)/D k with slack or equality."""
    for name, text in oracle.CATALOG:
        arr = parse_array(text)
        vals, _ = oracle.spectrum_bruteforce(catalog_graphs[name])
        assert vals[-1] <= -(arr.D - 1) / arr.D * arr.k + 1e-9, name


def test_edge_list_export(tmp_path, catalog_graphs):
    g = catalog_graphs["coxeter"]
    text = g.edge_list_text()
    lines = text.strip().split("\n")
    assert len(lines) == 42
    pairs = [tuple(map(int, ln.split())) for ln in lines]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)
    path = tmp_path / "coxeter.txt"
    g.write_edge_list(path)
    assert path.read_text() == text


@pytest.mark.parametrize("name", ["cycle:4097", "odd_graph:8", "folded_cube:15",
                                  "cycle:300000000", "odd_graph:1000000", "folded_cube:41"])
def test_build_refuses_past_the_dense_oracle_before_allocating(monkeypatch, name):
    def reached(*args):
        raise AssertionError("the graph was allocated")

    monkeypatch.setattr(oracle, "_graph", reached)
    with pytest.raises(oracle.OracleError, match="too large for the dense oracle"):
        oracle.build(name)


@pytest.mark.parametrize("name, n", [("cycle:4096", 4096), ("odd_graph:7", 1716),
                                     ("folded_cube:13", 4096)])
def test_build_makes_graphs_up_to_the_dense_oracle(name, n):
    assert oracle.build(name).n == n


def test_spectrum_bruteforce_refuses_a_hand_built_graph_past_it():
    g = oracle.Graph("empty", oracle.DENSE_MAX_VERTICES + 1, ())
    with pytest.raises(oracle.OracleError, match="too large for the dense oracle"):
        oracle.spectrum_bruteforce(g)
