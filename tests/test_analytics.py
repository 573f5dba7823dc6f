import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hiernet.analytics as an
import hiernet.core as core
from hiernet import ensemble, oracle
from hiernet.core import (
    ClusterRef,
    HierarchyShape,
    InvalidRefError,
    LinkTable,
    NetworkModel,
    PathEntry,
    node_climb,
    node_path,
    pair_index,
    validate,
)
from hiernet.gen import GenParams, generate_network, generate_shape_regular
from conftest import build_model


# -- frozen worked-example values (oracle-confirmed) -------------------------


def test_counts(demo9):
    assert an.edge_count(demo9) == 18
    assert an.triangle_count(demo9) == 17
    assert an.four_cycle_count(demo9) == 43
    assert an.wedge_count(demo9) == 68


def test_per_cluster_counts(demo9):
    assert an.edge_count(demo9, ClusterRef(1, 1)) == 2
    assert an.edge_count(demo9, ClusterRef(1, 2)) == 3
    assert an.edge_count(demo9, ClusterRef(1, 3)) == 1
    assert an.wedge_count(demo9, ClusterRef(1, 1)) == 1
    assert an.wedge_count(demo9, ClusterRef(1, 2)) == 3
    assert an.triangle_count(demo9, ClusterRef(1, 1)) == 0
    assert an.four_cycle_count(demo9, ClusterRef(1, 2)) == 0
    for count in (an.edge_count, an.wedge_count, an.triangle_count, an.four_cycle_count):
        assert count(demo9, ClusterRef(0, 4)) == 0
    with pytest.raises(InvalidRefError):
        an.edge_count(demo9, ClusterRef(3, 1))
    with pytest.raises(InvalidRefError):
        an.triangle_count(demo9, ClusterRef(1, 4))


def test_degrees(demo9):
    assert [an.node_degree(demo9, x) for x in range(1, 10)] == [5, 5, 6, 4, 6, 4, 4, 1, 1]
    assert an.node_degrees(demo9).tolist() == [5, 5, 6, 4, 6, 4, 4, 1, 1]
    with pytest.raises(InvalidRefError):
        an.node_degree(demo9, 10)


def test_node_degree_reads_sizes_not_aggregates():
    m = generate_network(GenParams(mode="by-nodes", p=4, mu=0.3, seed=11, n=400))
    degs = [an.node_degree(m, x) for x in range(1, m.shape.n + 1)]
    assert an._pattern_roots not in m._passes
    assert degs == oracle.expand(m).bf_degrees().tolist()


def test_point_queries_refuse_non_integer_nodes(demo9):
    queries = (
        lambda x: an.distance(demo9, x, 3),
        lambda x: an.distance(demo9, 3, x),
        lambda x: an.node_degree(demo9, x),
        lambda x: an.triangles_at_node(demo9, x),
        lambda x: an.clustering_coefficient(demo9, x),
        lambda x: node_path(demo9, x),
    )
    for query in queries:
        for bad in (1.5, 2.0, 2.5, np.float64(3.0), "2", None):
            with pytest.raises(InvalidRefError):
                query(bad)
    # numpy integers are node numbers like any other
    assert an.distance(demo9, np.int64(1), np.int32(4)) == 1
    assert an.node_degree(demo9, np.int64(5)) == 6
    assert an.triangles_at_node(demo9, np.uint8(5)) == 11
    assert an.clustering_coefficient(demo9, np.int16(5)) == an.clustering_coefficient(demo9, 5)
    assert node_path(demo9, np.int64(9)) == node_path(demo9, 9)


def _root_bits_only(gamma: int) -> NetworkModel:
    """Regular p=3 shape whose only set bits are the root's three."""
    shape = generate_shape_regular(gamma, 3)
    nbits = [shape.counts_at(g) * (shape.counts_at(g) - 1) // 2 for g in range(1, gamma + 1)]
    bits = [np.zeros(int(b.sum()), np.uint8) for b in nbits[:-1]] + [np.ones(3, np.uint8)]
    return NetworkModel(shape, LinkTable(bits, nbits))


@pytest.mark.parametrize("make", [
    lambda: generate_network(GenParams(mode="by-nodes", p=4, mu=0.3, seed=11, n=400)),
    # nodes 1 and 2 meet at level 1, four levels below the only linking vertex
    lambda: _root_bits_only(5),
], ids=["by-nodes-400", "root-bits-only"])
def test_distance_on_a_fresh_model_runs_no_whole_network_pass(make):
    m = make()
    assert validate(m) == []
    want = oracle.expand(m).bf_all_distances()
    n = m.shape.n
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            d = an.distance(m, x, y)
            assert (-1 if d is None else d) == want[x - 1, y - 1], (x, y)
    assert m._passes == {}  # no whole-network pass ran


def test_point_queries_read_the_layout_raw(monkeypatch):
    # a generated model is trusted as built, so no query passes a level check
    m = generate_network(GenParams(mode="by-nodes", p=4, mu=0.3, seed=11, n=400))
    g = oracle.expand(m)
    dist = g.bf_all_distances()

    def refuse(*args, **kwargs):
        raise AssertionError("a checked level accessor ran")

    monkeypatch.setattr(core, "_checked_level", refuse)
    n = m.shape.n
    assert [an.node_degree(m, x) for x in range(1, n + 1)] == g.bf_degrees().tolist()
    assert [an.triangles_at_node(m, x) for x in range(1, n + 1)] == \
        [g.bf_triangles_at(x) for x in range(1, n + 1)]
    for x in range(1, n + 1):
        assert an.clustering_coefficient(m, x) == pytest.approx(g.bf_clustering(x))
        for y in range(x + 1, n + 1):
            d = an.distance(m, x, y)
            assert (-1 if d is None else d) == dist[x - 1, y - 1], (x, y)


def test_degree_distribution(demo9):
    assert an.degree_distribution(demo9).as_dict() == {1: 2, 4: 3, 5: 2, 6: 2}


def test_triangles_at_node(demo9):
    assert an.triangles_at_node(demo9, 5) == 11
    assert an.triangles_at_node(demo9, 8) == 0
    assert an.triangles_at_all_nodes(demo9).tolist() == [7, 7, 11, 5, 11, 5, 5, 0, 0]


def test_clustering(demo9):
    assert an.clustering_coefficient(demo9, 5) == pytest.approx(22 / 30)
    assert an.clustering_coefficient(demo9, 8) == 0.0
    vals = an.clustering_values(demo9)
    assert vals[4] == pytest.approx(22 / 30)
    assert vals[7] == 0.0


def test_distances(demo9):
    assert an.distance(demo9, 1, 4) == 1
    assert an.distance(demo9, 1, 2) == 2
    assert an.distance(demo9, 1, 8) is None
    assert an.distance(demo9, 3, 3) == 0
    assert an.distance(demo9, 8, 9) == 1
    with pytest.raises(InvalidRefError):
        an.distance(demo9, 0, 5)


def test_distance_distribution(demo9):
    h = an.distance_distribution(demo9)
    assert h.as_dict() == {1: 18, 2: 4}
    assert h.unreachable == 14
    assert h.total() == 9 * 8 // 2


def test_diameter_and_components(demo9):
    assert an.diameter(demo9) == 2
    assert an.component_sizes(demo9) == [7, 2]


# -- complete-graph and degenerate checks ------------------------------------


def test_k4_counts(k4):
    assert an.edge_count(k4) == 6
    assert an.wedge_count(k4) == 12
    assert an.triangle_count(k4) == 4
    assert an.four_cycle_count(k4) == 3
    assert an.diameter(k4) == 1
    assert an.component_sizes(k4) == [4]
    assert an.distance_distribution(k4).as_dict() == {1: 6}
    assert all(an.clustering_coefficient(k4, x) == 1.0 for x in range(1, 5))


def test_single_node_network():
    m = generate_network(GenParams(mode="by-levels", p=3, mu=0.5, seed=1, gamma=0))
    assert an.edge_count(m) == 0
    assert an.node_degree(m, 1) == 0
    assert an.degree_distribution(m).as_dict() == {0: 1}
    assert an.distance_distribution(m).counts == ()
    assert an.diameter(m) == 0
    assert an.component_sizes(m) == [1]
    assert an.triangles_at_node(m, 1) == 0
    assert ensemble.compute_properties(m, ensemble.PROPERTIES) == {
        "edges": 0, "c3": 0, "c4": 0, "degree-dist": {0: 1}, "distance-dist": {"unreachable": 0},
        "components": {1: 1}, "diameter": 0, "clustering-dist": {"0.00": 1},
    }


def test_edge_tier_level_zero_is_one_broadcast_of_zeros(demo9):
    nodes = an._edge_levels(demo9)[0]
    assert nodes.strides == (0,) and not nodes.flags.writeable
    assert nodes.tolist() == [0] * 9


def test_all_zero_bitmaps():
    m = build_model(3, [[2, 3], [2]], [["0", "000"], ["0"]])
    assert an.edge_count(m) == 0
    assert an.component_sizes(m) == [1] * 5
    h = an.distance_distribution(m)
    assert h.counts == () and h.unreachable == 10


def test_mu_zero_is_complete():
    m = generate_network(GenParams(mode="regular", p=3, mu=0.0, seed=3, gamma=3))
    n = m.shape.n
    assert an.edge_count(m) == n * (n - 1) // 2
    assert an.degree_distribution(m).as_dict() == {n - 1: n}
    assert an.diameter(m) == 1
    assert an.component_sizes(m) == [n]


# -- identities on random networks -------------------------------------------


def _small_params(seed: int) -> GenParams:
    mu = (0.1, 0.5, 1.0)[seed % 3]
    return GenParams(mode="by-nodes", p=2 + seed % 4, mu=mu, seed=seed, n=2 + seed % 120)


@given(st.integers(0, 10**6).map(_small_params))
# past the oracle's cap: a root pair's V_i * V_j passes 2**31 at N = 531441, and
# both roots hold more than _INT64_SAFE_NODES nodes, so their patterns are object
@example(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=12))
@example(GenParams(mode="by-nodes", p=16, mu=0.5, seed=1, n=50000))
@settings(max_examples=50, deadline=None)
def test_count_identities(params):
    m = generate_network(params)
    n = m.shape.n
    deg = an.node_degrees(m)
    assert int(deg.sum()) == 2 * an.edge_count(m)
    assert int(np.sum(deg * (deg - 1) // 2)) == an.wedge_count(m)
    assert int(an.triangles_at_all_nodes(m).sum()) == 3 * an.triangle_count(m)
    h = an.degree_distribution(m)
    assert h.total() == n
    hd = an.distance_distribution(m)
    assert hd.total() == n * (n - 1) // 2
    comps = an.component_sizes(m)
    assert sum(comps) == n and sorted(comps, reverse=True) == comps
    if hd.counts:
        assert an.diameter(m) == max(v for v, _ in hd.counts)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_aggregate_consistency_across_levels(seed):
    # the root aggregate must follow from any level's aggregates re-merged,
    # so per-cluster values of every level are internally consistent
    m = generate_network(GenParams(mode="by-nodes", p=3, mu=0.5, seed=seed, n=40))
    aggs = an.cluster_aggregates(m)
    shape = m.shape
    for g in range(1, shape.gamma + 1):
        assert int(aggs[g - 1].v.sum()) == shape.n
        assert aggs[g - 1].e.sum() <= aggs[-1].e[0]
    # child edges never exceed the parent's
    for g in range(2, shape.gamma + 1):
        lo = 0
        for i in range(1, shape.n_clusters(g) + 1):
            hi = lo + shape.count(g, i)
            assert int(aggs[g - 2].e[lo:hi].sum()) <= int(aggs[g - 1].e[i - 1])
            lo = hi


# -- the edge tier -------------------------------------------------------------

_EDGE_CORPUS = [
    *(GenParams(mode="by-nodes", p=p, mu=mu, seed=20260822, n=n)
      for p in (2, 3, 5, 8) for n in (1, 9, 64, 200) for mu in (0.1, 0.5, 1.0)),
    *(GenParams(mode="by-levels", p=p, mu=0.5, seed=20260822, gamma=g)
      for p, g in ((2, 6), (4, 3), (6, 2))),
]


@pytest.mark.parametrize("params", _EDGE_CORPUS, ids=repr)
def test_edge_levels_match_the_oracle_per_cluster(params):
    m = generate_network(params)
    adj = oracle.expand(m).adj.astype(np.int64)
    edges = an._edge_levels(m)
    assert an._pattern_roots not in m._passes
    aggs = an.cluster_aggregates(m)
    assert len(edges) == len(aggs) + 1 == m.shape.gamma + 1
    for g, E in enumerate(edges[1:], start=1):
        assert E.dtype == np.int64 and not E.flags.writeable
        ranges = (m.shape.leaf_range(g, i) for i in range(1, len(E) + 1))
        assert E.tolist() == [int(adj[lo:hi, lo:hi].sum()) // 2 for lo, hi in ranges]
        assert E.tolist() == aggs[g - 1].e.tolist()


def test_edge_levels_under_the_forced_object_path(monkeypatch):
    params = GenParams(mode="by-nodes", p=8, mu=0.3, seed=77, n=150)
    want = [E.tolist() for E in an._edge_levels(generate_network(params))]
    monkeypatch.setattr(an, "_INT64_SAFE_NODES", 0)
    m = generate_network(params)
    aggs = an.cluster_aggregates(m)
    # the edge tier stays int64; the pattern tier carries E on object arrays
    assert [E.tolist() for E in an._edge_levels(m)] == want
    assert all(a.e.dtype == object for a in aggs)
    assert [a.e.tolist() for a in aggs] == want[1:]


@pytest.mark.parametrize("params", [
    GenParams(mode="by-nodes", p=4, mu=0.3, seed=11, n=400),
    GenParams(mode="by-nodes", p=8, mu=0.2, seed=5, n=300),
], ids=repr)
def test_edge_tier_readers_run_no_pattern_pass(params):
    m = generate_network(params)
    g = oracle.expand(m)
    n = m.shape.n
    assert an.edge_count(m) == g.bf_edges()
    assert [an.triangles_at_node(m, x) for x in range(1, n + 1)] == [
        g.bf_triangles_at(x) for x in range(1, n + 1)]
    assert [an.clustering_coefficient(m, x) for x in range(1, n + 1)] == pytest.approx(
        [g.bf_clustering(x) for x in range(1, n + 1)], abs=1e-12)
    assert an.node_degrees(m).tolist() == g.bf_degrees().tolist()
    assert an._pattern_roots not in m._passes


# -- engine dtype strategy ---------------------------------------------------


def test_object_dtype_matches_int64(monkeypatch):
    # p=8 gives object values child graphs wide enough for every term
    for p in (4, 8):
        params = GenParams(mode="by-nodes", p=p, mu=0.3, seed=77, n=150)
        m1 = generate_network(params)
        counts = an.edge_count, an.wedge_count, an.triangle_count, an.four_cycle_count
        base = tuple(f(m1) for f in counts)
        with monkeypatch.context() as mp:
            mp.setattr(an, "_INT64_SAFE_NODES", 0)
            m2 = generate_network(params)
            forced = tuple(f(m2) for f in counts)
            assert an.cluster_aggregates(m2)[-1].e.dtype == object
            assert an.node_degrees(m2).tolist() == an.node_degrees(m1).tolist()
        assert forced == base
        assert an.distance_distribution(m2) == an.distance_distribution(m1)


def test_pattern_tier_reads_sizes_from_the_shape(monkeypatch):
    # int64 levels hold the shape's own read-only sizes; object levels a copy
    monkeypatch.setattr(an, "_INT64_SAFE_NODES", 100)
    m = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=3, gamma=6))
    for g, agg in enumerate(an.cluster_aggregates(m), start=1):
        sizes = m.shape.sizes_at(g)
        if agg.v.dtype == object:
            assert agg.v.tolist() == sizes.tolist() and int(sizes.max()) > 100
        else:
            assert np.shares_memory(agg.v, sizes) and not agg.v.flags.writeable
            with pytest.raises(ValueError):
                agg.v[0] = 0
    assert [a.v.dtype for a in an.cluster_aggregates(m)].count(object) == 2


def _random_block(rng, c, rows, hi, dtype):
    """(A, V, X) children-first, with A a random symmetric 0/1 adjacency."""
    upper = np.triu(rng.integers(0, 2, (rows, c, c)), 1)
    A = np.ascontiguousarray((upper + upper.transpose(0, 2, 1)).transpose(1, 2, 0))
    V = rng.integers(1, hi, (c, rows))
    X = rng.integers(0, hi, (3, c, rows))
    if dtype is object:
        # Python ints near 2**40, so fourth powers pass 2**63 by far
        V, X = (a.astype(object) * 2**20 + 1 for a in (V, X))
    return A, V, X


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_contraction_evaluators_agree(dtype):
    # each contraction against plain matrix products, one row at a time, in Python ints
    rng = np.random.default_rng(20260822)
    hi = 1000 if dtype is np.int64 else 2**20
    for c in range(1, 11):
        A, V, X = _random_block(rng, c, 25, hi, dtype)
        link = an._link_sums(A, X)
        K = an._walks(A, V)
        tri = an._triangle_walks(K, V, A)
        ring = an._ring_walks(K, V)
        assert all(r.dtype == dtype for r in (link, K, tri, ring))
        for r in range(A.shape[-1]):
            a = A[:, :, r].astype(object)
            av = a * V[:, r].astype(object)  # A.dV
            assert [list(row) for row in K[:, :, r]] == [list(row) for row in av @ a]
            assert list(tri[:, r]) == list(np.diag(av @ av @ a))
            assert ring[r] == np.trace(av @ av @ av @ av)
            assert [list(col) for col in link[:, :, r]] == [list(a @ x) for x in X[:, :, r]]
        if dtype is object and c >= 2:
            assert max(ring) > 2**63, f"c={c}"


def test_large_counts_stay_exact():
    # mu=0 regular p=3 gamma=8: complete graph on 6561 nodes; closed forms
    # for K_n push C4 beyond 2**53 so float contamination would show
    m = generate_network(GenParams(mode="regular", p=3, mu=0.0, seed=1, gamma=8))
    n = m.shape.n
    assert an.edge_count(m) == n * (n - 1) // 2
    assert an.triangle_count(m) == math.comb(n, 3)
    assert an.four_cycle_count(m) == 3 * math.comb(n, 4)
    assert an.wedge_count(m) == n * math.comb(n - 1, 2)


def _assert_root_on_object_arrays(m):
    # regular p=3 gamma=10: N = 59049 puts the root past _INT64_SAFE_NODES
    assert m.shape.n == 59049 > an._INT64_SAFE_NODES
    aggs = an.cluster_aggregates(m)
    assert aggs[-1].e.dtype == object and aggs[-2].e.dtype == np.int64


def test_complete_graph_past_the_int64_switch():
    # mu=0 sets every bit: K_N
    m = generate_network(GenParams(mode="regular", p=3, mu=0.0, seed=1, gamma=10))
    n = m.shape.n
    # the edge tier alone gives the count, before any pattern pass
    assert an.edge_count(m) == math.comb(n, 2)
    assert an._pattern_roots not in m._passes
    _assert_root_on_object_arrays(m)
    assert an.wedge_count(m) == n * math.comb(n - 1, 2)
    assert an.triangle_count(m) == math.comb(n, 3)
    assert an.four_cycle_count(m) == 3 * math.comb(n, 4)
    assert an.diameter(m) == 1
    assert an.component_sizes(m) == [n]


def test_complete_graph_past_the_int32_size_products():
    # at gamma=11 a root pair's V_i * V_j = 59049**2 passes 2**31, so the edge
    # tier counts K_N exactly only if it widens the shape's int32 sizes
    m = generate_network(GenParams(mode="regular", p=3, mu=0.0, seed=1, gamma=11))
    assert an.edge_count(m) == math.comb(m.shape.n, 2) == 15690441231


def test_pattern_cache_holds_the_top_level_only():
    m = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=12))
    an.four_cycle_count(generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=3)))
    an.edge_count(m)  # the edge tier keeps every level; only what the pattern tier adds counts
    tracemalloc.start()
    try:
        c4 = an.four_cycle_count(m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # one value per root; every level of P2, C3 and C4 held 12 B per node
    assert [a.tolist() for a in m._passes[an._pattern_roots]] == [
        [an.wedge_count(m)], [an.triangle_count(m)], [c4]]
    assert held / m.shape.n < 0.1
    # a cluster below the top reruns the tier, keeping every level, and caches nothing new
    agg = an.cluster_aggregates(m)[m.shape.gamma - 2]
    assert an.four_cycle_count(m, ClusterRef(m.shape.gamma - 1, 2)) == agg.c4[1]
    assert [len(a) for a in m._passes[an._pattern_roots]] == [1, 1, 1]


def _fraction_bins(model) -> dict:
    """clustering-dist from exact Fractions of the node passes' degrees and triangles."""
    pairs = zip(an.node_degrees(model).tolist(), an.triangles_at_all_nodes(model).tolist())
    bins = Counter(math.floor(100 * Fraction(2 * t, d * (d - 1))) if d >= 2 else 0
                   for d, t in pairs)
    return {f"{b / 100:.2f}": n for b, n in sorted(bins.items())}


def test_clustering_bins_are_exact_on_bin_edges(demo9):
    # node 189 has degree 25 and 174 triangles: C = 348/600 = 0.58 exactly, which
    # float64 gives as 0.57999..., so only an exact bin counts it in 0.58
    m = generate_network(GenParams(mode="by-nodes", p=5, mu=0.5, seed=3, n=500))
    assert (an.node_degrees(m)[188], an.triangles_at_all_nodes(m)[188]) == (25, 174)
    assert math.floor(an.clustering_values(m)[188] * 100) == 57
    for model in (m, demo9, *map(generate_network, _DIST_CORPUS)):
        got = ensemble.compute_properties(model, ["clustering-dist"])["clustering-dist"]
        assert got == _fraction_bins(model)


def test_isolated_nodes_past_the_int64_switch():
    shape = generate_shape_regular(10, 3)
    nbits = [shape.counts_at(g) * (shape.counts_at(g) - 1) // 2 for g in range(1, 11)]
    m = NetworkModel(shape, LinkTable([np.zeros(int(b.sum()), np.uint8) for b in nbits], nbits))
    assert validate(m) == []
    _assert_root_on_object_arrays(m)
    n = shape.n
    assert an.edge_count(m) == 0
    assert an.component_sizes(m) == [1] * n
    h = an.distance_distribution(m)
    assert h.counts == () and h.unreachable == math.comb(n, 2)


def test_root_only_bits_past_the_int64_switch():
    # only the root's three bits set: K_{s,s,s} over its three children
    m = _root_bits_only(10)
    assert validate(m) == []
    _assert_root_on_object_arrays(m)
    n, s = m.shape.n, 3**9
    assert an.edge_count(m) == 3 * s * s
    assert an.wedge_count(m) == n * math.comb(2 * s, 2)
    assert an.triangle_count(m) == s**3
    assert an.four_cycle_count(m) == 3 * math.comb(s, 2) ** 2 + 3 * s * s * math.comb(s, 2)
    h = an.distance_distribution(m)
    assert h.as_dict() == {1: 3 * s * s, 2: 3 * math.comb(s, 2)} and h.unreachable == 0
    assert an.diameter(m) == 2
    assert an.component_sizes(m) == [n]


# -- one-search climbs ----------------------------------------------------------


def _per_level_climb(m: NetworkModel, x: int) -> list[tuple[int, ...]]:
    """`node_climb` of node x from the public accessors, one search of one level's leaf cums each."""
    out, below = [], x - 1
    for g in range(1, m.shape.gamma + 1):
        i = int(np.searchsorted(m.shape.leaf_cum_at(g), x))
        lo = int(m.shape.child_start_at(g)[i])
        c, off = int(m.shape.counts_at(g)[i]), int(m.links.starts_at(g)[i])
        out.append((g, i, lo, below - lo, c, off))
        below = i
    return out


_CLIMB_CASES = {
    "demo9": lambda: build_model(4, [[3, 4, 2], [3]], [["011", "100110", "1"], ["100"]]),
    "one-node": lambda: NetworkModel(HierarchyShape(3, []), LinkTable([], [])),
    # one-child vertices stacked over a cluster, and a level of them mid-tree
    "one-child-chain": lambda: build_model(3, [[3], [1], [1], [1]], [["111"], [""], [""], [""]]),
    "one-child-level": lambda: build_model(
        3, [[2, 1, 3], [1, 1, 1], [3]], [["1", "", "011"], ["", "", ""], ["110"]]),
    "root-bits-only": lambda: _root_bits_only(5),
    "by-nodes-p40": lambda: generate_network(
        GenParams(mode="by-nodes", p=40, mu=0.5, seed=3, n=3000)),
    "regular-g8": lambda: generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=8)),
}


@pytest.mark.parametrize("make", list(_CLIMB_CASES.values()), ids=list(_CLIMB_CASES))
def test_one_search_climb_equals_the_per_level_search(make):
    m = make()
    assert validate(m) == []
    n = m.shape.n
    for x in range(1, n + 1):
        want = _per_level_climb(m, x)
        assert list(node_climb(m, x)) == want, x
        assert node_path(m, x) == tuple(PathEntry(g, i + 1, a + 1) for g, i, _, a, _, _ in want)
    # the two ends of every level's segment of the joined leaf cums
    assert [e.cluster_index for e in node_path(m, 1)] == [1] * m.shape.gamma
    assert [e.cluster_index for e in node_path(m, n)] == \
        [m.shape.n_clusters(g) for g in range(1, m.shape.gamma + 1)]


@pytest.mark.parametrize("make", [
    lambda: generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=6)),
    lambda: generate_network(GenParams(mode="regular", p=3, mu=0.8, seed=2, gamma=6)),
    lambda: _root_bits_only(5),
    lambda: generate_network(GenParams(mode="by-nodes", p=40, mu=0.3, seed=3, n=600)),
], ids=["regular-g6", "regular-g6-sparse", "root-bits-only", "by-nodes-p40"])
def test_distance_at_every_lowest_common_level(make):
    m = make()
    n, top = m.shape.n, m.shape.gamma
    dist = oracle.expand(m).bf_all_distances()
    rng = np.random.default_rng(7)
    chains = {x: [e.cluster_index for e in node_path(m, x)] for x in range(1, n + 1)}
    seen = set()
    for x, y in rng.integers(1, n + 1, (4000, 2)).tolist() + [[1, n], [1, 2], [n - 1, n]]:
        if x == y:
            continue
        # the lowest common cluster's level: the levels where the chains still differ, plus one
        seen.add(sum(a != b for a, b in zip(chains[x], chains[y])) + 1)
        d = an.distance(m, x, y)
        assert (-1 if d is None else d) == dist[x - 1, y - 1], (x, y)
    assert {1, top // 2, top} <= seen


def _count_searches(fn) -> int:
    """How many times `fn()` calls a `searchsorted`, numpy's function and the array method alike."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", None) == "searchsorted":
            calls += 1

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(before)
    return calls


def test_every_point_query_makes_one_search():
    m = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=8))
    n = m.shape.n
    an.triangles_at_node(m, 1)  # the edge tier, which the triangle climbs read, built first
    kinds = [lambda x, y: an.node_degree(m, x), lambda x, y: an.triangles_at_node(m, x),
             lambda x, y: an.clustering_coefficient(m, x), lambda x, y: an.distance(m, x, y)]
    rng = np.random.default_rng(5)
    pairs = [[1, n], [n, 1], [1, 2]] + rng.integers(1, n + 1, (297, 2)).tolist()
    queries = [(kinds[k % 4], x, y if x != y else x % n + 1)
               for k, (x, y) in enumerate(pairs)]

    def ask():
        for fn, x, y in queries:
            fn(x, y)

    assert _count_searches(ask) == len(queries) == 300


def test_point_queries_copy_no_search_array():
    # needles of another dtype than the keys' would make numpy copy the whole
    # joined array, or a level of it, on every search; 1000 queries and 500
    # level-1 lookups allocate less than one copy
    m = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=10))
    keys = m.shape._derived().keys
    rng = np.random.default_rng(7)
    pairs = rng.integers(1, m.shape.n + 1, (500, 2)).tolist()
    an.distance(m, 1, m.shape.n), an.node_degree(m, 1)  # warm the sibling tables
    tracemalloc.start()
    try:
        for x, y in pairs:
            an.distance(m, x, y), an.node_degree(m, y), m.shape.node_cluster(1, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.dtype == np.int32 and peak < keys.nbytes, peak


# -- row blocks ----------------------------------------------------------------

# p=40 and p=400 draw vertices past 2**5 and 2**8 children, which take a
# block of their own at 2**10 and at the default 2**16 entries
_BLOCK_CORPUS = [
    *(GenParams(mode="by-nodes", p=p, mu=0.5, seed=20260822, n=n)
      for p in (2, 3, 5, 8) for n in (9, 64, 200)),
    *(GenParams(mode="by-levels", p=p, mu=0.5, seed=20260822, gamma=g)
      for p, g in ((2, 6), (4, 3), (6, 2))),
    GenParams(mode="by-nodes", p=40, mu=0.2, seed=20260822, n=200),
    GenParams(mode="by-nodes", p=400, mu=0.2, seed=20260822, n=600),
]


def _block_inputs(corpus):
    """Fresh models, so no pass reads a cache: the corpus, then a forest of mixed depths."""
    copies = [generate_network(GenParams(mode="by-nodes", p=3, mu=0.8, seed=7, n=n), stream=s)
              for n, s in ((243, 1), (1, 1), (243, 2), (30, 3))]
    assert len({m.shape.gamma for m in copies}) >= 3
    forest = ensemble._forest(3, copies)
    return [*map(generate_network, corpus), forest]


def _every_pass(m):
    hist, *components = an._free_scan(m)
    return (
        [[getattr(a, f.name).tolist() for f in fields(a)] for a in an.cluster_aggregates(m)],
        an.node_degrees(m).tolist(),
        an.triangles_at_all_nodes(m).tolist(),
        # a histogram row widens as its blocks come, so its trailing zeros may differ
        an._rows(hist),
        [a.tolist() for a in components],  # lone nodes, then each group size's root, size, count
    )


@pytest.mark.parametrize("int64_safe", [40_000, 0])
def test_results_do_not_depend_on_the_block_size(int64_safe, monkeypatch):
    monkeypatch.setattr(an, "_INT64_SAFE_NODES", int64_safe)
    # object einsums over the p=400 child graphs take seconds, so they run on int64 only
    corpus = _BLOCK_CORPUS if int64_safe else _BLOCK_CORPUS[:-1]
    want = [_every_pass(m) for m in _block_inputs(corpus)]
    for entries in (1, 2**10, 2**20):
        monkeypatch.setattr(an, "_BLOCK_ENTRIES", entries)
        assert [_every_pass(m) for m in _block_inputs(corpus)] == want, entries


# -- distributions counted in chunks ------------------------------------------

# oracle-corpus networks, wide and deep, and the copies of one mixed-depth
# forest, a zero-level one among them
_DIST_CORPUS = [
    GenParams(mode="by-nodes", p=p, mu=mu, seed=20260822, n=n)
    for p, mu, n in ((2, 0.5, 200), (3, 0.1, 120), (5, 1.0, 64), (8, 0.5, 200))
]
_FOREST_COPIES = [(GenParams(mode="by-nodes", p=3, mu=0.8, seed=7, n=n), s)
                  for n, s in ((243, 1), (1, 1), (30, 3), (100, 2))]


def _sorted_counts(values) -> dict:
    """The reference: np.unique's value counts, keys and counts as Python ints."""
    vals, cnts = np.unique(values, return_counts=True)
    return dict(zip(vals.tolist(), cnts.tolist()))


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_distributions_equal_a_sort_across_chunks_and_roots(chunk, demo9, monkeypatch):
    monkeypatch.setattr(an, "_BLOCK_ENTRIES", chunk)
    copies = [generate_network(params, stream=s) for params, s in _FOREST_COPIES]
    assert len({m.shape.gamma for m in copies}) >= 3 and min(m.shape.gamma for m in copies) == 0
    # in chunks of 7 the first root ends inside a chunk (243 = 7 * 34 + 5); at the
    # default every model is one chunk
    forest = ensemble._forest(3, copies)
    models = [demo9, *map(generate_network, _DIST_CORPUS), forest]
    for m in models:
        cuts = an._root_ends(m.shape)[0][:-1]
        degrees = np.split(an.node_degrees(m), cuts)
        d, t = an.node_degrees(m), an.triangles_at_all_nodes(m)
        bins = np.split(200 * t // np.maximum(d * (d - 1), 1), cuts)
        parts = copies if m is forest else [m]
        table = {name: ensemble.PROPERTY_TABLE[name](m)
                 for name in ("degree-dist", "clustering-dist", "distance-dist")}
        assert [len(v) for v in table.values()] == [len(parts)] * 3
        for j, part in enumerate(parts):
            want = _sorted_counts(degrees[j])
            assert table["degree-dist"][j] == want
            assert table["clustering-dist"][j] == {
                f"{b / 100:.2f}": n for b, n in _sorted_counts(bins[j]).items()}
            hist, unreachable = oracle.expand(part).bf_distance_histogram()
            assert table["distance-dist"][j] == {**hist, "unreachable": unreachable}
            if m is not forest:
                assert an.degree_distribution(m).as_dict() == want
                h = an.distance_distribution(m)
                assert (h.as_dict(), h.unreachable) == (hist, unreachable)


def _every_property(m):
    """The eight table properties and the wedges, the nine `hiernet analyze` reports."""
    values = ensemble.compute_properties(m, ensemble.PROPERTIES)
    return values, an.wedge_count(m)


def test_distributions_count_in_bounded_memory():
    # the degrees and clustering bins are counted as the descent reaches the
    # nodes, so no whole-network property keeps or builds an array N long: the
    # edge tier's levels are the largest thing held (8 B a level-1 cluster)
    # one-time setup: the shared code tables
    _every_property(generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=7, gamma=4)))
    m = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=7, gamma=12))
    n = m.shape.n
    assert n == 531441
    tracemalloc.start()
    try:
        _every_property(m)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25 * n and held < 8 * n, (peak / n, held / n)
    arrays = _arrays(list(m._passes.values()))
    # level 0 of the edge tier is one zero, broadcast N long
    assert max(a.size for a in arrays if a.strides != (0,)) < n / 2


def test_components_of_a_sparse_network_in_bounded_memory():
    # regular p=3, gamma=12 at mu=3 has 510323 components, 491045 of them lone
    # nodes: the scan counts them by size, with no array per component or per
    # lone node. By tracemalloc in bytes per node with numpy 2.4, reading the
    # components and the distances peaks at 6.7 and holds 0.02; the budgets
    # are 10 and 1
    m = generate_network(GenParams(mode="regular", p=3, mu=3, seed=1, gamma=12))
    n = m.shape.n
    # one-time setup: the layout, the edge tier and the shared code tables
    an._edge_levels(m)
    _every_property(generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=7, gamma=4)))
    tracemalloc.start()
    try:
        components = ensemble.PROPERTY_TABLE["components"](m)
        hists = ensemble.PROPERTY_TABLE["distance-dist"](m)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(components[0].values()) == 510323 and components[0][1] == 491045
    assert sum(size * k for size, k in components[0].items()) == n
    assert sum(hists[0].values()) == math.comb(n, 2)
    assert peak <= 10 * n and held <= n, (peak / n, held / n)


def test_forest_group_keys_past_2_31():
    # 33000 two-node roots, linked at odd roots only: the last root's group
    # key, root * (N + 1) + size, reaches 32999 * 66001 > 2**31. Every per-root
    # count starts one bin wide and widens as values come, so by tracemalloc
    # with numpy 2.4 the scan peaks at 113 B a root above what it starts
    # from, and the node counts at 140; a row of MAX_CHILDREN + 1 distance
    # buckets would take 24.7 KB a root, one of 101 clustering bins 808 B.
    # The budgets are 250 B a root each
    roots = 33_000
    bits = np.arange(roots, dtype=np.uint8) % 2
    m = NetworkModel._trusted(HierarchyShape(2, [np.full(roots, 2)]),
                              LinkTable([bits], [np.ones(roots, np.int64)]))
    assert (roots - 1) * (m.shape.n + 1) > 2**31
    an._edge_levels(m)  # one-time setup: the layout and the edge tier
    peaks = []
    tracemalloc.start()
    try:
        for read in (an._free_scan, an._node_counts):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            read(m)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 250 * roots, [peak / roots for peak in peaks]
    linked = bits.astype(bool).tolist()
    table = {name: ensemble.PROPERTY_TABLE[name](m) for name in
             ("components", "distance-dist", "degree-dist", "clustering-dist", "diameter")}
    assert table["components"] == [{2: 1} if b else {1: 2} for b in linked]
    assert table["distance-dist"] == [{1: 1, "unreachable": 0} if b else {"unreachable": 1}
                                      for b in linked]
    assert table["degree-dist"] == [{1: 2} if b else {0: 2} for b in linked]
    assert table["clustering-dist"] == [{"0.00": 2}] * roots
    assert table["diameter"] == [int(b) for b in linked]


# -- the widest child graphs --------------------------------------------------


def _path_bits(c):
    """Bit vector of a c-child vertex whose child graph is the path 1-2-...-c."""
    bits = np.zeros(c * (c - 1) // 2, np.uint8)
    bits[[pair_index(i, i + 1, c) for i in range(1, c)]] = 1
    return bits


def test_free_path_of_512_children():
    # the root is free, so its child graph runs the BFS: 511 hops
    bits = _path_bits(512)

    def path():
        m = NetworkModel(HierarchyShape(512, [[512]]), LinkTable([bits], [[len(bits)]]))
        assert validate(m) == []
        return m

    m = path()
    h = an.distance_distribution(m)
    assert h.as_dict() == {k: 512 - k for k in range(1, 512)}
    assert h.unreachable == 0
    assert an.diameter(m) == 511
    assert an.component_sizes(m) == [512]
    # point queries on the free root walk the path through its set bits
    assert an.distance(m, 1, 512) == 511
    assert an.distance(m, 1, 3) == 2
    # the shared scan answers the same whichever reader fills it
    m = path()
    assert an.component_sizes(m) == [512]
    assert an.distance_distribution(m) == h


def test_exited_path_of_512_children():
    # the same path as level-1 cluster 1, linked by the root to a lone node:
    # every unlinked pair takes the two-step detour through that node
    bits = _path_bits(512)
    m = NetworkModel(
        HierarchyShape(512, [[512, 1], [2]]),
        LinkTable([bits, [1]], [[len(bits), 0], [1]]),
    )
    assert validate(m) == []
    h = an.distance_distribution(m)
    assert h.as_dict() == {1: 1023, 2: 130305}
    assert h.unreachable == 0
    assert an.diameter(m) == 2
    assert an.component_sizes(m) == [513]
    g = oracle.expand(m)
    assert (h.as_dict(), h.unreachable) == g.bf_distance_histogram()
    assert an.component_sizes(m) == g.bf_components()


# -- every child graph of two to four children --------------------------------


def _every_small_child_graph(root_bits: str):
    """Three levels: level 2 holds each bit code of c = 2, 3 and 4 children once.

    Its 2 + 8 + 64 clusters hold 284 level-1 clusters of 1 to 3 nodes (581
    in all) with seeded random sizes and bits, so the weights differ from
    code to code: with equal weights every code's histogram would add into
    the same sum however the codes were read.  One root links the 74 by
    `root_bits`.
    """
    counts, vectors = [], []
    for c in (2, 3, 4):
        k = c * (c - 1) // 2
        for code in range(1 << k):
            counts.append(c)
            vectors.append("".join(str(code >> bit & 1) for bit in range(k)))
    rng = np.random.default_rng(19)
    sizes = rng.integers(1, 4, sum(counts)).tolist()
    leaves = ["".join(map(str, rng.integers(0, 2, s * (s - 1) // 2))) for s in sizes]
    return build_model(74, [sizes, counts, [74]], [leaves, vectors, [root_bits]])


_ROOT_BITS = {
    # every cluster free, so each reads its distances, reach and groups by code
    "free": "0" * 2701,
    # every cluster exited, distances 1 and 2 read off its bits
    "exited": "1" * 2701,
    # the root links its even children only: free and exited clusters in each block
    "mixed": "".join("1" if a % 2 == b % 2 == 0 else "0" for a, b in combinations(range(74), 2)),
}


@pytest.mark.parametrize("kind", list(_ROOT_BITS))
def test_every_small_child_graph_matches_the_oracle(kind):
    m = _every_small_child_graph(_ROOT_BITS[kind])
    assert validate(m) == []
    g = oracle.expand(m)
    h = an.distance_distribution(m)
    assert (h.as_dict(), h.unreachable) == g.bf_distance_histogram()
    assert an.component_sizes(m) == g.bf_components()
    assert an.diameter(m) == g.bf_diameter()


def test_every_small_child_graph_as_a_forest():
    # one root per network: each root's row takes its own unreachable bucket
    models = [_every_small_child_graph(bits) for bits in _ROOT_BITS.values()]
    forest = ensemble._forest(74, models)
    hists = ensemble.PROPERTY_TABLE["distance-dist"](forest)
    assert hists == [{**h.as_dict(), "unreachable": h.unreachable}
                     for h in map(an.distance_distribution, models)]
    assert ensemble.PROPERTY_TABLE["diameter"](forest) == [an.diameter(m) for m in models]
    assert ensemble.PROPERTY_TABLE["components"](forest) == \
        [dict(sorted(Counter(an.component_sizes(m)).items())) for m in models]
    assert [h["unreachable"] > 0 for h in hists] == [True, False, True]


def _every_level_one_code():
    """Three levels: level 1 holds each bit code of c = 1, 2, 3 and 4 one-node children once.

    Its 1 + 2 + 8 + 64 = 75 clusters (285 nodes) come in a seeded shuffle,
    so every level-2 cluster mixes child counts and codes; the 12 level-2
    clusters (1 to 11 children) and the root carry seeded random bits, so
    the node passes bring non-zero steps down into every level-1 block.
    """
    codes = [(c, code) for c in (1, 2, 3, 4) for code in range(1 << c * (c - 1) // 2)]
    rng = np.random.default_rng(21)
    codes = [codes[i] for i in rng.permutation(len(codes))]
    counts = [*range(1, 12), 9]
    vectors = [
        ["".join(str(code >> bit & 1) for bit in range(c * (c - 1) // 2)) for c, code in codes],
        ["".join(map(str, rng.integers(0, 2, c * (c - 1) // 2))) for c in counts],
        ["".join(map(str, rng.integers(0, 2, 66)))],
    ]
    return build_model(12, [[c for c, _ in codes], counts, [12]], vectors)


@pytest.mark.parametrize("int64_safe", [40_000, 0])
def test_every_level_one_code_matches_the_oracle(int64_safe, monkeypatch):
    # level-1 blocks of c <= 4 read their pattern counts and node steps by code
    monkeypatch.setattr(an, "_INT64_SAFE_NODES", int64_safe)
    m = _every_level_one_code()
    assert validate(m) == [] and m.shape.n == 285
    g = oracle.expand(m)
    assert an.wedge_count(m) == g.bf_wedges()
    assert an.triangle_count(m) == g.bf_triangles()
    assert an.four_cycle_count(m) == g.bf_four_cycles()
    assert an.node_degrees(m).tolist() == g.bf_degrees().tolist()
    assert an.triangles_at_all_nodes(m).tolist() == [g.bf_triangles_at(x) for x in range(1, 286)]
    level1 = an.cluster_aggregates(m)[0]
    for c, sel, _, V, B in an._level_groups(m, 1):
        zero = np.zeros_like(V)
        want = an._merge_children(an._adjacency(B, c), V, zero, zero, zero, zero)
        assert [a[sel].tolist() for a in (level1.p2, level1.c3, level1.c4)] == \
            [w.tolist() for w in want]
    if not int64_safe:
        for a in (level1.p2, level1.c3, level1.c4):
            assert a.dtype == object and {type(x) for x in a} == {int}


def test_code_tables_are_shared_and_read_only():
    # every model reads the same cached tables, so a write into one would corrupt the next
    an._code_table.cache_clear()
    m = _every_level_one_code()
    an.four_cycle_count(m), an.node_degrees(m), an.diameter(m)
    # every pass reads c = 2..4: a one-child cluster takes its child's values
    info = an._code_table.cache_info()
    assert info.currsize == 9 and info.maxsize == 3 * an._CODE_CHILDREN
    for kernel in (an._merge_children, an._node_steps, an._child_graphs):
        for c in range(1, an._CODE_CHILDREN + 1):
            for t in an._code_table(kernel, c):
                assert t.shape[-1] == 1 << c * (c - 1) // 2 <= 64
                with pytest.raises(ValueError, match="read-only"):
                    t[...] = 0


def _arrays(value) -> list[np.ndarray]:
    """Every array in a cached pass result: an array, or tuples and lists of them."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for part in value for a in _arrays(part)]


def test_every_cached_pass_is_read_only():
    # a write into a cached result would change every later read of the model
    params = GenParams(mode="by-nodes", p=3, mu=0.5, seed=7, n=243)
    copies = [generate_network(params, stream=s) for s in (1, 2, 3)]
    for m in (generate_network(params), ensemble._forest(3, copies)):
        _every_property(m)
        passes = (an._edge_levels, an._pattern_roots, an._node_counts, an._free_scan)
        assert set(m._passes) == set(passes)
        an.node_degrees(m)  # the per-node arrays, on request
        assert set(m._passes) == {*passes, an._per_node_passes}
        arrays = _arrays(list(m._passes.values()))  # the node counts among them
        assert len(arrays) > 12 and not any(a.flags.writeable for a in arrays)


# -- point queries on wide random child graphs -------------------------------


@pytest.mark.parametrize("p,mu", [(16, 0.3), (16, 0.8), (40, 0.3), (40, 0.8)])
def test_point_queries_on_wide_child_graphs_match_the_oracle(p, mu, monkeypatch):
    m = generate_network(GenParams(mode="by-nodes", p=p, mu=mu, seed=20260822, n=240))
    g = oracle.expand(m)
    nodes = range(1, m.shape.n + 1)
    assert [an.node_degree(m, x) for x in nodes] == g.bf_degrees().tolist()
    assert [an.triangles_at_node(m, x) for x in nodes] == [g.bf_triangles_at(x) for x in nodes]
    assert [an.clustering_coefficient(m, x) for x in nodes] == [g.bf_clustering(x) for x in nodes]
    # every pair, with the child-graph searches that saw a set bit recorded
    searched = []
    hops = an._hops

    def spy(vec, c, a, b):
        d = hops(vec, c, a, b)
        if 1 in vec:
            searched.append(d)
        return d

    monkeypatch.setattr(an, "_hops", spy)
    dist = g.bf_all_distances()
    want = [None if d < 0 else d for d in dist[np.triu_indices(m.shape.n, k=1)].tolist()]
    assert [an.distance(m, x, y) for x in nodes for y in nodes[x:]] == want
    assert any(d is not None for d in searched)
    # wider child graphs than the acceptance corpus's p <= 8
    assert max(int(c.max()) for c in m.shape._counts) > 8


# -- distance engine vs per-pair recomputation -------------------------------


@given(st.integers(0, 10**5))
@settings(max_examples=25, deadline=None)
def test_distribution_agrees_with_pointwise_distance(seed):
    m = generate_network(GenParams(mode="by-nodes", p=4, mu=0.8, seed=seed, n=24))
    n = m.shape.n
    hist: dict[int, int] = {}
    unreachable = 0
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            d = an.distance(m, x, y)
            if d is None:
                unreachable += 1
            else:
                hist[d] = hist.get(d, 0) + 1
    h = an.distance_distribution(m)
    assert h.as_dict() == hist
    assert h.unreachable == unreachable


def test_read_only_outputs(demo9):
    with pytest.raises(ValueError):
        an.node_degrees(demo9)[0] = 99
