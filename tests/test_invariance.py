"""Child-order invariance: an exactness check of any size.

Reordering the children of a vertex, with its bits carried along to the
pairs' new positions, gives the same graph with its nodes relabelled.
So every whole-network statistic must stay as it is and every per-node
value must follow the node map, far past the brute-force oracle's cap
and on random networks, where the closed-form families are too
symmetric to show an error in pair order, in a bit gather or in a
block offset.
"""

import numpy as np
import pytest

import hiernet.analytics as an
import hiernet.ensemble as ensemble
from hiernet import oracle
from hiernet.core import HierarchyShape, LinkTable, NetworkModel, pair_offset, validate
from hiernet.ensemble import PROPERTIES, PROPERTY_TABLE, compute_properties
from hiernet.gen import GenParams, generate_network


def permute_children(model: NetworkModel, rng):
    """(the model with the children of every vertex in a random order, node map, cluster maps).

    Draws one permutation per vertex and rebuilds the levels top-down, each
    level's clusters in their parents' new orders, and moves each bit to the
    pair of its two children's new positions.  The roots keep their order.
    `node_map[x - 1]` is the new number of node x, and `olds[g][j]` the old
    0-based index of new cluster j of level g, from 0 (the nodes) up.
    """
    shape, flat, offsets = model.shape, model.links._flat, model.links._starts
    starts = shape._derived()[1]
    old = np.arange(len(shape._counts[-1]))  # the old index of each new cluster
    counts, flats, olds = [], [], [old]
    for g in range(shape.gamma, 0, -1):
        c = shape._counts[g - 1][old]
        first = np.cumsum(c) - c  # each parent's first child slot
        parent = np.repeat(np.arange(len(c)), c)
        rank = np.arange(len(parent)) - first[parent]
        # a random order within each parent: pos[t] is the old position of the child in slot t
        pos = rank[np.lexsort((rng.random(len(parent)), parent))]
        nbits = c * (c - 1) // 2
        bit_first = np.cumsum(nbits) - nbits
        src = np.empty(int(nbits.sum()), np.int64)  # the old flat index of each new bit
        for k in np.unique(c[c > 1]).tolist():
            sel = np.flatnonzero(c == k)
            P = pos[first[sel][:, None] + np.arange(k)]
            iu, ju = np.nonzero(np.arange(k)[:, None] < np.arange(k))  # pair order
            a, b = np.minimum(P[:, iu], P[:, ju]), np.maximum(P[:, iu], P[:, ju])
            src[bit_first[sel][:, None] + np.arange(len(iu))] = \
                offsets[g - 1][old[sel]][:, None] + pair_offset(a, b, k)
        counts.append(c)
        flats.append(flat[g - 1][src])
        old = starts[g - 1][old][parent] + pos
        olds.append(old)
    node_map = np.empty(shape.n, np.int64)
    node_map[old] = np.arange(1, shape.n + 1)
    for levels in (counts, flats, olds):
        levels.reverse()
    permuted = NetworkModel(HierarchyShape(shape.p, counts),
                            LinkTable(flats, [c * (c - 1) // 2 for c in counts]))
    return permuted, node_map, olds


@pytest.mark.parametrize("params", [
    GenParams(mode="regular", p=3, mu=0.3, seed=5, gamma=5),
    GenParams(mode="by-nodes", p=7, mu=0.3, seed=5, n=400),
])
def test_permute_children_relabels_the_expanded_graph(params):
    m = generate_network(params)
    pm, node_map, _ = permute_children(m, np.random.default_rng(5))
    assert validate(pm) == [] and not np.array_equal(node_map, np.arange(1, m.shape.n + 1))
    # new node node_map[x - 1] has exactly the neighbours of old node x, renumbered
    assert np.array_equal(oracle.expand(pm).adj[np.ix_(node_map - 1, node_map - 1)],
                          oracle.expand(m).adj)


def _properties(model: NetworkModel) -> dict:
    return {**compute_properties(model, PROPERTIES), "wedges": an.wedge_count(model)}


@pytest.mark.parametrize("params, int64_safe", [
    # 177147 nodes: the top levels run on object arrays
    (GenParams(mode="regular", p=3, mu=0.5, seed=20261019, gamma=11), an._INT64_SAFE_NODES),
    (GenParams(mode="by-nodes", p=16, mu=0.5, seed=20261019, n=50_000), an._INT64_SAFE_NODES),
    # every pattern level on object arrays, level 1 read off the shared code tables
    (GenParams(mode="by-nodes", p=4, mu=0.5, seed=20261019, n=50_000), 0),
], ids=["regular-p3-g11", "nodes-p16-n50000", "nodes-p4-n50000-object"])
def test_reordered_children_relabel_the_nodes(params, int64_safe, monkeypatch):
    monkeypatch.setattr(an, "_INT64_SAFE_NODES", int64_safe)
    rng = np.random.default_rng(20261019)
    m = generate_network(params)
    pm, node_map, olds = permute_children(m, rng)
    assert pm.shape.n == m.shape.n > 5000
    assert pm != m and sorted(node_map.tolist()) == list(range(1, m.shape.n + 1))
    assert _properties(pm) == _properties(m)
    # every cluster's aggregates at its new place
    for field in ("e", "p2", "c3", "c4"):
        levels, moved = an._level_values(m, field), an._level_values(pm, field)
        assert len(levels) == len(olds) == m.shape.gamma + 1
        for g, old in enumerate(olds):
            assert np.array_equal(moved[g], levels[g][old]), (field, g)
    if not int64_safe:
        assert all(a.c4.dtype == object for a in an.cluster_aggregates(pm))
    for f in (an.node_degrees, an.triangles_at_all_nodes):
        assert np.array_equal(f(pm)[node_map - 1], f(m))
    xs, ys = rng.integers(1, m.shape.n + 1, (2, 200)).tolist()
    for x, y in zip(xs, ys):
        nx, ny = node_map[[x - 1, y - 1]].tolist()
        assert an.distance(pm, nx, ny) == an.distance(m, x, y)
        assert an.node_degree(pm, nx) == an.node_degree(m, x)
        assert an.triangles_at_node(pm, nx) == an.triangles_at_node(m, x)


def test_a_forest_of_reordered_copies_reads_back_each_copy():
    rng = np.random.default_rng(20261019)
    params = GenParams(mode="by-nodes", p=3, mu=0.8, seed=20261019, n=19683)
    models = [generate_network(params, stream=c) for c in range(1, 4)]
    forest = ensemble._forest(3, [permute_children(m, rng)[0] for m in models])
    for name, values in PROPERTY_TABLE.items():
        assert values(forest) == [compute_properties(m, [name])[name] for m in models], name
