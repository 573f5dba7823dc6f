"""Tree-traversal statistics of block-hierarchical networks.

Everything here is computed on the node-link tree itself; adjacency is
never expanded.  The key fact is that a set bit joins two sub-clusters
completely, node by node, so any small pattern (edge, wedge, triangle,
four-cycle) decomposes by how it straddles the children of a vertex, and
each count obeys an exact bottom-up recurrence over per-cluster aggregates
(nodes, edges, wedges, triangles, four-cycles).

The model is checked once, by `core.checked_model` where the first climb
or pass reaches it (a generated, stacked or loaded one is trusted as
built); past that gate every climb and pass reads the shape's and the
link table's private arrays, with no level or offset check.

The bottom-up pass comes in two tiers, each cached on the model.  The
edge tier (`_edge_levels`) reads the bits and the child sizes only: it
starts from level 0, the nodes, which hold no edge, and a cluster's
edges are its children's plus V_i * V_j per set bit, exact int64 on
every level.  `edge_count`, the per-node climbs (`triangles_at_node`,
`clustering_coefficient`) and the all-node passes (`node_degrees`,
`triangles_at_all_nodes`, `degree_distribution`, `clustering_values`) read
it alone.  The pattern tier (`cluster_aggregates`) adds wedges, triangles
and four-cycles over the edge tier's E, through the contractions below;
only `wedge_count`, `triangle_count` and `four_cycle_count` pay for it.
`node_degree` and `distance` read neither tier.

Every pass walks a level in row blocks of clusters sharing a child count
c, the same blocks for a model and for a forest.  `_level_groups` is the
one reader of a block's layout: it gathers the children's indices, their
node counts V (level 0 is the nodes, one each) and the block's bits B,
one column per cluster, once for every pass.  The edge tier reads B as it
lies and the distance scan reads its exited distances off it; every other
pass builds one (c, c, rows) int64 tensor A of 0/1 child adjacency from
B, holding 2**16 entries at most, or one cluster's c**2 past 2**8
children, so a pass keeps a bounded working set however wide the level.
The size trades memory against Python overhead: larger blocks raise the
peak of deep, narrow levels (2**20 entries held 116508 three-child
clusters a block), smaller ones pay more per-block calls on wide child
graphs.

Where a block's outputs depend on its bits alone, c <= 4 children build
no A: `_code_table` runs a pass's kernel once on all 2**C(c, 2) graphs of
c one-node children, for every model, and each cluster takes its column
at its little-endian bit code (`_code`).  The distance scan reads c <= 4
blocks so on every level, the pattern tier and the node passes on level 1.

With V the children's node counts and dV = diag(V), three
contractions of A give every per-level term: A.X (sums over linked
siblings: W = A.V, WE = A.E, A.V**2, A.C(V,2)); diag(A.dV.A.dV.A) (each
child's weighted triangles with two linked siblings, both orders); and
tr((A.dV)**4), whose closed 4-walks minus those revisiting a child are
eight times the four-child rings (the short-cycle trace identities of
Alon, Yuster and Zwick).  Each is one np.einsum sum of products, a single
loop over the block on int64 and on object values alike; the walk matrix
K = A.dV.A is built once per block and feeds both the triangle and the
ring term.

Per-node quantities follow from one leaf-to-root climb, `core.node_climb`;
each climbed cluster's bits are read once, as bytes, and `_linked` lists
the children linked to the chain child, each bit placed by
`core.pair_offset`.  Whole-network distributions come from one top-down
descent, `_descend`, whose steps are the node passes and the distance
scan.  Pairs with the same (lowest common cluster, child, child) share one
distance, weighted in the histogram by the two subtree sizes.  A cluster
that some ancestor links sideways ("exited") gives its children distance
1 where their bit is set and 2 elsewhere, read off the bits with no
search; the scan runs a batched BFS on the child graphs of the free
clusters only, at O(c**3) per hop, and its one cached result serves the
histogram, the diameter and the components.  A distance query reads the
direct bit of the lowest common cluster, climbs on to the first ancestor
that links the chain sideways (distance 2), and only when there is none
runs a BFS over `_linked` in that one child graph: O(gamma * p + p**2),
with no whole-network pass.

The whole-network passes accept a root level of k >= 1 clusters: a forest
of k copies side by side, which an ensemble builds to run each pass once
for many small copies.  Every cached result already holds one value per
root, in root order: the top level of `_level_values`, and the distance
scan's histogram row and component array.  `_root_counts` bins each root's
slice of the per-node passes' D and T in chunks of nodes, so nothing past
those two arrays is N long.  `ensemble.PROPERTY_TABLE` reads them all as
they lie.  Other models have one root, and the public functions read root 0.

Aggregate arithmetic is exact.  Edges stay below C(2**27, 2) < 2**53, so
the edge tier is int64 throughout.  Pattern levels whose largest cluster
holds at most 40000 nodes run vectorised int64: every product is bounded by
(sum V)**4 <= 40000**4 < 2**63.  Bigger levels switch to object arrays of
Python ints, which only the top few vertices of a deep tree ever reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    MAX_CHILDREN,
    ClusterRef,
    NetworkModel,
    _climb_above,
    checked_cluster,
    checked_model,
    checked_node,
    node_climb,
    pair_offset,
)

__all__ = [
    "ClusterAggregates",
    "Histogram",
    "cluster_aggregates",
    "node_degree",
    "node_degrees",
    "degree_distribution",
    "edge_count",
    "wedge_count",
    "triangle_count",
    "four_cycle_count",
    "triangles_at_node",
    "triangles_at_all_nodes",
    "clustering_coefficient",
    "clustering_values",
    "distance",
    "distance_distribution",
    "diameter",
    "component_sizes",
]

_INT64_SAFE_NODES = 40_000
# entries of a row block's (c, c, rows) tensor past one cluster's c**2; nodes binned at once
_BLOCK_ENTRIES = 1 << 16
_CODE_CHILDREN = 4  # blocks of at most 4 children, 2**6 child graphs, read by code


@dataclass(frozen=True)
class ClusterAggregates:
    """Per-cluster pattern counts for one level, arrays indexed by cluster.

    v: nodes covered; e: edges; p2: wedges (unordered 2-edge paths);
    c3: triangles; c4: four-cycles (distinct 4-edge cycle subgraphs).
    dtype is int64 or object (exact Python ints) per the module contract.
    """

    v: np.ndarray
    e: np.ndarray
    p2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray


@dataclass(frozen=True)
class Histogram:
    """Sorted (value, count) pairs; `unreachable` holds disconnected pairs."""

    counts: tuple[tuple[int, int], ...]
    unreachable: int = 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts) + self.unreachable


def _comb2(x):
    return x * (x - 1) // 2


# -- child-graph tensors -----------------------------------------------------
#
# Block arrays are children-first: the adjacency A is (c, c, rows) and a
# per-child value is (c, rows), so the row index r runs innermost and
# contiguous in every contraction below.


def _level_groups(model: NetworkModel, g: int):
    """Yield (c, sel, idx, V, B) row blocks of level-g clusters with c children.

    `sel` are 0-based cluster indices with count c, at most
    _BLOCK_ENTRIES // c**2 of them and at least one; `idx` is the
    (c, len(sel)) matrix of their children's 0-based indices in level g-1,
    V the children's node counts (int64, laid out like idx) and B the
    clusters' bits, (c(c-1)/2, len(sel)) uint8 in pair order.
    """
    sizes, starts, _ = model.shape._derived()
    counts, starts, sizes = model.shape._counts[g - 1], starts[g - 1], sizes[g - 1]
    flat, offsets = model.links._flat[g - 1], model.links._starts[g - 1]
    # counts are at most MAX_CHILDREN, so a bincount finds them in one pass
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        rows = max(1, _BLOCK_ENTRIES // (c * c))
        every = np.nonzero(counts == c)[0]
        pairs = np.arange(c * (c - 1) // 2)[:, None]
        for lo in range(0, len(every), rows):
            sel = every[lo:lo + rows]
            idx = np.arange(c, dtype=np.int64)[:, None] + starts[sel]
            yield c, sel, idx, sizes[idx], flat[pairs + offsets[sel]]


def _adjacency(B: np.ndarray, c: int) -> np.ndarray:
    """(c, c, rows) symmetric 0/1 int64 child adjacency of a block's bits B."""
    A = np.zeros((c, c, B.shape[1]), np.int64)
    iu, ju = _child_pairs(c)
    A[iu, ju] = B
    A[ju, iu] = B
    return A


def _child_pairs(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each child pair i < j, in the bit order of `pair_offset`."""
    return np.nonzero(np.arange(c)[:, None] < np.arange(c))


def _code(B: np.ndarray) -> np.ndarray:
    """Each cluster's bits B read as one little-endian code: its column in `_code_table`."""
    return (1 << np.arange(len(B))) @ B


@lru_cache(maxsize=3 * _CODE_CHILDREN)
def _code_table(kernel, c: int) -> tuple[np.ndarray, ...]:
    """`kernel`'s arrays on every graph of c one-node children, column k of code k; read-only.

    It gets `_merge_children`'s arguments: A, V ones, and zero E, P2, C3, C4.
    """
    k = c * (c - 1) // 2
    V = np.ones((c, 1 << k), np.int64)
    Z = V - 1
    table = kernel(_adjacency(np.arange(1 << k) >> np.arange(k)[:, None] & 1, c), V, Z, Z, Z, Z)
    for t in table:
        t.flags.writeable = False
    return table


# The contractions, exact on int64 and on object values.  A is (c, c, rows)
# int64, V is (c, rows) and X is (k, c, rows); S = sum V over a cluster.


def _link_sums(A, X):
    """A.X per row: each child's sums of X over its linked siblings."""
    return np.einsum("ijr,kjr->kir", A, X)


def _walks(A, V):
    """K = A.dV.A per row, the weighted two-step walks; each K_ij <= S."""
    return np.einsum("ikr,kr,kjr->ijr", A, V, A)


def _triangle_walks(K, V, A):
    """diag(A.dV.A.dV.A) = diag(K.dV.A) per row; each entry <= S**2."""
    return np.einsum("ijr,jr,ijr->ir", K, V, A)


def _ring_walks(K, V):
    """tr((A.dV)**4) = sum_ij V_i K_ij**2 V_j per row; <= S**4."""
    return np.einsum("ir,ijr,ijr,jr->r", V, K, K, V)


# -- bottom-up passes: the edge tier, then the pattern tier ------------------


def _edge_levels(model: NetworkModel) -> tuple[np.ndarray, ...]:
    """Edges inside every cluster, one read-only int64 array per level from 0.

    The edge tier: a node holds none, one shared broadcast of N zeros;
    level 1 counts each cluster's set bits; every level above sums its
    children's edges, then adds V_i * V_j for every set bit of a row block,
    read off its bits B with no adjacency tensor.  E < C(2**27, 2) < 2**53,
    so int64 is exact on every level.  Cached on the model.
    """
    if model._edges is None:
        shape, links = checked_model(model).shape, model.links
        out = [np.broadcast_to(np.int64(0), (shape.n,))]
        for g, starts in enumerate(shape._derived()[1], start=1):
            if g == 1:
                # a level-1 child is one node, so a cluster's edges are its set bits
                has = shape._counts[0] > 1
                E = np.zeros(len(has), np.int64)
                E[has] = np.add.reduceat(links._flat[0], links._starts[0][has], dtype=np.int64)
            else:
                E = np.add.reduceat(E, starts)
                for c, sel, _, V, B in _level_groups(model, g):
                    if c < 2:
                        continue
                    iu, ju = _child_pairs(c)
                    E[sel] += (B * V[iu] * V[ju]).sum(axis=0)
            E.flags.writeable = False
            out.append(E)
        model._edges = tuple(out)
    return model._edges


def cluster_aggregates(model: NetworkModel) -> tuple[ClusterAggregates, ...]:
    """The pattern tier: wedges, triangles and four-cycles of every level over the edge tier's E.

    Bottom-up, one entry per internal level; cached on the model.
    """
    if model._aggregates is not None:
        return model._aggregates
    edges = _edge_levels(model)  # checks the model first
    out: list[ClusterAggregates] = []
    prev = ClusterAggregates(*(edges[0],) * 5)  # the nodes: N read-only zeros
    for g, E in enumerate(edges[1:], start=1):
        V = model.shape._derived()[0][g]
        # casting int64 to object gives exact Python ints, immune to wraparound
        dtype = object if len(V) and int(V.max()) > _INT64_SAFE_NODES else np.int64
        V, E = V.astype(dtype, copy=False), E.astype(dtype, copy=False)
        P2, C3, C4 = np.zeros((3, len(V)), dtype)
        for c, sel, idx, Vm, B in _level_groups(model, g):
            if g == 1 and c <= _CODE_CHILDREN:
                code = _code(B)
                P2[sel], C3[sel], C4[sel] = (t.take(code) for t in _code_table(_merge_children, c))
                continue
            inputs = (Vm, prev.e[idx], prev.p2[idx], prev.c3[idx], prev.c4[idx])
            P2[sel], C3[sel], C4[sel] = _merge_children(
                _adjacency(B, c), *(a.astype(dtype, copy=False) for a in inputs))
        prev = ClusterAggregates(v=V, e=E, p2=P2, c3=C3, c4=C4)
        out.append(prev)
    model._aggregates = tuple(out)
    return model._aggregates


def _merge_children(A, V, E, P2, C3, C4):
    """One level of the pattern recurrences, vectorised over a row block.

    Columns are clusters sharing child count c, rows their children; E are
    the children's edges from the edge tier.  Each term mirrors one way a
    pattern can straddle the children, using that a set bit joins two
    children completely:

      wedges     child wedges, plus centre-in-a-child arms (2*Ei*Wi: an
                 internal edge extended sideways) and V*C(W,2) (both arms
                 crossing out of the centre's child);
      triangles  child triangles, plus edge-with-apex (Ei*Wi) and one node
                 in each of three mutually linked children (tri / 6);
      4-cycles   child cycles; two-children terms (wedge plus apex, two
                 disjoint internal edges, pure bipartite quad); bowtie
                 (C(Vi,2) times the linked sibling pairs, (W**2 - A.V**2)/2)
                 and edge-with-two-apexes (Ei*tri) across three children;
                 one node in each of four children, the ring term.

    With S = sum V <= 40000 on int64 rows, every product here and every
    row sum stays below 2 * S**4 < 2**63.
    """
    c = A.shape[0]
    V2 = V * V
    C2V = _comb2(V)
    W, WE, AV2, AC2V = _link_sums(A, np.stack([V, E, V2, C2V]))
    WW = W * W
    # a triangle needs three children and a ring four, so smaller blocks skip them
    tri = rings = 0
    if c >= 3:
        K = _walks(A, V)
        tri = _triangle_walks(K, V, A)  # E*tri <= S**4 / 2
        if c >= 4:
            # sum V**2*A.V**2 <= S**4; 2*sum V**2*W**2 <= 2*S**4
            rings = (_ring_walks(K, V) + (V2 * AV2).sum(axis=0) - 2 * (V2 * WW).sum(axis=0)) // 8
        del K
    # the bowtie weight, in place: C(V,2) of the linked siblings plus their
    # pairs, weighted Vj*Vk and counted twice (W**2 - A.V**2 <= S**2)
    WW -= AV2
    WW += AC2V
    p2 = P2.sum(axis=0) + (2 * E * W + V * _comb2(W)).sum(axis=0)
    c3 = C3.sum(axis=0) + (E * W).sum(axis=0) + (V * tri).sum(axis=0) // 6
    c4 = (
        C4.sum(axis=0)
        + (P2 * W + E * WE + E * tri).sum(axis=0)
        + (C2V * WW).sum(axis=0) // 2
        + rings
    )
    return p2, c3, c4


# -- whole-network and per-cluster counts ------------------------------------


def _level_values(model: NetworkModel, field: str) -> tuple[np.ndarray, ...]:
    """Aggregate `field` ("e", "p2", "c3" or "c4") of every level from 0; a node holds none."""
    edges = _edge_levels(model)
    if field == "e":
        return edges
    return (edges[0], *(getattr(a, field) for a in cluster_aggregates(model)))


def _agg_value(model: NetworkModel, cluster: ClusterRef | None, field: str) -> int:
    if cluster is None:
        cluster = ClusterRef(model.shape.gamma, 1)  # the root; node 1 when gamma is 0
    g, i = checked_cluster(checked_model(model).shape, cluster.gamma, cluster.index)
    return int(_level_values(model, field)[g][i - 1])


def edge_count(model: NetworkModel, cluster: ClusterRef | None = None) -> int:
    """Edges inside a cluster's induced graph; whole network when cluster is None."""
    return _agg_value(model, cluster, "e")


def wedge_count(model: NetworkModel, cluster: ClusterRef | None = None) -> int:
    """Unordered 2-edge paths inside a cluster; equals sum of C(degree, 2)."""
    return _agg_value(model, cluster, "p2")


def triangle_count(model: NetworkModel, cluster: ClusterRef | None = None) -> int:
    """Triangles inside a cluster's induced graph."""
    return _agg_value(model, cluster, "c3")


def four_cycle_count(model: NetworkModel, cluster: ClusterRef | None = None) -> int:
    """Distinct 4-edge cycle subgraphs inside a cluster's induced graph."""
    return _agg_value(model, cluster, "c4")


# -- per-node climbs ---------------------------------------------------------


def _linked(vec: bytes, c: int, a: int) -> list[int]:
    """The children linked to child a of a c-child cluster with bits `vec`, 0-based, in order."""
    return [s for s in range(c)
            if s != a and vec[pair_offset(a, s, c) if a < s else pair_offset(s, a, c)]]


def _linked_levels(model: NetworkModel, climb):
    """The levels of a `node_climb` whose chain child has linked siblings.

    Yields (g, lo, c, vec, v, sibs) as the climb numbers them: vec the
    cluster's bits as bytes, v its c children's node counts, sibs `_linked`.
    """
    for g, _, lo, a, c, off in climb:
        vec = model.links._flat[g - 1][off:off + c * (c - 1) // 2].tobytes()
        sibs = _linked(vec, c, a)
        if sibs:
            v = model.shape._derived()[0][g - 1][lo:lo + c].tolist()
            yield g, lo, c, vec, v, sibs


def node_degree(model: NetworkModel, x: int) -> int:
    """Degree of node x, by one leaf-to-root climb over its chain; needs no aggregates."""
    return sum(v[s] for *_, v, sibs in _linked_levels(model, node_climb(model, x)) for s in sibs)


def _chain_triangles(model: NetworkModel, x: int) -> tuple[int, int]:
    """(degree, triangles through node x), accumulated level by level along its chain.

    At each level the new triangles either use a linked sibling's internal
    edge as the far side, pair one linked sibling node with the degree
    already accumulated below, or take one node from each of two siblings
    that are linked to the chain child and to each other.
    """
    total = deg = 0
    for g, lo, c, vec, v, sibs in _linked_levels(model, node_climb(model, x)):
        e = _edge_levels(model)[g - 1][lo:lo + c].tolist()
        w = sum(v[s] for s in sibs)
        tri = 0
        for n, j in enumerate(sibs[:-1]):
            tri += v[j] * sum(v[k] for k in sibs[n + 1:] if vec[pair_offset(j, k, c)])
        total += sum(e[s] for s in sibs) + deg * w + tri
        deg += w
    return deg, total


def triangles_at_node(model: NetworkModel, x: int) -> int:
    """Triangles through node x, by one leaf-to-root climb over its chain."""
    return _chain_triangles(model, x)[1]


def clustering_coefficient(model: NetworkModel, x: int) -> float:
    """2 * triangles_at_node / (d * (d - 1)); 0 by convention when d < 2."""
    return float(_clustering(*np.array(_chain_triangles(model, x))))


# -- vectorised all-node passes ----------------------------------------------


def _descend(model: NetworkModel, step, *dtypes) -> list[np.ndarray]:
    """One accumulator per dtype, zero on every root, carried down to the nodes.

    Every row block of `_level_groups`, top-down, hands its clusters' values
    to `step(g, c, sel, idx, V, B, *parents)`, which returns its children's.
    """
    sizes = model.shape._derived()[0]
    acc = [np.zeros(len(sizes[-1]), t) for t in dtypes]
    for g in range(len(sizes) - 1, 0, -1):
        below = [np.empty(len(sizes[g - 1]), t) for t in dtypes]
        for c, sel, idx, V, B in _level_groups(model, g):
            for a, x in zip(below, step(g, c, sel, idx, V, B, *(a[sel] for a in acc))):
                a[idx] = x
        acc = below
    return acc


def _per_node_passes(model: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """(degrees, triangles through each node) for all nodes, by one `_descend`.

    Carries two per-chain accumulators down the tree: the degree, and twice
    the flat terms (linked siblings' edges plus the two-sibling products,
    half the triangle walks) less the sum of squared per-level degree
    increments.  Triangles then follow from (deg**2 + that) / 2, because
    the cross products of increments from two different levels are exactly
    the degree-times-new-weight terms; T is built in F's own buffer.
    V <= N <= 2**27 and the edge tier's E < 2**53, so the walks (<= N**2),
    the squares and twice the edges fit int64.
    """
    if model._node_passes is not None:
        return model._node_passes
    edges = _edge_levels(model)  # checks the model first

    def step(g, c, sel, idx, V, B, F, D):
        if g == 1 and c <= _CODE_CHILDREN:
            code = _code(B)
            dF, dD = (t.take(code, -1) for t in _code_table(_node_steps, c))
        else:
            dF, dD = _node_steps(_adjacency(B, c), V, edges[g - 1][idx])
        return F + dF, D + dD

    F, D = _descend(model, step, np.int64, np.int64)
    T = F  # T = (D**2 + F) / 2 in F's buffer, D squared a chunk at a time
    for lo in range(0, len(D), _BLOCK_ENTRIES):
        d, t = D[lo:lo + _BLOCK_ENTRIES], T[lo:lo + _BLOCK_ENTRIES]
        np.floor_divide(d * d + t, 2, out=t)
    D.flags.writeable = False
    T.flags.writeable = False
    model._node_passes = (D, T)
    return model._node_passes


def _node_steps(A, V, E, *_):
    """(F increment, degree increment W) of each child of a block, for `_per_node_passes`."""
    W, WE = _link_sums(A, np.stack([V, E]))
    tri = _triangle_walks(_walks(A, V), V, A) if A.shape[0] >= 3 else 0
    return 2 * WE + tri - W * W, W


def node_degrees(model: NetworkModel) -> np.ndarray:
    """Degrees of every node, in node order (int64, read-only view)."""
    return _per_node_passes(model)[0]


def triangles_at_all_nodes(model: NetworkModel) -> np.ndarray:
    """Triangles through every node, in node order (int64, read-only view)."""
    return _per_node_passes(model)[1]


def degree_distribution(model: NetworkModel) -> Histogram:
    """(degree, node count) pairs, degree ascending, counted chunk by chunk."""
    return Histogram(tuple(_items(_root_counts(model, "degree")[0])))


def clustering_values(model: NetworkModel) -> np.ndarray:
    """Clustering coefficients in node order (float64, 0 where d < 2); bins share `_clustering`."""
    return _clustering(*_per_node_passes(model))


def _clustering(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2t / (d(d - 1)) elementwise for degrees d and triangles t (float64); 0 where d < 2."""
    denom = d.astype(np.float64) * (d - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d >= 2, 2.0 * t / np.where(denom > 0, denom, 1.0), 0.0)


# -- distances ---------------------------------------------------------------


def _hops(vec: bytes, c: int, a: int, b: int) -> int | None:
    """Hops from child a to child b of a c-child cluster with bits `vec`; None if apart.

    A breadth-first search reading each child's `_linked` once, O(c**2) bits.
    """
    if 1 not in vec:
        return None
    hops, queue = {a: 0}, [a]
    for s in queue:
        for t in _linked(vec, c, s):
            if t not in hops:
                hops[t] = hops[s] + 1
                queue.append(t)
    return hops.get(b)


def distance(model: NetworkModel, x: int, y: int) -> int | None:
    """Exact hop distance between two nodes; None when they are disconnected.

    The lowest cluster containing both nodes decides everything: a direct
    bit between their child positions is distance 1; otherwise the answer
    is the shorter of the child-graph path (whole children act as single
    hops, since cross links are complete) and a two-step detour through any
    ancestor-linked outside cluster, which wins whenever it exists.  The
    climb of x goes on above that cluster to look for such an ancestor
    before the child graph is searched.
    """
    shape = checked_model(model).shape
    x, y = checked_node(shape, x), checked_node(shape, y)
    if x == y:
        return 0
    _, starts, cums = shape._derived()
    ix, iy = x - 1, y - 1  # the chain positions at the level below g
    for g, cum in enumerate(cums, start=1):
        cx, cy = cum.searchsorted((x, y)).tolist()
        if cx == cy:
            break
        ix, iy = cx, cy
    lo, c = int(starts[g - 1][cx]), int(shape._counts[g - 1][cx])
    off = int(model.links._starts[g - 1][cx])
    vec = model.links._flat[g - 1][off:off + c * (c - 1) // 2].tobytes()
    a, b = ix - lo, iy - lo
    if vec[pair_offset(a, b, c) if a < b else pair_offset(b, a, c)]:
        return 1
    if next(_linked_levels(model, _climb_above(model, x, g, cx)), None):
        return 2
    return _hops(vec, c, a, b)


def _child_graphs(A: np.ndarray, *_):
    """(exits, pair distances, reach, group leads) of the child graphs of a block's clusters.

    The oracle's frontier expansion (`ExpandedGraph.bf_all_distances`) run
    on every cluster of the block at once, each hop one batched product,
    O(rows * c**3).  exits flags each child with a linked sibling; the
    distances come in pair order like B, -1 where apart; R[i, j] when child
    j is reachable from child i; a lead flag marks the first child of each
    group of two or more linked children.
    """
    c = A.shape[0]
    # numpy's boolean matmul skips BLAS; float32 products count at most
    # c <= 2**10 paths per entry, so they are exact and the test > 0 is too
    adj = np.ascontiguousarray(np.moveaxis(A, -1, 0), np.float32)
    reach = np.broadcast_to(np.eye(c, dtype=bool), adj.shape).copy()
    dist = np.zeros(adj.shape, np.int64)
    d = 0
    while True:
        grown = reach | (reach.astype(np.float32) @ adj > 0)
        new = grown & ~reach
        if not new.any():
            break
        d += 1
        dist[new] = d
        reach = grown
    dist = np.where(reach, dist, -1).transpose(1, 2, 0)
    R = dist >= 0
    iu, ju = _child_pairs(c)
    lead = (R.argmax(axis=1) == np.arange(c)[:, None]) & (R.sum(axis=1) >= 2)
    return A.any(axis=1), dist[iu, ju], R, lead


def _free_scan(model: NetworkModel):
    """(distance histograms, component sizes) of every root, by one `_descend`.

    It carries the exited flags down: a cluster is exited when its parent
    is, or when it has a linked sibling.  The histogram weights each child
    pair by the product of its two subtree sizes; the weights sum to at most
    C(N, 2) < 2**53, so every partial sum of a block's float64 bincount is
    an exact integer.  Exited clusters take distances 1 and 2 from their
    bits.  Free clusters run the child-graph BFS, and its reach also names
    the components: linked children of a cluster none of whose ancestors
    link it further form one component, counted at the group's first
    child, and a node whose whole chain stays unlinked is one on its own.
    A block of c <= 4 children reads all of it off `_code_table` by code.

    Row r of the (roots, MAX_CHILDREN + 1) histogram counts root r's pairs
    by distance, its last bucket the unreachable ones; the component sizes
    come as one descending array per root, both cached on the model.  Only
    the root count forks the scan: a forest's blocks add into their roots'
    rows by a flat offset and sort sizes per root.  One root skips that
    lookup and the lexsort, which made regular gamma=13's scan 22% slower.
    """
    if model._free_scan is not None:
        return model._free_scan
    shape = checked_model(model).shape
    ends = _root_ends(shape)
    roots = len(ends)
    # child-graph distances run 1 .. MAX_CHILDREN - 1, so the last bucket
    # is free to collect the unreachable pairs
    width = MAX_CHILDREN + 1
    hist = np.zeros(roots * width, np.int64)
    groups: list[np.ndarray] = []
    group_roots: list[np.ndarray] = []

    def step(g, c, sel, idx, V, B, ex):
        nonlocal hist
        if c < 2:
            return (ex,)
        free = np.nonzero(~ex)[0]
        if c <= _CODE_CHILDREN:
            code = _code(B)
            table = _code_table(_child_graphs, c)
            exits = table[0].take(code, 1)
            pair_d, R, lead = (t.take(code[free], -1) for t in table[1:])
        else:
            A = _adjacency(B, c)
            exits, (_, pair_d, R, lead) = A.any(axis=1), _child_graphs(A[:, :, free])
        d = 2 - B.astype(np.int64)  # exited: 1 where linked, 2 through the outside
        d[:, free] = pair_d
        d[d < 0] = width - 1
        groups.append((R * V[:, free]).sum(axis=1)[lead])
        if roots > 1:
            root = ends.searchsorted(shape._derived()[2][g - 1][sel])
            group_roots.append(np.broadcast_to(root[free], lead.shape)[lead])
            d += root * width  # each pair counts in its own root's row
        iu, ju = _child_pairs(c)
        # exact: partial sums are integers <= C(MAX_NODES, 2) < 2**53, pinned in test_core
        hist += np.bincount(d.ravel(), (V[iu] * V[ju]).ravel(), len(hist)).astype(np.int64)
        return (ex | exits,)

    lone = ~_descend(model, step, bool)[0]  # the nodes whose whole chain stays unlinked
    groups.append(np.ones(int(lone.sum()), np.int64))
    sizes = np.concatenate(groups)
    if roots == 1:
        sizes[::-1].sort()
        per_root = [sizes]
    else:
        group_roots.append(ends.searchsorted(np.flatnonzero(lone) + 1))
        owner = np.concatenate(group_roots)
        sizes = sizes[np.lexsort((-sizes, owner))]
        per_root = np.split(sizes, np.cumsum(np.bincount(owner, minlength=roots))[:-1])
    model._free_scan = (hist.reshape(roots, width), per_root)
    return model._free_scan


def _diameter(row: np.ndarray) -> int:
    """Largest finite distance of a scan histogram row; 0 when no pair is connected."""
    return int(np.flatnonzero(row[:-1]).max(initial=0))


def distance_distribution(model: NetworkModel) -> Histogram:
    """Histogram over all N(N-1)/2 node pairs, disconnected ones bucketed apart."""
    row = _free_scan(model)[0][0]
    return Histogram(tuple(_items(row[:-1])), unreachable=int(row[-1]))


def diameter(model: NetworkModel) -> int:
    """Largest finite pairwise distance; 0 when no pair is connected."""
    return _diameter(_free_scan(model)[0][0])


def component_sizes(model: NetworkModel) -> list[int]:
    """Connected component sizes, descending."""
    return _free_scan(model)[1][0].tolist()


# -- per root: one value per root of a forest, in root order; a model has one


def _root_ends(shape) -> np.ndarray:
    """One past the last node of each root, 0-based: a forest's copy offsets."""
    return shape._derived()[2][-1] if shape.gamma else np.ones(1, np.int64)


def _root_counts(model: NetworkModel, kind: str) -> list[np.ndarray]:
    """Per root, its nodes counted by degree ("degree") or by clustering bin, from 0.

    The 101 clustering bins are floor(100 * `_clustering` + 1e-9).
    `np.bincount` copies its whole input, so it reads _BLOCK_ENTRIES nodes
    at a time, each binned at its root's offset: one call per chunk.
    """
    D, T = _per_node_passes(model)
    ends = _root_ends(model.shape)
    if kind == "degree":
        widths = np.maximum.reduceat(D, np.r_[0, ends[:-1]]) + 1
    else:
        widths = np.full(len(ends), 101)
    offsets = np.cumsum(widths) - widths
    counts = np.zeros(int(widths.sum()), np.int64)
    for lo in range(0, len(D), _BLOCK_ENTRIES):
        d, t = D[lo:lo + _BLOCK_ENTRIES], T[lo:lo + _BLOCK_ENTRIES]
        b = d if kind == "degree" else np.floor(_clustering(d, t) * 100 + 1e-9).astype(np.int64)
        if len(ends) > 1:
            b = b + offsets[ends.searchsorted(np.arange(lo, lo + len(b)), side="right")]
        add = np.bincount(b)
        counts[:len(add)] += add
    return np.split(counts, offsets[1:])


def _items(counts: np.ndarray) -> list[tuple[int, int]]:
    """(index, count) of every nonzero entry of a count array, index ascending."""
    keys = np.flatnonzero(counts)
    return list(zip(keys.tolist(), counts[keys].tolist()))
