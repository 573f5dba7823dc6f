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

Five whole-network passes are cached, each through one primitive,
`_cached`: the edge tier's levels, the pattern tier's top level
(`_pattern_roots`), the node counts (`_node_counts`, each root's nodes
counted by degree and by clustering bin), the distance scan (`_free_scan`)
and, only when asked for, the per-node arrays (`_per_node_passes`).  A
model's first read of a pass runs it and keeps its result, a tuple of
arrays, on the model, every array read-only, so no reader can change what
a later one sees.  The node counts and the scan's histogram count per
root through one primitive too, `_add_counts`.

The bottom-up pass is one driver, `_ascend`, with two tiers as its steps;
each keeps what its readers use.  The edge tier (`_edge_levels`) reads the
bits and the child sizes only: it starts from level 0, the nodes, which
hold no edge, and a cluster's edges are its children's plus V_i * V_j per
set bit, exact int64 on every level.  It keeps every level, because
`edge_count`, the per-node climbs (`triangles_at_node`,
`clustering_coefficient`) and the all-node passes (`node_degrees`,
`triangles_at_all_nodes`, `degree_distribution`, `clustering_values`) read
it there.  The pattern tier (`_patterns`) adds wedges, triangles and
four-cycles over the edge tier's E, through the contractions below; only
`wedge_count`, `triangle_count` and `four_cycle_count` pay for it.  Every
whole-network reader reads its top level alone, so that level, one value
per root, is what is cached.  `cluster_aggregates`, and the counts of a
`ClusterRef` below the top, run the tier again keeping every level, and
cache nothing.  `node_degree` and `distance` read neither tier.

Every pass walks a level in row blocks of clusters sharing a child count
c, the same blocks for a model and for a forest; the two drivers,
`_ascend` bottom-up and `_descend` top-down, copy a one-child cluster's
values between it and its child themselves, so no step sees c = 1.
`_level_groups` is the one reader of a block's layout: it gathers the
children's indices, their node counts V (level 0 is the nodes, one each),
widened from the shape's int32 to int64 as they are gathered, and the
block's bits B, one column per cluster, once for every pass.  The edge
tier reads B as it lies and the distance scan reads its exited distances
off it; every other pass builds one (c, c, rows) int64 tensor A of 0/1
child adjacency from B, holding 2**16 entries at most, or one cluster's
c**2 past 2**8 children, so a pass keeps a bounded working set however
wide the level.  The size trades memory against Python overhead: larger
blocks raise the peak of deep, narrow levels (2**20 entries held 116508
three-child clusters a block), smaller ones pay more per-block calls on
wide child graphs.

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

Per-node quantities follow from one leaf-to-root climb, `core.node_climb`:
one search of the shape's joined leaf cums finds the node's cluster on
every level, and one gather per joined array reads all their child starts,
counts and bit offsets.  Each climbed cluster's bits are read once, as
bytes, and `_linked` lists the children linked to the chain child through
a cached table of (sibling, offset) pairs per (c, a), `_sibling_bits`.
Whole-network distributions come from one top-down descent, `_descend`,
whose steps are the node passes and the distance scan.  Its last level
hands each block of nodes to a consumer instead of scattering it into
arrays N long: the node counts bin the block at once, only
`node_degrees`, `triangles_at_all_nodes` and `clustering_values` scatter
it, and the scan, which needs nothing of a node, ignores it.  Pairs with
the same (lowest common cluster, child, child) share one distance,
weighted in the histogram by the two subtree sizes.  A cluster that some
ancestor links sideways ("exited") gives its children distance 1 where
their bit is set and 2 elsewhere, read off the bits with no search; the
scan runs a batched BFS on the child graphs of the free clusters only, at
O(c**3) per hop, and its one cached result serves the histogram, the
diameter and the components.  A distance query finds both
nodes' chains with one search of 2 * gamma needles, O(gamma log M) over M
clusters; the lowest common cluster is the first level where they agree.
It reads that cluster's direct bit, continues x's climb from the positions
already found to the first ancestor that links the chain sideways
(distance 2), and only when there is none runs a BFS in that one child
graph: O(gamma * (log M + p) + p**2), with no whole-network pass.

The whole-network passes accept a root level of k >= 1 clusters: a forest
of k copies side by side, which an ensemble builds to run each pass once
for many small copies.  Every cached result already holds its values per
root, in root order: the two tiers' top levels (`_edge_levels(model)[-1]`
and `_pattern_roots`), one value a root; the node counts' and the scan
histogram's rows, each only as wide as the largest value met; the lone
nodes, one count a root; and the component sizes, three flat arrays of
root, size and count.  Each root's clusters form one run on every level,
and a block finds its clusters' roots by a search of those runs' ends
(`_root_ends`), k per level: a model, whose every cluster has root 0,
takes the same path as a forest.  `PROPERTY_TABLE`, at the end of this
module, is the one reader of the node counts and the scan: it reads the
four passes as they lie for the ensemble and the CLI, which read no pass
themselves, and builds each histogram in the key order every report
writes; no property it lists builds or keeps an array as long as N, the
components of a sparse network included, which come back counted by
size.  Other models have one root, and `degree_distribution`,
`distance_distribution`, `diameter` and `component_sizes` return root 0
of the table's entry.

Aggregate arithmetic is exact.  Edges stay below C(2**27, 2) < 2**53, so
the edge tier is int64 throughout.  Pattern levels whose largest cluster
holds at most 40000 nodes run vectorised int64: every product is bounded by
(sum V)**4 <= 40000**4 < 2**63.  Bigger levels switch to object arrays of
Python ints, which only the top few vertices of a deep tree ever reach.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .core import (
    ClusterRef,
    NetworkModel,
    _chain,
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
# entries of a row block's (c, c, rows) tensor past one cluster's c**2, which also
# bounds the nodes of a level-1 block that the descent's last level bins at once
_BLOCK_ENTRIES = 1 << 16
_CODE_CHILDREN = 4  # blocks of at most 4 children, 2**6 child graphs, read by code


@dataclass(frozen=True)
class ClusterAggregates:
    """Per-cluster pattern counts for one level, arrays indexed by cluster.

    v: nodes covered; e: edges; p2: wedges (unordered 2-edge paths);
    c3: triangles; c4: four-cycles (distinct 4-edge cycle subgraphs).
    dtype is int64 or object (exact Python ints) per the module contract,
    except v on int64 levels: the shape's own read-only int32 sizes.
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
    V the children's node counts (laid out like idx, widened once here from
    the shape's int32 to int64) and B the clusters' bits, (c(c-1)/2,
    len(sel)) uint8 in pair order.
    """
    d = model.shape._derived()
    counts, starts, sizes = model.shape._counts[g - 1], d.starts[g - 1], d.sizes[g - 1]
    flat, offsets = model.links._flat[g - 1], model.links._starts[g - 1]
    # counts are at most MAX_CHILDREN, so a bincount finds them in one pass; a
    # level of one count, as every level of a regular network is, needs none
    least, most = counts.min(), counts.max()
    for c in [int(most)] if least == most else np.flatnonzero(np.bincount(counts)).tolist():
        rows = max(1, _BLOCK_ENTRIES // (c * c))
        every = np.nonzero(counts == c)[0]
        pairs = np.arange(c * (c - 1) // 2)[:, None]
        for lo in range(0, len(every), rows):
            sel = every[lo:lo + rows]
            idx = np.arange(c, dtype=np.int64)[:, None] + starts[sel]
            yield c, sel, idx, sizes[idx].astype(np.int64), flat[pairs + offsets[sel]]


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


def _by_code(kernel, c: int, code: np.ndarray) -> list[np.ndarray]:
    """`kernel`'s values on a block of c <= 4 children: its `_code_table` columns at `code`."""
    return [t.take(code, -1) for t in _code_table(kernel, c)]


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


def _cached(build):
    """`build`, a whole-network pass, as a reader that runs it once per model.

    The first read of a model vets it (`checked_model`), runs the pass,
    makes every array of the result, a tuple of arrays, read-only, and
    keeps it in the model's `_passes` under the reader; later reads return
    it as it lies.  The values are deterministic, so a racing recomputation
    by concurrent readers is harmless.
    """

    @wraps(build)
    def read(model: NetworkModel):
        out = model._passes.get(read)
        if out is None:
            out = build(checked_model(model))
            for a in out:
                a.flags.writeable = False
            model._passes[read] = out
        return out

    return read


def _ascend(model: NetworkModel, step, *nodes, keep: bool = False, exact: bool = False):
    """Per-cluster arrays carried up from the nodes' values `nodes`, level by level.

    Every row block of `_level_groups`, bottom-up, hands the whole level
    below to `step(g, c, sel, idx, V, B, *below)`, which gathers its
    children at idx and returns its clusters' values, scattered at sel; a
    one-child cluster takes its child's values with no step.  A level keeps
    the dtype of the one below, but with `exact` a level whose largest
    cluster holds more than _INT64_SAFE_NODES nodes, and so every level
    above it, holds object arrays of Python ints, and the level below is
    handed over cast to them.  Returns each kind's levels from 0 with
    `keep`, else only the top level's arrays, one value per root.
    """
    sizes = model.shape._derived().sizes
    levels = [nodes]
    for g in range(1, len(sizes)):
        below = levels[-1]
        if exact and int(sizes[g].max(initial=0)) > _INT64_SAFE_NODES:
            below = [a.astype(object, copy=False) for a in below]
        out = [np.empty(len(sizes[g]), a.dtype) for a in below]
        for c, sel, idx, V, B in _level_groups(model, g):
            vals = [b[idx[0]] for b in below] if c == 1 else step(g, c, sel, idx, V, B, *below)
            for a, x in zip(out, vals):
                a[sel] = x
        levels = [*levels, out] if keep else [out]
    return tuple(zip(*levels)) if keep else tuple(levels[-1])


@_cached
def _edge_levels(model: NetworkModel) -> tuple[np.ndarray, ...]:
    """Edges inside every cluster, one read-only int64 array per level from 0.

    The edge tier, one `_ascend` that keeps every level: a node holds none,
    one shared broadcast of N zeros, and a cluster's edges are its
    children's plus V_i * V_j for every set bit, read off its bits B with no
    adjacency tensor.  E < C(2**27, 2) < 2**53, so int64 is exact on every
    level.
    """

    def step(g, c, sel, idx, V, B, E):
        if g == 1:  # one-node children: a cluster's edges are its set bits
            return (B.sum(axis=0, dtype=np.int64),)
        iu, ju = _child_pairs(c)
        return (E[idx].sum(axis=0) + (B * V[iu] * V[ju]).sum(axis=0),)

    nodes = np.broadcast_to(np.int64(0), (model.shape.n,))
    return _ascend(model, step, nodes, keep=True)[0]


def _patterns(model: NetworkModel, keep: bool = False) -> tuple:
    """The pattern tier: (P2, C3, C4), wedges, triangles and four-cycles over the edge tier's E.

    One `_ascend` on exact levels; level-1 blocks of c <= 4 children read
    `_merge_children`'s `_code_table`.  Every level from 0 with `keep`,
    else the top level only.
    """
    edges = _edge_levels(model)  # checks the model first

    def step(g, c, sel, idx, V, B, P2, C3, C4):
        if g == 1 and c <= _CODE_CHILDREN:
            return _by_code(_merge_children, c, _code(B))
        V, E = (a.astype(P2.dtype, copy=False) for a in (V, edges[g - 1][idx]))
        return _merge_children(_adjacency(B, c), V, E, P2[idx], C3[idx], C4[idx])

    return _ascend(model, step, *(edges[0],) * 3, keep=keep, exact=True)


def cluster_aggregates(model: NetworkModel) -> tuple[ClusterAggregates, ...]:
    """Nodes, edges, wedges, triangles and four-cycles of every cluster, one entry per level from 1.

    The edge tier's levels, and the pattern tier run again keeping every
    level: only the top level is cached, since every whole-network reader
    reads that alone, so each call pays for one pattern pass.  Exact
    (object) levels carry V and E as Python ints too; int64 levels hold the
    shape's own read-only int32 sizes.
    """
    edges = _edge_levels(model)  # checks the model first
    levels = zip(model.shape._derived().sizes, edges, *_patterns(model, keep=True))
    out = []
    for v, e, *counts in list(levels)[1:]:
        exact = counts[0].dtype == object
        out.append(ClusterAggregates(*(a.astype(object) if exact else a for a in (v, e)), *counts))
    return tuple(out)


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


_PATTERN_FIELDS = ("p2", "c3", "c4")


_pattern_roots = _cached(_patterns)  # the pattern tier's top level, (P2, C3, C4) per root


def _agg_value(model: NetworkModel, cluster: ClusterRef | None, field: str) -> int:
    if cluster is None:
        cluster = ClusterRef(model.shape.gamma, 1)  # the root; node 1 when gamma is 0
    g, i = checked_cluster(checked_model(model).shape, cluster.gamma, cluster.index)
    if field == "e":
        return int(_edge_levels(model)[g][i - 1])
    k = _PATTERN_FIELDS.index(field)
    if g == model.shape.gamma:
        return int(_pattern_roots(model)[k][i - 1])
    # below the top: the pattern tier again, every level kept, uncached
    return int(_patterns(model, keep=True)[k][g][i - 1])


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


@lru_cache(maxsize=1 << 8)
def _sibling_bits(c: int, a: int) -> tuple[tuple[int, int], ...]:
    """(sibling, offset of its pair with a) for each other child of a c-child cluster, in order.

    Each entry holds c - 1 pairs: at c = MAX_CHILDREN one takes at most
    116 KB (1023 pairs, most of their ints past the small-int cache), so
    the 256 entries hold at most 30 MB; the 136 (c, a) keys of c <= 16, all
    of a p=16 network's, take 92 KB together.
    """
    return tuple((s, pair_offset(a, s, c) if a < s else pair_offset(s, a, c))
                 for s in range(c) if s != a)


def _linked(vec: bytes, c: int, a: int) -> list[int]:
    """The children linked to child a of a c-child cluster with bits `vec`, 0-based, in order."""
    return [s for s, k in _sibling_bits(c, a) if vec[k]]


def _linked_levels(model: NetworkModel, climb):
    """The levels of a `node_climb` whose chain child has linked siblings.

    Yields (g, lo, c, vec, v, sibs) as the climb numbers them: vec the
    cluster's bits as bytes, v its c children's node counts, sibs `_linked`.
    """
    flat, sizes = model.links._flat, model.shape._derived().sizes
    for g, _, lo, a, c, off in climb:
        vec = flat[g - 1][off:off + c * (c - 1) // 2].tobytes()
        sibs = _linked(vec, c, a)
        if sibs:
            yield g, lo, c, vec, sizes[g - 1][lo:lo + c].tolist(), sibs


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
    climb = node_climb(model, x)  # vets the model and x before the edge tier is built
    edges = _edge_levels(model)
    for g, lo, c, vec, v, sibs in _linked_levels(model, climb):
        e = edges[g - 1][lo:lo + c].tolist()
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


def _descend(model: NetworkModel, step, last, *dtypes) -> None:
    """One accumulator per dtype, zero on every root, carried down to the nodes.

    Every row block of `_level_groups`, top-down, hands its clusters' values
    to `step(g, c, sel, idx, V, B, *parents)`, which returns its children's;
    a one-child cluster hands its values to its child with no step.  The
    levels above 1 scatter their children's values into arrays one level
    long; level 1 hands each block to `last(idx, *values)` instead, its
    children's 0-based node indices and values, so no array is as long as N
    unless `last` builds one.  A network of one node hands its root.
    """
    sizes = model.shape._derived().sizes
    acc = [np.zeros(len(sizes[-1]), t) for t in dtypes]
    if len(sizes) == 1:
        last(np.zeros((1, 1), np.int64), *acc)
    for g in range(len(sizes) - 1, 0, -1):
        below = [np.empty(len(sizes[g - 1]), t) for t in dtypes] if g > 1 else []
        put = _scatter(below) if g > 1 else last
        for c, sel, idx, V, B in _level_groups(model, g):
            up = [a[sel] for a in acc]
            put(idx, *(up if c == 1 else step(g, c, sel, idx, V, B, *up)))
        acc = below


def _scatter(arrays: list[np.ndarray]):
    """A `_descend` consumer that writes each block's values into `arrays` at its indices."""

    def put(idx, *values):
        for a, x in zip(arrays, values):
            a[idx] = x

    return put


def _node_descent(model: NetworkModel, last) -> None:
    """The node passes, one `_descend`: `last(idx, D, T)` gets each level-1 block's nodes.

    D are the nodes' degrees and T the triangles through them.  The descent
    carries two per-chain accumulators down the tree: the degree, and F,
    twice the flat terms (linked siblings' edges plus the two-sibling
    products, half the triangle walks) less the sum of squared per-level
    degree increments.  Triangles then follow from (D**2 + F) / 2, because
    the cross products of increments from two different levels are exactly
    the degree-times-new-weight terms.  V <= N <= 2**27 and the edge tier's
    E < 2**53, so the walks (<= N**2), the squares and twice the edges fit
    int64.
    """
    edges = _edge_levels(model)

    def step(g, c, sel, idx, V, B, F, D):
        if g == 1 and c <= _CODE_CHILDREN:
            dF, dD = _by_code(_node_steps, c, _code(B))
        else:
            dF, dD = _node_steps(_adjacency(B, c), V, edges[g - 1][idx])
        return F + dF, D + dD

    _descend(model, step, lambda idx, F, D: last(idx, D, (D * D + F) // 2), np.int64, np.int64)


@_cached
def _per_node_passes(model: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """(degrees, triangles through each node) in node order: `_node_descent` scattered."""
    out = [np.empty(model.shape.n, np.int64) for _ in range(2)]
    _node_descent(model, _scatter(out))
    return tuple(out)


@_cached
def _node_counts(model: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Per root, its nodes counted by degree and by clustering bin: two (roots, width) arrays.

    One `_node_descent` bins each level-1 block's nodes as it reaches them,
    at their roots' rows, through `_add_counts`, so no array is as long as
    N.  The clustering bins, 0 to 100, are floor(100 * `_clustering`), in
    exact integers: (200 t) // (d (d - 1)), 0 where d < 2 (t is 0 there
    too); t < 2**53 keeps 200 t below 2**61.  Both arrays start one bin
    wide, so a root holds only as many bins as the largest value met.
    """
    ends = _root_ends(model.shape)[0]
    counts = [np.zeros((len(ends), 1), np.int64) for _ in range(2)]

    def count(idx, D, T):
        root = ends.searchsorted(idx[0], side="right")  # each cluster's root holds its first node
        for k, b in enumerate((D, 200 * T // np.maximum(D * (D - 1), 1))):
            counts[k] = _add_counts(counts[k], root, b)

    _node_descent(model, count)
    return tuple(counts)


def _add_counts(counts: np.ndarray, root: np.ndarray, bins: np.ndarray, weights=None) -> np.ndarray:
    """(roots, width) int64 `counts` plus a block's bins, each cluster's at its root's row.

    `bins` is (k, rows) for the block's rows, whose roots `root` ascend, so
    one bincount spans their rows alone; `weights`, flat like `bins`, count
    each entry that many times instead of once.  A weighted bincount sums in
    float64, which the callers keep exact: every partial sum is an integer
    below 2**53.  A bin past the width first widens every row, at least
    twofold; the grown array is returned.
    """
    width = counts.shape[1]
    top = int(bins.max())
    if top >= width:
        counts = np.pad(counts, ((0, 0), (0, max(top + 1, 2 * width) - width)))
        width = counts.shape[1]
    lo = int(root[0]) * width
    add = np.bincount((bins + (root - root[0]) * width).ravel(), weights)
    counts.reshape(-1)[lo:lo + len(add)] += add.astype(np.int64, copy=False)
    return counts


def _node_steps(A, V, E, *_):
    """(F increment, degree increment W) of each child of a block, for `_node_descent`."""
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
    """(degree, node count) pairs, degree ascending, counted block by block as the descent runs."""
    return Histogram(tuple(PROPERTY_TABLE["degree-dist"](model)[0].items()))


def clustering_values(model: NetworkModel) -> np.ndarray:
    """Clustering coefficients in node order (float64, 0 where d < 2).

    The clustering distribution does not read them: `_node_counts` bins in exact integers.
    """
    return _clustering(*_per_node_passes(model))


def _clustering(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2t / (d(d - 1)) elementwise for degrees d and triangles t (float64); 0 where d < 2."""
    denom = d.astype(np.float64) * (d - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d >= 2, 2.0 * t / np.where(denom > 0, denom, 1.0), 0.0)


# -- distances ---------------------------------------------------------------


def _hops(vec: bytes, c: int, a: int, b: int) -> int | None:
    """Hops from child a to child b of a c-child cluster with bits `vec`; None if apart.

    A breadth-first search over neighbour lists read off the bits once, row
    by row: child s's pairs with s+1 .. c-1 are the next c-1-s bits.  It
    does not read `_linked`: a child graph wider than `_sibling_bits`' 256
    entries would rebuild a table for every child it reaches.
    """
    if 1 not in vec:
        return None
    nbrs: list[list[int]] = [[] for _ in range(c)]
    end = 0
    for s in range(c - 1):
        lo, end = end, end + c - 1 - s
        k = vec.find(1, lo, end)
        while k >= 0:
            t = s + 1 + k - lo
            nbrs[s].append(t)
            nbrs[t].append(s)
            k = vec.find(1, k + 1, end)
    hops, queue = {a: 0}, [a]
    for s in queue:
        for t in nbrs[s]:
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
    ancestor-linked outside cluster, which wins whenever it exists.  One
    search finds both chains; x's climb goes on above that cluster from
    the positions found, to look for such an ancestor before the child
    graph is searched.
    """
    shape = checked_model(model).shape
    x, y = checked_node(shape, x), checked_node(shape, y)
    if x == y:
        return 0
    pos = _chain(shape, [[x], [y]])  # one search: a row of positions per node
    px, py = pos.tolist()
    # the chains part below the lowest common cluster and agree from it up
    g = sum(map(operator.ne, px, py)) + 1
    if g == 1:
        ix, iy = x - 1, y - 1
    else:  # the two chains' clusters one level below, as indices within that level
        base = shape._derived().base[g - 2]
        ix, iy = px[g - 2] - base, py[g - 2] - base
    climb = _climb_above(model, pos[0], g - 1, ix)
    _, _, lo, a, c, off = next(climb)
    vec = model.links._flat[g - 1][off:off + c * (c - 1) // 2].tobytes()
    b = iy - lo
    if vec[pair_offset(a, b, c) if a < b else pair_offset(b, a, c)]:
        return 1
    if next(_linked_levels(model, climb), None):
        return 2
    return _hops(vec, c, a, b)


def _child_graphs(A: np.ndarray, *_):
    """(exits, pair distances, reach, group leads) of the child graphs of a block's clusters.

    The oracle's frontier expansion (`ExpandedGraph.bf_all_distances`) run
    on every cluster of the block at once, each hop one batched product,
    O(rows * c**3).  exits flags each child with a linked sibling; the
    distances come in pair order like B, 0 where apart; R[i, j] when child
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
    R = reach.transpose(1, 2, 0)
    iu, ju = _child_pairs(c)
    lead = (R.argmax(axis=1) == np.arange(c)[:, None]) & (R.sum(axis=1) >= 2)
    return A.any(axis=1), dist.transpose(1, 2, 0)[iu, ju], R, lead


@_cached
def _free_scan(model: NetworkModel):
    """(distance histograms, lone nodes, and each group size's root, size, count) by one `_descend`.

    It carries the exited flags down: a cluster is exited when its parent
    is, or when it has a linked sibling.  Exited clusters take distances 1
    and 2 from their bits.  Free clusters run the child-graph BFS, and its
    reach also names the components: linked children of a cluster none of
    whose ancestors link it further form one component, counted at the
    group's first child.  A block of c <= 4 children reads all of it off
    `_code_table` by code.  The scan needs nothing of a node, so `_descend`
    hands its last level to a consumer that does nothing.

    Every block finds its clusters' roots in `_root_ends` (on a model each
    is 0), so a model and a forest take the one path.  Row r of the (roots,
    width) histogram counts root r's pairs by distance, through
    `_add_counts` weighted by the product of the pair's two subtree sizes;
    the weights sum to at most C(N, 2) < 2**53, so every partial sum is
    exact.  Two distinct nodes are never at distance 0, so bucket 0 holds
    the unreachable pairs.  Each linked group is keyed root * (N + 1) +
    size, int64, and one np.unique gives the component sizes of every
    root, ascending, and their counts, as three flat arrays in root order.
    Every node that is not alone lies in exactly one group, the one at the
    top free cluster of its chain, so a root's lone nodes, its size-1
    components, are its node count less the sizes times the counts of its
    groups.
    """
    n = model.shape.n
    ends = _root_ends(model.shape)
    hist = np.zeros((len(ends[-1]), 1), np.int64)
    keys = [np.zeros(0, np.int64)]  # root * (N + 1) + size of each linked group

    def step(g, c, sel, idx, V, B, ex):
        nonlocal hist
        free = np.nonzero(~ex)[0]
        if c <= _CODE_CHILDREN:
            code = _code(B)
            exits = _code_table(_child_graphs, c)[0].take(code, 1)
            _, pair_d, R, lead = _by_code(_child_graphs, c, code[free])
        else:
            A = _adjacency(B, c)
            exits, (_, pair_d, R, lead) = A.any(axis=1), _child_graphs(A[:, :, free])
        root = ends[g].searchsorted(sel, side="right")
        d = 2 - B.astype(np.int64)  # exited: 1 where linked, 2 through the outside
        d[:, free] = pair_d
        keys.append(((R * V[:, free]).sum(axis=1) + root[free] * (n + 1))[lead])
        iu, ju = _child_pairs(c)
        # exact: partial sums are integers <= C(MAX_NODES, 2) < 2**53, pinned in test_core
        hist = _add_counts(hist, root, d, (V[iu] * V[ju]).ravel())
        return (ex | exits,)

    _descend(model, step, lambda *_: None, bool)
    keys, count = np.unique(np.concatenate(keys), return_counts=True)
    root, size = np.divmod(keys, n + 1)
    linked = np.bincount(root, size * count, len(hist)).astype(np.int64)  # exact: at most N
    lone = model.shape._derived().sizes[-1] - linked
    return hist, lone, root, size, count


def distance_distribution(model: NetworkModel) -> Histogram:
    """Histogram over all N(N-1)/2 node pairs, disconnected ones bucketed apart."""
    counts = PROPERTY_TABLE["distance-dist"](model)[0]
    unreachable = counts.pop(_UNREACHABLE)
    return Histogram(tuple(counts.items()), unreachable)


def diameter(model: NetworkModel) -> int:
    """Largest finite pairwise distance; 0 when no pair is connected."""
    return PROPERTY_TABLE["diameter"](model)[0]


def component_sizes(model: NetworkModel) -> list[int]:
    """Connected component sizes, descending."""
    counts = PROPERTY_TABLE["components"](model)[0]
    return [size for size, k in reversed(counts.items()) for _ in range(k)]


# -- per root: one value per root of a forest, in root order; a model has one


def _root_ends(shape) -> list[np.ndarray]:
    """Per level from 0, one past each root's last cluster there: k ints a level, [n_g] on a model.

    A forest lays its copies side by side, so each root's clusters form one
    run on every level: a run ends where the next root's first child starts.
    """
    d = shape._derived()
    ends = [np.arange(1, len(d.sizes[-1]) + 1)]
    for starts, below in zip(d.starts[::-1], d.sizes[-2::-1]):
        ends.insert(0, np.append(starts[ends[0][:-1]], len(below)))
    return ends


def _fill(out: list[dict], row: np.ndarray, key: np.ndarray, n: np.ndarray) -> list[dict]:
    """`out`, one dict a root, with each n[i] set at key[i] of dict row[i], in order."""
    for i, k, x in zip(row.tolist(), key.tolist(), n.tolist()):
        out[i][k] = x
    return out


def _rows(counts: np.ndarray, lo: int = 0) -> list[dict[int, int]]:
    """Each row's {column: count} of its nonzero entries from column lo on, column ascending."""
    r, k = np.nonzero(counts[:, lo:])
    return _fill([{} for _ in counts], r, k + lo, counts[r, k + lo])


_UNREACHABLE = "unreachable"


# every network property, in report order: a function of a model giving a
# list of one int or histogram dict per root, read straight off the cached
# passes, so a model gives one value and a forest of copies one per copy.
# A histogram's keys come in ascending numeric order, the unreachable
# bucket last; the emitters write them as they lie.
PROPERTY_TABLE = {
    "edges": lambda model: _edge_levels(model)[-1].tolist(),
    "c3": lambda model: _pattern_roots(model)[1].tolist(),
    "c4": lambda model: _pattern_roots(model)[2].tolist(),
    "degree-dist": lambda model: _rows(_node_counts(model)[0]),
    "distance-dist": lambda model: [
        {**row, _UNREACHABLE: n}
        for row, n in zip(_rows(_free_scan(model)[0], 1), _free_scan(model)[0][:, 0].tolist())
    ],
    # size ascending: a root's lone nodes are its size-1 components
    "components": lambda model: _fill(
        [{1: k} if k else {} for k in _free_scan(model)[1].tolist()], *_free_scan(model)[2:]
    ),
    "diameter": lambda model: [max(row, default=0) for row in _rows(_free_scan(model)[0], 1)],
    "clustering-dist": lambda model: [
        {f"{b / 100:.2f}": n for b, n in row.items()} for row in _rows(_node_counts(model)[1])
    ],
}
