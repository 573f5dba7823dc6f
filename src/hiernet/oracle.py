"""Brute-force verification oracle over the expanded adjacency matrix.

The tree-traversal engine must never materialise edges, so correctness
checks need an independent reference that does exactly that: build the
dense adjacency matrix and count patterns by elementary matrix identities
or outright enumeration.  Everything here is O(N**2) memory or worse and
guarded by a node cap; it exists for tests and for the edge-list export,
not for production analysis.

Each statistic is computed by a different route than the engine uses, and
four-cycles twice over (a codegree identity and raw 4-subset enumeration)
so the two references also cross-check each other.
"""

from __future__ import annotations

import os
from itertools import combinations

import numpy as np

from .core import HiernetError, NetworkModel, _whole, checked_model

__all__ = [
    "ExpansionCapError",
    "ExpandedGraph",
    "expand",
    "edge_list_text",
]

DEFAULT_EXPANSION_CAP = 5000


class ExpansionCapError(HiernetError):
    """Refused to expand adjacency for a network above the node cap."""


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def expand(model: NetworkModel, cap: int | None = DEFAULT_EXPANSION_CAP) -> "ExpandedGraph":
    """Materialise the adjacency matrix; refuses networks larger than `cap`.

    `cap` is None, for no cap, or an integer >= 0; a bad cap or an invalid
    model is a ParamError.  A matrix of N*N bytes past the host's physical
    memory is refused too, before anything is allocated, whatever the cap.
    """
    n = model.shape.n
    cap = None if cap is None else _whole(cap, "cap", 0)
    if cap is not None and n > cap:
        raise ExpansionCapError(f"n={n} exceeds the expansion cap of {cap}")
    memory = _physical_memory()
    if n * n > memory:
        raise ExpansionCapError(f"n={n} needs {n * n} bytes of adjacency, "
                                f"more than the {memory} bytes of physical memory")
    shape, links = checked_model(model).shape, model.links
    adj = np.zeros((n, n), dtype=np.uint8)
    for g in range(1, shape.gamma + 1):
        for i in range(1, shape.n_clusters(g) + 1):
            lo, hi = shape.child_range(g, i)
            # the children's pairs in bit order, numbered from 1 within level g-1
            for (a, b), bit in zip(combinations(range(lo + 1, hi + 1), 2), links.vector(g, i)):
                if bit:
                    ra, rb = shape.leaf_range(g - 1, a), shape.leaf_range(g - 1, b)
                    adj[ra[0]:ra[1], rb[0]:rb[1]] = 1
                    adj[rb[0]:rb[1], ra[0]:ra[1]] = 1
    return ExpandedGraph(adj)


class ExpandedGraph:
    """Dense undirected graph on nodes 1..n, adjacency held as 0/1 uint8."""

    def __init__(self, adj: np.ndarray):
        self.adj = adj
        self.n = adj.shape[0]

    # -- degrees and local counts -------------------------------------------

    def bf_degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1, dtype=np.int64)

    def bf_degree(self, x: int) -> int:
        return int(self.adj[x - 1].sum(dtype=np.int64))

    def bf_edges(self) -> int:
        return int(self.adj.sum(dtype=np.int64)) // 2

    def bf_wedges(self) -> int:
        d = self.bf_degrees()
        return int((d * (d - 1) // 2).sum())

    def bf_triangles(self) -> int:
        a = self.adj.astype(np.int64)
        return int(np.trace(a @ a @ a)) // 6

    def bf_triangles_at(self, x: int) -> int:
        nbr = np.nonzero(self.adj[x - 1])[0]
        sub = self.adj[np.ix_(nbr, nbr)]
        return int(sub.sum(dtype=np.int64)) // 2

    def bf_four_cycles(self) -> int:
        """Distinct 4-cycles from codegrees: sum of C(codeg, 2) over pairs, / 4.

        Every 4-cycle contributes to two opposite pairs twice each; adjacent
        codegree pairs only ever count cycles through both, which is the
        same double counting, hence the flat divisor.
        """
        a = self.adj.astype(np.int64)
        co = a @ a
        np.fill_diagonal(co, 0)
        return int((co * (co - 1) // 2).sum()) // 4

    def bf_four_cycles_subsets(self) -> int:
        """Raw enumeration over 4-node subsets; only viable for tiny graphs."""
        a = self.adj
        total = 0
        for i, j, k, l in combinations(range(self.n), 4):
            rings = (
                a[i, j] & a[j, k] & a[k, l] & a[l, i]
            ) + (
                a[i, j] & a[j, l] & a[l, k] & a[k, i]
            ) + (
                a[i, k] & a[k, j] & a[j, l] & a[l, i]
            )
            total += int(rings)
        return total

    # -- distances and connectivity -----------------------------------------

    def bf_all_distances(self) -> np.ndarray:
        """All-pairs hop distances by boolean frontier expansion; -1 unreachable."""
        reach = np.eye(self.n, dtype=bool)
        dist = np.zeros((self.n, self.n), dtype=np.int64)
        adj = self.adj.astype(bool)
        d = 0
        while True:
            grown = reach | (reach @ adj)
            new = grown & ~reach
            if not new.any():
                break
            d += 1
            dist[new] = d
            reach = grown
        dist[~reach] = -1
        return dist

    def bf_distance(self, x: int, y: int) -> int | None:
        d = int(self.bf_all_distances()[x - 1, y - 1])
        return None if d < 0 else d

    def bf_distance_histogram(self) -> tuple[dict[int, int], int]:
        dist = self.bf_all_distances()
        iu = np.triu_indices(self.n, k=1)
        vals = dist[iu]
        unreachable = int((vals < 0).sum())
        pos = vals[vals > 0]
        uniq, cnt = np.unique(pos, return_counts=True)
        return {int(v): int(c) for v, c in zip(uniq, cnt)}, unreachable

    def bf_diameter(self) -> int:
        hist, _ = self.bf_distance_histogram()
        return max(hist) if hist else 0

    def bf_components(self) -> list[int]:
        dist = self.bf_all_distances()
        seen = np.zeros(self.n, dtype=bool)
        sizes = []
        for v in range(self.n):
            if seen[v]:
                continue
            members = dist[v] >= 0
            seen |= members
            sizes.append(int(members.sum()))
        sizes.sort(reverse=True)
        return sizes

    def bf_clustering(self, x: int) -> float:
        d = self.bf_degree(x)
        if d < 2:
            return 0.0
        return 2.0 * self.bf_triangles_at(x) / (d * (d - 1))


def edge_list_text(model: NetworkModel, cap: int | None = DEFAULT_EXPANSION_CAP) -> str:
    """Edges as '<u> <v>' lines, 1-based, u < v, sorted; empty string if no edges."""
    g = expand(model, cap=cap)
    iu, iv = np.nonzero(np.triu(g.adj, k=1))
    lines = [f"{u + 1} {v + 1}" for u, v in zip(iu.tolist(), iv.tolist())]
    return "\n".join(lines) + ("\n" if lines else "")
