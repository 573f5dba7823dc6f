"""Output checks for the benchmark, run outside every timed region.

Each check counts one attempt in a `Checker`; a failed check counts one
failure.  Besides pinned digests at the default seed, the checks hold at
any seed: they are count identities that every correct network obeys,
and point-query answers compared with the all-node passes and with a
small reference distance written here against the public core API.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from math import comb

import numpy as np

from hiernet import analytics, core

# artifact kinds, in the order they are produced and digested
ARTIFACTS = ("bhnet", "analyze", "queries", "ensemble")


class Checker:
    """Attempt and failure counts of operations and checks, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def answers_text(queries, answers) -> str:
    """One `kind args answer` line per query; the text the query digest covers."""
    return "".join(
        f"{kind} {' '.join(map(str, args))} {ans}\n"
        for (kind, args), ans in zip(queries, answers)
    )


def check_artifacts(chk: Checker, seen: dict, pinned: dict) -> None:
    """Every round produced the same bytes, and those match the pinned digests."""
    for kind in ARTIFACTS:
        digests = seen.get(kind, set())
        if not chk.expect(len(digests) == 1,
                          f"{kind}: {len(digests)} distinct outputs across rounds"):
            continue
        (got,) = digests
        want = pinned.get(kind)
        if want is not None:
            chk.expect(got == want, f"{kind}: sha256 {got} != pinned {want}")


def reference_distance(model: core.NetworkModel, x: int, y: int) -> int | None:
    """Hop distance between nodes x and y by the tree rule, from the public core API.

    The lowest cluster holding both nodes decides: a breadth-first search
    over its child graph, capped at 2 (and made finite) when any ancestor
    joins the chain to a sibling.
    """
    shape, links = model.shape, model.links
    if x == y:
        return 0

    def chain(v):  # 0-based cluster index of node v at every level 0..gamma
        return [v - 1] + [int(np.searchsorted(shape.leaf_cum_at(g), v))
                          for g in range(1, shape.gamma + 1)]

    def child_graph(g, k):
        c = int(shape.counts_at(g)[k])
        pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
        return c, [pr for pr, bit in zip(pairs, links.vector(g, k + 1)) if bit]

    cx, cy = chain(x), chain(y)
    g = next(h for h in range(1, shape.gamma + 1) if cx[h] == cy[h])
    start = int(shape.child_start_at(g)[cx[g]])
    c, edges = child_graph(g, cx[g])
    adj = [[] for _ in range(c)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    src, dst = cx[g - 1] - start, cy[g - 1] - start
    hops = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    local = hops.get(dst)
    linked_out = False
    for h in range(g + 1, shape.gamma + 1):
        pos = cx[h - 1] - int(shape.child_start_at(h)[cx[h]])
        _, edges_h = child_graph(h, cx[h])
        if any(pos in pr for pr in edges_h):
            linked_out = True
            break
    if local is not None:
        return min(local, 2) if linked_out else local
    return 2 if linked_out else None


def check_bhnet(chk: Checker, text: str, model: core.NetworkModel) -> None:
    chk.expect(core.deserialize(text) == model, "bhnet: deserialize(file) != generated model")


def _int_keys(hist: dict) -> dict:
    return {int(k): v for k, v in hist.items()}


def _check_report_values(chk: Checker, where: str, vals: dict, n: int) -> None:
    """Identities between the properties of one network of n nodes."""
    deg = _int_keys(vals["degree-dist"])
    chk.expect(sum(k * c for k, c in deg.items()) == 2 * vals["edges"],
               f"{where}: sum of degrees != 2*edges")
    chk.expect(sum(deg.values()) == n, f"{where}: degree histogram does not cover N")
    if "wedges" in vals:
        chk.expect(sum(comb(k, 2) * c for k, c in deg.items()) == vals["wedges"],
                   f"{where}: sum of C(degree, 2) != wedges")
    dist = dict(vals["distance-dist"])
    unreachable = dist.pop("unreachable", 0)
    dist = _int_keys(dist)
    chk.expect(sum(dist.values()) + unreachable == comb(n, 2),
               f"{where}: distance histogram + unreachable != C(N, 2)")
    chk.expect(vals["diameter"] == max(dist, default=0),
               f"{where}: diameter != largest finite distance")
    comps = _int_keys(vals["components"])
    chk.expect(sum(s * c for s, c in comps.items()) == n,
               f"{where}: component sizes do not sum to N")
    chk.expect(sum(vals["clustering-dist"].values()) == n,
               f"{where}: clustering histogram does not cover N")


def check_analyze(chk: Checker, text: str, model: core.NetworkModel) -> None:
    doc = json.loads(text)
    n = model.shape.n
    _check_report_values(chk, "analyze", doc, n)
    degrees = analytics.node_degrees(model)
    vals, cnts = np.unique(degrees, return_counts=True)
    chk.expect({int(v): int(c) for v, c in zip(vals, cnts)} == _int_keys(doc["degree-dist"]),
               "analyze: degree histogram != node_degrees")
    chk.expect(int(analytics.triangles_at_all_nodes(model).sum()) == 3 * doc["c3"],
               "analyze: sum of per-node triangles != 3*c3")


def check_queries(chk: Checker, queries, answers, model: core.NetworkModel) -> None:
    degrees = analytics.node_degrees(model)
    triangles = analytics.triangles_at_all_nodes(model)
    for (kind, args), ans in zip(queries, answers):
        if kind == "node_degree":
            want = int(degrees[args[0] - 1])
        elif kind == "triangles":
            want = int(triangles[args[0] - 1])
        else:
            want = reference_distance(model, *args)
        chk.expect(ans == want, f"query {kind}{args}: got {ans}, want {want}")


def check_ensemble(chk: Checker, text: str, copies: int, n: int) -> None:
    doc = json.loads(text)
    chk.expect(doc["copies"] == copies, f"ensemble: report holds {doc['copies']} copies")
    results = doc["results"]
    for c in range(copies):
        vals = {name: per_copy[c] for name, per_copy in results.items()}
        _check_report_values(chk, f"ensemble copy {c + 1}", vals, n)
