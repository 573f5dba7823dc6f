"""Node-link tree data model of block-hierarchical networks.

A network on N nodes is stored as a partition hierarchy plus one bit vector
per internal vertex.  Level gamma of the hierarchy holds n_gamma clusters;
cluster i at that level groups Count(gamma, i) clusters of the level below,
and its bit vector marks which pairs of those sub-clusters are joined.  Two
joined sub-clusters contribute a complete bipartite edge set between their
node sets, so the tree determines the graph exactly.  Leaves (level 0) are
the network nodes, numbered 1..N left to right.

Bits are stored in lexicographic pair order (1,2),(1,3),...,(1,k),(2,3),...,
(k-1,k); `pair_offset` maps a 0-based pair to its offset, `pair_index` is
its checked 1-based form, and the serialized text format writes bit strings
in the same order.  Adjacency is never expanded here; the oracle module
materialises edges when verification needs them.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "HiernetError",
    "ParamError",
    "InvalidPairError",
    "InvalidRefError",
    "ParseError",
    "ClusterRef",
    "PathEntry",
    "HierarchyShape",
    "LinkTable",
    "NetworkModel",
    "pair_index",
    "pair_offset",
    "psi",
    "cluster_size",
    "checked_node",
    "checked_cluster",
    "checked_model",
    "node_climb",
    "node_path",
    "validate",
    "serialize",
    "serialize_chunks",
    "deserialize",
]

FORMAT_MAGIC = "BHNET 1"

# resource guard on node counts, level widths and level counts; far past any desk-scale run
MAX_NODES = 1 << 27
# resource guard on the link bits of one network, about 5x those of a p=3
# network on MAX_NODES nodes (at most 1.5 bits per node)
MAX_LINK_BITS = 1 << 30
# resource guard on the children of one vertex: the analytics hold its
# (c, c) child adjacency as one block of at most MAX_CHILDREN**2 entries
MAX_CHILDREN = 1 << 10
# the guards above keep every count, child start, size and bit offset below
# 2**31, so the layout stores them int32; the shifted leaf cums reach
# gamma(N+1) and are int32 only below this bound, as are the bit offsets
_INT32_SAFE_KEYS = 1 << 31


class HiernetError(Exception):
    """Base class for every error raised by this package."""


class ParamError(HiernetError, ValueError):
    """Rejected construction or generation parameter."""


class InvalidPairError(HiernetError, ValueError):
    """Sub-cluster pair positions outside 1..k."""


class InvalidRefError(HiernetError, LookupError):
    """Cluster or node reference outside the tree."""


class ParseError(HiernetError, ValueError):
    """Malformed network text; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _index(value, what: str, error: type[HiernetError] = InvalidRefError) -> int:
    """An integer argument, numpy's too, as an int; `error` unless it is one."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def _checked_level(gamma, top: int, lowest: int = 1, where: str = "shape") -> int:
    """gamma as an int; InvalidRefError unless it is an integer level lowest..top of `where`."""
    level = _index(gamma, "level")
    if not lowest <= level <= top:
        raise InvalidRefError(f"no level {level} in a {top}-level {where}")
    return level


def _whole(value, what: str, lo: int, hi: int | None = None) -> int:
    """A parameter equal to an integer in lo..hi (3, 3.0, numpy's) as an int; else ParamError.

    Lenient where `_index` is strict: parameters may be integral floats,
    node and cluster references may not.
    """
    try:
        out = int(value)
        ok = out == value and lo <= out and (hi is None or out <= hi)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ParamError(f"{what} must be an integer {bound}, got {value!r}")
    return out


def _integers(values, dtype, what: str) -> np.ndarray:
    """`values` as an array of `dtype`; ParamError unless each is an integer it holds."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "biu" or not arr.size:  # integer dtypes, or nothing at all
            out = arr.astype(dtype, copy=False)
            if out is arr or (out == arr).all():
                return out
    except ValueError:  # a ragged sequence
        pass
    raise ParamError(f"{what} must be integers that {np.dtype(dtype).name} holds")


def _split(joined: np.ndarray, widths) -> tuple[np.ndarray, ...]:
    """Consecutive views of `joined`, one per width; read-only when `joined` is."""
    return tuple(joined[lo - w:lo] for lo, w in zip(accumulate(widths), widths))


def pair_index(n: int, s: int, k: int) -> int:
    """Offset of the pair (n, s), n < s, within the bit vector of a k-child vertex.

    Pairs are enumerated lexicographically, (1,2),(1,3),...,(1,k),(2,3),...,
    (k-1,k); offsets run 0..k(k-1)/2 - 1 and the map is a bijection.
    """
    try:
        n, s, k = operator.index(n), operator.index(s), operator.index(k)
    except TypeError:
        raise InvalidPairError(f"pair ({n!r},{s!r}) for k={k!r} is not integers") from None
    if not 1 <= n < s <= k:
        raise InvalidPairError(f"pair ({n},{s}) invalid for k={k}")
    return pair_offset(n - 1, s - 1, k)


def pair_offset(a: int, b: int, k: int) -> int:
    """`pair_index` of the 0-based children a < b of a k-child vertex, unchecked."""
    # pairs whose first child is below a occupy a(2k-a-1)/2 leading slots
    return a * (2 * k - a - 1) // 2 + b - a - 1


def _bit_counts(counts: np.ndarray) -> np.ndarray:
    """c(c-1)/2, the bits of each c-child vertex, as int64: the int32 counts are widened first.

    Holds one int64 array, the result: c*c - c is built in it and halved
    in place, exactly, as it is even.
    """
    nbits = counts.astype(np.int64)
    nbits *= nbits
    nbits -= counts
    nbits >>= 1
    return nbits


@dataclass(frozen=True)
class ClusterRef:
    """Cluster address: level gamma in 0..Gamma and 1-based index within it.

    Level-0 refs are the network nodes themselves; (Gamma, 1) is the root.
    """

    gamma: int
    index: int


@dataclass(frozen=True)
class PathEntry:
    """One level of a node's leaf-to-root chain."""

    gamma: int
    cluster_index: int  # index of the level-gamma cluster containing the node
    child_pos: int      # 1-based position of the level gamma-1 cluster under it


class _Layout(NamedTuple):
    """A shape's derived navigation arrays, read-only, built once by `HierarchyShape._derived`."""

    sizes: tuple[np.ndarray, ...]   # node counts per cluster, by level from 0, int32
    starts: tuple[np.ndarray, ...]  # first child's index in the level below, by level from 1
    cums: tuple[np.ndarray, ...]    # shifted leaf cums, by level from 1
    keys: np.ndarray                # the leaf cums of every level, joined: `cums` are its views
    all_starts: np.ndarray          # the child starts, joined, int32: `starts` are its views
    shifts: np.ndarray              # each level's shift (g-1)(N+1), in the dtype of `keys`
    base: tuple[int, ...]           # each level's first position in the joined layout


class HierarchyShape:
    """Per-level child counts of the partition tree.

    `levels` is ordered bottom-up: entry 0 holds the child counts of the
    level-1 clusters (whose children are network nodes) and the last entry
    is the root level.  Level 0 is the nodes themselves: it has sizes (all
    ones) but no counts.  Construction only refuses a p that is not an
    integer >= 2 (3.0 is taken as 3) and counts that are not integers
    int32 holds, and freezes the arrays; the structural rules live in
    `validate`, which reports violations instead of raising, so
    deliberately broken shapes can be inspected.  The public accessors
    check their arguments and refuse counts that do not telescope;
    analysis reads the private arrays.

    Every per-cluster kind (counts, child starts, leaf cums, and the link
    table's bit offsets) is one array laid out level after level, level 1
    first; the per-level arrays are views of it.  A cluster's position in
    that layout indexes every kind at once, so one gather per kind reads a
    node's whole chain.  The leaf cums of level g are stored shifted by
    (g-1)(N+1): the joined array ascends across the levels, and one search
    for the needles (g-1)(N+1) + x finds node x's cluster on every level.
    The accessors that return leaf cums subtract the shift.

    Counts, child starts, sizes and bit offsets are int32: a valid model
    keeps each below 2**31, and a shape of more than MAX_NODES nodes has no
    layout.  The leaf cums are int32 while gamma(N+1) < 2**31 and int64
    past it; a search into them passes needles of their own dtype, since
    numpy would otherwise copy the whole joined array to the needles' one.
    """

    __slots__ = ("p", "n", "_counts", "_all_counts", "_derived_cache")

    def __init__(self, p: int, levels: Iterable[Sequence[int]]):
        self.p = _whole(p, "p", 2)
        levels = list(levels)
        for k, level in enumerate(levels):
            levels[k] = arr = _integers(level, np.int32, "child counts")
            if arr.ndim != 1:
                raise ParamError("each level must be a flat sequence of counts")
        # the leading empty array joins a zero-level shape's counts too
        self._all_counts = np.concatenate([np.zeros(0, np.int32), *levels])
        self._all_counts.flags.writeable = False
        self._counts = _split(self._all_counts, [len(arr) for arr in levels])
        # node count, summed once: every node reference is checked against it
        self.n = int(self._counts[0].sum(dtype=np.int64)) if levels else 1
        self._derived_cache = None

    # -- basic dimensions ---------------------------------------------------

    @property
    def gamma(self) -> int:
        return len(self._counts)

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(c) for c in arr) for arr in self._counts)

    def n_clusters(self, gamma: int) -> int:
        gamma = _checked_level(gamma, len(self._counts), 0)
        return len(self._counts[gamma - 1]) if gamma else self.n

    def counts_at(self, gamma: int) -> np.ndarray:
        """Child counts of all clusters at a level (gamma >= 1), read-only int32."""
        return self._counts[_checked_level(gamma, len(self._counts)) - 1]

    def count(self, gamma: int, i: int) -> int:
        gamma, i = checked_cluster(self, gamma, i)
        return int(self.counts_at(gamma)[i - 1])

    # -- derived navigation arrays ------------------------------------------

    def _derived(self) -> _Layout:
        """The navigation arrays the counts imply, built on the first call."""
        d = self._derived_cache
        if d is not None:
            return d
        n = self.n
        if n > MAX_NODES:
            raise ParamError(f"a shape of {n} nodes exceeds the supported maximum {MAX_NODES}")
        widths = [len(counts) for counts in self._counts]
        key_t = np.int32 if len(widths) * (n + 1) < _INT32_SAFE_KEYS else np.int64
        # a node covers itself: one broadcast of ones, built once and never copied
        sizes = [np.broadcast_to(np.int32(1), (n,))]
        all_starts, keys = np.zeros(sum(widths), np.int32), np.empty(sum(widths), key_t)
        shifts = np.arange(0, len(widths) * (n + 1), n + 1, dtype=key_t)
        for g, (counts, starts, cum) in enumerate(
                zip(self._counts, _split(all_starts, widths), _split(keys, widths)), start=1):
            if (counts < 1).any():
                raise ParamError("shape has counts below 1; run validate() for details")
            if int(counts.sum(dtype=np.int64)) != len(sizes[-1]):
                raise ParamError("inconsistent level widths; run validate() for details")
            np.cumsum(counts[:-1], dtype=np.int32, out=starts[1:])
            # a level-1 cluster covers one node per child: its sizes are its counts
            sz = counts if g == 1 else np.add.reduceat(sizes[-1], starts, dtype=np.int32)
            np.cumsum(sz, dtype=key_t, out=cum)
            cum += shifts[g - 1]
            sz.flags.writeable = False
            sizes.append(sz)
        all_starts.flags.writeable = keys.flags.writeable = False
        d = _Layout(tuple(sizes), _split(all_starts, widths), _split(keys, widths), keys,
                    all_starts, shifts, tuple(accumulate(widths[:-1], initial=0)))
        self._derived_cache = d
        return d

    def sizes_at(self, gamma: int) -> np.ndarray:
        """Node counts of all clusters at a level, read-only; level 0 is N ones."""
        return self._derived().sizes[_checked_level(gamma, len(self._counts), 0)]

    def child_start_at(self, gamma: int) -> np.ndarray:
        """0-based index of each cluster's first child within level gamma-1."""
        return self._derived().starts[_checked_level(gamma, len(self._counts)) - 1]

    def leaf_cum_at(self, gamma: int) -> np.ndarray:
        """Nodes covered by each level-gamma cluster and those before it; a new read-only array."""
        gamma = _checked_level(gamma, len(self._counts))
        d = self._derived()
        cum = d.cums[gamma - 1] - d.shifts[gamma - 1]
        cum.flags.writeable = False
        return cum

    def cluster_size(self, gamma: int, i: int) -> int:
        gamma, i = checked_cluster(self, gamma, i)
        return int(self.sizes_at(gamma)[i - 1])

    def child_range(self, gamma: int, i: int) -> tuple[int, int]:
        """Half-open 0-based range of cluster (gamma, i)'s children in level gamma-1."""
        gamma, i = checked_cluster(self, gamma, i)
        lo = int(self.child_start_at(gamma)[i - 1])
        return lo, lo + int(self._counts[gamma - 1][i - 1])

    def leaf_range(self, gamma: int, i: int) -> tuple[int, int]:
        """Half-open 0-based range of the nodes covered by cluster (gamma, i)."""
        gamma, i = checked_cluster(self, gamma, i)
        if gamma == 0:
            return i - 1, i
        d = self._derived()
        hi = int(d.cums[gamma - 1][i - 1] - d.shifts[gamma - 1])
        return hi - int(d.sizes[gamma][i - 1]), hi

    def node_cluster(self, gamma: int, x: int) -> int:
        """1-based index of the level-gamma cluster containing node x."""
        x = checked_node(self, x)
        gamma = _checked_level(gamma, len(self._counts), 0)
        if gamma == 0:
            return x
        d = self._derived()
        # numpy scalars of the keys' dtype: a Python int would make the needle int64
        return int(d.cums[gamma - 1].searchsorted(d.shifts[gamma - 1] + d.keys.dtype.type(x))) + 1

    def __eq__(self, other):
        if not isinstance(other, HierarchyShape):
            return NotImplemented
        return (
            self.p == other.p
            and len(self._counts) == len(other._counts)
            and all(np.array_equal(a, b) for a, b in zip(self._counts, other._counts))
        )

    __hash__ = None

    def __repr__(self):
        return f"HierarchyShape(p={self.p}, gamma={self.gamma}, n={self.n})"


class LinkTable:
    """Per-vertex link bit vectors, stored flat per level.

    Level gamma keeps one contiguous uint8 array holding the bit vectors of
    all its clusters back to back, in cluster index order, each vector in
    lexicographic pair order, and the offset of each vector into it.  That
    is the whole layout: a vector runs from its offset to the next one, the
    last to the end of the flat array, so `nbits_at` reads the lengths off
    the gaps and `validate` checks each vector's end against the counts.
    The per-level offsets are views of one array laid out like the shape's
    counts, so a cluster's position there indexes its offset too.  A level's
    offsets are int32 unless one reaches 2**31 or falls below 0, and the
    joined array is int64 if any level's is.
    """

    __slots__ = ("_flat", "_starts", "_all_starts")

    def __init__(self, flat_per_level, nbits_per_level):
        """Bits and per-cluster bit counts per level; the counts give the offsets.

        The bit counts may be any iterable, a lazy one too: each level's are
        turned into its offsets and dropped before the next level's are read.
        """
        flats = [_integers(f, np.uint8, "link bits") for f in flat_per_level]
        starts = []
        for nb in nbits_per_level:
            nb = _integers(nb, np.int64, "bit counts")
            # counts in 0..2**31 - 1 whose bits before the level's last vector
            # sum below 2**31 give int32 offsets, built as such; a negative
            # count, or one whose int64 sum may wrap, keeps the level int64
            small = not len(nb) or 0 <= nb.min() and nb.max() < _INT32_SAFE_KEYS \
                and nb[:-1].sum() < _INT32_SAFE_KEYS
            st = np.zeros(len(nb), np.int32 if small else np.int64)
            # summed in the offsets' dtype: an int64 sum cast to int32 takes an int64 temporary
            np.cumsum(nb[:-1], dtype=st.dtype, out=st[1:])
            starts.append(st)
            del nb
        if len(flats) != len(starts):
            raise ParamError(f"{len(flats)} levels of link bits "
                             f"but {len(starts)} levels of bit counts")
        # the leading empty array joins zero levels too
        self._all_starts = np.concatenate([np.zeros(0, np.int32), *starts])
        for a in (self._all_starts, *flats):
            a.flags.writeable = False
        self._flat = tuple(flats)
        self._starts = _split(self._all_starts, [len(st) for st in starts])

    @classmethod
    def from_vectors(cls, vectors_per_level) -> "LinkTable":
        """Build from per-cluster bit sequences, e.g. [["011", "100110", "1"], ["100"]].

        Strings and 0/1 sequences are both accepted; a cluster with a single
        child gets the empty vector "".  A string must be ASCII; any character
        other than 0 or 1 becomes a value above 1, which `validate` reports.
        """
        flats, nbits = [], []
        for level in vectors_per_level:
            vecs = [np.frombuffer(v.encode("ascii"), np.uint8) - ord("0") if isinstance(v, str)
                    else _integers(list(v), np.uint8, "link bits") for v in level]
            nbits.append(np.array([len(v) for v in vecs], dtype=np.int64))
            flats.append(np.concatenate(vecs) if vecs else np.zeros(0, dtype=np.uint8))
        return cls(flats, nbits)

    @property
    def gamma(self) -> int:
        return len(self._flat)

    def flat_at(self, gamma: int) -> np.ndarray:
        return self._flat[_checked_level(gamma, len(self._flat), 1, "link table") - 1]

    def nbits_at(self, gamma: int) -> np.ndarray:
        """Per-cluster vector lengths: the gaps between offsets, closed by the flat length."""
        gamma = _checked_level(gamma, len(self._flat), 1, "link table")
        starts = self._starts[gamma - 1]  # np.diff(append=) costs three times as much
        ends = np.concatenate((starts[1:], [len(self._flat[gamma - 1])]), dtype=np.int64)
        return ends - starts

    def starts_at(self, gamma: int) -> np.ndarray:
        return self._starts[_checked_level(gamma, len(self._flat), 1, "link table") - 1]

    def vector(self, gamma: int, i: int) -> np.ndarray:
        starts = self.starts_at(gamma)
        i = _index(i, "cluster")
        if not 1 <= i <= len(starts):
            raise InvalidRefError(f"no cluster {i} at level {gamma}")
        end = starts[i] if i < len(starts) else None
        return self.flat_at(gamma)[starts[i - 1]:end]

    def bitstring(self, gamma: int, i: int) -> str:
        vec = self.vector(gamma, i)
        return (vec + np.uint8(ord("0"))).tobytes().decode("ascii")

    def __eq__(self, other):
        if not isinstance(other, LinkTable):
            return NotImplemented
        return (
            len(self._flat) == len(other._flat)
            and all(np.array_equal(a, b) for a, b in zip(self._flat, other._flat))
            and all(np.array_equal(a, b) for a, b in zip(self._starts, other._starts))
        )

    __hash__ = None


class NetworkModel:
    """A complete network: hierarchy shape plus link table.

    The shape's counts are the one record of the layout: they fix the
    sizes, the child ranges and each vector's length, and `validate` holds
    the link table's offsets to them.  Immutable after construction, which
    refuses nothing structural.  `_problems` keeps what `validate` found,
    None until `checked_model` runs it.  Models the package builds valid,
    generated, stacked and loaded ones, come from `_trusted` with it empty.
    `_passes` holds the whole-network passes analysis has run on the model,
    read-only, each filled once by the reader that keys it.
    """

    __slots__ = ("shape", "links", "_problems", "_passes")

    def __init__(self, shape: HierarchyShape, links: LinkTable):
        self.shape = shape
        self.links = links
        self._problems = None
        self._passes = {}

    @classmethod
    def _trusted(cls, shape: HierarchyShape, links: LinkTable) -> NetworkModel:
        """A model valid by construction: `checked_model` passes it with no `validate`."""
        model = cls(shape, links)
        model._problems = []
        return model

    def __eq__(self, other):
        if not isinstance(other, NetworkModel):
            return NotImplemented
        return self.shape == other.shape and self.links == other.links

    __hash__ = None

    def __repr__(self):
        return f"NetworkModel(p={self.shape.p}, gamma={self.shape.gamma}, n={self.shape.n})"


def psi(model: NetworkModel, cluster: ClusterRef, n: int, s: int) -> int:
    """Link indicator between sub-clusters n and s of an internal cluster.

    Symmetric in (n, s); psi(n, n) is 0 by convention (no self-link).
    """
    k = checked_model(model).shape.count(cluster.gamma, cluster.index)  # a node has none
    n, s = (_index(v, "position", InvalidPairError) for v in (n, s))
    if not (1 <= n <= k and 1 <= s <= k):
        raise InvalidPairError(f"positions ({n},{s}) outside 1..{k}")
    if n == s:
        return 0
    vec = model.links.vector(cluster.gamma, cluster.index)
    return int(vec[pair_offset(min(n, s) - 1, max(n, s) - 1, k)])


def cluster_size(model: NetworkModel, cluster: ClusterRef) -> int:
    """Number of network nodes covered by a cluster; level-0 clusters are nodes."""
    return model.shape.cluster_size(cluster.gamma, cluster.index)


def checked_node(shape: HierarchyShape, x: int) -> int:
    """Node x as an int; InvalidRefError unless it is an integer (numpy's too) in 1..N."""
    x = _index(x, "node")
    if not 1 <= x <= shape.n:
        raise InvalidRefError(f"no node {x} in a {shape.n}-node network")
    return x


def checked_cluster(shape: HierarchyShape, g: int, i: int) -> tuple[int, int]:
    """(g, i) as ints; InvalidRefError unless cluster i of level g, 0..Gamma, exists.

    Both must be integers, numpy's too; level 0 holds the nodes, vetted by `checked_node`.
    """
    g = _checked_level(g, len(shape._counts), 0)
    if g == 0:
        return 0, checked_node(shape, i)
    i = _index(i, "cluster")
    if not 1 <= i <= len(shape._counts[g - 1]):
        raise InvalidRefError(f"no cluster {i} at level {g}")
    return g, i


def checked_model(model: NetworkModel) -> NetworkModel:
    """The model once `validate` finds it well formed; else ParamError naming its problems.

    The one gate before the layout is read raw; `validate` runs at most once per model.
    """
    if model._problems is None:
        model._problems = validate(model)
    if model._problems:
        raise ParamError("invalid model: " + "; ".join(model._problems))
    return model


def node_climb(model: NetworkModel, x: int):
    """Leaf-to-root climb of node x: one tuple of plain ints per level.

    Yields (g, i, lo, a, c, off) for g = 1 .. Gamma: the level, the 0-based
    index of the level-g cluster holding x, the level g-1 index of its
    first child, the 0-based position a of x's chain child among its c
    children, and the offset of its bit vector within `links.flat_at(g)`.
    One search of the shape's joined leaf cums finds the whole chain, and
    one gather per joined array reads every level's start, count and
    offset.  `checked_model` vets the model and `checked_node` x at the call.
    """
    x = checked_node(checked_model(model).shape, x)
    return _climb_above(model, _chain(model.shape, x), 0, x - 1)


def _chain(shape: HierarchyShape, x):
    """Positions in the joined layout of the clusters holding node x, one per level, by one search.

    x may also be a column of nodes, [[x], [y]]: then each node gets a row of positions.
    The needles take the keys' dtype: any other would copy the keys on every search.
    """
    d = shape._derived()
    return d.keys.searchsorted(d.shifts + np.asarray(x, d.keys.dtype))


def _climb_above(model: NetworkModel, pos: np.ndarray, above: int, j: int):
    """`node_climb` of a vetted node from level above+1 on, its level-`above` cluster being j.

    `pos` is the node's `_chain`; the levels above `above` are read from
    the joined arrays with one gather each, then yielded level by level.
    """
    d = model.shape._derived()
    pos = pos[above:]
    rows = zip(pos.tolist(), d.all_starts[pos].tolist(), model.shape._all_counts[pos].tolist(),
               model.links._all_starts[pos].tolist())
    for g, (k, lo, c, off) in enumerate(rows, start=above + 1):
        i = k - d.base[g - 1]
        yield g, i, lo, j - lo, c, off
        j = i


def node_path(model: NetworkModel, x: int) -> tuple[PathEntry, ...]:
    """Leaf-to-root chain of node x: its `node_climb`, cluster and child numbered from 1."""
    return tuple(PathEntry(g, i + 1, a + 1) for g, i, _, a, _, _ in node_climb(model, x))


def pow_below(p: int, gamma: int, bound: int) -> bool:
    """Whether p**gamma < bound for p >= 2, without building a huge power.

    p**gamma >= 2**gamma, which exceeds every bound of at most gamma bits,
    so the exact power is only built when gamma is below the bound's bit
    length.
    """
    return gamma < int(bound).bit_length() and p ** gamma < bound


def _too_many_children(c: int) -> str:
    return f"{c} children exceed the supported maximum {MAX_CHILDREN}"


def _shape_problems(shape: HierarchyShape) -> list[str]:
    """The `validate` violations that concern the shape alone."""
    out: list[str] = []
    p = shape.p
    big_g = shape.gamma
    counts = shape._counts
    # int32 counts hold no value above 2**31 - 1, so a larger p bounds none of them
    top = np.int32(min(p, np.iinfo(np.int32).max))
    for g, arr in enumerate(counts, start=1):
        if len(arr) == 0:
            out.append(f"level {g}: empty level")
            continue
        bad = (arr < 1) | (arr > top)
        if bad.any():
            j = int(np.argmax(bad))
            out.append(f"level {g} cluster {j + 1}: count {int(arr[j])} outside 1..p={p}")
        wide = arr > MAX_CHILDREN
        if wide.any():
            j = int(np.argmax(wide))
            out.append(f"level {g} cluster {j + 1}: {_too_many_children(int(arr[j]))}")
    if big_g >= 1 and len(counts[-1]) != 1:
        out.append(f"level {big_g}: root level has {len(counts[-1])} clusters, want 1")
    for g in range(2, big_g + 1):
        want = len(counts[g - 2])
        got = int(counts[g - 1].sum(dtype=np.int64))
        if got != want:
            out.append(
                f"level {g}: level telescoping broken, counts sum to {got} "
                f"but {want} clusters sit below"
            )
    if big_g >= 1 and len(counts[0]) > 0:
        n = shape.n
        if pow_below(p, big_g, n):
            out.append(f"n={n} exceeds p^gamma={p ** big_g}")
    return out


def validate(model: NetworkModel) -> list[str]:
    """Check every structural invariant; returns [] when the model is well formed.

    Violations come back as human-readable strings and are never raised, so
    a broken model can still be inspected.  The link table's stored offsets
    are read in place: each level's vector ends, as the counts want them,
    are one int64 array, dropped before the next level's.
    """
    shape, links = model.shape, model.links
    out = _shape_problems(shape)
    big_g = shape.gamma
    if links.gamma != big_g:
        out.append(f"link table has {links.gamma} levels, shape has {big_g}")
        return out
    for g, (arr, starts, flat) in enumerate(zip(shape._counts, links._starts, links._flat), 1):
        if len(starts) != len(arr):
            out.append(f"level {g}: {len(starts)} bit vectors for {len(arr)} clusters")
            continue
        if len(arr):
            ends = _bit_counts(arr)
            np.cumsum(ends, out=ends)  # each vector's end, as the counts want it
            # a vector of the wrong length moves every later end: the first
            # stored end that differs, the flat length last, names it
            bad = ends[:-1] != starts[1:]
            j = int(bad.argmax()) if bad.any() else len(arr) - 1
            end, want_end = int(starts[j + 1]) if j + 1 < len(arr) else len(flat), int(ends[j])
            del ends, bad  # before the next level's
            if end != want_end:
                c = int(arr[j])
                out.append(f"level {g} cluster {j + 1}: bitmap length != k(k-1)/2 "
                           f"(got {end - int(starts[j])}, want {c * (c - 1) // 2})")
        if flat.size and int(flat.max()) > 1:
            out.append(f"level {g}: bit values outside 0/1")
    return out


# -- text format ------------------------------------------------------------
#
# `serialize_chunks` yields the head (magic, header and `L` lines), then
# each level's `B` lines as one numpy byte buffer, which `_bitmap_lines`
# lays out with the bits blank.  A level whose clusters all have the same
# count c >= 2, as every level of a regular network does, is laid out by
# rows: its lines split into one run per digit count of the label, and
# each run is a (lines, line length) view of the buffer.  In a run the
# label, ": " and the newline are the same columns on every line, the
# label digits count up by one a line, and the bits are the c(c-1)/2
# columns before the newline, so no position is built per line or per
# bit.  Any other level gives each bit's position, int32 while the level
# has fewer than 2**31 bytes, and writes its digits in one place per pass
# over uint32 values.  An `L` line of one count is that count repeated.
# `serialize` joins the chunks; the CLI writes them to its file one by
# one.  `deserialize` first reads its input as the exact bytes `serialize`
# writes (`_parse_canonical`): it parses the header and `L` lines in place,
# by offset, reads each level's bits from the places the counts imply,
# re-renders the level with those bits and compares byte for byte.  Any
# other input goes to the line walker `_parse_lines`, which also accepts
# the format's other spellings (extra whitespace, no final newline) and
# names the offending line of a bad file.

_ZERO = np.uint8(ord("0"))
_SPACE = ord(" ")
_NEWLINE = ord("\n")
_POW10 = 10 ** np.arange(1, 10, dtype=np.int32)
# bit positions are int32 in levels of fewer bytes: half the memory traffic of int64
_INT32_SAFE_BYTES = 1 << 31


def _n_digits(values: np.ndarray) -> np.ndarray:
    """Decimal digit counts of non-negative int32 or uint32 values, at most ten.

    The powers take the values' dtype, as numpy would otherwise copy the
    values to int64.
    """
    return np.searchsorted(_POW10.astype(values.dtype), values, side="right") + 1


def _put_decimal(buf: np.ndarray, stop: np.ndarray, values: np.ndarray, nd: np.ndarray) -> None:
    """Write values[j] as nd[j] decimal digits ending just before buf[stop[j]].

    Works in place, so that a level's digits take no temporary as long as
    the level: each stop[j] moves back to its value's first digit, and
    uint32 values are used up.  The values are labels and counts, at most
    MAX_NODES, and are divided as uint32, about three times as fast as
    int64.  Where nd ascends, as for cluster indices, the values with a
    digit at a place are a suffix.
    """
    places = int(nd.max(initial=0))
    ascending = bool((nd[1:] >= nd[:-1]).all())
    rest = values.astype(np.uint32, copy=False)
    tens = np.empty_like(rest)
    digit = np.empty(len(rest), dtype=np.uint8)
    for d in range(places):
        # a needle of nd's own dtype: any other would copy nd to its dtype
        live = slice(int(nd.searchsorted(nd.dtype.type(d), side="right")), None) if ascending \
            else nd > d
        np.divmod(rest, 10, out=(tens, rest))
        np.add(rest, _ZERO, out=digit, casting="unsafe")
        stop[live] -= 1
        buf[stop[live]] = digit[live]
        rest, tens = tens, rest


def _decimal_line(values: np.ndarray) -> np.ndarray:
    """Space-separated decimals of non-negative values plus a newline, as ASCII bytes."""
    nd = _n_digits(values)
    end = np.cumsum(nd + 1)  # each value with the space or newline after it
    buf = np.full(int(end[-1]), _SPACE, dtype=np.uint8)
    _put_decimal(buf, end - 1, values, nd)
    buf[-1] = _NEWLINE
    return buf


def _read_counts(body: np.ndarray) -> np.ndarray | None:
    """The counts of an `L` line body given as uint8 bytes, else None.

    Takes up to MAX_NODES runs of one to nine digits split by single spaces,
    leading zeros too: the caller's byte comparison with `_head` refuses
    those.  Nine digits keep each count within the shape's int32, and the
    limits every sum of counts within int64.
    """
    digit = body - _ZERO  # a space, like any other non-digit, wraps past 9
    ends = np.append(np.flatnonzero(body == _SPACE), len(body))  # the byte after each count
    nd = np.diff(ends, prepend=-1) - 1
    if len(ends) > MAX_NODES or np.count_nonzero(digit > 9) >= len(ends) \
            or not 1 <= nd.min() <= nd.max() <= 9:
        return None
    counts = np.zeros(len(ends), dtype=np.int32)
    for d in range(int(nd.max())):
        live = nd > d
        counts[live] += np.multiply(digit[ends[live] - (d + 1)], 10 ** d, dtype=np.int32)
    return counts


def _one_count(counts: np.ndarray) -> int:
    """The child count every cluster of a level has, or 0 when the counts differ."""
    return int(counts[0]) if len(counts) and counts.min() == counts.max() else 0


def _count_run(c: int, n: int) -> bytes:
    """The body of an `L` line that lists the count c n times, its newline included."""
    return b"%d " % c * (n - 1) + b"%d\n" % c


def _read_count_line(raw: bytes, lo: int, eol: int) -> np.ndarray | None:
    """The counts of the `L` line body raw[lo:eol], else None, as `_read_counts` takes them.

    A body that is its first count repeated is read by comparing it with
    `_count_run`; any other body goes to `_read_counts`.
    """
    space = raw.find(b" ", lo, eol)
    first = raw[lo:eol if space < 0 else space]
    n, rest = divmod(eol + 1 - lo, len(first) + 1)
    if first.isdigit() and len(first) <= 9 and not rest and n <= MAX_NODES \
            and raw.startswith(_count_run(int(first), n), lo):
        return np.full(n, int(first), dtype=np.int32)
    return _read_counts(np.frombuffer(raw, dtype=np.uint8, count=eol - lo, offset=lo))


def _head(shape: HierarchyShape) -> bytes:
    """Magic line, header line and the `L` lines, as serialized."""
    parts = [f"{FORMAT_MAGIC}\np={shape.p} gamma={shape.gamma} n={shape.n}\n".encode("ascii")]
    for g in range(shape.gamma, 0, -1):
        counts = shape.counts_at(g)
        c = _one_count(counts)
        parts.append(b"L%d: " % g)
        parts.append(_count_run(c, len(counts)) if c else _decimal_line(counts))
    return b"".join(parts)


class _Rows(NamedTuple):
    """Where the bits of a level of equal-length lines go, by runs of lines."""

    lines: int  # the level's `B` lines, one per cluster
    nbits: int  # the bits of each line, the columns before its newline
    runs: tuple[tuple[int, int, int, int], ...]  # first byte, first line, lines, line length


def _bitmap_lines(g: int, counts: np.ndarray, room: int | None = None):
    """The `B<g>.<i>: <bits>` lines of one level with the bits left blank.

    Returns the level's bytes and where its bits go, or None when they
    would take more than `room` bytes.  Bits run in cluster order, each
    vector in pair order, as `LinkTable` stores them.  Counts must be
    valid, at most MAX_CHILDREN.

    A level whose clusters all have c >= 2 children is laid out by rows:
    one run of equal-length lines per digit count of the label, at most
    nine, each a (lines, line length) view of the bytes.  A run's first
    line is written whole; the rest are block copies of the lines before
    them, blocks of 10**k lines with the label digit at place k raised,
    so the label, ": " and the newline are the same columns on every
    line.  The bits are the c(c-1)/2 columns before the newline, and
    `where` is a `_Rows`.  Any other level places each line and each bit
    by position, and `where` is the bits' positions, int32 while the
    level has fewer than 2**31 bytes.
    """
    c = _one_count(counts)
    if c >= 2:
        return _bitmap_rows(g, len(counts), c, room)
    idx = np.flatnonzero(counts >= 2)
    nbits = counts[idx].astype(np.int32, copy=False)
    nbits = nbits * (nbits - 1) // 2
    idx = (idx + 1).astype(np.uint32)  # labels, at most MAX_NODES: half of intp's bytes
    label = b"B%d." % g
    nd = _n_digits(idx).astype(np.int32)
    length = nbits + nd + (len(label) + 3)  # with ": " and the newline
    at = np.cumsum(length, dtype=np.intp)  # numpy indexes fastest with intp
    total = int(at[-1]) if len(at) else 0
    if room is not None and total > room:
        return None
    at -= length  # each line's start, then the places within it
    del length
    buf = np.empty(total, dtype=np.uint8)
    for ch in label:
        buf[at] = ch
        at += 1
    at += nd
    _put_decimal(buf, at, idx, nd)  # moves `at` back to the first digit, uses up idx
    at += nd
    del idx, nd
    buf[at] = ord(":")
    at += 2  # each line's first bit
    buf[at - 1] = _SPACE
    buf[at + nbits] = _NEWLINE
    # a bit's position: its rank in the level, plus its line's first bit
    # position less the bits before that line
    at -= np.cumsum(nbits, dtype=np.intp)
    at += nbits
    dt = np.int32 if total < _INT32_SAFE_BYTES else np.int64
    first = at.astype(dt)
    del at
    at = np.repeat(first, nbits)
    del first, nbits
    at += np.arange(len(at), dtype=dt)
    return buf, at


def _bitmap_rows(g: int, n: int, c: int, room: int | None):
    """`_bitmap_lines` of a level of n clusters of c >= 2 children each."""
    label = b"B%d." % g
    nbits = c * (c - 1) // 2
    runs, total = [], 0
    for d in range(1, len(str(n)) + 1):  # the lines whose labels have d digits
        first, end = 10 ** (d - 1) - 1, min(10 ** d - 1, n)  # 0-based, end exclusive
        runs.append((total, first, end - first, len(label) + d + 3 + nbits))
        total += (end - first) * runs[-1][3]
    if room is not None and total > room:
        return None
    buf = np.empty(total, dtype=np.uint8)
    for d, (lo, first, lines, width) in enumerate(runs, start=1):
        rows = buf[lo:lo + lines * width].reshape(lines, width)
        rows[0, :width - 1 - nbits] = np.frombuffer(b"B%d.%d: " % (g, first + 1), np.uint8)
        rows[0, -1] = _NEWLINE
        # once rows[:10**k] hold their lines (the bits blank), the next nine
        # blocks of 10**k lines are their copies with the label digit at
        # place k raised by 1 to 9: the labels count up from 10**(d-1)
        for k in range(d):
            step = 10 ** k
            for a in range(1, 10):
                block = rows[a * step:(a + 1) * step]
                block[...] = rows[:len(block)]
                block[:, len(label) + d - 1 - k] += a
    return buf, _Rows(n, nbits, tuple(runs))


def _row_bits(level: np.ndarray, where: _Rows):
    """Each run's bit columns in `level`, laid out as `where` says: (first line, (lines, nbits) view)."""
    for lo, first, lines, width in where.runs:
        yield first, level[lo:lo + lines * width].reshape(lines, width)[:, width - 1 - where.nbits:-1]


def _put_bits(buf: np.ndarray, where, flat: np.ndarray) -> None:
    """Write a level's 0/1 bits, in `LinkTable` order, as digits at their places in `buf`."""
    if isinstance(where, _Rows):
        vectors = flat.reshape(where.lines, where.nbits)
        for first, cols in _row_bits(buf, where):
            np.add(vectors[first:first + len(cols)], _ZERO, out=cols)
    else:
        buf[where] = flat + _ZERO


def _take_bits(buf: np.ndarray, where, level: np.ndarray) -> np.ndarray:
    """The bytes at the bit places of `level`, laid out as `buf`, each less '0'; `buf` takes them too."""
    if not isinstance(where, _Rows):
        buf[where] = bits = level[where]
        bits -= _ZERO
        return bits
    vectors = np.empty((where.lines, where.nbits), dtype=np.uint8)
    for (first, cols), (_, got) in zip(_row_bits(buf, where), _row_bits(level, where)):
        bits = np.subtract(got, _ZERO, out=vectors[first:first + len(got)])
        np.add(bits, _ZERO, out=cols)  # got's own bytes: uint8 wraps back exactly
    return vectors.reshape(-1)


def serialize_chunks(model: NetworkModel) -> Iterator[bytes | np.ndarray]:
    """The bytes of `serialize`: the head, then one uint8 array per level from the root down.

    Validates the model at once, whatever its origin, then renders each level when reached.
    """
    model._problems = validate(model)
    return _render(checked_model(model))


def _render(model: NetworkModel):
    shape = model.shape
    yield _head(shape)
    for g in range(shape.gamma, 0, -1):
        buf, where = _bitmap_lines(g, shape.counts_at(g))
        _put_bits(buf, where, model.links.flat_at(g))
        del where
        yield buf
        del buf  # before the next level's


def serialize(model: NetworkModel) -> str:
    """Render a model in the line-oriented text format; inverse of `deserialize`.

    Layout: magic line, `p=.. gamma=.. n=..` header, then one `L<g>: counts`
    line per level from the root down, then one `B<g>.<i>: bits` line per
    internal vertex with at least two children, in the same level order.
    """
    return b"".join(serialize_chunks(model)).decode("ascii")


_HEADER_RE = re.compile(r"p=(\d+) gamma=(\d+) n=(\d+)")
_CANONICAL_HEADER_RE = re.compile(rb"p=(\d{1,18}) gamma=(\d{1,18}) n=(\d{1,18})")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def deserialize(data: str | bytes) -> NetworkModel:
    """Parse the text format back into a model, verifying every structural rule.

    Accepts str or bytes; files are ASCII.  Errors carry the 1-based line
    number of the offending line.
    """
    if isinstance(data, str):
        model = _parse_canonical(data.encode("ascii")) if data.isascii() else None
        return model if model is not None else _parse_lines(data)
    raw = bytes(data)
    model = _parse_canonical(raw)
    # latin-1 maps each byte to one character, so a non-ASCII byte stays visible
    return model if model is not None else _parse_lines(raw.decode("latin-1"))


def _parse_canonical(raw: bytes) -> NetworkModel | None:
    """The valid model whose `serialize` output is exactly `raw`, else None.

    Every rule of `validate` holds once the checks below pass: the shape's
    rules, the 0/1 bits and the byte comparison with the re-rendered
    levels are run here, and the bit lengths and level count follow from
    the counts the link table is built from.
    """
    magic = FORMAT_MAGIC.encode("ascii") + b"\n"
    eol = raw.find(b"\n", len(magic))
    m = _CANONICAL_HEADER_RE.fullmatch(raw, len(magic), eol) if raw.startswith(magic) else None
    if eol < 0 or m is None:
        return None
    # the declared n is checked by the comparison with `_head` below
    p, gamma = int(m.group(1)), int(m.group(2))
    if p < 2 or gamma > MAX_NODES:
        return None
    top_down = []
    for g in range(gamma, 0, -1):
        pos, eol, label = eol + 1, raw.find(b"\n", eol + 1), b"L%d: " % g
        ok = eol >= 0 and raw.startswith(label, pos)
        top_down.append(_read_count_line(raw, pos + len(label), eol) if ok else None)
        if top_down[-1] is None:
            return None
    shape = HierarchyShape(p, top_down[::-1])
    del top_down
    if _shape_problems(shape) or shape.n > MAX_NODES or not raw.startswith(_head(shape)):
        return None
    pos = eol + 1  # the head's end, as it ends with the lines parsed above
    data = np.frombuffer(raw, dtype=np.uint8)
    flats = []
    for g in range(gamma, 0, -1):
        level = _bitmap_lines(g, shape.counts_at(g), room=len(raw) - pos)
        if level is None:
            return None
        buf, where = level
        bits = _take_bits(buf, where, data[pos:pos + len(buf)])
        del level, where
        if not raw.startswith(buf, pos) or (bits > 1).any():
            return None
        flats.append(bits)
        pos += len(buf)
        del buf  # before the next level's
    if pos != len(raw):
        return None
    return NetworkModel._trusted(shape, LinkTable(flats[::-1], map(_bit_counts, shape._counts)))


def _parse_lines(text: str) -> NetworkModel:
    """Line-by-line parse of any accepted spelling; raises ParseError naming the line."""
    bad = _NON_ASCII_RE.search(text)
    if bad is not None:
        raise ParseError(
            f"non-ASCII character {ascii(bad.group())}", text.count("\n", 0, bad.start()) + 1
        )
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # allow one trailing newline

    def need(idx0: int) -> str:
        if idx0 >= len(lines):
            raise ParseError("unexpected end of input", idx0 + 1)
        return lines[idx0]

    if need(0) != FORMAT_MAGIC:
        raise ParseError(f"bad magic, want '{FORMAT_MAGIC}'", 1)
    m = _HEADER_RE.fullmatch(need(1))
    if m is None:
        raise ParseError("bad header, want 'p=<int> gamma=<int> n=<int>'", 2)
    try:
        p, gamma, n = (int(tok) for tok in m.groups())
    except ValueError:  # past the interpreter's limit on digits
        raise ParseError("header value has too many digits", 2) from None
    if p < 2:
        raise ParseError(f"p={p} below the minimum of 2", 2)
    if gamma == 0 and n != 1:
        raise ParseError("gamma=0 requires n=1", 2)
    if n > MAX_NODES:
        raise ParseError(f"n={n} exceeds the supported maximum {MAX_NODES}", 2)
    if gamma > MAX_NODES:
        raise ParseError(f"gamma={gamma} exceeds the supported maximum {MAX_NODES}", 2)
    if gamma >= 1 and pow_below(p, gamma, n):
        raise ParseError(f"n={n} exceeds p^gamma={p ** gamma}", 2)

    ln = 2  # 0-based index of the next expected line
    top_down: list[list[int]] = []
    for g in range(gamma, 0, -1):
        line = need(ln)
        prefix = f"L{g}:"
        if not line.startswith(prefix + " ") and line != prefix:
            raise ParseError(f"expected a '{prefix}' line", ln + 1)
        body = line[len(prefix):].split()
        try:
            counts = [int(tok) for tok in body]
        except ValueError:
            raise ParseError(f"non-integer count on the '{prefix}' line", ln + 1) from None
        if not counts:
            raise ParseError(f"empty level on the '{prefix}' line", ln + 1)
        for c in counts:
            if not 1 <= c <= p:
                raise ParseError(f"count {c} outside 1..p={p}", ln + 1)
        if g == gamma and len(counts) != 1:
            raise ParseError(f"root level must hold exactly 1 cluster, got {len(counts)}", ln + 1)
        if top_down and sum(top_down[-1]) != len(counts):
            raise ParseError(
                f"level telescoping broken: level {g + 1} counts sum to "
                f"{sum(top_down[-1])} but level {g} lists {len(counts)} clusters",
                ln + 1,
            )
        top_down.append(counts)
        ln += 1
    if gamma >= 1 and sum(top_down[-1]) != n:
        raise ParseError(
            f"declared n={n} but level 1 counts sum to {sum(top_down[-1])}", ln
        )

    vectors_top_down: list[list[str]] = []
    for depth, g in enumerate(range(gamma, 0, -1)):
        counts = top_down[depth]
        level_vecs: list[str] = []
        for i, c in enumerate(counts, start=1):
            if c < 2:
                level_vecs.append("")
                continue
            line = need(ln)
            if c > MAX_CHILDREN:
                raise ParseError(f"level {g} cluster {i}: {_too_many_children(c)}", ln + 1)
            label = f"B{g}.{i}:"
            if not line.startswith(label + " ") and line != label:
                raise ParseError(f"expected bitmap line '{label}'", ln + 1)
            bits = line[len(label):].strip()
            want = c * (c - 1) // 2
            if len(bits) != want:
                raise ParseError(
                    f"bitmap for level {g} cluster {i}: length {len(bits)} != "
                    f"k(k-1)/2 = {want}",
                    ln + 1,
                )
            if bits.strip("01"):
                raise ParseError(
                    f"bitmap for level {g} cluster {i} has characters outside 0/1",
                    ln + 1,
                )
            level_vecs.append(bits)
            ln += 1
        vectors_top_down.append(level_vecs)
    if ln != len(lines):
        raise ParseError("unexpected trailing content", ln + 1)

    shape = HierarchyShape(p, list(reversed(top_down)))
    links = LinkTable.from_vectors(list(reversed(vectors_top_down)))
    model = NetworkModel(shape, links)
    problems = model._problems = validate(model)
    if problems:  # belt and braces; the line checks above should have caught it
        raise ParseError("; ".join(problems), len(lines))
    return model
