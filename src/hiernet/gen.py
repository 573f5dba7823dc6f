"""Seeded random generation of hierarchy shapes and link tables.

Shapes are drawn either bottom-up under a fixed node budget (the level
count emerges) or top-down under a fixed level count (the node count
emerges); the regular shape with p children everywhere is deterministic.
Links are drawn per internal vertex with probability omega = k**(-mu),
where k is the number of network nodes the vertex covers, so deeper (and
larger) clusters link their sub-clusters more sparsely as mu grows.

All randomness flows through `RngStream` with a fixed batching discipline,
which makes a (seed, stream) pair pin the network bit for bit:

  * by-nodes: one batch of n integers uniform on 1..p per level, n being
    the level's node budget; the leading draws become group sizes, the last
    used group is clipped to the remaining budget, and the surplus draws
    are discarded;
  * by-levels: one batch of w integers per level, w the cluster count;
  * links: one value per bit, clusters in index order and bits in pair
    order, bottom level first, drawn in blocks of whole clusters; uniforms
    drawn in pieces equal the same draws made at once.

Every entry point checks its parameters the same way: an integer one (p,
n, gamma, seed, stream) may be any value equal to an integer in range,
3.0 and numpy integers included, and mu any finite real >= 0; anything
else raises ParamError before a draw is made.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_CHILDREN,
    MAX_LINK_BITS,
    MAX_NODES,
    HierarchyShape,
    LinkTable,
    NetworkModel,
    ParamError,
    _bit_counts,
    _whole,
    pow_below,
)

__all__ = [
    "GenParams",
    "RngStream",
    "generate_shape_by_nodes",
    "generate_shape_by_levels",
    "generate_shape_regular",
    "generate_links",
    "generate_network",
]

_MODES = ("by-nodes", "by-levels", "regular")
# link bits are drawn in blocks of whole clusters holding at most about this many bits
_BLOCK_BITS = 1 << 20


class RngStream:
    """Deterministic draw stream for one network.

    Wraps PCG64 keyed by SeedSequence([seed, stream]); distinct (seed,
    stream) pairs give independent streams.  numpy guarantees a batch of
    draws equals the same draws made one at a time, and the test suite pins
    the stream against a frozen reference sequence so a silent upstream
    change would be caught.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _whole(seed, "seed", 0)
        self.stream = _whole(stream, "stream", 0)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream]))
        )

    def integers(self, high: int, size: int) -> np.ndarray:
        """`size` draws uniform on 1..high, both ends inclusive."""
        return self._gen.integers(1, high, size=size, endpoint=True)

    def uniforms(self, size: int) -> np.ndarray:
        """`size` draws uniform on [0, 1)."""
        return self._gen.random(size)


@dataclass(frozen=True)
class GenParams:
    """Parameters of one generated network.

    `mode` selects the shape algorithm: "by-nodes" fixes the node count n
    and lets the level count emerge, "by-levels" fixes gamma and lets n
    emerge, "regular" builds the deterministic p-ary shape with n = p**gamma.
    The mode's own size is given (n >= 1, or gamma >= 0) and the other left
    None; p, seed and that size are stored as ints.  A finite real `mu` >= 0,
    stored as given, controls link density; mu = 0 joins every sub-cluster
    pair and is kept as a diagnostic mode.
    """

    mode: str
    p: int
    mu: float
    seed: int
    n: int | None = None
    gamma: int | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParamError(f"mode must be one of {_MODES}, got {self.mode!r}")
        size, least, other = ("n", 1, "gamma") if self.mode == "by-nodes" else ("gamma", 0, "n")
        if getattr(self, other) is not None:
            raise ParamError(f"{self.mode} mode takes no {other}")
        for name, lo, hi in (("p", 2, MAX_NODES), ("seed", 0, None), (size, least, None)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, lo, hi))
        _check_mu(self.mu)


def _check_mu(mu) -> None:
    """ParamError unless mu is a finite real >= 0; the caller keeps mu as given."""
    if not (isinstance(mu, numbers.Real) and 0 <= mu < math.inf):
        raise ParamError(f"mu must be finite and >= 0, got {mu!r}")


def generate_shape_by_nodes(n: int, p: int, rng: RngStream) -> HierarchyShape:
    """Grow a shape bottom-up until one root cluster covers all n nodes.

    Each level partitions the one below it into groups whose sizes are
    drawn uniform on 1..p, the last group clipped to whatever remains; a
    level that ends up with a single group is the root.  n = 1 yields the
    degenerate zero-level shape.
    """
    p = _whole(p, "p", 2, MAX_NODES)
    levels = []
    width = _whole(n, "n", 1, MAX_NODES)
    while width > 1:
        draws = np.asarray(rng.integers(p, size=width), dtype=np.int64)
        cum = np.cumsum(draws)
        # first prefix whose group sizes cover the budget; draws past it are unused
        g = int(np.searchsorted(cum, width, side="left")) + 1
        counts = draws[:g].astype(np.int32)
        counts[g - 1] = width - (int(cum[g - 1]) - int(counts[g - 1]))
        levels.append(counts)
        width = g
    return HierarchyShape(p, levels)


def generate_shape_by_levels(gamma: int, p: int, rng: RngStream) -> HierarchyShape:
    """Grow a shape top-down for exactly gamma levels; the node count emerges."""
    p = _whole(p, "p", 2, MAX_NODES)
    top_down = []
    width = 1
    for _ in range(_whole(gamma, "gamma", 0)):
        draws = np.asarray(rng.integers(p, size=width), dtype=np.int64)
        top_down.append(draws)
        width = int(draws.sum())
        if width > MAX_NODES:
            raise ParamError(f"level width {width} exceeds the supported maximum {MAX_NODES}")
    return HierarchyShape(p, list(reversed(top_down)))


def generate_shape_regular(gamma: int, p: int) -> HierarchyShape:
    """The deterministic shape with p children everywhere; n = p**gamma."""
    p, gamma = _whole(p, "p", 2, MAX_NODES), _whole(gamma, "gamma", 0)
    if not pow_below(p, gamma, MAX_NODES + 1):
        raise ParamError(
            f"p**gamma for p={p}, gamma={gamma} exceeds the supported maximum {MAX_NODES}"
        )
    levels = [np.full(p ** (gamma - g), p, dtype=np.int32) for g in range(1, gamma + 1)]
    return HierarchyShape(p, levels)


def generate_links(shape: HierarchyShape, mu: float, rng: RngStream) -> LinkTable:
    """Draw every link bit of a shape.

    A vertex covering k network nodes sets each of its bits independently
    with probability k**(-mu).  One uniform is consumed per bit, levels
    bottom to top, clusters in index order, bits in pair order; mu = 0
    therefore sets every bit, since uniforms live in [0, 1).  A shape with
    more than MAX_LINK_BITS bits, or with a vertex of more than
    MAX_CHILDREN children, is refused before anything is drawn.

    Each level is drawn in blocks of whole clusters, at most about
    _BLOCK_BITS bits a block, and each block's uniforms are compared with
    its own clusters' omega: no float array is as long as the level.
    """
    _check_mu(mu)
    nbits_per_level = _link_bit_counts(shape)
    flats = []
    for g, nbits in enumerate(nbits_per_level, start=1):
        sizes, total = shape.sizes_at(g), int(nbits.sum())
        rows = len(nbits) if total <= _BLOCK_BITS else max(1, _BLOCK_BITS // int(nbits.max()))
        blocks = []
        for lo in range(0, len(nbits), rows):
            nb = nbits[lo:lo + rows]
            omega = sizes[lo:lo + rows].astype(np.float64) ** (-float(mu))
            blocks.append(rng.uniforms(int(nb.sum())) < np.repeat(omega, nb))
        bits = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        flats.append(bits.view(np.uint8))  # a bool is one byte, 0 or 1
    return LinkTable(flats, nbits_per_level)


def _link_bit_counts(shape: HierarchyShape) -> list[np.ndarray]:
    """Per-level bit counts c(c-1)/2 of every vertex.

    Refuses a shape needing more than MAX_LINK_BITS bits in all, or with a
    vertex of more than MAX_CHILDREN children; each level is held to the
    bit limit first.
    """
    out, total = [], 0
    for g in range(1, shape.gamma + 1):
        counts = shape.counts_at(g)
        top = int(counts.max()) if len(counts) else 0
        # the widest vertex is checked on its own first, so the int64 sum of a
        # level's bits cannot wrap
        if top * (top - 1) // 2 <= MAX_LINK_BITS:
            out.append(_bit_counts(counts))
            total += int(out[-1].sum())
        if top * (top - 1) // 2 > MAX_LINK_BITS or total > MAX_LINK_BITS:
            raise ParamError(
                f"the shape needs more than {MAX_LINK_BITS} link bits, the supported maximum"
            )
        if top > MAX_CHILDREN:
            raise ParamError(
                f"a level-{g} vertex has {top} children, more than the supported "
                f"maximum {MAX_CHILDREN}"
            )
    return out


def generate_network(params: GenParams, stream: int = 0) -> NetworkModel:
    """Generate shape and links under one (seed, stream) pair.

    The same RngStream runs through shape and link draws in that order, so
    the pair (params, stream) determines the model bit for bit.
    """
    rng = RngStream(params.seed, stream)
    if params.mode == "by-nodes":
        shape = generate_shape_by_nodes(params.n, params.p, rng)
    elif params.mode == "by-levels":
        shape = generate_shape_by_levels(params.gamma, params.p, rng)
    else:
        shape = generate_shape_regular(params.gamma, params.p)
    return NetworkModel._trusted(shape, generate_links(shape, params.mu, rng))
