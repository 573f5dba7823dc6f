import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiernet import ensemble
from hiernet.core import (
    MAX_CHILDREN,
    MAX_LINK_BITS,
    HierarchyShape,
    LinkTable,
    ParamError,
    validate,
)
from hiernet.gen import (
    MAX_NODES,
    GenParams,
    RngStream,
    generate_links,
    generate_network,
    generate_shape_by_levels,
    generate_shape_by_nodes,
    generate_shape_regular,
)


class FakeStream:
    """Scripted stand-in for RngStream; serves pre-set draws in order."""

    def __init__(self, ints=(), floats=()):
        self._ints = list(ints)
        self._floats = list(floats)

    def integers(self, high, size):
        out, self._ints = self._ints[:size], self._ints[size:]
        assert len(out) == size, "script ran out of integer draws"
        return np.array(out, dtype=np.int64)

    def uniforms(self, size):
        out, self._floats = self._floats[:size], self._floats[size:]
        assert len(out) == size, "script ran out of float draws"
        return np.array(out, dtype=np.float64)


# -- parameter validation ----------------------------------------------------


def test_params_validation():
    GenParams(mode="by-nodes", p=3, mu=0.5, seed=1, n=10)
    GenParams(mode="by-levels", p=3, mu=0.0, seed=0, gamma=0)
    GenParams(mode="regular", p=2, mu=2.5, seed=7, gamma=3)
    with pytest.raises(ParamError):
        GenParams(mode="spiral", p=3, mu=0.5, seed=1, n=10)
    with pytest.raises(ParamError):
        GenParams(mode="by-nodes", p=1, mu=0.5, seed=1, n=10)
    with pytest.raises(ParamError):
        GenParams(mode="by-nodes", p=3, mu=-0.1, seed=1, n=10)
    for mu in (float("nan"), float("inf")):
        with pytest.raises(ParamError):
            GenParams(mode="by-nodes", p=3, mu=mu, seed=1, n=10)
        with pytest.raises(ParamError, match="mu"):
            generate_links(HierarchyShape(2, [[2]]), mu, FakeStream())
    with pytest.raises(ParamError):
        GenParams(mode="by-nodes", p=3, mu=0.5, seed=-1, n=10)
    with pytest.raises(ParamError):
        GenParams(mode="by-nodes", p=3, mu=0.5, seed=1, n=0)
    with pytest.raises(ParamError):
        GenParams(mode="by-nodes", p=3, mu=0.5, seed=1, n=4, gamma=2)
    with pytest.raises(ParamError):
        GenParams(mode="by-levels", p=3, mu=0.5, seed=1)
    with pytest.raises(ParamError):
        GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=-1)
    for bad in (
        dict(mode="by-nodes", p=3, mu=0.5, seed=1.5, n=10),
        dict(mode="by-nodes", p=3, mu=0.5, seed="1", n=10),
        dict(mode="by-nodes", p=3, mu=0.5, seed=None, n=10),
        dict(mode="by-nodes", p=3, mu=0.5, seed=1, n=10.5),
        dict(mode="by-nodes", p=3, mu=0.5, seed=1, n=float("inf")),
        dict(mode="by-nodes", p=3.5, mu=0.5, seed=1, n=10),
        dict(mode="by-levels", p=3, mu=0.5, seed=1, gamma=2.5),
        dict(mode="regular", p=3, mu=0.5, seed=1, gamma=float("nan")),
    ):
        with pytest.raises(ParamError):
            GenParams(**bad)
    # integral values of any numeric type are kept, as Python ints
    params = GenParams(mode="by-nodes", p=3.0, mu=0.5, seed=np.int64(7), n=10.0)
    assert (params.p, params.seed, params.n) == (3, 7, 10)
    assert all(type(v) is int for v in (params.p, params.seed, params.n))
    assert GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=np.int32(2)).gamma == 2
    for seed, stream in ((-1, 0), (0, -2), (1.5, 0), (1, 0.5), ("1", 0), (None, 0), (1, None)):
        with pytest.raises(ParamError):
            RngStream(seed, stream)
    with pytest.raises(ParamError):
        generate_network(GenParams(mode="by-nodes", p=3, mu=0.5, seed=1, n=10), stream=1.5)
    # an integral float draws the same stream as its int
    assert list(RngStream(42.0, np.int64(1)).integers(3, 8)) == list(RngStream(42, 1).integers(3, 8))


@pytest.mark.parametrize("make", [
    *(lambda p=p: HierarchyShape(p, [[3]]) for p in (None, "x", math.nan, math.inf)),
    lambda: generate_shape_regular(2, "3"),
    lambda: generate_shape_regular(2.5, 3),
    lambda: generate_shape_by_nodes(5.5, 3, FakeStream()),
    lambda: generate_shape_by_nodes("5", 3, FakeStream()),
    lambda: generate_shape_by_levels(2, None, FakeStream()),
    lambda: GenParams(mode="by-nodes", p=3, mu="0.5", seed=1, n=10),
    lambda: GenParams(mode="by-nodes", p=3, mu=None, seed=1, n=10),
    lambda: generate_links(HierarchyShape(2, [[2]]), "0.5", FakeStream()),
    lambda: LinkTable([[0, 1]], [[1, 1], [2]]),
], ids=["shape-p-None", "shape-p-str", "shape-p-nan", "shape-p-inf", "regular-p-str",
        "regular-gamma-2.5", "by-nodes-n-5.5", "by-nodes-n-str", "by-levels-p-None",
        "params-mu-str", "params-mu-None", "links-mu-str", "link-table-level-counts"])
def test_bad_parameters_raise_param_error(make):
    with pytest.raises(ParamError):
        make()


# -- scripted shape traces ---------------------------------------------------


def test_by_nodes_single_cluster_trace():
    # five nodes, first draw already covers them: one level [5]
    shape = generate_shape_by_nodes(5, 5, FakeStream(ints=[5, 1, 1, 1, 1]))
    assert shape.levels == ((5,),)
    assert shape.n == 5 and shape.gamma == 1


def test_by_nodes_two_level_trace():
    # 4 nodes at p=3: level 1 needs draws 1,3 (covers 4), level 2 then 2
    shape = generate_shape_by_nodes(4, 3, FakeStream(ints=[1, 3, 2, 2, 2, 3]))
    assert shape.levels == ((1, 3), (2,))


def test_by_nodes_clips_final_draw():
    # draws 2,2,3 at width 5 overshoot by 2: the last count is clipped to 1
    shape = generate_shape_by_nodes(5, 3, FakeStream(ints=[2, 2, 3, 1, 1, 3, 1, 1]))
    assert shape.levels[0] == (2, 2, 1)
    assert shape.levels[1] == (3,)


def test_by_nodes_single_node():
    shape = generate_shape_by_nodes(1, 3, FakeStream())
    assert shape.gamma == 0 and shape.n == 1


def test_by_levels_trace():
    # top-down: root draws 2, its children draw 1 and 3
    shape = generate_shape_by_levels(2, 3, FakeStream(ints=[2, 1, 3]))
    assert shape.levels == ((1, 3), (2,))
    assert shape.n == 4


def test_by_levels_zero():
    shape = generate_shape_by_levels(0, 3, FakeStream())
    assert shape.gamma == 0 and shape.n == 1


def test_regular_shape():
    shape = generate_shape_regular(3, 4)
    assert shape.n == 64
    assert shape.levels == ((4,) * 16, (4,) * 4, (4,))
    assert generate_shape_regular(0, 3).n == 1


def test_size_guards():
    with pytest.raises(ParamError):
        generate_shape_regular(30, 3)  # 3**30 far above MAX_NODES
    with pytest.raises(ParamError):
        generate_shape_by_nodes(MAX_NODES + 1, 3, FakeStream())


def test_p_above_max_nodes_is_refused():
    huge = 10**20  # past int64, where numpy's integer draws would raise
    with pytest.raises(ParamError):
        GenParams(mode="by-nodes", p=huge, mu=0.5, seed=1, n=5)
    with pytest.raises(ParamError):
        GenParams(mode="by-levels", p=MAX_NODES + 1, mu=0.5, seed=1, gamma=2)
    GenParams(mode="by-levels", p=MAX_NODES, mu=0.5, seed=1, gamma=2)
    for draw in (lambda: generate_shape_by_nodes(5, huge, FakeStream()),
                 lambda: generate_shape_by_levels(2, huge, FakeStream()),
                 lambda: generate_shape_regular(1, huge)):
        with pytest.raises(ParamError):
            draw()


def test_link_bit_total_is_refused_before_any_draw():
    # one 2**17-child root alone needs ~2**33 bits; two 40000-child vertices
    # need 1.6e9 together though each fits; neither shape is allocated at scale
    for shape in (HierarchyShape(2**17, [[2**17]]),
                  HierarchyShape(40_000, [[40_000, 40_000], [2]])):
        with pytest.raises(ParamError, match="link bits"):
            generate_links(shape, 0.5, FakeStream())  # FakeStream() has no draws to give
    # a p=3 network on MAX_NODES nodes needs at most 1.5 bits per node
    assert MAX_LINK_BITS >= 5 * (3 * MAX_NODES // 2)


def test_vertex_past_max_children_is_refused_before_any_draw():
    # 1025 children need only 524800 bits, far inside MAX_LINK_BITS
    with pytest.raises(ParamError, match="1025 children, more than the supported maximum 1024"):
        generate_links(HierarchyShape(2000, [[1025, 975], [2]]), 0.5, FakeStream())
    links = generate_links(HierarchyShape(MAX_CHILDREN, [[MAX_CHILDREN]]), 0.5, RngStream(1))
    assert links.nbits_at(1).tolist() == [MAX_CHILDREN * (MAX_CHILDREN - 1) // 2]


# -- scripted link traces ----------------------------------------------------


def test_links_threshold_is_size_to_minus_mu():
    # 4-node cluster at mu=0.5: omega = 4**-0.5 = 0.5 exactly
    shape = generate_shape_by_levels(1, 4, FakeStream(ints=[4]))
    links = generate_links(shape, 0.5, FakeStream(floats=[0.49, 0.5, 0.51, 0.1, 0.9, 0.5]))
    assert links.bitstring(1, 1) == "100100"


def test_links_mu_zero_sets_every_bit():
    shape = generate_shape_regular(2, 3)
    links = generate_links(shape, 0.0, RngStream(123))
    for g in (1, 2):
        for i in range(1, shape.n_clusters(g) + 1):
            assert links.bitstring(g, i) == "1" * (3 * 2 // 2)


def test_links_draw_order_is_level_then_cluster():
    # two levels: level 1 first (clusters in order), then the root
    shape = generate_shape_by_levels(2, 2, FakeStream(ints=[2, 2, 2]))
    floats = [0.1, 0.9, 0.2]  # cluster (1,1), cluster (1,2), root
    links = generate_links(shape, 1.0, FakeStream(floats=floats))
    # level-1 clusters hold 2 nodes: omega = 0.5; root holds 4: omega = 0.25
    assert links.bitstring(1, 1) == "1"
    assert links.bitstring(1, 2) == "0"
    assert links.bitstring(2, 1) == "1"


def test_level1_omega_example():
    assert math.isclose(3.0 ** -0.5, 0.5774, abs_tol=5e-5)


def test_root_expected_bits_example():
    # regular p=3, gamma=2: root cluster size 9, so each of its 3 bits is
    # set with probability 9**-0.3 and the expected set count is 1.5518
    shape = generate_shape_regular(2, 3)
    omega = 9.0 ** -0.3
    assert math.isclose(3 * omega, 1.5518, abs_tol=5e-4)
    hits = 0
    trials = 10_000
    for s in range(trials):
        links = generate_links(shape, 0.3, RngStream(s, 1))
        hits += int(links.vector(2, 1).sum())
    mean = hits / trials
    assert abs(mean - 3 * omega) < 0.05 * (3 * omega)


# -- determinism and the frozen reference stream -----------------------------


def test_frozen_reference_stream():
    assert list(RngStream(42, 0).integers(3, 8)) == [1, 3, 2, 2, 2, 3, 1, 3]
    floats = RngStream(42, 0).uniforms(4)
    assert floats.tolist() == [
        0.7739560485559633,
        0.4388784397520523,
        0.8585979199113825,
        0.6973680290593639,
    ]
    assert list(RngStream(42, 1).integers(3, 8)) == [2, 3, 2, 1, 3, 2, 3, 2]


def test_integers_cover_full_range_inclusive():
    draws = RngStream(99).integers(3, 3000)
    assert set(np.unique(draws)) == {1, 2, 3}


def test_generate_network_deterministic():
    params = GenParams(mode="by-nodes", p=4, mu=0.7, seed=2024, n=60)
    a = generate_network(params)
    b = generate_network(params)
    assert a == b
    c = generate_network(params, stream=1)
    assert c != a  # different derived stream, different network


def test_streams_are_independent():
    from hiernet.core import serialize

    params = GenParams(mode="by-levels", p=3, mu=0.4, seed=5, gamma=4)
    texts = {serialize(generate_network(params, stream=s)) for s in range(4)}
    assert len(texts) == 4


# -- distributional sanity ---------------------------------------------------


def test_monotone_bits_under_mu():
    # shared uniforms: raising mu can only clear bits, never set new ones
    shape = generate_shape_regular(3, 3)
    nbits = sum(
        int((shape.counts_at(g) * (shape.counts_at(g) - 1) // 2).sum())
        for g in range(1, 4)
    )
    floats = RngStream(17).uniforms(nbits)
    prev_set = None
    for mu in (0.0, 0.2, 0.5, 1.0, 2.0):
        links = generate_links(shape, mu, FakeStream(floats=list(floats)))
        bits = np.concatenate([links.flat_at(g) for g in range(1, 4)])
        if prev_set is not None:
            assert np.all(bits <= prev_set)
        prev_set = bits


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_generated_networks_validate(seed):
    p = 2 + seed % 4
    n = 1 + seed % 97
    m = generate_network(GenParams(mode="by-nodes", p=p, mu=0.5, seed=seed, n=n))
    assert m.shape.n == n
    assert validate(m) == []
    mode2 = GenParams(mode="by-levels", p=p, mu=1.0, seed=seed, gamma=seed % 5)
    m2 = generate_network(mode2)
    assert validate(m2) == []
    assert m2.shape.n <= p ** (seed % 5)
    m3 = generate_network(GenParams(mode="regular", p=p, mu=0.5, seed=seed, gamma=seed % 4))
    assert validate(m3) == []
    assert m3.shape.n == p ** (seed % 4)


@pytest.mark.parametrize("p,seed", [(3, 7), (2, 11), (5, 20260822)])
def test_stacked_copies_break_only_the_one_root_rule(p, seed):
    # the analytics trust a forest as built; this pins what `validate` would say
    copies = [generate_network(GenParams(mode="by-nodes", p=p, mu=0.8, seed=seed, n=n), stream=s)
              for n, s in ((243, 1), (1, 1), (243, 2), (30, 3))]
    depth = max(m.shape.gamma for m in copies)
    assert len({m.shape.gamma for m in copies}) >= 3
    forest = ensemble._forest(p, copies)
    assert validate(forest) == [f"level {depth}: root level has 4 clusters, want 1"]


def test_mean_levels_tracks_log_estimate():
    # quick version of the average-depth law: gamma concentrates near
    # log base (p+1)/2 of n
    p, n = 3, 1000
    gams = []
    for s in range(200):
        m = generate_shape_by_nodes(n, p, RngStream(s))
        gams.append(m.gamma)
    target = math.ceil(math.log(n) / math.log((p + 1) / 2))
    assert abs(sum(gams) / len(gams) - target) <= 0.25 * target
