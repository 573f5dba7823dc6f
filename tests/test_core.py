import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiernet.analytics as an
import hiernet.core as core
from hiernet import ensemble, oracle
from hiernet.analytics import distance, node_degree
from hiernet.core import (
    ClusterRef,
    HierarchyShape,
    InvalidPairError,
    InvalidRefError,
    LinkTable,
    NetworkModel,
    ParamError,
    ParseError,
    PathEntry,
    checked_cluster,
    cluster_size,
    deserialize,
    node_path,
    pair_index,
    psi,
    serialize,
    validate,
)
from hiernet.analytics import edge_count
from hiernet.gen import GenParams, generate_network
from conftest import build_model

GOLDEN_TEXT = (
    "BHNET 1\n"
    "p=4 gamma=2 n=9\n"
    "L2: 3\n"
    "L1: 3 4 2\n"
    "B2.1: 100\n"
    "B1.1: 011\n"
    "B1.2: 100110\n"
    "B1.3: 1\n"
)


# -- pair_index --------------------------------------------------------------


def test_pair_index_examples():
    assert pair_index(1, 2, 4) == 0
    assert pair_index(2, 4, 4) == 4
    assert pair_index(3, 4, 4) == 5


@pytest.mark.parametrize("k", range(2, 12))
def test_pair_index_is_lexicographic_bijection(k):
    seen = []
    for n in range(1, k + 1):
        for s in range(n + 1, k + 1):
            seen.append(pair_index(n, s, k))
            assert core.pair_offset(n - 1, s - 1, k) == seen[-1]
    assert seen == list(range(k * (k - 1) // 2))
    # the whole-network passes list the pairs in the same order
    iu, ju = an._child_pairs(k)
    assert [core.pair_offset(i, j, k) for i, j in zip(iu.tolist(), ju.tolist())] == seen


@pytest.mark.parametrize("n,s,k", [(0, 1, 4), (2, 2, 4), (3, 2, 4), (1, 5, 4), (4, 5, 4)])
def test_pair_index_rejects_bad_pairs(n, s, k):
    with pytest.raises(InvalidPairError):
        pair_index(n, s, k)


# -- psi and refs ------------------------------------------------------------


def test_psi_reads_bitmaps(demo9):
    a = ClusterRef(1, 1)
    assert psi(demo9, a, 1, 2) == 0
    assert psi(demo9, a, 1, 3) == 1
    assert psi(demo9, a, 2, 3) == 1
    b = ClusterRef(1, 2)
    assert [psi(demo9, b, *pr) for pr in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]] == [
        1, 0, 0, 1, 1, 0,
    ]
    root = ClusterRef(2, 1)
    assert psi(demo9, root, 1, 2) == 1
    assert psi(demo9, root, 1, 3) == 0


def test_psi_symmetric_and_zero_diagonal(demo9):
    root = ClusterRef(2, 1)
    for n in range(1, 4):
        assert psi(demo9, root, n, n) == 0
        for s in range(1, 4):
            assert psi(demo9, root, n, s) == psi(demo9, root, s, n)


def test_psi_rejects_bad_positions(demo9):
    with pytest.raises(InvalidPairError):
        psi(demo9, ClusterRef(2, 1), 0, 2)
    with pytest.raises(InvalidPairError):
        psi(demo9, ClusterRef(2, 1), 1, 4)
    with pytest.raises(InvalidRefError):
        psi(demo9, ClusterRef(3, 1), 1, 2)
    with pytest.raises(InvalidRefError):
        psi(demo9, ClusterRef(1, 4), 1, 2)


def test_cluster_size(demo9):
    assert cluster_size(demo9, ClusterRef(2, 1)) == 9
    assert cluster_size(demo9, ClusterRef(1, 2)) == 4
    assert cluster_size(demo9, ClusterRef(0, 5)) == 1
    with pytest.raises(InvalidRefError):
        cluster_size(demo9, ClusterRef(0, 10))


def test_node_path(demo9):
    assert node_path(demo9, 1) == (
        PathEntry(gamma=1, cluster_index=1, child_pos=1),
        PathEntry(gamma=2, cluster_index=1, child_pos=1),
    )
    assert node_path(demo9, 9) == (
        PathEntry(gamma=1, cluster_index=3, child_pos=2),
        PathEntry(gamma=2, cluster_index=1, child_pos=3),
    )
    with pytest.raises(InvalidRefError):
        node_path(demo9, 0)
    with pytest.raises(InvalidRefError):
        node_path(demo9, 10)


def test_node_path_degenerate():
    single = NetworkModel(HierarchyShape(3, []), LinkTable([], []))
    assert single.shape.n == 1 and single.shape.gamma == 0
    assert node_path(single, 1) == ()


# -- validate ----------------------------------------------------------------


def test_validate_clean(demo9, k4):
    assert validate(demo9) == []
    assert validate(k4) == []


def test_validate_count_out_of_range():
    m = build_model(2, [[3, 1], [2]], [["110", ""], ["1"]])
    msgs = validate(m)
    assert any("count 3 outside 1..p=2" in s for s in msgs)


def test_validate_root_width():
    m = build_model(4, [[2, 2]], [["1", "1"]])
    assert any("root level has 2 clusters, want 1" in s for s in validate(m))


def test_validate_telescoping():
    m = build_model(4, [[2, 2], [3]], [["1", "1"], ["111"]])
    assert any("telescoping broken" in s for s in validate(m))


def test_validate_bitmap_length():
    m = build_model(4, [[3], [1]], [["01"], [""]])
    assert any("bitmap length != k(k-1)/2 (got 2, want 3)" in s for s in validate(m))
    # bit counts that match the shape but a flat array too short or too long:
    # the flat length closes the last vector, so both are caught
    shape = HierarchyShape(3, [[3]])
    for flat, got in ((np.zeros(2, np.uint8), 2), (np.ones(5, np.uint8), 5)):
        m = NetworkModel(shape, LinkTable([flat], [[3]]))
        assert validate(m) == [f"level 1 cluster 1: bitmap length != k(k-1)/2 (got {got}, want 3)"]
        assert m.links.nbits_at(1).tolist() == [got]
        assert len(m.links.vector(1, 1)) == got
        with pytest.raises(ParamError):
            serialize(m)
    # a vector of the wrong length moves every later end; the first is named
    for vectors, j, got, want in ((["", "011", "1"], 1, 0, 1), (["1", "01", "1"], 2, 2, 3)):
        m = NetworkModel(HierarchyShape(3, [[2, 3, 2], [3]]),
                         LinkTable.from_vectors([vectors, ["111"]]))
        assert validate(m) == [f"level 1 cluster {j}: bitmap length != k(k-1)/2 "
                               f"(got {got}, want {want})"]


def test_link_table_reads_lengths_off_the_offsets(demo9):
    links = demo9.links
    assert links.nbits_at(1).tolist() == [3, 6, 1]
    assert links.starts_at(1).tolist() == [0, 3, 9]
    assert [links.bitstring(1, i) for i in (1, 2, 3)] == ["011", "100110", "1"]
    assert LinkTable.from_vectors([["01", "1"]]) != LinkTable.from_vectors([["0", "11"]])


def test_validate_bit_values():
    shape = HierarchyShape(4, [[2], [1]])
    links = LinkTable([np.array([2], np.uint8), np.zeros(0, np.uint8)],
                      [np.array([1]), np.array([0])])
    assert any("bit values outside 0/1" in s for s in validate(NetworkModel(shape, links)))


def test_validate_level_count_mismatch():
    shape = HierarchyShape(4, [[2, 2], [2]])
    links = LinkTable.from_vectors([["1", "1"]])
    assert any("link table has 1 levels" in s for s in validate(NetworkModel(shape, links)))


def test_validate_vertex_past_max_children():
    c = core.MAX_CHILDREN + 1
    shape = HierarchyShape(c, [[c]])
    links = LinkTable([np.zeros(c * (c - 1) // 2, np.uint8)], [np.array([c * (c - 1) // 2])])
    msgs = validate(NetworkModel(shape, links))
    assert msgs == [f"level 1 cluster 1: {c} children exceed the supported maximum {c - 1}"]



def test_pair_count_of_max_nodes_is_float64_exact():
    # the distance scan sums pair weights in float64 bincounts; every partial
    # sum is an integer at most C(N, 2), exact only below 2**53
    assert math.comb(core.MAX_NODES, 2) < 2**53

# the broken models of the test_validate_* cases above, each built afresh
BROKEN_MODELS = {
    "count-range": lambda: build_model(2, [[3, 1], [2]], [["110", ""], ["1"]]),
    "root-width": lambda: build_model(4, [[2, 2]], [["1", "1"]]),
    "telescoping": lambda: build_model(4, [[2, 2], [3]], [["1", "1"], ["111"]]),
    "bitmap-length": lambda: build_model(4, [[3], [1]], [["01"], [""]]),
    "flat-2-bits": lambda: NetworkModel(HierarchyShape(3, [[3]]),
                                        LinkTable([np.zeros(2, np.uint8)], [[3]])),
    "flat-5-bits": lambda: NetworkModel(HierarchyShape(3, [[3]]),
                                        LinkTable([np.ones(5, np.uint8)], [[3]])),
    "bit-values": lambda: NetworkModel(
        HierarchyShape(4, [[2], [1]]),
        LinkTable([np.array([2], np.uint8), np.zeros(0, np.uint8)], [[1], [0]])),
    "level-count": lambda: NetworkModel(HierarchyShape(4, [[2, 2], [2]]),
                                        LinkTable.from_vectors([["1", "1"]])),
    "n-past-p-pow-gamma": lambda: build_model(2, [[2, 2, 2], [3]],
                                              [["1", "1", "1"], ["111"]]),
}

_NODE_ARGS = {"node_degree": (1,), "triangles_at_node": (1,), "clustering_coefficient": (1,),
              "distance": (1, 2)}


def _analytics_reader(name):
    """A public analytics function as a function of the model alone."""
    fn, args = getattr(an, name), _NODE_ARGS.get(name, ())
    return lambda m: fn(m, *args)


_READERS = {
    **{name: _analytics_reader(name) for name in an.__all__
       if name not in ("ClusterAggregates", "Histogram")},
    "node_path": lambda m: node_path(m, 1),
    "psi": lambda m: psi(m, ClusterRef(1, 1), 1, 2),
    "oracle.expand": oracle.expand,
    "compute_properties": lambda m: ensemble.compute_properties(m, ensemble.PROPERTIES),
}


@pytest.mark.parametrize("broken", BROKEN_MODELS)
def test_every_reader_refuses_an_invalid_model(broken, monkeypatch):
    problems = validate(BROKEN_MODELS[broken]())
    assert problems
    models = {name: BROKEN_MODELS[broken]() for name in _READERS}  # each read first
    for name, read in _READERS.items():
        with pytest.raises(ParamError) as err:
            read(models[name])
        assert str(err.value) == "invalid model: " + "; ".join(problems), name
    # the findings are kept: a second read raises again with no new `validate`
    monkeypatch.setattr(core, "validate", None)
    for name, read in _READERS.items():
        with pytest.raises(ParamError):
            read(models[name])


def test_shape_accessors_refuse_counts_that_do_not_telescope():
    with pytest.raises(ParamError, match="shape has counts below 1"):
        HierarchyShape(3, [[0]]).sizes_at(1)
    with pytest.raises(ParamError, match="inconsistent level widths"):
        HierarchyShape(4, [[2, 2], [3]]).sizes_at(2)


def test_shapes_past_max_nodes_have_no_layout(monkeypatch):
    # the int32 layout holds MAX_NODES nodes; a larger shape is refused, not wrapped
    monkeypatch.setattr(core, "MAX_NODES", 8)
    with pytest.raises(ParamError, match="9 nodes exceeds the supported maximum 8"):
        HierarchyShape(4, [[3, 4, 2], [3]]).sizes_at(1)
    assert HierarchyShape(4, [[3, 3, 2], [3]]).sizes_at(2).tolist() == [8]


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, np.float64(1.0)])
def test_cluster_references_must_be_integers(demo9, bad):
    shape = demo9.shape
    refused = [
        lambda: checked_cluster(shape, bad, 1),
        lambda: checked_cluster(shape, 1, bad),
        lambda: shape.count(1, bad),
        lambda: shape.count(bad, 1),
        lambda: shape.cluster_size(1, bad),
        lambda: shape.cluster_size(bad, 1),
        lambda: shape.child_range(1, bad),
        lambda: shape.leaf_range(1, bad),
        lambda: shape.leaf_range(0, bad),
        lambda: shape.node_cluster(bad, 3),
        lambda: shape.counts_at(bad),
        lambda: shape.sizes_at(bad),
        lambda: demo9.links.vector(1, bad),
        lambda: demo9.links.vector(bad, 1),
        lambda: psi(demo9, ClusterRef(1, bad), 1, 2),
        lambda: psi(demo9, ClusterRef(bad, 1), 1, 2),
        lambda: edge_count(demo9, ClusterRef(1, bad)),
        lambda: edge_count(demo9, ClusterRef(bad, 1)),
        lambda: cluster_size(demo9, ClusterRef(0, bad)),
    ]
    for call in refused:
        with pytest.raises(InvalidRefError):
            call()
    for call in (lambda: pair_index(1, bad, 3), lambda: psi(demo9, ClusterRef(1, 1), bad, 2),
                 lambda: psi(demo9, ClusterRef(1, 1), 2, bad)):
        with pytest.raises(InvalidPairError):
            call()


def test_cluster_references_accept_numpy_integers(demo9):
    shape = demo9.shape
    assert checked_cluster(shape, np.int64(1), np.int32(2)) == (1, 2)
    assert checked_cluster(shape, 0, np.uint8(9)) == (0, 9)
    assert shape.count(np.int64(1), np.int64(2)) == 4
    assert shape.cluster_size(np.int32(0), np.int64(4)) == 1
    assert shape.child_range(np.int64(2), np.int64(1)) == (0, 3)
    assert shape.leaf_range(np.int64(1), np.int64(2)) == (3, 7)
    assert shape.node_cluster(np.int64(1), 9) == 3
    assert demo9.links.bitstring(np.int64(1), np.int64(2)) == "100110"
    assert psi(demo9, ClusterRef(np.int64(1), np.int64(2)), np.int64(1), np.int64(2)) == 1
    assert pair_index(np.int64(1), np.int64(2), np.int64(4)) == 0
    assert edge_count(demo9, ClusterRef(np.int64(1), np.int64(2))) == 3
    for g, i in ((3, 1), (-1, 1), (1, 0), (1, 4), (0, 0), (0, 10)):
        with pytest.raises(InvalidRefError):
            checked_cluster(shape, g, i)


@pytest.mark.parametrize("make", [
    lambda: HierarchyShape(4, [[3.5]]),
    lambda: HierarchyShape(4, [[3.0]]),
    lambda: HierarchyShape(4, [["3"]]),
    lambda: HierarchyShape(4, [[2**70]]),
    lambda: HierarchyShape(4, [[2**31]]),  # past the int32 counts
    lambda: HierarchyShape(4, [[1, [2]]]),
    lambda: LinkTable([[0.5, 1, 1]], [[3]]),
    lambda: LinkTable([np.array([0.5, 1, 1])], [[3]]),
    lambda: LinkTable([np.array([0.0, 1.0, 1.0])], [[3]]),
    lambda: LinkTable([[1, 1, 256]], [[3]]),
    lambda: LinkTable([[1, 1, -1]], [[3]]),
    lambda: LinkTable([[1, [1], 1]], [[3]]),
    lambda: LinkTable([[1, 1, 1]], [[3.5]]),
    lambda: LinkTable.from_vectors([[[0.5, 1, 1]]]),
    lambda: LinkTable.from_vectors([[[1, float("nan"), 1]]]),
])
def test_constructors_refuse_non_integers(make):
    with pytest.raises(ParamError):
        make()


def test_constructors_take_integers_of_any_dtype():
    assert HierarchyShape(4, [np.array([3], np.uint16)]) == HierarchyShape(4, [[3]])
    p = HierarchyShape(3.0, [[3]]).p  # an integral float p is kept as a Python int
    assert p == 3 and type(p) is int
    links = LinkTable([np.array([0, 1, 1], np.int32)], [np.array([3], np.int32)])
    assert links == LinkTable.from_vectors([["011"]])
    assert LinkTable([[]], [[]]).nbits_at(1).tolist() == []
    assert LinkTable.from_vectors([[[False, True, True]]]) == links
    # a bit above 1 is kept for `validate` to report
    m = NetworkModel(HierarchyShape(3, [[3]]), LinkTable([[0, 2, 1]], [[3]]))
    assert validate(m) == ["level 1: bit values outside 0/1"]


def test_n_exceeds_p_pow_gamma():
    m = build_model(2, [[2, 2, 2], [3]], [["1", "1", "1"], ["111"]])
    assert any("exceeds p^gamma" in s for s in validate(m))


# -- serialization -----------------------------------------------------------


def test_serialize_golden(demo9):
    assert serialize(demo9) == GOLDEN_TEXT


def test_round_trip(demo9, k4):
    for m in (demo9, k4):
        assert deserialize(serialize(m)) == m


def test_round_trip_degenerate():
    single = NetworkModel(HierarchyShape(3, []), LinkTable([], []))
    text = serialize(single)
    assert text == "BHNET 1\np=3 gamma=0 n=1\n"
    assert deserialize(text) == single


def test_serialize_refuses_invalid():
    m = build_model(4, [[2, 2]], [["1", "1"]])
    with pytest.raises(ParamError):
        serialize(m)


def test_single_child_cluster_has_no_bitmap_line():
    m = build_model(3, [[1, 2], [2]], [["", "1"], ["1"]])
    text = serialize(m)
    assert "B1.1:" not in text
    assert "B1.2: 1" in text
    assert deserialize(text) == m


WRAPPING_COUNTS = (
    673668978482493649, 517877057395693528, 998942484547994690, 772521293905623371,
    914373778643058966, 911667617644433645, 727680899708984026, 961692473298024114,
    756306586798021123, 556178586118435394, 578380709469740510, 625084456400760307,
    751430197302846689, 861238144855228226, 673529790671753306, 792405670287795082,
    722436754976588196, 702286124519073658, 837272260651580120, 836798228862657626,
    893135933055449930, 993681313700006192, 886962850730932232, 501191881682377041,
)
assert sum(WRAPPING_COUNTS) == 2**64 + 5


@pytest.mark.parametrize(
    "mutate,wantline,fragment",
    [
        (lambda ls: ["XHNET 1"] + ls[1:], 1, "magic"),
        (lambda ls: [ls[0], "p=4 gamma=two n=9"] + ls[2:], 2, "header"),
        (lambda ls: [ls[0], "p=1 gamma=2 n=1"] + ls[2:], 2, "below the minimum"),
        (lambda ls: ls[:2] + ["L3: 3"] + ls[3:], 3, "'L2:'"),
        (lambda ls: ls[:2] + ["L2: 5"] + ls[3:], 3, "outside 1..p"),
        (lambda ls: ls[:3] + ["L1: 3 4 1"] + ls[4:], 4, None),
        (lambda ls: ls[:4] + ["B2.1: 10"] + ls[5:], 5, "length 2 != k(k-1)/2 = 3"),
        (lambda ls: ls[:4] + ["B2.1: 1x0"] + ls[5:], 5, "outside 0/1"),
        (lambda ls: ls[:7], 8, "unexpected end of input"),
        (lambda ls: ls + ["junk"], 9, "trailing content"),
        (lambda ls: ls[:6] + ["B1.2: 10\xff110"] + ls[7:], 7, "non-ASCII character '\\xff'"),
        (lambda ls: ls[:2] + ["L2: \u2163"] + ls[3:], 3, "non-ASCII character '\\u2163'"),
        (lambda ls: [ls[0], "p=4 gamma=10000 n=9"] + ls[2:], 3, "'L10000:'"),
        (lambda ls: [ls[0], "p=2 gamma=28 n=134217729"] + ls[2:], 2,
         "n=134217729 exceeds the supported maximum 134217728"),
        (lambda ls: [ls[0], "p=2 gamma=3 n=9"] + ls[2:], 2, "n=9 exceeds p^gamma=8"),
        (lambda ls: [ls[0], "p=" + "9" * 5000 + " gamma=2 n=9"] + ls[2:], 2, "too many digits"),
        # a root with 2^27 children declares 2^53 bits the file does not hold
        (lambda ls: [ls[0], "p=134217728 gamma=1 n=134217728", "L1: 134217728"], 4,
         "unexpected end of input"),
        # 24 counts near 10^18 whose sum wraps to 5 in int64, as do their bit totals
        (lambda ls: [ls[0], "p=999999999999999999 gamma=2 n=5", "L2: 24",
                     "L1: " + " ".join(map(str, WRAPPING_COUNTS)), "B2.1: " + "0" * 276], 4,
         "declared n=5"),
        # a vertex one past MAX_CHILDREN, with a complete 524800-bit line
        (lambda ls: [ls[0], "p=1025 gamma=1 n=1025", "L1: 1025", "B1.1: " + "0" * 524800], 4,
         "level 1 cluster 1: 1025 children exceed the supported maximum 1024"),
    ],
)
def test_parse_errors_carry_line_numbers(mutate, wantline, fragment):
    lines = GOLDEN_TEXT.splitlines()
    text = "\n".join(mutate(lines)) + "\n"
    for data in (text, text.encode("latin-1", "replace")):
        with pytest.raises(ParseError) as exc:
            deserialize(data)
        assert exc.value.line == wantline
        if fragment is not None and data is text:
            assert fragment in str(exc.value)


def test_parse_error_non_ascii_byte():
    data = GOLDEN_TEXT.encode("ascii").replace(b"B1.2: 100110", b"B1.2: 10\xff110")
    with pytest.raises(ParseError) as exc:
        deserialize(data)
    assert exc.value.line == 7
    assert str(exc.value) == "line 7: non-ASCII character '\\xff'"


def test_parse_error_gamma_past_limit(monkeypatch):
    monkeypatch.setattr(core, "MAX_NODES", 16)
    text = GOLDEN_TEXT.replace("gamma=2", "gamma=17")
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert exc.value.line == 2
    assert "gamma=17 exceeds the supported maximum 16" in str(exc.value)


def test_parse_error_declared_n_mismatch():
    text = GOLDEN_TEXT.replace("n=9", "n=8")
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert "n=8" in str(exc.value)


def test_parse_rejects_wide_root():
    text = "BHNET 1\np=4 gamma=1 n=4\nL1: 2 2\nB1.1: 1\nB1.2: 1\n"
    with pytest.raises(ParseError) as exc:
        deserialize(text)
    assert exc.value.line == 3


# -- codec: canonical fast path against the line walker ----------------------

REGULAR_G13_SHA256 = "41ff7994a8a635c1fe66c019e77c03c9828147fcfc10c624454bd97b4de2c51e"


def test_serialize_regular_g13_digest():
    params = GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=13)
    model = generate_network(params)
    text = serialize(model)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REGULAR_G13_SHA256
    assert core._parse_canonical(text.encode("ascii")) == model


def test_canonical_path_reads_serialize_output(demo9, k4):
    wide = generate_network(GenParams(mode="by-nodes", p=16, mu=0.3, seed=4, n=300))
    for m in (demo9, k4, wide):
        raw = serialize(m).encode("ascii")
        assert core._parse_canonical(raw) == m
        assert core._parse_lines(raw.decode("ascii")) == m


@pytest.mark.parametrize(
    "old,new",
    [
        ("L1: 3 4 2", "L1:  3 4 2"),
        ("L1: 3 4 2", "L1: 03 4 2"),
        ("B1.2: 100110", "B1.2:   100110  "),
        ("B1.2: 100110\n", "B1.2: 100110\r\n"),
        ("B1.3: 1\n", "B1.3: 1"),
    ],
)
def test_other_spellings_load_through_the_walker(demo9, old, new):
    text = GOLDEN_TEXT.replace(old, new)
    assert core._parse_canonical(text.encode("ascii")) is None
    assert deserialize(text) == demo9
    assert deserialize(text.encode("ascii")) == demo9


def _outcome(parse, data):
    try:
        return parse(data)
    except ParseError as exc:
        return ("error", exc.line, str(exc))


_FUZZ_BYTES = st.sampled_from(
    [b"0", b"1", b"2", b"9", b" ", b"  ", b"\n", b"\r", b"\t", b":", b".", b"B", b"L",
     b"=", b"\x00", b"\x7f", b"\x80", b"\xe9", b"\xff"]
)


@st.composite
def _mutated_files(draw):
    # p up to 12 gives multi-digit counts, n up to 80 multi-digit cluster
    # indices; a regular shape has one count per level, so uniform `L` lines
    # and `B` levels of equal-length lines
    p = draw(st.integers(2, 12))
    mu = draw(st.sampled_from([0.0, 0.5, 1.0]))
    seed = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        params = GenParams(mode="regular", p=p, mu=mu, seed=seed, gamma=draw(st.integers(1, 4)))
    else:
        params = GenParams(mode="by-nodes", p=p, mu=mu, seed=seed, n=draw(st.integers(1, 80)))
    data = bytearray(serialize(generate_network(params)).encode("ascii"))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "insert", "delete"]))
        if kind == "insert":
            data[pos:pos] = draw(_FUZZ_BYTES)
        elif pos < len(data):
            data[pos:pos + 1] = draw(_FUZZ_BYTES) if kind == "flip" else b""
    return bytes(data)


@given(_mutated_files())
@settings(max_examples=400, deadline=None)
def test_codec_agrees_with_line_walker(data):
    want = _outcome(core._parse_lines, data.decode("latin-1"))
    assert _outcome(deserialize, data) == want
    text = data.decode("latin-1")
    assert _outcome(deserialize, text) == want
    fast = core._parse_canonical(data)
    if fast is not None:
        assert fast == want and serialize(fast).encode("ascii") == data


def _digit_width_model():
    # level 1: 100001 clusters, so `B1.` labels cross 9/10, 99/100, ...,
    # 99999/100000; counts of 1 to 4 digits, one vertex with 1000 children
    level1 = np.full(100_001, 2)
    level1[[2, 50_000]] = 1  # no `B` line for these two
    level1[[10, 11, 12]] = [10, 100, 1000]
    levels = [level1, [10] * 10_000 + [1], [100] * 100 + [1], [101]]
    rng = np.random.default_rng(0)
    nbits = [np.asarray(c) * (np.asarray(c) - 1) // 2 for c in levels]
    bits = [rng.integers(0, 2, int(nb.sum()), dtype=np.uint8) for nb in nbits]
    return NetworkModel(HierarchyShape(1000, levels), LinkTable(bits, nbits))


def test_codec_across_digit_widths():
    model = _digit_width_model()
    text = serialize(model)
    for i in (9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000):
        assert f"\nB1.{i}: " in text
    assert "\nB1.3: " not in text and "L1: 2 2 1 2" in text and " 10 100 1000 2 " in text
    raw = text.encode("ascii")
    assert core._parse_canonical(raw) == model == core._parse_lines(text)
    assert serialize(deserialize(raw)) == text
    # a leading zero is another spelling: the walker reads it in a count and
    # refuses it in a label, naming the line
    zero_count = text.replace("L1: 2 2 1", "L1: 02 2 1", 1)
    assert core._parse_canonical(zero_count.encode("ascii")) is None
    assert deserialize(zero_count) == model
    zero_label = text.replace("\nB1.10: ", "\nB1.010: ", 1)
    assert core._parse_canonical(zero_label.encode("ascii")) is None
    with pytest.raises(ParseError) as exc:
        deserialize(zero_label)
    assert exc.value.line == zero_label[:zero_label.index("B1.010")].count("\n") + 1
    assert "'B1.10:'" in str(exc.value)


@pytest.mark.parametrize("p,gamma", [(10, 5), (2, 14)])
def test_codec_by_rows_on_uniform_levels(p, gamma):
    # p=10: level-1 labels cross 9/10, 99/100, 999/1000 and 9999/10000 on
    # 45-bit lines; p=2: 1-bit lines.  Every level is one count, so every
    # `L` line is one count repeated and every level is read by rows
    model = generate_network(GenParams(mode="regular", p=p, mu=0.5, seed=3, gamma=gamma))
    text = serialize(model)
    raw = text.encode("ascii")
    assert core._parse_canonical(raw) == model == core._parse_lines(text)
    assert serialize(deserialize(raw)) == text
    labels = [i for i in (9, 10, 99, 100, 999, 1000, 9999, 10000) if i <= p ** (gamma - 1)]
    assert all(f"\nB1.{i}: " in text for i in labels)
    assert f"\nB1.{p ** (gamma - 1) + 1}: " not in text
    l1 = text.index("\nL1: ") + 1
    eol = text.index("\n", l1)
    assert text[l1:eol] == f"L1: {p}" + f" {p}" * (p ** (gamma - 1) - 1)

    def bit_two(i):
        at = text.index(f"\nB1.{i}: ") + len(f"\nB1.{i}: ")
        return text[:at] + "2" + text[at + 1:]

    # a changed label digit, a bit 2 and a cut last bit are refused, naming
    # the line; the other spellings of the `L` line and no final newline load
    refused = [text.replace(f"\nB1.{i}: ", f"\nB1.{i + 1}: ", 1) for i in labels]
    refused += [bit_two(labels[0]), bit_two(labels[-1]), text[:-2] + "\n"]
    loaded = [text[:l1] + f"L1: 0{p}" + text[l1 + 4 + len(str(p)):],  # a leading zero
              text[:l1] + f"L1: {p}  " + text[l1 + 5 + len(str(p)):],  # a doubled space
              text[:eol] + " " + text[eol:],  # a trailing space
              text[:-1]]
    for spelled in refused + loaded:
        assert spelled != text
        assert core._parse_canonical(spelled.encode("ascii")) is None
        want = _outcome(core._parse_lines, spelled)
        assert _outcome(deserialize, spelled.encode("ascii")) == want
        assert want == model if spelled in loaded else want[0] == "error"


def test_read_counts_takes_only_what_sums_safely(monkeypatch):
    def read(body):
        return core._read_counts(np.frombuffer(body, dtype=np.uint8))

    assert read(b"3 10 999999999 0").tolist() == [3, 10, 999999999, 0]
    for bad in (b"", b"3  4", b"3 4 ", b" 3", b"1000000000", b"3 +4", b"3\r", b"3\t4"):
        assert read(bad) is None
    monkeypatch.setattr(core, "MAX_NODES", 2)
    assert read(b"1 1 1") is None and read(b"1 1").tolist() == [1, 1]


def test_digit_counts_take_the_values_dtype():
    # labels are uint32 and counts int32, the only dtypes the codec writes:
    # each is searched with powers of its own dtype, so no int64 copy of a
    # level is made
    for dt in (np.int32, np.uint32):
        top = int(np.iinfo(dt).max)
        values = np.array([0, 9, 10, 99, 10**9 - 1, 10**9, 2**31 - 1, top], dt)
        assert core._n_digits(values).tolist() == [len(str(int(v))) for v in values]
    labels = np.arange(1 << 20, dtype=np.uint32)
    tracemalloc.start()
    try:
        core._n_digits(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * len(labels)  # the intp result, + 1 in place; no int64 copy


def test_bit_positions_int64_branch(monkeypatch):
    # levels of 2**31 bytes or more index their bits with int64 positions;
    # a threshold of 0 sends every level there
    model = _digit_width_model()
    wide = generate_network(GenParams(mode="by-nodes", p=16, mu=0.5, seed=3, n=2000))
    texts = [serialize(m) for m in (model, wide)]
    assert core._bitmap_lines(1, model.shape.counts_at(1))[1].dtype == np.int32
    monkeypatch.setattr(core, "_INT32_SAFE_BYTES", 0)
    assert core._bitmap_lines(1, model.shape.counts_at(1))[1].dtype == np.int64
    for m, text in zip((model, wide), texts):
        assert serialize(m) == text
        assert core._parse_canonical(text.encode("ascii")) == m


# -- immutability ------------------------------------------------------------


def test_arrays_are_frozen(demo9):
    with pytest.raises(ValueError):
        demo9.shape.counts_at(1)[0] = 7
    with pytest.raises(ValueError):
        demo9.links.flat_at(1)[0] = 1
    with pytest.raises(ValueError):
        demo9.shape.sizes_at(1)[0] = 3


class _Unsummable(np.ndarray):
    def sum(self, *args, **kwargs):
        raise AssertionError("level-1 counts summed again")


def test_point_queries_use_the_node_count_taken_at_construction(demo9):
    shape = demo9.shape
    node_degree(demo9, 5)  # build the navigation arrays and caches first
    shape._counts = (shape._counts[0].view(_Unsummable),) + shape._counts[1:]
    assert shape.n == 9
    assert shape.node_cluster(1, 9) == 3
    assert shape.leaf_range(1, 2) == (3, 7)
    assert node_path(demo9, 9)[-1] == PathEntry(gamma=2, cluster_index=1, child_pos=3)
    assert distance(demo9, 1, 5) == 1 and distance(demo9, 1, 8) is None
    assert node_degree(demo9, 5) == 6


def test_level_zero_sizes_are_one_shared_broadcast(demo9):
    ones = demo9.shape.sizes_at(0)
    assert ones.tolist() == [1] * 9 and not ones.flags.writeable
    assert ones.strides == (0,) and demo9.shape.sizes_at(0) is ones
    assert NetworkModel(HierarchyShape(3, []), LinkTable([], [])).shape.sizes_at(0).tolist() == [1]


@pytest.mark.parametrize("gamma", [12, 14])
def test_generated_model_memory_per_node(gamma):
    # a regular p=3 network has about half a cluster per node; the model
    # holds the bits, the counts (which are the level-1 sizes) and per
    # cluster its child start and leaf cum, its size above level 1 and its
    # bit offset, each int32, and nothing more: 10.2 B per node
    params = GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=gamma)
    generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=2))  # one-time setup
    tracemalloc.start()
    try:
        model = generate_network(params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / model.shape.n <= 12


def _layout_bytes(model: NetworkModel) -> int:
    """Bytes of the distinct buffers behind every array the shape and the link table hold."""
    roots, todo = {}, [getattr(obj, slot) for obj in (model.shape, model.links)
                       for slot in type(obj).__slots__]
    while todo:
        item = todo.pop()
        if isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            roots[id(item)] = item.nbytes
    return sum(roots.values())


def test_passes_and_queries_build_no_search_array():
    # the joined leaf cums are the one search array, and they are the shape's own
    # storage: past the model, no property, serialization or query adds a byte
    model = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=7))
    shape = model.shape
    clusters = sum(shape.n_clusters(g) for g in range(1, shape.gamma + 1))
    bits = sum(len(model.links.flat_at(g)) for g in range(1, shape.gamma + 1))
    # per cluster: count, child start, leaf cum and bit offset, and a size above
    # level 1; one level-0 one, each level's shift, all int32, and the bits
    want = 4 * (4 * clusters + clusters - shape.n_clusters(1) + 1 + shape.gamma) + bits
    assert _layout_bytes(model) == want
    layout = shape._derived()
    assert all(np.shares_memory(layout.keys, cum) for cum in layout.cums)
    ensemble.compute_properties(model, ensemble.PROPERTIES)
    for _ in core.serialize_chunks(model):
        pass
    for x in (1, 5, shape.n):
        an.node_degree(model, x), an.triangles_at_node(model, x), distance(model, 1, x)
    assert _layout_bytes(model) == want
    assert an._sibling_bits.cache_info().maxsize is not None


def test_layout_is_int32_and_keys_switch_to_int64(monkeypatch):
    # gamma(N+1) < 2**31 keeps the shifted leaf cums int32; a bound of 0 sends
    # them to int64, and every climb, search and pass reads the same answers
    params = GenParams(mode="by-nodes", p=5, mu=0.5, seed=3, n=3000)
    narrow = generate_network(params)
    monkeypatch.setattr(core, "_INT32_SAFE_KEYS", 0)
    wide = generate_network(params)
    for m, key_t in ((narrow, np.int32), (wide, np.int64)):
        layout = m.shape._derived()
        assert layout.keys.dtype == layout.shifts.dtype == key_t
        assert m.shape.leaf_cum_at(1).dtype == key_t
        assert m.shape._all_counts.dtype == layout.all_starts.dtype == np.int32
        assert all(s.dtype == np.int32 for s in layout.sizes)
        # the offsets take the bound too, at 0 every one goes int64
        assert m.links._all_starts.dtype == key_t
    assert wide == narrow
    for x in range(1, narrow.shape.n + 1, 37):
        assert node_path(wide, x) == node_path(narrow, x)
        assert wide.shape.node_cluster(2, x) == narrow.shape.node_cluster(2, x)
        assert distance(wide, x, 1500) == distance(narrow, x, 1500)
    # a forest of two copies of the int64 model: its roots end at N and 2N
    forest = ensemble._forest(5, [wide, wide])
    assert an._root_ends(forest.shape)[0].tolist() == [wide.shape.n, 2 * wide.shape.n]
    for values in ensemble.PROPERTY_TABLE.values():
        assert values(wide) == values(narrow) and values(forest) == values(narrow) * 2
    assert serialize(wide) == serialize(narrow)


def test_link_offsets_past_int32_are_int64_not_wrapped():
    # 3 * 2**30 declared bits do not fit int32 offsets; the flat array need not hold them
    links = LinkTable([np.zeros(0, np.uint8)], [[2**30, 2**30, 2**30]])
    assert links.starts_at(1).dtype == np.int64
    assert links.starts_at(1).tolist() == [0, 2**30, 2**31]
    assert links.nbits_at(1).tolist() == [2**30, 2**30, -(2**31)]
    for nbits in ([2**31, 1], [-1, 2]):  # one count past int32, or below 0, goes int64 too
        assert LinkTable([np.zeros(0, np.uint8)], [nbits]).starts_at(1).dtype == np.int64
    assert LinkTable([np.zeros(3, np.uint8)], [[1, 2]]).starts_at(1).dtype == np.int32
    m = NetworkModel(HierarchyShape(2**31, [[2, 2, 2]]), links)
    assert "bitmap length" in validate(m)[-1]


def test_codec_memory_per_node():
    # regular p=3, gamma=12, by tracemalloc in bytes per node with numpy 2.4,
    # the file's own bytes not counted: consuming serialize_chunks peaks at
    # 6.4, one level's bytes and bits at a time, and deserialize at 9.3, in
    # the codec; the link table it then builds, one level's int64 bit counts
    # and int32 offsets at a time, peaks at 8.9; validate, one level's int64
    # vector ends at a time, peaks at 3.1; the budgets are 9, 11 and 5
    small = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=2))
    deserialize(serialize(small).encode("ascii"))  # one-time setup
    model = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=12))
    raw = serialize(model).encode("ascii")
    tracemalloc.start()
    try:
        size = sum(len(chunk) for chunk in core.serialize_chunks(model))
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = deserialize(raw)
        read = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        problems = validate(model)
        checked = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert size == len(raw) and loaded == model and problems == []
    assert written / model.shape.n <= 9
    assert read / model.shape.n <= 11
    assert checked / model.shape.n <= 5


def test_deserialize_memory_against_file_size():
    # the canonical path keeps the model and one level's template and bits at
    # a time (and their positions, on a level of mixed counts), never a copy
    # of the file: about 2x the file past the model with numpy 2.4
    small = serialize(generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=2)))
    deserialize(small.encode("ascii"))  # one-time setup
    raw = serialize(generate_network(
        GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=11))).encode("ascii")
    tracemalloc.start()
    try:
        model = deserialize(raw)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.shape.n == 3 ** 11
    assert peak <= 4 * len(raw) + held


def test_equality_by_value(demo9):
    other = build_model(4, [[3, 4, 2], [3]], [["011", "100110", "1"], ["100"]])
    assert other == demo9
    different = build_model(4, [[3, 4, 2], [3]], [["011", "100110", "1"], ["000"]])
    assert different != demo9


# -- shape construction property --------------------------------------------


@st.composite
def _telescoping_levels(draw):
    p = draw(st.integers(2, 5))
    width = 1
    levels_top_down = []
    for _ in range(draw(st.integers(1, 4))):
        counts = [draw(st.integers(1, p)) for _ in range(width)]
        levels_top_down.append(counts)
        width = sum(counts)
    return p, list(reversed(levels_top_down))


@given(_telescoping_levels())
@settings(max_examples=60, deadline=None)
def test_consistent_shapes_validate_and_round_trip(pl):
    p, levels = pl
    shape = HierarchyShape(p, levels)
    vectors = [["0" * (c * (c - 1) // 2) for c in lvl] for lvl in levels]
    m = NetworkModel(shape, LinkTable.from_vectors(vectors))
    assert validate(m) == []
    assert shape.n == sum(levels[0])
    assert deserialize(serialize(m)) == m
