import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiernet.analytics as an
from hiernet import oracle
from hiernet.core import ParamError
from hiernet.gen import GenParams, generate_network
from hiernet.oracle import (
    DEFAULT_EXPANSION_CAP,
    ExpansionCapError,
    edge_list_text,
    expand,
)
from conftest import build_model


def test_expand_demo(demo9):
    g = expand(demo9)
    assert g.n == 9
    assert g.bf_edges() == 18
    assert np.array_equal(g.adj, g.adj.T)
    assert not g.adj.diagonal().any()


def test_known_small_graphs(k4):
    g = expand(k4)
    assert g.bf_edges() == 6
    assert g.bf_triangles() == 4
    assert g.bf_four_cycles() == 3
    assert g.bf_four_cycles_subsets() == 3
    assert g.bf_wedges() == 12
    assert g.bf_diameter() == 1

    # path graph 1-3-2 via bitmap <011> on a 3-node cluster
    path = build_model(3, [[3]], [["011"]])
    gp = expand(path)
    assert gp.bf_edges() == 2
    assert gp.bf_wedges() == 1
    assert gp.bf_four_cycles() == 0
    assert gp.bf_triangles() == 0


def test_oracle_matches_frozen_demo_values(demo9):
    g = expand(demo9)
    assert g.bf_degrees().tolist() == [5, 5, 6, 4, 6, 4, 4, 1, 1]
    assert g.bf_triangles() == 17
    assert g.bf_triangles_at(5) == 11
    assert g.bf_four_cycles() == 43
    assert g.bf_four_cycles_subsets() == 43
    hist, unreachable = g.bf_distance_histogram()
    assert hist == {1: 18, 2: 4} and unreachable == 14
    assert g.bf_components() == [7, 2]
    assert g.bf_distance(1, 8) is None
    assert g.bf_distance(1, 2) == 2
    assert g.bf_clustering(5) == pytest.approx(22 / 30)


def test_all_zero_bitmaps_expand_empty():
    m = build_model(3, [[2, 3], [2]], [["0", "000"], ["0"]])
    g = expand(m)
    assert g.bf_edges() == 0
    assert g.bf_components() == [1] * 5


def test_expansion_cap():
    m = generate_network(GenParams(mode="regular", p=3, mu=0.5, seed=1, gamma=9))
    with pytest.raises(ExpansionCapError) as exc:
        expand(m)
    assert str(DEFAULT_EXPANSION_CAP) in str(exc.value)
    with pytest.raises(ExpansionCapError):
        edge_list_text(m, cap=100)
    expand(m, cap=None)  # explicit opt-out works


def test_expansion_past_physical_memory_is_refused(demo9, monkeypatch):
    # nine nodes take 81 bytes of adjacency: refused on a host of 80, whatever the cap
    monkeypatch.setattr(oracle, "_physical_memory", lambda: 80)
    for cap in (None, 9):
        with pytest.raises(ExpansionCapError) as exc:
            expand(demo9, cap=cap)
        assert str(exc.value) == ("n=9 needs 81 bytes of adjacency, "
                                  "more than the 80 bytes of physical memory")
    monkeypatch.setattr(oracle, "_physical_memory", lambda: 81)
    assert expand(demo9).n == 9


def test_physical_memory_is_read_from_the_host():
    assert oracle._physical_memory() > 0


@pytest.mark.parametrize("cap", ["x", 2.5, -5, [9]])
def test_expansion_cap_must_be_a_whole_number(demo9, cap):
    for call in (expand, edge_list_text):
        with pytest.raises(ParamError) as exc:
            call(demo9, cap=cap)
        assert "cap must be an integer >= 0" in str(exc.value)


def test_expansion_cap_takes_integral_values(demo9):
    assert expand(demo9, cap=9.0).n == 9
    with pytest.raises(ExpansionCapError) as exc:
        edge_list_text(demo9, cap=np.int64(8))
    assert str(exc.value) == "n=9 exceeds the expansion cap of 8"


def test_edge_list_text(demo9):
    text = edge_list_text(demo9)
    lines = text.splitlines()
    assert len(lines) == 18
    assert lines[0] == "1 3"
    pairs = [tuple(map(int, ln.split())) for ln in lines]
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)
    empty = build_model(2, [[2]], [["0"]])
    assert edge_list_text(empty) == ""


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_two_four_cycle_oracles_agree(seed):
    p = 2 + seed % 4
    n = 4 + seed % 25  # subset enumeration stays viable below ~30 nodes
    m = generate_network(GenParams(mode="by-nodes", p=p, mu=0.4, seed=seed, n=n))
    g = expand(m)
    assert g.bf_four_cycles() == g.bf_four_cycles_subsets()


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_expansion_edge_count_matches_engine(seed):
    m = generate_network(GenParams(mode="by-nodes", p=5, mu=0.6, seed=seed, n=60))
    assert expand(m).bf_edges() == an.edge_count(m)
