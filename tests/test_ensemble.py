import csv
import io
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import hiernet.analytics as an
import hiernet.ensemble as ensemble
from hiernet.core import ParamError
from hiernet.gen import GenParams, generate_network
from hiernet.ensemble import (
    PROPERTIES,
    EnsembleSpec,
    compute_properties,
    report_csv,
    report_json,
    run_copy,
    run_ensemble,
    summary_json,
)

PARAMS = GenParams(mode="by-nodes", p=3, mu=0.5, seed=314, n=40)
ALL_SPEC = EnsembleSpec(params=PARAMS, copies=6, properties=PROPERTIES)


def test_spec_validation():
    with pytest.raises(ParamError):
        EnsembleSpec(params=PARAMS, copies=0, properties=("edges",))
    with pytest.raises(ParamError):
        EnsembleSpec(params=PARAMS, copies=3, properties=())
    with pytest.raises(ParamError):
        EnsembleSpec(params=PARAMS, copies=3, properties=("edges", "girth"))
    for copies in (None, "x", 2.5):
        with pytest.raises(ParamError):
            EnsembleSpec(params=PARAMS, copies=copies, properties=("edges",))
    for workers in (0, None, "x", 1.5):
        with pytest.raises(ParamError):
            run_ensemble(ALL_SPEC, workers=workers)


def test_a_bare_string_is_one_property_name():
    # a str is one name, not a sequence of one-character names
    model = generate_network(PARAMS, stream=1)
    assert compute_properties(model, "edges") == {"edges": an.edge_count(model)}
    assert run_copy(PARAMS, 1, "diameter") == run_copy(PARAMS, 1, ("diameter",))
    assert EnsembleSpec(params=PARAMS, copies=2, properties="c3").properties == ("c3",)
    with pytest.raises(ParamError, match="'girth'"):
        compute_properties(model, "girth")


def test_copies_use_derived_streams():
    # copy c must equal a direct generation on stream c
    vals = run_copy(PARAMS, 3, ("edges", "c3"))
    m = generate_network(PARAMS, stream=3)
    assert vals == {"edges": an.edge_count(m), "c3": an.triangle_count(m)}


def test_report_layout_and_determinism():
    r1 = run_ensemble(ALL_SPEC)
    r2 = run_ensemble(ALL_SPEC)
    assert report_json(r1) == report_json(r2)
    assert list(r1) == ["params", "seed", "copies", "results", "summary"]
    assert r1["params"]["mode"] == "by-nodes"
    assert r1["params"]["version"]
    assert r1["seed"] == 314 and r1["copies"] == 6
    for name in PROPERTIES:
        assert len(r1["results"][name]) == 6


def test_worker_count_never_changes_bytes():
    seq = run_ensemble(ALL_SPEC, workers=1)
    par = run_ensemble(ALL_SPEC, workers=3)
    assert report_json(seq) == report_json(par)
    assert report_csv(seq) == report_csv(par)
    assert summary_json(seq) == summary_json(par)


def test_single_copy_summary_is_exact():
    spec = EnsembleSpec(params=PARAMS, copies=1, properties=("edges", "c3", "c4"))
    r = run_ensemble(spec)
    for name in ("edges", "c3", "c4"):
        v = r["results"][name][0]
        s = r["summary"][name]
        assert s["mean"] == v and s["std"] == 0.0
        assert s["min"] == v == s["max"]


def test_scalar_summary_recomputable():
    r = run_ensemble(EnsembleSpec(params=PARAMS, copies=8, properties=("edges",)))
    vals = r["results"]["edges"]
    mean = sum(vals) / 8
    assert r["summary"]["edges"]["mean"] == pytest.approx(mean)
    assert r["summary"]["edges"]["min"] == min(vals)
    assert r["summary"]["edges"]["max"] == max(vals)


def test_degree_histogram_totals():
    r = run_ensemble(EnsembleSpec(params=PARAMS, copies=5, properties=("degree-dist",)))
    for h in r["results"]["degree-dist"]:
        assert sum(h.values()) == PARAMS.n
    mean_counts = r["summary"]["degree-dist"]["mean_counts"]
    assert sum(mean_counts.values()) == pytest.approx(PARAMS.n)


def test_distance_histogram_has_unreachable_bucket():
    r = run_ensemble(EnsembleSpec(params=PARAMS, copies=3, properties=("distance-dist",)))
    n = PARAMS.n
    for h in r["results"]["distance-dist"]:
        assert "unreachable" in h
        assert sum(h.values()) == n * (n - 1) // 2


def test_json_round_trip():
    r = run_ensemble(ALL_SPEC)
    doc = json.loads(report_json(r))
    assert doc["copies"] == 6
    assert doc["results"]["edges"] == r["results"]["edges"]
    assert doc["summary"]["edges"]["mean"] == r["summary"]["edges"]["mean"]
    # histogram keys stringify but keep their counts
    h0 = r["results"]["degree-dist"][0]
    assert {int(k): v for k, v in doc["results"]["degree-dist"][0].items()} == h0


def test_csv_round_trip():
    spec = EnsembleSpec(params=PARAMS, copies=4, properties=("edges", "c3", "distance-dist"))
    r = run_ensemble(spec)
    rows = list(csv.reader(io.StringIO(report_csv(r))))
    assert rows[0] == ["copy", "property", "value"]
    body = rows[1:]
    assert len(body) == 4 * 3
    for row in body:
        c = int(row[0])
        name = row[1]
        want = r["results"][name][c - 1]
        if name == "distance-dist":
            got = {}
            for item in row[2].split(";"):
                k, v = item.split(":")
                got[k if k == "unreachable" else int(k)] = int(v)
            assert got == want
        else:
            assert int(row[2]) == want


def test_clustering_bins_are_two_decimals():
    r = run_ensemble(EnsembleSpec(params=PARAMS, copies=2, properties=("clustering-dist",)))
    for h in r["results"]["clustering-dist"]:
        for k, v in h.items():
            assert len(k.split(".")[1]) == 2
            assert 0.0 <= float(k) <= 1.0
            assert v > 0
        assert sum(h.values()) == PARAMS.n


def test_components_histogram():
    r = run_ensemble(EnsembleSpec(params=PARAMS, copies=3, properties=("components",)))
    for h in r["results"]["components"]:
        assert sum(size * cnt for size, cnt in h.items()) == PARAMS.n


def test_failure_names_copy_and_stream(monkeypatch):
    from hiernet.core import HiernetError
    import hiernet.ensemble as ens

    calls = []

    def explode(params, stream=0):
        calls.append(stream)
        if stream == 2:
            raise ValueError("boom")
        return generate_network(params, stream=stream)

    monkeypatch.setattr(ens, "generate_network", explode)
    spec = EnsembleSpec(params=PARAMS, copies=3, properties=("edges",))
    with pytest.raises(HiernetError) as exc:
        run_ensemble(spec)
    assert "copy 2" in str(exc.value)
    assert "seed=314" in str(exc.value) and "stream=2" in str(exc.value)


# one spec per kind of forest: zero-level copies, mixed level counts, the
# other shape modes, every bit set and almost none
STACK_PARAMS = {
    "one-node": GenParams(mode="by-nodes", p=3, mu=0.5, seed=3, n=1),
    "nodes-40": PARAMS,
    "nodes-243": GenParams(mode="by-nodes", p=3, mu=0.8, seed=7, n=243),
    "by-levels": GenParams(mode="by-levels", p=4, mu=0.3, seed=5, gamma=4),
    "regular": GenParams(mode="regular", p=3, mu=0.5, seed=2, gamma=3),
    "mu-0": GenParams(mode="by-nodes", p=3, mu=0.0, seed=8, n=30),
    "mu-2": GenParams(mode="by-nodes", p=3, mu=2.0, seed=9, n=60),
}


@pytest.mark.parametrize("name", STACK_PARAMS)
def test_stacks_equal_run_copy(name, monkeypatch):
    params = STACK_PARAMS[name]
    spec = EnsembleSpec(params=params, copies=5, properties=PROPERTIES)
    sizes = [generate_network(params, stream=c).shape.n for c in range(1, 6)]
    # one copy a stack; the first stack cut after two copies; one stack a range
    budgets = (1, sum(sizes[:3]) - 1, 1 << 30)
    want = [run_copy(params, c, PROPERTIES) for c in range(1, 6)]
    outputs = set()
    for budget in budgets:
        monkeypatch.setattr(ensemble, "_FOREST_NODES", budget)
        for workers in (1, 2):
            r = run_ensemble(spec, workers=workers)
            for prop in PROPERTIES:
                assert r["results"][prop] == [w[prop] for w in want], (budget, workers, prop)
            outputs.add((report_json(r), report_csv(r)))
    assert len(outputs) == 1


@pytest.mark.parametrize("int64_safe", [40_000, 10])
def test_forest_reads_back_each_copy(int64_safe, monkeypatch):
    # past int64_safe nodes a level runs on object arrays
    monkeypatch.setattr(an, "_INT64_SAFE_NODES", int64_safe)
    # copies of mixed depth, a zero-level one among them, so the forest pads
    models = [generate_network(STACK_PARAMS["nodes-243"], stream=c) for c in range(1, 4)]
    models.insert(1, generate_network(STACK_PARAMS["one-node"], stream=1))
    assert len({m.shape.gamma for m in models}) == 3 and models[1].shape.gamma == 0
    forest = ensemble._forest(3, models)
    assert forest.shape.n_clusters(forest.shape.gamma) == len(models)
    table = {name: values(forest) for name, values in ensemble.PROPERTY_TABLE.items()}
    wedges = an._pattern_roots(forest)[0].tolist()
    # the cache holds one value per root; the per-level aggregates cover every level
    assert [len(a) for a in forest._passes[an._pattern_roots]] == [len(models)] * 3
    levels = an.cluster_aggregates(forest)
    assert len(levels) == forest.shape.gamma and levels[-1].p2.tolist() == wedges
    cuts = an._root_ends(forest.shape)[0][:-1]
    degrees = np.split(an.node_degrees(forest), cuts)
    triangles = np.split(an.triangles_at_all_nodes(forest), cuts)
    for j, m in enumerate(models):
        assert table["edges"][j] == an.edge_count(m)
        assert wedges[j] == an.wedge_count(m)
        assert table["c3"][j] == an.triangle_count(m)
        assert table["c4"][j] == an.four_cycle_count(m)
        assert degrees[j].tolist() == an.node_degrees(m).tolist()
        assert triangles[j].tolist() == an.triangles_at_all_nodes(m).tolist()
        h = an.distance_distribution(m)
        assert table["distance-dist"][j] == {**h.as_dict(), "unreachable": h.unreachable}
        assert table["components"][j] == dict(sorted(Counter(an.component_sizes(m)).items()))
        assert {name: values[j] for name, values in table.items()} == \
            compute_properties(m, PROPERTIES)


def test_histograms_come_in_ascending_key_order():
    # the emitters write each histogram's keys in the order the table gives them
    models = [generate_network(STACK_PARAMS["nodes-243"], stream=c) for c in range(1, 4)]
    forest = ensemble._forest(3, models)
    hists = [h for values in ensemble.PROPERTY_TABLE.values() for h in values(forest)
             if isinstance(h, dict)]
    assert len(hists) == 4 * len(models)
    for h in hists:
        keys = [k for k in h if k != "unreachable"]
        assert len(keys) >= 2 and keys == sorted(keys, key=float), keys
        assert list(h) == keys + ["unreachable"] * ("unreachable" in h)
    assert sum("unreachable" in h for h in hists) == len(models)  # every distance-dist
    # merged keys interleave across copies, so the mean counts order them again
    merged = ensemble._mean_counts([{2: 1, 10: 3, "unreachable": 4}, {9: 1, "unreachable": 2}], 2)
    assert list(merged) == ["2", "9", "10", "unreachable"]
    assert merged == {"2": 0.5, "9": 0.5, "10": 1.5, "unreachable": 3.0}


def test_stacks_drop_their_copies_before_the_forest_runs():
    # when a stack's forest is yielded, nothing else of its copies is held:
    # dropping the forest leaves only the next stack's first copy
    params = GenParams(mode="by-nodes", p=3, mu=0.8, seed=1, n=8000)
    list(ensemble._stacks(params, 1, 2))  # one-time setup
    tracemalloc.start()
    try:
        stacks = ensemble._stacks(params, 1, 17)
        _, count, forest = next(stacks)
        # the padding has the counts' dtype, so the levels join with no widening copy
        assert forest.shape._all_counts.dtype == ensemble._PAD_LEVEL[0].dtype == np.int32
        del forest
        held = tracemalloc.get_traced_memory()[0]
        one = generate_network(params, stream=18)
        copy_bytes = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert count == 8 and one.shape.n == 8000
    assert held < 4 * copy_bytes, (held, copy_bytes)


@pytest.mark.parametrize("budget,where", [
    (1 << 30, "copies 1-4 (seed=314, streams 1-4)"),
    (1, "copy 1 (seed=314, stream=1)"),
])
def test_analysis_failure_names_copy_range(monkeypatch, budget, where):
    from hiernet.core import HiernetError

    def explode(model):
        raise ValueError("boom")

    monkeypatch.setattr(ensemble, "_FOREST_NODES", budget)
    monkeypatch.setattr(an, "_node_counts", explode)
    spec = EnsembleSpec(params=PARAMS, copies=4, properties=("edges", "degree-dist"))
    with pytest.raises(HiernetError) as exc:
        run_ensemble(spec)
    assert str(exc.value) == f"{where} failed: boom"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs jobs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "copies,workers,cpus,want",
    [(3, 100000, 8, [3]), (6, 100000, 4, [4]), (6, 2, 4, [2]), (6, 5, 1, []), (1, 9, 4, [])],
)
def test_workers_clamped_to_copies_and_cpus(monkeypatch, copies, workers, cpus, want):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: cpus)
    spec = EnsembleSpec(params=PARAMS, copies=copies, properties=("edges",))
    report = run_ensemble(spec, workers=workers)
    assert _RecordingPool.sizes == want
    assert report == run_ensemble(spec, workers=1)


def test_usable_cpus_is_positive():
    assert ensemble._usable_cpus() >= 1
