"""Smoke tests of the benchmark at tiny sizes.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap()

import checks  # noqa: E402 - needs the sources bootstrap puts on sys.path
import harness  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = [
    harness.Workload("tiny-regular", "regular", p=3, mu=0.5, size=4, cycle="GQAQEQ",
                     queries=30, batch=7, copies=3),
    harness.Workload("tiny-wide", "by-nodes", p=16, mu=0.5, size=500, cycle="GQAQGQEQ",
                     queries=30, batch=7, copies=3),
    harness.Workload("tiny-ensemble", "by-nodes", p=3, mu=0.8, size=500, cycle="GAQGAQE",
                     queries=30, batch=7, copies=3),
]


def _observed_digests(result: harness.Result) -> dict:
    return {line.split()[1]: line.split()[2] for line in result.lines
            if line.startswith("digest ")}


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(w, trace, section, tmp_path):
    result = harness.run_workload(w, 1, 0, trace, {}, tmp_path)
    assert result.failed == 0 and result.exit_code() == 0, result.lines
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    assert got == {m["name"]: m["unit"] for m in BENCH[section]}
    summary = result.summary()
    assert list(summary) == ["correct", "attempted", "failed", "metrics"]
    assert summary["correct"] and summary["attempted"] >= 1
    json.dumps(summary)


def test_corrupted_pinned_digest_is_reported_as_a_failure(tmp_path):
    w = TINY[0]
    pinned = _observed_digests(harness.run_workload(w, 1, 0, False, {}, tmp_path))
    assert set(pinned) == set(checks.ARTIFACTS)
    assert harness.run_workload(w, 1, 0, False, pinned, tmp_path).failed == 0
    corrupted = dict(pinned, analyze="0" * 64)
    result = harness.run_workload(w, 1, 0, False, corrupted, tmp_path)
    assert result.failed == 1 and not result.summary()["correct"]
    assert result.exit_code() != 0
    assert any("analyze: sha256" in line for line in result.lines)


def test_pinned_digests_cover_every_workload():
    pinned = json.loads(run.DIGESTS.read_text())
    names = {w["name"] for w in BENCH["workloads"]}
    assert set(pinned) == set(harness.WORKLOADS) == names
    for kinds in pinned.values():
        assert set(kinds) == set(checks.ARTIFACTS)


def test_reference_distance_matches_the_package():
    w = TINY[1]
    model, _ = harness.set_up(w, 3)
    n = model.shape.n
    for x in range(1, n + 1, 37):
        for y in range(1, n + 1, 23):
            assert checks.reference_distance(model, x, y) == harness.analytics.distance(model, x, y)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble-n19683",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
