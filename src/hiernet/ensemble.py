"""Seeded ensemble experiments: many independent copies, aggregated statistics.

A run draws `copies` networks from one GenParams, copy c on the stream
derived from (seed, c) with c starting at 1, computes the requested
properties per copy, and reduces them in copy order.  Results are
therefore a pure function of (params, copies, properties); the worker
count only changes wall time, never a byte of output.

Scalar properties keep every per-copy value plus mean/std/min/max;
histogram-valued properties keep per-copy histograms plus the per-value
mean count across copies.  Counts stay exact integers all the way to the
emitters; only summary statistics are floating point.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import HiernetError, NetworkModel, ParamError
from .gen import GenParams, _is_integer, generate_network
from .analytics import (
    clustering_values,
    component_sizes,
    degree_distribution,
    diameter,
    distance_distribution,
    edge_count,
    four_cycle_count,
    triangle_count,
)

__all__ = [
    "PROPERTIES",
    "PROPERTY_TABLE",
    "EnsembleSpec",
    "check_properties",
    "compute_properties",
    "run_copy",
    "run_ensemble",
    "json_value",
    "csv_rows",
    "report_json",
    "report_csv",
    "summary_json",
]

_UNREACHABLE = "unreachable"

# resource guard: the copy list is built up front, one entry per copy
MAX_COPIES = 10**6


@dataclass(frozen=True)
class EnsembleSpec:
    """One experiment: generation parameters, copy count, property selection."""

    params: GenParams
    copies: int
    properties: tuple[str, ...]

    def __post_init__(self):
        if not _is_integer(self.copies) or not 1 <= self.copies <= MAX_COPIES:
            raise ParamError(f"copies must be an integer in 1..{MAX_COPIES}, got {self.copies!r}")
        object.__setattr__(self, "copies", int(self.copies))
        object.__setattr__(self, "properties", check_properties(self.properties, PROPERTIES))


def check_properties(names, valid, kind: str = "property") -> tuple[str, ...]:
    """`names` as a tuple; ParamError when it is empty or lists a name not in `valid`."""
    names = tuple(names)
    if not names:
        raise ParamError(f"at least one {kind} must be requested")
    for name in names:
        if name not in valid:
            raise ParamError(f"unknown {kind} {name!r}; valid: {', '.join(valid)}")
    return names


def _clustering_histogram(model: NetworkModel) -> dict:
    """Counts over 0.01-wide bins of the clustering coefficient, keyed by bin start."""
    vals = clustering_values(model)
    bins = np.floor(vals * 100 + 1e-9).astype(np.int64)
    uniq, cnt = np.unique(bins, return_counts=True)
    return {f"{b / 100:.2f}": int(c) for b, c in zip(uniq, cnt)}


def _distance_histogram(model: NetworkModel) -> dict:
    h = distance_distribution(model)
    return {**h.as_dict(), _UNREACHABLE: h.unreachable}


def _component_histogram(model: NetworkModel) -> dict:
    uniq, cnt = np.unique(np.array(component_sizes(model), dtype=np.int64), return_counts=True)
    return {int(s): int(c) for s, c in zip(uniq, cnt)}


# every network property, in report order: an int or a histogram dict of a model
PROPERTY_TABLE = {
    "edges": edge_count,
    "c3": triangle_count,
    "c4": four_cycle_count,
    "degree-dist": lambda model: degree_distribution(model).as_dict(),
    "distance-dist": _distance_histogram,
    "components": _component_histogram,
    "diameter": diameter,
    "clustering-dist": _clustering_histogram,
}
PROPERTIES = tuple(PROPERTY_TABLE)


def compute_properties(model: NetworkModel, properties) -> dict:
    """Requested property values of one network, keyed by property name."""
    return {name: PROPERTY_TABLE[name](model)
            for name in check_properties(properties, PROPERTIES)}


def run_copy(params: GenParams, copy: int, properties) -> dict:
    """One ensemble copy: generate on the copy's derived stream, then measure."""
    model = generate_network(params, stream=copy)
    return compute_properties(model, properties)


def _copy_worker(args):
    # module-level so process pools can pickle it
    params, copy, properties = args
    try:
        return run_copy(params, copy, properties)
    except Exception as exc:  # noqa: BLE001 - reported with copy provenance below
        raise HiernetError(
            f"copy {copy} (seed={params.seed}, stream={copy}) failed: {exc}"
        ) from exc


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> dict:
    """Full report dict: params echo, seed, per-copy results, summary.

    Copy order is the reduction order regardless of `workers`, so the
    report is byte-stable across parallelism degrees.  At most one process
    per copy and per usable CPU is started, whatever `workers` asks for.
    """
    if not _is_integer(workers) or workers < 1:
        raise ParamError(f"workers must be an integer >= 1, got {workers!r}")
    workers = min(int(workers), spec.copies, _usable_cpus())
    jobs = [(spec.params, c, spec.properties) for c in range(1, spec.copies + 1)]
    if workers == 1:
        per_copy = [_copy_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_copy = list(pool.map(_copy_worker, jobs))
    results = {}
    summary = {}
    for name in spec.properties:
        vals = [pc[name] for pc in per_copy]
        results[name] = vals
        if isinstance(vals[0], int):
            summary[name] = _scalar_summary(vals)
        else:
            summary[name] = {"mean_counts": _mean_counts(vals, spec.copies)}
    p = spec.params
    return {
        "params": {
            "mode": p.mode,
            "p": p.p,
            "mu": p.mu,
            "n": p.n,
            "gamma": p.gamma,
            "version": __version__,
        },
        "seed": p.seed,
        "copies": spec.copies,
        "results": results,
        "summary": summary,
    }


def _scalar_summary(vals) -> dict:
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return {
        "mean": float(mean),
        "std": float(math.sqrt(var)),
        "min": min(vals),
        "max": max(vals),
    }


def _hist_items(hist: dict) -> list:
    """Histogram entries sorted by numeric key, the unreachable bucket last."""
    keys = [k for k in hist if k != _UNREACHABLE]
    keys.sort(key=lambda k: float(k))
    items = [(k, hist[k]) for k in keys]
    if _UNREACHABLE in hist:
        items.append((_UNREACHABLE, hist[_UNREACHABLE]))
    return items


def _mean_counts(hists, copies: int) -> dict:
    total: dict = {}
    for h in hists:
        for k, v in h.items():
            total[k] = total.get(k, 0) + v
    return {str(k): v / copies for k, v in _hist_items(total)}


# -- emitters ----------------------------------------------------------------


def json_value(v):
    """A property value for JSON: histogram keys as strings in numeric order, unreachable last."""
    return {str(k): c for k, c in _hist_items(v)} if isinstance(v, dict) else v


def report_json(report: dict) -> str:
    """Render a report as JSON; numeric histogram keys become ordered strings."""
    doc = dict(report)
    doc["results"] = {name: [json_value(v) for v in vals]
                      for name, vals in report["results"].items()}
    return json.dumps(doc, indent=2) + "\n"


def csv_rows(rows) -> str:
    """`copy,property,value` CSV of (copy, name, value) rows; histograms packed as k:v;k:v."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["copy", "property", "value"])
    for c, name, v in rows:
        if isinstance(v, dict):
            v = ";".join(f"{k}:{n}" for k, n in _hist_items(v))
        w.writerow([c, name, v])
    return buf.getvalue()


def report_csv(report: dict) -> str:
    """Per-copy rows of a report, copy by copy, properties in report order."""
    results = report["results"].items()
    return csv_rows((c, name, vals[c - 1])
                    for c in range(1, report["copies"] + 1) for name, vals in results)


def summary_json(report: dict) -> str:
    """Summary and metadata alone, for the sidecar next to a CSV report."""
    doc = {
        "params": report["params"],
        "seed": report["seed"],
        "copies": report["copies"],
        "summary": report["summary"],
    }
    return json.dumps(doc, indent=2) + "\n"
