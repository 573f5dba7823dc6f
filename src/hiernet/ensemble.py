"""Seeded ensemble experiments: many independent copies, aggregated statistics.

A run draws `copies` networks from one GenParams, copy c on the stream
derived from (seed, c) with c starting at 1, computes the requested
properties per copy, and reduces them in copy order.  Results are
therefore a pure function of (params, copies, properties); the worker
count only changes wall time, never a byte of output.

Most of a small copy's cost is fixed per-level work, not arithmetic, so
copies are measured in stacks.  Each worker process takes one contiguous
range of copies and generates them one at a time, each on its own stream.
It keeps their models in a stack until the next copy would take the stack
past _FOREST_NODES nodes, then lays the stack's copies side by side as one
forest: a model whose root level holds one cluster per copy, every copy
padded up to the deepest one with one-child vertices that carry no bits.
Every analytics pass then runs once per stack, and each property comes
back one value per root, that is, per copy.  A stack of one copy runs on
the copy's own model.  The values are exactly those of `run_copy`, so the
report's bytes depend neither on the worker count nor on the stacking.

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
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import (
    HiernetError,
    HierarchyShape,
    LinkTable,
    NetworkModel,
    ParamError,
    _bit_counts,
    _whole,
)
from .gen import GenParams, generate_network
from .analytics import _UNREACHABLE, PROPERTY_TABLE

__all__ = [
    "PROPERTIES",
    "PROPERTY_TABLE",
    "EnsembleSpec",
    "check_properties",
    "compute_properties",
    "run_copy",
    "run_ensemble",
    "csv_rows",
    "report_json",
    "report_csv",
    "summary_json",
]

# resource guard: every copy's values are held until the report is built
MAX_COPIES = 10**6
# a stack takes copies until the next would take it past this many nodes;
# a stack's working set, and so a worker's peak memory, grows with it
_FOREST_NODES = 1 << 16


@dataclass(frozen=True)
class EnsembleSpec:
    """One experiment: generation parameters, copy count, property selection."""

    params: GenParams
    copies: int
    properties: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "copies", _whole(self.copies, "copies", 1, MAX_COPIES))
        object.__setattr__(self, "properties", check_properties(self.properties, PROPERTIES))


def check_properties(names, valid, kind: str = "property") -> tuple[str, ...]:
    """`names` as a tuple; ParamError when it is empty or lists a name not in `valid`."""
    names = (names,) if isinstance(names, str) else tuple(names)
    if not names:
        raise ParamError(f"at least one {kind} must be requested")
    for name in names:
        if name not in valid:
            raise ParamError(f"unknown {kind} {name!r}; valid: {', '.join(valid)}")
    return names


# every network property, in report order (`analytics.PROPERTY_TABLE`)
PROPERTIES = tuple(PROPERTY_TABLE)


def compute_properties(model: NetworkModel, properties) -> dict:
    """Requested property values of one network, keyed by property name."""
    return {name: PROPERTY_TABLE[name](model)[0]
            for name in check_properties(properties, PROPERTIES)}


def run_copy(params: GenParams, copy: int, properties) -> dict:
    """One ensemble copy: generate on the copy's derived stream, then measure."""
    model = generate_network(params, stream=copy)
    return compute_properties(model, properties)


# -- stacks ------------------------------------------------------------------

# the (child counts, flat bits) of a level of one one-child vertex, which has no bits;
# its count has the counts' dtype, so the levels join with no widening copy
_PAD_LEVEL = (np.ones(1, np.int32), np.zeros(0, np.uint8))


def _forest(p: int, models: list[NetworkModel]) -> NetworkModel:
    """The models side by side, one root per model, as one model; a lone model as it is.

    Each copy is padded to the deepest copy's level count, and to at least
    one level, with one-child vertices that carry no bits; such a vertex
    adds nothing to any pass.  A forest is trusted as built and never serialized.
    """
    if len(models) == 1:
        return models[0]
    counts, flats = [], []
    for g in range(1, max(1, *(m.shape.gamma for m in models)) + 1):
        level = [(m.shape.counts_at(g), m.links.flat_at(g)) if g <= m.shape.gamma else _PAD_LEVEL
                 for m in models]
        for out, parts in zip((counts, flats), zip(*level)):
            out.append(np.concatenate(parts))
    return NetworkModel._trusted(HierarchyShape(p, counts),
                                 LinkTable(flats, map(_bit_counts, counts)))


def _generated(params: GenParams, copy: int) -> NetworkModel:
    try:
        return generate_network(params, stream=copy)
    except Exception as exc:  # noqa: BLE001 - reported with copy provenance below
        raise HiernetError(
            f"copy {copy} (seed={params.seed}, stream={copy}) failed: {exc}"
        ) from exc


def _stacks(params: GenParams, first: int, last: int):
    """Copies first..last in stacks: yields (first copy, copy count, model) per stack.

    A stack holds copies while they fit in _FOREST_NODES nodes, or one copy
    larger than that.  The model is the `_forest` of the stack's copies.
    Each copy is generated on its own stream and kept as its model until
    its stack is full; the stack drops them once their forest is built, so
    the passes over the forest do not run beside them.
    """
    stack: list[NetworkModel] = []
    nodes = 0
    for copy in range(first, last + 1):
        model = _generated(params, copy)
        if stack and nodes + model.shape.n > _FOREST_NODES:
            yield copy - len(stack), len(stack), _taken_forest(params.p, stack)
            nodes = 0
        stack.append(model)
        nodes += model.shape.n
        del model  # the stack's reference is the only one
    yield last + 1 - len(stack), len(stack), _taken_forest(params.p, stack)


def _taken_forest(p: int, stack: list[NetworkModel]) -> NetworkModel:
    """The `_forest` of a stack's models, the stack emptied: the forest alone holds them."""
    forest = _forest(p, stack)
    stack.clear()
    return forest


def _range_worker(args) -> list[bytes]:
    """Values of copies first..last, one pickled list per stack, in copy order.

    A stack's list holds one `PROPERTY_TABLE` result per requested
    property, as the table returns it: one value per copy of the stack.
    Pickled, a copy's histograms take a tenth of the memory they take as
    dicts, and a worker holds a whole range of them until it returns.
    """
    # module-level so process pools can pickle it
    params, first, last, properties = args
    out: list[bytes] = []
    for lo, count, model in _stacks(params, first, last):
        try:
            values = [PROPERTY_TABLE[name](model) for name in properties]
        except Exception as exc:  # noqa: BLE001 - reported with copy provenance below
            hi = lo + count - 1
            where = (f"copy {lo} (seed={params.seed}, stream={lo})" if count == 1 else
                     f"copies {lo}-{hi} (seed={params.seed}, streams {lo}-{hi})")
            raise HiernetError(f"{where} failed: {exc}") from exc
        model = None
        out.append(pickle.dumps(values))
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> dict:
    """Full report dict: params echo, seed, per-copy results, summary.

    Copy order is the reduction order regardless of `workers`, so the
    report is byte-stable across parallelism degrees.  At most one process
    per copy and per usable CPU is started, whatever `workers` asks for,
    and each takes one contiguous range of the copies.
    """
    workers = min(_whole(workers, "workers", 1), spec.copies, _usable_cpus())
    # one contiguous range of copies per worker, the first ones a copy longer
    size, extra = divmod(spec.copies, workers)
    cuts = [w * size + min(w, extra) for w in range(workers + 1)]
    jobs = [(spec.params, lo + 1, hi, spec.properties) for lo, hi in zip(cuts, cuts[1:])]
    if workers == 1:
        per_range = [_range_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_range = list(pool.map(_range_worker, jobs))
    stacks = [pickle.loads(stack) for part in per_range for stack in part]
    results = {}
    summary = {}
    for i, name in enumerate(spec.properties):
        vals = [v for values in stacks for v in values[i]]
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


def _mean_counts(hists, copies: int) -> dict:
    """Each key's count summed over the copies' histograms and divided by `copies`.

    The copies' keys interleave, so the merged keys are put in numeric
    order again, the unreachable bucket last, and written as strings.
    """
    total: dict = {}
    for h in hists:
        for k, v in h.items():
            total[k] = total.get(k, 0) + v
    keys = sorted(total, key=lambda k: math.inf if k == _UNREACHABLE else float(k))
    return {str(k): total[k] / copies for k in keys}


# -- emitters ----------------------------------------------------------------


def report_json(report: dict) -> str:
    """A report, or `hiernet analyze`'s values, as JSON, each histogram in the table's key order."""
    return json.dumps(report, indent=2) + "\n"


def csv_rows(rows) -> str:
    """`copy,property,value` CSV of (copy, name, value) rows; histograms as k:v;k:v, in order."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["copy", "property", "value"])
    for c, name, v in rows:
        if isinstance(v, dict):
            v = ";".join(f"{k}:{n}" for k, n in v.items())
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
