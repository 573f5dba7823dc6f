"""Workloads and measurement for the hiernet benchmark.

Every workload runs the same four user steps in a fixed cycle, one after
another, until the requested seconds have passed (and, untraced, every
query of the list has been asked once, so p99 rests on 1000 samples):

  G  cli.main(["generate", ...]) writes a BHNET file
  A  cli.main(["analyze", ...]) on that file: all eight ensemble
     properties plus wedges, as JSON
  Q  a batch of closed-loop point queries from one caller, a third each
     of distance, node_degree and triangles_at_node, against a model
     built and warmed during set-up
  E  cli.main(["ensemble", ...]) with two worker processes

The workloads differ in the network they draw and in their cycle.  Each
CLI call starts with the lru_caches of `hiernet.analytics` emptied, as a
fresh `hiernet` process has them.

The untraced run reports the end-to-end metrics.  The traced run replays
generate and analyze as the public calls the CLI makes, with a span
around each, and times the queries and the ensemble copies the same way.
It runs every generate and analyze replay untraced as well, right before
or after the traced one, to measure its own overhead.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hiernet import analytics, cli, core, ensemble, gen

import checks
from tracing import Tracer

PROPS = ",".join(ensemble.PROPERTIES)
ANALYZE_PROPS = PROPS + ",wedges"
WORKERS = 2
SETUP_REPS = 3
REF_PROBE_S = 0.02  # median speed_probe() time on the machine in README.md
TIME_UNITS = ("s", "ms", "us")
QUERY_FNS = {
    "distance": analytics.distance,
    "node_degree": analytics.node_degree,
    "triangles": analytics.triangles_at_node,
}

E2E_UNITS = {
    "setup_s": "s",
    "generate_s": "s",
    "analyze_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "copies_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name -> (metric name, unit, divisor from ns); the median span is reported
SPAN_METRICS = {
    "gen.shape": ("gen.shape_s", "s", 1e9),
    "gen.links": ("gen.links_s", "s", 1e9),
    "core.validate": ("core.validate_s", "s", 1e9),
    "core.serialize": ("core.serialize_s", "s", 1e9),
    "core.deserialize": ("core.deserialize_s", "s", 1e9),
    "analytics.aggregates": ("analytics.aggregates_s", "s", 1e9),
    "analytics.node_passes": ("analytics.node_passes_s", "s", 1e9),
    "analytics.components": ("analytics.components_s", "s", 1e9),
    "analytics.distance_scan": ("analytics.distance_scan_s", "s", 1e9),
    "analytics.distance_query": ("analytics.distance_query_us", "us", 1e3),
    "analytics.node_degree_query": ("analytics.node_degree_query_us", "us", 1e3),
    "analytics.triangles_query": ("analytics.triangles_query_us", "us", 1e3),
    "ensemble.properties": ("ensemble.properties_s", "s", 1e9),
    "ensemble.copy": ("ensemble.copy_ms", "ms", 1e6),
    "ensemble.emit": ("ensemble.emit_s", "s", 1e9),
    "cli.emit": ("cli.emit_s", "s", 1e9),
}
SELF_LAYERS = ("gen", "core", "analytics", "ensemble", "cli")

LAYER_UNITS = {
    **{name: unit for name, unit, _ in SPAN_METRICS.values()},
    "gen.link_bits": "count",
    "core.bhnet_bytes": "count",
    "analytics.internal_vertices": "count",
    "analytics.child_groups": "count",
    "analytics.distinct_patterns": "count",
    "analytics.pattern_cache_hit_ratio": "ratio",
    "ensemble.pool_efficiency": "ratio",
    **{f"self.{layer}_s": "s" for layer in SELF_LAYERS},
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One network family and the amount of each pipeline step per cycle."""

    name: str
    mode: str      # "regular" or "by-nodes"
    p: int
    mu: float
    size: int      # gamma for "regular", node count for "by-nodes"
    cycle: str     # steps: G generate, A analyze, Q query batch, E ensemble; holds a Q
    queries: int   # length of the point-query list
    batch: int     # point queries per Q step
    copies: int    # ensemble copies per E step

    def params(self, seed: int) -> gen.GenParams:
        if self.mode == "regular":
            return gen.GenParams(mode="regular", p=self.p, mu=self.mu, seed=seed, gamma=self.size)
        return gen.GenParams(mode="by-nodes", p=self.p, mu=self.mu, seed=seed, n=self.size)

    def gen_flags(self, seed: int) -> list[str]:
        size_flag = "--regular" if self.mode == "regular" else "--nodes"
        return [size_flag, str(self.size), "--p", str(self.p), "--mu", str(self.mu),
                "--seed", str(seed)]

    def draw_shape(self, rng: gen.RngStream) -> core.HierarchyShape:
        if self.mode == "regular":
            return gen.generate_shape_regular(self.size, self.p)
        return gen.generate_shape_by_nodes(self.size, self.p, rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("regular-g13", "regular", p=3, mu=0.5, size=13, cycle="GQAQEQ",
                 queries=1000, batch=167, copies=2),
        Workload("wide-p16", "by-nodes", p=16, mu=0.5, size=50_000, cycle="GQAQGQEQ",
                 queries=1000, batch=1250, copies=2),
        Workload("ensemble-n19683", "by-nodes", p=3, mu=0.8, size=19_683,
                 cycle="GAQ" * 5 + "E", queries=1000, batch=700, copies=200),
    )
}


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    lines: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }

    def exit_code(self) -> int:
        return 0 if self.failed == 0 else 1


@dataclass
class Files:
    bhnet: Path
    analyze: Path
    ensemble: Path


# -- shared pieces -------------------------------------------------------------


def speed_probe() -> float:
    """Seconds of a fixed pure-Python and numpy job that never touches hiernet.

    The CPUs of the machine are shared, and their speed drifts by up to
    twofold over tens of seconds.  A probe measures how fast the CPU runs
    at that moment; because it runs no hiernet code, a faster or slower
    hiernet cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    np.sort(np.arange(300_000, dtype=np.int64)[::-1]).sum()
    return time.perf_counter() - t0


class SpeedClock:
    """Factors that rescale each timed step to the reference CPU speed.

    It probes the CPU before the first step and after every step.  A step's
    factor is REF_PROBE_S over the mean of the two probes around it, so a
    step timed while the CPU ran slow is scaled down, and one timed while it
    ran fast is scaled up.
    """

    def __init__(self):
        self._last = speed_probe()
        self.factors: list[float] = []

    def factor(self) -> float:
        """The factor of the step that just ended."""
        nxt = speed_probe()
        f = 2 * REF_PROBE_S / (self._last + nxt)
        self._last = nxt
        self.factors.append(f)
        return f


def clear_pattern_caches() -> None:
    """Empty every lru_cache in hiernet.analytics, as a fresh process has them."""
    for obj in vars(analytics).values():
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()


def pattern_cache_stats() -> tuple[int, int]:
    """(hits, misses) of the child-graph pattern caches; (0, 0) if there are none."""
    hits = misses = 0
    for name in ("_pattern_distances", "_pattern_components"):
        info = getattr(getattr(analytics, name, None), "cache_info", None)
        if info is not None:
            i = info()
            hits += i.hits
            misses += i.misses
    return hits, misses


def make_queries(seed: int, n: int, count: int) -> list[tuple[str, tuple[int, ...]]]:
    """`count` point queries on seeded random nodes, a third of each kind, shuffled."""
    rng = np.random.default_rng([seed, 1])
    kinds = np.resize(np.arange(len(QUERY_FNS)), count)
    rng.shuffle(kinds)
    nodes = rng.integers(1, n + 1, size=(count, 2))
    names = list(QUERY_FNS)
    return [
        (names[k], (int(x), int(y)) if names[k] == "distance" else (int(x),))
        for k, (x, y) in zip(kinds, nodes)
    ]


def set_up(w: Workload, seed: int):
    """The query model, built and warmed, and the query list."""
    model = gen.generate_network(w.params(seed))
    queries = make_queries(seed, model.shape.n, w.queries)
    analytics.distance(model, 1, model.shape.n)
    analytics.node_degree(model, 1)
    analytics.triangles_at_node(model, 1)
    return model, queries


class QueryLoop:
    """Closed-loop point queries from one caller, `batch` at a time through the list.

    The list wraps around, so a long run asks some queries again; a repeated
    query must give its first answer.  Every query asked counts one attempt.
    """

    def __init__(self, model, queries, batch: int):
        self.model = model
        self.queries = queries
        self.batch = batch
        self.answers: list = [None] * len(queries)
        self.asked = [False] * len(queries)
        self.ns: list[int] = []
        self._next = 0

    def _ask(self, i: int, tr: Tracer, chk: checks.Checker) -> None:
        kind, args = self.queries[i]
        fn = QUERY_FNS[kind]
        with tr.span(f"analytics.{kind}_query"):
            t0 = time.perf_counter_ns()
            ans = fn(self.model, *args)
            self.ns.append(time.perf_counter_ns() - t0)
        if self.asked[i]:
            chk.expect(ans == self.answers[i], f"query {kind}{args}: repeat gave {ans}")
        else:
            chk.attempted += 1
            self.answers[i], self.asked[i] = ans, True

    def run_batch(self, tr: Tracer, chk: checks.Checker) -> None:
        for _ in range(self.batch):
            self._ask(self._next, tr, chk)
            self._next = (self._next + 1) % len(self.queries)

    def finish(self, chk: checks.Checker) -> str:
        """Ask, untimed, the queries no batch reached; the text of all answers."""
        off = Tracer("", enabled=False)
        for i, asked in enumerate(self.asked):
            if not asked:
                self._ask(i, off, chk)
        return checks.answers_text(self.queries, self.answers)


def _digest_into(seen: dict, kind: str, data: bytes) -> None:
    seen.setdefault(kind, set()).add(checks.sha256(data))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024  # ru_maxrss is in KiB on Linux


def _check_outputs(chk, w, model, qloop: QueryLoop, files, seen, pinned) -> None:
    _digest_into(seen, "queries", qloop.finish(chk).encode())
    checks.check_artifacts(chk, seen, pinned)
    checks.check_bhnet(chk, files.bhnet.read_text(encoding="ascii"), model)
    checks.check_analyze(chk, files.analyze.read_text(encoding="ascii"), model)
    checks.check_queries(chk, qloop.queries, qloop.answers, model)
    checks.check_ensemble(chk, files.ensemble.read_text(encoding="ascii"), w.copies,
                          model.shape.n)


# -- untraced run: end-to-end metrics -----------------------------------------


def _cli(args: list[str], chk: checks.Checker) -> float:
    """Seconds one `hiernet` command takes; its exit code counts as an operation."""
    clear_pattern_caches()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(args)
    dt = time.perf_counter() - t0
    chk.expect(rc == 0, f"hiernet {args[0]} exited {rc}")
    return dt


def _untraced(w: Workload, seed: int, seconds: float, files: Files, chk, pinned):
    clock = SpeedClock()
    setup_s = []  # (measured, factor) pairs, as gen_s, ana_s and copy_s
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        model, queries = set_up(w, seed)
        setup_s.append((time.perf_counter() - t0, clock.factor()))
    flags = w.gen_flags(seed)
    qloop = QueryLoop(model, queries, w.batch)
    query_f = []  # factor of each qloop.ns sample
    off = Tracer(w.name, enabled=False)
    gen_s, ana_s, copy_s = [], [], []
    seen: dict = {}
    cycles = 0
    start = time.perf_counter()
    while len(qloop.ns) < len(queries) or time.perf_counter() - start < seconds:
        for step in w.cycle:
            if step == "G":
                dt = _cli(["generate", *flags, "--out", str(files.bhnet)], chk)
                gen_s.append((dt, clock.factor()))
                _digest_into(seen, "bhnet", files.bhnet.read_bytes())
            elif step == "A":
                dt = _cli(["analyze", "--input", str(files.bhnet), "--props", ANALYZE_PROPS,
                           "--format", "json", "--out", str(files.analyze)], chk)
                ana_s.append((dt, clock.factor()))
                _digest_into(seen, "analyze", files.analyze.read_bytes())
            elif step == "Q":
                qloop.run_batch(off, chk)
                query_f += [clock.factor()] * (len(qloop.ns) - len(query_f))
            else:
                dt = _cli(["ensemble", *flags, "--copies", str(w.copies), "--props", PROPS,
                           "--workers", str(WORKERS), "--format", "json",
                           "--out", str(files.ensemble)], chk)
                copy_s.append((dt / w.copies, clock.factor()))
                _digest_into(seen, "ensemble", files.ensemble.read_bytes())
        cycles += 1
    peak = _peak_rss_mb()
    q_us = np.array(qloop.ns, dtype=np.float64) / 1e3
    _check_outputs(chk, w, model, qloop, files, seen, pinned)

    def summary(rescale: bool) -> dict:
        def median(samples):
            return statistics.median(t * f if rescale else t for t, f in samples)
        q = q_us * np.array(query_f) if rescale else q_us
        return {
            "setup_s": median(setup_s),
            "generate_s": median(gen_s),
            "analyze_s": median(ana_s),
            "query_p50_us": float(np.percentile(q, 50)),
            "query_p99_us": float(np.percentile(q, 99)),
            "copies_per_s": 1 / median(copy_s),
            "peak_rss_mb": peak,
        }

    notes = [
        f"cycles {cycles} of {w.cycle}; set-ups {len(setup_s)}; generate/analyze calls "
        f"{len(gen_s)}/{len(ana_s)}; query samples {len(q_us)}; "
        f"ensemble calls {len(copy_s)} x {w.copies} copies",
        _speed_note(clock),
    ]
    return summary(True), summary(False), E2E_UNITS, seen, notes


def _speed_note(clock: SpeedClock) -> str:
    return (f"speed factors over {len(clock.factors)} steps: median "
            f"{statistics.median(clock.factors):.4f}, range {min(clock.factors):.4f}.."
            f"{max(clock.factors):.4f}; values are at reference speed, measured in parentheses")


# -- traced run: per-layer metrics --------------------------------------------


def _replay_generate(w: Workload, seed: int, path: Path, tr: Tracer) -> str:
    """What `hiernet generate` does, as public calls."""
    clear_pattern_caches()
    with tr.span("cli.generate"):
        rng = gen.RngStream(seed, 0)
        with tr.span("gen.shape"):
            shape = w.draw_shape(rng)
        with tr.span("gen.links"):
            links = gen.generate_links(shape, w.mu, rng)
        model = core.NetworkModel(shape, links)
        with tr.span("core.validate"):
            core.validate(model)
        with tr.span("core.serialize"):
            text = core.serialize(model)
        path.write_text(text, encoding="ascii")
        with tr.span("analytics.aggregates"):
            analytics.edge_count(model)
    return text


def _replay_analyze(src: Path, out: Path, tr: Tracer) -> None:
    """What `hiernet analyze` does, with each pass timed on the fresh model in turn."""
    clear_pattern_caches()
    with tr.span("cli.analyze"):
        text = src.read_text(encoding="ascii")
        with tr.span("core.deserialize"):
            model = core.deserialize(text)
        with tr.span("analytics.aggregates"):
            analytics.cluster_aggregates(model)
        with tr.span("analytics.node_passes"):
            analytics.node_degrees(model)
        with tr.span("analytics.components"):
            analytics.component_sizes(model)
        with tr.span("analytics.distance_scan"):
            analytics.distance_distribution(model)
        with tr.span("ensemble.properties"):
            values = ensemble.compute_properties(model, ensemble.PROPERTIES)
        values["wedges"] = analytics.wedge_count(model)
        with tr.span("cli.emit"):
            doc = cli.report_json_single(values)
        out.write_text(doc, encoding="ascii")


def _replay_ensemble(w: Workload, seed: int, out: Path, tr: Tracer, chk) -> float:
    """Copies in-process, then the pool run; returns the cycle's pool efficiency."""
    params = w.params(seed)
    clear_pattern_caches()
    per_copy = []
    copy_ns = 0
    for c in range(1, w.copies + 1):
        with tr.span("ensemble.copy", copy=c):
            t0 = time.perf_counter_ns()
            per_copy.append(ensemble.run_copy(params, c, ensemble.PROPERTIES))
            copy_ns += time.perf_counter_ns() - t0
    clear_pattern_caches()
    spec = ensemble.EnsembleSpec(params=params, copies=w.copies, properties=ensemble.PROPERTIES)
    with tr.span("ensemble.pool"):
        t0 = time.perf_counter_ns()
        report = ensemble.run_ensemble(spec, workers=WORKERS)
        pool_ns = time.perf_counter_ns() - t0
    with tr.span("ensemble.emit"):
        text = ensemble.report_json(report)
    out.write_text(text, encoding="ascii")
    for name in ensemble.PROPERTIES:
        chk.expect(report["results"][name] == [pc[name] for pc in per_copy],
                   f"ensemble: pool and in-process results differ for {name}")
    return copy_ns / (WORKERS * pool_ns)


def work_counts(model: core.NetworkModel) -> dict[str, int]:
    """Exact per-layer work counts, from HierarchyShape and LinkTable alone."""
    shape, links = model.shape, model.links
    levels = range(1, shape.gamma + 1)
    patterns = set()
    for g in levels:
        counts, flat, starts = shape.counts_at(g), links.flat_at(g), links.starts_at(g)
        for c in np.unique(counts):
            c = int(c)
            if c < 2:
                continue
            sel = np.nonzero(counts == c)[0]
            rows = flat[starts[sel][:, None] + np.arange(c * (c - 1) // 2)]
            patterns.update((c, r.tobytes()) for r in np.unique(rows, axis=0))
    return {
        "gen.link_bits": sum(int(links.nbits_at(g).sum()) for g in levels),
        "analytics.internal_vertices": sum(shape.n_clusters(g) for g in levels),
        "analytics.child_groups": sum(len(np.unique(shape.counts_at(g))) for g in levels),
        "analytics.distinct_patterns": len(patterns),
    }


def _traced(w: Workload, seed: int, seconds: float, files: Files, chk, pinned, trace_path):
    model, queries = set_up(w, seed)
    clock = SpeedClock()
    qloop = QueryLoop(model, queries, w.batch)
    tr = Tracer(w.name)
    off = Tracer(w.name, enabled=False)
    seen: dict = {}
    untraced_ns, traced_ns, hit_ratio, efficiency = [], [], [], []
    bhnet_bytes = 0

    def paired(replay, *args):
        # the same replay untraced and traced, back to back, in alternating order
        first_off = len(untraced_ns) % 2 == 0
        for tracer in ((off, tr) if first_off else (tr, off)):
            t0 = time.perf_counter_ns()
            out = replay(*args, tracer)
            (untraced_ns if tracer is off else traced_ns).append(time.perf_counter_ns() - t0)
        return out

    cycles = 0
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        with tr.span("bench.cycle"):
            for step in w.cycle:
                if step == "G":
                    bhnet_bytes = len(paired(_replay_generate, w, seed, files.bhnet))
                    _digest_into(seen, "bhnet", files.bhnet.read_bytes())
                elif step == "A":
                    paired(_replay_analyze, files.bhnet, files.analyze)
                    hits, misses = pattern_cache_stats()
                    hit_ratio.append(hits / (hits + misses) if hits + misses else 0.0)
                    _digest_into(seen, "analyze", files.analyze.read_bytes())
                elif step == "Q":
                    with tr.span("bench.queries"):
                        qloop.run_batch(tr, chk)
                else:
                    with tr.span("bench.ensemble"):
                        efficiency.append(_replay_ensemble(w, seed, files.ensemble, tr, chk))
                    _digest_into(seen, "ensemble", files.ensemble.read_bytes())
                clock.factor()
        cycles += 1
    tr.write_jsonl(trace_path)
    _check_outputs(chk, w, model, qloop, files, seen, pinned)

    durations = tr.durations()
    values = {metric: statistics.median(durations[span]) / div
              for span, (metric, _, div) in SPAN_METRICS.items()}
    self_ns = tr.self_ns()
    values.update({f"self.{layer}_s": self_ns[layer] / cycles / 1e9 for layer in SELF_LAYERS})
    values.update(work_counts(model))
    values["core.bhnet_bytes"] = bhnet_bytes
    values["analytics.pattern_cache_hit_ratio"] = statistics.median(hit_ratio)
    values["ensemble.pool_efficiency"] = statistics.median(efficiency)
    base, traced = sum(untraced_ns), sum(traced_ns)
    values["trace.overhead_frac"] = (traced - base) / base
    speed = statistics.median(clock.factors)
    scaled = {name: _at_reference_speed(v, LAYER_UNITS[name], speed) for name, v in values.items()}
    notes = [
        f"cycles {cycles} of {w.cycle}; spans {len(tr.spans)} written to {trace_path}",
        _speed_note(clock),
        f"tracing overhead: {len(traced_ns)} generate/analyze replays took {traced / 1e9:.4f} s "
        f"traced vs {base / 1e9:.4f} s untraced",
    ]
    return scaled, values, LAYER_UNITS, seen, notes


# -- entry ---------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, pinned: dict,
                 work_root: Path) -> Result:
    """Set up, measure for `seconds`, check the outputs; never raises."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root))
    files = Files(work / "net.bhnet", work / "analyze.json", work / "ensemble.json")
    chk = checks.Checker()
    try:
        if trace:
            trace_path = work_root / f"trace-{w.name}-seed{seed}.jsonl"
            values, measured, units, seen, notes = _traced(w, seed, seconds, files, chk, pinned,
                                                           trace_path)
        else:
            values, measured, units, seen, notes = _untraced(w, seed, seconds, files, chk,
                                                             pinned)
    except Exception as exc:  # noqa: BLE001 - the run reports any failure as a result
        traceback.print_exc(file=sys.stderr)
        chk.expect(False, f"run aborted: {type(exc).__name__}: {exc}")
        return Result({}, chk.attempted, chk.failed,
                      [f"FAILED {m}" for m in chk.failures] + [_failed_frac(chk)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    lines = [f"workload {w.name} seed {seed} trace {int(trace)}", *notes]
    lines += [f"{name} {v:.6g} {unit} (measured {measured[name]:.6g})"
              for name, (v, unit) in metrics.items()]
    lines += [f"digest {kind} {' '.join(sorted(seen.get(kind, ())))}"
              for kind in checks.ARTIFACTS]
    lines += [f"FAILED {m}" for m in chk.failures] + [_failed_frac(chk)]
    return Result(metrics, chk.attempted, chk.failed, lines)


def _at_reference_speed(value: float, unit: str, speed: float) -> float:
    """A time or rate as the reference machine would have measured it."""
    if unit in TIME_UNITS:
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def _failed_frac(chk: checks.Checker) -> str:
    return f"failed_frac {chk.failed / max(chk.attempted, 1):.6g} ({chk.failed}/{chk.attempted})"
