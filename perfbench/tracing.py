"""In-memory spans around calls into the package, timed from outside it.

A span records its name, start and end on the monotonic ns clock, the
span it was opened under, the workload and an optional ensemble copy id.
Spans stay in memory until `write_jsonl` writes them, one JSON object per
line.  A disabled tracer hands out one shared no-op context and records
nothing, so the same call sequence runs traced and untraced.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_OFF = contextlib.nullcontext()


class Tracer:
    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, copy: int | None = None):
        """Context manager timing its body; `name` is `<layer>.<step>`."""
        if not self.enabled:
            return _OFF
        return self._record(name, copy)

    @contextlib.contextmanager
    def _record(self, name: str, copy: int | None):
        entry = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "workload": self.workload,
            "copy": copy,
            "start_ns": 0,
            "end_ns": 0,
        }
        self.spans.append(entry)
        self._open.append(entry["id"])
        entry["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            entry["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def durations(self) -> dict[str, list[int]]:
        """Span durations in ns, grouped by span name, in recording order."""
        out: dict[str, list[int]] = defaultdict(list)
        for s in self.spans:
            out[s["name"]].append(s["end_ns"] - s["start_ns"])
        return out

    def self_ns(self) -> dict[str, int]:
        """Total self time per layer: span time not covered by its child spans."""
        covered: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += s["end_ns"] - s["start_ns"] - covered[s["id"]]
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
