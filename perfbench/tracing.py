"""Host-time spans around the program's public entry points.

Only the traced run imports this module, so untraced runs carry no
wrappers. Spans live in memory -- name, start, end, parent span
and cell id -- and are written out once, at the end, as a Chrome
``trace_event`` file (opens in Perfetto) plus a self-time table. Host
times never touch the program's metrics registry, specs or provenance.

Where a caller binds a name at import, the wrapper is installed at the
caller's site (``repro.faults.recovery.verify_degraded``,
``repro.faults.reroute.is_deadlock_free``, a service's ``network.step``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Recorder:
    """In-memory span stack and counters for one traced process."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or -1, cell id or "")
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._cell = ""

    @contextmanager
    def span(self, name: str, cell: str | None = None) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer_cell = self._cell
        if cell is not None:
            self._cell = cell
        self.spans.append((sid, name, 0.0, 0.0, parent, self._cell))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._cell)
            self._cell = outer_cell

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        count: tuple[str, Callable[[Any], int]] | None = None,
        cell: Callable[..., str] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, cell(*args) if cell else None):
                result = original(*args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot paths)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- reductions ----------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name] += end - start - child[sid]
        return dict(out)

    def chrome_trace(self) -> dict[str, Any]:
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent, "cell": cell},
            }
            for sid, name, start, end, parent, cell in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_table(self_times: dict[str, float]) -> str:
    """Per-layer and per-span self seconds, largest first."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in self_times.items():
        layers[name.split(".", 1)[0]] += seconds
    lines = [f"{'layer':<12} {'self_s':>10}"]
    lines += [
        f"{layer:<12} {seconds:>10.4f}"
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
    ]
    lines += ["", f"{'span':<32} {'self_s':>10}"]
    lines += [
        f"{name:<32} {seconds:>10.4f}"
        for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1])
    ]
    return "\n".join(lines)


def install(recorder: Recorder, cell_name: Callable[[Any], str]) -> None:
    """Wrap every layer's public entry points for one traced run."""
    from repro import telemetry
    from repro.core.system import NetworkedCacheSystem
    from repro.experiments import cache, runner
    from repro.faults import campaign, recovery, reroute
    from repro.stream import engine as stream_engine
    from repro.stream.service import StreamService
    from repro.workloads.generator import TraceGenerator

    wrap = recorder.wrap
    wrap(runner, "run_cells", "engine.run_cells")
    wrap(runner, "execute_cell", "engine.execute_cell", cell=cell_name)
    wrap(
        TraceGenerator,
        "generate_with_warmup",
        "workloads.generate_with_warmup",
        count=("workloads.trace_accesses", lambda out: len(out[0])),
    )
    wrap(NetworkedCacheSystem, "__init__", "core.build")
    wrap(
        NetworkedCacheSystem,
        "run",
        "core.run",
        count=("core.accesses", lambda result: result.accesses),
    )
    wrap(cache.ResultCache, "put", "cache.put")
    wrap(telemetry, "merge_run", "telemetry.merge_run")

    wrap(campaign, "run_campaign", "faults.run_campaign")
    wrap(recovery.DegradedCacheGeometry, "__init__", "faults.geometry_build")
    wrap(recovery, "verify_degraded", "faults.verify_degraded")
    wrap(reroute, "is_deadlock_free", "faults.is_deadlock_free")
    recorder.count_calls(reroute.DegradedRouting, "path", "faults.route_paths")

    wrap(
        stream_engine,
        "generate_arrivals",
        "stream.generate_arrivals",
        count=("stream.requests_offered", len),
    )
    wrap(StreamService, "run", "stream.run")
    wrap(StreamService, "publish_metrics", "stream.publish_metrics")
    build_service = stream_engine.build_service

    def traced_build_service(spec: Any) -> Any:
        service = build_service(spec)
        recorder.count_calls(service.network, "step", "noc.steps")
        wrap(service.network, "step", "noc.step")
        return service

    stream_engine.build_service = traced_build_service
