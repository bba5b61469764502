"""The benchmark's own span recorder, Chrome-trace export and layer split.

Spans are recorded here, around the benchmark's calls into each layer's
public functions; nothing inside ``src/`` is instrumented.  They stay in
memory and are written out when the run ends.  A span's self time is
its duration minus the durations of its direct children; a layer's self
time is the sum over its spans.  The layer split accounts in
thread-seconds: every thread that recorded a span inside the traced
window is charged the time from its first span's start to its last
span's end, and the part of that no span covers is the explicit
``remainder``, so layer self times plus the remainder add up to the
traced wall time (summed over threads when several ran).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

MAX_SPANS = 500_000

# Span-name prefixes that name a layer; the longest matching prefix wins.
# Spans under "bench." are the benchmark's own harness around each
# operation (input handling, result bookkeeping).
LAYERS = (
    "bench",
    "netkat.parser",
    "stateful.ets",
    "events.nes",
    "runtime.compiler",
    "pipeline.update",
    "pipeline.artifact_key",
    "service.client",
    "service.protocol",
    "network.simulator",
    "runtime.semantics",
    "consistency.checker",
)


def layer_of(name: str) -> str:
    matches = [layer for layer in LAYERS if name == layer or name.startswith(layer + ".")]
    return max(matches, key=len) if matches else "other"


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("recorder", "record", "start")

    def __init__(self, recorder: "Recorder", record: Dict[str, Any]):
        self.recorder = recorder
        self.record = record

    def set(self, **attrs: Any) -> None:
        self.record["attrs"].update(attrs)

    def __enter__(self) -> "_Span":
        local = self.recorder._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        record = self.record
        if stack:
            parent = stack[-1]
            record["parent_id"] = parent["span_id"]
            record["trace_id"] = parent["trace_id"]
        else:
            record["trace_id"] = f"{record['span_id']:x}"
        stack.append(record)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        record = self.record
        record["start"] = self.start
        record["duration"] = end - self.start
        self.recorder._local.stack.pop()
        self.recorder._finish(record)


class Recorder:
    """In-memory spans; a disabled recorder hands out one shared no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.window_start: Optional[float] = None
        self.window_end: Optional[float] = None

    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, {
            "name": name,
            "span_id": next(self._ids),
            "parent_id": None,
            "trace_id": "",
            "thread": threading.get_ident(),
            "attrs": dict(attrs),
        })

    def _finish(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(record)
            else:
                self.dropped += 1

    def open_window(self) -> None:
        self.window_start = time.perf_counter()

    def close_window(self) -> None:
        self.window_end = time.perf_counter()

    # -- reading --------------------------------------------------------------

    def finished(self) -> List[Dict[str, Any]]:
        """The recorded spans, in the shape ``repro.obs.export.chrome_trace``
        reads from a tracer (it also reads :attr:`dropped`)."""
        return self.spans

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def durations_ms(self, name: str) -> List[float]:
        return [s["duration"] * 1e3 for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer, plus ``remainder`` and ``wall``
        (thread-seconds inside the traced window).  Spans recorded outside
        the window (set-up, checks after it) are left out of the split."""
        if self.window_start is None or self.window_end is None:
            raise RuntimeError("the traced window was never opened and closed")
        spans = [s for s in self.spans if s["start"] >= self.window_start
                 and s["start"] + s["duration"] <= self.window_end]
        children: Dict[int, float] = {}
        for s in spans:
            if s["parent_id"] is not None:
                children[s["parent_id"]] = children.get(s["parent_id"], 0.0) + s["duration"]
        layers: Dict[str, float] = {}
        for s in spans:
            own = max(0.0, s["duration"] - children.get(s["span_id"], 0.0))
            layer = layer_of(s["name"])
            layers[layer] = layers.get(layer, 0.0) + own
        active: Dict[int, List[float]] = {}
        for s in spans:
            interval = active.setdefault(s["thread"], [s["start"], s["start"] + s["duration"]])
            interval[0] = min(interval[0], s["start"])
            interval[1] = max(interval[1], s["start"] + s["duration"])
        wall = sum(end - start for start, end in active.values())
        layers["remainder"] = wall - sum(layers.values())
        layers["wall"] = wall
        return layers
