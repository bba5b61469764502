"""Per-layer metrics of a traced run.

Every metric is computed from the spans the benchmark recorded around
its calls into a layer (``spans.Recorder``) or from a counter the
program already exposes (``Pipeline.report()``, ``GET /stats``,
``NESChecker.sequences_tried``, the ``repro_sim_plan_cache_total``
series of an installed ``repro.obs`` registry), handed in by the
workload as ``counters``.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .spans import Recorder
from .stats import mean, median


@dataclass
class Measurement:
    """What one measured phase of a workload produced."""

    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed_ops: int = 0
    # End-to-end samples (ms) and the throughput, under the generic names.
    primary: List[float] = field(default_factory=list)
    secondary: List[float] = field(default_factory=list)
    throughput: float = 0.0
    # Layer counters read from the program's own reporting surfaces.
    counters: Dict[str, float] = field(default_factory=dict)


def _mean_attr(rec: Recorder, name: str, attr: str) -> float:
    return mean([s["attrs"][attr] for s in rec.named(name) if attr in s["attrs"]])


def _rate(rec: Recorder, name: str, attr: str) -> float:
    spans = rec.named(name)
    busy = sum(s["duration"] for s in spans)
    work = sum(s["attrs"].get(attr, 0) for s in spans)
    return work / busy if busy else 0.0


# Client spans of every ``POST /compile`` the callers send: the
# population the daemon's ``/stats`` compile latency window holds.
COMPILE_CALLS = ("service.client.compile_warm", "service.client.compile_cold",
                 "service.client.compile_fallback")


def _transport_ms_p50(rec: Recorder, counters: Dict[str, float]) -> float:
    """Client minus server p50 over the same requests: the last
    ``service.server.compile.window`` compile calls of the traced phase
    (the daemon's window when ``/stats`` was read right after it), with
    the daemon's nearest-rank quantile rule."""
    window = int(counters.get("service.server.compile.window", 0))
    server_p50 = counters.get("service.server.compile.ms_p50", 0.0)
    calls = [s["duration"] * 1e3 for s in rec.spans if s["name"] in COMPILE_CALLS]
    if not window or not server_p50 or len(calls) < window:
        return 0.0
    ordered = sorted(calls[-window:])
    return ordered[window // 2] - server_p50


def per_layer(rec: Recorder, counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric by name (units are in BENCHMARK.json)."""
    out: Dict[str, float] = {
        "netkat.parser.ms": mean(rec.durations_ms("netkat.parser")),
        "netkat.parser.chars_per_s": _rate(rec, "netkat.parser", "chars"),
        "stateful.ets.ms": mean(rec.durations_ms("stateful.ets")),
        "stateful.ets.states": _mean_attr(rec, "stateful.ets", "states"),
        "events.nes.ms": mean(rec.durations_ms("events.nes")),
        "events.nes.events": _mean_attr(rec, "events.nes", "events"),
        "events.nes.event_sets": _mean_attr(rec, "events.nes", "event_sets"),
        "runtime.compiler.ms": mean(rec.durations_ms("runtime.compiler")),
        "runtime.compiler.configurations": _mean_attr(rec, "runtime.compiler", "configurations"),
        "runtime.compiler.rules": _mean_attr(rec, "runtime.compiler", "rules"),
        "pipeline.update.ms": mean(rec.durations_ms("pipeline.update")),
        "pipeline.artifact_key.ms": mean(rec.durations_ms("pipeline.artifact_key")),
        "service.client.compile_warm.ms_p50": median(rec.durations_ms("service.client.compile_warm")),
        "service.client.compile_cold.ms_p50": median(rec.durations_ms("service.client.compile_cold")),
        "service.client.update.ms_p50": median(rec.durations_ms("service.client.update")),
        "service.protocol.program_from_wire.ms": mean(rec.durations_ms("service.protocol.program_from_wire")),
        "service.protocol.tables_to_wire.ms": mean(rec.durations_ms("service.protocol.tables_to_wire")),
        "network.simulator.inject_stream.ms": mean(rec.durations_ms("network.simulator.inject_stream")),
        "network.simulator.run_s": float(sum(s["duration"] for s in rec.named("network.simulator.run"))),
        "runtime.semantics.ms": mean(rec.durations_ms("runtime.semantics")),
        "runtime.semantics.positions": _mean_attr(rec, "runtime.semantics", "positions"),
        "consistency.checker.ms": mean(rec.durations_ms("consistency.checker")),
        "consistency.checker.positions_per_s": _rate(rec, "consistency.checker", "positions"),
        "consistency.checker.sequences_tried": _mean_attr(rec, "consistency.checker", "sequences_tried"),
    }
    reused = counters.get("update.configurations_reused", 0)
    total = reused + counters.get("update.configurations_recompiled", 0)
    out["pipeline.update.reuse_ratio"] = reused / total if total else 0.0
    out["service.transport.ms_p50"] = _transport_ms_p50(rec, counters)
    for name in (
        "service.server.compile.ms_p50", "service.server.update.ms_p50",
        "service.memo_hit_ratio", "service.disk_hits", "service.cold_compiles",
        "service.singleflight_coalesced", "service.update_fallbacks",
        "network.simulator.events", "network.simulator.plan_hit_ratio",
        "network.simulator.deliveries", "network.simulator.drops",
        "network.switch_logic.events_learned",
    ):
        out[name] = float(counters.get(name, 0.0))
    return out


def self_time_table(rec: Recorder) -> List[Tuple[str, float, float]]:
    """(layer, self seconds, share of the traced wall) rows, largest
    first, ending with the remainder and the wall itself."""
    times = rec.self_times()
    wall = times.pop("wall")
    remainder = times.pop("remainder")
    rows = sorted(times.items(), key=lambda kv: -kv[1])
    rows.append(("remainder", remainder))
    return [(layer, seconds, seconds / wall if wall else 0.0) for layer, seconds in rows] + [
        ("wall", wall, 1.0)
    ]
