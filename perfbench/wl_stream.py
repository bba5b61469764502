"""stream_verify: both executions up to a checked verdict, in-process.

(a) The timed simulator: ``SimNetwork`` + ``CorrectLogic`` streams
through ``inject_stream`` -- a ring stream with no events (emission
plans replay) and a bidirectional H1<->H4 bandwidth-cap stream whose cap
events fire mid-stream, so later replies are dropped.  Throughput is
simulator events per second of ``run`` time.

(b) The Figure 7 runtime (``Runtime``): seeded sequential ping
executions on firewall / bandwidth-cap / ids / authentication, traces
of 50 to 1600 positions, each checked by ``NESChecker`` to a verdict.
Primary samples are verdict times (trace in hand -> verdict), secondary
samples runtime executions (app -> trace).

The two parts alternate by their share of the time spent
(:data:`STREAM_SHARE` on streams).  The compiler runs only in set-up.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.apps.base import HOSTS
from repro.consistency.checker import NESChecker
from repro.network import CorrectLogic, FrameBatch, SimNetwork
from repro.obs import metrics as obs_metrics
from repro.runtime.semantics import Runtime

from . import checks, inputs
from .layers import Measurement
from .spans import Recorder
from .wl_compile import compile_text

# Share of the run spent on streams; the rest runs pings and verdicts.
STREAM_SHARE = 0.4
CAP_SWITCH = 4  # the provider switch that counts H1->H4 packets


def _compile(family: str, size: int, rec: Recorder):
    spec = inputs.ProgramSpec(family, size, 0)
    text = inputs.base_text(family, size)
    with rec.span("bench.setup_compile", family=family, size=size):
        pipeline = compile_text(spec, text, rec)
    return pipeline, spec.app().topology


def setup(seed: int, rec: Recorder) -> Dict[str, object]:
    """Compile every app the run uses (from program text) and warm a
    Definition 6 checker per ping app on one short trace.  A traced run
    records these compiles: they are this workload's compiler layers."""
    stream_apps = {}
    for family, sizes in (("ring", (2, 3)), ("cap", range(8, 13))):
        for size in sizes:
            stream_apps[(family, size)] = _compile(family, size, rec)
    ping_apps = {}
    for family in inputs.PING_FAMILIES:
        for size in (range(4, 9) if family == "cap" else (0,)):
            pipeline, topology = _compile(family, size, rec)
            checker = NESChecker(pipeline.nes, topology)
            ping_apps[(family, size)] = (pipeline, topology, checker)
            trace, _ = drive(pipeline, topology, inputs.PingSpec(family, size, 50, seed), Recorder(False))
            checker.check(trace)
    return {"seed": seed, "stream_apps": stream_apps, "ping_apps": ping_apps}


def teardown(state: Dict[str, object]) -> None:
    return None


def drive(pipeline, topology, spec: inputs.PingSpec, rec: Recorder):
    """Sequential request/reply pings until the trace has ``positions``."""
    hosts = [h.name for h in topology.hosts]
    with rec.span("runtime.semantics") as span:
        rt = Runtime(pipeline.compiled, seed=spec.seed)
        pairs = inputs.ping_pairs(spec, hosts)
        ident = 0
        while len(rt.recorder.positions) < spec.positions:
            src, dst = next(pairs)
            rt.inject(src, {"ip_dst": HOSTS[dst], "ip_src": HOSTS[src], "ident": ident})
            rt.run_until_quiescent()
            rt.inject(dst, {"ip_dst": HOSTS[src], "ip_src": HOSTS[dst], "ident": ident + 1})
            rt.run_until_quiescent()
            ident += 2
        trace = rt.network_trace()
        span.set(positions=len(trace.packets))
    return trace, rt


def _stream(state, spec: inputs.StreamSpec, seed: int, rec: Recorder):
    pipeline, topology = state["stream_apps"][(spec.kind, spec.size)]
    with rec.span("bench.stream", kind=spec.kind, size=spec.size):
        logic = CorrectLogic(pipeline.compiled)
        net = SimNetwork(topology, logic, seed=seed)
        if spec.kind == "ring":
            flows = {("bulk", "H1", "H2"): ("H1", "H2", 0.0)}
        else:
            flows = {
                ("out", "H1", "H4"): ("H1", "H4", 0.0),
                ("reply", "H4", "H1"): ("H4", "H1", spec.spacing / 2),
            }
        for flow, (src, dst, start) in flows.items():
            batch = FrameBatch(
                {"ip_src": HOSTS[src], "ip_dst": HOSTS[dst], "kind": 0, "ident": 0},
                spec.frames, payload_bytes=spec.payload, flow=flow,
                start=start, spacing=spec.spacing,
            )
            with rec.span("network.simulator.inject_stream"):
                net.inject_stream(src, batch)
        start = time.perf_counter()
        with rec.span("network.simulator.run"):
            net.run()
        elapsed = time.perf_counter() - start
    injected = {flow: spec.frames for flow in flows}
    if spec.kind == "ring":
        problems = checks.stream_outcome(
            net.deliveries, net.drops, injected, must_deliver=("bulk", "H1", "H2"))
    else:
        learned = sorted(t for (sw, _e), t in net.event_learned_at.items() if sw == CAP_SWITCH)
        problems = []
        if len(learned) != spec.size + 1:
            problems.append(
                f"switch {CAP_SWITCH} learned {len(learned)} cap events, expected {spec.size + 1}")
        problems += checks.stream_outcome(
            net.deliveries, net.drops, injected,
            cap_reply_flow=("reply", "H4", "H1"),
            final_event_learned_at=learned[-1] if learned else float("inf"),
            must_deliver=("out", "H1", "H4"),
        )
    return net, elapsed, problems


def control_trace(state) -> Tuple[bool, bool]:
    """Check a correct firewall runtime trace and the deliberately
    incorrect trace built from it; returns both verdicts."""
    pipeline, topology, checker = state["ping_apps"][("firewall", 0)]
    rt = Runtime(pipeline.compiled, seed=0)
    rt.inject("H1", {"ip_dst": HOSTS["H4"], "ip_src": HOSTS["H1"], "ident": 1})
    rt.run_until_quiescent()
    rt.inject("H4", {"ip_dst": HOSTS["H1"], "ip_src": HOSTS["H4"], "ident": 2})
    rt.run_until_quiescent()
    trace = rt.network_trace()
    by_ident = {trace.packets[t[0]].packet["ident"]: t for t in trace.trace_indices}
    incorrect = checks.reply_first_trace(trace, by_ident[1], by_ident[2])
    return bool(checker.check(trace)), bool(checker.check(incorrect))


def measure(state: Dict[str, object], seconds: float, rec: Recorder) -> Measurement:
    m = Measurement()
    counters: Dict[str, float] = {}
    seed = state["seed"]
    streams = enumerate(itertools.chain.from_iterable(inputs.stream_pairs(seed)))
    rounds = inputs.ping_rounds(seed)
    pings: Deque[inputs.PingSpec] = deque()  # the open round's remaining pings
    events = stream_count = 0
    run_s = stream_s = ping_s = 0.0
    verdicts: List[bool] = []
    registry = obs_metrics.install() if rec.enabled else None
    rec.open_window()
    try:
        deadline = time.perf_counter() + seconds
        # Whole ping rounds only (a partial round would tilt the ladder
        # of trace lengths): past the deadline, the open round finishes.
        while (now := time.perf_counter()) < deadline or pings:
            # Streams and pings alternate by their share of the time
            # spent so far, so both are sampled across the whole run.
            if now < deadline and stream_s <= STREAM_SHARE * (stream_s + ping_s):
                i, spec = next(streams)
                m.attempted += 1
                stream_count += 1
                net, elapsed, problems = _stream(state, spec, seed + i, rec)
                events += net.sim.events_processed
                run_s += elapsed
                if problems:
                    m.failed_ops += 1
                    m.problems.extend(f"{spec}: {p}" for p in problems)
                for name, value in (
                    ("network.simulator.events", net.sim.events_processed),
                    ("network.simulator.deliveries", len(net.deliveries)),
                    ("network.simulator.drops", len(net.drops)),
                    ("network.switch_logic.events_learned", len(net.event_learned_at)),
                ):
                    counters[name] = counters.get(name, 0) + value
                stream_s += time.perf_counter() - now
                continue
            if not pings:
                pings.extend(next(rounds))
            spec = pings.popleft()
            m.attempted += 1
            pipeline, topology, checker = state["ping_apps"][(spec.family, spec.size)]
            start = time.perf_counter()
            with rec.span("bench.ping", family=spec.family, positions=spec.positions):
                trace, _ = drive(pipeline, topology, spec, rec)
            m.secondary.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            with rec.span("consistency.checker", positions=len(trace.packets)) as span:
                report = checker.check(trace)
            m.primary.append((time.perf_counter() - start) * 1e3)
            span.set(sequences_tried=checker.sequences_tried)
            verdicts.append(bool(report))
            if not report:
                m.failed_ops += 1
            ping_s += time.perf_counter() - now
        m.throughput = events / run_s if run_s else 0.0
        counters = {name: total / max(1, stream_count) for name, total in counters.items()}
        if registry is not None:
            hits = registry.value("repro_sim_plan_cache_total", result="hit")
            misses = registry.value("repro_sim_plan_cache_total", result="miss")
            counters["network.simulator.plan_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m.attempted += 1
        original_accepted, control_accepted = control_trace(state)
        verdicts.append(original_accepted)
        if control_accepted or not original_accepted:
            m.failed_ops += 1
        m.problems.extend(checks.verdicts_ok(verdicts, control_accepted))
    finally:
        rec.close_window()
        if registry is not None:
            obs_metrics.uninstall()
    m.counters = counters
    return m
