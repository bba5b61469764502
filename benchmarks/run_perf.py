"""Compiler-perf tracker: times the hot-path suite, writes a JSON record.

Usage::

    PYTHONPATH=src python -m benchmarks.run_perf [--quick] \
        [--backend serial|thread] [--out PATH]

Runs each benchmark ``rounds`` times (3 with ``--quick``, 7 otherwise),
records the per-bench median wall-clock seconds plus per-stage
(ets/nes/compile, with the ets symbolic-vs-instantiate substage split)
pipeline timings for the ids, cap-20, and cap-24 apps, and
writes ``BENCH_compiler_perf.json`` at the repository root.  The
``cap24_update_latency`` bench times an incremental
:meth:`repro.pipeline.Pipeline.update` (one initial-state component
delta) against a warm base pipeline; compare it with the cold
``cap24_full_compile`` median to read off the incremental speedup.
``cap24_service_warm_request`` times one warm ``POST /compile``
round-trip against an in-process compilation daemon
(:mod:`repro.service`) — the HTTP + wire overhead a controller pays
over the raw memo hit.
``--backend`` selects the pipeline executor for the full-app compile
benches (the outputs are byte-identical; only the timing changes).  The file is
checked in so the perf trajectory is visible PR over PR; re-run this
after touching the compiler, the FDD algebra, or the event-structure
engine, and commit the refreshed numbers.

The benches mirror ``bench_compiler_perf.py`` (FDD construction/union,
full app compile, NES conversion, trace checking, trie heuristic) plus
the scaling cases from ``bench_scale_events.py`` (deep bandwidth-cap
chains, wide multi-switch locality) that the bitset engine unlocked.

The ``sim_benches`` section is the streaming events/sec lane: a
100k-frame ring stream through the production ``CorrectLogic`` and
``inject_stream`` (``sim_events_per_sec_ring``) and through the test
oracle ``ReferenceLogic`` fed by per-frame ``inject``
(``sim_events_per_sec_ring_reference``, same scenario and records,
fewer rounds) -- their ratio is the streaming speedup -- plus a
bandwidth-cap stream and the Definition 6 checker throughput on a warm
firewall trace.  The ``trace_check_*_800`` / ``_1600`` lanes check long
firewall and bandwidth-cap (cap 8, a 10-configuration chain) runtime
traces, where a cost that grows faster than the trace shows up as a
falling positions/sec from 800 to 1600.  These run in ``--quick`` mode
too.

``obs_overhead_noop`` pins the uninstalled cost of the
:mod:`repro.obs` instrumentation hooks (span / counter / histogram
sites with no registry or tracer installed): one module-global read and
an early return per site, so its median must stay flat as more of the
codebase is instrumented.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import bandwidth_cap_app, firewall_app, ids_app, ring_app
from repro.apps.base import HOSTS
from repro.consistency.checker import NESChecker
from repro.consistency.traces import NetworkTrace
from repro.events.ets_to_nes import nes_of_ets
from repro.events.locality import (
    is_locally_determined,
    minimally_inconsistent_sets,
)
from repro.netkat.fdd import FDDBuilder
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.optimize.trie import build_trie, heuristic_order, trie_rule_count
from repro.pipeline import BACKENDS, CompileOptions, Delta, Pipeline
from repro.stateful.ets import build_ets

from .bench_compiler_perf import random_link_free_policy
from .bench_scale_events import wide_structure

def _pipeline_of(app, options: CompileOptions) -> Pipeline:
    return Pipeline(app.program, app.topology, app.initial_state, options)


# Every bench takes the run's CompileOptions (the executor backend for
# the full-app compile benches; ignored by the pure FDD/NES/trie ones)
# so callers pick the configuration explicitly instead of mutating
# module state.
def _bench_fdd_compile(options: CompileOptions) -> None:
    policy = random_link_free_policy(seed=7)
    FDDBuilder().of_policy(policy)


def _bench_fdd_union(options: CompileOptions) -> None:
    p = random_link_free_policy(seed=1, branches=16)
    q = random_link_free_policy(seed=2, branches=16)
    b = FDDBuilder()
    b.union(b.of_policy(p), b.of_policy(q))


def _bench_full_app_compile_ids(options: CompileOptions) -> None:
    _pipeline_of(ids_app(), options).compiled.total_rule_count()


def _bench_cap_chain_nes_conversion(options: CompileOptions) -> None:
    nes_of_ets(bandwidth_cap_app(20).ets)


def _bench_cap20_full_compile(options: CompileOptions) -> None:
    _pipeline_of(bandwidth_cap_app(20), options).compiled.total_rule_count()


def _bench_cap24_full_compile(options: CompileOptions) -> None:
    _pipeline_of(bandwidth_cap_app(24), options).compiled.total_rule_count()


# Warm base pipelines for the update-latency bench, keyed by app name
# and built on the harness's warm-up round, so the timed rounds pay only
# ``Pipeline.update`` itself -- the incremental recompile latency this
# bench tracks against the cold ``cap24_full_compile`` median.
_UPDATE_BASES: Dict[str, Pipeline] = {}


def _bench_cap24_update_latency(options: CompileOptions) -> None:
    base = _UPDATE_BASES.get("cap24")
    if base is None or base.options is not options:
        base = _pipeline_of(bandwidth_cap_app(24), options)
        base.compiled
        _UPDATE_BASES["cap24"] = base
    base.update(Delta(set_state=((0, 1),))).compiled


# A lazy module-level daemon for the warm-request bench, started (and
# warmed with one cold cap-24 compile) on the harness's warm-up round so
# the timed rounds pay the full HTTP round-trip of a warm request —
# client-side program serialization, the wire, server-side parse +
# artifact-key computation, the pipeline-memo hit, and the table
# serialization back — but never a compile.  The server thread is a
# daemon; process exit reaps it.
_SERVICE: Dict[str, object] = {}


def _bench_cap24_service_warm_request(options: CompileOptions) -> None:
    client = _SERVICE.get("client")
    if client is None:
        import threading

        from repro.service import ServiceClient, create_server

        server = create_server()
        threading.Thread(
            target=server.serve_forever, name="bench-service", daemon=True
        ).start()
        client = ServiceClient(server.base_url)
        _SERVICE["server"] = server
        _SERVICE["client"] = client
        _SERVICE["app"] = bandwidth_cap_app(24)
    app = _SERVICE["app"]
    client.compile(app.program, app.topology, app.initial_state)


# ETS-stage-only cases at depths the per-state walks made painful: the
# symbolic all-states engine keeps construction near-linear in the chain.
def _bench_cap28_ets_stage(options: CompileOptions) -> None:
    app = bandwidth_cap_app(28)
    build_ets(app.program, app.initial_state)


def _bench_cap32_ets_stage(options: CompileOptions) -> None:
    app = bandwidth_cap_app(32)
    build_ets(app.program, app.initial_state)


def _bench_wide_locality(options: CompileOptions) -> None:
    nes = wide_structure(8, 2)
    minimally_inconsistent_sets(nes.structure)
    is_locally_determined(nes)


def _bench_trace_checker(options: CompileOptions) -> None:
    app = firewall_app()
    rt = app.runtime(seed=0)
    for i in range(6):
        rt.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": i})
        rt.run_until_quiescent()
        rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 100 + i})
        rt.run_until_quiescent()
    trace = rt.network_trace()
    NESChecker(app.nes, app.topology).check(trace)


# The zero-overhead-uninstalled pin for repro.obs: hammer the three
# hot-path instrumentation entry points (span enter/exit, counter inc,
# histogram observe) with no registry or tracer installed.  Each site
# must cost one module-global read and an early return, so this median
# must not move when instrumentation is added to the codebase — compare
# it PR over PR like any other lane.
OBS_NOOP_ITERATIONS = 200_000


def _bench_obs_overhead_noop(options: CompileOptions) -> None:
    assert obs_metrics.active() is None and obs_trace.active() is None
    span = obs_trace.span
    inc = obs_metrics.inc
    observe = obs_metrics.observe
    for _ in range(OBS_NOOP_ITERATIONS):
        with span("bench.noop"):
            pass
        inc("bench_noop_total")
        observe("bench_noop_seconds", 0.0)


def _bench_trie_heuristic(options: CompileOptions) -> None:
    import random

    rng = random.Random(3)
    pool = [f"r{i}" for i in range(20)]
    configs = [
        frozenset(r for r in pool if rng.random() < 0.3) for _ in range(64)
    ]
    trie_rule_count(build_trie(heuristic_order(configs)))


# -- simulator events/sec lane ------------------------------------------------
#
# Unlike the compile benches above, these report a throughput (processed
# events per second of simulated traffic).  Each bench builds its
# scenario outside the timed region and times only ``net.run()``,
# returning ``(events_processed, elapsed_seconds)``; the harness folds
# rounds into a median and derives events/sec.  ``gc.collect()`` runs
# between rounds so one round's garbage does not tax the next.


def _stream_net(app, header, src, count, spacing, reference=False):
    """A seeded stream scenario; ``reference`` swaps in the test oracle
    (frozenset ``ReferenceLogic``, one ``inject`` per frame)."""
    from repro.network import CorrectLogic, FrameBatch, SimNetwork

    batch = FrameBatch(
        header, count, payload_bytes=64, flow=("bulk", src), spacing=spacing
    )
    if reference:
        import sys

        tests_dir = str(Path(__file__).resolve().parent.parent / "tests")
        if tests_dir not in sys.path:
            sys.path.insert(0, tests_dir)
        from oracles import ReferenceLogic, inject_per_frame

        net = SimNetwork(app.topology, ReferenceLogic(app.compiled), seed=7)
        inject_per_frame(net, src, batch)
    else:
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
        net.inject_stream(src, batch)
    return net


def _timed_run(net) -> Tuple[int, float]:
    start = time.perf_counter()
    net.run()
    return net.sim.events_processed, time.perf_counter() - start


RING_STREAM_FRAMES = 100_000


def _sim_ring(reference: bool) -> Tuple[int, float]:
    header = {
        "ip_src": HOSTS["H1"],
        "ip_dst": HOSTS["H2"],
        "kind": 0,
        "ident": 0,
    }
    net = _stream_net(
        ring_app(2), header, "H1", RING_STREAM_FRAMES, 1e-6, reference=reference
    )
    return _timed_run(net)


def _bench_sim_events_ring() -> Tuple[int, float]:
    return _sim_ring(reference=False)


def _bench_sim_events_ring_reference() -> Tuple[int, float]:
    # The frozenset oracle on the identical scenario (records pinned
    # equal by tests/test_sim_streaming.py): the recorded ratio against
    # ``sim_events_per_sec_ring`` is the streaming speedup.
    return _sim_ring(reference=True)


def _bench_sim_events_cap() -> Tuple[int, float]:
    header = {
        "ip_src": HOSTS["H1"],
        "ip_dst": HOSTS["H4"],
        "kind": 0,
        "ident": 0,
    }
    net = _stream_net(bandwidth_cap_app(10), header, "H1", 20_000, 1e-6)
    return _timed_run(net)


# The firewall trace is a pure function of the seeded scenario; build it
# once and hand each round a fresh checker (the memoized configurations
# are what a warm controller would hold, the checker state is not).
_TRACE_CACHE: Dict[str, object] = {}


def _bench_trace_check_throughput() -> Tuple[int, float]:
    trace = _TRACE_CACHE.get("firewall")
    if trace is None:
        app = firewall_app()
        rt = app.runtime(seed=0)
        for i in range(6):
            rt.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": i})
            rt.run_until_quiescent()
            rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 100 + i})
            rt.run_until_quiescent()
        trace = rt.network_trace()
        _TRACE_CACHE["firewall"] = trace
        _TRACE_CACHE["app"] = app
    app = _TRACE_CACHE["app"]
    checker = NESChecker(app.nes, app.topology)
    start = time.perf_counter()
    report = checker.check(trace)
    elapsed = time.perf_counter() - start
    assert report
    return len(trace.packets), elapsed


# Long runtime traces for the checker lanes: sequential request/reply
# pings between seeded host pairs (as in perfbench's stream_verify) until
# the trace holds ``positions``.  The trace is seeded and built once; each
# round checks a fresh copy (happens-before is cached on a trace) with a
# warm checker, as a controller checking a stream of executions would.
_LONG_TRACES: Dict[Tuple[str, int], Tuple[NetworkTrace, NESChecker]] = {}


def _long_trace(family: str, positions: int) -> Tuple[NetworkTrace, NESChecker]:
    key = (family, positions)
    if key not in _LONG_TRACES:
        app = firewall_app() if family == "firewall" else bandwidth_cap_app(8)
        hosts = [h.name for h in app.topology.hosts]
        rng = random.Random(positions)
        rt = app.runtime(seed=0)
        ident = 0
        while len(rt.recorder.positions) < positions:
            src, dst = rng.sample(hosts, 2)
            for a, b in ((src, dst), (dst, src)):
                rt.inject(a, {"ip_dst": HOSTS[b], "ip_src": HOSTS[a], "ident": ident})
                rt.run_until_quiescent()
                ident += 1
        _LONG_TRACES[key] = (rt.network_trace(), NESChecker(app.nes, app.topology))
    trace, checker = _LONG_TRACES[key]
    return NetworkTrace(trace.packets, trace.trace_indices), checker


def _trace_check_lane(family: str, positions: int) -> Callable[[], Tuple[int, float]]:
    def bench() -> Tuple[int, float]:
        trace, checker = _long_trace(family, positions)
        start = time.perf_counter()
        report = checker.check(trace)
        elapsed = time.perf_counter() - start
        assert report, report.reason
        return len(trace.packets), elapsed

    return bench


# (name, bench, max_rounds): the reference lane is ~10x slower on the
# same scenario, so it caps its rounds instead of shrinking the stream
# (the ratio must be read at matched scale).
SIM_BENCHES: Tuple[Tuple[str, Callable[[], Tuple[int, float]], Optional[int]], ...] = (
    ("sim_events_per_sec_ring", _bench_sim_events_ring, None),
    ("sim_events_per_sec_ring_reference", _bench_sim_events_ring_reference, 3),
    ("sim_events_per_sec_cap", _bench_sim_events_cap, None),
    ("trace_check_throughput", _bench_trace_check_throughput, None),
    ("trace_check_firewall_800", _trace_check_lane("firewall", 800), None),
    ("trace_check_firewall_1600", _trace_check_lane("firewall", 1600), None),
    ("trace_check_cap8_800", _trace_check_lane("cap", 800), None),
    ("trace_check_cap8_1600", _trace_check_lane("cap", 1600), None),
)


def run_sim(rounds: int) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for name, fn, max_rounds in SIM_BENCHES:
        n_rounds = rounds if max_rounds is None else min(rounds, max_rounds)
        fn()  # warm-up round (app compile caches, interned structures)
        times: List[float] = []
        units = 0
        for _ in range(n_rounds):
            gc.collect()
            units, elapsed = fn()
            times.append(elapsed)
        median = statistics.median(times)
        results[name] = {
            "median_s": round(median, 6),
            "min_s": round(min(times), 6),
            "units": units,
            "events_per_sec": round(units / median, 1),
            "rounds": n_rounds,
        }
        print(
            f"{name:32s} median {median:.6f}s  "
            f"{results[name]['events_per_sec']:>12,.0f} ev/s"
        )
    return results


BENCHES: Tuple[Tuple[str, Callable[[CompileOptions], None]], ...] = (
    ("fdd_compile", _bench_fdd_compile),
    ("fdd_union", _bench_fdd_union),
    ("full_app_compile_ids", _bench_full_app_compile_ids),
    ("cap_chain_nes_conversion_20", _bench_cap_chain_nes_conversion),
    ("cap20_full_compile", _bench_cap20_full_compile),
    ("cap24_full_compile", _bench_cap24_full_compile),
    ("cap24_update_latency", _bench_cap24_update_latency),
    ("cap24_service_warm_request", _bench_cap24_service_warm_request),
    ("cap28_ets_stage", _bench_cap28_ets_stage),
    ("cap32_ets_stage", _bench_cap32_ets_stage),
    ("wide_locality_8x2", _bench_wide_locality),
    ("trace_checker_firewall", _bench_trace_checker),
    ("trie_heuristic_64x20", _bench_trie_heuristic),
    ("obs_overhead_noop", _bench_obs_overhead_noop),
)


def run(
    rounds: int, options: Optional[CompileOptions] = None
) -> Dict[str, Dict[str, float]]:
    options = options if options is not None else CompileOptions()
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in BENCHES:
        fn(options)  # warm-up round (imports, module-level caches)
        times: List[float] = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn(options)
            times.append(time.perf_counter() - start)
        results[name] = {
            "median_s": round(statistics.median(times), 6),
            "min_s": round(min(times), 6),
            "rounds": rounds,
        }
        print(f"{name:32s} median {results[name]['median_s']:.6f}s")
    return results


# Apps whose staged (ets/nes/compile) timings are recorded per stage,
# including the ets symbolic-vs-instantiate substage split.
PIPELINE_STAGE_APPS: Tuple[Tuple[str, Callable[[], object]], ...] = (
    ("ids", ids_app),
    ("cap20", lambda: bandwidth_cap_app(20)),
    ("cap24", lambda: bandwidth_cap_app(24)),
)


def run_pipeline_stages(
    rounds: int, options: Optional[CompileOptions] = None
) -> Dict[str, Dict[str, float]]:
    """Median per-stage pipeline wall-clock times, per app."""
    options = options if options is not None else CompileOptions()
    out: Dict[str, Dict[str, float]] = {}
    for name, make in PIPELINE_STAGE_APPS:
        samples: Dict[str, List[float]] = {}
        _pipeline_of(make(), options).compiled  # warm-up round, like run()
        for _ in range(rounds):
            pipeline = _pipeline_of(make(), options)
            pipeline.compiled
            report = pipeline.report()
            for stage, seconds in report.stage_seconds + report.substages:
                samples.setdefault(stage, []).append(seconds)
        out[name] = {
            f"{stage}_median_s": round(statistics.median(times), 6)
            for stage, times in samples.items()
            if times
        }
        summary = "  ".join(f"{k} {v:.6f}s" for k, v in out[name].items())
        print(f"pipeline[{name:6s}] {summary}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="3 rounds per bench instead of 7"
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="pipeline executor for the full-app compile benches",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_compiler_perf.json"),
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args()
    options = CompileOptions(backend=args.backend)
    rounds = 3 if args.quick else 7
    results = run(rounds, options)
    stages = run_pipeline_stages(rounds, options)
    sim = run_sim(rounds)
    payload = {
        "suite": "compiler_perf",
        "python": platform.python_version(),
        "rounds": rounds,
        "backend": args.backend,
        "benches": results,
        "pipeline_stages": stages,
        "sim_benches": sim,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
