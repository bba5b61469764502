"""service_mix: the compilation daemon under a mixed request stream.

The daemon runs as a child process (``python -m repro serve`` with a
fresh ``--cache-dir`` and the default memo size).  This process is the
load generator; its callers each use their own public ``ServiceClient``
and send the next request as soon as the previous one returns (closed
loop).  The mix is warm ``POST /compile`` of a Zipf-popular working set
of 128 distinct texts (twice the daemon's 64-pipeline memo, so the tail
falls to the disk rung), ``POST /update`` deltas against served hot
keys, and a small share of cold compiles of never-seen texts.  A failed
request counts as missing every limit.

Primary samples come from one caller (request latency without
contention), secondary samples from :data:`CALLERS` concurrent callers
(contention for the daemon's threads and interpreter lock); the two
run in alternating slices.  The throughput is the requests the
concurrent callers complete per second.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.netkat.parser import parse_policy
from repro.pipeline import Pipeline
from repro.service import ServiceClient, ServiceError, protocol
from repro.service.state import _LATENCY_WINDOW as LATENCY_WINDOW

from . import checks, inputs
from .layers import Measurement
from .spans import Recorder
from .wl_compile import build

ROOT = Path(__file__).resolve().parent.parent
CALLERS = min(2, os.cpu_count() or 1)
# Share of the run with one caller; the rest runs CALLERS callers
# (assumed, like the request mix in ``inputs``).
SINGLE_SHARE = 0.45
# Each caller count runs in this many slices, alternating with the other.
SLICES = 3
# Every CHECK_EVERY-th request of each kind is checked against a direct
# in-process build, after the measurement (outside the timed region).
CHECK_EVERY = 25


def start_daemon(cache_dir: Path) -> Tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
    )
    line = proc.stdout.readline()
    if "listening on " not in line:
        stop_daemon(proc)
        raise RuntimeError(f"the daemon did not start: {line!r}")
    return proc, line.split("listening on ", 1)[1].split()[0]


def stop_daemon(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


def _wire(spec: inputs.ProgramSpec):
    app = spec.app()
    return spec.text(), protocol.topology_to_wire(app.topology), app.initial_state


def setup(seed: int, rec: Recorder) -> Dict[str, object]:
    """Start the daemon on a fresh cache and compile the working set once
    (coldest block first, so the hot blocks end up in the memo).  The
    prefill is not traced: its cold compiles would count as service
    latencies."""
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="service-", dir=tmp))
    proc, url = start_daemon(cache_dir)
    state: Dict[str, object] = {"seed": seed, "proc": proc, "url": url,
                                "cache_dir": cache_dir, "phase": 0, "fallbacks": []}
    try:
        client = ServiceClient(url)
        blocks = inputs.working_set(seed)
        keys = {}
        for block in reversed(blocks):
            for spec in block:
                keys[spec] = client.compile(*_wire(spec), include_tables=False)["artifact_key"]
        state.update(blocks=blocks, keys=keys)
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: Dict[str, object]) -> None:
    stop_daemon(state["proc"])
    shutil.rmtree(state["cache_dir"], ignore_errors=True)


class _Outcome:
    __slots__ = ("request", "ms", "error", "tables")


def _send(client: ServiceClient, request: inputs.Request, keys, rec: Recorder, fallbacks: List[int]):
    """One request.  An update whose key the daemon's memo has evicted
    follows the protocol's documented fallback -- re-POST the program to
    ``/compile``, then update -- inside the same timed request."""
    if request.kind == "update":
        delta = protocol.delta_to_wire(request.delta.delta())
        with rec.span("service.client.update"):
            try:
                return client.update(keys[request.spec], delta)
            except ServiceError as exc:
                if exc.code != "unknown_artifact_key":
                    raise
                fallbacks.append(1)
                with rec.span("service.client.compile_fallback"):
                    key = client.compile(*_wire(request.spec), include_tables=False)["artifact_key"]
                return client.update(key, delta)
    text, topology, initial = _wire(request.spec)
    name = "service.client.compile_warm" if request.kind == "warm" else "service.client.compile_cold"
    with rec.span(name):
        return client.compile(text, topology, initial)


def run_callers(state, requests: Iterator[inputs.Request], callers: int, seconds: float,
                rec: Recorder) -> Tuple[List[_Outcome], float]:
    """``callers`` closed-loop threads share ``requests`` until
    ``seconds`` have passed; returns the outcomes in request order and
    the wall time."""
    lock = threading.Lock()
    outcomes: List[Tuple[int, _Outcome]] = []
    seen = {kind: 0 for kind, _ in inputs.MIX}
    deadline = time.perf_counter() + seconds

    def caller() -> None:
        client = ServiceClient(state["url"])
        while time.perf_counter() < deadline:
            with lock:
                index = sum(seen.values())
                request = next(requests)
                seen[request.kind] += 1
                keep = seen[request.kind] % CHECK_EVERY == 0
            out = _Outcome()
            out.request, out.error, out.tables = request, None, None
            start = time.perf_counter()
            try:
                response = _send(client, request, state["keys"], rec, state["fallbacks"])
                if keep:
                    out.tables = response["tables"]
            except Exception as exc:  # a failed request is counted, never fatal to the run
                out.error = repr(exc)
            out.ms = (time.perf_counter() - start) * 1e3
            with lock:
                outcomes.append((index, out))

    start = time.perf_counter()
    threads = [threading.Thread(target=caller, name=f"caller-{n}") for n in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return [out for _, out in sorted(outcomes, key=lambda pair: pair[0])], wall


def check_outcome(out: _Outcome, rec: Recorder) -> List[str]:
    """A request failed, or its served tables (kept for every
    CHECK_EVERY-th request of a kind) differ from a direct in-process
    build -- for an update, a cold build of the post-delta program."""
    if out.error:
        return [f"{out.request.kind} {out.request.spec}: {out.error}"]
    if out.tables is None:
        return []
    spec = out.request.spec
    text, _, initial = _wire(spec)
    with rec.span("bench.check"):
        with rec.span("netkat.parser", chars=len(text)):
            parse_policy(text)
        with rec.span("service.protocol.program_from_wire"):
            program = protocol.program_from_wire(text)
        if out.request.kind == "update":
            initial = out.request.delta.delta().apply_initial_state(initial)
        pipeline = build(Pipeline(program, spec.app().topology, initial), rec)
        with rec.span("pipeline.artifact_key"):
            pipeline.artifact_key()
        with rec.span("service.protocol.tables_to_wire"):
            wire = protocol.tables_to_wire(pipeline.compiled)
    expected = checks.canonical_tables(pipeline)
    return checks.tables_equal(out.tables, expected, f"served {out.request.kind} {spec}") + \
        checks.tables_equal(wire, expected, "tables_to_wire of a direct build")


def measure(state: Dict[str, object], seconds: float, rec: Recorder) -> Measurement:
    m = Measurement()
    client = ServiceClient(state["url"])
    before = client.stats()
    rec.open_window()
    everything: List[_Outcome] = []
    # Each caller count keeps one request stream across its slices.
    phases = []
    for callers, share, samples in ((1, SINGLE_SHARE, m.primary),
                                    (CALLERS, 1 - SINGLE_SHARE, m.secondary)):
        requests = inputs.request_stream(state["seed"], state["phase"], state["blocks"])
        state["phase"] += 1
        phases.append((callers, seconds * share / SLICES, samples, requests))
    busy = done = 0.0
    # The phases alternate in slices, so both are sampled across the run.
    for _ in range(SLICES):
        for n, (callers, slice_s, samples, requests) in enumerate(phases):
            outcomes, wall = run_callers(state, requests, callers, slice_s, rec)
            samples.extend(float("inf") if o.error else o.ms for o in outcomes)
            everything += outcomes
            if n == 1:
                done += len(outcomes)
                busy += wall
    m.throughput = done / busy
    rec.close_window()
    after = client.stats()
    m.attempted = len(everything)
    for out in everything:
        problems = check_outcome(out, rec)
        if problems:
            m.failed_ops += 1
            m.problems += problems
    m.counters = _service_counters(before, after, state["fallbacks"])
    state["fallbacks"].clear()
    return m


def _service_counters(before, after, fallbacks: List[int]) -> Dict[str, float]:
    delta = {k: after["compiles"][k] - before["compiles"][k] for k in after["compiles"]}
    compiles = delta["memo_hits"] + delta["disk_hits"] + delta["cold"] + delta["singleflight_coalesced"]
    counters = {
        "service.memo_hit_ratio": delta["memo_hits"] / compiles if compiles else 0.0,
        "service.disk_hits": delta["disk_hits"],
        "service.cold_compiles": delta["cold"],
        "service.singleflight_coalesced": delta["singleflight_coalesced"],
        "service.update_fallbacks": len(fallbacks),
    }
    for endpoint in ("compile", "update"):
        latency = after["endpoints"].get(endpoint, {}).get("latency", {})
        counters[f"service.server.{endpoint}.ms_p50"] = latency.get("p50_ms", 0.0)
    # How many of the latest /compile requests the daemon's p50 covers.
    compiles_served = after["endpoints"].get("compile", {}).get("count", 0)
    counters["service.server.compile.window"] = min(LATENCY_WINDOW, compiles_served)
    return counters
