"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile_update --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures half the time untraced and half traced (same inputs), reports
the per-layer metrics and the tracing overhead, and writes a Chrome
trace plus a per-layer self-time summary under ``.perfbench/``.  A
human-readable table (each workload's own metric names, units, sample
counts, quartiles and host fingerprint) precedes the last stdout line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The command
exits non-zero when any output check fails.  ``--record FILE`` appends
the full run record to a JSON-lines result set for ``--compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
# Set-ups timed per run, (before, after) measuring: the last one before
# is measured on; the ones after sample the host at the run's other end.
# A set-up of compile_update or stream_verify takes ~0.2 s, so a median
# of seven damps the host's sub-second swings; service_mix sets up a
# daemon and its working set (~2.5 s), so it sets up three times and
# leaves the run's time budget to measuring.
SETUPS = {"compile_update": (4, 3), "service_mix": (2, 1), "stream_verify": (4, 3)}
# Workloads measured on this process's one thread.  The CPUs of a
# shared host change speed independently, for seconds to tens of seconds
# at a time, so a thread left on one CPU measures that CPU's spell;
# moving it to the next CPU every CPU_TURN_S seconds makes every run
# sample all of them.  service_mix already runs on all
# of them (the daemon and the generator are two processes).
ROTATED = {"compile_update", "stream_verify"}
CPU_TURN_S = 0.25

# Each workload's generic slots, under the names its table prints.
SLOT_NAMES = {
    "compile_update": ("compile_ms", "update_ms", "ops_per_s"),
    "service_mix": ("svc_1caller.ms", "svc_2callers.ms", "svc_rps"),
    "stream_verify": ("verdict_ms", "runtime_ms", "sim_events_per_s"),
}


def _import_program():
    """Put the checkout's ``src`` and root on the path and import the
    benchmark; exits non-zero when the program is not there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)
    from perfbench import layers, spans, stats, wl_compile, wl_service, wl_stream

    modules = {"compile_update": wl_compile, "service_mix": wl_service, "stream_verify": wl_stream}
    return modules, layers, spans, stats


def load_config():
    with open(CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    modules, layers, spans, stats = _import_program()
    module = modules[workload]
    config = load_config()
    rec = spans.Recorder(trace)

    setup_times = []
    state = None

    def set_up(setup_rec):
        start = time.perf_counter()
        new_state = module.setup(seed, setup_rec)
        setup_times.append(time.perf_counter() - start)
        return new_state

    setups_before, setups_after = SETUPS[workload]
    try:
        for i in range(setups_before):
            if state is not None:
                module.teardown(state)
                state = None
            state = set_up(rec if i == setups_before - 1 else spans.Recorder(False))
        with rotate_cpus(CPU_TURN_S if workload in ROTATED else None):
            if not trace:
                measured = [module.measure(state, seconds, rec)]
            else:
                untraced = module.measure(state, seconds / 2, spans.Recorder(False))
                traced = module.measure(state, seconds / 2, rec)
                measured = [untraced, traced]
        module.teardown(state)
        state = None
        for _ in range(setups_after):
            state = set_up(spans.Recorder(False))
            module.teardown(state)
            state = None
    finally:
        if state is not None:
            module.teardown(state)

    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed_ops for m in measured)
    problems = [p for m in measured for p in m.problems]
    primary_name, secondary_name, throughput_name = SLOT_NAMES[workload]
    rows = []  # (printed name, value, unit, summary)
    values = {}

    def add(name, printed, value, unit, samples=None):
        values[name] = value
        rows.append((printed, value, unit, stats.summary(samples) if samples else None))

    if not trace:
        m = measured[0]
        add("setup_s", "setup_s", statistics.median(setup_times), "s", setup_times)
        add("peak_rss_mb", "peak_rss_mb", stats.peak_rss_mb(workload == "service_mix"), "MB")
        for slot, printed, samples in (
            ("primary", primary_name, m.primary), ("secondary", secondary_name, m.secondary),
        ):
            for q in (50, 90):
                add(f"{slot}_ms_p{q}", f"{printed}_p{q}", _pct(stats, samples, q, problems), "ms", samples)
        add("throughput_per_s", throughput_name, m.throughput, "1/s")
        metric_list = config["end_to_end"]
    else:
        untraced, traced = measured
        per_layer = layers.per_layer(rec, traced.counters)
        base = statistics.median(untraced.primary) if untraced.primary else 0.0
        with_spans = statistics.median(traced.primary) if traced.primary else 0.0
        per_layer["tracing.overhead_pct"] = (with_spans / base - 1) * 100 if base else 0.0
        split = layers.self_time_table(rec)
        per_layer["tracing.unattributed_share"] = next(s for n, _, s in split if n == "remainder")
        for name, value in per_layer.items():
            add(name, name, value, _unit(config, name))
        _write_trace(workload, seed, rec, split, per_layer, problems, spans)
        metric_list = config["per_layer"]

    error_share = failed / attempted if attempted else 1.0
    metrics = {}
    for spec in metric_list:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value if math.isfinite(value) else 1e9, "unit": spec["unit"]}

    _print_table(workload, seed, seconds, trace, rows, attempted, failed, error_share, problems, stats)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_record": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "host": stats.host_fingerprint(), "error_share": error_share,
            "metrics": {k: v["value"] for k, v in metrics.items()},
        },
    }


@contextlib.contextmanager
def rotate_cpus(turn_s):
    """Move the calling thread to the next of its allowed CPUs every
    ``turn_s`` seconds (no-op for ``None`` or a single CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    if turn_s is None or len(cpus) < 2:
        yield
        return
    thread = threading.get_native_id()
    done = threading.Event()

    def turn() -> None:
        for cpu in itertools.cycle(cpus):
            if done.wait(turn_s):
                return
            os.sched_setaffinity(thread, {cpu})

    turner = threading.Thread(target=turn, name="cpu-turn", daemon=True)
    turner.start()
    try:
        yield
    finally:
        done.set()
        turner.join()
        os.sched_setaffinity(thread, cpus)


def _pct(stats, samples, q, problems) -> float:
    try:
        return stats.percentile(samples, q)
    except stats.TooFewSamples as exc:
        problems.append(f"too few samples: {exc}")
        return math.inf


def _unit(config, name: str) -> str:
    for spec in config["per_layer"]:
        if spec["name"] == name:
            return spec["unit"]
    raise KeyError(f"per-layer metric {name!r} is not declared in BENCHMARK.json")


def _write_trace(workload, seed, rec, split, per_layer, problems, spans) -> None:
    from repro.obs.export import validate_chrome_trace, write_chrome_trace

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    write_chrome_trace(str(path), rec)
    with open(path, encoding="utf-8") as fh:
        invalid = validate_chrome_trace(json.load(fh))
    if invalid:
        problems.extend(f"chrome trace: {p}" for p in invalid[:5])
    summary = {
        "workload": workload, "seed": seed, "chrome_trace": path.name,
        "self_time": [{"layer": n, "seconds": s, "share": f} for n, s, f in split],
        "span_layers": {name: spans.layer_of(name) for name in sorted({s["name"] for s in rec.spans})},
        "per_layer": per_layer,
    }
    (OUT_DIR / f"layers-{workload}-{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"# chrome trace: {path} ({len(rec.spans)} spans, {'invalid' if invalid else 'valid'})")
    print("# self time per layer (traced window, thread-seconds):")
    for name, seconds, share in split:
        print(f"#   {name:<24s} {seconds * 1e3:12.3f} ms  {share * 100:6.2f}%")


def _print_table(workload, seed, seconds, trace, rows, attempted, failed, error_share, problems, stats):
    host = stats.host_fingerprint()
    print(f"# workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"# host: {host['cpu_model']} | {host['implementation']} {host['python']} | "
          f"cpu_count {host['cpu_count']}")
    print(f"# {'metric':<40s} {'value':>14s} {'unit':<6s} {'n':>6s} {'q1':>12s} {'q3':>12s}")
    for name, value, unit, s in rows:
        n = s["n"] if s else 1
        q1 = f"{s['q1']:.4f}" if s and s["n"] > 1 else "-"
        q3 = f"{s['q3']:.4f}" if s and s["n"] > 1 else "-"
        print(f"# {name:<40s} {value:14.4f} {unit:<6s} {n:>6d} {q1:>12s} {q3:>12s}")
    print(f"# error_share {error_share:.6f} ({failed} failed of {attempted} attempted)")
    for p in problems[:20]:
        print(f"# FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SLOT_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the run record (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result sets written with --record")
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the daemon child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.compare:
        sys.path[:0] = [str(ROOT)]
        from perfbench.compare import compare

        print(compare(load_config(), *args.compare))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else load_config()["run_seconds"]
    result = run(args.workload, args.seed, seconds, bool(args.trace))
    record = result.pop("_record")
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
