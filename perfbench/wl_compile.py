"""compile_update: the controller's own path, closed loop, one caller.

Each seeded program text goes through ``parse_policy`` -> ``Pipeline``
-> ETS -> NES -> compiled configurations -> merged guarded tables and
its content key, cold; then a chain of three ``Pipeline.update`` calls
(two state writes and one tenant re-tag) is applied to it.  Primary
samples are cold compiles, secondary samples updates, throughput the
operations completed per second of busy time.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List

from repro.netkat.parser import parse_policy
from repro.pipeline import Pipeline

from . import checks, inputs
from .layers import Measurement
from .spans import Recorder

# Output checks run on every COMPILE_CHECK_EVERY-th compile and every
# UPDATE_CHECK_EVERY-th update, outside the timed region.
COMPILE_CHECK_EVERY = 2
UPDATE_CHECK_EVERY = 3


def compile_text(spec: inputs.ProgramSpec, text: str, rec: Recorder) -> Pipeline:
    """Program text -> tables, with one span per layer crossed."""
    app = spec.app()
    with rec.span("netkat.parser", chars=len(text)):
        program = parse_policy(text)
    return build(Pipeline(program, app.topology, app.initial_state), rec)


def build(pipeline: Pipeline, rec: Recorder) -> Pipeline:
    """Run the pipeline's stages one by one, one span each; a traced run
    also attaches each stage's output size to its span."""
    with rec.span("stateful.ets") as ets:
        pipeline.ets
    with rec.span("events.nes") as nes:
        pipeline.nes
    with rec.span("runtime.compiler") as compiler:
        pipeline.compiled
    with rec.span("runtime.compiler.merge"):
        pipeline.guarded_tables()
    if rec.enabled:
        stats = dict(pipeline.report().stats)
        ets.set(states=stats["ets_states"])
        nes.set(events=stats["nes_events"], event_sets=stats["nes_event_sets"])
        compiler.set(configurations=stats["configurations"], rules=stats["total_rules"])
    return pipeline


def setup(seed: int, rec: Recorder) -> Dict[str, object]:
    """Warm the interpreter on one round of inputs (imports, interning).
    The warm-up is not traced: it would count in the layer means."""
    rec = Recorder(False)
    for spec, chain in inputs.warmup_round(seed):
        pipeline = compile_text(spec, spec.text(), rec)
        for delta_spec in chain:
            pipeline = pipeline.update(delta_spec.delta())
            pipeline.guarded_tables()
    return {"seed": seed}


def teardown(state: Dict[str, object]) -> None:
    return None


def measure(state: Dict[str, object], seconds: float, rec: Recorder) -> Measurement:
    m = Measurement()
    counters = {"update.configurations_reused": 0, "update.configurations_recompiled": 0}
    deadline = time.perf_counter() + seconds
    compiles = updates = 0
    rec.open_window()
    # Whole rounds only: a partial round would tilt the family mix.
    rounds = inputs.compile_rounds(state["seed"])
    for spec, chain in itertools.chain.from_iterable(
        itertools.takewhile(lambda _: time.perf_counter() < deadline, rounds)
    ):
        text = spec.text()
        m.attempted += 1
        start = time.perf_counter()
        with rec.span("bench.compile", family=spec.family, size=spec.size):
            pipeline = compile_text(spec, text, rec)
            with rec.span("pipeline.artifact_key"):
                pipeline.artifact_key()
        m.primary.append((time.perf_counter() - start) * 1e3)
        compiles += 1
        if compiles % COMPILE_CHECK_EVERY == 0:
            with rec.span("bench.check"):
                packets = checks.host_packets(pipeline.program, pipeline.topology)
                _fail(m, checks.compiled_matches_semantics(pipeline, packets), spec)
        for delta_spec in chain:
            delta = delta_spec.delta()
            m.attempted += 1
            start = time.perf_counter()
            with rec.span("bench.update", kind=delta_spec.kind):
                with rec.span("pipeline.update"):
                    updated = pipeline.update(delta)
                with rec.span("runtime.compiler.merge"):
                    updated.guarded_tables()
            m.secondary.append((time.perf_counter() - start) * 1e3)
            updates += 1
            if rec.enabled:
                stats = dict(updated.report().stats)
                for key in counters:
                    counters[key] += stats[key]
            if updates % UPDATE_CHECK_EVERY == 0:
                with rec.span("bench.check"):
                    cold = Pipeline(
                        delta.apply_program(pipeline.program),
                        pipeline.topology,
                        delta.apply_initial_state(pipeline.initial_state),
                    )
                    _fail(m, checks.tables_equal(
                        checks.canonical_tables(updated), checks.canonical_tables(cold),
                        f"update {delta_spec}",
                    ), spec)
            pipeline = updated
    rec.close_window()
    busy_s = (sum(m.primary) + sum(m.secondary)) / 1e3
    m.throughput = (len(m.primary) + len(m.secondary)) / busy_s if busy_s else 0.0
    m.counters = counters
    return m


def _fail(m: Measurement, problems: List[str], spec) -> None:
    if problems:
        m.failed_ops += 1
        m.problems.extend(f"{spec}: {p}" for p in problems)
