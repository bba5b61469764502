"""The benchmark's own tests: seeded inputs, output checks, statistics.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import itertools
import random

import pytest

from perfbench import checks, inputs, spans, wl_service, wl_stream
from perfbench.stats import TooFewSamples, percentile
from perfbench.wl_compile import compile_text
from repro.apps import authentication_app, bandwidth_cap_app, firewall_app, ids_app
from repro.apps.base import HOSTS
from repro.consistency.checker import NESChecker
from repro.netkat.compiler import Configuration
from repro.pipeline import Pipeline
from repro.service import protocol

OFF = spans.Recorder(False)


def _inputs(seed):
    blocks = inputs.working_set(seed)
    first_pings = next(inputs.ping_rounds(seed))
    return {
        "compile": list(itertools.islice(inputs.compile_rounds(seed), 2)),
        "warmup": inputs.warmup_round(seed),
        "texts": [spec.text() for spec, _ in next(inputs.compile_rounds(seed))],
        "working_set": blocks,
        "requests": list(itertools.islice(inputs.request_stream(seed, 0, blocks), 100)),
        "streams": list(itertools.islice(inputs.stream_pairs(seed), 3)),
        "pings": first_pings,
        "pairs": list(itertools.islice(
            inputs.ping_pairs(first_pings[0], ["H1", "H2", "H3", "H4"]), 8)),
    }


class TestSeededInputs:
    def test_same_seed_same_inputs(self):
        assert _inputs(7) == _inputs(7)

    @pytest.mark.parametrize("part", ["compile", "warmup", "texts", "working_set", "requests",
                                      "streams", "pings", "pairs"])
    def test_different_seed_different_inputs(self, part):
        assert _inputs(7)[part] != _inputs(8)[part]

    def test_rounds_keep_the_stratified_mix(self):
        for round_ in itertools.islice(inputs.compile_rounds(3), 3):
            families = sorted(spec.family for spec, _ in round_)
            assert families.count("cap") == len(inputs.CAP_STRATA)
            assert families.count("ring") == len(inputs.RING_STRATA)

    def test_decks_deal_every_size_once_per_pass(self):
        for seed in (3, 4):
            lo, hi = inputs.CAP_STRATA[0]
            rounds = itertools.islice(inputs.compile_rounds(seed), hi - lo + 1)
            sizes = sorted(spec.size for round_ in rounds for spec, _ in round_
                           if spec.family == "cap" and lo <= spec.size <= hi)
            assert sizes == list(range(lo, hi + 1))

    def test_cold_requests_are_never_seen(self):
        blocks = inputs.working_set(1)
        warm = {spec for block in blocks for spec in block}
        cold = [r.spec for phase in range(3)
                for r in itertools.islice(inputs.request_stream(1, phase, blocks), 400)
                if r.kind == "cold"]
        assert cold and not set(cold) & warm and len(set(cold)) == len(cold)


class TestPercentile:
    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(TooFewSamples):
            percentile(list(range(99)), 90)
        with pytest.raises(TooFewSamples):
            percentile(list(range(19)), 50)

    def test_accepts_ten_beyond(self):
        assert percentile(list(range(100)), 90) == pytest.approx(89.1)
        assert percentile(list(range(20)), 50) == pytest.approx(9.5)


def _firewall_pipeline():
    spec = inputs.ProgramSpec("firewall", 0, 5)
    return compile_text(spec, spec.text(), OFF)


class TestChecksFire:
    def test_compiled_tables_against_semantics(self):
        pipeline = _firewall_pipeline()
        packets = checks.host_packets(pipeline.program, pipeline.topology)
        assert checks.compiled_matches_semantics(pipeline, packets) == []
        compiled = pipeline.compiled
        states = list(compiled.states)
        # Tampered table: serve the initial configuration in every state.
        compiled.configurations[states[1]] = compiled.configurations[states[0]]
        assert checks.compiled_matches_semantics(pipeline, packets)
        compiled.configurations[states[1]] = Configuration({}, pipeline.topology)
        assert checks.compiled_matches_semantics(pipeline, packets)

    def test_update_tables_byte_identity(self):
        pipeline = _firewall_pipeline()
        delta = inputs.DeltaSpec("set_state", component=0, value=1).delta()
        updated = pipeline.update(delta)
        cold = Pipeline(pipeline.program, pipeline.topology, delta.apply_initial_state((0,)))
        good = checks.canonical_tables(cold)
        assert checks.tables_equal(checks.canonical_tables(updated), good, "update") == []
        tampered = dict(good)
        switch = sorted(tampered)[0]
        tampered[switch] = tampered[switch].replace("pt", "qt", 1)
        assert checks.tables_equal(tampered, good, "update")

    def test_served_tables_against_direct_build(self):
        spec = inputs.ProgramSpec("firewall", 0, 5)
        out = wl_service._Outcome()
        out.request = inputs.Request("warm", spec)
        out.error = None
        out.tables = protocol.tables_to_wire(_firewall_pipeline().compiled)
        assert wl_service.check_outcome(out, OFF) == []
        switch = sorted(out.tables)[-1]
        out.tables = {**out.tables, switch: out.tables[switch] + " "}
        assert wl_service.check_outcome(out, OFF)
        out.error = "ServiceError('[404 ...]')"
        assert wl_service.check_outcome(out, OFF)

    def test_stream_removed_delivery_and_late_reply(self):
        state = {"stream_apps": {("cap", 3): (
            compile_text(inputs.ProgramSpec("cap", 3, 0),
                         inputs.base_text("cap", 3), OFF), bandwidth_cap_app(3).topology)}}
        spec = inputs.StreamSpec("cap", 3, 200, 5e-5, 64)
        net, _, problems = wl_stream._stream(state, spec, 1, OFF)
        assert problems == []
        injected = {("out", "H1", "H4"): 200, ("reply", "H4", "H1"): 200}
        replies = [r for r in net.deliveries if r.frame.flow[0] == "reply"]
        assert replies and len(replies) < 200  # the cap closed mid-stream
        removed = [r for r in net.deliveries if r is not replies[0]]
        assert checks.stream_outcome(removed, net.drops, injected)
        # A delivered reply that entered after the cap closed.
        assert checks.stream_outcome(
            net.deliveries, net.drops, injected, cap_reply_flow=("reply", "H4", "H1"),
            final_event_learned_at=replies[-1].frame.injected_at - 1e-9)

    def test_flipped_verdict_and_control_trace(self):
        assert checks.verdicts_ok([True, True], False) == []
        assert checks.verdicts_ok([True, False], False)
        assert checks.verdicts_ok([True, True], True)
        app = firewall_app()
        state = {"ping_apps": {("firewall", 0): (
            app.pipeline, app.topology, NESChecker(app.nes, app.topology))}}
        assert wl_stream.control_trace(state) == (True, False)


class TestSpansAndRates:
    def test_self_times_add_up_and_trace_validates(self):
        from repro.obs.export import chrome_trace, validate_chrome_trace

        rec = spans.Recorder(True)
        rec.open_window()
        with rec.span("bench.compile"):
            with rec.span("netkat.parser", chars=10):
                sum(range(10000))
            with rec.span("stateful.ets"):
                sum(range(10000))
        rec.close_window()
        times = rec.self_times()
        wall = times.pop("wall")
        assert sum(times.values()) == pytest.approx(wall)
        assert set(times) == {"bench", "netkat.parser", "stateful.ets", "remainder"}
        assert validate_chrome_trace(chrome_trace(rec)) == []


class TestTracesTheCheckerRejects:
    """Figure 7 runtime traces ``NESChecker`` rejects although Theorem 1
    says every execution's trace is correct.  ``inputs.ping_pairs``
    keeps these shapes out of stream_verify (README.md); the strict
    xfails pin the rejections, so a checker fix turns them into
    failures that call for lifting that restriction."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ids ping to H2 before any packet reached H1 is rejected")
    def test_ids_first_ping_to_h2(self):
        app = ids_app()
        rt = app.runtime(seed=0)
        rt.inject("H4", {"ip_dst": HOSTS["H2"], "ip_src": HOSTS["H4"]})
        rt.run_until_quiescent()
        assert NESChecker(app.nes, app.topology).check(rt.network_trace())

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="interleaved authentication injections: update too late")
    @pytest.mark.parametrize("seed", [1, 9])
    def test_authentication_interleaved_injections(self, seed):
        app = authentication_app()
        hosts = [h.name for h in app.topology.hosts]
        rng = random.Random(seed)
        rt = app.runtime(seed=seed)
        for _ in range(3):
            for _ in range(4):
                src, dst = rng.sample(hosts, 2)
                rt.inject(src, {"ip_dst": HOSTS[dst], "ip_src": HOSTS[src]})
            rt.run_until_quiescent()
        assert NESChecker(app.nes, app.topology).check(rt.network_trace())
