"""Heavy-traffic streaming goldens: the fast simulator path changes
speed, never behaviour.

Every scenario of ``sim_records.py`` is run four ways -- the production
``CorrectLogic`` and the frozenset ``oracles.ReferenceLogic``, each fed
through ``SimNetwork.inject_stream`` and through per-frame
``SimNetwork.inject`` -- and every run must reproduce the
``DeliveryRecord``/``DropRecord`` sequences in
``golden/sim_records.json``, recorded with the eager-heap frozenset
scheduler the lazy FIFO heap replaced.  Checker verdicts are compared
against the frozenset ``oracles.ReferenceChecker``.  The satellites ride
along: the static egress map, the lazy checker enumeration, the
delivery indices, and seeded determinism.
"""

from functools import lru_cache

import pytest

from repro.apps import learning_multi_app, ring_app
from repro.apps.base import HOSTS
from repro.consistency import NESChecker
from repro.consistency.traces import position_event_masks
from repro.network import CorrectLogic, FrameBatch, SimNetwork
from repro.topology import Host

import sim_records
from oracles import ReferenceChecker, ReferenceLogic, inject_per_frame

APPS = sim_records.APPS


def _inject_stream(net, host, batch):
    net.inject_stream(host, batch)


LOGICS = {
    "correct": lambda app: CorrectLogic(app.compiled),
    "reference": lambda app: ReferenceLogic(app.compiled),
}
FEEDS = {"stream": _inject_stream, "per_frame": inject_per_frame}
# Every (logic, feed) pairing; the first is the production path.
PATHS = [(logic, feed) for logic in LOGICS for feed in FEEDS]


@lru_cache(maxsize=None)
def _golden():
    return sim_records.load_golden()


def _run(scenario, logic="correct", feed="stream"):
    return sim_records.SCENARIOS[scenario](LOGICS[logic], FEEDS[feed])


def _assert_golden(scenario):
    expected = _golden()[scenario]
    for logic, feed in PATHS:
        records = sim_records.serialize(_run(scenario, logic, feed))
        assert records == expected, f"{scenario} @ {logic}/{feed}"


def _stream_records(make_app, src, dst, count, spacing=1e-5):
    """Run a constant-header stream through the production path."""
    app = make_app()
    net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
    batch = FrameBatch(
        {"ip_src": HOSTS[src], "ip_dst": HOSTS[dst], "kind": 0, "ident": 0},
        count,
        payload_bytes=64,
        flow=("bulk", src, dst),
        spacing=spacing,
    )
    net.inject_stream(src, batch)
    net.run()
    return net, tuple(net.deliveries), tuple(net.drops)


class TestRecordIdentityGoldens:
    """Same records on every path, on every seed app, as recorded."""

    def test_golden_covers_every_scenario(self):
        assert sorted(_golden()) == sorted(sim_records.SCENARIOS)

    @pytest.mark.parametrize("name", [n for n, _ in APPS])
    def test_stream_records_identical_across_paths(self, name):
        # Every scenario must actually exercise the data plane.
        golden = _golden()[f"app/{name}"]
        assert len(golden["deliveries"]) + len(golden["drops"]) >= 120
        _assert_golden(f"app/{name}")

    def test_firewall_blocked_direction_drop_records_identical(self):
        # Figure 10/11 shape: H4->H1 is dropped until a request goes out.
        golden = _golden()["firewall_reverse_drops"]
        assert not golden["deliveries"] and len(golden["drops"]) == 80
        _assert_golden("firewall_reverse_drops")

    def test_ring_signal_under_traffic_identical(self):
        # Figure 16 shape: a signal frame flips the ring configuration
        # in the middle of a packet stream, so plan caches and register
        # masks are invalidated while the backlog drains.
        assert len(_golden()["ring_signal_mid_stream"]["deliveries"]) == 401
        _assert_golden("ring_signal_mid_stream")

    def test_bandwidth_cap_stream_identical(self):
        # Figure 14 shape: a bulk stream through the capped chain.
        _assert_golden("bandwidth_cap_stream")

    def test_unsorted_times_column_identical(self):
        # An explicitly unsorted times column defeats the lazy one-ahead
        # chain; the up-front fallback must reproduce the records too.
        _assert_golden("unsorted_times")

    def test_golden_is_hash_seed_independent(self):
        # Event sets are serialized sorted by repr (a record's frame is
        # its third column; tag and digest are the frame's third and
        # fourth).
        for runs in _golden().values():
            for row in runs["deliveries"] + runs["drops"]:
                _, _, tag, digest, *_ = row[2]
                assert tag is None or tag == sorted(tag)
                assert digest == sorted(digest)


class TestCheckerVerdictIdentity:
    """Definition 6 verdicts agree between the production checker and
    the frozenset oracle on runtime traces from the seed apps."""

    @pytest.mark.parametrize("name,make_app", APPS, ids=[n for n, _ in APPS])
    def test_verdicts_identical(self, name, make_app):
        app = make_app()
        rt = app.runtime(seed=0)
        hosts = [h.name for h in app.topology.hosts]
        src, dst = hosts[0], hosts[-1]
        for i in range(3):
            rt.inject(src, {"ip_dst": HOSTS[dst], "ip_src": HOSTS[src], "ident": i})
            rt.run_until_quiescent()
        trace = rt.network_trace()
        checker = NESChecker(app.nes, app.topology)
        oracle = ReferenceChecker(app.nes, app.topology)
        masked = checker.check(trace)
        reference = oracle.check(trace)
        assert bool(masked) == bool(reference)
        assert masked.reason == reference.reason
        assert checker.sequences_tried == oracle.sequences_tried


class TestLazyCheckerEnumeration:
    def test_early_exit_tries_fewer_sequences_than_exist(self):
        # A correct trace firing two independent events: four candidate
        # sequences exist (each event alone plus both orders), but the
        # lazy generator stops at the first match instead of
        # materializing them all.
        app = learning_multi_app()
        rt = app.runtime(seed=0)
        shots = [("H1", 4, 1), ("H2", 4, 2), ("H4", 1, 4)]
        for i, (host, dst, src) in enumerate(shots * 2):
            rt.inject(host, {"ip_dst": dst, "ip_src": src, "ident": i})
            rt.run_until_quiescent()
        trace = rt.network_trace()
        checker = NESChecker(app.nes, app.topology)
        report = checker.check(trace)
        assert report
        masks = position_event_masks(trace, app.nes.structure.universe)
        total = sum(1 for _ in checker._candidate_sequences(masks))
        assert 1 <= checker.sequences_tried < total


class TestEgressMap:
    def test_ports_table_static_and_first_link_wins(self):
        # The egress map is built once from the topology -- switch ->
        # port -> host-or-link with hosts shadowing links and the first
        # link in (switch, port) order winning -- so per-packet egress
        # resolution never re-sorts link lists.
        app = ring_app(2)
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        links = sorted(app.topology.links())
        for src, dst in links:
            target = net._ports[src.switch][src.port]
            if isinstance(target, Host):
                continue  # a host attachment shadows this link
            first = next(d for s, d in links if s == src)
            assert target.dst == first
        for host in app.topology.hosts:
            at = host.attachment
            assert net._ports[at.switch][at.port] is host

    def test_flood_emission_order_identical_across_paths(self):
        # Multi-emit (flood) outputs must come out in the same port
        # order on the plan-replay path as on the reference path.
        flood = _golden()["learning_switch_flood"]["deliveries"]
        assert len(flood) == 120 and {row[1] for row in flood} == {"H1", "H2"}
        _assert_golden("learning_switch_flood")


class TestDeliveryIndices:
    def test_mixed_flows_match_golden(self):
        _assert_golden("mixed_flows")

    @pytest.mark.parametrize("logic,feed", PATHS, ids=[f"{l}-{f}" for l, f in PATHS])
    def test_indices_match_full_scan(self, logic, feed):
        net = _run("mixed_flows", logic, feed)
        assert len(net.deliveries) == 120
        for host in ("H1", "H2"):
            scan = [r for r in net.deliveries if r.host == host]
            assert net.deliveries_to(host) == scan
        for prefix in ((), ("bulk",), ("ping",), ("bulk", "H1", "H2"), ("no",)):
            scan = [
                r
                for r in net.deliveries
                if r.frame.flow[: len(prefix)] == prefix
            ]
            assert net.delivered_flows(prefix) == scan

    def test_indices_fold_incrementally_between_runs(self):
        net = _run("mixed_flows")
        first = net.deliveries_to("H2")
        batch = FrameBatch(
            {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 9},
            10,
            payload_bytes=64,
            flow=("late", "H1", "H2"),
            start=net.now + 1e-4,
            spacing=1e-5,
        )
        net.inject_stream("H1", batch)
        net.run()
        assert len(net.deliveries_to("H2")) == len(first) + 10
        assert net.delivered_flows(("late",)) == net.deliveries[-10:]


class TestDeterminism:
    def test_same_seed_same_records_in_one_process(self):
        runs = [_stream_records(lambda: ring_app(2), "H1", "H2", 300) for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]
        assert runs[0][0].sim.events_processed == runs[1][0].sim.events_processed

    def test_plan_cache_invalidated_by_external_register_mutation(self):
        # Mutating logic.registers[sw] directly (the documented test
        # surface) must bump the plan generation so stale emission plans
        # are never replayed.
        app = ring_app(2)
        logic = CorrectLogic(app.compiled)
        net = SimNetwork(app.topology, logic, seed=7)
        net.inject_stream(
            "H1",
            FrameBatch(
                {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 0},
                20,
                payload_bytes=64,
                spacing=1e-5,
            ),
        )
        net.run()
        switch = app.topology.hosts[0].attachment.switch
        before = logic.plan_generations[switch]
        event = next(iter(app.nes.events))
        logic.registers[switch].add(event)
        assert logic.plan_generations[switch] > before


@pytest.mark.slow
class TestMillionFrameSoak:
    def test_million_frame_stream_delivers_all_and_matches_reference_prefix(self):
        count = 1_000_000
        app = ring_app(2)
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
        batch = FrameBatch(
            {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 0},
            count,
            payload_bytes=64,
            flow=("bulk", "H1", "H2"),
            spacing=1e-6,
        )
        net.inject_stream("H1", batch)
        net.run()
        assert len(net.deliveries) == count
        assert net.sim.events_processed == 6 * count
        # Switch service is FIFO, so the first frames' records are
        # unaffected by the later backlog: the soak's prefix must be
        # byte-identical to a reference-logic run of just that prefix.
        sample = 2000
        ref = SimNetwork(app.topology, ReferenceLogic(app.compiled), seed=7)
        inject_per_frame(
            ref,
            "H1",
            FrameBatch(
                {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 0},
                sample,
                payload_bytes=64,
                flow=("bulk", "H1", "H2"),
                spacing=1e-6,
            ),
        )
        ref.run()
        assert tuple(net.deliveries[:sample]) == tuple(ref.deliveries)
