"""Streaming-simulator scenarios and their canonical record serialization.

``SCENARIOS`` maps a scenario id to a function ``run(make_logic, feed)``
that builds a seeded :class:`SimNetwork` around ``make_logic(app)``,
pushes its streams through ``feed(net, host, batch)``, runs it, and
returns the network.  The production path passes
``CorrectLogic`` and ``SimNetwork.inject_stream``; the frozenset oracle
passes ``oracles.ReferenceLogic`` and a per-frame ``inject`` loop.

``golden/sim_records.json`` holds ``serialize(...)`` of every scenario,
recorded with the eager-heap frozenset scheduler the lazy FIFO heap
replaced.  Event sets are written sorted by repr, so the file does not
depend on the hash seed.  Re-record (only when the records are meant to
change) with::

    PYTHONPATH=src python tests/sim_records.py
"""

import json
from pathlib import Path
from typing import Callable, Dict, List

from repro.apps import (
    SIGNAL_FIELD,
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    learning_multi_app,
    learning_switch_app,
    ring_app,
)
from repro.apps.base import HOSTS
from repro.netkat.packet import Packet
from repro.network import Frame, FrameBatch, SimNetwork

GOLDEN_PATH = Path(__file__).parent / "golden" / "sim_records.json"

APPS = (
    ("firewall", firewall_app),
    ("ids", ids_app),
    ("authentication", authentication_app),
    ("ring", lambda: ring_app(2)),
    ("bandwidth_cap", bandwidth_cap_app),
    ("learning_switch", learning_switch_app),
    ("learning_multi", learning_multi_app),
)


def _net(app, make_logic) -> SimNetwork:
    return SimNetwork(app.topology, make_logic(app), seed=7)


def _stream(make_app, src, dst, count, spacing=1e-5, signal=None):
    """A constant-header stream, plus an optional mid-stream signal frame."""

    def run(make_logic, feed):
        app = make_app()
        net = _net(app, make_logic)
        batch = FrameBatch(
            {"ip_src": HOSTS[src], "ip_dst": HOSTS[dst], "kind": 0, "ident": 0},
            count,
            payload_bytes=64,
            flow=("bulk", src, dst),
            spacing=spacing,
        )
        feed(net, src, batch)
        if signal is not None:
            at, host, fields = signal
            net.inject(host, Frame(packet=Packet(fields), flow=("signal",)), at=at)
        net.run()
        return net

    return run


def _app_stream(make_app, count=120):
    hosts = [h.name for h in make_app().topology.hosts]
    return _stream(make_app, hosts[0], hosts[-1], count)


def _unsorted_times(make_logic, feed):
    # An explicitly unsorted times column defeats the one-ahead chain.
    app = ring_app(2)
    net = _net(app, make_logic)
    batch = FrameBatch(
        {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 0},
        6,
        payload_bytes=64,
        times=[5e-4, 1e-4, 3e-4, 2e-4, 6e-4, 0.0],
    )
    feed(net, "H1", batch)
    net.run()
    return net


def _mixed_flows(make_logic, feed):
    # Three overlapping streams with distinct flow ids on one host.
    app = ring_app(2)
    net = _net(app, make_logic)
    for ident, flow in enumerate(
        [("bulk", "H1", "H2"), ("ping", "H1", "H2"), ("bulk", "H1", "H2")]
    ):
        batch = FrameBatch(
            {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": ident},
            40,
            payload_bytes=64,
            flow=flow,
            start=ident * 1e-5,
            spacing=3e-5,
        )
        feed(net, "H1", batch)
    net.run()
    return net


RING_SIGNAL = (2e-3, "H1", {"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0})

SCENARIOS: Dict[str, Callable] = {
    **{f"app/{name}": _app_stream(make_app) for name, make_app in APPS},
    # Figure 10/11 shape: H4->H1 is dropped until a request goes out.
    "firewall_reverse_drops": _stream(firewall_app, "H4", "H1", 80),
    # Figure 16 shape: a signal flips the ring configuration mid-stream.
    "ring_signal_mid_stream": _stream(
        lambda: ring_app(2), "H1", "H2", 400, signal=RING_SIGNAL
    ),
    # Figure 14 shape: a bulk stream through the capped chain.
    "bandwidth_cap_stream": _stream(bandwidth_cap_app, "H1", "H4", 200, spacing=1e-6),
    # Flood emission order: H1's address is not learned yet, so every
    # frame leaves the switch on two ports (multi-emit outputs).
    "learning_switch_flood": _stream(learning_switch_app, "H4", "H1", 60),
    "unsorted_times": _unsorted_times,
    "mixed_flows": _mixed_flows,
}


def _events(events) -> List[str]:
    return sorted(repr(e) for e in events)


def _frame(frame: Frame) -> list:
    tag = frame.tag
    return [
        [list(item) for item in frame.packet.items()],
        frame.payload_bytes,
        None if tag is None else _events(tag),
        _events(frame.digest),
        list(frame.flow),
        frame.ident,
        frame.injected_at,
    ]


def serialize(net: SimNetwork) -> dict:
    """JSON-ready, hash-seed-independent form of a run's records."""
    return {
        "deliveries": [[r.time, r.host, _frame(r.frame)] for r in net.deliveries],
        "drops": [
            [r.time, [r.location.switch, r.location.port], _frame(r.frame), r.reason]
            for r in net.drops
        ],
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def dump(records: dict) -> str:
    """One scenario per key, one record per line: diffs stay readable."""
    lines = ["{"]
    for n, (cid, runs) in enumerate(sorted(records.items())):
        lines.append(f" {json.dumps(cid)}: {{")
        for k, kind in enumerate(("deliveries", "drops")):
            rows = runs[kind]
            body = ",\n".join(f"   {json.dumps(row)}" for row in rows)
            close = "," if k == 0 else ""
            lines.append(
                f'  "{kind}": [\n{body}\n  ]{close}' if rows else f'  "{kind}": []{close}'
            )
        lines.append(" }" + ("," if n < len(records) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    from repro.network import CorrectLogic

    def feed(net, host, batch):
        net.inject_stream(host, batch)

    GOLDEN_PATH.write_text(
        dump(
            {
                cid: serialize(run(lambda app: CorrectLogic(app.compiled), feed))
                for cid, run in SCENARIOS.items()
            }
        )
    )
    print(f"wrote {GOLDEN_PATH}")
