"""A seeded corpus of network traces for the Definition 6 checker tests.

``corpus()`` yields ``(case id, app, trace)`` triples: runtime traces
of the seven seed applications (sequential request/reply pings and
interleaved injections), the uncoordinated-baseline traces of
``test_uncoordinated_traces.py``, and the two runtime shapes the checker
is known to reject (``perfbench/README.md``).  Every trace is a pure
function of its seed, so the case ids can key recorded verdicts.

``oracle_before(trace)`` is the frozenset reverse-sweep closure of
Definition 1, the reference the bitset ``HappensBefore`` is checked
against.
"""

import random
from typing import FrozenSet, Iterator, List, Set, Tuple

from repro.apps import HOSTS, authentication_app, bandwidth_cap_app, firewall_app, ids_app
from repro.consistency.traces import NetworkTrace

from seed_apps import APPS
from test_uncoordinated_traces import StaleConfigRuntime


def _fields(src: str, dst: str, ident: int) -> dict:
    return {"ip_dst": HOSTS[dst], "ip_src": HOSTS[src], "ident": ident}


def _hosts(app) -> List[str]:
    return [h.name for h in app.topology.hosts]


def ping_trace(app, seed: int, pings: int) -> NetworkTrace:
    """Sequential request/reply pings between seeded host pairs."""
    rng = random.Random(seed)
    rt = app.runtime(seed=seed)
    hosts = _hosts(app)
    for i in range(pings):
        src, dst = rng.sample(hosts, 2)
        rt.inject(src, _fields(src, dst, 2 * i))
        rt.run_until_quiescent()
        rt.inject(dst, _fields(dst, src, 2 * i + 1))
        rt.run_until_quiescent()
    return rt.network_trace()


def interleaved_trace(app, seed: int, rounds: int = 3, burst: int = 4) -> NetworkTrace:
    """Bursts of injections between seeded host pairs, run together."""
    rng = random.Random(seed)
    rt = app.runtime(seed=seed)
    hosts = _hosts(app)
    ident = 0
    for _ in range(rounds):
        for _ in range(burst):
            src, dst = rng.sample(hosts, 2)
            rt.inject(src, _fields(src, dst, ident))
            ident += 1
        rt.run_until_quiescent()
    return rt.network_trace()


def _uncoordinated() -> Iterator[Tuple[str, object, NetworkTrace]]:
    app = firewall_app()
    rt = StaleConfigRuntime(app.compiled)
    rt.inject("H1", _fields("H1", "H4", 1))
    rt.run_until_quiescent(policy="fifo")
    rt.inject("H4", _fields("H4", "H1", 2))
    rt.run_until_quiescent(policy="fifo")
    yield "uncoordinated/firewall-too-late", app, rt.network_trace()

    cap = bandwidth_cap_app(2)
    rt = StaleConfigRuntime(cap.compiled)
    for i in range(4):
        rt.inject("H1", _fields("H1", "H4", i))
        rt.run_until_quiescent(policy="fifo")
        rt.inject("H4", _fields("H4", "H1", 100 + i))
        rt.run_until_quiescent(policy="fifo")
    yield "uncoordinated/cap-over-budget", cap, rt.network_trace()

    app = firewall_app()
    rt = StaleConfigRuntime(app.compiled, installed_event_set=frozenset(app.nes.events))
    rt.inject("H4", _fields("H4", "H1", 1))
    rt.run_until_quiescent(policy="fifo")
    yield "uncoordinated/firewall-too-early", app, rt.network_trace()


def _known_rejected() -> Iterator[Tuple[str, object, NetworkTrace]]:
    app = ids_app()
    rt = app.runtime(seed=0)
    rt.inject("H4", {"ip_dst": HOSTS["H2"], "ip_src": HOSTS["H4"]})
    rt.run_until_quiescent()
    yield "rejected/ids-first-ping-to-h2", app, rt.network_trace()
    for seed in (1, 9):
        app = authentication_app()
        hosts = _hosts(app)
        rng = random.Random(seed)
        rt = app.runtime(seed=seed)
        for _ in range(3):
            for _ in range(4):
                src, dst = rng.sample(hosts, 2)
                rt.inject(src, {"ip_dst": HOSTS[dst], "ip_src": HOSTS[src]})
            rt.run_until_quiescent()
        yield f"rejected/authentication-interleaved-{seed}", app, rt.network_trace()


def runtime_traces() -> Iterator[Tuple[str, object, NetworkTrace]]:
    """Runtime traces of the seven seed apps."""
    for name, make in APPS:
        app = make()
        for seed in (0, 1, 2):
            yield f"{name}/ping-{seed}", app, ping_trace(app, seed, 6)
        yield f"{name}/ping-long", app, ping_trace(app, 3, 40)
        for seed in (0, 1):
            yield f"{name}/interleaved-{seed}", app, interleaved_trace(app, seed)
    # A deep cap chain: Definition 6 tries one candidate sequence per
    # prefix of the chain before the one that matches.
    app = bandwidth_cap_app(6)
    yield "bandwidth_cap-6/ping-long", app, ping_trace(app, 4, 40)


def corpus() -> Iterator[Tuple[str, object, NetworkTrace]]:
    yield from runtime_traces()
    yield from _uncoordinated()
    yield from _known_rejected()


def oracle_before(trace: NetworkTrace) -> Tuple[FrozenSet[int], ...]:
    """Definition 1 by frozenset closure: entry i holds every j with
    ``lp_i ≺ lp_j`` (edges ascend, so one reverse sweep suffices)."""
    n = len(trace.packets)
    successors: List[Set[int]] = [set() for _ in range(n)]
    by_switch = {}
    for index, lp in enumerate(trace.packets):
        by_switch.setdefault(lp.location.switch, []).append(index)
    for indices in by_switch.values():
        for i in range(len(indices) - 1):
            successors[indices[i]].add(indices[i + 1])
    for t in trace.trace_indices:
        for i in range(len(t) - 1):
            successors[t[i]].add(t[i + 1])
    reachable: List[Set[int]] = [set() for _ in range(n)]
    for index in range(n - 1, -1, -1):
        acc: Set[int] = set()
        for nxt in successors[index]:
            acc.add(nxt)
            acc |= reachable[nxt]
        reachable[index] = acc
    return tuple(frozenset(r) for r in reachable)
