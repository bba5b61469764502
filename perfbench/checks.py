"""Output checks against references independent of the path measured.

Each check returns a list of problems (empty = correct), so a caller can
count failures and a test can corrupt a result and see the check fire.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.consistency.traces import NetworkTrace
from repro.netkat.ast import Conj, Disj, Filter, Neg, Policy, Seq, Star, Test, Union
from repro.netkat.packet import LocatedPacket, Packet
from repro.netkat.semantics import eval_packet
from repro.pipeline import Pipeline

MAX_HOPS = 64
HOST_ADDRESSES = (1, 2, 3, 4)


def canonical_tables(pipeline: Pipeline) -> Dict[str, str]:
    """Guarded merged tables as ``{switch: repr(table)}`` (the byte form
    the golden suites and the service wire compare)."""
    tables = pipeline.guarded_tables()
    return {str(switch): repr(tables[switch]) for switch in sorted(tables)}


def tables_equal(actual: Mapping[str, str], expected: Mapping[str, str], what: str) -> List[str]:
    """Byte identity of two canonical table sets."""
    if dict(actual) == dict(expected):
        return []
    differing = sorted(
        set(actual) ^ set(expected)
        | {sw for sw in set(actual) & set(expected) if actual[sw] != expected[sw]}
    )
    return [f"{what}: tables differ from the reference at switches {differing}"]


# -- compiled tables vs the denotational semantics ----------------------------


def _tested_values(p: Policy) -> Dict[str, Set[int]]:
    found: Dict[str, Set[int]] = {}

    def pred(a) -> None:
        if isinstance(a, Test):
            found.setdefault(a.field, set()).add(a.value)
        elif isinstance(a, Neg):
            pred(a.operand)
        elif isinstance(a, (Conj, Disj)):
            pred(a.left)
            pred(a.right)

    def pol(q) -> None:
        if isinstance(q, Filter):
            pred(q.predicate)
        elif isinstance(q, (Seq, Union)):
            pol(q.left)
            pol(q.right)
        elif isinstance(q, Star):
            pol(q.operand)

    pol(p)
    return found


def host_packets(program: Policy, topology) -> List[Packet]:
    """Packets injected at every host port: each destination address
    and, for every other field the program tests, each tested value and
    one untested value."""
    tested = _tested_values(program)
    tested.pop("sw", None)
    tested.pop("pt", None)
    destinations = sorted(tested.pop("ip_dst", set()) | set(HOST_ADDRESSES))
    others = sorted(tested)
    choices = [sorted(tested[f]) + [max(tested[f]) + 1] for f in others]
    packets = []
    for host in topology.hosts:
        at = host.attachment
        source = int(host.name[1:]) if host.name[1:].isdigit() else 0
        for dst in destinations:
            for combo in itertools.product(*choices):
                fields = {"sw": at.switch, "pt": at.port, "ip_src": source, "ip_dst": dst}
                fields.update(zip(others, combo))
                packets.append(Packet(fields))
    return packets


def _run_tables(config, packet: Packet) -> frozenset:
    """Step a compiled configuration (switch step, then link step) until
    every copy leaves the network or is dropped."""
    current = {LocatedPacket.of(packet)}
    delivered = set()
    for _ in range(MAX_HOPS):
        following = set()
        for lp in current:
            for out in config.switch_step(lp):
                moved = config.link_step(out)
                if moved:
                    following |= moved
                else:
                    delivered.add(out.packet)
        if not following:
            return frozenset(delivered)
        current = following
    raise RuntimeError(f"packet {packet!r} did not leave the network in {MAX_HOPS} hops")


def compiled_matches_semantics(pipeline: Pipeline, packets: Sequence[Packet]) -> List[str]:
    """Each configuration's compiled tables give the same egress packets
    as ``eval_packet`` on the ETS configuration policy of its state."""
    problems = []
    compiled = pipeline.compiled
    ets = pipeline.ets
    egressed = 0
    for state in compiled.states:
        config = compiled.configurations[state]
        policy = ets.configuration(state)
        for packet in packets:
            expected = eval_packet(policy, packet)
            got = _run_tables(config, packet)
            egressed += len(got)
            if got != expected:
                problems.append(
                    f"state {state}: {packet!r} egresses as {sorted(map(repr, got))}, "
                    f"semantics says {sorted(map(repr, expected))}"
                )
                break
    if not egressed:
        problems.append("no injected packet egresses in any configuration; the check is vacuous")
    return problems


# -- simulated streams ---------------------------------------------------------


def stream_outcome(
    deliveries: Iterable, drops: Iterable, injected: Mapping[Tuple, int],
    cap_reply_flow: Tuple = (), final_event_learned_at: float = float("inf"),
    must_deliver: Tuple = (),
) -> List[str]:
    """Every injected frame is delivered or dropped exactly once; every
    frame of ``must_deliver`` is delivered; no frame of
    ``cap_reply_flow`` that entered after the final cap event was
    learned at the provider switch is delivered."""
    problems = []
    seen: Dict[Tuple, Set[int]] = {flow: set() for flow in injected}
    delivered: Dict[Tuple, int] = {flow: 0 for flow in injected}
    for record in itertools.chain(
        ((r.frame, True) for r in deliveries), ((r.frame, False) for r in drops)
    ):
        frame, was_delivered = record
        flow = frame.flow
        if flow not in seen:
            continue
        if frame.ident in seen[flow]:
            problems.append(f"flow {flow}: frame {frame.ident} accounted twice")
        seen[flow].add(frame.ident)
        if was_delivered:
            delivered[flow] += 1
            if flow == cap_reply_flow and frame.injected_at > final_event_learned_at:
                problems.append(
                    f"reply {frame.ident} entered at {frame.injected_at:.6f}s, after the "
                    f"cap closed at {final_event_learned_at:.6f}s, and was delivered"
                )
    for flow, count in injected.items():
        if len(seen[flow]) != count:
            problems.append(
                f"flow {flow}: {count} frames injected, {len(seen[flow])} delivered or dropped"
            )
    if must_deliver and delivered.get(must_deliver, 0) != injected.get(must_deliver, 0):
        problems.append(
            f"flow {must_deliver}: {delivered.get(must_deliver, 0)} of "
            f"{injected.get(must_deliver, 0)} frames delivered"
        )
    return problems


# -- Definition 6 verdicts -----------------------------------------------------


def verdicts_ok(runtime_verdicts: Sequence[bool], control_verdict: bool) -> List[str]:
    """Theorem 1: every runtime trace is accepted; non-vacuity: the
    deliberately incorrect control trace is rejected."""
    problems = [
        f"runtime trace {i} rejected" for i, ok in enumerate(runtime_verdicts) if not ok
    ]
    if control_verdict:
        problems.append("the incorrect control trace was accepted")
    return problems


def reply_first_trace(trace: NetworkTrace, request: Tuple[int, ...], reply: Tuple[int, ...]) -> NetworkTrace:
    """An incorrect trace built from a correct one: the reply's packet
    trace is moved ahead of the request whose event enabled it, so the
    reply crosses the network before any event has happened."""
    reply_positions = set(reply)
    rest = [i for i in range(len(trace.packets)) if i not in reply_positions]
    # The reply goes right before the request's first position.
    cut = rest.index(request[0])
    order = rest[:cut] + list(reply) + rest[cut:]
    where = {old: new for new, old in enumerate(order)}
    return NetworkTrace(
        tuple(trace.packets[i] for i in order),
        frozenset(tuple(where[i] for i in t) for t in trace.trace_indices),
    )
