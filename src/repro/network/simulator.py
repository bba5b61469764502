"""A deterministic discrete-event network simulator.

This is the reproduction's stand-in for Mininet + real traffic: hosts,
switches, and links with latency and capacity, driven by a seeded event
queue.  The evaluation's claims are all about *orderings* -- which
packets are processed before which rule updates -- and counts of
delivered/dropped packets, which a discrete-event simulation reproduces
faithfully and repeatably.

The simulator is agnostic to forwarding semantics: each switch delegates
to a :class:`SwitchLogic` strategy.  The correct (tag-based) logic lives
in :mod:`repro.network.switch_logic`; the uncoordinated baseline in
:mod:`repro.baselines.uncoordinated`.

Heavy-traffic streaming: :meth:`SimNetwork.inject_stream` bulk-injects a
:class:`FrameBatch` (an array-of-fields stream description), interning
identical headers to shared :class:`Packet` objects so the per-switch
classification memos downstream hit.  There is one scheduling path:
each switch's processing backlog waits in a FIFO with only its head on
the event heap, and a stream keeps one pending arrival on the heap.
The pop order equals pushing every event eagerly; the records it yields
are pinned against the eager-heap frozenset scheduler in
``tests/golden/sim_records.json``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque

# Bound once: the scheduler hot path calls this per event.
from heapq import heappush as _heappush
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from ..events.event import Event, EventSet
from ..netkat.packet import Location, Packet, PT, SW
from ..obs import metrics as obs_metrics
from ..topology import Host, Topology

__all__ = [
    "Frame",
    "FrameBatch",
    "Simulator",
    "LinkParams",
    "SwitchLogic",
    "SimNetwork",
    "DeliveryRecord",
    "DropRecord",
]


# Sentinel for "this side of the tag/digest representation has not been
# materialized yet" (distinct from None, which is a legal tag value).
_UNSET = object()


class Frame:
    """A packet on the wire, plus runtime metadata.

    ``tag``/``digest`` are None/empty for strategies that do not tag
    (the uncoordinated baseline).  ``payload_bytes`` is the application
    payload; the wire size adds per-strategy header overhead.  ``flow``
    identifies the logical flow for statistics; ``ident`` disambiguates
    packets within a flow.

    Internally a frame stores *either* the frozenset view of its tag and
    digest or the interned bitmask view (``tag_mask``/``digest_mask``
    plus the owning :class:`~repro.events.structure.EventStructure`).
    The correct logic's hot path only ever touches the ints; the
    frozenset properties decode lazily and are cached, so equality,
    hashing, and repr remain exactly those of the original
    frozen-dataclass frame.  The frozenset constructor serves the
    baselines, which tag with sets or not at all.
    """

    __slots__ = (
        "packet",
        "payload_bytes",
        "flow",
        "ident",
        "injected_at",
        "_tag",
        "_digest",
        "_tag_mask",
        "_digest_mask",
        "_structure",
    )

    def __init__(
        self,
        packet: Packet,
        payload_bytes: int = 1000,
        tag: Optional[EventSet] = None,
        digest: EventSet = frozenset(),
        flow: Tuple = (),
        ident: int = 0,
        injected_at: float = 0.0,
        *,
        tag_mask: Optional[int] = None,
        digest_mask: int = 0,
        structure=None,
    ):
        self.packet = packet
        self.payload_bytes = payload_bytes
        self.flow = flow
        self.ident = ident
        self.injected_at = injected_at
        if structure is not None:
            self._structure = structure
            self._tag_mask = tag_mask
            self._digest_mask = digest_mask
            self._tag = _UNSET
            self._digest = _UNSET
        else:
            self._structure = None
            self._tag_mask = None
            self._digest_mask = 0
            self._tag = tag
            self._digest = digest

    # -- tag/digest views ------------------------------------------------------

    @property
    def tag(self) -> Optional[EventSet]:
        value = self._tag
        if value is _UNSET:
            mask = self._tag_mask
            value = None if mask is None else self._structure.decode(mask)
            self._tag = value
        return value

    @property
    def digest(self) -> EventSet:
        value = self._digest
        if value is _UNSET:
            value = self._structure.decode(self._digest_mask)
            self._digest = value
        return value

    @property
    def tag_mask(self) -> Optional[int]:
        """The interned tag bitmask, when this frame carries one."""
        return self._tag_mask if self._structure is not None else None

    @property
    def digest_mask(self) -> Optional[int]:
        """The interned digest bitmask, when this frame carries one."""
        return self._digest_mask if self._structure is not None else None

    def masks(self, structure) -> Tuple[Optional[int], int]:
        """``(tag_mask, digest_mask)`` under ``structure``, encoding and
        caching the frozenset view on first use (boundary frames only --
        mask-born frames never pay an encode)."""
        if self._structure is not None:
            return self._tag_mask, self._digest_mask
        tag = self._tag
        digest = self._digest
        tag_mask = None if tag is None else (structure.encode(tag) if tag else 0)
        digest_mask = structure.encode(digest) if digest else 0
        self._tag_mask = tag_mask
        self._digest_mask = digest_mask
        self._structure = structure
        return tag_mask, digest_mask

    # -- functional update -----------------------------------------------------

    def replace(self, **changes) -> "Frame":
        """``dataclasses.replace`` equivalent, preserving whichever
        tag/digest representation the frame holds."""
        new = Frame.__new__(Frame)
        new.packet = changes.pop("packet", self.packet)
        new.payload_bytes = changes.pop("payload_bytes", self.payload_bytes)
        new.flow = changes.pop("flow", self.flow)
        new.ident = changes.pop("ident", self.ident)
        new.injected_at = changes.pop("injected_at", self.injected_at)
        if "tag" in changes or "digest" in changes:
            new._tag = changes.pop("tag", self.tag)
            new._digest = changes.pop("digest", self.digest)
            new._tag_mask = None
            new._digest_mask = 0
            new._structure = None
        else:
            new._tag = self._tag
            new._digest = self._digest
            new._tag_mask = self._tag_mask
            new._digest_mask = self._digest_mask
            new._structure = self._structure
        if changes:
            raise TypeError(f"unknown frame fields: {sorted(changes)}")
        return new

    def _with_packet(self, packet: Packet) -> "Frame":
        """Internal fast path of ``replace(packet=...)``: no kwargs dict,
        representation carried over unchanged."""
        new = Frame.__new__(Frame)
        new.packet = packet
        new.payload_bytes = self.payload_bytes
        new.flow = self.flow
        new.ident = self.ident
        new.injected_at = self.injected_at
        new._tag = self._tag
        new._digest = self._digest
        new._tag_mask = self._tag_mask
        new._digest_mask = self._digest_mask
        new._structure = self._structure
        return new

    def with_location(self, location: Location) -> "Frame":
        packet = self.packet
        if packet.is_at(location.switch, location.port):
            return self
        return self._with_packet(packet.at(location))

    # -- value semantics (identical to the original frozen dataclass) ----------

    def _identity(self) -> Tuple:
        return (
            self.packet,
            self.payload_bytes,
            self.tag,
            self.digest,
            self.flow,
            self.ident,
            self.injected_at,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Frame:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return (
            f"Frame(packet={self.packet!r}, payload_bytes={self.payload_bytes!r}, "
            f"tag={self.tag!r}, digest={self.digest!r}, flow={self.flow!r}, "
            f"ident={self.ident!r}, injected_at={self.injected_at!r})"
        )


class FrameBatch:
    """An array-of-fields description of a packet stream.

    Instead of one :class:`Frame` object per packet up front, a batch
    holds parallel columns: header fields (each either a scalar applied
    to every frame or a per-frame sequence), payload sizes, flow ids,
    idents, and injection times (``start`` + ``i * spacing`` unless an
    explicit ``times`` column is given).  Iterating :meth:`rows` interns
    identical header tuples to *shared* :class:`Packet` objects, which
    is what lets the per-switch classification memos downstream hit on
    identity instead of re-hashing per packet.
    """

    __slots__ = (
        "count",
        "columns",
        "payloads",
        "flow",
        "flows",
        "idents",
        "times",
        "start",
        "spacing",
    )

    def __init__(
        self,
        columns: Mapping[str, Union[int, Sequence[int]]],
        count: int,
        *,
        payload_bytes: Union[int, Sequence[int]] = 1000,
        flow: Tuple = (),
        flows: Optional[Sequence[Tuple]] = None,
        idents: Optional[Sequence[int]] = None,
        start: float = 0.0,
        spacing: float = 0.0,
        times: Optional[Sequence[float]] = None,
    ):
        self.count = int(count)
        if self.count < 0:
            raise ValueError("a batch cannot have a negative frame count")

        def column(name, value):
            col = tuple(value)
            if len(col) != self.count:
                raise ValueError(
                    f"column {name!r} has {len(col)} entries for "
                    f"{self.count} frames"
                )
            return col

        self.columns: Dict[str, Union[int, Tuple[int, ...]]] = {
            name: value if isinstance(value, int) else column(name, value)
            for name, value in dict(columns).items()
        }
        self.payloads = (
            payload_bytes
            if isinstance(payload_bytes, int)
            else column("payload_bytes", payload_bytes)
        )
        self.flow = tuple(flow)
        self.flows = None if flows is None else column("flows", flows)
        self.idents = None if idents is None else column("idents", idents)
        self.times = None if times is None else column("times", times)
        self.start = float(start)
        self.spacing = float(spacing)

    def __len__(self) -> int:
        return self.count

    def rows(
        self, location: Optional[Location] = None
    ) -> Iterator[Tuple[float, Packet, int, Tuple, int]]:
        """Yield ``(at, packet, payload_bytes, flow, ident)`` per frame.

        With ``location`` the interned packets already carry the
        ``sw``/``pt`` fields of the injection point, so ingress stamping
        does not re-allocate them.
        """
        interned: Dict[Tuple[int, ...], Packet] = {}
        names = tuple(self.columns)
        cols = tuple(self.columns.values())
        base = (
            {SW: location.switch, PT: location.port} if location is not None else {}
        )
        payloads = self.payloads
        flow = self.flow
        flows = self.flows
        idents = self.idents
        times = self.times
        start = self.start
        spacing = self.spacing
        if (
            all(isinstance(c, int) for c in cols)
            and isinstance(payloads, int)
            and flows is None
            and idents is None
            and times is None
        ):
            # Constant-header stream: one interned packet, arithmetic
            # times, sequential idents -- no per-row key building.
            fields = dict(base)
            fields.update(zip(names, cols))
            packet = Packet(fields)
            for i in range(self.count):
                yield (start + i * spacing, packet, payloads, flow, i)
            return
        for i in range(self.count):
            key = tuple(c if isinstance(c, int) else c[i] for c in cols)
            packet = interned.get(key)
            if packet is None:
                fields = dict(base)
                fields.update(zip(names, key))
                packet = Packet(fields)
                interned[key] = packet
            yield (
                times[i] if times is not None else start + i * spacing,
                packet,
                payloads if isinstance(payloads, int) else payloads[i],
                flow if flows is None else flows[i],
                i if idents is None else idents[i],
            )


class DeliveryRecord(NamedTuple):
    time: float
    host: str
    frame: Frame


class DropRecord(NamedTuple):
    time: float
    location: Location
    frame: Frame
    reason: str = "no-matching-rule"


class Simulator:
    """A seeded discrete-event scheduler."""

    # Every event body reads now/_heap/_counter; slots keep those loads
    # off the instance-dict path.
    __slots__ = ("now", "random", "_heap", "_counter", "events_processed")

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.random = random.Random(seed)
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.events_processed = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s in the past")
        _heappush(self._heap, (self.now + delay, next(self._counter), action))

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Process events in time order; returns the final clock value."""
        if obs_metrics.active() is not None:
            # One registry check per run() call (not per event): the
            # fast drain loops below stay untouched when observability
            # is uninstalled.
            return self._run_instrumented(until, max_events)
        heap = self._heap
        pop = heapq.heappop
        processed = self.events_processed
        try:
            if until is None:
                # Drain until the pop itself raises: one branch per
                # event instead of two.  An IndexError escaping an
                # action while entries remain is re-raised; one raised
                # exactly at heap exhaustion is indistinguishable from
                # the normal exit (the action was already popped).
                try:
                    # A range loop keeps the event-count bookkeeping in
                    # the iterator instead of a per-event compare+add.
                    for processed in range(processed + 1, max_events + 1):
                        time, _seq, action = pop(heap)
                        self.now = time
                        action()
                except IndexError:
                    # The pop that raised processed nothing.
                    processed -= 1
                    if heap:
                        raise
            else:
                while heap and processed < max_events:
                    time = heap[0][0]
                    if time > until:
                        self.now = until
                        return until
                    time, _seq, action = pop(heap)
                    self.now = time
                    action()
                    processed += 1
        finally:
            self.events_processed = processed
        if heap and processed >= max_events:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        return self.now

    def _run_instrumented(
        self, until: Optional[float], max_events: int
    ) -> float:
        """The general event loop plus heap-depth watermarking, taken
        only when a metrics registry is installed.  Pop order, clock
        advancement, ``until`` clamping, and the ``max_events`` error
        are identical to the fast loops in :meth:`run`."""
        registry = obs_metrics.active()
        heap = self._heap
        pop = heapq.heappop
        processed = self.events_processed
        start_processed = processed
        high_water = len(heap)
        try:
            while heap and processed < max_events:
                depth = len(heap)
                if depth > high_water:
                    high_water = depth
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return until
                time, _seq, action = pop(heap)
                self.now = time
                action()
                processed += 1
        finally:
            self.events_processed = processed
            if registry is not None:
                registry.counter(
                    "repro_sim_events_processed_total",
                    "Discrete events processed by Simulator.run",
                ).inc(processed - start_processed)
                registry.gauge(
                    "repro_sim_heap_depth_high_water",
                    "High-water mark of the scheduler heap depth",
                ).set_max(high_water)
        if heap and processed >= max_events:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        return self.now


@dataclass(frozen=True)
class LinkParams:
    """Physical link characteristics."""

    latency: float = 0.001  # seconds of propagation delay
    capacity: float = 12_500_000.0  # bytes/second (100 Mbit/s)


class SwitchLogic(Protocol):
    """Forwarding strategy plugged into every switch of a SimNetwork."""

    def header_bytes(self, frame: Frame) -> int:
        """Wire overhead added on top of the payload."""
        ...

    def on_ingress(self, net: "SimNetwork", location: Location, frame: Frame) -> Frame:
        """Called when a host injects a frame at an edge port (stamping)."""
        ...

    def process(
        self, net: "SimNetwork", location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        """Process an arrival; return (egress port, frame) outputs."""
        ...


class _StreamArrival:
    """One scheduled frame of an :meth:`SimNetwork.inject_stream` batch.

    A small callable instead of a closure: the batch path defers frame
    construction to emission time (matching ``inject``'s
    ``injected_at=now`` stamping) without allocating a cell per frame.
    """

    __slots__ = ("net", "location", "frame")

    def __init__(self, net, location, packed):
        self.net = net
        self.location = location
        # Packed (packet, payload_bytes, flow, ident, chain): sharing
        # the three-slot layout of _Process lets __call__ rebirth this
        # object as the processing event instead of allocating one.
        # ``chain`` is the shared [rows_iterator, inject_time, next_seq]
        # state of a lazily scheduled stream, or None when the whole
        # batch was pushed up front (an unsorted ``times`` column).
        self.frame = packed

    def __call__(self) -> None:
        net = self.net
        location = self.location
        packet, payload_bytes, flow, ident, chain = self.frame
        sim = net.sim
        now = sim.now
        heap = sim._heap
        if chain is not None:
            # Push the successor arrival now, with its pre-reserved
            # tie-break seq: the heap holds one pending entry per
            # stream instead of the whole remaining batch.
            row = next(chain[0], None)
            if row is not None:
                at, npacket, npayload, nflow, nident = row
                now0 = chain[1]
                delay = at - now0
                if delay < 0.0:
                    delay = 0.0
                seq = chain[2]
                chain[2] = seq + 1
                nxt = _StreamArrival.__new__(_StreamArrival)
                nxt.net = net
                nxt.location = location
                nxt.frame = (npacket, npayload, nflow, nident, chain)
                _heappush(heap, (now0 + delay, seq, nxt))
        fast = net._ingress_fast
        if fast is not None:
            stamped = fast(location, packet, payload_bytes, flow, ident, now)
        else:
            frame = Frame(
                packet=packet,
                payload_bytes=payload_bytes,
                flow=flow,
                ident=ident,
                injected_at=now,
            )
            stamped = net.logic.on_ingress(net, location, frame)
        # Inlined _arrive_at_switch (same queueing arithmetic).
        switch_id = location.switch
        free = net._switch_free_at
        start = free[switch_id]
        if now > start:
            start = now
        finish = start + net.switch_delay + net._hop_extra
        free[switch_id] = finish
        self.frame = stamped
        self.__class__ = _Process
        entry = (now + (finish - now), next(sim._counter), self)
        fifo = net._switch_fifo[switch_id]
        fifo.append(entry)
        if len(fifo) == 1:
            _heappush(heap, entry)


# Behaviour-identical memo caps: identical-header streams stay far under
# these; a pathological all-distinct-headers workload must not pin an
# unbounded working set.
_MEMO_LIMIT = 65536


class _LinkState:
    """Mutable per-link record: the resolved target plus serialization
    state, so transmitting costs zero Location-keyed dict lookups."""

    __slots__ = ("dst", "latency", "capacity", "free_at", "move_memo")

    def __init__(self, dst: Location, params: LinkParams):
        self.dst = dst
        self.latency = params.latency
        self.capacity = params.capacity
        self.free_at = 0.0
        # Moving a packet across this link is a pure function of the
        # packet, so the relocation is interned per source packet.
        self.move_memo: Dict[Packet, Packet] = {}


# Emission-plan target kinds.
_PLAN_LINK = 0
_PLAN_HOST = 1
_PLAN_DROP = 2


class _Plan:
    """A cached, fully resolved processing outcome for one (switch,
    packet, tag_mask, digest_mask) input class.

    Valid only while the owning switch's plan generation is unchanged
    (the logic bumps it on any register/noted mutation) -- which is
    exactly when the cached run had no side effects, so replaying the
    plan is record-identical to re-running the logic: same targets in
    the same order, same output masks, same link/float arithmetic.
    """

    __slots__ = (
        "packet",
        "tag_mask",
        "digest_mask",
        "generation",
        "out_tag_mask",
        "out_digest_mask",
        "structure",
        "emits",
        "single",
    )

    def __init__(
        self, packet, tag_mask, digest_mask, generation, out_tag_mask,
        out_digest_mask, structure, emits,
    ):
        # Plans are keyed by id(packet); holding the packet here keeps
        # its address from being reused while the entry is live, so an
        # id match implies object identity.
        self.packet = packet
        self.tag_mask = tag_mask
        self.digest_mask = digest_mask
        self.generation = generation
        self.out_tag_mask = out_tag_mask
        self.out_digest_mask = out_digest_mask
        self.structure = structure
        self.emits = emits  # ((kind, target, packet), ...)
        # The dominant steady-state shape is exactly one emit; caching
        # it spares the replay a len()+index per hop.
        self.single = emits[0] if len(emits) == 1 else None


class _Process:
    """The scheduled per-hop processing event (one per switch arrival).

    A slotted callable instead of a closure so the plan fast path can
    run with zero intermediate allocations; the full path is identical
    in behaviour to the original closure body.
    """

    __slots__ = ("net", "location", "frame")

    def __init__(self, net: "SimNetwork", location: Location, frame: Frame):
        self.net = net
        self.location = location
        self.frame = frame

    def __call__(self) -> None:
        net = self.net
        location = self.location
        frame = self.frame
        switch_id = location.switch
        sim = net.sim
        # Lazy-heap discipline: this event was the head of its switch's
        # FIFO backlog; retire it and promote the next queued processing
        # event into the heap.  Per-switch finish times are monotone, so
        # the promoted entry is always pushed at or before its fire time
        # -- heap-pop order is identical to having pushed everything
        # eagerly.
        fifo = net._switch_fifo.get(switch_id)
        if fifo:
            fifo.popleft()
            if fifo:
                _heappush(sim._heap, fifo[0])
        plans = net._plans
        if plans is not None and frame._structure is not None:
            packet = frame.packet
            swpt = packet._swpt
            if swpt[0] != switch_id or swpt[1] != location.port:
                packet = packet.at(location)
            plan = plans[switch_id].get(id(packet))
            if (
                plan is not None
                and plan.tag_mask == frame._tag_mask
                and plan.digest_mask == frame._digest_mask
                and plan.generation == net._plan_gens[switch_id]
            ):
                hit_counter = net._m_plan_hit
                if hit_counter is not None:
                    hit_counter.inc()
                # Replay the cached outcome (record-identical to the
                # full path: same targets in order, same arithmetic).
                now = sim.now
                single = plan.single
                if single is not None:
                    # Steady-state unicast: nothing else references a
                    # mid-path frame (records capture only terminal
                    # frames), so the in-flight Frame is updated in
                    # place and this event object is reborn as the next
                    # link arrival -- zero per-hop allocation.
                    kind, target, out_packet = single
                    frame.packet = out_packet
                    if plan.out_tag_mask != frame._tag_mask:
                        frame._tag_mask = plan.out_tag_mask
                        frame._tag = _UNSET
                    if plan.out_digest_mask != frame._digest_mask:
                        frame._digest_mask = plan.out_digest_mask
                        frame._digest = _UNSET
                    if kind == _PLAN_LINK:
                        header = net._header_overhead
                        if header is None:
                            wire_bytes = frame.payload_bytes + net.logic.header_bytes(
                                frame
                            )
                        else:
                            wire_bytes = frame.payload_bytes + header
                        start = target.free_at
                        if now > start:
                            start = now
                        finish = start + wire_bytes / target.capacity
                        target.free_at = finish
                        self.__class__ = _Arrival
                        self.location = target.dst
                        _heappush(
                            sim._heap,
                            (
                                now + ((finish - now) + target.latency),
                                next(sim._counter),
                                self,
                            ),
                        )
                    elif kind == _PLAN_HOST:
                        net._deliver(target, frame)
                    else:
                        net.drops.append(
                            DropRecord(now, target, frame, reason="no-link-at-port")
                        )
                    return
                emits = plan.emits
                if not emits:
                    net.drops.append(
                        tuple.__new__(
                            DropRecord,
                            (now, location, frame, "no-matching-rule"),
                        )
                    )
                    return
                payload_bytes = frame.payload_bytes
                flow = frame.flow
                ident = frame.ident
                injected_at = frame.injected_at
                out_tag = plan.out_tag_mask
                out_digest = plan.out_digest_mask
                structure = plan.structure
                header = net._header_overhead
                heap = sim._heap
                counter = sim._counter
                frame_new = Frame.__new__
                for kind, target, out_packet in emits:
                    out = frame_new(Frame)
                    out.packet = out_packet
                    out.payload_bytes = payload_bytes
                    out.flow = flow
                    out.ident = ident
                    out.injected_at = injected_at
                    out._tag = _UNSET
                    out._digest = _UNSET
                    out._tag_mask = out_tag
                    out._digest_mask = out_digest
                    out._structure = structure
                    if kind == _PLAN_LINK:
                        # Same serialization arithmetic as _transmit.
                        if header is None:
                            wire_bytes = payload_bytes + net.logic.header_bytes(out)
                        else:
                            wire_bytes = payload_bytes + header
                        start = target.free_at
                        if now > start:
                            start = now
                        finish = start + wire_bytes / target.capacity
                        target.free_at = finish
                        arrival = _Arrival.__new__(_Arrival)
                        arrival.net = net
                        arrival.location = target.dst
                        arrival.frame = out
                        heap_entry = (
                            now + ((finish - now) + target.latency),
                            next(counter),
                            arrival,
                        )
                        _heappush(heap, heap_entry)
                    elif kind == _PLAN_HOST:
                        net._deliver(target, out)
                    else:
                        net.drops.append(
                            DropRecord(now, target, out, reason="no-link-at-port")
                        )
                return
        if plans is not None:
            miss_counter = net._m_plan_miss
            if miss_counter is not None:
                miss_counter.inc()
        self._full(net, location, frame, plans)

    def _full(self, net, location, frame, plans) -> None:
        logic = net.logic
        if plans is not None:
            logic.last_plan = None
        outputs = logic.process(net, location, frame.with_location(location))
        now = net.sim.now
        if not outputs:
            net.drops.append(DropRecord(now, location, frame))
            self._record_plan(net, location, plans, ())
            return
        ports = net._ports.get(location.switch)
        for port, out_frame in outputs:
            target = None if ports is None else ports.get(port)
            if target is None:
                net.drops.append(
                    DropRecord(
                        now,
                        Location(location.switch, port),
                        out_frame,
                        reason="no-link-at-port",
                    )
                )
            elif target.__class__ is Host:
                net._deliver(target.name, out_frame)
            else:
                net._transmit(target, out_frame)
        self._record_plan(net, location, plans, outputs)

    def _record_plan(self, net, location, plans, outputs) -> None:
        """Cache the just-run outcome when the logic marked it pure."""
        if plans is None:
            return
        logic = net.logic
        signature = logic.last_plan
        if signature is None:
            return
        logic.last_plan = None
        packet, tag_key, digest_key = signature
        switch_id = location.switch
        if outputs:
            first = outputs[0][1]
            out_tag = first._tag_mask
            out_digest = first._digest_mask
            structure = first._structure
            if structure is None:
                return
        else:
            out_tag = out_digest = 0
            structure = None
        ports = net._ports.get(switch_id)
        emits = []
        for port, out_frame in outputs:
            target = None if ports is None else ports.get(port)
            out_packet = out_frame.packet
            if target is None:
                emits.append((_PLAN_DROP, Location(switch_id, port), out_packet))
            elif target.__class__ is Host:
                emits.append((_PLAN_HOST, target.name, out_packet))
            else:
                relocated = target.move_memo.get(out_packet)
                if relocated is None:
                    relocated = out_packet.at(target.dst)
                emits.append((_PLAN_LINK, target, relocated))
        by_packet = plans.get(switch_id)
        if by_packet is None:
            by_packet = plans[switch_id] = {}
        if len(by_packet) >= _MEMO_LIMIT:
            by_packet.clear()
        by_packet[id(packet)] = _Plan(
            packet,
            tag_key,
            digest_key,
            net._plan_gens[switch_id],
            out_tag,
            out_digest,
            structure,
            tuple(emits),
        )


class _Arrival:
    """The scheduled link-arrival event: switch queueing, then _Process."""

    __slots__ = ("net", "location", "frame")

    def __init__(self, net: "SimNetwork", location: Location, frame: Frame):
        self.net = net
        self.location = location
        self.frame = frame

    def __call__(self) -> None:
        net = self.net
        location = self.location
        # Inlined _arrive_at_switch (the per-hop hot path).
        switch_id = location.switch
        sim = net.sim
        now = sim.now
        free = net._switch_free_at
        start = free[switch_id]
        if now > start:
            start = now
        finish = start + net.switch_delay + net._hop_extra
        free[switch_id] = finish
        # This arrival entry is already off the heap, so the object can
        # be reborn as the processing event (identical slot layout)
        # instead of allocating a fresh _Process.
        self.__class__ = _Process
        entry = (now + (finish - now), next(sim._counter), self)
        fifo = net._switch_fifo[switch_id]
        fifo.append(entry)
        if len(fifo) == 1:
            _heappush(sim._heap, entry)


class SimNetwork:
    """Hosts + switches + links, executing one SwitchLogic."""

    def __init__(
        self,
        topology: Topology,
        logic: SwitchLogic,
        seed: int = 0,
        link_params: Optional[Mapping[Tuple[Location, Location], LinkParams]] = None,
        default_link: LinkParams = LinkParams(),
        switch_delay: float = 0.0001,
    ):
        self.topology = topology
        self.logic = logic
        self.sim = Simulator(seed=seed)
        self.switch_delay = switch_delay
        self._default_link = default_link
        self._link_params: Dict[Tuple[Location, Location], LinkParams] = dict(
            link_params or {}
        )
        # Preloaded with every switch so the arrival hot path indexes
        # instead of .get-with-default; extra_processing_delay is fixed
        # at logic construction, so it is cached once here.
        self._switch_free_at: Dict[int, float] = {n: 0.0 for n in topology.switches}
        self._hop_extra: float = getattr(logic, "extra_processing_delay", 0.0)
        # Each switch's processing backlog waits in a FIFO deque with
        # only the head event on the heap (switch service is serial, so
        # per-switch finish times are monotone and queued entries are
        # already in fire order).  A heavy-traffic backlog then costs
        # O(1) per event instead of sifting a deep heap.
        self._switch_fifo: Dict[int, deque] = {n: deque() for n in topology.switches}
        self.deliveries: List[DeliveryRecord] = []
        self.drops: List[DropRecord] = []
        self.auto_reply: Dict[str, Callable[["SimNetwork", str, Frame], None]] = {}
        # First time each switch learned each event (for Figure 16b).
        self.event_learned_at: Dict[Tuple[int, Event], float] = {}
        # The topology is immutable for a sim run, so link resolution is
        # a static dispatch table: switch -> port -> Host (deliver) or
        # _LinkState (transmit; first link target in (switch, port)
        # order, as the per-packet sort used to pick).  Hosts shadow
        # links, as host_at did.  Int-keyed nested dicts keep the hot
        # path free of Location hashing.
        self._ports: Dict[int, Dict[int, Union[Host, _LinkState]]] = {}
        for src, dst in topology.links():
            by_port = self._ports.setdefault(src.switch, {})
            if src.port not in by_port:
                params = self._link_params.get((src, dst), default_link)
                by_port[src.port] = _LinkState(dst, params)
        for host in topology.hosts:
            attachment = host.attachment
            self._ports.setdefault(attachment.switch, {})[attachment.port] = host
        # Per-host / per-flow-prefix delivery indices, maintained at
        # _deliver time so the stats accessors stop scanning the full
        # delivery list.  _flow_buckets memoizes, per flow tuple, the
        # prefix bucket lists a delivery appends to.
        self._deliveries_by_host: Dict[str, List[DeliveryRecord]] = {}
        self._deliveries_by_flow: Dict[Tuple, List[DeliveryRecord]] = {}
        self._flow_buckets: Dict[Tuple, Tuple[List[DeliveryRecord], ...]] = {}
        self._last_flow: Optional[Tuple] = None
        self._last_buckets: Optional[Tuple[List[DeliveryRecord], ...]] = None
        self._indexed_up_to = 0
        # Steady-state emission plans (see _Plan): enabled when the
        # logic publishes plan generations (CorrectLogic does).
        # _header_overhead set means header_bytes is frame-independent,
        # so plan replay can skip the per-frame call.  A logic without
        # ``ingress_frame`` is stamped through on_ingress per frame.
        self._plan_gens = getattr(logic, "plan_generations", None)
        self._plans: Optional[Dict[int, Dict[int, _Plan]]] = (
            {n: {} for n in topology.switches} if self._plan_gens is not None else None
        )
        self._header_overhead: Optional[int] = getattr(logic, "header_overhead", None)
        self._ingress_fast = getattr(logic, "ingress_frame", None)
        # Plan-cache hit/miss counters, pre-resolved once here so the
        # per-event cost is one attribute load + None check (the
        # zero-overhead-uninstalled discipline for this hot path; the
        # registry metric objects are internally locked).
        registry = obs_metrics.active()
        if registry is not None and self._plans is not None:
            help_text = "Simulator per-switch emission-plan cache, by result"
            self._m_plan_hit: Optional[obs_metrics.Counter] = registry.counter(
                "repro_sim_plan_cache_total", help_text, result="hit"
            )
            self._m_plan_miss: Optional[obs_metrics.Counter] = registry.counter(
                "repro_sim_plan_cache_total", help_text, result="miss"
            )
        else:
            self._m_plan_hit = None
            self._m_plan_miss = None

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    # -- injection -------------------------------------------------------------

    def inject(self, host_name: str, frame: Frame, at: float = 0.0) -> None:
        """Schedule a host to emit a frame at absolute time ``at``."""
        host = self.topology.host(host_name)
        location = host.attachment

        def emit() -> None:
            stamped = self.logic.on_ingress(
                self, location, frame.replace(injected_at=self.sim.now)
            )
            self._arrive_at_switch(location, stamped)

        delay = at - self.sim.now
        self.sim.schedule(max(0.0, delay), emit)

    def inject_stream(self, host_name: str, batch: FrameBatch) -> int:
        """Bulk-inject a :class:`FrameBatch` at a host; returns the count.

        Scheduling order and times are identical to calling
        :meth:`inject` once per frame (the record-identity contract),
        without the per-frame closure or up-front Frame allocation;
        headers are interned.
        """
        location = self.topology.host(host_name).attachment
        sim = self.sim
        rows = batch.rows(location)
        times = batch.times
        # Lazy one-ahead chaining: each arrival pushes its successor when
        # it fires, so a 10^5-frame stream keeps one pending entry in the
        # heap instead of 10^5.  Heap-pop order only depends on the
        # (time, seq) keys of entries present before their fire time, so
        # this is order-identical to the eager loop provided (a) the
        # tie-break seq range is reserved up front and (b) injection
        # times never decrease -- true for start + i*spacing; an explicit
        # unsorted ``times`` column falls back to pushing everything up
        # front.
        chainable = times is None or all(a <= b for a, b in zip(times, times[1:]))
        if chainable and batch.count:
            now0 = sim.now
            first_seq = next(sim._counter)
            sim._counter = itertools.count(first_seq + batch.count)
            at, packet, payload, flow, ident = next(rows)
            delay = at - now0
            if delay < 0.0:
                delay = 0.0
            chain = [rows, now0, first_seq + 1]
            _heappush(
                sim._heap,
                (
                    now0 + delay,
                    first_seq,
                    _StreamArrival(self, location, (packet, payload, flow, ident, chain)),
                ),
            )
        else:
            for at, packet, payload, flow, ident in rows:
                sim.schedule(
                    max(0.0, at - sim.now),
                    _StreamArrival(self, location, (packet, payload, flow, ident, None)),
                )
        return batch.count

    # -- switch arrival & processing --------------------------------------------

    def _arrive_at_switch(self, location: Location, frame: Frame) -> None:
        # Strategies may declare extra per-packet processing cost (e.g.
        # tag matching and register updates in the correct logic).  A
        # switch is a serial resource: software switches process one
        # packet at a time, so processing cost is real back-pressure.
        switch_id = location.switch
        sim = self.sim
        now = sim.now
        free = self._switch_free_at
        start = free.get(switch_id, 0.0)
        if now > start:
            start = now
        finish = start + self.switch_delay + self._hop_extra
        free[switch_id] = finish
        proc = _Process.__new__(_Process)
        proc.net = self
        proc.location = location
        proc.frame = frame
        entry = (now + (finish - now), next(sim._counter), proc)
        fifo = self._switch_fifo.get(switch_id)
        if fifo is None:
            _heappush(sim._heap, entry)
        else:
            fifo.append(entry)
            if len(fifo) == 1:
                _heappush(sim._heap, entry)

    def _emit(self, egress: Location, frame: Frame) -> None:
        """Resolve an egress location and deliver/transmit/drop.

        Kept as the Location-based entry point (fault injection and
        tests call it); the arrival loop above inlines the same dispatch
        through the int-keyed port table.
        """
        ports = self._ports.get(egress.switch)
        target = None if ports is None else ports.get(egress.port)
        if target is None:
            self.drops.append(
                DropRecord(self.sim.now, egress, frame, reason="no-link-at-port")
            )
            return
        if target.__class__ is Host:
            self._deliver(target.name, frame)
            return
        self._transmit(target, frame)

    def _transmit(self, link: _LinkState, frame: Frame) -> None:
        """Send across a link: serialization (capacity) + propagation."""
        sim = self.sim
        now = sim.now
        wire_bytes = frame.payload_bytes + self.logic.header_bytes(frame)
        start = link.free_at
        if now > start:
            start = now
        finish = start + wire_bytes / link.capacity
        link.free_at = finish
        dst = link.dst
        memo = link.move_memo
        packet = frame.packet
        relocated = memo.get(packet)
        if relocated is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            relocated = packet.at(dst)
            memo[packet] = relocated
        moved = frame if relocated is packet else frame._with_packet(relocated)
        sim.schedule((finish - now) + link.latency, _Arrival(self, dst, moved))

    # -- delivery ----------------------------------------------------------------

    def _deliver(self, host_name: str, frame: Frame) -> None:
        # tuple.__new__ skips the generated NamedTuple __new__ (a
        # Python-level function) on the per-delivery hot path.
        record = tuple.__new__(DeliveryRecord, (self.sim.now, host_name, frame))
        self.deliveries.append(record)
        if self.auto_reply:
            handler = self.auto_reply.get(host_name)
            if handler is not None:
                handler(self, host_name, frame)

    def _index_deliveries(self) -> None:
        """Fold deliveries since the last stats access into the per-host
        and per-flow-prefix indices.

        Indexing at access time instead of per delivery keeps the hot
        path to one list append; the indexed results are identical to a
        full scan (the order is the append order either way).
        """
        deliveries = self.deliveries
        start = self._indexed_up_to
        if start >= len(deliveries):
            return
        self._indexed_up_to = len(deliveries)
        by_host_index = self._deliveries_by_host
        for record in deliveries[start:]:
            host_name = record.host
            by_host = by_host_index.get(host_name)
            if by_host is None:
                by_host = by_host_index[host_name] = []
            by_host.append(record)
            flow = record.frame.flow
            # Stream frames share one flow tuple, so an identity check
            # on the last-seen flow skips re-hashing it per record.
            if flow is self._last_flow:
                buckets = self._last_buckets
            else:
                buckets = self._flow_buckets.get(flow)
            if buckets is None:
                by_flow = self._deliveries_by_flow
                collected = []
                for n in range(1, len(flow) + 1):
                    prefix = flow[:n]
                    bucket = by_flow.get(prefix)
                    if bucket is None:
                        bucket = by_flow[prefix] = []
                    collected.append(bucket)
                buckets = self._flow_buckets[flow] = tuple(collected)
            self._last_flow = flow
            self._last_buckets = buckets
            for bucket in buckets:
                bucket.append(record)

    # -- bookkeeping hooks used by logics ------------------------------------------

    def note_event_learned(self, switch: int, event: Event) -> None:
        key = (switch, event)
        if key not in self.event_learned_at:
            self.event_learned_at[key] = self.sim.now

    # -- statistics ------------------------------------------------------------------

    def deliveries_to(self, host_name: str) -> List[DeliveryRecord]:
        self._index_deliveries()
        return list(self._deliveries_by_host.get(host_name, ()))

    def delivered_flows(self, flow_prefix: Tuple) -> List[DeliveryRecord]:
        if not flow_prefix:
            return list(self.deliveries)
        self._index_deliveries()
        return list(self._deliveries_by_flow.get(tuple(flow_prefix), ()))
