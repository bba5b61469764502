"""The correct (tag-and-digest) switch logic for the simulator.

This is the timed counterpart of the SWITCH/IN rules of Figure 7,
identical in logic to :mod:`repro.runtime.semantics` but embedded in the
discrete-event world: per-switch event registers, ingress stamping,
digest gossip, optional controller assistance (CTRLSEND broadcasts after
a configurable controller latency), and measurable header overhead for
the tag and digest fields (Figure 16a's ~6% bandwidth cost).

The whole SWITCH rule runs on interned event bitmasks: registers are
ints, frames carry ``tag_mask``/``digest_mask`` ints, and detection uses
``enables_mask``/``con_mask`` -- no per-packet ``frozenset``.  The
``registers`` attribute is a mapping of set-like views backed by the
masks, so code (and tests) that mutate ``logic.registers[sw]`` stay in
step with the hot path.  A per-switch classification memo maps (tag,
interned header) to the forwarding outputs so identical-header packets
skip table re-evaluation.  The frozenset rule this replaced is the test
suite's ``oracles.ReferenceLogic``; both reproduce the records pinned in
``tests/golden/sim_records.json``.
"""

from __future__ import annotations

import math
from collections.abc import MutableSet
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..events.event import Event
from ..netkat.packet import Location, Packet, PT
from ..runtime.compiler import CompiledNES
from .simulator import Frame, SimNetwork, SwitchLogic, _MEMO_LIMIT, _UNSET

__all__ = ["CorrectLogic", "BASE_HEADER_BYTES"]

# A plausible L2+L3+L4 header for an untagged packet (Ethernet + IPv4 +
# TCP), used by both strategies so overhead comparisons are apples to
# apples.
BASE_HEADER_BYTES = 54


class _MaskRegister(MutableSet):
    """A set-like view of one switch's register bitmask.

    The mask dict is the single source of truth (shared with the hot
    path); every set operation reads or rewrites the int, so external
    mutation (``logic.registers[sw].add(event)``) is visible to masked
    processing and vice versa.
    """

    __slots__ = ("_masks", "_switch", "_structure", "_generations")

    def __init__(self, masks: Dict[int, int], switch: int, structure, generations):
        self._masks = masks
        self._switch = switch
        self._structure = structure
        # Shared plan-generation counters: any register mutation must
        # invalidate the simulator's cached emission plans.
        self._generations = generations

    # Set operators on views return plain sets, not registers.
    @classmethod
    def _from_iterable(cls, iterable) -> Set[Event]:
        return set(iterable)

    @property
    def mask(self) -> int:
        return self._masks[self._switch]

    def __contains__(self, event: object) -> bool:
        index = self._structure.event_index.get(event)
        return index is not None and bool(self._masks[self._switch] >> index & 1)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._structure.decode(self._masks[self._switch]))

    def __len__(self) -> int:
        return self._masks[self._switch].bit_count()

    def add(self, event: Event) -> None:
        index = self._structure.event_index.get(event)
        if index is None:
            raise KeyError(f"{event!r} is not an event of this structure")
        self._masks[self._switch] |= 1 << index
        self._generations[self._switch] += 1

    def discard(self, event: Event) -> None:
        index = self._structure.event_index.get(event)
        if index is not None:
            self._masks[self._switch] &= ~(1 << index)
            self._generations[self._switch] += 1

    def clear(self) -> None:
        self._masks[self._switch] = 0
        self._generations[self._switch] += 1

    def update(self, events) -> None:
        for event in events:
            self.add(event)

    def __repr__(self) -> str:
        return repr(set(self))


class CorrectLogic:
    """Tag-based forwarding with event detection and digest gossip."""

    def __init__(
        self,
        compiled: CompiledNES,
        controller_assist: bool = False,
        controller_latency: float = 0.05,
        event_notify_latency: float = 0.01,
        extra_processing_delay: float = 6e-6,
    ):
        self.compiled = compiled
        self.controller_assist = controller_assist
        self.controller_latency = controller_latency
        self.event_notify_latency = event_notify_latency
        # Per-packet cost of the guard/stamp/learn pipeline relative to
        # plain forwarding (the Figure 16a overhead knob; ~6 microseconds
        # approximates the paper's modified OpenFlow reference switch).
        self.extra_processing_delay = extra_processing_delay
        structure = compiled.nes.structure
        self._structure = structure
        self._universe = structure.universe
        switches = compiled.topology.switches
        # last_plan/plan_generations/header_overhead/ingress_frame are
        # the simulator's plan-cache protocol (see simulator._Plan).
        self.last_plan: Optional[Tuple] = None
        self.plan_generations: Dict[int, int] = {n: 0 for n in switches}
        self._register_masks: Dict[int, int] = {n: 0 for n in switches}
        self.registers: Dict[int, Set[Event]] = {
            n: _MaskRegister(self._register_masks, n, structure, self.plan_generations)
            for n in switches
        }
        # Events already reported to net.note_event_learned per switch
        # (only never-before-noted bits are decoded and reported).
        self._noted_masks: Dict[int, int] = {n: 0 for n in switches}
        # Normalized packet -> bitmask of events matching it.
        self._match_memo: Dict[Packet, int] = {}
        # tag mask -> normalized packet -> ((port, out_packet), ...) --
        # the per-switch classification memo, nested so a hit costs two
        # cheap lookups instead of a tuple alloc + hash.
        self._forward_memo: Dict[int, Dict[Packet, Tuple[Tuple[int, Packet], ...]]] = {}
        # Tag mask -> Configuration.
        self._config_memo: Dict[int, object] = {}
        self.controller_view: Set[Event] = set()
        # Tag (one config id) + digest (one bit per event), rounded up to
        # whole bytes -- the "single unused header field" of section 4.1.
        n_events = max(1, len(compiled.nes.events))
        n_states = max(2, len(compiled.states))
        self.tag_bytes = max(1, math.ceil(math.log2(n_states) / 8))
        self.digest_bytes = max(1, math.ceil(n_events / 8))
        # header_bytes is frame-independent; publishing the constant
        # lets the simulator's plan replay skip the per-frame call.
        self.header_overhead = BASE_HEADER_BYTES + self.tag_bytes + self.digest_bytes

    # -- SwitchLogic interface -------------------------------------------------

    def header_bytes(self, frame: Frame) -> int:
        return BASE_HEADER_BYTES + self.tag_bytes + self.digest_bytes

    def on_ingress(self, net: SimNetwork, location: Location, frame: Frame) -> Frame:
        """The IN rule: stamp the tag of the local event-set."""
        return Frame(
            packet=frame.packet.at(location),
            payload_bytes=frame.payload_bytes,
            flow=frame.flow,
            ident=frame.ident,
            injected_at=frame.injected_at,
            tag_mask=self._register_masks[location.switch],
            digest_mask=0,
            structure=self._structure,
        )

    def ingress_frame(
        self,
        location: Location,
        packet: Packet,
        payload_bytes: int,
        flow: Tuple,
        ident: int,
        now: float,
    ) -> Frame:
        """The IN rule without the intermediate unstamped Frame: exactly
        ``on_ingress(net, location, Frame(packet, ...))`` (the
        batched-stream ingress hot path)."""
        swpt = packet._swpt
        if swpt[0] != location.switch or swpt[1] != location.port:
            packet = packet.at(location)
        stamped = Frame.__new__(Frame)
        stamped.packet = packet
        stamped.payload_bytes = payload_bytes
        stamped.flow = flow
        stamped.ident = ident
        stamped.injected_at = now
        stamped._tag = _UNSET
        stamped._digest = _UNSET
        stamped._tag_mask = self._register_masks[location.switch]
        stamped._digest_mask = 0
        stamped._structure = self._structure
        return stamped

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        """The SWITCH rule: learn, detect, forward by the packet's tag --
        on interned bitmasks, with no per-packet frozensets."""
        switch_id = location.switch
        structure = self._structure
        packet = frame.packet
        if not packet.is_at(switch_id, location.port):
            packet = packet.at(location)
        # Inlined frame.masks(structure): mask-born frames dominate the
        # hot path and their masks are authoritative regardless of the
        # structure argument (exactly what masks() returns).
        if frame._structure is not None:
            tag_mask = frame._tag_mask
            digest_mask = frame._digest_mask
        else:
            tag_mask, digest_mask = frame.masks(structure)
        tag_key = tag_mask
        register_masks = self._register_masks
        register_mask = register_masks[switch_id]
        combined = register_mask | digest_mask

        match_memo = self._match_memo
        match_mask = match_memo.get(packet)
        if match_mask is None:
            match_mask = 0
            for index, event in enumerate(self._universe):
                if event.matches_packet(packet, location):
                    match_mask |= 1 << index
            if len(match_memo) >= _MEMO_LIMIT:
                match_memo.clear()
            match_memo[packet] = match_mask

        # Detection in bit order == sorted-by-repr order (the universe is
        # interned sorted by repr), as Figure 7's rule is written.
        detected_mask = 0
        free = match_mask & ~combined
        if free:
            acc = combined
            while free:
                low = free & -free
                free ^= low
                if structure.enables_mask(
                    combined, low.bit_length() - 1
                ) and structure.con_mask(acc | low):
                    detected_mask |= low
                    acc |= low

        new_known = combined | detected_mask
        if new_known != register_mask:
            register_masks[switch_id] = new_known
            self.plan_generations[switch_id] += 1
        noted = self._noted_masks[switch_id]
        fresh = new_known & ~noted
        if fresh:
            self._noted_masks[switch_id] = noted | fresh
            self.plan_generations[switch_id] += 1
            universe = self._universe
            scan = fresh
            while scan:
                low = scan & -scan
                scan ^= low
                net.note_event_learned(switch_id, universe[low.bit_length() - 1])
        if detected_mask:
            universe = self._universe
            scan = detected_mask
            while scan:
                low = scan & -scan
                scan ^= low
                self._notify_controller(net, universe[low.bit_length() - 1])

        if tag_mask is None:
            tag_mask = 0
        by_packet = self._forward_memo.get(tag_mask)
        if by_packet is None:
            by_packet = self._forward_memo[tag_mask] = {}
        outputs = by_packet.get(packet)
        if outputs is None:
            config = self._config_memo.get(tag_mask)
            if config is None:
                config = self.compiled.config_for_event_set(structure.decode(tag_mask))
                self._config_memo[tag_mask] = config
            outputs = tuple(
                (out_packet[PT], out_packet)
                for out_packet in sorted(
                    config.table(switch_id).apply(packet), key=repr
                )
            )
            if len(by_packet) >= _MEMO_LIMIT:
                by_packet.clear()
            by_packet[packet] = outputs
        # Side-effect-free run: offer the outcome to the simulator's
        # emission-plan cache (valid until this switch's generation
        # bumps on any register/noted mutation).
        if detected_mask == 0 and fresh == 0 and new_known == register_mask:
            self.last_plan = (packet, tag_key, digest_mask)
        payload_bytes = frame.payload_bytes
        flow = frame.flow
        ident = frame.ident
        injected_at = frame.injected_at
        results: List[Tuple[int, Frame]] = []
        for port, out_packet in outputs:
            out = Frame.__new__(Frame)
            out.packet = out_packet
            out.payload_bytes = payload_bytes
            out.flow = flow
            out.ident = ident
            out.injected_at = injected_at
            out._tag = _UNSET
            out._digest = _UNSET
            out._tag_mask = tag_mask
            out._digest_mask = new_known
            out._structure = structure
            results.append((port, out))
        return results

    # -- controller ---------------------------------------------------------------

    def _notify_controller(self, net: SimNetwork, event: Event) -> None:
        def receive() -> None:
            self.controller_view.add(event)
            if self.controller_assist:
                net.sim.schedule(self.controller_latency, lambda: self._broadcast(net))

        net.sim.schedule(self.event_notify_latency, receive)

    def _broadcast(self, net: SimNetwork) -> None:
        """CTRLSEND to every switch, merging in enabling order."""
        structure = self.compiled.nes.structure
        for switch_id, register in self.registers.items():
            known = set(register)
            remaining = self.controller_view - known
            progress = True
            while progress and remaining:
                progress = False
                for event in sorted(remaining, key=repr):
                    if structure.enables(frozenset(known), event) and structure.con(
                        frozenset(known) | {event}
                    ):
                        known.add(event)
                        remaining.discard(event)
                        progress = True
            if known != register:
                register.clear()
                register.update(known)
                for event in known:
                    net.note_event_learned(switch_id, event)
