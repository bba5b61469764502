"""Figure 7's IN and SWITCH rules on frozensets, in the timed simulator."""

import math
from typing import List, Set, Tuple

from repro.events.event import Event
from repro.netkat.packet import PT, Location
from repro.network import Frame, FrameBatch, SimNetwork
from repro.network.switch_logic import BASE_HEADER_BYTES
from repro.runtime.compiler import CompiledNES


class ReferenceLogic:
    """A :class:`~repro.network.simulator.SwitchLogic` whose registers,
    tags and digests are frozensets, and which classifies every packet
    through its configuration's flow table (no memos, no emission plans,
    no ``ingress_frame`` fast path).

    Drive it frame by frame with :func:`inject_per_frame`; records must
    equal :class:`~repro.network.CorrectLogic`'s on the same scenario.
    """

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
        self.extra_processing_delay = extra_processing_delay
        self.registers = {n: set() for n in compiled.topology.switches}
        self.controller_view: Set[Event] = set()
        n_events = max(1, len(compiled.nes.events))
        n_states = max(2, len(compiled.states))
        self.tag_bytes = max(1, math.ceil(math.log2(n_states) / 8))
        self.digest_bytes = max(1, math.ceil(n_events / 8))

    def header_bytes(self, frame: Frame) -> int:
        return BASE_HEADER_BYTES + self.tag_bytes + self.digest_bytes

    def on_ingress(self, net: SimNetwork, location: Location, frame: Frame) -> Frame:
        """IN: stamp the tag of the local event-set."""
        return Frame(
            packet=frame.packet.at(location),
            payload_bytes=frame.payload_bytes,
            tag=frozenset(self.registers[location.switch]),
            digest=frozenset(),
            flow=frame.flow,
            ident=frame.ident,
            injected_at=frame.injected_at,
        )

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        """SWITCH: learn, detect, forward by the packet's tag."""
        switch_id = location.switch
        register = self.registers[switch_id]
        combined = frozenset(register) | frame.digest
        structure = self.compiled.nes.structure
        detected: List[Event] = []
        for event in sorted(self.compiled.nes.events, key=repr):
            if event in combined or not event.matches_packet(frame.packet, location):
                continue
            if not structure.enables(combined, event):
                continue
            if not structure.con(combined | frozenset(detected) | {event}):
                continue
            detected.append(event)
        new_known = combined | frozenset(detected)
        if new_known != frozenset(register):
            register.clear()
            register.update(new_known)
        for event in new_known:
            net.note_event_learned(switch_id, event)
        for event in detected:
            self._notify_controller(net, event)

        tag = frame.tag if frame.tag is not None else frozenset()
        applied = frame.packet.at(location)
        config = self.compiled.config_for_event_set(tag)
        return [
            (
                out_packet[PT],
                Frame(
                    packet=out_packet,
                    payload_bytes=frame.payload_bytes,
                    tag=tag,
                    digest=new_known,
                    flow=frame.flow,
                    ident=frame.ident,
                    injected_at=frame.injected_at,
                ),
            )
            for out_packet in sorted(config.table(switch_id).apply(applied), key=repr)
        ]

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


def inject_per_frame(net: SimNetwork, host_name: str, batch: FrameBatch) -> None:
    """Inject a batch one :meth:`SimNetwork.inject` call per frame: the
    eager scheduling that ``inject_stream`` must match record for record."""
    location = net.topology.host(host_name).attachment
    for at, packet, payload, flow, ident in batch.rows(location):
        net.inject(
            host_name,
            Frame(packet=packet, payload_bytes=payload, flow=flow, ident=ident),
            at=at,
        )
