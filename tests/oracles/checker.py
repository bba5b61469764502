"""The Definition 6 event search on frozensets."""

from typing import List

from repro.consistency.checker import NESChecker
from repro.consistency.traces import NetworkTrace, TraceMembership
from repro.consistency.update import (
    CorrectnessReport,
    EventDrivenUpdate,
    check_update_correctness,
)


class ReferenceChecker(NESChecker):
    """:class:`NESChecker` with the event side on frozensets: events are
    matched per position with ``Event.matches``, candidate sequences are
    enumerated with the set forms of ``enables``/``con``, and first
    occurrences are found without position masks.  The trace side
    (happens-before, ``Traces(C)`` membership) is shared with production.

    Verdicts, reasons and ``sequences_tried`` must equal production's.
    """

    def _check_impl(self, trace: NetworkTrace) -> CorrectnessReport:
        self.sequences_tried = 0
        membership = TraceMembership(trace, self.topology, self._table_keys)
        matched = [
            event
            for event in sorted(self.nes.events, key=repr)
            if any(event.matches(lp) for lp in trace.packets)
        ]
        if not matched:
            initial = self.config_of_event_set(frozenset())
            for t in trace.sorted_indices:
                if not membership(initial, t):
                    return CorrectnessReport(
                        False,
                        "no event fires but a packet trace is not in Traces(g(∅))",
                        t,
                    )
            return CorrectnessReport(True)

        structure = self.nes.structure
        reports: List[CorrectnessReport] = []

        def extend(prefix, collected):
            if prefix:
                yield prefix
            if len(prefix) >= self.max_sequence_length:
                return
            for event in matched:
                if event in collected or not structure.enables(collected, event):
                    continue
                if not structure.con(collected | {event}):
                    continue
                yield from extend(prefix + (event,), collected | {event})

        for sequence in extend((), frozenset()):
            self.sequences_tried += 1
            configs = tuple(
                self.config_of_event_set(frozenset(sequence[:k]))
                for k in range(len(sequence) + 1)
            )
            update = EventDrivenUpdate(configs, sequence, self._ambient)
            report = check_update_correctness(trace, update, membership=membership)
            if report:
                return report
            reports.append(report)
        if not reports:
            return CorrectnessReport(
                False,
                "no event sequence allowed by the NES matches the trace "
                "(and some packet matches an event, so the quiet case "
                "does not apply)",
            )
        for report in reports:
            if report.reason != "FO(ntr, U) does not exist":
                return report
        return reports[0]
