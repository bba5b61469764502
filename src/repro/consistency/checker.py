"""Correctness of network traces with respect to an NES (Definition 6).

A trace is correct when either no event ever fires and every packet is
processed by the initial configuration ``g(∅)``, or some event sequence
allowed by the NES turns the trace into a correct event-driven
consistent update.  The checker searches the (finite) space of allowed
sequences; it is the empirical counterpart of Theorem 1 and is exercised
by the test suite against traces produced by the runtime semantics.

A check costs about linear time in the trace length:

* Happens-before is built once per trace as one int bitset per position
  (:class:`~repro.consistency.traces.HappensBefore`), so each
  "wholly before / after event ``e_i``" clause is a bit test.
* ``Traces(C)`` membership goes through one per-check
  :class:`~repro.consistency.traces.TraceMembership`.  Link hops are
  decided once per packet trace, since they do not depend on ``C``.
  Switch steps are memoized on (interned switch table, located packet),
  so the configurations of a candidate chain that agree at a switch
  share its steps.  The memo is dropped when the check returns: the next
  trace's packets rarely repeat this one's, so a longer-lived memo only
  grows the heap (and with it the collector's work in the process that
  produced the traces).
* Definition 2 asks a packet trace only the membership questions its
  clauses need; the full account of which configurations process it is
  computed only to report a violation.

With ``SimOptions(mask_digests=True)`` (the default) the event side of
the search runs on interned event bitmasks: per-position match masks
are computed once per trace, candidate sequences are pruned and
enumerated on ints, and first occurrences and the quiet case test
single bits.  Candidate sequences are enumerated *lazily* in a fixed
preorder, so a correct trace early-exits after its first matching
sequence -- ``sequences_tried`` counts how many Definition 2 checks the
last :meth:`NESChecker.check` actually ran.  The off-position
(``SimOptions(mask_digests=False)``) matches events on frozensets; the
verdicts, reasons and ``sequences_tried`` are identical either way.
The definitional references -- the frozenset happens-before closure
and :func:`~repro.consistency.traces.packet_trace_in_traces` per
(configuration, packet trace) -- are the test suite's oracles.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..events.event import Event
from ..events.nes import NES
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..netkat.compiler import Configuration, compile_policy
from ..netkat.fdd import FDDBuilder
from ..netkat.flowtable import Rule
from ..sim_options import SimOptions
from ..stateful.ast import StateVector
from ..topology import Topology
from .traces import NetworkTrace, TraceMembership, position_event_masks
from .update import CorrectnessReport, EventDrivenUpdate, check_update_correctness

__all__ = ["NESChecker", "check_trace_against_nes"]


class NESChecker:
    """Checks traces against an NES, caching compiled configurations."""

    def __init__(
        self,
        nes: NES,
        topology: Topology,
        max_sequence_length: int = 12,
        options: Optional[SimOptions] = None,
    ):
        self.nes = nes
        self.topology = topology
        self.max_sequence_length = max_sequence_length
        self.options = options if options is not None else SimOptions()
        self._mask = self.options.mask_digests
        self._builder = FDDBuilder()
        self._configs: Dict[StateVector, Configuration] = {}
        self._configs_by_mask: Dict[int, Configuration] = {}
        self._table_ids: Dict[Tuple[Rule, ...], int] = {}
        self._table_keys_of: Dict[Configuration, Dict[int, int]] = {}
        self._ambient: FrozenSet[Event] = frozenset(nes.events)
        # Number of candidate sequences the last check() ran Definition 2
        # on (the lazy-enumeration counter hook).
        self.sequences_tried = 0

    def configuration(self, state: StateVector) -> Configuration:
        cached = self._configs.get(state)
        if cached is None:
            cached = compile_policy(
                self.nes.configuration_policy(state),
                self.topology,
                builder=self._builder,
                name=f"C{list(state)}",
            )
            self._configs[state] = cached
        return cached

    def config_of_event_set(self, event_set: FrozenSet[Event]) -> Configuration:
        return self.configuration(self.nes.state_of(event_set))

    def _config_of_mask(self, mask: int) -> Configuration:
        """The configuration of an encoded event-set (decode memoized, so
        no frozensets materialize between checker steps after the first
        visit of a collected-mask)."""
        cached = self._configs_by_mask.get(mask)
        if cached is None:
            cached = self.config_of_event_set(self.nes.structure.decode(mask))
            self._configs_by_mask[mask] = cached
        return cached

    # -- Definition 6 ----------------------------------------------------------

    def check(self, trace: NetworkTrace) -> CorrectnessReport:
        """Is the trace correct with respect to the NES?"""
        with obs_trace.span("checker.check") as check_span:
            report = self._check_impl(trace)
            # sequences_tried stays the legacy per-check attribute; the
            # registry accumulates the same counts across checks.
            obs_metrics.inc(
                "repro_checker_sequences_tried_total",
                by=self.sequences_tried,
                help="Definition 2 checks run across all NESChecker.check "
                     "calls (the lazy candidate-sequence counter)",
            )
            check_span.set(
                sequences_tried=self.sequences_tried, correct=bool(report)
            )
            return report

    def _check_impl(self, trace: NetworkTrace) -> CorrectnessReport:
        self.sequences_tried = 0
        masks = (
            position_event_masks(trace, self.nes.structure.universe)
            if self._mask
            else None
        )
        membership = TraceMembership(trace, self.topology, self._table_keys)
        quiet = self._check_no_events(trace, membership, masks)
        if quiet is not None:
            return quiet

        ambient_mask = self.nes.structure.all_mask
        reports: List[CorrectnessReport] = []
        for sequence, bits in self._candidate_sequences(trace, masks):
            self.sequences_tried += 1
            update = self._update_of_sequence(sequence, bits)
            # Without masks (None) first_occurrences matches on frozensets.
            report = check_update_correctness(
                trace,
                update,
                position_masks=masks,
                event_bits=bits,
                ambient_mask=ambient_mask,
                membership=membership,
            )
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
        # Surface the most informative failure: prefer reports whose FO
        # existed (their reason names a concrete violating packet trace).
        for report in reports:
            if report.reason != "FO(ntr, U) does not exist":
                return report
        return reports[0]

    def _table_keys(self, config: Configuration) -> Dict[int, int]:
        """Switch -> interned key of the configuration's table there.

        Tables with equal rules share a key, so :class:`TraceMembership`
        steps a packet once for every configuration that agrees at its
        switch.  Configurations are cached on the checker, so their keys
        are too (a few ints per configuration, unlike the step memo).
        """
        keys = self._table_keys_of.get(config)
        if keys is None:
            interned = self._table_ids
            keys = {
                switch: interned.setdefault(table.rules, len(interned))
                for switch, table in config.tables.items()
            }
            self._table_keys_of[config] = keys
        return keys

    def _check_no_events(
        self,
        trace: NetworkTrace,
        membership: TraceMembership,
        masks: Optional[Tuple[int, ...]] = None,
    ) -> Optional[CorrectnessReport]:
        """The first disjunct of Definition 6, or None when events fire."""
        if masks is not None:
            if any(masks):
                return None
        elif any(
            event.matches(lp)
            for lp in trace.packets
            for event in self.nes.events
        ):
            return None
        initial = self.config_of_event_set(frozenset())
        for t in trace.sorted_indices:
            if not membership(initial, t):
                return CorrectnessReport(
                    False,
                    "no event fires but a packet trace is not in Traces(g(∅))",
                    t,
                )
        return CorrectnessReport(True)

    def _candidate_sequences(
        self, trace: NetworkTrace, masks: Optional[Tuple[int, ...]] = None
    ) -> Iterator[Tuple[Tuple[Event, ...], Tuple[int, ...]]]:
        """Lazily enumerate allowed event sequences worth trying.

        Only events matched by some trace position can have a first
        occurrence, so sequences are built from those (hugely pruning
        the search).  Yields ``(sequence, per-event bits)`` pairs in the
        same preorder as the old materialized list; being a generator,
        a correct trace stops the enumeration at its first match.
        """
        structure = self.nes.structure
        if masks is not None:
            seen = 0
            for mask in masks:
                seen |= mask
            universe = structure.universe
            matched = []
            scan = seen
            while scan:
                low = scan & -scan
                scan ^= low
                # Ascending bit order == sorted-by-repr order: the
                # universe is interned sorted by repr.
                matched.append((universe[low.bit_length() - 1], low))
        else:
            matched = [
                (event, 1 << structure.event_index[event])
                for event in sorted(self.nes.events, key=repr)
                if any(event.matches(lp) for lp in trace.packets)
            ]
        max_length = self.max_sequence_length

        def extend(
            prefix: Tuple[Event, ...], bits: Tuple[int, ...], collected: int
        ) -> Iterator[Tuple[Tuple[Event, ...], Tuple[int, ...]]]:
            if prefix:
                yield prefix, bits
            if len(prefix) >= max_length:
                return
            for event, bit in matched:
                if collected & bit:
                    continue
                if not structure.enables_mask(collected, bit.bit_length() - 1):
                    continue
                if not structure.con_mask(collected | bit):
                    continue
                yield from extend(prefix + (event,), bits + (bit,), collected | bit)

        yield from extend((), (), 0)

    def _update_of_sequence(
        self, sequence: Tuple[Event, ...], bits: Tuple[int, ...]
    ) -> EventDrivenUpdate:
        configs: List[Configuration] = [self.config_of_event_set(frozenset())]
        if self._mask:
            collected_mask = 0
            for bit in bits:
                collected_mask |= bit
                configs.append(self._config_of_mask(collected_mask))
        else:
            collected: FrozenSet[Event] = frozenset()
            for event in sequence:
                collected = collected | {event}
                configs.append(self.config_of_event_set(collected))
        return EventDrivenUpdate(tuple(configs), tuple(sequence), self._ambient)


def check_trace_against_nes(
    trace: NetworkTrace,
    nes: NES,
    topology: Topology,
    options: Optional[SimOptions] = None,
) -> CorrectnessReport:
    """One-shot convenience wrapper around :class:`NESChecker`."""
    return NESChecker(nes, topology, options=options).check(trace)
