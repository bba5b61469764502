"""Network traces and the happens-before relation (section 2).

A *network trace* is an interleaving of *packet traces*: a sequence of
located packets together with a set ``T`` of increasing index sequences,
one per packet trace, forming a family of trees rooted at host-injected
packets (trees, because a configuration may copy one packet into several
outputs).

The *happens-before* relation (Definition 1) is the least partial order
on trace positions that respects (a) the switch-local processing order
and (b) the order within each packet trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..netkat.compiler import Configuration
from ..netkat.packet import LocatedPacket, Location
from ..topology import Topology

__all__ = [
    "NetworkTrace",
    "TraceValidationError",
    "HappensBefore",
    "packet_trace_in_traces",
    "packet_trace_follows",
    "position_event_masks",
    "TraceMembership",
]


_UNSET = object()


class TraceValidationError(Exception):
    """The candidate network trace violates a structural condition."""


@dataclass(frozen=True)
class NetworkTrace:
    """``ntr = (lp0 lp1 ..., T)`` with ``T`` a set of index sequences."""

    packets: Tuple[LocatedPacket, ...]
    trace_indices: FrozenSet[Tuple[int, ...]]

    def __post_init__(self) -> None:
        n = len(self.packets)
        covered: Set[int] = set()
        for t in self.trace_indices:
            if not t:
                raise TraceValidationError("empty index sequence in T")
            if any(k < 0 or k >= n for k in t):
                raise TraceValidationError(f"index sequence {t} out of range")
            if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise TraceValidationError(f"index sequence {t} is not increasing")
            covered.update(t)
        if covered != set(range(n)):
            missing = sorted(set(range(n)) - covered)
            raise TraceValidationError(
                f"positions {missing} are not covered by any packet trace"
            )
        _check_tree_condition(self.trace_indices)

    # -- projections (the paper's ntr↓k and ntr↓t) -----------------------------

    def traces_through(self, index: int) -> FrozenSet[Tuple[int, ...]]:
        """``ntr↓k``: the index sequences passing through position k."""
        return self._sequences_through[index]

    @cached_property
    def _sequences_through(self) -> Tuple[FrozenSet[Tuple[int, ...]], ...]:
        """Position -> the index sequences through it, built in one pass
        over ``T``."""
        through: List[List[Tuple[int, ...]]] = [[] for _ in self.packets]
        for t in self.trace_indices:
            for k in t:
                through[k].append(t)
        return tuple(frozenset(ts) for ts in through)

    def packet_trace(self, t: Sequence[int]) -> Tuple[LocatedPacket, ...]:
        """``ntr↓t``: the located packets along an index sequence."""
        return tuple(self.packets[k] for k in t)

    @cached_property
    def sorted_indices(self) -> Tuple[Tuple[int, ...], ...]:
        """``T`` in sorted order (the order checkers report violations in)."""
        return tuple(sorted(self.trace_indices))

    def __len__(self) -> int:
        return len(self.packets)

    def happens_before(self) -> "HappensBefore":
        """``≺ntr``, built on first use and kept with the (immutable) trace."""
        return self._happens_before

    @cached_property
    def _happens_before(self) -> "HappensBefore":
        return HappensBefore(self)


def position_event_masks(
    trace: NetworkTrace, universe: Sequence
) -> Tuple[int, ...]:
    """Per-position bitmask of matching events (bit ``i`` ↔ ``universe[i]``).

    The mask-threaded Definition 6 checker computes this once per trace;
    every downstream scan -- the quiet case, candidate-sequence pruning,
    first-occurrence search, and the trailing ambient-event check -- is
    then a single int operation per position instead of an
    events × positions match loop per candidate sequence.  An event
    matches only at its own location, and renamed copies of an event
    match the same packets, so each position tests each distinct guard
    at its location once.
    """
    by_location: Dict[Location, Dict[Hashable, int]] = {}
    for index, event in enumerate(universe):
        guards = by_location.setdefault(event.location, {})
        guards[event.guard] = guards.get(event.guard, 0) | (1 << index)
    masks: List[int] = []
    for lp in trace.packets:
        mask = 0
        for guard, bits in by_location.get(lp.location, {}).items():
            if guard.holds(lp.packet):
                mask |= bits
        masks.append(mask)
    return tuple(masks)


def _check_tree_condition(trace_indices: FrozenSet[Tuple[int, ...]]) -> None:
    """Condition 3: the successor graph forms a family of trees.

    Edges ``(t[i], t[i+1])`` over all sequences must give every node at
    most one parent, and roots are exactly the sequence heads.
    """
    parent: Dict[int, int] = {}
    roots: Set[int] = set()
    for t in trace_indices:
        roots.add(t[0])
        for i in range(len(t) - 1):
            child, par = t[i + 1], t[i]
            existing = parent.get(child)
            if existing is not None and existing != par:
                raise TraceValidationError(
                    f"position {child} has two parents ({existing} and {par}); "
                    "T is not a family of trees"
                )
            parent[child] = par
    conflict = roots & set(parent)
    if conflict:
        raise TraceValidationError(
            f"positions {sorted(conflict)} are both roots and children"
        )


class HappensBefore:
    """The happens-before partial order ``≺ntr`` on trace positions.

    The transitive closure is stored as one Python int per position:
    bit ``j`` of ``reach[i]`` is set iff ``lp_i ≺ lp_j``.  Every edge of
    Definition 1 -- the next position at the same switch, and the next
    position of each packet trace -- goes from a smaller index to a
    larger one, so one reverse sweep builds the closure:
    ``reach[i]`` is the union, over the successors ``j`` of ``i``, of
    bit ``j`` and ``reach[j]``.  That is O(n) big-int ORs of at most
    ``n`` bits each, and ``before`` is a shift and a mask.  The test
    suite checks it against a frozenset closure (O(n²) time and memory).

    The relation depends on the trace alone, so
    :meth:`NetworkTrace.happens_before` builds it once per trace.  The
    checker's other per-trace structure, the switch-step memo of
    :class:`TraceMembership`, depends on the configurations as well and
    lives for one check only: the packets of one trace rarely recur in
    the next, so a memo kept across checks would only grow the heap.
    """

    def __init__(self, trace: NetworkTrace):
        n = len(trace.packets)
        successors: List[List[int]] = [[] for _ in range(n)]
        # (a) total order per switch, in trace order.
        last_at_switch: Dict[int, int] = {}
        for index, lp in enumerate(trace.packets):
            switch = lp.location.switch
            previous = last_at_switch.get(switch)
            if previous is not None:
                successors[previous].append(index)
            last_at_switch[switch] = index
        # (b) order within each packet trace.
        for t in trace.trace_indices:
            for i in range(len(t) - 1):
                successors[t[i]].append(t[i + 1])
        reach: List[int] = [0] * n
        for index in range(n - 1, -1, -1):
            acc = 0
            for nxt in successors[index]:
                acc |= reach[nxt] | (1 << nxt)
            reach[index] = acc
        self.reach: Tuple[int, ...] = tuple(reach)

    def before(self, i: int, j: int) -> bool:
        """``lp_i ≺ lp_j``."""
        return (self.reach[i] >> j) & 1 == 1

    def all_before(self, indices: Iterable[int], j: int) -> bool:
        """Do all of ``indices`` happen before position j?"""
        reach = self.reach
        return all((reach[i] >> j) & 1 for i in indices)

    def all_after(self, i: int, indices: Iterable[int]) -> bool:
        """Does position i happen before all of ``indices``?"""
        mask = 0
        for j in indices:
            mask |= 1 << j
        return mask & ~self.reach[i] == 0


# ---------------------------------------------------------------------------
# Traces(C): packet-trace membership for a configuration
# ---------------------------------------------------------------------------


def packet_trace_follows(
    config: Configuration, packet_trace: Sequence[LocatedPacket]
) -> bool:
    """Do consecutive elements step via ``config`` (ignoring completeness)?"""
    return all(
        config.relates(packet_trace[i], packet_trace[i + 1])
        for i in range(len(packet_trace) - 1)
    )


def packet_trace_in_traces(
    config: Configuration,
    packet_trace: Sequence[LocatedPacket],
    require_complete: bool = True,
) -> bool:
    """Is the packet trace in ``Traces(config)``?

    The trace must start at a host attachment point and follow the
    configuration's step relation.  With ``require_complete`` (the
    default), it must also be *maximal*: it either ends delivered at a
    host port, or ends at a position from which the configuration offers
    no further step (the packet was dropped exactly where the
    configuration drops it).  Maximality is what gives the "processed
    entirely by one configuration" clauses of Definition 2 their force:
    a packet silently dropped mid-path is in no configuration's traces.
    """
    if not packet_trace:
        return False
    topology = config.topology
    first = packet_trace[0]
    if topology.host_at(first.location) is None:
        return False
    if not packet_trace_follows(config, packet_trace):
        return False
    if not require_complete:
        return True
    last = packet_trace[-1]
    if len(packet_trace) > 1 and topology.host_at(last.location) is not None:
        return True  # delivered to a host
    # Dropped (or never forwarded): correct only if C agrees there is no
    # continuation from the final position.
    return not config.step(last)


class TraceMembership:
    """``Traces(C)`` membership for the packet traces of one network
    trace, shared across every configuration a check asks about.

    ``membership(config, t)`` equals
    ``packet_trace_in_traces(config, trace.packet_trace(t))`` (the
    definitional reference, kept for the tests) but splits the work by
    what depends on ``C``:

    * Link hops and the host-attachment conditions depend only on the
      topology, so they are decided once per packet trace, without
      building a packet: ``b`` is a link step of ``a`` iff the topology
      links ``a``'s location to ``b``'s and ``b``'s packet is ``a``'s
      relocated there (:meth:`Packet.relocates_to`).  What remains is
      the switch steps every configuration must take: position ``a`` to
      position ``b``, or ``a`` to nothing when the packet trace ends at
      ``a`` undelivered and ``C`` must drop it there.
    * Those steps are decided per (switch table, step), and
      ``Configuration.switch_step`` is memoized on (switch table,
      located packet).  ``table_keys(config)`` maps each switch to an
      interned key of its table, equal for equal ``FlowTable.rules``, so
      a chain of configurations that differ at one switch steps each
      position about once per distinct table.

    The memo lives for one check: the packets of one network trace
    rarely recur in the next, so keeping it would only grow the heap.
    """

    def __init__(
        self,
        trace: NetworkTrace,
        topology: Topology,
        table_keys: Callable[[Configuration], Dict[int, Hashable]],
    ):
        self._packets = trace.packets
        self._topology = topology
        self._table_keys = table_keys
        # Indexed by a packet trace's last position, which fixes the
        # trace because T is a family of trees rooted at the heads.
        self._needs: List[object] = [_UNSET] * len(trace.packets)
        self._verdicts: Dict[Tuple[Hashable, int, Optional[int]], bool] = {}
        self._switch_steps: Dict[Tuple[Hashable, LocatedPacket], FrozenSet[LocatedPacket]] = {}

    def __call__(self, config: Configuration, t: Tuple[int, ...]) -> bool:
        needs = self._needs[t[-1]]
        if needs is _UNSET:
            needs = self._needs[t[-1]] = self._switch_steps_needed(t)
        if needs is None:
            return False
        keys = self._table_keys(config)
        verdicts = self._verdicts
        for switch, a, b in needs:
            key = (keys.get(switch), a, b)
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = self._steps_to(config, key)
            if not ok:
                return False
        return True

    def _steps_to(
        self, config: Configuration, key: Tuple[Hashable, int, Optional[int]]
    ) -> bool:
        """Does ``config``'s switch step take position ``a`` to ``b``
        (to nowhere when ``b`` is None)?"""
        table, a, b = key
        lp = self._packets[a]
        outputs = self._switch_steps.get((table, lp))
        if outputs is None:
            outputs = self._switch_steps[table, lp] = config.switch_step(lp)
        if b is None:
            return not outputs
        return self._packets[b] in outputs

    def _switch_steps_needed(
        self, t: Tuple[int, ...]
    ) -> Optional[Tuple[Tuple[int, int, Optional[int]], ...]]:
        """The switch steps ``(switch, a, b)`` every configuration must
        take for ``t``, or None when ``t`` is in no ``Traces(C)``."""
        topology = self._topology
        packets = self._packets
        if topology.host_at(packets[t[0]].location) is None:
            return None
        needs: List[Tuple[int, int, Optional[int]]] = []
        for k in range(len(t) - 1):
            a, b = packets[t[k]], packets[t[k + 1]]
            if topology.has_link(a.location, b.location) and a.packet.relocates_to(
                b.location, b.packet
            ):
                continue
            needs.append((a.location.switch, t[k], t[k + 1]))
        last = packets[t[-1]]
        if len(t) == 1 or topology.host_at(last.location) is None:
            # Not delivered: complete only where C offers no further
            # step, and a link out of ``last`` is a step in every C.
            if topology.link_targets(last.location):
                return None
            needs.append((last.location.switch, t[-1], None))
        return tuple(needs)
