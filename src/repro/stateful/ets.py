"""Event-driven transition systems (Definition 7) and ``ETS(p)``.

An ETS is a graph whose vertices are labeled by network configurations
and whose edges are labeled by events.  For a Stateful NetKAT program
``p`` with initial state ``~k0``, the construction of section 3.3 yields
vertices ``(~k, ⟦p⟧~k)`` and edges ``fst(⟬p⟭~k true)``.

We build the reachable fragment by breadth-first exploration from the
initial state; unreachable state vectors never influence runtime
behavior.  The full vertex set of the paper (all ``~k``) can be obtained
with an explicit ``state_space``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..events.event import Event
from ..netkat.ast import Policy
from .ast import StateVector, validate_state_references
from .events import EventEdge
from .symbolic import SymbolicProgram

__all__ = ["ETS", "build_ets"]


def _edge_order(edge: EventEdge) -> Tuple[str, StateVector]:
    return (repr(edge.event), edge.dst)


@dataclass(frozen=True)
class ETS:
    """An event-driven transition system over state vectors.

    ``vertices`` maps each state vector to its projected configuration
    policy; ``edges`` are the event-labeled transitions; ``initial`` is
    ``v0``.
    """

    initial: StateVector
    vertices: Tuple[Tuple[StateVector, Policy], ...]
    edges: FrozenSet[EventEdge]

    def configuration(self, state: StateVector) -> Policy:
        by_state = self.__dict__.get("_by_state")
        if by_state is None:
            by_state = {}
            for vertex_state, policy in self.vertices:
                # First match wins, like the linear scan this replaces
                # (nothing forbids hand-built ETSs with duplicate states).
                by_state.setdefault(vertex_state, policy)
            object.__setattr__(self, "_by_state", by_state)
        try:
            return by_state[state]
        except KeyError:
            raise KeyError(f"state {state} is not a vertex of this ETS") from None

    def states(self) -> Tuple[StateVector, ...]:
        return tuple(state for state, _ in self.vertices)

    def out_edges(self, state: StateVector) -> Tuple[EventEdge, ...]:
        # family_of_ets asks for a state's out-edges once per path visit;
        # index and sort the edge set per source state on first use.
        index = self.__dict__.get("_out_edges")
        if index is None:
            grouped: Dict[StateVector, List[EventEdge]] = {}
            for e in self.edges:
                grouped.setdefault(e.src, []).append(e)
            index = {
                src: tuple(sorted(es, key=_edge_order)) for src, es in grouped.items()
            }
            object.__setattr__(self, "_out_edges", index)
        return index.get(state, ())

    def events(self) -> FrozenSet[Event]:
        return frozenset(e.event for e in self.edges)

    def has_loops(self) -> bool:
        """Is any state reachable from itself via one or more edges?

        The DFS runs on an explicit stack: deep state chains that the
        symbolic extraction engine makes tractable (bandwidth caps well
        past 28) would overflow CPython's recursion limit with a
        recursive ``visit``.
        """
        adjacency: Dict[StateVector, List[StateVector]] = {}
        for e in self.edges:
            adjacency.setdefault(e.src, []).append(e.dst)
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[StateVector, int] = {}
        for root, _ in self.vertices:
            if color.get(root, WHITE) != WHITE:
                continue
            color[root] = GRAY
            stack: List[Tuple[StateVector, Iterator[StateVector]]] = [
                (root, iter(adjacency.get(root, ())))
            ]
            while stack:
                node, neighbors = stack[-1]
                advanced = False
                for nxt in neighbors:
                    c = color.get(nxt, WHITE)
                    if c == GRAY:
                        return True
                    if c == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(adjacency.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False

    def __repr__(self) -> str:
        lines = [f"ETS(initial={list(self.initial)})"]
        for state, _ in self.vertices:
            marker = "*" if state == self.initial else " "
            lines.append(f" {marker} {list(state)}")
            for e in self.out_edges(state):
                lines.append(f"     --{e.event!r}--> {list(e.dst)}")
        return "\n".join(lines)


def build_ets(
    program: Policy,
    initial: StateVector,
    state_space: Optional[Iterable[StateVector]] = None,
    max_states: int = 10_000,
    symbolic: Optional[object] = None,
) -> ETS:
    """Construct ``ETS(program)`` from the initial state.

    By default only states reachable from ``initial`` become vertices;
    pass ``state_space`` to force a specific vertex set (every reachable
    state must be included in it).

    The program is partially evaluated **once** over all
    state-component values
    (:class:`~repro.stateful.symbolic.SymbolicProgram`) and the BFS
    instantiates each state's edges and configuration from the guarded
    result -- near-linear in the chain depth for the cap apps, and equal
    per state to the Figure 5-6 ``extract``/``project`` walks.

    ``symbolic`` is the *instantiation seam*: any object providing
    ``edges_at(state)`` and ``configuration_at(state)``.  Pass a
    prebuilt :class:`~repro.stateful.symbolic.SymbolicProgram` to reuse
    (and time) the partial evaluation separately, as
    :class:`repro.pipeline.Pipeline` does — or a patched source that
    serves unaffected states from a previous ETS, as
    :meth:`repro.pipeline.Pipeline.update` does.  Whatever the source,
    per-state results must equal the ``extract``/``project`` walks'
    (the test suite's per-state oracle goes through this seam too).
    The BFS applies the same identity-edge filter either way
    (already-filtered reused edges pass through it unchanged) and visits
    each state's edges in canonical ``(repr(event), dst)`` order, so the
    vertex order does not depend on the hash seed.
    """
    allowed: Optional[Set[StateVector]] = (
        set(state_space) if state_space is not None else None
    )
    if allowed is not None and initial not in allowed:
        raise ValueError(f"initial state {initial} not in the given state space")
    # Projection prunes dead segments without walking their bodies, so
    # out-of-range state references are checked once for the whole program.
    validate_state_references(program, len(initial))
    if symbolic is None:
        symbolic = SymbolicProgram(program)
    config_of = symbolic.configuration_at

    def edges_of(state: StateVector) -> List[EventEdge]:
        # Edge sources hand back sets; iterating one directly would make
        # the BFS discovery order (and so the vertex order) follow the
        # hash seed.
        return sorted(symbolic.edges_at(state), key=_edge_order)

    visited: Set[StateVector] = {initial}
    order: List[StateVector] = [initial]
    edges: Set[EventEdge] = set()
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for edge in edges_of(state):
            if edge.dst == edge.src:
                # An update that rewrites the state to its current value is
                # an identity transition; the paper's ETSs omit them (e.g.
                # the learning switch re-"learns" H1 in state [1] without a
                # new event occurrence).
                continue
            edges.add(edge)
            dst = edge.dst
            if allowed is not None and dst not in allowed:
                raise ValueError(
                    f"reachable state {dst} is outside the given state space"
                )
            if dst not in visited:
                if len(visited) >= max_states:
                    raise RuntimeError(
                        f"ETS exploration exceeded {max_states} states"
                    )
                visited.add(dst)
                order.append(dst)
                queue.append(dst)

    if allowed is not None:
        for extra in sorted(allowed - visited):
            order.append(extra)
            for edge in edges_of(extra):
                if edge.dst == edge.src:
                    # Identity transitions are omitted here exactly as in
                    # the BFS loop above; forced extra states must not
                    # disagree with reached ones on the paper's rule.
                    continue
                edges.add(edge)

    vertices = tuple((state, config_of(state)) for state in order)
    return ETS(initial=initial, vertices=vertices, edges=frozenset(edges))
