"""Symbolic all-states extraction and projection: one partial-evaluation
pass over the program instead of one ``extract``/``project`` walk per
state vector.

The per-state construction of Figures 5-6 resolves every ``state(m)=n``
test against a concrete ``~k``, so building ``ETS(p)`` costs
O(states x program size) -- the dominant ``ets``-stage cost on the deep
bandwidth-cap chains (~7k ``extract`` calls at cap 24).  This module
walks the program **once**, treating each state test as a constraint on
a symbolic state vector:

- event extraction threads *guarded* formulas ``(g, phi)`` -- ``g`` is a
  canonical conjunction of state-component (in)equality literals (a
  :class:`StateGuard`, the state-space analogue of
  :class:`repro.formula.Formula` over packet fields) -- and collects
  *guarded* event edges ``(g, event, updates)`` whose concrete source
  and destination states are instantiated later;
- projection produces a guarded decision structure: a partition of the
  state space into :class:`StateGuard` cells, each carrying the
  projected configuration policy shared by every state in the cell.

Instantiating a concrete state is then a cheap guard filter
(:meth:`SymbolicProgram.edges_at` / :meth:`.configuration_at`) instead
of a fresh AST walk, which makes ETS construction near-linear in the
chain depth for the cap apps.

Equality with the per-state walks (:func:`~repro.stateful.events.extract`
and :func:`~repro.stateful.projection.project`) is load-bearing: both
apply the *same* smart constructors and formula combinators in the
*same* order, so for every state consistent with a guard the
instantiated edges, formulas, and configuration policies are equal.
The test suite builds ETSs from those walks through the ``build_ets``
instantiation seam (``tests/oracles/``) and compares them with this
engine's byte for byte: the goldens in ``tests/test_pipeline.py`` and
the seeded property test in ``tests/test_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..events.event import Event
from ..formula import EQ, Formula, Literal, NE
from ..netkat.ast import (
    Assign,
    Conj,
    DROP,
    Disj,
    Dup,
    FALSE,
    Filter,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    TRUE,
    Test,
    Union,
    conj,
    disj,
    neg,
    seq,
    star,
    union,
)
from ..netkat.packet import PT, SW
from .ast import LinkUpdate, StateTest, StateVector, uses_state, vector_update
from .events import EventEdge, STAR_EXTRACT_FUEL

__all__ = [
    "StateLiteral",
    "StateGuard",
    "GuardedEdge",
    "SymbolicExtract",
    "SymbolicProgram",
    "symbolic_extract",
    "symbolic_project",
    "changed_edge_guards",
    "changed_cell_guards",
]


# ---------------------------------------------------------------------------
# State guards: canonical conjunctions over state components
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class StateLiteral:
    """A single constraint ``state(component) = value`` or ``!= value``."""

    component: int
    op: str
    value: int

    def __post_init__(self) -> None:
        if self.op not in (EQ, NE):
            raise ValueError(f"bad state literal operator {self.op!r}")

    def holds(self, state: StateVector) -> bool:
        actual = state[self.component]
        if self.op == EQ:
            return actual == self.value
        return actual != self.value

    def __repr__(self) -> str:
        return f"state({self.component}){self.op}{self.value}"


class StateGuard:
    """A satisfiable canonical conjunction of state literals.

    Mirrors :class:`repro.formula.Formula`, with packet fields replaced
    by state-component indices: a positive literal on a component
    subsumes (and must be consistent with) every other literal on it,
    negative literals accumulate, and unsatisfiable conjunctions are
    represented by absence -- the combinators return ``None``.
    """

    __slots__ = ("_literals", "_pos", "_hash", "_repr")

    def __init__(self, literals: Iterable[StateLiteral] = ()):
        lits = frozenset(literals)
        if _guard_contradictory(lits):
            raise ValueError(
                f"contradictory state literal set {sorted(lits)!r}; "
                "use StateGuard.conjoin to build guards safely"
            )
        self._finish(_guard_canonicalize(lits))

    def _finish(self, canonical: FrozenSet[StateLiteral]) -> None:
        object.__setattr__(self, "_literals", canonical)
        # Positive assignments, cached for the contradiction fast path
        # in conjoin_guard (the symbolic-projection inner loop).
        object.__setattr__(
            self,
            "_pos",
            {l.component: l.value for l in canonical if l.op == EQ},
        )
        object.__setattr__(self, "_hash", hash(canonical))
        object.__setattr__(self, "_repr", None)

    @staticmethod
    def true() -> "StateGuard":
        return _TRUE_GUARD

    @staticmethod
    def _of_canonical(literals: FrozenSet[StateLiteral]) -> "StateGuard":
        """Build from literals already known consistent and canonical
        (skips the redundant ``__init__`` re-checks -- the conjoin
        combinators on the symbolic-projection hot path just ran them)."""
        guard = object.__new__(StateGuard)
        guard._finish(literals)
        return guard

    @property
    def literals(self) -> FrozenSet[StateLiteral]:
        return self._literals

    def is_true(self) -> bool:
        return not self._literals

    def conjoin(self, literal: StateLiteral) -> Optional["StateGuard"]:
        """``self AND literal``, or None when contradictory."""
        if literal in self._literals:
            return self
        if self._clashes(literal):
            return None
        canonical = _guard_canonicalize(self._literals | {literal})
        if canonical == self._literals:
            return self
        return StateGuard._of_canonical(canonical)

    def conjoin_guard(self, other: "StateGuard") -> Optional["StateGuard"]:
        """``self AND other``, or None when contradictory.

        The partition-refinement inner loop: each of ``other``'s
        literals is classified against the cached positive map as a
        clash (contradictory pair -- the common case in a cross
        product), implied (subsumed by one of ours), or novel; nothing
        is allocated unless novel literals survive.
        """
        if other is self or not other._literals:
            return self
        lits = self._literals
        if not lits:
            return other
        pos = self._pos
        novel: Optional[List[StateLiteral]] = None
        novel_positive = False
        for l in other._literals:
            known = pos.get(l.component)
            if l.op == EQ:
                if known is not None:
                    if known != l.value:
                        return None  # state(m)=a AND state(m)=b
                    continue  # same positive: implied
                if StateLiteral(l.component, NE, l.value) in lits:
                    return None  # state(m)!=v AND state(m)=v
                novel_positive = True
            else:
                if known is not None:
                    if known == l.value:
                        return None  # state(m)=v AND state(m)!=v
                    continue  # implied by our positive
                if l in lits:
                    continue
            if novel is None:
                novel = [l]
            else:
                novel.append(l)
        if novel is None:
            return self  # other is fully subsumed
        merged = lits.union(novel)
        if novel_positive:
            # A new positive may subsume our negatives on its component;
            # re-canonicalize (and reuse `other` when that leaves
            # exactly its literals instead of building an equal guard).
            merged = _guard_canonicalize(merged)
            if merged == other._literals:
                return other
        return StateGuard._of_canonical(merged)

    def _clashes(self, literal: StateLiteral) -> bool:
        """Does one extra literal contradict this (consistent) guard?"""
        known = self._pos.get(literal.component)
        if literal.op == EQ:
            if known is not None and known != literal.value:
                return True
            return StateLiteral(literal.component, NE, literal.value) in self._literals
        return known == literal.value

    def holds(self, state: StateVector) -> bool:
        """Is the concrete state vector consistent with this guard?"""
        for l in self._literals:
            if (state[l.component] == l.value) != (l.op == EQ):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateGuard):
            return NotImplemented
        return self._literals == other._literals

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self._repr is None:
            if not self._literals:
                object.__setattr__(self, "_repr", "true")
            else:
                object.__setattr__(
                    self,
                    "_repr",
                    " & ".join(repr(l) for l in sorted(self._literals)),
                )
        return self._repr


def _guard_contradictory(literals: FrozenSet[StateLiteral]) -> bool:
    # Literal sets here are tiny (one entry per state test on a control
    # path); a flat scan beats building per-op value-set dicts.
    positives: Dict[int, int] = {}
    for l in literals:
        if l.op == EQ:
            known = positives.get(l.component)
            if known is not None and known != l.value:
                return True
            positives[l.component] = l.value
    if not positives:
        return False
    for l in literals:
        if l.op == NE and positives.get(l.component) == l.value:
            return True
    return False


def _guard_canonicalize(
    literals: FrozenSet[StateLiteral],
) -> FrozenSet[StateLiteral]:
    """Drop negative literals made redundant by a positive one."""
    positives = {l.component for l in literals if l.op == EQ}
    if not positives:
        return literals
    out = {
        l
        for l in literals
        # state(m)=v already implies state(m) != anything-else
        if l.op == EQ or l.component not in positives
    }
    return literals if len(out) == len(literals) else frozenset(out)


_TRUE_GUARD = StateGuard()


# ---------------------------------------------------------------------------
# Symbolic event extraction: Figure 6 over all states at once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardedEdge:
    """A symbolic ETS edge: fires at every source state satisfying
    ``guard``; the destination is ``vector_update(src, updates)``."""

    guard: StateGuard
    event: Event
    updates: Tuple[Tuple[int, int], ...]

    def __repr__(self) -> str:
        ups = ",".join(f"state({m})<-{n}" for m, n in self.updates)
        return f"[{self.guard!r}] --{self.event!r}--> <{ups}>"


GuardedFormula = Tuple[StateGuard, Formula]


@dataclass(frozen=True)
class SymbolicExtract:
    """The guarded pair ``(D, P)``: Figure 6's result for every state.

    Restricting to the items whose guard a concrete state satisfies
    yields exactly ``extract(p, state)`` (see
    :meth:`SymbolicProgram.edges_at` / :meth:`.formulas_at`).
    """

    edges: FrozenSet[GuardedEdge]
    formulas: FrozenSet[GuardedFormula]

    @staticmethod
    def of(guard: StateGuard, phi: Optional[Formula]) -> "SymbolicExtract":
        if phi is None:
            return _EMPTY
        return SymbolicExtract(frozenset(), frozenset(((guard, phi),)))

    def join(self, other: "SymbolicExtract") -> "SymbolicExtract":
        """Pointwise union (the figure's ⊔, guard-indexed)."""
        if not self.edges and not self.formulas:
            return other
        if not other.edges and not other.formulas:
            return self
        return SymbolicExtract(
            self.edges | other.edges, self.formulas | other.formulas
        )


_EMPTY = SymbolicExtract(frozenset(), frozenset())


def symbolic_extract(p: Policy) -> SymbolicExtract:
    """Compute ``⟬p⟭~k true`` for every ``~k`` in one walk.

    The walk is :func:`repro.stateful.events.extract` with the fixed
    concrete state replaced by a threaded :class:`StateGuard`: a state
    test refines the guard (both outcomes stay live, each under its own
    constraint) instead of resolving to keep/drop.  Memoized per call on
    ``(id(subterm), guard, phi)``, the guarded analogue of the concrete
    walk's ``(id(subterm), phi)`` key.
    """
    return _sx(p, _TRUE_GUARD, Formula.true(), {})


def _sx(p: Policy, guard: StateGuard, phi: Formula, memo: dict) -> SymbolicExtract:
    key = (id(p), guard, phi)
    result = memo.get(key)
    if result is not None:
        return result
    # Dispatch ordered like the concrete walk (observed frequency).
    if isinstance(p, Seq):
        result = _sx_kleisli(p.left, p.right, guard, phi, memo)
    elif isinstance(p, Filter):
        result = _sx_predicate(p.predicate, guard, phi, positive=True)
    elif isinstance(p, Union):
        result = _sx(p.left, guard, phi, memo).join(
            _sx(p.right, guard, phi, memo)
        )
    elif isinstance(p, Assign):
        if p.field in (SW, PT):
            result = SymbolicExtract.of(guard, phi)
        else:
            updated = phi.without_field(p.field).conjoin(
                Literal(p.field, EQ, p.value)
            )
            result = SymbolicExtract.of(guard, updated)
    elif isinstance(p, LinkUpdate):
        event = Event(phi, p.dst)
        edge = GuardedEdge(guard, event, p.updates)
        result = SymbolicExtract(frozenset((edge,)), frozenset(((guard, phi),)))
    elif isinstance(p, Link):
        result = SymbolicExtract.of(guard, phi)
    elif isinstance(p, Star):
        result = _sx_star(p.operand, guard, phi, memo)
    elif isinstance(p, Dup):
        result = SymbolicExtract.of(guard, phi)
    else:
        raise TypeError(f"not a stateful policy: {p!r}")
    memo[key] = result
    return result


def _sx_kleisli(
    left: Policy, right: Policy, guard: StateGuard, phi: Formula, memo: dict
) -> SymbolicExtract:
    """``(⟬left⟭ ‚ ⟬right⟭) phi`` -- thread each guarded formula through
    right, under the guard it was produced with."""
    first = _sx(left, guard, phi, memo)
    if not first.formulas:
        # Nothing to thread (e.g. a state guard refined to contradiction).
        return first
    if len(first.formulas) == 1:
        ((g1, psi),) = first.formulas
        threaded = _sx(right, g1, psi, memo)
        if not first.edges:
            return threaded
        return SymbolicExtract(first.edges | threaded.edges, threaded.formulas)
    edges = set(first.edges)
    formulas: set = set()
    for g1, psi in first.formulas:
        threaded = _sx(right, g1, psi, memo)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return SymbolicExtract(frozenset(edges), frozenset(formulas))


def _sx_star(
    body: Policy, guard: StateGuard, phi: Formula, memo: dict
) -> SymbolicExtract:
    """``⟬p*⟭ phi = ⊔_j F_p^j(phi)`` iterated to a guarded fixpoint.

    Each iterate unfolds every frontier pair under its own guard; the
    loop runs until the *global* fixpoint, which restricted to any
    single consistent state is the concrete per-state fixpoint (extra
    global iterations re-derive pairs a state's walk already holds, so
    they never change that state's restriction).
    """
    total = SymbolicExtract.of(guard, phi)
    frontier: FrozenSet[GuardedFormula] = frozenset(((guard, phi),))
    for _ in range(STAR_EXTRACT_FUEL):
        step_edges: set = set()
        step_formulas: set = set()
        for g1, psi in frontier:
            unfolded = _sx(body, g1, psi, memo)
            step_edges.update(unfolded.edges)
            step_formulas.update(unfolded.formulas)
        step = SymbolicExtract(frozenset(step_edges), frozenset(step_formulas))
        new_total = total.join(step)
        new_frontier = step.formulas - total.formulas
        if new_total == total and not new_frontier:
            return total
        total = new_total
        frontier = step.formulas
        if not frontier:
            return total
    raise RuntimeError(
        f"symbolic event extraction for p* did not converge in "
        f"{STAR_EXTRACT_FUEL} steps"
    )


def _sx_predicate(
    a: Predicate, guard: StateGuard, phi: Formula, positive: bool
) -> SymbolicExtract:
    """Extract from a test, with negation pushed down to literals."""
    if isinstance(a, PTrue):
        return SymbolicExtract.of(guard, phi) if positive else _EMPTY
    if isinstance(a, PFalse):
        return _EMPTY if positive else SymbolicExtract.of(guard, phi)
    if isinstance(a, Test):
        if a.field in (SW, PT):
            # Location tests never refine the event guard (Figure 6).
            return SymbolicExtract.of(guard, phi)
        op = EQ if positive else NE
        return SymbolicExtract.of(guard, phi.conjoin(Literal(a.field, op, a.value)))
    if isinstance(a, StateTest):
        # The symbolic core: instead of resolving against ~k, constrain
        # the symbolic state.  A contradictory refinement is the guarded
        # spelling of the concrete walk's dropped branch.
        op = EQ if positive else NE
        refined = guard.conjoin(StateLiteral(a.component, op, a.value))
        if refined is None:
            return _EMPTY
        return SymbolicExtract.of(refined, phi)
    if isinstance(a, Neg):
        return _sx_predicate(a.operand, guard, phi, not positive)
    if isinstance(a, Conj):
        if positive:
            return _sx_pred_seq(a.left, a.right, guard, phi, True, True)
        # not (a and b) = (not a) or (not b)
        return _sx_predicate(a.left, guard, phi, False).join(
            _sx_predicate(a.right, guard, phi, False)
        )
    if isinstance(a, Disj):
        if positive:
            return _sx_predicate(a.left, guard, phi, True).join(
                _sx_predicate(a.right, guard, phi, True)
            )
        # not (a or b) = (not a) and (not b)
        return _sx_pred_seq(a.left, a.right, guard, phi, False, False)
    raise TypeError(f"not a predicate: {a!r}")


def _sx_pred_seq(
    left: Predicate,
    right: Predicate,
    guard: StateGuard,
    phi: Formula,
    left_positive: bool,
    right_positive: bool,
) -> SymbolicExtract:
    """Conjunction as sequencing: thread left's guarded formulas through
    right."""
    first = _sx_predicate(left, guard, phi, left_positive)
    edges = set(first.edges)
    formulas: set = set()
    for g1, psi in first.formulas:
        threaded = _sx_predicate(right, g1, psi, right_positive)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return SymbolicExtract(frozenset(edges), frozenset(formulas))


# ---------------------------------------------------------------------------
# Symbolic projection: Figure 5 over all states at once
# ---------------------------------------------------------------------------

GuardedCells = Tuple[Tuple[StateGuard, Policy], ...]


def symbolic_project(p: Policy) -> GuardedCells:
    """Partition the state space into guard cells, each carrying the
    configuration ``⟦p⟧~k`` shared by every state in the cell.

    The cells are pairwise disjoint and cover every state vector, so
    :meth:`SymbolicProgram.configuration_at` is a unique-match lookup.
    Each cell's policy is built by the *same* smart-constructor calls
    the per-state walk makes (including its short-circuits: a false
    conjunct kills its conjunction, a drop kills its sequence), so it is
    structurally identical to ``project(p, state)``.
    """
    return _sp(p, {})


def _sp(p: Policy, memo: dict) -> GuardedCells:
    if not uses_state(p):
        # State-free subtrees project to themselves under every state.
        return ((_TRUE_GUARD, p),)
    key = id(p)
    cells = memo.get(key)
    if cells is not None:
        return cells
    if isinstance(p, LinkUpdate):
        cells = ((_TRUE_GUARD, Link(p.src, p.dst)),)
    elif isinstance(p, Filter):
        cells = tuple(
            (g, Filter(a)) for g, a in _sp_predicate(p.predicate, memo)
        )
    elif isinstance(p, Union):
        cells = _sp_combine(_sp(p.left, memo), _sp(p.right, memo), union)
    elif isinstance(p, Seq):
        out: List[Tuple[StateGuard, Policy]] = []
        for g, left in _sp(p.left, memo):
            if isinstance(left, Filter) and isinstance(left.predicate, PFalse):
                # drop ; q = drop: a resolved-false state guard kills its
                # whole segment without touching the body's cells.
                out.append((g, DROP))
                continue
            for g2, right in _sp(p.right, memo):
                refined = g.conjoin_guard(g2)
                if refined is not None:
                    out.append((refined, seq(left, right)))
        cells = tuple(out)
    elif isinstance(p, Star):
        cells = tuple((g, star(q)) for g, q in _sp(p.operand, memo))
    else:
        cells = ((_TRUE_GUARD, p),)  # assignments, dup, plain links
    memo[key] = cells
    return cells


def _sp_predicate(
    a: Predicate, memo: dict
) -> Tuple[Tuple[StateGuard, Predicate], ...]:
    if not uses_state(a):
        return ((_TRUE_GUARD, a),)
    key = ("pred", id(a))
    cells = memo.get(key)
    if cells is not None:
        return cells
    if isinstance(a, StateTest):
        cells = (
            (StateGuard((StateLiteral(a.component, EQ, a.value),)), TRUE),
            (StateGuard((StateLiteral(a.component, NE, a.value),)), FALSE),
        )
    elif isinstance(a, Neg):
        cells = tuple((g, neg(x)) for g, x in _sp_predicate(a.operand, memo))
    elif isinstance(a, Conj):
        out: List[Tuple[StateGuard, Predicate]] = []
        for g, left in _sp_predicate(a.left, memo):
            if isinstance(left, PFalse):
                out.append((g, FALSE))  # false AND b = false
                continue
            for g2, right in _sp_predicate(a.right, memo):
                refined = g.conjoin_guard(g2)
                if refined is not None:
                    out.append((refined, conj(left, right)))
        cells = tuple(out)
    elif isinstance(a, Disj):
        out = []
        for g, left in _sp_predicate(a.left, memo):
            if isinstance(left, PTrue):
                out.append((g, TRUE))  # true OR b = true
                continue
            for g2, right in _sp_predicate(a.right, memo):
                refined = g.conjoin_guard(g2)
                if refined is not None:
                    out.append((refined, disj(left, right)))
        cells = tuple(out)
    else:
        cells = ((_TRUE_GUARD, a),)  # true / false / field tests
    memo[key] = cells
    return cells


def _sp_combine(
    left: GuardedCells, right: GuardedCells, combine
) -> GuardedCells:
    """Refine two partitions, combining the policies of each consistent
    intersection (contradictory intersections are empty cells)."""
    out: List[Tuple[StateGuard, Policy]] = []
    for g, lp in left:
        for g2, rp in right:
            refined = g.conjoin_guard(g2)
            if refined is not None:
                out.append((refined, combine(lp, rp)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Delta blast radius: which guards changed between two partial evaluations
# ---------------------------------------------------------------------------


def changed_edge_guards(
    old: SymbolicExtract, new: SymbolicExtract
) -> FrozenSet[StateGuard]:
    """Guards of the guarded edges present in exactly one extraction.

    A concrete state satisfying none of them has identical edge sets
    under both extractions: the edges whose guards hold at it are the
    *same* members of ``old.edges & new.edges`` either way.  This is the
    edge half of a delta's blast radius
    (:meth:`repro.pipeline.Pipeline.update`): states outside it can keep
    their previously instantiated :class:`~repro.stateful.events.EventEdge`\\ s.
    """
    return frozenset(ge.guard for ge in old.edges ^ new.edges)


def changed_cell_guards(
    old: GuardedCells, new: GuardedCells
) -> FrozenSet[StateGuard]:
    """Guards whose projection cell differs between two partitions.

    A guard counts as changed when it carries a different policy in the
    two partitions or exists in only one of them.  Cells are pairwise
    disjoint, so a state satisfying no changed guard matches the same
    guard in both partitions — first-occurrence wins for the (never
    produced, but tolerated) duplicate-guard case, mirroring the scan in
    :meth:`SymbolicProgram.configuration_at` — and that guard's policy
    is equal on both sides.  When the partitions differ in *shape*
    (a delta split or merged cells), the new guards are reported as
    changed wholesale: conservative, never unsound.
    """
    old_cells: Dict[StateGuard, Policy] = {}
    for g, policy in old:
        old_cells.setdefault(g, policy)
    new_cells: Dict[StateGuard, Policy] = {}
    for g, policy in new:
        new_cells.setdefault(g, policy)
    changed = set()
    for g, policy in new_cells.items():
        previous = old_cells.get(g)
        if previous is None or not (previous is policy or previous == policy):
            changed.add(g)
    for g in old_cells:
        if g not in new_cells:
            changed.add(g)
    return frozenset(changed)


# ---------------------------------------------------------------------------
# The façade: one partial evaluation, many cheap instantiations
# ---------------------------------------------------------------------------


class SymbolicProgram:
    """A Stateful NetKAT program partially evaluated over all states.

    Built once per :func:`repro.stateful.ets.build_ets` call (the
    pipeline times this as the ``ets.symbolic`` sub-stage); the
    per-state accessors are guard filters over the shared structures
    (the ``ets.instantiate`` sub-stage).
    """

    def __init__(self, program: Policy):
        self.program = program
        self.extraction = symbolic_extract(program)
        self.cells = symbolic_project(program)

    def edges_at(self, state: StateVector) -> FrozenSet[EventEdge]:
        """``fst(⟬p⟭~k true)``: the concrete event edges out of ``state``."""
        return frozenset(
            EventEdge(state, ge.event, vector_update(state, ge.updates))
            for ge in self.extraction.edges
            if ge.guard.holds(state)
        )

    def formulas_at(self, state: StateVector) -> FrozenSet[Formula]:
        """``snd(⟬p⟭~k true)``: the concrete path formulas at ``state``."""
        return frozenset(
            phi for g, phi in self.extraction.formulas if g.holds(state)
        )

    def configuration_at(self, state: StateVector) -> Policy:
        """``⟦p⟧~k``: the configuration policy at ``state``."""
        for g, policy in self.cells:
            if g.holds(state):
                return policy
        raise RuntimeError(  # pragma: no cover - the cells cover all states
            f"no projection cell covers state {state}"
        )

    def __repr__(self) -> str:
        return (
            f"SymbolicProgram({len(self.extraction.edges)} guarded edges, "
            f"{len(self.extraction.formulas)} guarded formulas, "
            f"{len(self.cells)} projection cells)"
        )
