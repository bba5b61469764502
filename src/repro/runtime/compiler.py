"""The implementation pipeline of section 4: NES -> deployable artifacts.

Five steps (section 1, "Implementing Network Programs"):

1. encode the event-sets of the NES as flat integer tags;
2. compile each configuration to per-switch flow tables;
3. guard each configuration's rules with its tag;
4. stamp incoming packets with the tag of the current event-set;
5. learn events from packet digests and forward them onward.

Steps 1-3 are realized here.  Steps 4-5 are the switch-local behavior of
the operational semantics (:mod:`repro.runtime.semantics`), which the
paper likewise folds into the runtime (the IN and SWITCH rules); their
rule-space cost is accounted for by :meth:`CompiledNES.stamp_rule_count`
so total rule counts include them.
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .. import faults
from ..events.event import Event, EventSet
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..events.locality import is_locally_determined, locality_violations
from ..events.nes import NES
from ..netkat.compiler import Configuration, compile_policy
from ..netkat.fdd import FDDBuilder
from ..netkat.flowtable import FlowTable, Match, Rule
from ..stateful.ast import StateVector
from ..topology import Topology

__all__ = ["TAG_FIELD", "CompiledNES", "LocalityError", "compile_nes"]

# The packet metadata field carrying the configuration tag in deployed
# (guarded) tables; a single unused header field, as section 4.1 argues.
TAG_FIELD = "tag"

def _default_options():
    # Imported lazily: repro.pipeline imports this module at load time.
    from ..pipeline import CompileOptions

    return CompileOptions()


def _pipeline_errors():
    # Imported lazily for the same reason.
    from ..pipeline import PipelineError, StageError

    return PipelineError, StageError


# Deterministic exponential backoff between per-configuration retry
# attempts: no jitter (chaos runs must replay), capped so an exhausted
# retry budget costs milliseconds, not seconds.
_BACKOFF_BASE_SECONDS = 0.001
_BACKOFF_CAP_SECONDS = 0.05


def _backoff_delay(attempt: int) -> float:
    return min(_BACKOFF_BASE_SECONDS * (2 ** attempt), _BACKOFF_CAP_SECONDS)


def _compile_configurations(
    nes: NES,
    topology: Topology,
    states: Tuple[StateVector, ...],
    builder: FDDBuilder,
    options,
    shard: bool,
    health: Optional[Dict[str, int]] = None,
    reuse: Optional[Mapping[StateVector, Configuration]] = None,
) -> Dict[StateVector, Configuration]:
    """Compile every configuration, optionally sharded across threads.

    The per-state compiles are independent (the ROADMAP scale axis), so
    the thread backend fans them out over a pool with one private
    :class:`FDDBuilder` per worker thread -- builders are not
    thread-safe, and compiled tables are a pure function of the policy
    and field order, never of builder memo warmth, so private builders
    keep the output byte-identical to the serial path.  Results are
    gathered in configuration-state order (``executor.map`` preserves
    input order), so iteration order is deterministic too.

    ``reuse`` maps states to already-compiled configurations that are
    adopted as-is (the incremental-recompilation seam:
    :meth:`repro.pipeline.Pipeline.update` passes the unaffected
    configurations of the pre-delta artifact).  Because tables are a
    pure function of (policy, topology, field order), a reused
    configuration is byte-identical to what a fresh compile would
    produce — the caller is responsible for only offering entries whose
    policy and topology are unchanged.  The result dict is built in
    ``states`` order regardless, so reuse never perturbs iteration (or
    pickle) order.

    Failure discipline (the fault-tolerance layer):

    - every per-configuration attempt passes the ``executor.worker``
      fault site and is retried up to ``options.compile_retries`` times
      with deterministic backoff (counted in ``health``);
    - ``options.deadline_seconds`` bounds the stage wall clock,
      checked between attempts (one configuration is never preempted);
    - a thread pool whose worker fails irrecoverably degrades to the
      serial path (counted as ``executor.fallback_serial``) — the
      output is byte-identical by construction, so degradation is
      invisible outside ``health``;
    - a failure that survives retry *and* degradation surfaces as a
      typed :class:`~repro.pipeline.StageError` with stage provenance,
      never as a bare worker exception.
    """
    PipelineError, StageError = _pipeline_errors()
    health = health if health is not None else {}

    def count(counter: str) -> None:
        obs_metrics.count_health(health, counter)

    reuse = reuse if reuse is not None else {}
    pending: Tuple[StateVector, ...] = tuple(
        state for state in states if state not in reuse
    )

    def assemble(fresh: Mapping[StateVector, Configuration]):
        # States order, whatever mix of reused/fresh produced the parts.
        return {
            state: reuse[state] if state in reuse else fresh[state]
            for state in states
        }

    retries = options.compile_retries
    deadline = (
        time.monotonic() + options.deadline_seconds
        if options.deadline_seconds is not None
        else None
    )

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise StageError(
                "compile",
                f"deadline_seconds={options.deadline_seconds} exceeded "
                f"with {len(pending)} configuration(s) in flight",
            )

    def compile_with(b: FDDBuilder, state: StateVector) -> Configuration:
        attempt = 0
        while True:
            check_deadline()
            try:
                with obs_trace.span(
                    "compile.configuration",
                    configuration=f"C{list(state)}",
                    attempt=attempt,
                ):
                    faults.check("executor.worker")
                    return compile_policy(
                        nes.configuration_policy(state),
                        topology,
                        builder=b,
                        name=f"C{list(state)}",
                        max_frontier=options.max_frontier,
                    )
            except PipelineError:
                raise  # typed failures (e.g. deadline) are not transient
            except Exception:
                if attempt >= retries:
                    raise
                count("executor.retries")
                with obs_trace.span("compile.backoff", attempt=attempt):
                    time.sleep(_backoff_delay(attempt))
                attempt += 1

    if shard and options.backend == "thread" and len(pending) > 1:
        try:
            local = threading.local()
            # ThreadPoolExecutor workers run in the pool thread's empty
            # context, so the submitting stage's span does not propagate
            # by itself; capture it here and re-attach per work item.
            trace_parent = obs_trace.current()

            def worker(state: StateVector) -> Configuration:
                worker_builder = getattr(local, "builder", None)
                if worker_builder is None:
                    worker_builder = options.make_builder()
                    local.builder = worker_builder
                with obs_trace.attach(trace_parent):
                    return compile_with(worker_builder, state)

            with ThreadPoolExecutor(max_workers=options.max_workers) as pool:
                configs = list(pool.map(worker, pending))
            return assemble(dict(zip(pending, configs)))
        except PipelineError:
            raise  # a deadline miss would only recur serially
        except Exception as exc:
            # The pool (or a worker, beyond its retry budget) failed
            # irrecoverably: degrade to the serial path, which produces
            # byte-identical tables.  Counted and warned, never silent.
            count("executor.fallback_serial")
            warnings.warn(
                f"thread backend failed ({exc!r}); degrading to the "
                "serial executor for this compile",
                RuntimeWarning,
                stacklevel=3,
            )

    out: Dict[StateVector, Configuration] = {}
    for state in pending:
        try:
            out[state] = compile_with(builder, state)
        except PipelineError:
            raise
        except Exception as exc:
            raise StageError(
                "compile",
                f"configuration C{list(state)} failed after "
                f"{retries + 1} attempt(s): {exc!r}",
            ) from exc
    return assemble(out)


class LocalityError(Exception):
    """The NES is not locally determined, so it cannot be implemented
    without synchronization or buffering (Lemma 1)."""


class CompiledNES:
    """An NES compiled to tags, per-state configurations, and guarded tables."""

    def __init__(
        self,
        nes: NES,
        topology: Topology,
        builder: Optional[FDDBuilder] = None,
        options=None,
        health: Optional[Dict[str, int]] = None,
        reuse_configurations: Optional[
            Mapping[StateVector, Configuration]
        ] = None,
    ):
        """Compile ``nes`` over ``topology`` under ``options``.

        ``options`` is a :class:`repro.pipeline.CompileOptions` (default
        constructed when omitted).  With ``options.backend == "thread"``
        the independent per-configuration compiles are sharded across a
        thread pool; passing an explicit ``builder`` forces the serial
        path, because a caller-owned builder cannot be shared across
        worker threads.  The options ride along so ``compiled.options``
        records the full configuration the artifact was produced under
        (and the artifact cache keys on them).

        ``health`` is an optional counter dict (the pipeline passes its
        own) that the executor's retry/degradation bookkeeping
        increments; it is observed during construction only and never
        stored on the instance (artifacts stay health-free).

        ``reuse_configurations`` maps states to already-compiled
        configurations adopted without recompiling (see
        :func:`_compile_configurations`); entries for states this NES
        does not have are ignored.  Callers must only offer entries
        whose policy and topology are unchanged — tables are a pure
        function of those, so adopted entries are byte-identical to a
        fresh compile.
        """
        if options is None:
            options = _default_options()
        self.options = options
        self.nes = nes
        self.topology = topology
        self._builder = builder or options.make_builder()
        # Merged-table memo, keyed per tag field (one slot per options
        # variant a caller has asked for, never a single shared slot).
        self._guarded_tables: Dict[str, Dict[int, FlowTable]] = {}

        # Step 1: flat integer encodings.
        self.states: Tuple[StateVector, ...] = nes.configuration_states()
        self.config_ids: Dict[StateVector, int] = {
            state: i for i, state in enumerate(self.states)
        }
        self.event_sets: Tuple[EventSet, ...] = tuple(
            sorted(nes.event_sets(), key=lambda s: (len(s), sorted(map(repr, s))))
        )
        self.event_set_ids: Dict[EventSet, int] = {
            s: i for i, s in enumerate(self.event_sets)
        }
        # Digest bits reuse the event structure's interning (also sorted
        # by repr), so digests and the locality engine agree bit-for-bit.
        self.event_bits: Dict[Event, int] = dict(nes.structure.event_index)

        # Step 2: compile every configuration (sharded when the options
        # select the thread backend and no caller-owned builder pins us
        # to the serial path).
        self.configurations: Dict[StateVector, Configuration] = (
            _compile_configurations(
                nes, topology, self.states, self._builder, options,
                shard=builder is None, health=health,
                reuse=reuse_configurations,
            )
        )

    # -- tag and digest encodings ----------------------------------------------

    def tag_of_event_set(self, event_set: Iterable[Event]) -> int:
        """The configuration tag stamped on packets entering at this event-set."""
        return self.config_ids[self.nes.state_of(frozenset(event_set))]

    def encode_digest(self, events: Iterable[Event]) -> int:
        """Event-set as a bitmask -- the packet digest wire format."""
        return self.nes.structure.encode(events)

    def decode_digest(self, mask: int) -> EventSet:
        return self.nes.structure.decode(mask)

    # -- configuration access ---------------------------------------------------

    def config_for_state(self, state: StateVector) -> Configuration:
        return self.configurations[state]

    def config_for_event_set(self, event_set: Iterable[Event]) -> Configuration:
        return self.configurations[self.nes.state_of(frozenset(event_set))]

    # -- step 3: guarded merged tables ------------------------------------------

    def guarded_tables(self, tag_field: Optional[str] = None) -> Dict[int, FlowTable]:
        """One deployable table per switch: every configuration's rules,
        each guarded by its configuration tag in ``tag_field`` (default:
        ``options.tag_field``).

        Priorities are partitioned per configuration; tags make the
        partitions disjoint, so relative priorities within each
        configuration are preserved.

        The merged tables are memoized (``forwarding_rule_count``, repr,
        and the runtime all re-derive them) *per tag field*: a single
        memo slot would hand the tables of whichever variant was
        computed first to every later caller.  A fresh dict over the
        immutable :class:`FlowTable` values is returned each call, so
        callers may mutate the mapping without corrupting the cache.  Use
        :meth:`invalidate_guarded_tables` after replacing a
        configuration in ``self.configurations``.
        """
        field_name = tag_field if tag_field is not None else self.options.tag_field
        memo = self._guarded_tables.get(field_name)
        if memo is None:
            tables: Dict[int, List[Rule]] = {n: [] for n in self.topology.switches}
            for state in self.states:
                config_id = self.config_ids[state]
                config = self.configurations[state]
                for switch, table in config.tables.items():
                    for rule in table:
                        guarded_match = rule.match.guarded(field_name, config_id)
                        tables.setdefault(switch, []).append(
                            Rule(rule.priority, guarded_match, rule.actions)
                        )
            memo = {n: FlowTable(rules) for n, rules in tables.items()}
            self._guarded_tables[field_name] = memo
        return dict(memo)

    def invalidate_guarded_tables(self) -> None:
        """Drop every memoized merged-table variant (rebuilt on access)."""
        self._guarded_tables.clear()

    # -- persistence ------------------------------------------------------------

    def __getstate__(self):
        """Pickle without the merged-table memo or the builder.

        The pipeline's artifact cache persists compiled NESs; shipping
        the derived tables would bloat artifacts and could resurrect
        tables a caller had explicitly invalidated.  The builder is
        dropped too: its ``of_policy``/``of_predicate`` memos are keyed
        by ``id()`` of AST nodes from the storing process, which after
        unpickling are stale addresses a fresh object could collide
        with — a loaded artifact gets a fresh builder instead.
        """
        state = dict(self.__dict__)
        state["_guarded_tables"] = {}
        state["_builder"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._builder is None:
            self._builder = self.options.make_builder()

    def forwarding_rule_count(self) -> int:
        """Rules in the guarded merged tables (steps 1-3)."""
        return sum(len(t) for t in self.guarded_tables().values())

    def config_rule_count(self) -> int:
        """Forwarding rules summed per configuration, without forcing
        the guarded merge.

        The merge keeps exactly one rule per (configuration, rule), so
        this equals :meth:`forwarding_rule_count` — but stays cheap and
        total (the merge raises on a colliding tag field); repr and
        :meth:`Pipeline.report` use it to remain plain observers.
        """
        return sum(
            len(table)
            for config in self.configurations.values()
            for table in config.tables.values()
        )

    def stamp_rule_count(self) -> int:
        """Rules implementing ingress stamping (step 4).

        One rule per host-facing port per configuration tag: "if the
        local register maps to tag j, set tag <- j on packets entering
        this port".
        """
        return len(self.topology.edge_locations()) * len(self.states)

    def total_rule_count(self) -> int:
        """The §5.1 metric: forwarding + stamping rules."""
        return self.forwarding_rule_count() + self.stamp_rule_count()

    # -- per-configuration rule view (input to the §5.3 optimizer) --------------

    def rules_by_configuration(self, switch: int) -> Dict[int, FrozenSet[Rule]]:
        """Unguarded rule sets per configuration ID at one switch."""
        out: Dict[int, FrozenSet[Rule]] = {}
        for state in self.states:
            config_id = self.config_ids[state]
            out[config_id] = frozenset(self.configurations[state].table(switch).rules)
        return out

    def __repr__(self) -> str:
        return (
            f"CompiledNES({len(self.states)} configurations, "
            f"{len(self.nes.events)} events, "
            f"{self.config_rule_count() + self.stamp_rule_count()} rules)"
        )


def compile_nes(
    nes: NES,
    topology: Topology,
    builder: Optional[FDDBuilder] = None,
    enforce_locality: Optional[bool] = None,
    options=None,
    health: Optional[Dict[str, int]] = None,
    reuse_configurations: Optional[Mapping[StateVector, Configuration]] = None,
) -> CompiledNES:
    """Compile an NES, first checking the locally-determined condition.

    Implementations of non-locally-determined NESs must synchronize or
    buffer (Lemma 1), which this runtime does not do -- so by default
    compilation refuses them.  ``options`` is a
    :class:`repro.pipeline.CompileOptions`; ``enforce_locality=`` as a
    direct keyword overrides its field.  ``reuse_configurations`` is the
    incremental-recompilation seam of :class:`CompiledNES`.
    """
    if options is None:
        options = _default_options()
    if enforce_locality is not None:
        options = options.replace(enforce_locality=enforce_locality)
    if options.enforce_locality:
        violations = locality_violations(nes)
        if violations:
            sample = next(iter(violations))
            raise LocalityError(
                "NES is not locally determined: the minimally-inconsistent "
                f"set {set(sample)} spans multiple switches "
                f"({len(violations)} violation(s) total)"
            )
    return CompiledNES(
        nes, topology, builder=builder, options=options, health=health,
        reuse_configurations=reuse_configurations,
    )
