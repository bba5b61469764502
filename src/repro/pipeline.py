"""The staged compilation pipeline: program -> ETS -> NES -> flow tables.

The paper's toolchain (Figure 7) is a fixed sequence of stages; this
module is its single front door.  :class:`CompileOptions` consolidates
every compiler/cache setting in one validated, frozen place, and
:class:`Pipeline` exposes the staged artifacts (:attr:`Pipeline.ets`,
:attr:`Pipeline.nes`, :attr:`Pipeline.compiled`) lazily, with per-stage
wall-clock timings and stats available via :meth:`Pipeline.report`.

Two scale axes hang off the options:

- ``backend`` shards the independent per-configuration
  ``compile_policy`` calls across an executor (``"serial"`` or
  ``"thread"``); results are gathered in configuration-state order, so
  the produced tables are byte-identical across backends.
- ``cache_dir`` enables a content-addressed on-disk artifact cache: the
  key is a SHA-256 digest of the program AST, the topology, the initial
  state, every output-affecting option, and the package version (see
  :meth:`Pipeline.artifact_key`), so a repeated
  :class:`Pipeline`/``App`` construction
  skips the ETS/NES/compile stages entirely and unpickles the
  :class:`~repro.runtime.compiler.CompiledNES` directly.

Execution-only knobs (``backend``, ``max_workers``, ``cache_dir``) are
deliberately excluded from the cache key: they cannot change the
artifact bytes (the golden tests in ``tests/test_pipeline.py`` pin
this), so serial and threaded runs share cache entries.

The rule for future knobs: any new execution or output setting lands
as a :class:`CompileOptions` field (not a loose keyword argument).  A
faster algorithm is not a knob: it replaces the production path, and
the path it replaces lives on as a test oracle (``tests/oracles/``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from . import faults
from .events.ets_to_nes import nes_of_ets
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .events.nes import NES
from .netkat import ast as _ast
from .netkat.ast import Policy
from .netkat.fdd import DEFAULT_FIELD_ORDER, FDDBuilder, FieldOrder
from .runtime.compiler import TAG_FIELD, CompiledNES, compile_nes
from .stateful.ast import StateVector, vector_update
from .stateful.ets import ETS, build_ets
from .stateful.symbolic import (
    StateGuard,
    SymbolicProgram,
    changed_cell_guards,
    changed_edge_guards,
)
from .topology import Topology

__all__ = [
    "BACKENDS",
    "CompileOptions",
    "Delta",
    "Pipeline",
    "PipelineReport",
    "ArtifactCache",
    "ArtifactCacheWarning",
    "ArtifactIntegrityError",
    "PipelineError",
    "StageError",
    "compile_app",
]

# Executor backends for the per-configuration compile fan-out.  A
# "process" backend is the designed next step (same seam: deterministic
# state-ordered gather); it needs picklable compile closures, not a new
# API.
BACKENDS: Tuple[str, ...] = ("serial", "thread")

# Bump when the pickled artifact layout changes incompatibly; old cache
# entries then miss instead of unpickling garbage.  Format 2 added the
# optional HMAC-SHA256 signing envelope (see ArtifactCache); format 3
# dropped the fast-vs-reference knobs from the options fingerprint.
ARTIFACT_FORMAT = 3

# Options that select *how* the pipeline executes, never *what* it
# produces; they are excluded from the artifact cache key.  The
# fault-tolerance knobs all live here: retry/deadline/degradation and
# cache signing change how (and whether) an artifact is obtained, never
# its bytes — the chaos suite pins that.
_EXECUTION_ONLY_FIELDS = frozenset(
    {
        "backend",
        "max_workers",
        "cache_dir",
        "cache_hmac_key",
        "strict_cache",
        "compile_retries",
        "deadline_seconds",
    }
)

# Environment fallback for CompileOptions.cache_hmac_key, so a fleet can
# be keyed without threading the secret through every construction site.
CACHE_HMAC_KEY_ENV = "REPRO_CACHE_HMAC_KEY"


class PipelineError(Exception):
    """Base for typed pipeline failures; ``stage`` names the provenance
    (``"ets"`` / ``"nes"`` / ``"compile"`` / ``"cache"``)."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class StageError(PipelineError):
    """A pipeline stage failed irrecoverably (after any retry and
    backend degradation the options allow)."""


class ArtifactIntegrityError(PipelineError):
    """A cached artifact failed HMAC verification under
    ``strict_cache=True``.  Never raised in the default lenient mode,
    where a bad artifact is a recorded miss + quarantine instead."""

    def __init__(self, message: str):
        super().__init__("cache", message)


class ArtifactCacheWarning(UserWarning):
    """A cache failure was absorbed (the cache is an accelerator, never
    a gate); the warning carries the cause that used to be swallowed
    silently."""


@dataclass(frozen=True)
class CompileOptions:
    """Every compiler/cache setting, in one validated place.

    Output-affecting settings (everything except the execution-only
    fields: ``backend``, ``max_workers``, ``cache_dir`` and the
    fault-tolerance settings) participate in the artifact cache key
    (see module docstring).

    - ``backend``: ``"serial"`` compiles configurations one by one on a
      single shared :class:`FDDBuilder`; ``"thread"`` shards them across
      a thread pool with one builder per worker thread (builders are not
      thread-safe), gathering results in state order.
    - ``max_workers``: thread-pool width (``None`` = executor default).
    - ``cache_dir``: directory for the persistent artifact cache;
      ``None`` (the default) disables it.
    - ``cache_hmac_key``: key (str/bytes) for HMAC-SHA256 signing of
      cache artifacts; falls back to the ``REPRO_CACHE_HMAC_KEY``
      environment variable, and ``None`` with no env var keeps the
      legacy unsigned format.  With a key, stored artifacts carry a
      signature envelope and loads verify it — a mismatching or
      unsigned entry is rejected (recorded miss + quarantine).
    - ``strict_cache``: escalate an integrity rejection from a recorded
      miss to a hard :class:`ArtifactIntegrityError` (for deployments
      where silently recompiling over a tampered cache is itself a
      signal worth stopping on).
    - ``compile_retries``: per-configuration compile attempts beyond the
      first (deterministic exponential backoff between attempts); ``0``
      disables retry.
    - ``deadline_seconds``: wall-clock budget for the compile stage,
      checked between per-configuration compiles (cooperative — one
      configuration is never preempted); exceeded → :class:`StageError`.
    - ``field_order``: FDD branch-ordering precedence (``sw``/``pt``
      first keeps per-switch extraction cheap).
    - ``enforce_locality``: refuse NESs that are not locally determined
      (Lemma 1) instead of compiling them anyway.
    - ``tag_field``: the packet metadata field guarding merged tables.
    - ``max_frontier``: symbolic-knowledge frontier bound per hop.
    """

    backend: str = "serial"
    max_workers: Optional[int] = None
    cache_dir: Optional[Union[str, Path]] = None
    cache_hmac_key: Optional[Union[str, bytes]] = None
    strict_cache: bool = False
    compile_retries: int = 2
    deadline_seconds: Optional[float] = None
    field_order: Tuple[str, ...] = DEFAULT_FIELD_ORDER
    enforce_locality: bool = True
    tag_field: str = TAG_FIELD
    max_frontier: int = 4096

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.compile_retries < 0:
            raise ValueError(
                f"compile_retries must be >= 0, got {self.compile_retries}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.max_frontier < 1:
            raise ValueError(f"max_frontier must be >= 1, got {self.max_frontier}")
        if not self.tag_field:
            raise ValueError("tag_field must be a non-empty field name")
        object.__setattr__(self, "field_order", tuple(self.field_order))
        if self.cache_dir is not None:
            object.__setattr__(
                self, "cache_dir", Path(self.cache_dir).expanduser()
            )

    def replace(self, **changes) -> "CompileOptions":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def make_builder(self) -> FDDBuilder:
        """A fresh :class:`FDDBuilder` configured by these options."""
        return FDDBuilder(FieldOrder(self.field_order))

    def semantic_fingerprint(self) -> str:
        """Canonical serialization of the output-affecting options."""
        pairs = tuple(
            (f.name, getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.name not in _EXECUTION_ONLY_FIELDS
        )
        return repr(pairs)

    def resolved_cache_hmac_key(self) -> Optional[bytes]:
        """The effective cache-signing key as bytes: the explicit field,
        else the ``REPRO_CACHE_HMAC_KEY`` environment variable, else
        ``None`` (unsigned legacy format)."""
        key = self.cache_hmac_key
        if key is None:
            env = os.environ.get(CACHE_HMAC_KEY_ENV)
            key = env if env else None
        if key is None:
            return None
        return key.encode() if isinstance(key, str) else bytes(key)


# ---------------------------------------------------------------------------
# Content-addressed artifact cache
# ---------------------------------------------------------------------------


def _topology_fingerprint(topology: Topology) -> str:
    """Canonical serialization of a topology (links, hosts, switches)."""
    links = tuple((str(src), str(dst)) for src, dst in topology.links())
    hosts = tuple((h.name, str(h.attachment)) for h in topology.hosts)
    switches = tuple(sorted(topology.switches))
    return repr((links, hosts, switches))


def artifact_digest(
    program: Policy,
    topology: Topology,
    initial_state: StateVector,
    options: CompileOptions,
) -> str:
    """The content address of one compiled artifact.

    Every AST node has a canonical, structure-complete ``repr``, so the
    program is digested through it; the topology through its sorted
    link/host/switch serialization; the options through their
    output-affecting fields only (module docstring).  The package
    version is folded in too, so a persistent ``cache_dir`` carried
    across an upgrade misses rather than serving tables compiled by an
    older (possibly since-fixed) compiler.
    """
    from . import __version__

    h = hashlib.sha256()
    for part in (
        f"repro-artifact-v{ARTIFACT_FORMAT}",
        f"repro-{__version__}",
        repr(program),
        _topology_fingerprint(topology),
        repr(tuple(initial_state)),
        options.semantic_fingerprint(),
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


# Signed-artifact envelope: MAGIC + 32-byte HMAC-SHA256(payload) +
# pickled payload.  Files without the magic are the legacy (format-1)
# unsigned layout.
_SIGNED_MAGIC = b"repro-signed-artifact\x00"
_HMAC_SIZE = hashlib.sha256().digest_size

# Quarantine slots kept per key (<key>.pkl.bad, .bad.1, ...) before the
# last slot is recycled; earlier forensic copies are never overwritten
# by a later rejection of the same key.
_QUARANTINE_SLOTS = 5


class ArtifactCache:
    """Pickled :class:`CompiledNES` artifacts under ``root/<digest>.pkl``.

    Writes go through a temp file + :func:`os.replace`, so concurrent
    pipelines racing on one key leave a complete artifact.  Unreadable
    or corrupt entries load as misses, never as errors — but no longer
    *silent* misses: the cause is surfaced once per cache as an
    :class:`ArtifactCacheWarning`, counted in ``health``, and the bad
    entry is quarantined to ``<key>.pkl.bad`` so a cold fleet does not
    re-read and re-reject it on every pipeline.

    With ``hmac_key`` set, stored artifacts carry an HMAC-SHA256
    signature envelope and loads verify it: a tampered, truncated, or
    unsigned entry is rejected (quarantine + recorded miss by default,
    :class:`ArtifactIntegrityError` under ``strict=True``) — the
    integrity prerequisite for sharing a cache beyond mutually-trusting
    writers.  A keyless cache still *reads* signed entries (unverified;
    same trust model as the legacy format it also reads).

    .. warning:: Artifacts are pickles, and unpickling executes code
       from the file.  The HMAC check authenticates entries against
       writers holding the key; without a key, point ``cache_dir`` only
       at directories whose writers you trust (your own machine, your
       own CI job) — never at a world-writable or untrusted shared path.
    """

    def __init__(
        self,
        root: Union[str, Path],
        hmac_key: Optional[bytes] = None,
        strict: bool = False,
        health: Optional[Dict[str, int]] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hmac_key = hmac_key
        self.strict = strict
        self.health = health if health is not None else {}
        self._warned: set = set()

    def path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def bad_path(self, key: str, slot: int = 0) -> Path:
        """Where a corrupt/unverifiable entry for ``key`` is quarantined.

        Repeated rejections of one key fill numbered slots (``.bad``,
        ``.bad.1``, ... up to ``_QUARANTINE_SLOTS``), so an earlier
        forensic copy survives later rejections.
        """
        suffix = ".bad" if slot == 0 else f".bad.{slot}"
        return self.root / f"{key}.pkl{suffix}"

    # -- failure bookkeeping ------------------------------------------------

    def _count(self, counter: str) -> None:
        obs_metrics.count_health(self.health, counter)

    def _warn_once(self, category: str, message: str) -> None:
        # Counted on EVERY call, not just the first: the warning is
        # one-shot per cache, but the registry keeps seeing swallowed
        # failures after the warning is suppressed.
        obs_metrics.inc(
            "repro_cache_warnings_total",
            category=category,
            help="ArtifactCacheWarning-worthy cache failures by category "
                 "(counted even after the one-shot warning is suppressed)",
        )
        if category not in self._warned:
            self._warned.add(category)
            warnings.warn(message, ArtifactCacheWarning, stacklevel=4)

    def _quarantine(self, key: str) -> None:
        """Move the entry aside so it is never re-read and re-rejected;
        best-effort (a read-only cache just leaves it in place).

        The first free quarantine slot is used, so repeated rejections
        of the same key preserve the earlier forensic copies instead of
        silently overwriting the single ``.bad`` file; past the slot
        bound, the last slot is recycled.  Each successful quarantine is
        counted.
        """
        target = self.bad_path(key, _QUARANTINE_SLOTS - 1)
        for slot in range(_QUARANTINE_SLOTS):
            candidate = self.bad_path(key, slot)
            if not candidate.exists():
                target = candidate
                break
        try:
            os.replace(self.path(key), target)
            self._count("cache.quarantined")
        except OSError:
            pass

    def _reject(self, key: str, reason: str) -> None:
        """An entry failed verification: quarantine + count, and under
        strict mode escalate to a hard typed error."""
        self._count("cache.integrity_rejected")
        self._quarantine(key)
        if self.strict:
            raise ArtifactIntegrityError(
                f"cache artifact {self.path(key).name} rejected: {reason}"
            )
        self._warn_once(
            "integrity",
            f"artifact cache entry rejected ({reason}); recompiling "
            f"(quarantined to {self.bad_path(key).name})",
        )

    # -- load / store -------------------------------------------------------

    def load(self, key: str) -> Optional[CompiledNES]:
        try:
            faults.check("cache.load")
            blob = self.path(key).read_bytes()
        except FileNotFoundError:
            return None
        except Exception as exc:  # unreadable entry: recompile over it
            self._count("cache.load_error")
            self._warn_once(
                "load", f"artifact cache load failed ({exc!r}); recompiling"
            )
            return None
        payload = blob
        if blob.startswith(_SIGNED_MAGIC):
            header_end = len(_SIGNED_MAGIC) + _HMAC_SIZE
            if len(blob) < header_end:
                # A torn write that truncated inside the magic+HMAC
                # header: recognizably a signed entry, but without a
                # complete signature.  Reject it for keyed AND keyless
                # readers — slicing through it would hand pickle.loads
                # garbage bytes and miscount this as a generic corrupt
                # load instead of an integrity rejection.
                self._reject(key, "torn signed header (truncated entry)")
                return None
            digest, payload = blob[len(_SIGNED_MAGIC):header_end], blob[header_end:]
            if self.hmac_key is not None:
                want = hmac.new(self.hmac_key, payload, hashlib.sha256).digest()
                if len(digest) != _HMAC_SIZE or not hmac.compare_digest(digest, want):
                    self._reject(key, "HMAC-SHA256 mismatch (tampered or torn)")
                    return None
        elif self.hmac_key is not None:
            self._reject(key, "unsigned entry in a keyed cache")
            return None
        try:
            artifact = pickle.loads(payload)
        except Exception as exc:  # corrupt/truncated entry
            self._count("cache.load_corrupt")
            self._quarantine(key)
            self._warn_once(
                "corrupt",
                f"corrupt artifact cache entry ({exc!r}); recompiling "
                f"(quarantined to {self.bad_path(key).name})",
            )
            return None
        if not isinstance(artifact, CompiledNES):
            self._count("cache.load_corrupt")
            self._quarantine(key)
            self._warn_once(
                "corrupt",
                f"artifact cache entry holds {type(artifact).__name__}, "
                "not a CompiledNES; recompiling",
            )
            return None
        return artifact

    def store(self, key: str, compiled: CompiledNES) -> Path:
        faults.check("cache.store")
        target = self.path(key)
        tmp = target.with_name(
            f"{target.name}.tmp{os.getpid()}.{threading.get_ident()}"
        )
        payload = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        if self.hmac_key is not None:
            payload = (
                _SIGNED_MAGIC
                + hmac.new(self.hmac_key, payload, hashlib.sha256).digest()
                + payload
            )
        try:
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return target


# ---------------------------------------------------------------------------
# Deltas: the inputs of incremental recompilation
# ---------------------------------------------------------------------------


def _substitute_policy(
    p: Policy, old: Policy, new: Policy, hits: List[int]
) -> Policy:
    """Rebuild ``p`` with every subterm equal to ``old`` replaced by
    ``new``, counting replacements in ``hits[0]``.

    The walk is deterministic and shape-preserving (plain constructors,
    no smart-constructor normalization), and returns untouched subtrees
    by identity — the post-delta program shares every unchanged node
    with the original, which is what lets the symbolic layer's id-keyed
    memos and the guard diff localize the blast radius.
    """
    if p == old:
        hits[0] += 1
        return new
    if isinstance(p, _ast.Seq):
        left = _substitute_policy(p.left, old, new, hits)
        right = _substitute_policy(p.right, old, new, hits)
        return p if left is p.left and right is p.right else _ast.Seq(left, right)
    if isinstance(p, _ast.Union):
        left = _substitute_policy(p.left, old, new, hits)
        right = _substitute_policy(p.right, old, new, hits)
        return p if left is p.left and right is p.right else _ast.Union(left, right)
    if isinstance(p, _ast.Star):
        operand = _substitute_policy(p.operand, old, new, hits)
        return p if operand is p.operand else _ast.Star(operand)
    return p  # leaves w.r.t. policy children: filters, assigns, links, dup


@dataclass(frozen=True)
class Delta:
    """One small change to a pipeline's inputs (the unit of
    :meth:`Pipeline.update`).

    - ``set_state``: ``(component, value)`` writes applied to the
      initial state vector (the same shape as a link update's state
      writes).
    - ``replace_policy`` / ``with_policy``: substitute every occurrence
      of one sub-policy (matched by structural equality) with another;
      both must be given together, and the old sub-policy must occur.
    - ``topology``: a replacement topology (``None`` = unchanged).

    An all-defaults delta is a valid no-op (everything reuses).
    """

    set_state: Tuple[Tuple[int, int], ...] = ()
    replace_policy: Optional[Policy] = None
    with_policy: Optional[Policy] = None
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "set_state",
            tuple((int(m), int(n)) for m, n in self.set_state),
        )
        if (self.replace_policy is None) != (self.with_policy is None):
            raise ValueError(
                "replace_policy and with_policy must be given together"
            )

    def apply_program(self, program: Policy) -> Policy:
        """The post-delta program (``program`` itself when unchanged)."""
        if self.replace_policy is None or self.replace_policy == self.with_policy:
            return program
        hits = [0]
        substituted = _substitute_policy(
            program, self.replace_policy, self.with_policy, hits
        )
        if not hits[0]:
            raise ValueError(
                f"replace_policy {self.replace_policy!r} does not occur "
                "in the program"
            )
        return substituted

    def apply_initial_state(self, initial: StateVector) -> StateVector:
        """The post-delta initial state vector."""
        initial = tuple(initial)
        if not self.set_state:
            return initial
        for component, _ in self.set_state:
            if not 0 <= component < len(initial):
                raise ValueError(
                    f"set_state component {component} out of range for a "
                    f"{len(initial)}-component state vector"
                )
        return vector_update(initial, self.set_state)

    def apply_topology(self, topology: Topology) -> Topology:
        """The post-delta topology."""
        return self.topology if self.topology is not None else topology


class _PatchedInstantiation:
    """The ``build_ets`` instantiation source for :meth:`Pipeline.update`.

    States outside the delta's blast radius are served from the previous
    ETS, reusing its already-instantiated edge and configuration
    objects; affected (or newly reached) states fall through to the
    fresh per-state source.  ``edge_guards`` / ``cell_guards`` of
    ``None`` mean the blast radius is unknown — every state is fresh.
    """

    def __init__(
        self,
        fresh_edges,
        fresh_config,
        old_ets: Optional[ETS],
        edge_guards: Optional[FrozenSet[StateGuard]],
        cell_guards: Optional[FrozenSet[StateGuard]],
    ):
        self._fresh_edges = fresh_edges
        self._fresh_config = fresh_config
        self._old = old_ets
        self._old_states = (
            frozenset(old_ets.states()) if old_ets is not None else frozenset()
        )
        self._edge_guards = edge_guards
        self._cell_guards = cell_guards
        self.seen: set = set()
        self.fresh: set = set()

    def _unaffected(self, state, guards) -> bool:
        if guards is None or state not in self._old_states:
            return False
        return not any(g.holds(state) for g in guards)

    def edges_at(self, state):
        self.seen.add(state)
        if self._unaffected(state, self._edge_guards):
            return self._old.out_edges(state)
        self.fresh.add(state)
        return self._fresh_edges(state)

    def configuration_at(self, state):
        self.seen.add(state)
        if self._unaffected(state, self._cell_guards):
            return self._old.configuration(state)
        self.fresh.add(state)
        return self._fresh_config(state)


# ---------------------------------------------------------------------------
# The pipeline façade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """Per-stage wall-clock timings and artifact stats for one pipeline.

    Only stages that actually ran appear in ``stage_seconds``; a warm
    artifact-cache hit runs just the ``compile`` stage (the load), and
    ``artifact_cache`` records ``"hit"``/``"miss"`` (``None`` when the
    cache is disabled).
    """

    stage_seconds: Tuple[Tuple[str, float], ...]
    stats: Tuple[Tuple[str, int], ...]
    backend: str
    artifact_cache: Optional[str]
    # Sub-stage split of the ets stage:
    # "ets.symbolic" (the one partial-evaluation pass) and
    # "ets.instantiate" (per-state BFS instantiation).  These refine
    # the "ets" entry of stage_seconds; total_seconds() ignores them.
    # A pipeline produced by Pipeline.update() additionally carries an
    # "update.delta" substage (delta application + blast-radius diff)
    # and "update.*" entries in stats (reinstantiation/recompile/reuse
    # counters).
    substages: Tuple[Tuple[str, float], ...] = ()
    # Failure/recovery counters: executor retries and serial fallbacks,
    # cache integrity rejections/quarantines, swallowed load/store
    # errors.  Empty = nothing went wrong *and* nothing was absorbed;
    # every absorbed failure shows up here, so nothing fails silently.
    health: Mapping[str, int] = dataclasses.field(default_factory=dict)

    def stage(self, name: str) -> Optional[float]:
        return dict(self.stage_seconds).get(name)

    def substage(self, name: str) -> Optional[float]:
        return dict(self.substages).get(name)

    def total_seconds(self) -> float:
        return sum(seconds for _, seconds in self.stage_seconds)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of this report.

        This is the wire shape shared by the compilation service
        (``GET /stats`` / ``GET /health`` and every ``/compile``
        response) and ``python -m repro compile --report --json``; the
        key set is pinned by ``tests/test_pipeline.py`` so the format
        cannot drift silently.
        """
        return {
            "backend": self.backend,
            "artifact_cache": self.artifact_cache,
            "stages": dict(self.stage_seconds),
            "substages": dict(self.substages),
            "stats": dict(self.stats),
            "health": dict(self.health),
            "total_seconds": self.total_seconds(),
        }

    def __str__(self) -> str:
        lines = [f"pipeline backend={self.backend}"
                 + (f" artifact_cache={self.artifact_cache}"
                    if self.artifact_cache else "")]
        for name, seconds in self.stage_seconds:
            lines.append(f"  stage {name:<8s} {seconds:.6f}s")
            for sub, sub_seconds in self.substages:
                if sub.startswith(f"{name}."):
                    lines.append(f"    {sub:<18s} {sub_seconds:.6f}s")
        # Substages refining no stage that ran (e.g. "update.delta"):
        # printed in a trailing block so they stay visible.
        stages_shown = {name for name, _ in self.stage_seconds}
        for sub, sub_seconds in self.substages:
            if sub.split(".", 1)[0] not in stages_shown:
                lines.append(f"    {sub:<18s} {sub_seconds:.6f}s")
        for name, value in self.stats:
            lines.append(f"  {name:<22s} {value}")
        if self.health:
            for name in sorted(self.health):
                lines.append(f"  health {name:<22s} {self.health[name]}")
        else:
            lines.append("  health ok")
        return "\n".join(lines)


class Pipeline:
    """The staged toolchain of Figure 7 behind one façade.

    Stages are computed lazily and at most once::

        pipeline = Pipeline(program, topology, (0,), CompileOptions())
        pipeline.ets        # Stateful NetKAT -> event-driven transition system
        pipeline.nes        # ETS -> network event structure
        pipeline.compiled   # NES -> CompiledNES (tags + guarded tables)
        print(pipeline.report())

    With ``options.cache_dir`` set, :attr:`compiled` first consults the
    content-addressed artifact cache and, on a hit, skips the ETS and
    NES stages entirely (the NES is recovered from the artifact itself).

    The lazy memoization is thread-safe: a pipeline shared between
    threads (as the compilation service does across request handlers)
    runs each stage exactly once — concurrent readers of an unbuilt
    stage serialize on an internal lock and then observe the same
    artifact with fully-recorded stage timings.
    """

    def __init__(
        self,
        program: Policy,
        topology: Topology,
        initial_state: Iterable[int],
        options: Optional[CompileOptions] = None,
    ):
        self.program = program
        self.topology = topology
        self.initial_state: StateVector = tuple(initial_state)
        self.options = options if options is not None else CompileOptions()
        self._ets: Optional[ETS] = None
        self._nes: Optional[NES] = None
        self._compiled: Optional[CompiledNES] = None
        self._symbolic: Optional[SymbolicProgram] = None
        self._stage_seconds: Dict[str, float] = {}
        self._substage_seconds: Dict[str, float] = {}
        self._update_stats: Dict[str, int] = {}
        self._artifact_cache_state: Optional[str] = None
        self._artifact_key: Optional[str] = None
        self._cache: Optional[ArtifactCache] = None
        self._cache_resolved = False
        self._health: Dict[str, int] = {}
        # Guards the lazy stage memoization: a Pipeline shared between
        # threads (the compilation service memoizes pipelines across
        # request handlers) must run each stage exactly once, and a
        # lock-free reader that sees a published artifact must also see
        # its recorded stage timings — so stages run under this lock and
        # the memo field is always assigned *last*.
        self._memo_lock = threading.RLock()

    def _count(self, counter: str) -> None:
        obs_metrics.count_health(self._health, counter)

    @staticmethod
    def _stage_boundary(name: str) -> None:
        """The fault-injection hook at a stage boundary: an injected
        fault surfaces as a typed :class:`StageError` with provenance."""
        try:
            faults.check(f"stage.{name}")
        except faults.FaultInjected as exc:
            raise StageError(name, f"stage {name!r} failed: {exc}") from exc

    @staticmethod
    def _observe_stage(stage: str, seconds: float) -> None:
        """Mirror a recorded stage timing into the installed registry
        (the ``_stage_seconds`` dict stays the legacy report view)."""
        obs_metrics.observe(
            "repro_pipeline_stage_seconds",
            seconds,
            stage=stage,
            help="Wall-clock seconds per pipeline stage run, by stage",
        )

    # -- staged artifacts ---------------------------------------------------

    @property
    def ets(self) -> ETS:
        if self._ets is None:
            with self._memo_lock:
                if self._ets is None:
                    self._stage_boundary("ets")
                    with obs_trace.span("ets") as stage_span:
                        start = time.perf_counter()
                        # The stage splits into the one-shot partial
                        # evaluation and the per-state BFS instantiation;
                        # the report carries both (the "ets.*" substages)
                        # alongside the stage total.  The engine is
                        # retained: update() diffs it against the
                        # post-delta program's to localize a delta's
                        # blast radius.
                        with obs_trace.span("ets.symbolic"):
                            symbolic = SymbolicProgram(self.program)
                        mid = time.perf_counter()
                        with obs_trace.span("ets.instantiate"):
                            ets = build_ets(
                                self.program,
                                self.initial_state,
                                symbolic=symbolic,
                            )
                        end = time.perf_counter()
                        self._substage_seconds["ets.symbolic"] = mid - start
                        self._substage_seconds["ets.instantiate"] = end - mid
                        self._symbolic = symbolic
                        stage_span.set(states=len(ets.states()))
                    self._stage_seconds["ets"] = end - start
                    self._observe_stage("ets", end - start)
                    self._ets = ets
        return self._ets

    @property
    def nes(self) -> NES:
        if self._nes is None:
            with self._memo_lock:
                if self._nes is None:
                    if self._compiled is None:
                        # A warm artifact carries its NES, so consult
                        # the cache before paying for the ETS and NES
                        # stages.  (The ETS is not part of the artifact;
                        # pipeline.ets always builds.)
                        self._load_artifact()
                    if self._compiled is not None:
                        self._nes = self._compiled.nes
                    else:
                        ets = self.ets
                        self._stage_boundary("nes")
                        with obs_trace.span("nes") as stage_span:
                            start = time.perf_counter()
                            nes = nes_of_ets(ets)
                            seconds = time.perf_counter() - start
                            stage_span.set(events=len(nes.events))
                        self._stage_seconds["nes"] = seconds
                        self._observe_stage("nes", seconds)
                        self._nes = nes
        return self._nes

    @property
    def compiled(self) -> CompiledNES:
        if self._compiled is None:
            with self._memo_lock:
                if self._compiled is None:
                    self._load_artifact()
                if self._compiled is None:
                    nes = self.nes
                    self._stage_boundary("compile")
                    with obs_trace.span("compile") as stage_span:
                        start = time.perf_counter()
                        compiled = compile_nes(
                            nes,
                            self.topology,
                            options=self.options,
                            health=self._health,
                        )
                        seconds = time.perf_counter() - start
                        stage_span.set(configurations=len(compiled.states))
                    self._stage_seconds["compile"] = seconds
                    self._observe_stage("compile", seconds)
                    self._compiled = compiled
                    self._store_artifact()
        return self._compiled

    def _store_artifact(self) -> None:
        """Best-effort store of ``_compiled`` under this pipeline's key."""
        cache = self._artifact_cache()
        if cache is None or self._compiled is None:
            return
        try:
            with obs_trace.span("cache.store"):
                cache.store(self.artifact_key(), self._compiled)
            obs_metrics.inc(
                "repro_cache_stores_total",
                result="ok",
                help="Artifact cache stores by result",
            )
        except Exception as exc:
            # The cache is an accelerator, never a gate: a full
            # or unwritable cache_dir, or an artifact pickle
            # failure, must not discard a compile that already
            # succeeded.  But it must not vanish either — the
            # cause is warned once and counted in health.
            self._count("cache.store_error")
            obs_metrics.inc(
                "repro_cache_stores_total",
                result="error",
                help="Artifact cache stores by result",
            )
            warnings.warn(
                f"artifact cache store failed ({exc!r}); the "
                "compiled tables are unaffected but the cache "
                "stays cold for this key",
                ArtifactCacheWarning,
                stacklevel=3,
            )

    def _load_artifact(self) -> None:
        """Populate ``_compiled`` from the artifact cache on a hit.

        Consulted at most once per pipeline (the hit/miss verdict is
        recorded either way); a no-op when the cache is disabled.
        """
        if self._artifact_cache_state is not None:
            return
        cache = self._artifact_cache()
        if cache is None:
            return
        start = time.perf_counter()
        with obs_trace.span("cache.load") as load_span:
            loaded = cache.load(self.artifact_key())
            load_span.set(result="hit" if loaded is not None else "miss")
        obs_metrics.inc(
            "repro_cache_loads_total",
            result="hit" if loaded is not None else "miss",
            help="Artifact cache loads by result",
        )
        if loaded is not None:
            # The artifact was stored under possibly different
            # execution-only options (they are excluded from the key);
            # stamp in this run's, so compiled.options reflects how
            # *this* pipeline executes, not how the storing one did.
            loaded.options = loaded.options.replace(
                **{
                    name: getattr(self.options, name)
                    for name in _EXECUTION_ONLY_FIELDS
                }
            )
            self._artifact_cache_state = "hit"
            seconds = time.perf_counter() - start
            self._stage_seconds["compile"] = seconds
            self._observe_stage("compile", seconds)
            self._compiled = loaded
        else:
            self._artifact_cache_state = "miss"

    def guarded_tables(self, tag_field: Optional[str] = None):
        """The deployable merged tables of the compiled artifact
        (guarded by ``tag_field``, default ``options.tag_field``)."""
        return self.compiled.guarded_tables(tag_field)

    # -- incremental recompilation ------------------------------------------

    def update(self, delta: Delta) -> "Pipeline":
        """Recompile after ``delta``, reusing every unaffected artifact.

        Returns a **new** :class:`Pipeline` for the post-delta inputs
        with its staged artifacts populated; this pipeline is untouched
        and stays valid for the pre-delta program.  The contract is byte
        identity: the result's guarded tables equal a cold pipeline
        built on the post-delta inputs, because reuse happens only where
        the change provably cannot reach —

        - the retained :class:`SymbolicProgram` is reused outright when
          the program is unchanged; when it changed, the guard diff of
          the two partial evaluations (:func:`changed_edge_guards` /
          :func:`changed_cell_guards`) localizes the blast radius;
        - ETS states satisfying no changed guard keep their instantiated
          edges/configurations from the previous ETS;
        - NES conversion reruns only if the patched ETS differs from the
          previous one at all (the event/edge set or a configuration
          changed);
        - per-configuration tables recompile only where the
          configuration policy or the topology changed (tables are a
          pure function of policy + topology + field order), through the
          ``reuse_configurations`` executor seam.

        The result's :meth:`report` carries ``update.*`` stats (states
        reinstantiated/reused, configurations recompiled/reused, reuse
        ratio) and an ``update.delta`` substage; its
        :meth:`artifact_key` reflects the post-delta program, and with a
        cache configured the artifact is consulted under — and stored
        to — that key, so the cache stays correct.
        """
        with obs_trace.span("pipeline.update"):
            return self._update(delta)

    def _update(self, delta: Delta) -> "Pipeline":
        t_delta = time.perf_counter()
        new_program = delta.apply_program(self.program)
        new_topology = delta.apply_topology(self.topology)
        new_initial = delta.apply_initial_state(self.initial_state)
        updated = Pipeline(new_program, new_topology, new_initial, self.options)

        # Force the source once (the production shape: updates arrive at
        # an already-compiled pipeline), but reuse the ETS/symbolic
        # stages only if the source actually ran them — a warm-cache
        # source never did, and re-running them here would defeat its
        # cache hit.
        old_compiled = self.compiled
        old_nes = self.nes
        old_ets = self._ets
        old_symbolic = self._symbolic

        # A warm artifact under the post-delta key beats any patching.
        updated._load_artifact()
        if updated._compiled is not None:
            updated._update_stats = {
                "update.states_reinstantiated": 0,
                "update.states_reused": 0,
                "update.configurations_recompiled": 0,
                "update.configurations_reused": len(updated._compiled.states),
                "update.reuse_percent": 100,
            }
            updated._substage_seconds["update.delta"] = (
                time.perf_counter() - t_delta
            )
            return updated

        program_changed = new_program is not self.program
        topology_changed = delta.topology is not None and (
            _topology_fingerprint(new_topology)
            != _topology_fingerprint(self.topology)
        )

        # Blast radius from the symbolic guard diff.  ``None`` guards
        # mean unknown (no diffable engine): every state is affected.
        symbolic: Optional[SymbolicProgram] = None
        edge_guards: Optional[FrozenSet[StateGuard]] = None
        cell_guards: Optional[FrozenSet[StateGuard]] = None
        sym_seconds = 0.0
        if not program_changed:
            symbolic = old_symbolic  # may be None (warm source)
            edge_guards = cell_guards = frozenset()
        else:
            t_sym = time.perf_counter()
            symbolic = SymbolicProgram(new_program)
            sym_seconds = time.perf_counter() - t_sym
            if old_symbolic is not None:
                edge_guards = changed_edge_guards(
                    old_symbolic.extraction, symbolic.extraction
                )
                cell_guards = changed_cell_guards(
                    old_symbolic.cells, symbolic.cells
                )
        updated._substage_seconds["update.delta"] = (
            time.perf_counter() - t_delta - sym_seconds
        )

        # Fresh per-state fallbacks for affected/new states.  The engine
        # is built lazily: a fully-reused instantiation (the common
        # no-op / state-only delta) never pays for a partial evaluation
        # it does not use.
        def _ensure_symbolic() -> SymbolicProgram:
            nonlocal symbolic, sym_seconds
            if symbolic is None:
                t0 = time.perf_counter()
                symbolic = SymbolicProgram(new_program)
                sym_seconds += time.perf_counter() - t0
            return symbolic

        fresh_edges = lambda s: _ensure_symbolic().edges_at(s)  # noqa: E731
        fresh_config = lambda s: _ensure_symbolic().configuration_at(s)  # noqa: E731

        # Stage 1: the patched ETS.
        self._stage_boundary("ets")
        eager_sym_seconds = sym_seconds  # built before the ets window
        t_ets = time.perf_counter()
        source = _PatchedInstantiation(
            fresh_edges, fresh_config, old_ets, edge_guards, cell_guards
        )
        with obs_trace.span("update.reinstantiate") as ets_span:
            new_ets = build_ets(new_program, new_initial, symbolic=source)
            ets_span.set(
                fresh_states=len(source.fresh),
                reused_states=len(source.seen) - len(source.fresh),
            )
        ets_seconds = time.perf_counter() - t_ets
        lazy_sym_seconds = sym_seconds - eager_sym_seconds
        updated._ets = new_ets
        updated._symbolic = symbolic
        updated._stage_seconds["ets"] = ets_seconds + eager_sym_seconds
        self._observe_stage("ets", ets_seconds + eager_sym_seconds)
        updated._substage_seconds["ets.symbolic"] = sym_seconds
        updated._substage_seconds["ets.instantiate"] = ets_seconds - lazy_sym_seconds

        # Stage 2: NES conversion, only if the ETS changed at all.  The
        # NES carries the configuration policies too, so a changed
        # vertex labeling (not just a changed event/edge set) reruns the
        # conversion — including its unique-configuration and
        # finite-completeness checks, which the delta may newly violate.
        if (
            old_ets is not None
            and new_ets.initial == old_ets.initial
            and new_ets.edges == old_ets.edges
            and new_ets.vertices == old_ets.vertices
        ):
            updated._nes = old_nes
        else:
            self._stage_boundary("nes")
            t_nes = time.perf_counter()
            with obs_trace.span("nes"):
                updated._nes = nes_of_ets(new_ets)
            nes_seconds = time.perf_counter() - t_nes
            updated._stage_seconds["nes"] = nes_seconds
            self._observe_stage("nes", nes_seconds)
        nes = updated._nes

        # Stage 3: compile, adopting every configuration whose policy
        # and topology are unchanged (byte-identical by purity).
        self._stage_boundary("compile")
        t_compile = time.perf_counter()
        reuse: Dict[StateVector, object] = {}
        if not topology_changed:
            for state in nes.configuration_states():
                previous = old_compiled.configurations.get(state)
                if previous is None:
                    continue
                old_policy = old_nes.configuration_policy(state)
                new_policy = nes.configuration_policy(state)
                if new_policy is old_policy or new_policy == old_policy:
                    reuse[state] = previous
        with obs_trace.span("compile", reused_configurations=len(reuse)):
            updated._compiled = compile_nes(
                nes,
                new_topology,
                options=self.options,
                health=updated._health,
                reuse_configurations=reuse,
            )
        compile_seconds = time.perf_counter() - t_compile
        updated._stage_seconds["compile"] = compile_seconds
        self._observe_stage("compile", compile_seconds)
        updated._store_artifact()

        total = len(updated._compiled.states)
        reused_configs = len(reuse)
        fresh_states = len(source.fresh)
        updated._update_stats = {
            "update.states_reinstantiated": fresh_states,
            "update.states_reused": len(source.seen) - fresh_states,
            "update.configurations_recompiled": total - reused_configs,
            "update.configurations_reused": reused_configs,
            "update.reuse_percent": (
                int(round(100 * reused_configs / total)) if total else 100
            ),
        }
        return updated

    # -- artifact cache -----------------------------------------------------

    def artifact_key(self) -> str:
        """The content address of this pipeline's compiled artifact.

        Memoized: the inputs are immutable, and digesting the full
        program repr is not free.
        """
        if self._artifact_key is None:
            self._artifact_key = artifact_digest(
                self.program, self.topology, self.initial_state, self.options
            )
        return self._artifact_key

    def _artifact_cache(self) -> Optional[ArtifactCache]:
        if not self._cache_resolved:
            self._cache_resolved = True
            if self.options.cache_dir is not None:
                try:
                    self._cache = ArtifactCache(
                        self.options.cache_dir,
                        hmac_key=self.options.resolved_cache_hmac_key(),
                        strict=self.options.strict_cache,
                        health=self._health,
                    )
                except Exception as exc:
                    # An uncreatable cache_dir (read-only filesystem,
                    # bad parent) disables the cache; it never aborts
                    # the compile — but it is counted and warned, not
                    # silently dropped.
                    self._cache = None
                    self._count("cache.disabled")
                    warnings.warn(
                        f"artifact cache disabled: cannot use cache_dir "
                        f"{self.options.cache_dir} ({exc!r})",
                        ArtifactCacheWarning,
                        stacklevel=3,
                    )
        return self._cache

    # -- reporting ----------------------------------------------------------

    def report(self) -> PipelineReport:
        """Timings and stats for the stages that have run so far."""
        stats: Dict[str, int] = {}
        if self._ets is not None:
            stats["ets_states"] = len(self._ets.states())
            stats["ets_edges"] = len(self._ets.edges)
        if self._nes is not None:
            stats["nes_events"] = len(self._nes.events)
            stats["nes_event_sets"] = len(self._nes.event_sets())
        if self._compiled is not None:
            compiled = self._compiled
            stats["configurations"] = len(compiled.states)
            # config_rule_count, not forwarding_rule_count: a report
            # stays a cheap observer instead of forcing the merge.
            forwarding = compiled.config_rule_count()
            stats["forwarding_rules"] = forwarding
            stats["total_rules"] = forwarding + compiled.stamp_rule_count()
        if self._update_stats:
            stats.update(self._update_stats)
        order = {"ets": 0, "nes": 1, "compile": 2}
        timings = tuple(
            sorted(self._stage_seconds.items(), key=lambda kv: order[kv[0]])
        )
        sub_order = {"ets.symbolic": 0, "ets.instantiate": 1, "update.delta": 2}
        substages = tuple(
            sorted(
                self._substage_seconds.items(),
                key=lambda kv: sub_order.get(kv[0], len(sub_order)),
            )
        )
        return PipelineReport(
            stage_seconds=timings,
            stats=tuple(stats.items()),
            backend=self.options.backend,
            artifact_cache=self._artifact_cache_state,
            substages=substages,
            health=dict(self._health),
        )

    def __repr__(self) -> str:
        ran = [name for name, _ in self.report().stage_seconds]
        return (
            f"Pipeline(backend={self.options.backend!r}, "
            f"stages_run={ran or '[]'})"
        )


def compile_app(
    program_or_app,
    topology: Optional[Topology] = None,
    initial_state: Optional[Sequence[int]] = None,
    options: Optional[CompileOptions] = None,
    **option_overrides,
) -> CompiledNES:
    """One call from a program (or an :class:`~repro.apps.base.App`) to a
    :class:`CompiledNES`.

    Either pass ``(program, topology, initial_state)`` explicitly, or a
    single app-like object carrying those attributes.  Keyword overrides
    are :class:`CompileOptions` fields::

        compiled = repro.compile_app(app, backend="thread",
                                     cache_dir="~/.cache/repro")
    """
    if hasattr(program_or_app, "program"):
        app = program_or_app
        if topology is not None or initial_state is not None:
            raise TypeError(
                "compile_app(app, ...) uses the app's own topology and "
                "initial_state; pass (program, topology, initial_state) "
                "explicitly to override them"
            )
        if (
            options is None
            and not option_overrides
            and hasattr(app, "pipeline")
        ):
            # Reuse the app's own pipeline: the compile work (and the
            # stage report) are shared with later app.ets/nes/compiled.
            return app.pipeline.compiled
        program = app.program
        topology = app.topology
        initial_state = app.initial_state
        if options is None:
            options = getattr(app, "options", None)
    else:
        program = program_or_app
        if topology is None or initial_state is None:
            raise TypeError(
                "compile_app needs (program, topology, initial_state) "
                "or a single app-like object"
            )
    if options is None:
        options = CompileOptions()
    if option_overrides:
        options = options.replace(**option_overrides)
    return Pipeline(program, topology, initial_state, options).compiled
