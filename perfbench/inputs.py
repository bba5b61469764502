"""Seeded input generation for every workload.

Everything a workload feeds the program is made here from the seed, so
the same seed gives the same inputs and the program sees only the
generated inputs.  Draws are *stratified*: each round of inputs has the
same mix of program families and size strata, and the seed picks the
order, tenants and deltas.  Sizes are dealt from shuffled decks (every
size of a range once per pass, in seeded order), so runs of any seed
cover the same sizes equally often.  That keeps the cost mix of a run
independent of the seed, which is what lets two runs with different
seeds agree on a median.

Program texts are the seed apps (``repro.apps``) rendered with
``repro.netkat.pretty`` and prefixed with a tenant filter
``vlan=K; (...)``; the prefix makes texts distinct (a service working
set larger than the daemon's memo needs many distinct texts) without
changing the event structure the compiler has to build.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from repro.apps import (
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    learning_multi_app,
    learning_switch_app,
    ring_app,
)
from repro.apps.base import App
from repro.netkat.ast import filter_, test
from repro.netkat.pretty import pretty_policy
from repro.pipeline import Delta

TENANT_FIELD = "vlan"

# Families without a size parameter, and the state space each one's
# program ranges over: (state-vector length, largest component value).
FIXED_FAMILIES = {
    "firewall": (firewall_app, 1, 1),
    "ids": (ids_app, 1, 2),
    "authentication": (authentication_app, 1, 2),
    "learning_switch": (learning_switch_app, 1, 1),
    "learning_multi": (learning_multi_app, 2, 1),
}
# Size strata for the parameterized families; one member per stratum
# per round.  Cap depth drives the ETS/NES cost, ring diameter the
# table count.
CAP_STRATA = ((4, 10), (11, 17), (18, 24), (25, 32))
RING_STRATA = ((1, 3), (4, 6))


@dataclass(frozen=True)
class ProgramSpec:
    """One program text: a family, its size parameter and a tenant."""

    family: str
    size: int
    tenant: int

    def app(self) -> App:
        return _app(self.family, self.size)

    def text(self) -> str:
        return f"{TENANT_FIELD}={self.tenant}; ({base_text(self.family, self.size)})"

    def state_space(self) -> Tuple[int, int]:
        """(components, largest value) of the program's state vectors."""
        if self.family == "cap":
            return 1, self.size + 1
        if self.family == "ring":
            return 1, 1
        _, components, top = FIXED_FAMILIES[self.family]
        return components, top


@lru_cache(maxsize=None)
def _app(family: str, size: int) -> App:
    if family == "cap":
        return bandwidth_cap_app(size)
    if family == "ring":
        return ring_app(size)
    return FIXED_FAMILIES[family][0]()


@lru_cache(maxsize=None)
def base_text(family: str, size: int) -> str:
    return pretty_policy(_app(family, size).program)


@dataclass(frozen=True)
class DeltaSpec:
    """One update: a state write, or a tenant re-tag (a sub-policy
    replacement that touches every configuration)."""

    kind: str  # "set_state" | "retag"
    component: int = 0
    value: int = 0
    old_tenant: int = 0
    new_tenant: int = 0

    def delta(self) -> Delta:
        if self.kind == "set_state":
            return Delta(set_state=((self.component, self.value),))
        return Delta(
            replace_policy=filter_(test(TENANT_FIELD, self.old_tenant)),
            with_policy=filter_(test(TENANT_FIELD, self.new_tenant)),
        )


def deck(rng: random.Random, lo: int, hi: int) -> Iterator[int]:
    """Endless sizes ``lo..hi``: each once per pass, in seeded order."""
    while True:
        sizes = list(range(lo, hi + 1))
        rng.shuffle(sizes)
        yield from sizes


def _strata_decks(rng: random.Random) -> List[Tuple[str, Iterator[int]]]:
    """One (family, size deck) per cap stratum and per ring stratum."""
    return [("cap", deck(rng, lo, hi)) for lo, hi in CAP_STRATA] + \
        [("ring", deck(rng, lo, hi)) for lo, hi in RING_STRATA]


def _midpoints() -> List[Tuple[str, Iterator[int]]]:
    return [("cap", itertools.repeat((lo + hi) // 2)) for lo, hi in CAP_STRATA] + \
        [("ring", itertools.repeat((lo + hi) // 2)) for lo, hi in RING_STRATA]


def _round_specs(rng: random.Random, decks: List[Tuple[str, Iterator[int]]]) -> List[ProgramSpec]:
    """One stratified round: every fixed family once and one program per
    size stratum (its size dealt from the stratum's deck), in seeded
    order."""
    specs = [ProgramSpec(name, 0, 0) for name in FIXED_FAMILIES]
    specs += [ProgramSpec(family, next(sizes), 0) for family, sizes in decks]
    rng.shuffle(specs)
    return [
        ProgramSpec(s.family, s.size, 1 + rng.randrange(4000))
        for s in specs
    ]


def _state_delta(rng: random.Random, spec: ProgramSpec) -> DeltaSpec:
    components, top = spec.state_space()
    return DeltaSpec(
        "set_state", component=rng.randrange(components), value=rng.randint(0, top)
    )


# -- compile_update -----------------------------------------------------------

def _chained_round(rng: random.Random, decks: List[Tuple[str, Iterator[int]]]
                   ) -> List[Tuple[ProgramSpec, List[DeltaSpec]]]:
    """One round of (program, delta chain) pairs; each chain has two
    state writes and one re-tag, in seeded order."""
    round_ = []
    for spec in _round_specs(rng, decks):
        kinds = ["set_state", "set_state", "retag"]
        rng.shuffle(kinds)
        chain = []
        tenant = spec.tenant
        for kind in kinds:
            if kind == "retag":
                new = 1 + (tenant + rng.randrange(1, 3999)) % 4000
                chain.append(DeltaSpec("retag", old_tenant=tenant, new_tenant=new))
                tenant = new
            else:
                chain.append(_state_delta(rng, spec))
        round_.append((spec, chain))
    return round_


def compile_rounds(seed: int) -> Iterator[List[Tuple[ProgramSpec, List[DeltaSpec]]]]:
    """Endless rounds of (program, delta chain) pairs for compile_update."""
    rng = random.Random(f"compile_update:{seed}")
    decks = _strata_decks(rng)
    while True:
        yield _chained_round(rng, decks)


def warmup_round(seed: int) -> List[Tuple[ProgramSpec, List[DeltaSpec]]]:
    """compile_update's set-up round: sizes at the stratum midpoints, so
    the set-up cost does not depend on the sizes a seed draws (cap cost
    grows steeply with depth); tenants and deltas are seeded."""
    return _chained_round(random.Random(f"warmup:{seed}"), _midpoints())


# -- service_mix --------------------------------------------------------------

# The shares below are assumed, not measured (no trace of real daemon
# traffic exists); only the shape -- Zipf-popular warm texts over twice
# the memo, updates beside them, a small cold share -- is required.
WORKING_SET_BLOCKS = 16  # x 8 texts = 128, twice the daemon's default memo
BLOCK_SIZE = 8
HOT_BLOCKS = 2  # update targets: keys that stay resident in the memo
ZIPF_S = 1.0
# Per 40 consecutive requests: warm compiles, updates, cold compiles.
MIX = (("warm", 36), ("update", 3), ("cold", 1))


@dataclass(frozen=True)
class Request:
    kind: str  # "warm" | "update" | "cold"
    spec: ProgramSpec
    delta: Optional[DeltaSpec] = None


def working_set(seed: int) -> List[List[ProgramSpec]]:
    """16 blocks of 8 distinct texts; every block has the same family
    mix in the same slots (2 fixed apps, one cap per stratum, one ring
    per stratum), so the popularity of a block, not the seed, sets the
    cost mix."""
    rng = random.Random(f"working_set:{seed}")
    decks = _strata_decks(rng)
    fixed = list(FIXED_FAMILIES)
    blocks = []
    used = set()
    for b in range(WORKING_SET_BLOCKS):
        specs = [ProgramSpec(fixed[(2 * b) % 5], 0, 0),
                 ProgramSpec(fixed[(2 * b + 1) % 5], 0, 0)]
        specs += [ProgramSpec(family, next(sizes), 0) for family, sizes in decks]
        block = []
        for s in specs:
            tenant = 1 + rng.randrange(4000)
            while (s.family, s.size, tenant) in used:
                tenant = 1 + rng.randrange(4000)
            used.add((s.family, s.size, tenant))
            block.append(ProgramSpec(s.family, s.size, tenant))
        blocks.append(block)
    return blocks


def request_stream(seed: int, phase: int, blocks: List[List[ProgramSpec]]) -> Iterator[Request]:
    """Endless requests: kinds follow :data:`MIX` in every window of 40,
    warm texts are Zipf-popular by block, update targets come from the
    hot blocks, and cold texts are never-seen tenants (each phase of a
    run draws them from its own range above the working set's)."""
    rng = random.Random(f"requests:{seed}:{phase}")
    weights = [1.0 / (b + 1) ** ZIPF_S for b in range(len(blocks))]
    served = {kind: 0 for kind, _ in MIX}
    for n in itertools.count():
        if n % sum(count for _, count in MIX) == 0:
            window = [kind for kind, count in MIX for _ in range(count)]
            rng.shuffle(window)
        kind = window.pop()
        served[kind] += 1
        if kind == "warm":
            block = rng.choices(range(len(blocks)), weights)[0]
            yield Request(kind, rng.choice(blocks[block]))
        elif kind == "update":
            # Update targets and cold templates cycle through the block
            # slots, so every run sends the same mix of families.
            spec = blocks[rng.randrange(HOT_BLOCKS)][served[kind] % BLOCK_SIZE]
            yield Request(kind, spec, _state_delta(rng, spec))
        else:
            template = blocks[rng.randrange(len(blocks))][served[kind] % BLOCK_SIZE]
            yield Request(kind, ProgramSpec(template.family, template.size, 10**6 * (phase + 1) + n))


# -- stream_verify ------------------------------------------------------------


@dataclass(frozen=True)
class StreamSpec:
    """A ring stream with no events, or a bidirectional cap stream."""

    kind: str  # "ring" | "cap"
    size: int  # ring diameter | cap depth
    frames: int  # per direction
    spacing: float  # seconds between frames of one direction
    payload: int


def stream_pairs(seed: int) -> Iterator[Tuple[StreamSpec, StreamSpec]]:
    """Endless (ring, cap) stream pairs.  Cap streams space frames so
    the cap's events fire mid-stream and later replies are dropped."""
    rng = random.Random(f"streams:{seed}")
    while True:
        ring = StreamSpec("ring", rng.randint(2, 3), rng.randint(9000, 11000),
                          1e-6, rng.choice((64, 128, 256)))
        cap = StreamSpec("cap", rng.randint(8, 12), rng.randint(2700, 3300),
                         rng.uniform(4e-5, 6e-5), rng.choice((64, 128, 256)))
        yield ring, cap


@dataclass(frozen=True)
class PingSpec:
    """One Figure 7 runtime execution: sequential request/reply pings
    between seeded host pairs until the trace has ``positions``."""

    family: str
    size: int
    positions: int
    seed: int


# Trace lengths per round of 30 verdicts: p50 falls in the middle of
# the 100 stratum (ranks 11-20) and p90 in the middle of the 800 stratum
# (ranks 26-29), not on a stratum boundary.  The wide 100 stratum keeps
# many samples near p50, so p50 moves little with the seeded mix.
PING_LADDER = (50,) * 10 + (100,) * 10 + (200,) * 4 + (400,) + (800,) * 4 + (1600,)
PING_FAMILIES = ("firewall", "cap", "ids", "authentication")


def ping_rounds(seed: int) -> Iterator[List[PingSpec]]:
    """Endless rounds of 30 runtime executions; the app rotates over
    the ladder slot and the round so every app meets every length."""
    rng = random.Random(f"pings:{seed}")
    cap_sizes = deck(rng, 4, 8)
    r = 0
    while True:
        round_ = []
        for slot, positions in enumerate(PING_LADDER):
            family = PING_FAMILIES[(slot + r) % len(PING_FAMILIES)]
            size = next(cap_sizes) if family == "cap" else 0
            round_.append(PingSpec(family, size, positions, rng.randrange(2**31)))
        rng.shuffle(round_)
        yield round_
        r += 1


def ping_pairs(spec: PingSpec, hosts: List[str]) -> Iterator[Tuple[str, str]]:
    """The (source, destination) of each ping of one execution.

    Pings follow each case study's traffic: firewall and bandwidth-cap
    pings run either way between their two hosts; in ids and
    authentication the outside host H4 pings the inside hosts (their
    programs send every inside host's traffic to H4).  ids executions
    open with a ping to H1: a packet reaching H2 before any packet
    reached H1 matches the ids program's second event while it is not
    yet enabled, and the Definition 6 checker rejects such a trace (see
    README.md); the benchmark measures the checker on traces it
    accepts.
    """
    rng = random.Random(f"ping_pairs:{spec.seed}")
    if spec.family in ("ids", "authentication"):
        inside = [h for h in hosts if h != "H4"]
        if spec.family == "ids":
            yield "H4", "H1"
        while True:
            yield "H4", rng.choice(inside)
    while True:
        src, dst = rng.sample(hosts, 2)
        yield src, dst
