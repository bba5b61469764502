"""Per-state ETS construction: one ``extract`` and one ``project`` walk
per state vector, through the ``build_ets(symbolic=...)`` seam."""

from repro.events.ets_to_nes import nes_of_ets
from repro.netkat.fdd import FieldOrder
from repro.pipeline import CompileOptions
from repro.runtime.compiler import CompiledNES, compile_nes
from repro.stateful.ets import ETS, build_ets
from repro.stateful.events import extract
from repro.stateful.projection import project

from .fdd import ReferenceFDDBuilder


class PerStateWalk:
    """An instantiation source for :func:`build_ets` that walks the
    program afresh for every state (Figures 5 and 6)."""

    def __init__(self, program):
        self.program = program

    def edges_at(self, state):
        return extract(self.program, state).edges

    def configuration_at(self, state):
        return project(self.program, state)


def per_state_ets(program, initial, **kwargs) -> ETS:
    """``build_ets`` with the per-state walks instead of the symbolic engine."""
    return build_ets(program, tuple(initial), symbolic=PerStateWalk(program), **kwargs)


def reference_compiled(
    program, topology, initial, options: CompileOptions = CompileOptions()
) -> CompiledNES:
    """An artifact built entirely from the oracles: per-state ETS walks,
    then the uncached FDD algebra (an explicit builder also forces the
    serial executor)."""
    nes = nes_of_ets(per_state_ets(program, initial))
    builder = ReferenceFDDBuilder(FieldOrder(options.field_order))
    return compile_nes(nes, topology, builder=builder, options=options)
