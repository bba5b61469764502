"""repro: a from-scratch reproduction of "Event-Driven Network
Programming" (McClurg, Hojjat, Foster, Cerny; PLDI 2016).

Layers, bottom to top:

- :mod:`repro.netkat` -- NetKAT (syntax, semantics, FDD compiler, tables)
- :mod:`repro.topology` -- switches, ports, links, hosts
- :mod:`repro.stateful` -- Stateful NetKAT, projection, event extraction
- :mod:`repro.events` -- event structures, NESs, ETS->NES, locality
- :mod:`repro.consistency` -- network traces, happens-before, the
  event-driven consistent update checkers (Definitions 2 and 6)
- :mod:`repro.runtime` -- the tag/digest implementation (Figure 7)
- :mod:`repro.network` -- the discrete-event simulator and traffic
- :mod:`repro.baselines` -- uncoordinated updates, static reference
- :mod:`repro.optimize` -- the rule-sharing trie heuristic (section 5.3)
- :mod:`repro.apps` -- the five case studies and the ring workload
- :mod:`repro.pipeline` -- the staged compilation façade over all of it
- :mod:`repro.faults` -- deterministic seeded fault injection for
  chaos-testing the pipeline, cache, and executor failure seams

Quickstart -- compile through the staged pipeline, then run it::

    import repro
    from repro.apps import firewall_app
    from repro.consistency import check_trace_against_nes

    app = firewall_app()
    compiled = repro.compile_app(app)        # ETS -> NES -> flow tables
    print(app.pipeline.report())             # per-stage timings + stats

    rt = app.runtime(seed=0)
    rt.inject("H1", {"ip_dst": 4, "ip_src": 1})
    rt.run_until_quiescent()
    report = check_trace_against_nes(rt.network_trace(), app.nes, app.topology)
    assert report.correct

Every compiler knob lives on :class:`repro.CompileOptions`; a
:class:`repro.Pipeline` built with ``CompileOptions(backend="thread")``
shards the per-configuration compiles, and one built with
``CompileOptions(cache_dir=...)`` persists compiled artifacts so a
repeated construction skips the toolchain entirely::

    opts = repro.CompileOptions(backend="thread", cache_dir=".repro-cache")
    pipeline = repro.Pipeline(app.program, app.topology, app.initial_state, opts)
    tables = pipeline.compiled.guarded_tables()
"""

# Defined before the submodule imports: repro.service reads it at import
# time (its HTTP Server header and /version body carry it).
__version__ = "0.1.0"

from . import apps, baselines, consistency, events, faults, netkat, network, optimize, pipeline, runtime, service, stateful, verify
from .formula import EQ, Formula, Literal, NE
from .pipeline import (
    ArtifactIntegrityError,
    CompileOptions,
    Delta,
    Pipeline,
    PipelineError,
    StageError,
    compile_app,
)
from .topology import Host, Topology

__all__ = [
    "netkat",
    "stateful",
    "events",
    "consistency",
    "runtime",
    "network",
    "baselines",
    "optimize",
    "apps",
    "verify",
    "pipeline",
    "faults",
    "service",
    "Pipeline",
    "CompileOptions",
    "Delta",
    "compile_app",
    "PipelineError",
    "StageError",
    "ArtifactIntegrityError",
    "Topology",
    "Host",
    "Formula",
    "Literal",
    "EQ",
    "NE",
    "__version__",
]
